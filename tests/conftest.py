import pytest


@pytest.fixture
def fork_launches(monkeypatch):
    """The list of fork launches of the character walk (the arguments of
    each charvar._parallel_depth_tally call).  Walks of any size fork, on
    two CPUs whatever the machine has, so that small walks take the fork
    path."""
    import hallinv.charvar as charvar
    launches = []
    tally = charvar._parallel_depth_tally
    monkeypatch.setattr(charvar, "_parallel_depth_tally",
                        lambda *a: launches.append(a) or tally(*a))
    monkeypatch.setattr(charvar, "_FORK_CUTOVER", 0)
    monkeypatch.setattr(charvar, "_cpu_count", lambda: 2)
    return launches
