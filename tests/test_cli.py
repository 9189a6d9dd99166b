import hashlib
import importlib
import json
import pkgutil
import random
import time

import pytest

import hallinv
from hallinv import charvar, cli, foxcalc
from hallinv.cli import main
from hallinv.oracle import FiniteGroupTable
from hallinv.tables import TABLE1_ROWS, TABLE2_ROWS


# a prime past trial division's reach, and a number past the primality test's
HUGE_PRIME = str(10 ** 18 + 3)
TOO_LARGE = str(10 ** 400 + 1)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_parse_and_errors(tmp_path, capsys):
    pres = tmp_path / "p.txt"
    pres.write_text("gens: x, y\nrels: [x,y]\n")
    code, out, _ = run(capsys, "parse", "--in", str(pres))
    assert code == 0 and "x*y*x^-1*y^-1" in out

    bad = tmp_path / "bad.txt"
    bad.write_text("gens: x\nrels: y\n")
    code, _, err = run(capsys, "parse", "--in", str(bad))
    assert code == 1 and "undeclared" in err

    code, _, err = run(capsys, "beta", "--p", "2", "--q", "3")
    assert code == 1 and "--in or --fixture" in err


def test_abelianize_json(capsys):
    code, out, _ = run(capsys, "abelianize", "--fixture", "rp:2", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload == {"free_rank": 1, "torsion": [2],
                       "b1": {"0": 1, "2": 2, "3": 1, "5": 1, "7": 1}}


def test_beta_json_a31425(capsys):
    code, out, _ = run(capsys, "beta", "--p", "2", "--q", "3",
                       "--fixture", "horizontal:31425", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["beta"] == {"0": 15, "1": 5, "2": 1, "3": 10}
    assert payload["p"] == 2 and payload["q"] == 3 and payload["n_p"] == 5


def test_delta_targets(capsys):
    code, out, _ = run(capsys, "delta", "--target", "mpq:2,3",
                       "--fixture", "horizontal:21345", "--json")
    assert code == 0 and json.loads(out)["delta"] == 168
    code, out, _ = run(capsys, "delta", "--target", "ab:2,4",
                       "--fixture", "free:4", "--json")
    assert code == 0 and json.loads(out)["delta"] == 420
    code, out, _ = run(capsys, "delta", "--target", "a4",
                       "--fixture", "free:2", "--json")
    assert code == 0 and json.loads(out)["delta"] == 4
    code, _, err = run(capsys, "delta", "--target", "sym:3",
                       "--fixture", "free:2")
    assert code == 1


def test_cover_command(capsys):
    code, out, _ = run(capsys, "cover", "--order", "3", "--images",
                       "1,2,2,1,1,0,2,0", "--q", "2",
                       "--fixture", "deleted_b3", "--json")
    assert code == 0 and json.loads(out)["b1"] == 10


def test_census_command(capsys):
    code, out, _ = run(capsys, "census", "--k", "3", "--all-counts",
                       "--conjugacy", "--fixture", "braid_arrangement",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["a_k"] == 409 and payload["c_k"] == 379
    # |S_4|^6 maps exceed the default budget, but the search it runs fits
    code, out, _ = run(capsys, "census", "--k", "4",
                       "--fixture", "braid_arrangement")
    assert code == 0 and "a_k = 3887" in out.splitlines()


def test_arr_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "a.txt"
    code, _, _ = run(capsys, "arr", "--perm", "2134", "--out", str(out_file))
    assert code == 0
    code, out, _ = run(capsys, "beta", "--p", "2", "--q", "0",
                       "--in", str(out_file), "--json")
    assert code == 0
    assert json.loads(out)["beta"] == {"0": 8, "1": 1, "2": 6}


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--target", "s3", "--mode", "delta",
                       "--fixture", "free:2", "--json")
    assert code == 0 and json.loads(out)["delta"] == 3
    code, out, _ = run(capsys, "oracle", "--cover-order", "2",
                       "--cover-images", "1,0", "--fixture", "free:2",
                       "--json")
    assert code == 0 and json.loads(out)["betti"] == 3


def test_oracle_table_file(tmp_path, capsys):
    from hallinv.oracle import FiniteGroupTable
    table = tmp_path / "k4.json"
    table.write_text(json.dumps(
        {"mul": FiniteGroupTable.abelian([2, 2]).mul}))
    code, out, _ = run(capsys, "oracle", "--target", f"table:{table}",
                       "--mode", "delta", "--fixture", "free:2", "--json")
    assert code == 0 and json.loads(out)["delta"] == 1


def test_budget_exit_code(capsys):
    code, _, err = run(capsys, "census", "--k", "9", "--budget", "100",
                       "--fixture", "free:2")
    # a_9 needs S_9 maps: infeasible, but the report still prints
    assert code == 0 or code == 2


def test_tables_deterministic(capsys, fork_launches):
    # F3xF2's 121 order-3 character orbits are spread over a forked
    # child at --jobs 2
    code, out1, _ = run(capsys, "table1", "--rows", "F2,F3xF2", "--json")
    assert code == 0 and not fork_launches
    code, out2, _ = run(capsys, "table1", "--rows", "F2,F3xF2", "--json",
                        "--jobs", "2")
    assert code == 0 and fork_launches
    assert out1 == out2
    payload = json.loads(out1)
    first = payload["table"][0]
    assert first["row"] == "F2"
    assert [c["value"] for c in first["cells"]] == \
        [3, 4, 1, 6, 3, 12, 3, 4, 8]


def test_table2_row(capsys):
    code, out, _ = run(capsys, "table2", "--rows", "A(31425)", "--json")
    assert code == 0
    cells = json.loads(out)["table"][0]["cells"]
    assert [c["value"] for c in cells] == [139, 191, 290]


@pytest.mark.parametrize("argv", [
    ("oracle", "--fixture", "free:2"),
    ("oracle", "--cover-order", "2", "--fixture", "free:2"),
    ("beta", "--p", "4", "--q", "3", "--fixture", "free:2"),
    ("beta", "--p", "2", "--q", "4", "--fixture", "free:2"),
    ("delta", "--target", "mpq:4,3", "--fixture", "free:2"),
    ("delta", "--target", "mpq:3,3", "--fixture", "free:2"),
    ("oracle", "--target", "mpq:4,3", "--mode", "delta",
     "--fixture", "free:2"),
    ("oracle", "--cover-order", "3", "--cover-images", "1,0", "--q", "4",
     "--fixture", "free:2"),
    ("beta", "--p", "3", "--q", "0", "--jobs", "0", "--fixture", "deleted_b3"),
    ("beta", "--p", "3", "--q", "0", "--jobs", "-2",
     "--fixture", "deleted_b3"),
    # a budget below 1 is malformed, not an infeasible enumeration (exit 2)
    ("oracle", "--budget", "-5", "--target", "s3", "--fixture", "free:2"),
    ("census", "--budget", "0", "--k", "3", "--fixture", "free:2"),
])
def test_bad_input_exits_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, shape", [
    (("delta", "--target", "mpq:3"), "mpq:p,q"),
    (("delta", "--target", "ab:"), "ab:n1,n2,..."),
    (("oracle", "--target", "cyclic:0"), "cyclic:n"),
    (("oracle", "--target", "ab:2,0"), "ab:n1,n2,..."),
    (("oracle", "--target", "sym:x"), "sym:k"),
])
def test_bad_target_names_its_shape(capsys, argv, shape):
    code, out, err = run(capsys, *argv, "--fixture", "free:2")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert shape in err


@pytest.mark.parametrize("name, shape", [
    ("free:x", "free:n"),
    ("product:2,,1", "product:n1,n2,..."),
    ("surface:", "surface:g"),
    ("rp:1.5", "rp:n"),
    ("horizontal:12a", "horizontal:<a permutation of 1..n"),
])
def test_bad_fixture_parameter_names_its_shape(capsys, name, shape):
    code, out, err = run(capsys, "abelianize", "--fixture", name)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {name}: expected ") and shape in err
    assert err.count("\n") == 1 and "int()" not in err


def test_beta_over_a_field_past_the_table_limit(capsys):
    # ord_11(7) = 10, so the order-11 characters take values in F_{7^10},
    # past the Zech table limit; its modulus is found by Ben-Or's test
    code, out, _ = run(capsys, "beta", "--p", "11", "--q", "7",
                       "--fixture", "free:2")
    assert code == 0 and out.startswith("beta_11^(7) = (12,)")


def test_cover_over_a_field_too_large_to_factor(capsys):
    # ord_107(3) = 53: zeta_107 lives in F_{3^53}, found from the primes of
    # 107 alone, without factoring 3^53 - 1
    code, out, _ = run(capsys, "cover", "--order", "107", "--images", "1,0",
                       "--q", "3", "--fixture", "free:2")
    assert code == 0 and out == "b1^(3) of the cover = 108\n"


def test_prime_past_trial_division(capsys):
    # 10^18 + 3 is prime; trial division to its square root never ended
    code, out, _ = run(capsys, "beta", "--p", "3", "--q", HUGE_PRIME,
                       "--fixture", "free:2")
    assert code == 0 and out.startswith(f"beta_3^({HUGE_PRIME}) = (4,)")


def test_root_search_skips_the_constants(capsys):
    # 10^9 + 7 = 2 (mod 3), so zeta_3 lies in F_{q^2} and in none of its
    # q constants, which the root search once tried one by one
    code, out, _ = run(capsys, "beta", "--p", "3", "--q", "1000000007",
                       "--fixture", "free:2")
    assert code == 0 and out == "beta_3^(1000000007) = (4,)   (n_p = 2)\n"


@pytest.mark.parametrize("argv", [
    ("beta", "--p", "3", "--q", TOO_LARGE),
    ("delta", "--target", f"mpq:3,{TOO_LARGE}"),
    ("cover", "--order", "2", "--images", "1,0", "--q", TOO_LARGE),
])
def test_number_past_the_primality_test_exits_1(capsys, argv):
    # past psi_13 primality is refused, not guessed (this once ended in an
    # OverflowError traceback)
    code, out, err = run(capsys, *argv, "--fixture", "free:2")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "too large" in err


@pytest.mark.parametrize("argv", [
    ("beta", "--p", HUGE_PRIME, "--q", "2"),
    ("delta", "--target", f"mpq:{HUGE_PRIME},2"),
    ("oracle", "--target", f"mpq:{HUGE_PRIME},2"),
])
def test_field_degree_past_the_cap_exits_1(capsys, argv):
    # the order of 2 mod 10^18 + 3 is far past MAX_FIELD_DEGREE: counting
    # it out ran past any timeout, and its field could never be built
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--fixture", "free:2")
    assert time.perf_counter() - start < 5
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"the order of 2 mod {HUGE_PRIME} exceeds" in err


def test_large_table_checked_in_time(capsys):
    # M_{2,809} has 1618 elements, 2.6M table entries: checking every
    # triple for associativity ran past 90 s, Light's test takes seconds
    start = time.perf_counter()
    code, out, _ = run(capsys, "oracle", "--target", "mpq:2,809",
                       "--mode", "all", "--fixture", "free:1")
    assert code == 0 and out == "all count = 1618\n"
    assert time.perf_counter() - start < 20


def test_non_associative_table_file_exits_1(tmp_path, capsys):
    # a loop of order 5: identity 0, each element its own inverse, every
    # row and column a permutation, yet (1*2)*2 = 3*2 = 4 and
    # 1*(2*2) = 1*0 = 1
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"mul": loop}))
    code, out, err = run(capsys, "oracle", "--target", f"table:{path}",
                         "--fixture", "free:2")
    assert code == 1 and out == ""
    assert err == "error: multiplication not associative\n"


def test_oracle_cover_takes_one_smith_form(capsys, monkeypatch):
    from hallinv import oracle
    calls = []

    def counted(rows, cols):
        calls.append(cols)
        return snf(rows, cols)

    snf = oracle.smith_normal_form
    monkeypatch.setattr(oracle, "smith_normal_form", counted)
    code, out, _ = run(capsys, "oracle", "--cover-order", "3",
                       "--cover-images", "1,1,1", "--q", "2", "--fixture",
                       "rp:3")
    assert code == 0 and len(calls) == 1
    assert out == "H1(K) = Z^4 + [2]; b1^(2) = 5\n"


@pytest.mark.parametrize("argv, message", [
    (("beta", "--p", "x", "--q", "0", "--fixture", "free:2"),
     "invalid int value: 'x'"),
    (("beta", "--q", "0", "--fixture", "free:2"),
     "the following arguments are required: --p"),
    (("bogus", "--fixture", "free:2"), "invalid choice: 'bogus'"),
    (("oracle", "--mode", "bogus", "--target", "s3", "--fixture", "free:2"),
     "invalid choice: 'bogus'"),
])
def test_usage_error_exits_1(capsys, argv, message):
    # exit 2 is kept for an exceeded budget, so argparse's own usage
    # errors are bad input like any other
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: hallinv") and err.count("\n") == 1
    assert message in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["beta", "--help"])
    assert stop.value.code == 0 and "--check-orbits" in capsys.readouterr().out


def test_python_m_hallinv_help():
    # python -m hallinv runs the same command line as the hallinv script
    import os
    import pathlib
    import subprocess
    import sys
    src = str(pathlib.Path(hallinv.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "hallinv", "--help"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("usage: hallinv") and "cover" in proc.stdout
    # a walk over the package's modules imports it without running main
    importlib.import_module("hallinv.__main__")


def test_bad_perm_names_its_shape(capsys):
    code, out, err = run(capsys, "arr", "--perm", "3x")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "permutation of 1..n" in err


@pytest.mark.parametrize("table", [
    {"mul": 5},
    {"mul": [[0, 1], [1]]},
    {"table": [[0]]},
    [[0]],
    {"mul": []},
    {"mul": [[0, 2], [1, 0]]},
    {"mul": [[0, 1], [1, "0"]]},
    b"",  # bytes are written as they are: an empty file, then plain text
    b"mul: 0 1\n     1 0\n",
])
def test_malformed_table_file_exits_1(capsys, tmp_path, table):
    path = tmp_path / "t.json"
    if isinstance(table, bytes):
        path.write_bytes(table)
    else:
        path.write_text(json.dumps(table))
    code, out, err = run(capsys, "oracle", "--target", f"table:{path}",
                         "--fixture", "free:2")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "n x n table" in err


def test_alexander_bytes(capsys):
    # the Alexander matrix dump, byte for byte
    code, out, _ = run(capsys, "alexander", "--fixture", "rp:3")
    assert code == 0 and out == (
        "(0,0): 1 * t^[-1, -1] * s^[1] + 1\n"
        "(0,1): 1 * t^[-2, -2] + 1 * t^[-1, -2]\n"
        "(0,2): 1 * t^[0, -2] + 1 * t^[0, -1]\n")
    code, out, _ = run(capsys, "alexander", "--fixture", "rp:3", "--json")
    assert code == 0 and out == (
        '{"entries": ["(0,0): 1 * t^[-1, -1] * s^[1] + 1", '
        '"(0,1): 1 * t^[-2, -2] + 1 * t^[-1, -2]", '
        '"(0,2): 1 * t^[0, -2] + 1 * t^[0, -1]"], "shape": [1, 3]}\n')
    # every frozen fixture, one built from its braid, and two families:
    # any change to the chi basis changes these bytes
    for name, alexander, abelianize in ALEXANDER_DIGESTS:
        code, out, _ = run(capsys, "alexander", "--fixture", name)
        assert code == 0 and _sha256(out) == alexander, name
        code, out, _ = run(capsys, "abelianize", "--fixture", name, "--json")
        assert code == 0 and _sha256(out) == abelianize, name


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# (fixture, sha256 of `alexander`, sha256 of `abelianize --json`)
ALEXANDER_DIGESTS = (
    ("braid_arrangement",
     "86b96325f2b07059e4824b67b1ea3fb3bfa4c9f28ea5a5a5dd7ce2ad550cb8c8",
     "7a9d7ce6069f35625e2cc7115457a53b5542229bb6a55c087f0e5e7071c04e34"),
    ("deleted_b3",
     "a0dbee019b5f3b053962bcdaf022cdd0b6f6b491a5a399be3c4129efd10ea7f9",
     "e94ddeceda5aba1ae37245dea21e7f80ef07d781a6ca6ed355a5aed76c1e5a2e"),
    ("non_fano",
     "59d29da68f50d5ffa717a9b5a0c9987a4c5e89914a8101ec0144cf5a79fafaf0",
     "316161fe77a5413971921d321a4f98e12f9f9145df5c781c92945bd645fddfd3"),
    ("horizontal:123",
     "53589b290ef4457a58f44895434c30d46f80ce66bddfe9b0798e9231e3fc70e0",
     "fe65811db0ea1c67da7c000e33e9dcd88563d8295a3ca1a3f250c902812a108d"),
    ("horizontal:1234",
     "38eab82e37ab0363cdb35bb3b57d1a203494f2508590a5f4cb939528428d47f7",
     "b47be87a580963d334b2d48bdd8f3065a648a5952d66efa39636a6ab3b720b9b"),
    ("horizontal:12345",
     "f3de57fbfe3b76497138bcc2931ea3c72ba6a4464ef7171617b0d6e8e59b98e3",
     "08e314c88784cdd3c6521c75ce8ae43ce16b07b3be0f5f5deb34652b672459fc"),
    ("horizontal:123456",
     "10cb64e206bb6f280180391cd09460d94ab1b8d986945954f1b74503853bb123",
     "7a9d7ce6069f35625e2cc7115457a53b5542229bb6a55c087f0e5e7071c04e34"),
    ("horizontal:2134",
     "d9712db0c257812ab0ab70ec2d77c53189aa686cad2fded38aec759999ae8712",
     "b47be87a580963d334b2d48bdd8f3065a648a5952d66efa39636a6ab3b720b9b"),
    ("horizontal:21345",
     "5b405187da6c18088346089033272d5aa88d98f801ed76ef6d93421ad3622f1f",
     "08e314c88784cdd3c6521c75ce8ae43ce16b07b3be0f5f5deb34652b672459fc"),
    ("horizontal:21435",
     "e2fd8d4dfa426a3154f42050ed6baba9dd194ac9f454264417adac8b9945fd71",
     "08e314c88784cdd3c6521c75ce8ae43ce16b07b3be0f5f5deb34652b672459fc"),
    ("horizontal:31425",
     "76e22c3ae1902823f368ccd6240eb2d04aecd253f8eec2e420613e2da087bad1",
     "08e314c88784cdd3c6521c75ce8ae43ce16b07b3be0f5f5deb34652b672459fc"),
    ("horizontal:21534",
     "5b405187da6c18088346089033272d5aa88d98f801ed76ef6d93421ad3622f1f",
     "08e314c88784cdd3c6521c75ce8ae43ce16b07b3be0f5f5deb34652b672459fc"),
    ("product:2,2",
     "c54da19b5b3831d3c74bd9b44175c3bc5878f8be569a0270d1c38834c07a227a",
     "b47be87a580963d334b2d48bdd8f3065a648a5952d66efa39636a6ab3b720b9b"),
    ("surface:2",
     "4e0dc4d07b7cb1648fd8732ae1fdfc3b8753699811812f8cb08bd78c1ab0a036",
     "b47be87a580963d334b2d48bdd8f3065a648a5952d66efa39636a6ab3b720b9b"),
)


@pytest.mark.parametrize("argv, message", [
    (("oracle", "--cover-order", "0", "--cover-images", "1,0"),
     "at least 1"),
    (("oracle", "--cover-order", "-3", "--cover-images", "1,0"),
     "at least 1"),
    (("oracle", "--cover-order", "3", "--cover-images", "1,x"),
     "comma-separated integers"),
    (("cover", "--order", "3", "--images", "1,x"),
     "comma-separated integers"),
])
def test_bad_cover_options_exit_1(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--fixture", "free:2")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("images, message", [
    ("1,0", "not a homomorphism"),
    ("0,0", "images do not generate Z_3"),
    ("1,0,0", "one image per generator required"),
])
def test_oracle_cover_rejects_what_cover_rejects(capsys, images, message):
    # rp:2 is <a, b | a^2 b^2>: a -> 1, b -> 0 sends the relator to 2 in
    # Z_3, 0,0 is a homomorphism onto nothing, and 1,0,0 has one image
    # too many; the oracle's coset action says so as `cover` does
    for argv in (("oracle", "--cover-order", "3", "--cover-images", images),
                 ("cover", "--order", "3", "--images", images)):
        code, out, err = run(capsys, *argv, "--fixture", "rp:2")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


def test_table_budget_checked_before_build(capsys, monkeypatch):
    # S_7's table would hold 5040^2 = 25.4M entries, over the 5M ceiling
    def build(k):
        raise AssertionError(f"S_{k} table built")
    monkeypatch.setattr(FiniteGroupTable, "symmetric", build)
    code, out, err = run(capsys, "oracle", "--target", "sym:7",
                         "--fixture", "free:2")
    assert code == 2 and out == "" and err.startswith("infeasible: ")


def test_cover_order_charged_before_the_action(capsys, monkeypatch):
    # a cover of order N permutes N cosets: past the budget the oracle
    # reports infeasible before it builds the N-point action
    from hallinv import cli

    def build(N, images):
        raise AssertionError(f"a {N}-point action built")
    monkeypatch.setattr(cli, "regular_cyclic_action", build)
    for argv in (("--cover-order", HUGE_PRIME),
                 ("--cover-order", "101", "--budget", "100")):
        code, out, err = run(capsys, "oracle", *argv, "--cover-images",
                             "1,0", "--fixture", "free:2")
        assert code == 2 and out == "" and err.startswith("infeasible: ")
    monkeypatch.undo()
    code, out, _ = run(capsys, "oracle", "--cover-order", "100",
                       "--budget", "100", "--cover-images", "1,0",
                       "--fixture", "free:2")
    assert code == 0 and out.startswith("H1(K) = Z^101 + []")


def test_lattice_budget_exits_2(capsys):
    # S_4's 576-entry table fits a budget of 1000, its subgroup lattice
    # does not; at the default budget the count goes through
    code, out, err = run(capsys, "oracle", "--target", "sym:4", "--mode",
                         "epi", "--fixture", "free:2", "--budget", "1000")
    assert code == 2 and out == "" and err.startswith("infeasible: ")
    code, out, _ = run(capsys, "oracle", "--target", "sym:4", "--mode",
                       "epi", "--fixture", "free:2")
    assert code == 0 and out == "epi count = 216\n"


@pytest.fixture
def counted(monkeypatch):
    """Calls of charvar._depth_tally (one per Betti distribution at
    --jobs 1), and of foxcalc's abelianization (one Smith normal form),
    alexander_matrix and augmentation_jacobian under every name the
    package binds them to."""
    calls = {"tally": 0, "abelianization": 0, "alexander_matrix": 0,
             "augmentation_jacobian": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(charvar, "_depth_tally",
                        counting("tally", charvar._depth_tally))
    modules = [importlib.import_module(f"hallinv.{info.name}")
               for info in pkgutil.iter_modules(hallinv.__path__)]
    for name in ("abelianization", "alexander_matrix",
                 "augmentation_jacobian"):
        original = getattr(foxcalc, name)
        wrapped = counting(name, original)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapped)
    return calls


@pytest.mark.parametrize("argv, tallies", [
    (("delta", "--target", "mpq:3,2"), 1),
    (("census", "--k", "2", "--all-counts"), 0),
    (("census", "--k", "3"), 1),
    (("census", "--k", "6", "--all-counts"), 1),
])
def test_each_invariant_computed_once(capsys, counted, argv, tallies):
    code, _, _ = run(capsys, *argv, "--fixture", "braid_arrangement")
    assert code == 0
    assert counted == {"tally": tallies, "abelianization": 1,
                       "alexander_matrix": min(tallies, 1),
                       "augmentation_jacobian": 1}


@pytest.mark.parametrize("argv", [
    ("beta", "--p", "2", "--q", "3", "--fixture", "deleted_b3"),
    ("delta", "--target", "mpq:3,2", "--fixture", "braid_arrangement"),
    ("cover", "--order", "3", "--images", "1,2,2,1,1,0,2,0", "--q", "2",
     "--fixture", "deleted_b3"),
])
def test_one_augmentation_jacobian_per_request(capsys, counted, argv):
    # abelianization builds it, and the Alexander matrix's augmentation
    # check and the cover's homomorphism check read it from H_1
    code, _, _ = run(capsys, *argv)
    assert code == 0 and counted["augmentation_jacobian"] == 1


def test_table1_one_group_per_row(capsys, counted):
    code, _, _ = run(capsys, "table1")
    assert code == 0
    assert counted["abelianization"] == len(TABLE1_ROWS)
    assert counted["alexander_matrix"] == len(TABLE1_ROWS)
    assert counted["augmentation_jacobian"] == len(TABLE1_ROWS)


BS12 = "gens: x, a\nrels: x*a*x^-1*a^-2\n"


@pytest.mark.parametrize("extra", [(), ("--check-orbits",)])
def test_beta_without_distribution_exits_1(capsys, tmp_path, extra):
    # at (3, 7) the two characters of BS(1,2)'s one index-3 subgroup lie in
    # different Frobenius orbits and differ in depth
    pres = tmp_path / "bs12.txt"
    pres.write_text(BS12)
    code, out, err = run(capsys, "beta", "--p", "3", "--q", "7",
                         "--in", str(pres), *extra)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "p = 3, q = 7" in err and "Traceback" not in err


def test_delta_json_without_distribution(capsys, tmp_path):
    pres = tmp_path / "bs12.txt"
    pres.write_text(BS12)
    code, out, _ = run(capsys, "delta", "--target", "mpq:3,7",
                       "--in", str(pres), "--json")
    assert code == 0
    assert json.loads(out) == {"target": "mpq:3,7", "delta": 1,
                               "method": "metabelian-torsion-count"}
    for images in ("1,0", "2,0"):
        code, out, _ = run(capsys, "cover", "--order", "3", "--q", "7",
                           "--images", images, "--in", str(pres))
        assert code == 0 and out == "b1^(7) of the cover = 2\n"


@pytest.mark.parametrize("command, rows", [("table1", "XX"),
                                           ("table2", "A(31425),nope")])
def test_unknown_table_row_exits_1(capsys, command, rows):
    code, out, err = run(capsys, command, "--rows", rows)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    known = TABLE1_ROWS if command == "table1" else TABLE2_ROWS
    assert all(label in err for label, _ in known)


# the options of each subcommand, each with its valid values and its
# invalid ones (out of range, not an integer, malformed or empty)
INPUT_OPTIONS = {
    "--fixture": (["free:2", "rp:3", "surface:1", "product:1,1",
                   "horizontal:123"], ["free:x", "nope", ""]),
    "--in": (["good"], ["bad", "missing"]),
}
BAD_INT = ["0", "-3", "x", "2.5", ""]
FUZZ_OPTIONS = {
    "parse": INPUT_OPTIONS,
    "abelianize": INPUT_OPTIONS,
    "alexander": INPUT_OPTIONS,
    "beta": {**INPUT_OPTIONS, "--p": (["2", "3", "5"], ["1", "4"] + BAD_INT),
             "--q": (["0", "2", "3", "7", HUGE_PRIME],
                     ["4", "-1", "x", "", TOO_LARGE]),
             "--check-orbits": None},
    "delta": {**INPUT_OPTIONS,
              "--target": (["s3", "a4", "mpq:3,7", "ab:2,2", "ab:4",
                            f"mpq:3,{HUGE_PRIME}"],
                           ["sym:3", "mpq:3", "mpq:2,2", "ab:", "bogus",
                            "", f"mpq:3,{TOO_LARGE}"])},
    "cover": {**INPUT_OPTIONS, "--order": (["1", "2", "3", "6"], BAD_INT),
              "--images": (["1,0", "1,1", "0,0"], ["1,0,2", "1,x", ""]),
              "--q": (["0", "2", "3", HUGE_PRIME], ["4", "x", "", TOO_LARGE])},
    "census": {**INPUT_OPTIONS, "--k": (["1", "2", "3"], BAD_INT),
               "--normal": None, "--abelian-quotient": None,
               "--conjugacy": None, "--all-counts": None},
    "arr": {"--perm": (["123", "2134"], ["12a", "11", ""]),
            "--fixture": INPUT_OPTIONS["--fixture"],
            "--out": (["file"], ["dir"])},
    "oracle": {**INPUT_OPTIONS,
               "--target": (["s3", "a4", "mpq:3,7", "ab:2,2", "sym:3",
                             "sym:4", "cyclic:4", "sym:5", "mpq:11,2",
                             f"mpq:3,{HUGE_PRIME}"],
                            ["cyclic:0", "table:missing", "bogus", "",
                             f"mpq:3,{TOO_LARGE}"]),
               "--mode": (["all", "epi", "delta"], ["bogus", ""]),
               "--cover-order": (["1", "2", "3"], BAD_INT),
               "--cover-images": (["1,0", "0,0"], ["1,x", ""]),
               "--q": (["0", "2", "3", HUGE_PRIME],
                       ["4", "x", "", TOO_LARGE])},
    "table1": {"--rows": (["F2", "F2,T2#2", "RP2#2"], ["XX", ""])},
    "table2": {"--rows": (["A(123)", "A(1234),A(2134)"], ["F2", ""])},
}
FUZZ_COMMON = {"--json": None, "--jobs": (["1"], ["0", "-1", "x", ""])}


def fuzz_argv(rng, files):
    """A command line: each option of a subcommand (or of a bogus one)
    present with odds 3:1, and its value invalid one time in ten."""
    command = rng.choice(sorted(FUZZ_OPTIONS) + ["bogus"])
    argv = [command]
    options = {**FUZZ_OPTIONS.get(command, {}), **FUZZ_COMMON}
    for flag, values in options.items():
        if rng.random() < 0.75:
            argv.append(flag)
            if values is not None:
                value = rng.choice(values[rng.random() < 0.1])
                argv.append(files.get(value, value))
    if rng.random() < 0.05:
        argv.insert(rng.randrange(len(argv) + 1),
                    rng.choice(["--bogus", "extra", "--p"]))
    return argv + ["--budget", "10000"]


def fuzz_argvs(tmp_path):
    """The fuzzer's 200 seeded command lines, their files in tmp_path."""
    (tmp_path / "good.txt").write_text("gens: x, y\nrels: [x,y]\n")
    (tmp_path / "bad.txt").write_text("gens: x\nrels: y\n")
    files = {"good": str(tmp_path / "good.txt"),
             "bad": str(tmp_path / "bad.txt"),
             "missing": str(tmp_path / "missing.txt"),
             "table:missing": f"table:{tmp_path / 'missing.json'}",
             "file": str(tmp_path / "out.txt"), "dir": str(tmp_path)}
    rng = random.Random(2000)
    return [fuzz_argv(rng, files) for _ in range(200)]


def test_argv_fuzz(capsys, tmp_path):
    # seeded argv lists over every subcommand and option: each ends in
    # exit 0, in exit 1 with an error: line, or in exit 2 with an
    # infeasible: line, never in an exception
    codes = []
    for argv in fuzz_argvs(tmp_path):
        try:
            code = main(argv)
        except Exception as e:
            raise AssertionError(f"{argv} raised {e!r}") from e
        _, err = capsys.readouterr()
        lines = err.splitlines()
        assert "Traceback" not in err, argv
        assert code in (0, 1, 2), argv
        if code == 1:
            assert any(line.startswith("error: ") for line in lines), argv
        if code == 2:
            assert any(line.startswith("infeasible: ") for line in lines), \
                argv
        codes.append(code)
    # the draw reaches every outcome
    assert set(codes) == {0, 1, 2}


def test_cached_parser_keeps_no_state(capsys, tmp_path):
    # the parser built once per process answers every fuzzed command line
    # as a parser built afresh for it does, and a usage error or a leading
    # option leaves nothing behind for the next call
    argvs = fuzz_argvs(tmp_path)
    cached = [run(capsys, *argv) for argv in argvs]
    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    for argv, one, other in zip(argvs, cached, fresh):
        assert one == other, argv
    valid = run(capsys, "abelianize", "--fixture", "free:2")
    assert valid[0] == 0
    assert run(capsys, "beta", "--p")[0] == 1
    assert run(capsys, "--json", "abelianize", "--fixture", "free:2")[1] \
        != valid[1]
    assert run(capsys, "abelianize", "--fixture", "free:2") == valid


@pytest.mark.parametrize("leading, rest, code", [
    (["--budget", "5"], ["oracle", "--target", "s3", "--fixture", "free:2"],
     2),
    (["--json"], ["abelianize", "--fixture", "free:2"], 0),
    (["--jobs", "0"], ["abelianize", "--fixture", "free:2"], 1),
])
def test_common_options_before_the_subcommand(capsys, leading, rest, code):
    # --json, --jobs and --budget act the same before the subcommand as
    # after it
    before = run(capsys, *leading, *rest)
    assert before == run(capsys, *rest, *leading)
    assert before[0] == code
