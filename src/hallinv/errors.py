"""The library's exception for a broken invariant."""


class InvariantViolation(AssertionError):
    """A proved identity failed on computed data; always a bug."""
