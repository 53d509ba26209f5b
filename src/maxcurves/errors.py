"""Shared exception types."""


class CapError(ValueError):
    """A fixed desk-scale cap (field size, table size, factorization, lift order) was exceeded."""


class ConsistencyError(RuntimeError):
    """A verified mathematical identity failed.

    Raised when a construction that is guaranteed to succeed (root existence,
    rationality of coefficients, normalization of an automorphism matrix)
    does not; it signals a bug in the tower plumbing, never bad user input.
    """
