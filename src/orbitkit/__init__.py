"""orbitkit: exact-arithmetic orbit-method and C*-algebra invariant toolkit."""

__version__ = "0.1.0"


class InputError(ValueError):
    """Invalid user-supplied data (bad file, inconsistent brackets, ...)."""
