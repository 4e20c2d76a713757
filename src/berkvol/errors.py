"""The common base of berkvol's domain errors."""


class BerkvolError(Exception):
    """An input outside the domain of a computation (CLI exit status 3)."""
