"""The common base of berkvol's domain errors, and of its immutable values."""


class BerkvolError(Exception):
    """An input outside the domain of a computation (CLI exit status 3)."""


class Frozen:
    """An immutable value, built by keyword: Frozen(a=1, b=2) has the
    fields a and b, and a positional argument raises TypeError.  A subclass
    that validates or derives its fields defines its own __init__, which
    fills self.__dict__ once.  Assigning or deleting an attribute afterwards
    raises AttributeError."""

    def __init__(self, **fields):
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")
