"""The common base of berkvol's domain errors, and of its immutable values."""


class BerkvolError(Exception):
    """An input outside the domain of a computation (CLI exit status 3)."""


class Frozen:
    """An immutable value: __init__ fills self.__dict__ once, and assigning
    or deleting an attribute afterwards raises AttributeError."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")
