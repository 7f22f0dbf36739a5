"""Exceptions and the immutable record base shared by all modules.

Two failure modes are kept apart on purpose: bad input data (malformed
files, contract violations, dimension mismatches) versus inputs that are
well formed but contradict a theorem the library enforces.  The CLI maps
them to exit codes 2 and 1 respectively.

Results and validated values derive from :class:`Record`; a value checks
its constructor arguments, which are its fields, in its own ``__init__``.
"""


class InputError(ValueError):
    """Malformed or contract-violating input."""


class ModelIntegrityError(Exception):
    """Well-formed input that violates an enforced theorem.

    Such an input cannot arise from an actual real structure; the payload
    carries whatever numeric trace the check produced.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class Record:
    """Immutable record whose ``__slots__`` name its fields in order; a record
    with defaults spells them in its own ``__init__``.  Not a dataclass: that
    import pulls in ``inspect``, and each class compiles six methods at import."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs:
            args += tuple(kwargs.pop(name) for name in names[len(args):] if name in kwargs)
        if kwargs or len(args) != len(names):
            raise TypeError(f"{type(self).__name__} takes each of the fields {names} once")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), tuple(self._asdict().values())

    def __eq__(self, other):
        return self._asdict() == other._asdict() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(self._asdict().values()))

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"
