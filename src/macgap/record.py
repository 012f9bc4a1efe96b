"""Plain value classes: equality and repr from the fields in `__slots__`.

A subclass lists its own fields in `__slots__`, in order, and sets them in
its own `__init__`; `_names` holds every field, those of its bases first.
`Record` gives field equality and leaves instances unhashable;
`FrozenRecord` also hashes by the fields and refuses assignment, so its
`__init__` sets the fields with `_freeze`.  `SuiteReport` is the outcome of
a `verify` suite.
"""


class Record:
    __slots__ = ()
    _names = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._names = tuple(name for base in reversed(cls.__mro__)
                           for name in base.__dict__.get("__slots__", ()))

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    __slots__ = ()

    def _freeze(self, *values) -> None:
        for name, value in zip(self._names, values, strict=True):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")


class SuiteReport(Record):
    """Outcome of a `verify` suite: `checks` counts what it checked and
    `violations` lists what failed.  A suite with counters of its own
    subclasses this and adds them as fields."""

    __slots__ = ("checks", "violations")

    def __init__(self, checks: int = 0, violations: list | None = None):
        self.checks = checks
        self.violations = [] if violations is None else violations

    @property
    def ok(self) -> bool:
        return not self.violations
