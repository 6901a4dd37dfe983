"""Immutable records: the value classes of the parser, the tree and the evaluator.

A `Record` behaves like a frozen dataclass without importing `dataclasses`
(which loads `inspect`, `ast` and more) or generating code for each class
at import.  A subclass names its fields in `__slots__` and sets each one
once in its own `__init__` through the setters `field_setters` gives for
the class, bound to module names after it; after that, setting or
deleting an attribute raises `AttributeError`.  Equality (same type and
equal fields), hashing, `repr`, positional `match` patterns, `copy` and
`pickle` all follow the field order of `__slots__`.
"""

from operator import attrgetter


def field_setters(cls: type) -> tuple:
    """How a record class's `__init__` sets each field, past `Record.__setattr__`:
    the `__set__` of each slot's member descriptor, in `__slots__` order,
    called as `set(record, value)`."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


def _values_getter(names: tuple[str, ...]):
    """A function from a record to the tuple of its fields' values, in C where it can be."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda record: (get(record),)
    return lambda record: ()


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "__slots__" not in cls.__dict__:
            raise TypeError(f"record class {cls.__name__} must name its fields in __slots__")
        cls.__match_args__ = tuple(cls.__slots__)
        cls._values = staticmethod(_values_getter(cls.__match_args__))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of immutable {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of immutable {type(self).__name__}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)
