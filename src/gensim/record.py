"""Slotted records with the constructor, equality, hash, repr and
immutability a dataclass gives, without importing ``dataclasses``: that
import and the class processing took about 20 ms of every ``gensim``
process's start-up (Python 3.11, 2-core x86 host).

A record's fields are its ``__slots__`` not starting with ``_``, in order.
"""

from operator import attrgetter


class Record:
    """A mutable record, built from its fields by position or keyword.
    Records of one class are equal when their fields are; the repr reads
    ``Name(field=value, ...)``; copies are rebuilt through ``__init__``.
    Unhashable, as a dataclass with ``eq=True`` is."""

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls):
        cls._fields = fields = tuple(f for f in cls.__slots__ if f[0] != "_")
        if fields:
            get = attrgetter(*fields)
            cls._values = staticmethod(get if len(fields) > 1 else lambda r: (get(r),))

    def __init__(self, *values, **named):
        fields = self._fields
        if named:
            values += tuple(named.pop(f) for f in fields[len(values):] if f in named)
        if named or len(values) != len(fields):
            raise TypeError(f"{type(self).__qualname__} takes the fields {', '.join(fields)}")
        for field, value in zip(fields, values):
            object.__setattr__(self, field, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)


class Frozen(Record):
    """An immutable record, hashed on its fields: assigning raises
    ``AttributeError``."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
