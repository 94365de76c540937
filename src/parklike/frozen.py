"""The value protocol of every immutable class in the package, stated once.

A subclass lists its fields in __slots__, or in _fields when a slot is not
part of the value.  Values are equal iff they have the same class and equal
fields, equal values hash alike, repr is ``Name(field=value, ...)``, and
assigning or deleting an attribute raises FrozenInstanceError.  Nothing is
generated per class: one attrgetter per class reads the fields.  The default
__init__ takes the fields positionally; a class that checks or normalises
its arguments defines its own, which takes the class's slots in order, as
pickling and copying call it.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class FrozenInstanceError(AttributeError):
    """Assigning or deleting an attribute of a Frozen value."""


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = fields = tuple(cls.__dict__.get("_fields", cls.__slots__))
        # One field reads as itself and none as the class: no tuple is built.
        cls._values = attrgetter(*fields) if fields else attrgetter("__class__")

    def __init__(self, *values):
        fields = self._fields
        if len(values) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} arguments, got {len(values)}")
        for name, value in zip(fields, values):
            _set(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return self is other or values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in type(self).__slots__])


class Keyed(Frozen):
    """A Frozen that keeps its hash: hashing is one slot read.  For the
    values hashed on every memo lookup (expression nodes, chi maps), whose
    keys hit by identity, so the inherited equality is rarely reached;
    structures, built by the million, keep nothing extra."""

    __slots__ = ("_hash",)
    _fields = ()

    def __init__(self, *values):
        Frozen.__init__(self, *values)
        _set(self, "_hash", hash(values))

    def __hash__(self):
        return self._hash
