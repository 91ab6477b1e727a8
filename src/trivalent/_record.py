"""Immutable value objects, built with no generated code.

A record class annotates its fields in order and writes its own __init__,
which sets each field once with `object.__setattr__` (bound here as
`setfield`); any validation follows in the same __init__.  Record reads the
field names from the annotations when the class is created and gives it
value equality, a hash over its fields less the `unhashed` ones, the repr
Name(field=value, ...), and an AttributeError on assigning or deleting an
attribute.  Instances keep their fields in the ordinary instance __dict__,
so copy.deepcopy and pickle rebuild them without calling __setattr__.
"""

from __future__ import annotations

setfield = object.__setattr__


class Record:
    __slots__ = ()
    _fields = ()
    _hashed = ()

    def __init_subclass__(cls, unhashed: tuple = ()):
        own = tuple(cls.__annotations__)
        cls._fields += own
        cls._hashed += tuple(f for f in own if f not in unhashed)

    def _values(self, names: tuple) -> tuple:
        return tuple([getattr(self, f) for f in names])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self._fields) == other._values(self._fields)

    def __hash__(self):
        return hash(self._values(self._hashed))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
