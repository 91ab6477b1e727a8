"""Immutable value objects, built with no generated code.

A record class annotates its fields in order, a default written as a
class-level value with its annotation.  Record reads the fields when the
class is created and gives it one __init__: positional, then keyword
arguments bind to the fields in order, a field left out takes its default,
and a missing, unknown, repeated or surplus argument is a TypeError naming
the class.  A class that validates calls super().__init__, then checks.
Record also gives value equality, a hash over the fields less the
`unhashed` ones, the repr Name(field=value, ...), and an AttributeError on
assigning or deleting an attribute.  Instances keep their fields in the
ordinary instance __dict__, so copy.deepcopy and pickle rebuild them
without calling __init__ or __setattr__.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields = ()
    _hashed = ()
    _defaults = {}

    def __init_subclass__(cls, unhashed: tuple = ()):
        own = tuple(cls.__annotations__)
        cls._fields += own
        cls._hashed += tuple(f for f in own if f not in unhashed)
        cls._defaults = {**cls._defaults, **{f: vars(cls)[f] for f in own if f in vars(cls)}}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) == len(fields) and not kwargs:
            self.__dict__.update(zip(fields, args))
            return
        name, given = self.__class__.__qualname__, fields[: len(args)]
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields but {len(args)} were given")
        for field in kwargs:
            if field not in fields or field in given:
                raise TypeError(f"{name} got an unknown or repeated field {field!r}")
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        for field in fields:
            if field not in values:
                raise TypeError(f"{name} is missing field {field!r}")
        self.__dict__.update(values)

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
