"""Immutable value records: the frozen-dataclass behaviour the package uses,
without importing `dataclasses` (which brings in `inspect` and `ast`).

A subclass names its fields as class annotations.  Its constructor takes
them by position or keyword, in annotation order; afterwards no attribute
can be set or deleted, and two records of one class compare and hash by
their field values.  `functools.cached_property` still works on a record,
because it writes to the instance dict directly.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    def __init_subclass__(cls):
        names = tuple(cls.__annotations__)
        cls._fields = names
        # An attrgetter is no descriptor: call it as self._values(self).
        cls._values = attrgetter(*names)
        # One straight-line setter per class, as dataclasses writes one: a
        # loop over the names took twice as long per record, and the layer
        # tables make thousands.  object.__setattr__ keeps CPython's inline
        # attribute values, which writing to self.__dict__ would give up.
        body = "".join(f"    setattr(self, {n!r}, {n})\n" for n in names)
        scope = {"setattr": object.__setattr__}
        exec(f"def _set_fields(self, {', '.join(names)}):\n{body}", scope)
        cls._set_fields = scope["_set_fields"]
        cls._set_fields.__qualname__ = f"{cls.__qualname__}._set_fields"
        if "__init__" not in cls.__dict__:
            cls.__init__ = cls._set_fields

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        pairs = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({pairs})"
