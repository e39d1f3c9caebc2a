"""Immutable value records: the package's configuration, gain polynomial and matrix types.

A record class names its fields in `_fields` and sets them in its own
`__init__` through `__dict__`; after that, assigning or deleting an
attribute raises AttributeError.  Equality (same class only), hashing and
repr follow `_fields`, the way a frozen dataclass's do (linalg.Matrix
prints its rows instead).  Instances keep a plain `__dict__`, so they
pickle and copy with no extra hooks.
"""


class Record:
    _fields = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, val) for name, val in zip(self._fields, self._values())))
