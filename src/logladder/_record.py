"""Immutable slotted records: the common base of the value classes.

A record class lists its fields in ``__slots__`` and sets them in its own
``__init__`` (validating there, once) through the slot setters that
``field_setters`` returns for it.  This base supplies the rest: assignment
and deletion raise AttributeError, equality is field by field between
instances of the same class, the hash is that of the field tuple, and the
repr is ``Name(field=value, ...)``.  Pickling and copying rebuild an
instance by calling the class with its field values.

The fields are read from the ``__slots__`` of the instance's class, so a
record class is never subclassed to add fields.
"""


def field_setters(cls) -> tuple:
    """One setter per field of a record class, in ``__slots__`` order.

    Each takes (instance, value) and writes the slot descriptor directly,
    past ``Record.__setattr__`` (which refuses every assignment) and without
    a lookup by name: this is how a record's ``__init__`` sets its fields.
    """
    return tuple([getattr(cls, name).__set__ for name in cls.__slots__])


class Record:
    __slots__ = ()

    def _field_values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._field_values() == other._field_values()
        return NotImplemented

    def __hash__(self):
        return hash(self._field_values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self.__slots__)
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self):
        return self.__class__, self._field_values()
