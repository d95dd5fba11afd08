"""The base of surjkit's immutable value types.

A value class names its constructor fields, in order, in ``_fields`` and
keeps them in ``__slots__``. The shared constructor binds positionals in
``_fields`` order, then keywords, and stores each field with
``set_field``; too many positionals, an unknown keyword, a field given
twice or a missing one raise ``TypeError``. A class writes its own
``__init__``, storing with ``set_field`` too, only to validate or convert
its arguments, or when it is built per target (``Witness``,
``ScalarSpan``) and the generic binding would cost too much. A value
derived from the fields lives in a slot outside ``_fields``. The instance
then refuses assignment and deletion. Two instances are equal exactly when
they are of the same class and their ``_fields`` are equal; the hash
follows the same fields, and the repr reads ``Name(field=value, ...)``.
"""

from __future__ import annotations

set_field = object.__setattr__


def _field_values(record) -> tuple:
    return tuple([getattr(record, name) for name in record._fields])


class Value:
    """Immutable record compared, hashed and shown by its fields."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} arguments, got {len(args)}")
        for field in kwargs:
            if field not in fields:
                raise TypeError(f"{name} has no field {field!r}")
        for field, value in zip(fields, args):
            if field in kwargs:
                raise TypeError(f"{name} got {field!r} twice")
            set_field(self, field, value)
        for field in fields[len(args):]:
            if field not in kwargs:
                raise TypeError(f"{name} is missing field {field!r}")
            set_field(self, field, kwargs[field])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _field_values(self) == _field_values(other)

    def __hash__(self):
        return hash(_field_values(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        # copy and pickle rebuild through the constructor
        return type(self), _field_values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign to {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")
