"""The base of surjkit's immutable value types.

A value class names its constructor fields, in order, in ``_fields`` and
keeps them in ``__slots__``. Its own ``__init__`` validates the arguments
and stores each field with ``set_field``; afterwards the instance refuses
assignment and deletion. Two instances are equal exactly when they are of
the same class and their compared fields (``_key``) are equal; the hash
follows the same fields, and the repr reads ``Name(field=value, ...)``.
"""

from __future__ import annotations

set_field = object.__setattr__


class Value:
    """Immutable record compared, hashed and shown by its fields."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        """The fields that equality and hashing read."""
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        # copy and pickle rebuild through the constructor
        return type(self), tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign to {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")
