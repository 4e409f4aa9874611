"""Immutable value records: equal and hashed by their fields, closed to assignment.

`Permutation` is hashed on every orbit step, so it spells these methods out
on its own images instead of inheriting them from here; `Vertex` is a tuple
and has them from `tuple`.
"""


class FrozenRecord:
    """Base of a record whose fields are its class's `__slots__`, in order.

    A subclass sets each field once in `__init__` with `object.__setattr__`.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())
