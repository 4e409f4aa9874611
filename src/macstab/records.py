"""Immutable value records: equal and hashed by their fields, closed to assignment.

`Vertex` and `Permutation`, hashed on every orbit step, are tuples instead
and have these methods from `tuple`.
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
