"""Value classes without ``dataclasses``: a subclass declares ``__slots__``
and an explicit ``__init__``; equality, hash and repr read the slots in
order.  Importing ``dataclasses`` (and with it ``inspect``) and building each
class from generated code would cost every CLI call several milliseconds.
"""

set_field = object.__setattr__  # how a Frozen class's __init__ sets a slot


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Frozen(Record):
    """A Record whose slots are set once, in ``__init__`` through ``set_field``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")


class CachedHash(Frozen):
    """A Frozen record that hashes its slots once, on the first ``hash()``.

    For large records used as cache keys (a ``StructureTensor`` hashes every
    nonzero entry).  The cached value sits in this class's own slot, outside
    the subclass's ``__slots__``, so equality and repr do not read it.
    """

    __slots__ = ("_hash",)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            set_field(self, "_hash", Record.__hash__(self))
            return self._hash
