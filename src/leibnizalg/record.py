"""Value classes without ``dataclasses``: a subclass declares its fields once,
in ``__slots__``, and ``Frozen`` sets them from positional arguments in that
order; equality, hash and repr read the same slots.  Importing
``dataclasses`` (and with it ``inspect``) and building each class from
generated code would cost every CLI call several milliseconds.
"""

import functools

set_field = object.__setattr__


class Frozen:
    """A value whose ``__slots__`` are set once, by ``__init__``, and never
    assigned or deleted afterwards."""

    __slots__ = ()

    def __init__(self, *values):
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes {names}, got {len(values)} values")
        for name, value in zip(names, values):
            set_field(self, name, value)

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

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")


class Memoized(Frozen):
    """A Frozen record that keeps its derived tables (``memo``) in a slot of
    its own, which ``__init__``, equality, hash and repr never read."""

    __slots__ = ("_memo",)


def memo(build):
    """``build(t, *key)`` run once per ``Memoized`` record t and key: the
    result is kept on t, freed with it and shared; callers must not mutate it."""

    @functools.wraps(build)
    def memoized(t, *key):
        try:
            tables = t._memo
        except AttributeError:
            tables = {}
            set_field(t, "_memo", tables)
        k = (build, *key)
        if k not in tables:
            tables[k] = build(t, *key)
        return tables[k]

    return memoized
