"""The record base: every ``Frozen`` class of the package takes exactly its
``__slots__`` as positional values, in order, and refuses assignment and
deletion afterwards.  Equality, hash and repr are pinned in ``test_core.py``.
"""

import importlib
import pkgutil

import pytest

import leibnizalg
from leibnizalg.record import Frozen

RECORDS = {
    "StructureTensor", "LeibnizAlgebra", "AdjointMatrices", "CoadjointMatrices",
    "Scenario", "LinearSystem", "DualFamily", "QuadraticResidual", "SweepEntry",
    "RMatrixFamily", "AlgebraDocument", "RMatrixDocument",
}


def _records():
    for info in pkgutil.iter_modules(leibnizalg.__path__):
        importlib.import_module(f"leibnizalg.{info.name}")
    found, stack = [], [Frozen]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls.__module__.startswith("leibnizalg.") and cls.__module__ != "leibnizalg.record":
                found.append(cls)
    return sorted(found, key=lambda cls: cls.__name__)


def test_every_named_record_is_walked():
    assert {cls.__name__ for cls in _records()} == RECORDS


@pytest.mark.parametrize("cls", _records(), ids=lambda cls: cls.__name__)
def test_record_arity_and_immutability(cls):
    names = cls.__slots__
    values = tuple(range(len(names)))
    record = cls(*values)
    assert tuple(getattr(record, name) for name in names) == values
    for wrong in (values + (0,), values[:-1]):
        with pytest.raises(TypeError):
            cls(*wrong)
    for name in names + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, -1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == values
