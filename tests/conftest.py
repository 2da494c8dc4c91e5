import pytest

from leibnizalg import LeibnizAlgebra, StructureTensor
from leibnizalg.corpus import CORPUS

from oracles import corpus_document


def _algebra(name):
    return corpus_document(name).algebra()


@pytest.fixture(scope="session")
def ex1():
    return _algebra("example1")


@pytest.fixture(scope="session")
def ex2():
    return _algebra("example2")


@pytest.fixture(scope="session")
def ex3():
    return _algebra("example3")


@pytest.fixture(scope="session")
def ex4():
    return _algebra("example4")


@pytest.fixture(scope="session")
def corpus_algebras(ex1, ex2, ex3, ex4):
    return {"example1": ex1, "example2": ex2, "example3": ex3, "example4": ex4}


@pytest.fixture(scope="session")
def zero2():
    return LeibnizAlgebra.analyze(StructureTensor.from_entries(2, {}), "zero2")


@pytest.fixture()
def corpus_files(tmp_path):
    paths = {}
    for name, text in CORPUS.items():
        p = tmp_path / f"{name}.leib"
        p.write_text(text, "utf-8")
        paths[name] = p
    return paths
