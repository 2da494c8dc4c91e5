from fractions import Fraction

import pytest

from leibnizalg import ChiralityError, ParseError
from leibnizalg.corpus import CORPUS, names, text
from leibnizalg.document import parse_algebra, parse_rmatrix

from oracles import corpus_document, serialize_algebra, serialize_rmatrix

F = Fraction

EX1_TEXT = "dim: 2\nside: left\nf 1 1 2 = 1\nf 1 2 2 = 1\n"


class TestParseAlgebra:
    def test_example1_document(self):
        doc = parse_algebra(EX1_TEXT)
        assert doc.dim == 2
        assert doc.declared_side == "left"
        assert doc.entries == {(1, 1, 2): F(1), (1, 2, 2): F(1)}

    def test_comments_order_and_fractions(self):
        doc = parse_algebra(
            "# header\nf 2 1 1 = -3/4   # trailing\nname: demo\ndim: 2\n"
        )
        assert doc.name == "demo"
        assert doc.entries[(2, 1, 1)] == F(-3, 4)

    def test_index_out_of_range(self):
        with pytest.raises(ParseError) as err:
            parse_algebra("dim: 2\nf 1 1 3 = 1\n")
        assert "outside 1..2" in str(err.value)

    def test_duplicate_entry(self):
        with pytest.raises(ParseError):
            parse_algebra("dim: 2\nf 1 1 2 = 1\nf 1 1 2 = 2\n")

    def test_dimension_limit(self):
        with pytest.raises(ParseError):
            parse_algebra("dim: 9\n")

    def test_missing_dim(self):
        with pytest.raises(ParseError):
            parse_algebra("f 1 1 1 = 1\n")

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_algebra("dim: 2\nf 1 1 = 1\n")
        assert err.value.line == 2

    def test_bad_rational(self):
        with pytest.raises(ParseError):
            parse_algebra("dim: 2\nf 1 1 2 = 0.5\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            parse_algebra("dim: 2\nflavor: sour\n")

    def test_round_trip_identity(self):
        doc = parse_algebra(EX1_TEXT)
        again = parse_algebra(serialize_algebra(doc))
        assert again == doc
        assert serialize_algebra(again) == serialize_algebra(doc)

    def test_declared_side_verified(self):
        with pytest.raises(ChiralityError):
            parse_algebra("dim: 2\nside: right\nf 1 1 2 = 1\nf 1 2 2 = 1\n").algebra()

    def test_auto_side(self):
        alg = parse_algebra("dim: 2\nside: auto\nf 1 1 2 = 1\n").algebra()
        assert alg.chirality.value == "both"


class TestParseRMatrix:
    def test_basic(self):
        doc = parse_rmatrix("dim: 2\nr 1 2 = 1\nr 2 1 = -1\n")
        assert doc.matrix() == ((F(0), F(1)), (F(-1), F(0)))

    def test_side_rejected(self):
        with pytest.raises(ParseError):
            parse_rmatrix("dim: 2\nside: left\nr 1 1 = 1\n")

    def test_round_trip(self):
        doc = parse_rmatrix("dim: 2\nname: r4\nr 2 1 = -1/3\n")
        again = parse_rmatrix(serialize_rmatrix(doc))
        assert again == doc

    def test_f_lines_rejected(self):
        with pytest.raises(ParseError):
            parse_rmatrix("dim: 2\nf 1 1 2 = 1\n")


class TestCorpus:
    def test_names(self):
        assert names() == ["example1", "example2", "example3", "example4"]

    def test_documents_parse_and_verify(self):
        for name in names():
            doc = corpus_document(name)
            doc.algebra()
            assert doc.name == name

    def test_declared_sides(self):
        sides = {name: corpus_document(name).declared_side for name in names()}
        assert sides == {
            "example1": "left",
            "example2": "right",
            "example3": "both",
            "example4": "right",
        }

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            text("example9")
