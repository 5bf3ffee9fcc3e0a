"""Unit tests for exact half-integer labels and admissibility predicates."""

import pytest
from hypothesis import given, strategies as st

from wigner_nonstd.halfint import HalfInt, coupled_j_values, is_valid_j, m_values, triangle

ZERO = HalfInt(0)


class TestConstruction:
    def test_twice_storage(self):
        assert HalfInt(3).twice == 3
        assert HalfInt(-4).twice == -4

    def test_rejects_non_int(self):
        with pytest.raises(TypeError):
            HalfInt(1.5)
        with pytest.raises(TypeError):
            HalfInt("3")
        with pytest.raises(TypeError):
            HalfInt(True)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            HalfInt(2).twice = 5


class TestConversions:
    def test_float(self):
        assert float(HalfInt(3)) == 1.5
        assert float(HalfInt(-1)) == -0.5
        assert float(ZERO) == 0.0

    def test_str(self):
        assert str(HalfInt(3)) == "3/2"
        assert str(HalfInt(4)) == "2"
        assert str(HalfInt(-3)) == "-3/2"
        assert str(ZERO) == "0"

    def test_repr_round_trip(self):
        x = HalfInt(-7)
        assert eval(repr(x)) == x


class TestArithmetic:
    def test_add_neg(self):
        a, b = HalfInt(3), HalfInt(4)
        assert a + b == HalfInt(7)
        assert -a == HalfInt(-3)

    def test_hashable(self):
        assert len({HalfInt(2), HalfInt(2), HalfInt(3)}) == 2


class TestParse:
    @pytest.mark.parametrize(
        "text,twice",
        [
            ("3/2", 3),
            ("-1", -2),
            ("0", 0),
            ("4/2", 4),
            ("5/1", 10),
            (" 7/2 ", 7),
            ("-3/2", -3),
            ("-5/2", -5),
            ("+1/2", 1),
            ("-0", 0),
            ("12", 24),
            ("-7/1", -14),
        ],
    )
    def test_parse(self, text, twice):
        assert HalfInt.parse(text) == HalfInt(twice)

    @pytest.mark.parametrize("text", ["1/3", "1/0", "1/-2", "1.5", "", "3/2/2", "half"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            HalfInt.parse(text)

    def test_parse_bad_denominator(self):
        with pytest.raises(ValueError):
            HalfInt.parse("1/3")

    def test_parse_garbage(self):
        with pytest.raises(ValueError):
            HalfInt.parse("j=1")

    @given(st.integers(min_value=-200, max_value=200))
    def test_str_parse_round_trip(self, twice):
        x = HalfInt(twice)
        assert HalfInt.parse(str(x)) == x


class TestPredicates:
    def test_is_valid_j(self):
        assert is_valid_j(ZERO)
        assert is_valid_j(HalfInt(5))
        assert not is_valid_j(HalfInt(-1))

    @pytest.mark.parametrize(
        "t1,t2,t3,ok",
        [
            (1, 1, 2, True),  # 1/2 x 1/2 -> 1
            (1, 1, 0, True),
            (1, 1, 1, False),  # half-odd perimeter
            (2, 2, 6, False),  # beyond j1+j2
            (2, 4, 2, True),
            (0, 0, 0, True),
        ],
    )
    def test_triangle(self, t1, t2, t3, ok):
        assert triangle(HalfInt(t1), HalfInt(t2), HalfInt(t3)) is ok

    def test_triangle_rejects_negative_j(self):
        with pytest.raises(ValueError):
            triangle(HalfInt(-1), HalfInt(1), HalfInt(1))


class TestEnumerations:
    def test_m_values(self):
        assert m_values(HalfInt(3)) == [HalfInt(-3), HalfInt(-1), HalfInt(1), HalfInt(3)]
        assert m_values(ZERO) == [ZERO]

    def test_m_values_length(self):
        j = HalfInt(8)
        assert len(m_values(j)) == j.twice + 1

    def test_coupled_j_values(self):
        assert coupled_j_values(HalfInt(1), HalfInt(1)) == [ZERO, HalfInt(2)]
        assert coupled_j_values(HalfInt(2), HalfInt(3)) == [
            HalfInt(1),
            HalfInt(3),
            HalfInt(5),
        ]

    @given(st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=20))
    def test_coupled_values_all_triangles(self, t1, t2):
        j1, j2 = HalfInt(t1), HalfInt(t2)
        values = coupled_j_values(j1, j2)
        assert all(triangle(j1, j2, j3) for j3 in values)
        # multiplicity count: dimensions add up to the product dimension
        assert sum(j3.twice + 1 for j3 in values) == (t1 + 1) * (t2 + 1)
