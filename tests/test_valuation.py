"""Exact decimal valuations: canonical form, grids, arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from posshorn import Valuation, ValuationError, grid


def val(text: str) -> Valuation:
    return Valuation.parse(text)


valuations = st.builds(
    Valuation, st.integers(min_value=0, max_value=10000), st.just(4)
)


class TestCanonicalForm:
    def test_prec_counts_digits(self):
        assert val("0.124").prec() == 3

    def test_one_has_precision_one(self):
        assert val("1.0").prec() == 1
        assert val("1") == val("1.0")

    def test_trailing_zeros_stripped(self):
        assert val("0.30") == val("0.3")
        assert val("0.30").prec() == 1
        assert str(val("0.30")) == "0.3"

    def test_zero(self):
        assert val("0").is_zero
        assert val("0").prec() == 1

    @pytest.mark.parametrize(
        "bad", ["", "2", "0.", ".5", "1.5", "-0.1", "0,3", "0.\u0663", "0.\uff13"]
    )
    def test_rejects_bad_literals(self, bad):
        with pytest.raises(ValuationError):
            Valuation.parse(bad)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValuationError):
            Valuation(11, 1)
        with pytest.raises(ValuationError):
            Valuation(5, 0)

    @given(valuations)
    def test_print_parse_round_trip(self, v):
        assert Valuation.parse(str(v)) == v

    @given(valuations)
    def test_canonical_no_trailing_zero(self, v):
        assert v.precision == 1 or v.mantissa % 10 != 0


class TestGrid:
    def test_grid_1(self):
        points = grid(1)
        assert len(points) == 11
        assert [str(v) for v in points[:3]] == ["0", "0.1", "0.2"]
        assert points[-1].is_one

    def test_grid_2_size(self):
        assert len(grid(2)) == 101

    def test_uniform_steps(self):
        points = grid(2)
        steps = {
            points[i + 1].scaled(2) - points[i].scaled(2)
            for i in range(len(points) - 1)
        }
        assert steps == {1}

    def test_sorted_and_duplicate_free(self):
        points = grid(2)
        assert sorted(points) == points
        assert len(set(points)) == len(points)

    def test_rejects_zero_precision(self):
        with pytest.raises(ValuationError):
            grid(0)


class TestArithmetic:
    def test_complement(self):
        assert val("0.3").complement() == val("0.7")
        assert val("0.25").complement() == val("0.75")
        assert val("1.0").complement().is_zero
        assert val("0").complement().is_one

    def test_ordering_across_precisions(self):
        assert val("0.3") < val("0.31")
        assert val("0.29") < val("0.3")
        assert val("0.3") <= val("0.30")

    def test_scaled_requires_grid_membership(self):
        assert val("0.3").scaled(2) == 30
        with pytest.raises(ValuationError):
            val("0.31").scaled(1)
