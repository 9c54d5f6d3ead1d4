"""The paired comparison's decision rule (tools/compare.py) on synthetic pairs."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare", Path(__file__).resolve().parents[1] / "tools" / "compare.py"
)
compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare)

# ten base runs whose quartiles are 102.25 and 106.75: an IQR of 4.5
BASE = [100.0 + i for i in range(10)]


def _head(gains: list[float]) -> list[float]:
    """The checkout's runs, each `gain` lower (better, for a time) than its pair."""
    return [b - g for b, g in zip(BASE, gains)]


def test_ten_of_ten_pairs_beyond_the_iqr_claim():
    v = compare.verdict(BASE, _head([20.0] * 10), "lower", 0.2)
    assert (v["wins"], v["losses"], v["ties"]) == (10, 0, 0)
    assert v["base_iqr"] == pytest.approx(4.5)
    assert v["claim"] and v["bound"] == "within"


def test_nine_of_ten_pairs_claim():
    v = compare.verdict(BASE, _head([20.0] * 9 + [-1.0]), "lower", 0.2)
    assert (v["wins"], v["losses"]) == (9, 1)
    assert v["claim"]


def test_eight_of_ten_pairs_do_not_claim():
    v = compare.verdict(BASE, _head([20.0] * 8 + [-1.0] * 2), "lower", 0.2)
    assert (v["wins"], v["losses"]) == (8, 2)
    assert not v["claim"]


def test_ties_count_for_neither_side():
    v = compare.verdict(BASE, list(BASE), "lower", 0.2)
    assert (v["wins"], v["losses"], v["ties"]) == (0, 0, 10)
    assert not v["claim"] and v["bound"] == "within"
    # nine wins and a tie still claim; eight wins and two ties do not
    assert compare.verdict(BASE, _head([20.0] * 9 + [0.0]), "lower", 0.2)["claim"]
    assert not compare.verdict(BASE, _head([20.0] * 8 + [0.0] * 2), "lower", 0.2)["claim"]


def test_a_median_gap_inside_the_base_iqr_does_not_claim():
    v = compare.verdict(BASE, _head([4.0] * 10), "lower", 0.2)
    assert v["wins"] == 10 and not v["claim"]


def test_better_higher_flips_the_sign():
    # the same runs read as rates: lower is now worse
    v = compare.verdict(BASE, _head([20.0] * 10), "higher", 0.1)
    assert (v["wins"], v["losses"]) == (0, 10)
    assert not v["claim"] and v["bound"] == "worse"
    v = compare.verdict(BASE, _head([-20.0] * 10), "higher", 0.1)
    assert v["wins"] == 10 and v["claim"]


def test_worse_than_the_bound_is_relative_to_the_base_median():
    # base median 104.5: 20 % worse is 125.4
    assert compare.verdict(BASE, _head([-20.0] * 10), "lower", 0.2)["bound"] == "within"
    assert compare.verdict(BASE, _head([-22.0] * 10), "lower", 0.2)["bound"] == "worse"


def test_a_spread_wider_than_the_bound_is_unresolved():
    # an IQR of 4.5 against a 1 % bound
    assert compare.verdict(BASE, _head([-0.5] * 10), "lower", 0.01)["bound"] == "unresolved"
    # unless every checkout run beats every base run
    assert compare.verdict(BASE, _head([20.0] * 10), "lower", 0.01)["bound"] == "within"


def test_fewer_than_ten_pairs_never_claim():
    v = compare.verdict([2.0], [1.0], "lower", 0.2)
    assert v["base"] == (2.0, 2.0, 2.0) and v["base_iqr"] == 0.0
    assert v["wins"] == 1 and not v["claim"]
    assert not compare.verdict(BASE[:9], _head([20.0] * 9), "lower", 0.2)["claim"]


def test_mismatched_runs_and_an_unknown_direction_are_errors():
    with pytest.raises(ValueError):
        compare.verdict([1.0, 2.0], [1.0], "lower", 0.2)
    with pytest.raises(ValueError):
        compare.verdict([1.0], [1.0], "faster", 0.2)
