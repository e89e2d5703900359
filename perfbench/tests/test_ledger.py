"""Tests of the ledger helpers: tail rule, self time, failure accounting.

    python -m pytest perfbench/tests -q
"""

import math

import pytest

from perfbench.ledger import (
    Outcomes,
    quartile_spread,
    self_time,
    tail,
    tail_index,
    union_length,
)


class TestTailRule:
    def test_ten_samples_lie_beyond_the_tail(self):
        values = list(range(1, 71))  # 70 samples
        value, label = tail(values)
        assert sum(v > value for v in values) == 10
        assert label == "p85.7"

    def test_eleven_samples_is_the_smallest_supported_sample(self):
        assert tail_index(11) == 0
        assert tail(list(range(11))) == (0, "p9.1")

    def test_too_few_samples_report_the_maximum_labelled(self):
        assert tail_index(10) is None
        assert tail([3.0, 1.0, 2.0]) == (3.0, "max")

    def test_order_of_samples_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 7.0, 3.0, 2.0, 8.0, 6.0, 4.0, 0.0, 11.0, 10.0]
        assert tail(values) == tail(sorted(values))
        assert tail(values)[0] == 1.0

    def test_no_samples_is_an_error(self):
        with pytest.raises(ValueError):
            tail([])


class TestSelfTime:
    def test_disjoint_children_are_subtracted(self):
        assert self_time(0.0, 10.0, [(1.0, 2.0), (4.0, 7.0)]) == pytest.approx(6.0)

    def test_overlapping_children_count_once(self):
        # Two parallel children covering [2, 6] and [4, 8]: union is 6 long.
        assert self_time(0.0, 10.0, [(2.0, 6.0), (4.0, 8.0)]) == pytest.approx(4.0)

    def test_nested_and_identical_children_count_once(self):
        children = [(1.0, 9.0), (2.0, 3.0), (1.0, 9.0)]
        assert self_time(0.0, 10.0, children) == pytest.approx(2.0)

    def test_children_outside_the_span_are_clipped(self):
        children = [(0.0, 3.0), (5.0, 9.0), (7.0, 8.0)]
        assert self_time(2.0, 6.0, children) == pytest.approx(2.0)

    def test_no_children_is_the_whole_duration(self):
        assert self_time(1.5, 4.0, []) == pytest.approx(2.5)

    def test_union_of_touching_intervals(self):
        assert union_length([(0.0, 1.0), (1.0, 2.0)], 0.0, 5.0) == pytest.approx(2.0)


class TestFailureAccounting:
    def test_failures_count_as_attempted_and_failed(self):
        outcomes = Outcomes()
        for seconds in (0.010, 0.020, 0.030):
            outcomes.ok(seconds)
        outcomes.fail()
        assert (outcomes.attempted, outcomes.failed) == (4, 1)
        assert outcomes.failed_frac == pytest.approx(0.25)

    def test_failures_raise_the_percentiles(self):
        clean, failing = Outcomes(), Outcomes()
        for seconds in (0.010, 0.020, 0.030):
            clean.ok(seconds)
            failing.ok(seconds)
        failing.fail()
        failing.fail()
        assert clean.p50_ms() == pytest.approx(20.0)
        assert failing.p50_ms() == pytest.approx(30.0)
        assert math.isinf(failing.tail_ms()[0])

    def test_mean_is_over_completed_attempts(self):
        outcomes = Outcomes()
        for seconds in (0.010, 0.030):
            outcomes.ok(seconds)
        outcomes.fail()
        assert outcomes.mean_ms() == pytest.approx(20.0)

    def test_all_failed_has_no_finite_median(self):
        outcomes = Outcomes()
        outcomes.fail()
        assert math.isinf(outcomes.p50_ms())
        assert math.isinf(outcomes.mean_ms())


def test_quartile_spread_is_relative_to_the_median():
    assert quartile_spread([10.0] * 5) == 0.0
    assert quartile_spread([9.0, 10.0, 10.0, 10.0, 11.0]) == pytest.approx(0.1)
