import dataclasses
import math
import random

import numpy as np
import pytest

from miakit.metrics import (
    CSV_HEADER,
    BaselineZero,
    EmptyInput,
    MissionMetrics,
    _t975,
    aggregate,
    collect,
    compare,
    metrics_csv,
    parse_metrics_csv,
)
from miakit.mission import MissionResult, WorkItem
from miakit.threat import AttackTimeline


def item(k, outcome, created=0.0, completed=100.0, tainted=False):
    it = WorkItem(k, created, (), [])
    it.tainted = tainted
    it.outcome = outcome
    if outcome.startswith("completed"):
        it.completed_at = completed
    return it


def result(items, blocked=None):
    return MissionResult(items=items, task_utilization={}, blocked_time=blocked or {})


def metrics_of(completed=0, corrupted=0, delay=0.0, **kw):
    n = completed + corrupted
    return MissionMetrics(
        plans_completed=completed,
        plans_corrupted_undetected=corrupted,
        corrupted_fraction=corrupted / max(1, n),
        mean_completion_delay_s=delay,
        blocked_s=kw.get("blocked", 0.0),
        attack_duration_s=kw.get("attack", 0.0),
        confidentiality_exposure_s=kw.get("exposure", 0.0),
    )


class TestCollect:
    def test_no_attack_run(self):
        m = collect(result([item(1, "completed_clean"), item(2, "completed_clean")]))
        assert m.corrupted_fraction == 0.0
        assert m.attack_duration_s == 0.0
        assert m.plans_completed == 2

    def test_zero_blocked_time_is_shared_and_keeps_its_type(self):
        # Rows kept by the thousand hold one zero object, not a float each;
        # the written value is unchanged: 0.0, or 0 for a mission of no tasks.
        zero = 0.0
        rows = [collect(result([item(1, "completed_clean")], {"t1": zero, "t2": zero}))
                for _ in range(3)]
        assert all(m.blocked_s is zero for m in rows)
        assert metrics_csv(rows) == metrics_csv([dataclasses.replace(m, blocked_s=0.0) for m in rows])
        empty = collect(result([item(1, "completed_clean")], {}))
        assert type(empty.blocked_s) is int and empty.blocked_s == 0

    def test_all_items_corrupted(self):
        m = collect(result([item(k, "completed_corrupted") for k in range(4)]))
        assert m.corrupted_fraction == 1.0

    def test_recount_oracle(self):
        rng = random.Random(12)
        outcomes = ["completed_clean", "completed_corrupted", "abandoned", "in_progress"]
        items = []
        for k in range(300):
            o = rng.choice(outcomes)
            items.append(item(k, o, created=rng.uniform(0, 50), completed=rng.uniform(60, 500)))
        blocked = {"t1": 12.5, "t2": 7.5}
        m = collect(result(items, blocked))
        clean = [i for i in items if i.outcome == "completed_clean"]
        corrupted = [i for i in items if i.outcome == "completed_corrupted"]
        assert m.plans_completed == len(clean)
        assert m.plans_corrupted_undetected == len(corrupted)
        assert m.blocked_s == 20.0
        done = clean + corrupted
        want = sum(i.completed_at - i.created_at for i in done) / len(done)
        assert m.mean_completion_delay_s == pytest.approx(want)
        assert m.corrupted_fraction == len(corrupted) / len(done)

    def test_attack_duration_from_timeline(self):
        tl = AttackTimeline(horizon=1000.0)
        tl.add(100.0, "effect_onset", "availability_stop:x")
        tl.add(400.0, "eviction")
        m = collect(result([item(1, "completed_clean")]), tl)
        assert m.attack_duration_s == 300.0

    def test_confidentiality_exposure(self):
        tl = AttackTimeline(horizon=1000.0)
        tl.add(600.0, "effect_onset", "confidentiality:x")
        m = collect(result([item(1, "completed_clean")]), tl)
        assert m.confidentiality_exposure_s == 400.0


class TestAggregate:
    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            aggregate([])

    def test_identical_replications(self):
        s = aggregate([metrics_of(completed=10)] * 5)
        assert s["plans_completed"].stdev == 0.0
        assert s["plans_completed"].ci_halfwidth == 0.0

    def test_two_values_closed_form(self):
        s = aggregate([metrics_of(completed=10), metrics_of(completed=20)])
        pc = s["plans_completed"]
        assert pc.mean == 15.0
        assert pc.stdev == pytest.approx(7.0711, abs=1e-4)
        assert pc.min == 10 and pc.max == 20

    def test_single_replication_has_no_ci(self):
        s = aggregate([metrics_of(completed=10)])
        assert s["plans_completed"].ci_halfwidth is None

    def test_permutation_invariance(self):
        rng = random.Random(5)
        ms = [metrics_of(completed=rng.randrange(100), delay=rng.uniform(0, 9)) for _ in range(40)]
        shuffled = ms[:]
        rng.shuffle(shuffled)
        a, b = aggregate(ms), aggregate(shuffled)
        for name in a.per_metric:
            assert a[name] == b[name]

    def test_ci_coverage_monte_carlo(self):
        # Oracle: a 95% t-interval over n=1000 exponential(10) draws should
        # cover the true mean in about 95% of repeated experiments.
        rng = np.random.default_rng(1905)
        covered = 0
        experiments = 500
        for _ in range(experiments):
            draws = rng.exponential(10.0, size=1000)
            ms = [metrics_of(delay=float(d)) for d in draws]
            s = aggregate(ms)["mean_completion_delay_s"]
            if abs(s.mean - 10.0) <= s.ci_halfwidth:
                covered += 1
        assert 0.93 <= covered / experiments <= 0.97

    def test_ci_halfwidth_shrinks_like_root_n(self):
        rng = np.random.default_rng(77)
        draws = rng.normal(50.0, 5.0, size=4000)
        small = aggregate([metrics_of(delay=float(d)) for d in draws[:1000]])
        big = aggregate([metrics_of(delay=float(d)) for d in draws])
        ratio = small["mean_completion_delay_s"].ci_halfwidth / big[
            "mean_completion_delay_s"
        ].ci_halfwidth
        assert abs(ratio - 2.0) <= 0.3  # within 15% of the 1/sqrt(n) law

    def test_t_quantile_matches_scipy(self):
        # Oracle: scipy's Student-t quantile.  The 1e-10 relative bound was
        # fixed before measuring; the worst deviation seen is about 3e-14.
        from scipy import stats

        dfs = [*range(1, 2001), 5000, 10**4, 10**5, 10**6]
        want = stats.t.ppf(0.975, dfs)
        got = np.array([_t975(df) for df in dfs])
        assert np.all(np.abs(got - want) <= 1e-10 * want)

    def test_halfwidth_uses_the_t_quantile(self):
        s = aggregate([metrics_of(completed=10), metrics_of(completed=20)])
        assert s["plans_completed"].ci_halfwidth == _t975(1) * math.sqrt(50) / math.sqrt(2)


class TestCompare:
    def test_equal_runs_not_significant(self):
        s = aggregate([metrics_of(completed=100)] * 3)
        report = compare(s, s)
        assert report.percent_reduction == 0.0
        assert not report.significant

    def test_fifteen_percent_reduction_flags(self):
        base = aggregate([metrics_of(completed=100)] * 3)
        attack = aggregate([metrics_of(completed=85)] * 3)
        report = compare(attack, base)
        assert report.percent_reduction == pytest.approx(0.15)
        assert report.significant

    def test_five_percent_reduction_does_not_flag(self):
        base = aggregate([metrics_of(completed=100)] * 3)
        attack = aggregate([metrics_of(completed=95)] * 3)
        report = compare(attack, base)
        assert report.percent_reduction == pytest.approx(0.05)
        assert not report.significant

    def test_threshold_is_configurable(self):
        base = aggregate([metrics_of(completed=100)] * 3)
        attack = aggregate([metrics_of(completed=95)] * 3)
        assert compare(attack, base, threshold=0.04).significant

    def test_baseline_zero(self):
        base = aggregate([metrics_of(completed=0)] * 3)
        with pytest.raises(BaselineZero):
            compare(base, base)


class TestCsv:
    def test_header_is_exact(self):
        text = metrics_csv([metrics_of(completed=3)])
        assert text.splitlines()[0] == (
            "replication,plans_completed,plans_corrupted_undetected,corrupted_fraction,"
            "mean_completion_delay_s,blocked_s,attack_duration_s,confidentiality_exposure_s"
        )
        assert CSV_HEADER == text.splitlines()[0]

    def test_round_trip(self):
        rng = random.Random(88)
        ms = [
            metrics_of(
                completed=rng.randrange(50),
                corrupted=rng.randrange(10),
                delay=rng.uniform(0, 500),
                blocked=rng.uniform(0, 99),
            )
            for _ in range(20)
        ]
        assert parse_metrics_csv(metrics_csv(ms)) == ms

    def test_rows_are_ordered_by_replication(self):
        text = metrics_csv([metrics_of(completed=k) for k in (7, 8, 9)])
        rows = text.strip().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["0", "1", "2"]
