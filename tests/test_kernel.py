import math
import random

import pytest

from miakit.kernel import (
    Distribution,
    InvalidDistribution,
    RngStream,
    SchedulingInPast,
    Simulator,
    StreamFactory,
    run_replications,
    sample,
    trace_lines,
)


class TestScheduling:
    def test_fifo_tie_break(self):
        sim = Simulator(record_trace=True)
        hits = []
        sim.schedule("x", 5.0, lambda: hits.append("x"))
        sim.schedule("y", 5.0, lambda: hits.append("y"))
        sim.run_until(10.0)
        assert hits == ["x", "y"]

    def test_scheduling_in_past(self):
        sim = Simulator()
        sim.schedule("a", 1.0)
        sim.run_until(1.0)
        with pytest.raises(SchedulingInPast):
            sim.schedule("late", 0.5)

    def test_dispatch_order_matches_stable_sort(self):
        # Oracle: stable sort of the scheduled (time, seq) pairs.
        rng = random.Random(1234)
        sim = Simulator(record_trace=True)
        expected = []
        for k in range(1000):
            t = rng.choice([0.0, 1.0, 2.5, 7.25, 11.0, rng.uniform(0, 20)])
            seq = sim.schedule("e", t)
            expected.append((t, seq))
        sim.run_until(100.0)
        expected.sort(key=lambda p: (p[0], p[1]))
        dispatched = [(e.time, e.seq) for e in sim.trace]
        assert dispatched == expected

    def test_run_until_empty_queue_advances_clock(self):
        sim = Simulator(record_trace=True)
        trace = sim.run_until(100.0)
        assert trace == []
        assert sim.now == 100.0

    def test_run_until_respects_horizon(self):
        sim = Simulator(record_trace=True)
        sim.schedule("a", 5.0)
        sim.schedule("b", 7.0)
        trace = sim.run_until(6.0)
        assert [e.time for e in trace] == [5.0]
        assert sim.pending() == 1

    def test_horizon_before_clock_rejected(self):
        sim = Simulator()
        sim.run_until(10.0)
        with pytest.raises(ValueError):
            sim.run_until(5.0)

    def test_trace_replay_is_identical(self):
        def build_and_run():
            sim = Simulator(record_trace=True)
            stream = RngStream(99, 7)

            def chain():
                if sim.now < 50.0:
                    sim.schedule("chain", sim.now + stream.exponential(3.0), chain)

            sim.schedule("chain", 0.0, chain)
            sim.run_until(60.0)
            return trace_lines(sim.trace)

        assert build_and_run() == build_and_run()


class TestDistributions:
    def test_fixed_always_returns_value(self):
        stream = RngStream(0, 0)
        dist = Distribution.fixed(3.5)
        assert all(sample(dist, stream) == 3.5 for _ in range(10))
        assert stream.draws == 0  # fixed consumes no randomness

    def test_degenerate_uniform(self):
        stream = RngStream(0, 0)
        assert sample(Distribution.uniform(2, 2), stream) == 2.0

    def test_invalid_parameters(self):
        with pytest.raises(InvalidDistribution):
            Distribution.uniform(2, 1)
        with pytest.raises(InvalidDistribution):
            Distribution.exponential(0)
        with pytest.raises(InvalidDistribution):
            Distribution.triangular(3, 2, 1)
        with pytest.raises(InvalidDistribution):
            Distribution("weibull", (1.0,))

    def test_exponential_mean_within_two_percent(self):
        stream = RngStream(424242, 1)
        dist = Distribution.exponential(10.0)
        n = 100_000
        mean = sum(sample(dist, stream) for _ in range(n)) / n
        assert 10.0 * 0.98 <= mean <= 10.0 * 1.02

    @pytest.mark.parametrize(
        "dist",
        [
            Distribution.fixed(4.0),
            Distribution.uniform(2.0, 8.0),
            Distribution.exponential(10.0),
            Distribution.triangular(1.0, 3.0, 9.0),
        ],
    )
    def test_moments_within_three_standard_errors(self, dist):
        stream = RngStream(31337, 5)
        n = 100_000
        xs = [sample(dist, stream) for _ in range(n)]
        mean = sum(xs) / n
        var = sum((x - mean) ** 2 for x in xs) / (n - 1)
        se_mean = math.sqrt(max(dist.variance(), 1e-30) / n)
        assert abs(mean - dist.mean()) <= 3 * se_mean + 1e-12
        if dist.variance() > 0:
            m4 = sum((x - mean) ** 4 for x in xs) / n
            se_var = math.sqrt(max(m4 - dist.variance() ** 2, 0.0) / n)
            assert abs(var - dist.variance()) <= 3 * se_var


class TestStreams:
    def test_same_key_same_sequence(self):
        a = [RngStream(7, 3).random() for _ in range(5)]
        b = [RngStream(7, 3).random() for _ in range(5)]
        assert a == b

    def test_distinct_streams_differ(self):
        assert RngStream(7, 3).random() != RngStream(7, 4).random()

    def test_factory_keys_by_replication(self):
        f0 = StreamFactory(42, 0).stream(1).random()
        f0_again = StreamFactory(42, 0).stream(1).random()
        f1 = StreamFactory(42, 1).stream(1).random()
        assert f0 == f0_again
        assert f0 != f1


class _StubScenario:
    """Replication result depends only on (base_seed, index)."""

    def run_replication(self, index, base_seed):
        return RngStream(base_seed, index).random()


class TestReplications:
    def test_rerun_is_identical(self):
        sc = _StubScenario()
        assert run_replications(sc, 5, 42) == run_replications(sc, 5, 42)

    def test_single_equals_direct_call(self):
        sc = _StubScenario()
        assert run_replications(sc, 1, 9) == [sc.run_replication(0, 9)]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            run_replications(_StubScenario(), 0, 1)
