import math
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miakit import seeding
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
from miakit.scenario import bundled_path, load_scenario


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


class TestReservedSequenceIds:
    """An event scheduled late on a reserved id is dispatched where it would
    have been had it been scheduled when the id was reserved."""

    @settings(max_examples=100, deadline=None)
    @given(plan=st.lists(st.tuples(st.sampled_from([0.0, 1.0, 2.0, 3.5]), st.booleans()),
                         min_size=1, max_size=30))
    def test_late_events_keep_their_place(self, plan):
        # Each event (t, late) is scheduled at once or, when late, on an id
        # reserved in its turn and scheduled after all the others.
        eager = Simulator(record_trace=True)
        for t, _ in plan:
            eager.schedule("e", t, data=(t,))
        eager.run_until(10.0)

        lazy = Simulator(record_trace=True)
        held = []
        for t, late in plan:
            if late:
                held.append((t, lazy.reserve()))
            else:
                lazy.schedule("e", t, data=(t,))
        for t, seq in held:
            lazy.schedule("e", t, data=(t,), seq=seq)
        lazy.run_until(10.0)
        assert [(e.time, e.seq) for e in lazy.trace] == [(e.time, e.seq) for e in eager.trace]

    def test_dispatching_is_the_event_being_dispatched(self):
        sim = Simulator()
        seen = []
        sim.schedule("a", 1.0, lambda: seen.append((sim.now, sim.dispatching)))
        sim.schedule("b", 1.0, lambda: seen.append((sim.now, sim.dispatching)))
        assert sim.dispatching == -1
        sim.run_until(1.0)
        assert seen == [(1.0, 0), (1.0, 1)]
        assert sim.dispatching == 1
        sim.run_until(2.0)
        assert (sim.now, sim.dispatching) == (2.0, -1)

    def test_a_reserved_id_before_the_dispatching_event_is_refused(self):
        sim = Simulator()
        early = sim.reserve()
        errors = []

        def late():
            for at, seq in ((1.0, early), (0.5, sim.reserve()), (1.0, sim._seq)):
                try:
                    sim.schedule("late", at, seq=seq)
                except SchedulingInPast as exc:
                    errors.append(str(exc))
            # A reserved id after the dispatching event is taken, at any
            # time from now on.
            sim.schedule("ok", 1.0, seq=sim.reserve())

        sim.schedule("now", 1.0, late)
        sim.run_until(1.0)
        assert len(errors) == 3
        assert sim.pending() == 0
        assert Simulator.precedes(1.0, 2, 1.0, 3) and Simulator.precedes(0.5, 9, 1.0, 0)
        assert not Simulator.precedes(1.0, 3, 1.0, 3)


class TestDistributions:
    def test_fixed_always_returns_value(self):
        stream = RngStream(0, 0)
        state = stream._gen.bit_generator.state
        dist = Distribution.fixed(3.5)
        assert all(sample(dist, stream) == 3.5 for _ in range(10))
        assert stream._gen.bit_generator.state == state  # fixed consumes no randomness

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
            Distribution.triangular(30, 30, 30)
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


# ``+ 0.0`` turns -0.0 into 0.0: NumPy refuses a uniform range of -0.0
# (``high - low < 0``), which a spec can reach only as ``uniform: [0, -0]``.
_finite = st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False).map(lambda x: x + 0.0)


@st.composite
def _triangles(draw):
    low, high = sorted(draw(st.tuples(_finite, _finite)))
    if low == high:
        high = low + 1.0
    mode = draw(st.one_of(st.just(low), st.just(high), st.floats(low, high)))
    return low, mode, high


class TestDrawFormulas:
    """RngStream computes uniform and triangular draws in Python; each must
    equal NumPy's ``Generator`` value on the same PCG64 state, and leave the
    state where NumPy leaves it."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        stream_id=st.integers(0, 2**32 - 1),
        uniforms=st.lists(st.tuples(_finite, _finite).map(sorted), min_size=1, max_size=4),
        triangles=st.lists(_triangles(), min_size=1, max_size=4),
    )
    def test_equal_numpy_draws_and_state(self, seed, stream_id, uniforms, triangles):
        ours = RngStream(seed, stream_id)
        ref = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((seed, stream_id)))
        )
        for (low, high), tri in zip(uniforms * 4, triangles * 4):
            # float.hex tells 0.0 from -0.0, so the values match bit for bit.
            assert ours.uniform(low, high).hex() == float(ref.uniform(low, high)).hex()
            assert ours.triangular(*tri).hex() == float(ref.triangular(*tri)).hex()
        assert ours._gen.bit_generator.state == ref.bit_generator.state


def _reference_state(seed: int, stream_id: int) -> dict:
    return np.random.PCG64(np.random.SeedSequence((seed, stream_id))).state


class TestItemStreamSeeds:
    """Item streams seeded in blocks must start from exactly the PCG64 state
    of ``SeedSequence((rep_seed, 1_000_000 + item_id))``."""

    @settings(max_examples=40, deadline=None)
    @given(
        base_seed=st.integers(0, 2**63 - 1),
        replication=st.integers(0, 10_000),
        runs=st.lists(
            st.tuples(st.integers(1, 5_000), st.integers(1, 400)), min_size=1, max_size=3
        ),
    )
    def test_item_streams_match_seed_sequence(self, base_seed, replication, runs):
        factory = StreamFactory(base_seed, replication)
        # Runs of consecutive ids (as the mission asks for them), with jumps
        # between runs that land inside, before and past the current block.
        for first, length in runs:
            for item_id in range(first, first + length):
                stream = factory.item_stream(item_id)
                assert stream.stream_id == 1_000_000 + item_id
                expected = _reference_state(factory._rep_seed, 1_000_000 + item_id)
                assert stream._gen.bit_generator.state == expected

    @settings(max_examples=200, deadline=None)
    @given(
        entropy=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
        copies=st.integers(1, 5),
    )
    def test_block_hash_matches_seed_sequence(self, entropy, copies):
        columns = [np.full(copies, w, dtype=np.uint32) for w in entropy]
        got = seeding.pcg64_seeds(columns)
        want = np.random.SeedSequence(entropy).generate_state(4, np.uint64)
        assert got.shape == (copies, 4)
        assert all((row == want).all() for row in got)

    @pytest.mark.parametrize("rep_seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_small_and_edge_replication_seeds(self, rep_seed):
        seeds = seeding.ItemSeeds(rep_seed)
        for stream_id in range(1_000_001, 1_000_200):
            seed = seeds.get(stream_id)
            state = np.random.PCG64(seed).state if seed is not None else None
            if state is not None:
                assert state == _reference_state(rep_seed, stream_id)
        assert seed is not None  # the block path was taken


NAMED = (StreamFactory.ARRIVALS, StreamFactory.ATTACKER, StreamFactory.DEFENDER)

# Stream requests, as ("stream", id) or ("item", item id), in the orders a
# replication may make them: named streams first, items first, and items
# that jump past the first block and back.
FIRST_ITEMS = [("item", k) for k in range(1, 20)]
REQUEST_ORDERS = {
    "named-first": [("stream", i) for i in NAMED] + FIRST_ITEMS,
    "items-first": FIRST_ITEMS + [("stream", i) for i in NAMED],
    "jumps": [("item", 1), ("item", 65), ("stream", 2), ("item", 2), ("item", 700),
              ("stream", 99), ("item", 64), ("item", 66), ("stream", 1), ("item", 3000)],
}
REQUESTS = st.one_of(
    st.tuples(st.just("stream"), st.sampled_from(NAMED + (0, 4, 99, 999_999))),
    st.tuples(st.just("item"), st.integers(1, 3_000)),
)


def _request(factory, kind, number):
    """The stream a request asks for, and the id it must be seeded with."""
    if kind == "stream":
        return factory.stream(number), number
    return factory.item_stream(number), 1_000_000 + number


class TestStreamSeedBlocks:
    """Every stream of a replication, named or per item, in any request
    order, starts from the PCG64 state of ``SeedSequence((rep_seed, id))``."""

    @pytest.mark.parametrize("order", sorted(REQUEST_ORDERS))
    @settings(max_examples=15, deadline=None)
    @given(base_seed=st.integers(0, 2**63 - 1), replication=st.integers(0, 10_000))
    def test_request_orders_match_seed_sequence(self, order, base_seed, replication):
        factory = StreamFactory(base_seed, replication)
        for kind, number in REQUEST_ORDERS[order]:
            stream, stream_id = _request(factory, kind, number)
            assert stream.stream_id == stream_id
            assert stream._gen.bit_generator.state == _reference_state(factory._rep_seed, stream_id)

    @settings(max_examples=40, deadline=None)
    @given(
        base_seed=st.integers(0, 2**63 - 1),
        replication=st.integers(0, 10_000),
        requests=st.lists(REQUESTS, min_size=1, max_size=25),
    )
    def test_any_request_order_matches_seed_sequence(self, base_seed, replication, requests):
        factory = StreamFactory(base_seed, replication)
        for kind, number in requests:
            stream, stream_id = _request(factory, kind, number)
            assert stream._gen.bit_generator.state == _reference_state(factory._rep_seed, stream_id)

    def test_one_block_holds_the_named_streams_and_first_items(self, monkeypatch):
        blocks = []
        real = seeding.pcg64_seeds
        monkeypatch.setattr(seeding, "pcg64_seeds", lambda e: blocks.append(len(e[0])) or real(e))
        seeds = seeding.ItemSeeds(2**40 + 17)
        first_items = range(seeding.FIRST_ITEM, seeding.FIRST_ITEM + seeds.FIRST_BLOCK)
        for stream_id in (*NAMED, *first_items):
            assert seeds.get(stream_id) is not None
        assert blocks == [len(NAMED) + seeds.FIRST_BLOCK]
        assert seeds.get(99) is None  # neither named nor an item: seeded directly

    def test_later_blocks_double(self, monkeypatch):
        blocks = []
        real = seeding.pcg64_seeds
        monkeypatch.setattr(seeding, "pcg64_seeds", lambda e: blocks.append(len(e[0])) or real(e))
        seeds = seeding.ItemSeeds(5)
        for stream_id in range(seeding.FIRST_ITEM, seeding.FIRST_ITEM + 2000):
            assert seeds.get(stream_id) is not None
        assert blocks == [len(NAMED) + seeds.FIRST_BLOCK, 128, 256, 512, 1024, 1024]

    @pytest.mark.parametrize("rep_seed", [0, 2**32 - 1, 2**32, 2**64 - 1])
    def test_rows_are_c_contiguous(self, rep_seed):
        words = seeding._uint32_words(rep_seed)
        ids = np.arange(1_000_001, 1_000_068, dtype=np.uint32)
        rows = seeding.pcg64_seeds([np.full(len(ids), w, dtype=np.uint32) for w in words] + [ids])
        assert rows.flags.c_contiguous and all(row.flags.c_contiguous for row in rows)
        seeds = seeding.ItemSeeds(rep_seed)
        for stream_id in (*NAMED, 1_000_001, 1_000_064, 1_000_065, 1_000_300):
            assert seeds.get(stream_id)._state.flags.c_contiguous


BASE_SEEDS = [0, 2**31 - 1, 2**32 - 1, 2**32, 2**64 - 1, 2**96 - 1, 2**96]
BLOCK_EDGES = [0, 15, 16, 63, 64, 2**32 - 17, 2**32 - 16, 2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1]


def _replication_seed(base_seed, replication):
    return int(np.random.SeedSequence((base_seed, replication)).generate_state(1, np.uint64)[0])


class TestReplicationSeedBlocks:
    """A replication's seed and its first stream seeds come from one hash
    over a block of replications; every stream must still start from
    ``SeedSequence((SeedSequence((base, k)).generate_state(1, uint64)[0], i))``.
    2**96 is four words with the index, past the pool: it takes the
    per-replication path, as does an index past 2**32 - 1."""

    @settings(max_examples=60, deadline=None)
    @given(
        base_seed=st.sampled_from(BASE_SEEDS),
        replication=st.sampled_from(BLOCK_EDGES),
        requests=st.permutations(
            [("stream", i) for i in NAMED] + [("item", k) for k in range(1, 201)]
        ),
    )
    def test_every_stream_matches_seed_sequence(self, base_seed, replication, requests):
        factory = StreamFactory(base_seed, replication)
        rep_seed = _replication_seed(base_seed, replication)
        assert factory._rep_seed == rep_seed
        for kind, number in requests:
            stream, stream_id = _request(factory, kind, number)
            assert stream._gen.bit_generator.state == _reference_state(rep_seed, stream_id)

    @pytest.mark.parametrize("rep_seeds", [[0, 1, 2**32 - 1], [2**32, 2**64 - 1, 5, 2**40 + 3]])
    def test_block_rows_of_small_and_edge_replication_seeds(self, rep_seeds):
        # A seed below 2**32 is one entropy word; it shares a block with
        # wider ones.
        rows = seeding.first_block_rows(np.array(rep_seeds, dtype=np.uint64))
        n = len(seeding.FIRST_IDS)
        assert rows.shape == (n * len(rep_seeds), 4)
        for j, rep_seed in enumerate(rep_seeds):
            for stream_id, row in zip(seeding.FIRST_IDS.tolist(), rows[j * n : (j + 1) * n]):
                state = np.random.PCG64(seeding.PrecomputedSeed(row)).state
                assert state == _reference_state(rep_seed, stream_id)

    def test_attack_and_baseline_share_one_block_hash(self, monkeypatch):
        sizes = []
        real = seeding.pcg64_seeds
        monkeypatch.setattr(seeding, "pcg64_seeds", lambda e: sizes.append(len(e[0])) or real(e))
        seeding._replication_block.cache_clear()
        scenario = load_scenario(bundled_path("timing.yaml"))
        for sc in (scenario, scenario.without_attack()):
            sc.run_replication(seeding.REP_BLOCK + 3, 11)
        n = len(seeding.FIRST_IDS)
        # Later item blocks (128 seeds on) may follow; no replication hashes
        # a first block of its own.
        assert [k for k in sizes if k <= n or k == seeding.REP_BLOCK * n] == [
            seeding.REP_BLOCK, seeding.REP_BLOCK * n
        ]
        assert seeding._replication_block.cache_info().misses == 1

    def test_cached_rows_are_read_only(self):
        factory = StreamFactory(101, 5)
        _, rows = seeding._replication_block(101, 0)
        assert not rows.flags.writeable
        for stream_id in (*NAMED, 1_000_001, 1_000_064):
            state = factory._seeds.get(stream_id)._state
            assert not state.flags.writeable and state.flags.c_contiguous
            with pytest.raises(ValueError):
                state[0] = 0

    def test_threads_missing_together_get_equal_seeds(self):
        # Two base seeds in turn evict the one cached block all the time.
        cases = [(base, k) for k in range(0, 4 * seeding.REP_BLOCK, 7) for base in (3, 2**40)]
        want = {case: _replication_seed(*case) for case in cases}
        got, errors = {}, []

        def work(offset):
            try:
                for case in cases[offset:] + cases[:offset]:
                    factory = StreamFactory(*case)
                    state = factory.stream(StreamFactory.ARRIVALS)._gen.bit_generator.state
                    got.setdefault(case, set()).add((factory._rep_seed, str(state)))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(saved)
        assert not any(t.is_alive() for t in threads) and errors == []
        for case, seen in got.items():
            ref = str(_reference_state(want[case], StreamFactory.ARRIVALS))
            assert seen == {(want[case], ref)}
        assert set(got) == set(cases)


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
