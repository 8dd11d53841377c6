import math
import random
import time
import tracemalloc
from collections import defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miakit import discovery
from miakit.discovery import (
    DEFAULT_DOMINANCE,
    DEFAULT_EPISODE_GAP,
    DEFAULT_MIN_SUPPORT,
    ConstantSeries,
    DirectDependency,
    InsufficientOverlap,
    MismatchedBinning,
    NoValidLag,
    RetryChain,
    detect_retry_chains,
    direct_dependencies,
    direct_key,
    evaluate,
    export_graph,
    indirect_key,
    infer_indirect,
    max_lag_ncc,
    ncc,
    retry_key,
)
from miakit.fields import ValidationError
from miakit.flows import (
    Channel,
    ChannelSeries,
    FlowLog,
    FlowRecord,
    ServiceKey,
    bin_activity,
    channel_of,
    service_side,
)
from miakit.synth import gen_flows, truth_indirect_keys, truth_retry_keys


def series(counts, bin_width=1.0, start=0, name="x"):
    ch = Channel(name, ServiceKey("svc", 80, "tcp"))
    return ChannelSeries(ch, bin_width, start, np.asarray(counts, dtype=float))


def naive_ncc(x, y, lag):
    """Independent reference: plain double loop, no vectorization."""
    if lag < 0:
        return naive_ncc(y, x, -lag)
    m = min(len(x), len(y) - lag)
    xs = [float(x[t]) for t in range(m)]
    ys = [float(y[t + lag]) for t in range(m)]
    mx = sum(xs) / m
    my = sum(ys) / m
    sx = math.sqrt(sum((v - mx) ** 2 for v in xs) / (m - 1))
    sy = math.sqrt(sum((v - my) ** 2 for v in ys) / (m - 1))
    acc = 0.0
    for t in range(m):
        acc += (xs[t] - mx) * (ys[t] - my)
    return acc / ((m - 1) * sx * sy)


class TestNcc:
    def test_self_correlation_is_one(self):
        x = series([1, 4, 2, 8, 5, 7])
        assert ncc(x, x, 0) == pytest.approx(1.0, abs=1e-9)

    def test_perfect_anticorrelation(self):
        xs = [1, 4, 2, 8, 5, 7]
        y = series([10 - v for v in xs])
        assert ncc(series(xs), y, 0) == pytest.approx(-1.0, abs=1e-9)

    def test_shift_alignment(self):
        rng = random.Random(5)
        xs = [rng.randrange(10) for _ in range(64)]
        k = 5
        ys = [0] * k + xs
        assert ncc(series(xs), series(ys), k) == pytest.approx(1.0, abs=1e-9)

    def test_matches_brute_force_reference(self):
        rng = np.random.default_rng(808)
        for _ in range(300):
            n = int(rng.integers(16, 1025))
            lag = int(rng.integers(0, 33))
            x = rng.poisson(3.0, size=n).astype(float)
            y = rng.poisson(3.0, size=n).astype(float)
            if x.std() == 0 or len(y) - lag < 2 or y[lag:].std() == 0 or x[: len(y) - lag].std() == 0:
                continue
            got = ncc(series(x), series(y), lag)
            want = naive_ncc(list(x), list(y), lag)
            assert abs(got - want) < 1e-9

    @given(
        a=st.floats(min_value=0.1, max_value=50),
        b=st.floats(min_value=-20, max_value=20),
        lag=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_affine_invariance(self, a, b, lag):
        rng = np.random.default_rng(11)
        x = rng.poisson(4.0, size=128).astype(float)
        y = rng.poisson(4.0, size=128).astype(float)
        base = ncc(series(x), series(y), lag)
        scaled = ncc(series(a * x + b), series(y), lag)
        assert abs(base - scaled) < 1e-9

    def test_lag_symmetry(self):
        rng = np.random.default_rng(21)
        x = series(rng.poisson(2.0, 100))
        y = series(rng.poisson(2.0, 100))
        for lag in (0, 1, 7):
            assert ncc(x, y, lag) == pytest.approx(ncc(y, x, -lag), abs=1e-12)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = series(rng.poisson(1.0, 50))
            y = series(rng.poisson(1.0, 50))
            try:
                assert abs(ncc(x, y, int(rng.integers(0, 10)))) <= 1.0
            except ConstantSeries:
                pass

    def test_errors(self):
        with pytest.raises(ConstantSeries):
            ncc(series([3, 3, 3, 3]), series([1, 2, 3, 4]), 0)
        with pytest.raises(InsufficientOverlap):
            ncc(series([1, 2, 3]), series([1, 2, 3]), 2)
        with pytest.raises(MismatchedBinning):
            ncc(series([1, 2, 3]), series([1, 2, 3], bin_width=2.0), 0)
        with pytest.raises(MismatchedBinning):
            ncc(series([1, 2, 3]), series([1, 2, 3], start=10), 0)


class TestMaxLag:
    def test_identity_peak_at_zero(self):
        x = series([1, 5, 2, 7, 3, 9, 4])
        assert max_lag_ncc(x, x, 4) == (0, pytest.approx(1.0, abs=1e-9))

    def test_shift_recovered(self):
        rng = random.Random(2)
        xs = [rng.randrange(12) for _ in range(128)]
        ys = [0, 0, 0] + xs
        lag, score = max_lag_ncc(series(xs), series(ys), 10)
        assert lag == 3 and score == pytest.approx(1.0, abs=1e-9)

    def test_tie_breaks_to_smallest_lag(self):
        # Period-4 signal correlates perfectly at lags 0 and 4.
        xs = [1, 9, 2, 5] * 16
        lag, _ = max_lag_ncc(series(xs), series(xs), 8)
        assert lag == 0

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            x = series(rng.poisson(3.0, 200))
            y = series(rng.poisson(3.0, 200))
            got = max_lag_ncc(x, y, 20)
            best = None
            for lag in range(21):
                try:
                    s = ncc(x, y, lag)
                except (ConstantSeries, InsufficientOverlap):
                    continue
                if best is None or s > best[1]:
                    best = (lag, s)
            assert got == best

    def test_no_valid_lag(self):
        with pytest.raises(NoValidLag):
            max_lag_ncc(series([2, 2, 2, 2]), series([1, 5, 1, 5]), 2)


def methods_ncc(x, y, lag):
    """Reference: ``ncc`` written with ``ndarray.mean`` and
    ``ndarray.std(ddof=1)``, converting each overlap to float."""
    if lag < 0:
        m = min(len(y.counts), len(x.counts) + lag)
        xs, ys = x.counts[-lag : -lag + m], y.counts[:m]
    else:
        m = min(len(x.counts), len(y.counts) - lag)
        xs, ys = x.counts[:m], y.counts[lag : lag + m]
    if m < 2:
        raise InsufficientOverlap(m)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    sx = xs.std(ddof=1)
    sy = ys.std(ddof=1)
    if sx == 0.0 or sy == 0.0:
        raise ConstantSeries(m)
    r = float(np.dot(xs - xs.mean(), ys - ys.mean()) / ((m - 1) * sx * sy))
    return max(-1.0, min(1.0, r))


def lag_loop(x, y, max_lag, score=ncc):
    """Reference: the best lag of ``score`` over 0..max_lag, one call per lag,
    with the 1e-12 tie rule; None when no lag scores."""
    best = None
    for lag in range(max_lag + 1):
        try:
            s = score(x, y, lag)
        except (ConstantSeries, InsufficientOverlap):
            continue
        if best is None or s > best[1] + 1e-12:
            best = (lag, s)
    return best


def int_series(counts):
    ch = Channel("x", ServiceKey("svc", 80, "tcp"))
    return ChannelSeries(ch, 1.0, 0, np.asarray(counts, dtype=np.int64))


# Integer count series, some built from constant stretches.
count_series = st.one_of(
    st.lists(st.integers(min_value=0, max_value=9), max_size=40),
    st.lists(st.tuples(st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=9)),
             max_size=8).map(lambda runs: [v for v, n in runs for _ in range(n)]),
)


class TestLagScan:
    @given(xs=count_series, ys=count_series, lag=st.integers(min_value=-45, max_value=45))
    @settings(max_examples=300, deadline=None)
    def test_ncc_is_bit_identical_to_ndarray_mean_and_std(self, xs, ys, lag):
        x, y = int_series(xs), int_series(ys)
        try:
            want = methods_ncc(x, y, lag)
        except (ConstantSeries, InsufficientOverlap) as exc:
            with pytest.raises(type(exc)):
                ncc(x, y, lag)
            return
        assert ncc(x, y, lag) == want

    @given(xs=count_series, ys=count_series, max_lag=st.integers(min_value=0, max_value=50))
    @settings(max_examples=300, deadline=None)
    def test_max_lag_ncc_equals_the_per_lag_ncc_loop(self, xs, ys, max_lag):
        x, y = int_series(xs), int_series(ys)
        want = lag_loop(x, y, max_lag)
        if want is None:
            with pytest.raises(NoValidLag):
                max_lag_ncc(x, y, max_lag)
        else:
            assert max_lag_ncc(x, y, max_lag) == want

    def test_long_poisson_pairs_match_the_methods_loop(self):
        # Long enough for numpy's pairwise summation to split into blocks.
        rng = np.random.default_rng(3000)
        for _ in range(60):
            x = int_series(rng.poisson(rng.uniform(0.2, 6.0), int(rng.integers(150, 400))))
            y = int_series(rng.poisson(rng.uniform(0.2, 6.0), int(rng.integers(150, 400))))
            max_lag = int(rng.integers(0, 40))
            assert max_lag_ncc(x, y, max_lag) == lag_loop(x, y, max_lag, methods_ncc)

    def test_lag_range_is_bounded_by_the_series(self):
        rng = np.random.default_rng(5)
        x = int_series(rng.poisson(3.0, 300))
        y = int_series(rng.poisson(3.0, 300))
        start = time.perf_counter()
        got = max_lag_ncc(x, y, 10**12)
        assert time.perf_counter() - start < 1.0
        assert got == max_lag_ncc(x, y, len(y.counts) - 2)

    def test_memory_does_not_grow_with_the_lag_range(self):
        # 2000 bins at every lag: keeping a float array per window would
        # hold n**2 / 2 floats per series, about 32 MB for the pair.
        rng = np.random.default_rng(6)
        x = int_series(rng.poisson(3.0, 2000))
        y = int_series(rng.poisson(3.0, 2000))
        tracemalloc.start()
        try:
            max_lag_ncc(x, y, 10**12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_mismatched_binning_checked_once_up_front(self):
        with pytest.raises(MismatchedBinning):
            max_lag_ncc(series([1, 2, 3]), series([1, 2, 3], start=10), 0)


def _poisson_records(rng, client, service, rate, duration_s):
    out = []
    t = rng.exponential(1.0 / rate)
    while t < duration_s:
        out.append(
            FlowRecord(int(t * 1e6), client, int(rng.integers(50000, 60000)),
                       service.host, service.port, service.proto, 100, 1)
        )
        t += rng.exponential(1.0 / rate)
    return out


class TestDirectDependencies:
    def test_single_flow(self):
        r = FlowRecord(5, "c", 51514, "s", 443, "tcp", 10, 1)
        deps = direct_dependencies([r])
        assert len(deps) == 1
        assert deps[0].flow_count == 1
        assert deps[0].first_seen_us == deps[0].last_seen_us == 5

    def test_aggregation(self):
        rs = [FlowRecord(t, "c", 51000 + t, "s", 443, "tcp", 10, 1) for t in (9, 2, 5, 7, 3)]
        deps = direct_dependencies(rs)
        assert deps[0].flow_count == 5
        assert deps[0].first_seen_us == 2 and deps[0].last_seen_us == 9

    def test_matches_group_by_oracle(self):
        rng = random.Random(303)
        records = []
        for _ in range(800):
            c = f"c{rng.randrange(4)}"
            s = rng.choice([("s1", 80), ("s2", 443), ("s3", 22)])
            records.append(FlowRecord(rng.randrange(10**9), c, 55555, s[0], s[1], "tcp", 1, 1))
        deps = direct_dependencies(records)
        oracle = {}
        for r in records:
            key = (r.src_host, (r.dst_host, r.dst_port))
            oracle.setdefault(key, []).append(r.ts_us)
        assert len(deps) == len(oracle)
        for d in deps:
            ts = oracle[(d.client, (d.service.host, d.service.port))]
            assert (d.flow_count, d.first_seen_us, d.last_seen_us) == (len(ts), min(ts), max(ts))


class TestInferIndirect:
    def _series_provider(self, records, bin_width=1.0):
        t0 = min(r.ts_us for r in records)
        t1 = max(r.ts_us for r in records) + 1
        cache = {}

        def series_for(channel):
            if channel not in cache:
                cache[channel] = bin_activity(records, channel, bin_width, (t0, t1))
            return cache[channel]

        return series_for

    def test_no_shared_pivot(self):
        rng = np.random.default_rng(0)
        records = _poisson_records(rng, "a", ServiceKey("b", 80, "tcp"), 2.0, 200)
        records += _poisson_records(rng, "x", ServiceKey("y", 80, "tcp"), 2.0, 200)
        direct = direct_dependencies(records)
        assert infer_indirect(direct, self._series_provider(records)) == []

    def test_planted_cascade_recovered(self):
        records, truth = gen_flows(
            {
                "duration_s": 600,
                "cascades": [
                    {
                        "upstream": {"client": "a", "service": "b:8080/tcp", "rate_per_s": 2.0},
                        "downstream_service": "c:5432/tcp",
                        "lag_s": 2.0,
                    }
                ],
            },
            seed=12,
        )
        direct = direct_dependencies(records)
        found = infer_indirect(direct, self._series_provider(records))
        assert len(found) == 1
        assert found[0].lag_bins == 2
        assert {indirect_key(i) for i in found} == truth_indirect_keys(truth)

    def test_independent_channels_stay_quiet(self):
        emitted = 0
        for seed in range(50):
            records, _ = gen_flows(
                {
                    "duration_s": 1000,
                    "channels": [
                        {"client": "a", "service": "b:8080/tcp", "rate_per_s": 1.0},
                        {"client": "b", "service": "c:5432/tcp", "rate_per_s": 1.0},
                    ],
                },
                seed=seed,
            )
            direct = direct_dependencies(records)
            emitted += len(infer_indirect(direct, self._series_provider(records)))
        assert emitted <= 1

    def test_threshold_monotonicity(self):
        records, _ = gen_flows(
            {
                "duration_s": 400,
                "channels": [{"client": "b", "service": "c:5432/tcp", "rate_per_s": 1.0}],
                "cascades": [
                    {
                        "upstream": {"client": "a", "service": "b:8080/tcp", "rate_per_s": 2.0},
                        "downstream_service": "d:5432/tcp",
                        "lag_s": 1.0,
                        "drop_prob": 0.3,
                    }
                ],
            },
            seed=77,
        )
        direct = direct_dependencies(records)
        provider = self._series_provider(records)
        strict = {indirect_key(i) for i in infer_indirect(direct, provider, threshold=0.9)}
        loose = {indirect_key(i) for i in infer_indirect(direct, provider, threshold=0.5)}
        assert strict <= loose

    def test_min_activity_filters_sparse_channels(self):
        records, _ = gen_flows(
            {
                "duration_s": 600,
                "cascades": [
                    {
                        "upstream": {"client": "a", "service": "b:8080/tcp", "rate_per_s": 0.01},
                        "downstream_service": "c:5432/tcp",
                        "lag_s": 1.0,
                    }
                ],
            },
            seed=1,
        )
        direct = direct_dependencies(records)
        assert infer_indirect(direct, self._series_provider(records), min_activity=100) == []


# Channels among four hosts, self-loops included, so pivots share channels
# and one channel can be both upstream and downstream of its pivot.
pivot_channels = st.lists(
    st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd"), st.sampled_from([80, 443])),
    min_size=1, max_size=9, unique=True,
)
# Series of unequal lengths, with constant and all-zero stretches.
pivot_counts = st.one_of(count_series, st.integers(min_value=0, max_value=30).map(lambda n: [0] * n))


def pair_by_pair(direct, series_for, max_lag, min_activity):
    """Reference: every (upstream, downstream) pair through a shared pivot,
    scored on its own by :func:`lag_loop` over :func:`methods_ncc`; None for
    a skipped pair."""
    active = [d for d in direct if d.flow_count >= min_activity]
    out = {}
    for up in active:
        for down in active:
            if down.client != up.service.host or down.channel() == up.channel():
                continue
            out[up.channel(), down.channel()] = lag_loop(
                series_for(up.channel()), series_for(down.channel()), max_lag, methods_ncc
            )
    return out


def emitted(found):
    return [(i.upstream, i.downstream, i.lag_bins, repr(i.score)) for i in found]


def busy_pivot(ups, downs, bins, seed):
    """Direct dependencies of ``ups`` clients into pivot p and of p into
    ``downs`` services, and their Poisson count series of ``bins`` bins."""
    rng = np.random.default_rng(seed)
    direct = [DirectDependency(f"c{i}", ServiceKey("p", 80, "tcp"), 100, 0, 0) for i in range(ups)]
    direct += [DirectDependency("p", ServiceKey(f"s{i}", 80, "tcp"), 100, 0, 0) for i in range(downs)]
    by_channel = {d.channel(): int_series(rng.poisson(rng.uniform(0.5, 4.0), bins)) for d in direct}
    return direct, by_channel


class TestPivotMemo:
    """``infer_indirect`` scores all pairs together, lag by lag and in
    chunks of bounded size; its scores must be those of each pair scored
    alone, and ``series_for`` is called once per channel."""

    @given(
        channels=pivot_channels,
        data=st.data(),
        max_lag=st.integers(min_value=0, max_value=45),
        min_activity=st.sampled_from([0, 10]),
        chunk_elements=st.sampled_from([1, 50, discovery._CHUNK_ELEMENTS]),
    )
    @settings(max_examples=300, deadline=None)
    def test_scores_equal_per_pair_max_lag_ncc(self, channels, data, max_lag, min_activity,
                                               chunk_elements):
        direct, by_channel = [], {}
        for client, host, port in channels:
            counts = data.draw(pivot_counts)
            d = DirectDependency(client, ServiceKey(host, port, "tcp"), data.draw(st.integers(0, 20)), 0, 0)
            direct.append(d)
            # Every int_series is labelled channel x: the scorer must not key
            # on a series' label.
            by_channel[d.channel()] = int_series(counts)

        def series_for(channel):
            return by_channel[channel]

        # A threshold of -1 emits every pair that scores, so a pair is
        # missing exactly when it was skipped.  A small chunk budget splits
        # even these pivots.
        with mock.patch.object(discovery, "_CHUNK_ELEMENTS", chunk_elements):
            got = infer_indirect(direct, series_for, threshold=-1.0, max_lag=max_lag,
                                 min_activity=min_activity)
        want = sorted(
            ((up, down, best) for (up, down), best in
             pair_by_pair(direct, series_for, max_lag, min_activity).items() if best),
            key=lambda t: (t[0].service.host, t[0].label(), t[1].label()),
        )
        assert emitted(got) == [(up, down, lag, repr(score)) for up, down, (lag, score) in want]

    def test_pivot_split_into_chunks_matches_the_methods_loop(self, monkeypatch):
        # 8 + 8 series of 20,000 bins do not fit one chunk; one upstream is
        # shorter, so its pairs form a group of their own, and one is all
        # zeros, so its pairs are skipped.
        direct, by_channel = busy_pivot(8, 8, 20_000, seed=11)
        ups = [d.channel() for d in direct[:8]]
        by_channel[ups[0]] = int_series(by_channel[ups[0]].counts[:19_000])
        by_channel[ups[1]] = int_series(np.zeros(20_000, dtype=np.int64))
        chunks = []
        score_chunk = discovery._score_chunk

        def spy(pairs, ks, max_lag, best):
            rows = len({id(pairs[k][0]) for k in ks}) + len({id(pairs[k][1]) for k in ks})
            chunks.append((rows, len(ks)))
            score_chunk(pairs, ks, max_lag, best)

        monkeypatch.setattr(discovery, "_score_chunk", spy)
        got = infer_indirect(direct, by_channel.__getitem__, threshold=-1.0, max_lag=8)
        assert len(chunks) >= 4 and sum(n for _, n in chunks) == 64
        assert all(rows * 20_000 <= discovery._CHUNK_ELEMENTS for rows, _ in chunks)
        want = [
            (up, down, *best)
            for (up, down), best in pair_by_pair(direct, by_channel.__getitem__, 8, 0).items()
            if best
        ]
        assert len(want) == 56
        want.sort(key=lambda t: (t[0].service.host, t[0].label(), t[1].label()))
        assert emitted(got) == [(up, down, lag, repr(score)) for up, down, lag, score in want]

    def test_memory_is_bounded_on_a_busy_pivot(self):
        # 30 + 30 series of 20,000 bins: 9.6 MB as float, which a float copy
        # of every series at the pivot would hold.
        direct, by_channel = busy_pivot(30, 30, 20_000, seed=12)
        tracemalloc.start()
        try:
            infer_indirect(direct, by_channel.__getitem__, max_lag=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * discovery._CHUNK_ELEMENTS

    def test_series_for_is_called_once_per_channel(self):
        # Every channel among three hosts: each is upstream of its service
        # host's pivot and downstream of its client's.
        hosts = "abc"
        direct = [DirectDependency(c, ServiceKey(h, 80, "tcp"), 100, 0, 0)
                  for c in hosts for h in hosts if c != h]
        rng = np.random.default_rng(13)
        calls = defaultdict(int)

        def series_for(channel):
            calls[channel] += 1
            return int_series(rng.poisson(3.0, 200))

        infer_indirect(direct, series_for)
        assert dict(calls) == {d.channel(): 1 for d in direct}


class TestRetryChains:
    def test_planted_pattern(self):
        svc_b = ServiceKey("b", 2404, "tcp")
        svc_c = ServiceKey("c", 2404, "tcp")
        records = []
        for k in range(50):
            t = k * 60_000_000
            records.append(FlowRecord(t, "hmi", 55001, "b", 2404, "tcp", 10, 1))
            records.append(FlowRecord(t + 500_000, "hmi", 55002, "c", 2404, "tcp", 10, 1))
        chains = detect_retry_chains(records)
        assert len(chains) == 1
        c = chains[0]
        assert (c.first_contact, c.fallback, c.support) == (svc_b, svc_c, 50)

    def test_independent_contacts_no_chain(self):
        records = []
        for k in range(50):
            records.append(FlowRecord(k * 60_000_000, "hmi", 55001, "b", 2404, "tcp", 10, 1))
            records.append(FlowRecord(k * 60_000_000 + 30_000_000, "hmi", 55002, "c", 2404, "tcp", 10, 1))
        assert detect_retry_chains(records) == []

    def test_occasional_pairing_below_dominance(self):
        # 30% of contacts happen to be followed by the other service: the
        # pattern is incidental, not habitual.
        records = []
        for k in range(100):
            t = k * 60_000_000
            records.append(FlowRecord(t, "hmi", 55001, "b", 2404, "tcp", 10, 1))
            gap = 500_000 if k % 10 < 3 else 30_000_000
            records.append(FlowRecord(t + gap, "hmi", 55002, "c", 2404, "tcp", 10, 1))
        assert detect_retry_chains(records) == []


def slice_retry_chains(
    records,
    episode_gap=DEFAULT_EPISODE_GAP,
    min_support=DEFAULT_MIN_SUPPORT,
    dominance=DEFAULT_DOMINANCE,
):
    """Reference: the slice-based loop ``detect_retry_chains`` replaced."""
    gap_us = int(round(episode_gap * 1e6))
    per_client = defaultdict(list)
    for r in records:
        client, service, _ = service_side(r)
        per_client[client].append((r.ts_us, service))

    chains = []
    for client in sorted(per_client):
        contacts = sorted(per_client[client], key=lambda c: c[0])
        episodes = defaultdict(int)
        totals = defaultdict(int)
        for i, (ts, svc) in enumerate(contacts):
            totals[svc] += 1
            for ts2, svc2 in contacts[i + 1 :]:
                if ts2 - ts > gap_us:
                    break
                if svc2 != svc:
                    episodes[(svc, svc2)] += 1
                    break
        for (first, fallback), support in sorted(
            episodes.items(), key=lambda kv: (kv[0][0].label(), kv[0][1].label())
        ):
            if support >= min_support and support >= dominance * totals[first]:
                chains.append(RetryChain(client, first, fallback, support, episode_gap))
    return chains


contact = st.builds(
    lambda ts, client, server, port, proto: FlowRecord(ts, client, 55000, server, port, proto, 10, 1),
    st.integers(min_value=0, max_value=60_000_000),
    st.sampled_from(["hmi", "ws"]),
    st.sampled_from(["a", "b", "c"]),
    st.sampled_from([53, 2404]),
    st.sampled_from(["tcp", "udp"]),
)


class TestRetryChainOracle:
    @given(
        records=st.lists(contact, max_size=120),
        episode_gap=st.sampled_from([0.5, 2.0, 10.0]),
        min_support=st.integers(min_value=1, max_value=4),
        dominance=st.sampled_from([0.0, 0.5, 0.8, 1.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_index_walk_matches_slice_loop(self, records, episode_gap, min_support, dominance):
        got = detect_retry_chains(records, episode_gap, min_support, dominance)
        assert got == slice_retry_chains(records, episode_gap, min_support, dominance)


def record_direct_dependencies(records):
    """Reference: the per-record aggregation ``direct_dependencies`` ran
    before it read the capture's channel index."""
    agg = {}
    for r in records:
        ch = channel_of(r)
        entry = agg.get(ch)
        if entry is None:
            agg[ch] = [1, r.ts_us, r.ts_us]
        else:
            entry[0] += 1
            entry[1] = min(entry[1], r.ts_us)
            entry[2] = max(entry[2], r.ts_us)
    out = [
        DirectDependency(ch.client, ch.service, count, first, last)
        for ch, (count, first, last) in agg.items()
    ]
    out.sort(key=lambda d: (d.client, d.service.label()))
    return out


def record_retry_chains(records, episode_gap, min_support, dominance):
    """Reference: the per-record walk ``detect_retry_chains`` ran before it
    read the capture's channel index."""
    gap_us = int(round(episode_gap * 1e6))
    per_client = defaultdict(list)
    for r in records:
        client, service, _ = service_side(r)
        per_client[client].append((r.ts_us, service))

    chains = []
    for client in sorted(per_client):
        contacts = sorted(per_client[client], key=lambda c: c[0])
        episodes = defaultdict(int)
        totals = defaultdict(int)
        for i, (ts, svc) in enumerate(contacts):
            totals[svc] += 1
            for j in range(i + 1, len(contacts)):
                ts2, svc2 = contacts[j]
                if ts2 - ts > gap_us:
                    break
                if svc2 != svc:
                    episodes[(svc, svc2)] += 1
                    break
        for (first, fallback), support in sorted(
            episodes.items(), key=lambda kv: (kv[0][0].label(), kv[0][1].label())
        ):
            if support >= min_support and support >= dominance * totals[first]:
                chains.append(RetryChain(client, first, fallback, support, episode_gap))
    return chains


# Flows between a few hosts with either side on the lower port, on a coarse
# time grid so that equal timestamps and short gaps are common.
indexed_flow = st.builds(
    lambda tick, src, sport, dst, dport, proto: FlowRecord(
        tick * 250_000, src, sport, dst, dport, proto, 10, 1
    ),
    st.integers(min_value=0, max_value=60),
    st.sampled_from(["hmi", "ws", "a"]),
    st.sampled_from([55000, 443, 53]),
    st.sampled_from(["a", "b", "c"]),
    st.sampled_from([53, 2404, 60000]),
    st.sampled_from(["tcp", "udp"]),
)


def assert_index_readers_match(records, source, retry_options):
    assert direct_dependencies(source()) == record_direct_dependencies(records)
    assert detect_retry_chains(source(), *retry_options) == record_retry_chains(
        records, *retry_options
    )


retry_options = st.tuples(
    st.sampled_from([0.0, 0.5, 2.0, 10.0]),
    st.integers(min_value=0, max_value=4),
    st.sampled_from([0.0, 0.5, 0.8, 1.0]),
)


class TestIndexReadersMatchPerRecordCode:
    @given(records=st.lists(indexed_flow, max_size=120), options=retry_options)
    @settings(max_examples=150, deadline=None)
    def test_log_list_and_generator(self, records, options):
        log = FlowLog(records)
        for source in (lambda: log, lambda: list(records), lambda: (r for r in records)):
            assert_index_readers_match(records, source, options)

    def test_int64_timestamp_bounds(self):
        records = [FlowRecord(t, "c", 55000, "s", 443, "tcp", 1, 1) for t in (2**63 - 1, 0)]
        (dep,) = direct_dependencies(FlowLog(records))
        assert (dep.first_seen_us, dep.last_seen_us) == (0, 2**63 - 1)
        assert type(dep.first_seen_us) is int and type(dep.flow_count) is int

    @pytest.mark.parametrize("kwargs,field", [
        ({"episode_gap": -1.0}, "episode_gap"),
        ({"min_support": -1}, "min_support"),
        ({"dominance": 1.5}, "dominance"),
        ({"dominance": math.nan}, "dominance"),
    ])
    def test_retry_options_checked_on_an_empty_capture(self, kwargs, field):
        with pytest.raises(ValidationError) as err:
            detect_retry_chains([], **kwargs)
        assert err.value.field == field


class TestEvaluate:
    def test_perfect_match(self):
        edges = {("direct", "a", "b"), ("direct", "c", "d")}
        report = evaluate(edges, edges)
        assert report.precision == 1.0 and report.recall == 1.0

    def test_empty_discovered(self):
        report = evaluate(set(), {("direct", "a", "b")})
        assert report.precision == 1.0  # 0/0 rule
        assert report.recall == 0.0

    def test_empty_truth(self):
        report = evaluate({("direct", "a", "b")}, set())
        assert report.recall == 1.0 and report.precision == 0.0

    def test_matches_set_algebra_oracle(self):
        rng = random.Random(4)
        universe = [("direct", f"c{i}", f"s{j}") for i in range(6) for j in range(6)]
        for _ in range(50):
            found = {e for e in universe if rng.random() < 0.3}
            truth = {e for e in universe if rng.random() < 0.3}
            report = evaluate(found, truth)
            tp = len(found & truth)
            assert report.precision == (tp / len(found) if found else 1.0)
            assert report.recall == (tp / len(truth) if truth else 1.0)
            assert set(report.true_positives) == (found & truth)
            assert set(report.false_positives) == (found - truth)
            assert set(report.false_negatives) == (truth - found)

    def test_perfect_iff_equal(self):
        a = {("direct", "x", "y")}
        b = {("direct", "x", "y"), ("direct", "p", "q")}
        r = evaluate(a, b)
        assert not (r.precision == 1.0 and r.recall == 1.0)


class TestExportGraph:
    def test_empty(self):
        g = export_graph([], [], [])
        assert g.assets == {} and g.edges == []

    def test_single_direct_dependency(self):
        deps = direct_dependencies([FlowRecord(1, "ws", 55000, "srv", 443, "tcp", 9, 1)])
        g = export_graph(deps)
        assert len(g.assets) == 2 and len(g.edges) == 1
        edge = g.edges[0]
        assert edge.kind == "discovered_direct"
        assert edge.from_id == "ws" and edge.to_id == "srv:443/tcp"

    def test_retry_fixture_annotations(self):
        records, truth = gen_flows(
            {
                "duration_s": 1200,
                "retries": [
                    {"client": f"hmi-{k}", "primary": "comm-a:2404/tcp",
                     "fallback": "comm-b:2404/tcp", "rate_per_s": 0.05}
                    for k in (11, 17, 22)
                ],
            },
            seed=9,
        )
        chains = detect_retry_chains(records)
        g = export_graph(direct_dependencies(records), [], chains)
        notes = {(a["client"], a["first_contact"], a["fallback"]) for a in g.annotations}
        assert notes == {
            (f"hmi-{k}", "comm-a:2404/tcp", "comm-b:2404/tcp") for k in (11, 17, 22)
        }
        assert {retry_key(c) for c in chains} == truth_retry_keys(truth)
