import math
import random
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miakit.discovery import (
    DEFAULT_DOMINANCE,
    DEFAULT_EPISODE_GAP,
    DEFAULT_MIN_SUPPORT,
    ConstantSeries,
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
from miakit.flows import (
    Channel,
    ChannelSeries,
    FlowRecord,
    ServiceKey,
    bin_activity,
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
