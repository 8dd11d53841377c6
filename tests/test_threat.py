import statistics
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miakit.infrastructure import build_graph
from miakit.kernel import Distribution, RngStream, Simulator
from miakit.scenario import scenario_from_dict
from miakit.threat import (
    AttackDuration,
    AttackerRuntime,
    AttackerSpec,
    AttackTimeline,
    DefenderRuntime,
    DefenderSpec,
    EffectSpec,
    MissingOnset,
    NoEndUserNodes,
    StartPolicy,
    UnknownTarget,
    attack_duration,
    attacker_process,
    defender_process,
)

STOP = EffectSpec("availability_stop")


def linear_graph(hops):
    """end-user node -> hop1 -> ... -> target, all hops vulnerable."""
    assets = [{"id": "eu", "kind": "end_user_node", "subnet": "office"}]
    edges = []
    vulns = []
    prev = "eu"
    for k in range(1, hops + 1):
        name = f"h{k}"
        assets.append({"id": name, "kind": "device"})
        edges.append({"from": prev, "to": name})
        vulns.append({"asset": name, "exploit": "e1"})
        prev = name
    return build_graph({"assets": assets, "edges": edges, "vulnerabilities": vulns})


def attacker(graph, target, **kw):
    spec = AttackerSpec(
        target=target,
        effect=kw.pop("effect", STOP),
        start=kw.pop("start", StartPolicy.fixed(0.0)),
        capabilities=frozenset(kw.pop("capabilities", {"e1"})),
        spearphish_interval=kw.pop("spearphish_interval", Distribution.fixed(10.0)),
        scan_interval=kw.pop("scan_interval", Distribution.fixed(5.0)),
        **kw,
    )
    sim = Simulator()
    runtime = attacker_process(spec, graph, sim, RngStream(7, 2))
    return runtime, sim


class TestAttacker:
    def test_validation(self):
        g = linear_graph(1)
        with pytest.raises(UnknownTarget):
            attacker(g, "nope")
        no_eu = build_graph({"assets": [{"id": "x", "kind": "device"}]})
        with pytest.raises(NoEndUserNodes):
            attacker(no_eu, "x")

    def test_phished_node_is_target(self):
        g = linear_graph(1)
        runtime, sim = attacker(g, "eu")
        sim.run_until(100.0)
        onset = runtime.timeline.first("effect_onset")
        assert onset.time == 10.0  # one spearphish step
        assert g.states["eu"].mode == "unavailable"
        assert runtime.phase == "effect_active"

    def test_no_capabilities_never_reaches_target(self):
        g = linear_graph(2)
        runtime, sim = attacker(g, "h2", capabilities=set())
        sim.run_until(2000.0)
        assert runtime.phase == "lateral_movement"
        assert runtime.timeline.first("effect_onset") is None
        assert g.states["h2"].mode == "operational"

    def test_three_hop_deterministic_timing(self):
        # spearphish at 10, hops at 15 and 20 with agility 1.
        g = linear_graph(2)
        runtime, sim = attacker(g, "h2")
        sim.run_until(100.0)
        assert runtime.timeline.first("effect_onset").time == pytest.approx(20.0)
        assert runtime.foothold == ["eu", "h1", "h2"]

    def test_agility_scales_step_intervals(self):
        g = linear_graph(2)
        runtime, sim = attacker(g, "h2", agility=0.5)
        sim.run_until(100.0)
        assert runtime.timeline.first("effect_onset").time == pytest.approx(10.0)

    def test_effect_kinds_map_to_states(self):
        cases = [
            (STOP, "unavailable"),
            (EffectSpec("availability_degrade", degrade_factor=0.5), "degraded"),
            (EffectSpec("integrity"), "integrity_compromised"),
            (EffectSpec("confidentiality"), "confidentiality_compromised"),
        ]
        for effect, mode in cases:
            g = linear_graph(1)
            _, sim = attacker(g, "h1", effect=effect)
            sim.run_until(100.0)
            assert g.states["h1"].mode == mode

    def test_zero_proficiency_never_fires(self):
        g = linear_graph(1)
        runtime, sim = attacker(g, "h1", proficiency=0.0)
        sim.run_until(5000.0)
        assert runtime.timeline.first("effect_onset") is None

    def test_proficiency_dominance_per_seed(self):
        # Common random numbers: higher proficiency never delays the onset.
        def onset(proficiency, seed):
            g = linear_graph(2)
            spec = AttackerSpec(
                target="h2",
                effect=STOP,
                start=StartPolicy.fixed(0.0),
                capabilities=frozenset({"e1"}),
                spearphish_interval=Distribution.fixed(10.0),
                scan_interval=Distribution.fixed(5.0),
                proficiency=proficiency,
            )
            sim = Simulator()
            runtime = attacker_process(spec, g, sim, RngStream(seed, 2))
            sim.run_until(100_000.0)
            entry = runtime.timeline.first("effect_onset")
            return entry.time if entry else float("inf")

        for seed in range(25):
            times = [onset(p, seed) for p in (0.2, 0.4, 0.7, 1.0)]
            assert times == sorted(times, reverse=True) or all(
                a >= b for a, b in zip(times, times[1:])
            )

    def test_phase_order_invariant(self):
        order = ["access_success", "lateral_move", "exploit_success", "effect_onset"]
        for seed in range(20):
            g = linear_graph(3)
            spec = AttackerSpec(
                target="h3",
                effect=STOP,
                start=StartPolicy.fixed(0.0),
                capabilities=frozenset({"e1"}),
                spearphish_success_prob=0.6,
                spearphish_interval=Distribution.exponential(8.0),
                scan_interval=Distribution.exponential(4.0),
                proficiency=0.5,
            )
            sim = Simulator()
            runtime = attacker_process(spec, g, sim, RngStream(seed, 3))
            sim.run_until(100_000.0)
            tl = runtime.timeline
            stamps = [tl.first(kind) for kind in order]
            assert all(s is not None for s in stamps)
            times = [s.time for s in stamps]
            assert times == sorted(times)
            moves = [e.time for e in tl.entries if e.kind == "lateral_move"]
            access = tl.first("access_success").time
            assert all(access <= m <= tl.first("effect_onset").time for m in moves)

    def test_foothold_only_on_vulnerable_assets(self):
        for seed in range(10):
            g = linear_graph(3)
            runtime, sim = attacker(g, "h3", proficiency=0.5)
            sim.run_until(100_000.0)
            for host in runtime.foothold:
                assert host == "eu" or g.exploits_on(host)

    def test_subnet_adjacency_allows_hop(self):
        g = build_graph(
            {
                "assets": [
                    {"id": "eu", "kind": "end_user_node", "subnet": "lan"},
                    {"id": "srv", "kind": "service", "subnet": "lan"},
                ],
                "vulnerabilities": [{"asset": "srv", "exploit": "e1"}],
            }
        )
        runtime, sim = attacker(g, "srv")
        sim.run_until(100.0)
        assert runtime.timeline.first("effect_onset").time == pytest.approx(15.0)


def _defended(graph_hops=2, seed=0, **dkw):
    g = linear_graph(graph_hops)
    target = f"h{graph_hops}"
    aspec = AttackerSpec(
        target=target,
        effect=STOP,
        start=StartPolicy.fixed(0.0),
        capabilities=frozenset({"e1"}),
        spearphish_interval=Distribution.fixed(10.0),
        scan_interval=Distribution.fixed(5.0),
    )
    dspec = DefenderSpec(
        detect_delay=dkw.pop("detect_delay", Distribution.fixed(30.0)),
        forensics_duration=dkw.pop("forensics_duration", Distribution.fixed(20.0)),
        per_host_discovery_prob=dkw.pop("per_host_discovery_prob", 1.0),
        remediation_per_host=dkw.pop("remediation_per_host", Distribution.fixed(40.0)),
    )
    sim = Simulator()
    att = attacker_process(aspec, g, sim, RngStream(seed, 2))
    defender_process(dspec, sim, RngStream(seed, 3), att)
    return g, att, sim


class TestDefender:
    def test_full_loop_restores_target(self):
        g, att, sim = _defended()
        sim.run_until(10_000.0)
        # onset 20, detect 50, pass 70, remediation 110: evicted.
        assert att.timeline.first("detection").time == pytest.approx(50.0)
        assert att.timeline.first("eviction").time == pytest.approx(110.0)
        assert g.states["h2"].mode == "operational"
        assert att.phase == "evicted"
        assert att.foothold == []

    def test_certain_discovery_takes_one_pass(self):
        g, att, sim = _defended(graph_hops=3)
        sim.run_until(10_000.0)
        passes = [e for e in att.timeline.entries if e.kind == "forensics_pass"]
        assert len(passes) == 1

    def test_detect_beyond_horizon_never_acts(self):
        g, att, sim = _defended(detect_delay=Distribution.fixed(10**9))
        sim.run_until(10_000.0)
        att.timeline.horizon = 10_000.0
        assert att.timeline.first("detection") is None
        assert g.states["h2"].mode == "unavailable"
        d = attack_duration(att.timeline)
        assert d.open_ended and d.seconds == pytest.approx(10_000.0 - 20.0)

    def test_expected_passes_matches_direct_sampling(self):
        # Oracle: passes to find 3 hidden hosts at p=0.5 each pass is the
        # max of three geometric draws; estimate it by direct sampling.
        rng = np.random.default_rng(900)
        draws = np.max(rng.geometric(0.5, size=(100_000, 3)), axis=1)
        oracle_mean = float(draws.mean())
        oracle_se = float(draws.std(ddof=1) / np.sqrt(len(draws)))

        class _StubAttacker:
            def __init__(self):
                self.foothold = ["a", "b", "c"]
                self.timeline = AttackTimeline()
                self.onset_listeners = []

            def remediate_host(self, host, at):
                self.foothold.remove(host)

        counts = []
        for seed in range(4000):
            sim = Simulator()
            stub = _StubAttacker()
            d = DefenderRuntime(
                DefenderSpec(
                    detect_delay=Distribution.fixed(0.0),
                    forensics_duration=Distribution.fixed(1.0),
                    per_host_discovery_prob=0.5,
                    remediation_per_host=Distribution.fixed(0.0),
                ),
                sim,
                RngStream(seed, 9),
                stub,
            ).install()
            d._on_effect_onset(0.0)
            sim.run_until(100_000.0)
            counts.append(
                sum(1 for e in stub.timeline.entries if e.kind == "forensics_pass")
            )
        sim_mean = statistics.mean(counts)
        sim_se = statistics.stdev(counts) / len(counts) ** 0.5
        assert abs(sim_mean - oracle_mean) <= 3 * (oracle_se**2 + sim_se**2) ** 0.5


class TestAttackDuration:
    def test_closed_attack(self):
        tl = AttackTimeline(horizon=1000.0)
        tl.add(100.0, "effect_onset", "x")
        tl.add(400.0, "eviction")
        assert attack_duration(tl) == AttackDuration(300.0, False)

    def test_open_ended(self):
        tl = AttackTimeline(horizon=1000.0)
        tl.add(600.0, "effect_onset", "x")
        assert attack_duration(tl) == AttackDuration(400.0, True)

    def test_missing_onset(self):
        with pytest.raises(MissingOnset):
            attack_duration(AttackTimeline(horizon=10.0))

    def test_replay_oracle_on_simulated_timelines(self):
        for seed in range(10):
            _, att, sim = _defended(seed=seed)
            sim.run_until(10_000.0)
            att.timeline.horizon = 10_000.0
            d = attack_duration(att.timeline)
            onset = next(e.time for e in att.timeline.entries if e.kind == "effect_onset")
            evictions = [e.time for e in att.timeline.entries if e.kind == "eviction"]
            want = (evictions[0] - onset) if evictions else (10_000.0 - onset)
            assert d.seconds == pytest.approx(want)


# ---------------------------------------------------------------------------
# Exploitable hops remembered on the topology

EXPLOITS = ("e1", "e2", "e3")


def neighbour_scan(graph, foothold, capabilities):
    """The hop search without the table: the neighbours of the foothold, less
    the foothold, that an exploit in ``capabilities`` works on, sorted."""
    seen = set()
    for host in foothold:
        seen |= graph.neighbors(host)
    seen.difference_update(foothold)
    return sorted(a for a in seen if not graph.exploits_on(a).isdisjoint(capabilities))


@st.composite
def hop_cases(draw):
    """A small graph with subnets, edges either way and vulnerabilities; two
    or three capability sets; and foothold steps: a move onto a host, or the
    defender remediating one."""
    n = draw(st.integers(2, 10))
    ids = [f"a{k}" for k in range(n)]
    subnets = draw(st.lists(st.sampled_from([None, "s1", "s2"]), min_size=n, max_size=n))
    assets = [{"id": a, "kind": "end_user_node" if k == 0 else "device", "subnet": s}
              for k, (a, s) in enumerate(zip(ids, subnets))]
    pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda p: p[0] != p[1])
    edges = [{"from": a, "to": b} for a, b in draw(st.lists(pairs, max_size=2 * n))]
    vulns = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(EXPLOITS)), max_size=2 * n))
    spec = {"assets": assets, "edges": edges,
            "vulnerabilities": [{"asset": a, "exploit": e} for a, e in vulns]}
    capability_sets = draw(st.lists(st.frozensets(st.sampled_from(EXPLOITS)),
                                    min_size=2, max_size=3, unique=True))
    steps = draw(st.lists(st.tuples(st.sampled_from(["move", "remediate"]), st.sampled_from(ids)),
                          min_size=1, max_size=3 * n))
    return spec, capability_sets, steps


def lateral_scenario():
    """A scenario whose attacker crosses many hosts: four subnets of eight,
    chained through their first hosts, all but a few open to ``e1``, the target
    at the far end, and a defender that finds and evicts the attacker."""
    assets = [{"id": "eu", "kind": "end_user_node", "subnet": "s0"}]
    edges, vulns = [], []
    for s in range(4):
        for i in range(8):
            host = f"h{s}-{i}"
            assets.append({"id": host, "kind": "device", "subnet": f"s{s}"})
            vulns.append({"asset": host, "exploit": "e2" if i and (s + i) % 3 == 0 else "e1"})
        if s:
            edges.append({"from": f"h{s - 1}-0", "to": f"h{s}-0"})
    return {
        "infrastructure": {"assets": assets, "edges": edges, "vulnerabilities": vulns},
        "mission": {
            "arrivals": {"exponential": 600},
            "personnel": {"planner": 2},
            "tasks": [{"id": "draft", "role": "planner", "duration": {"fixed": 300},
                       "requires": ["h3-7"]}],
        },
        "attacker": {"target": "h3-7", "effect": {"availability": "stop"}, "start": {"fixed": 0},
                     "capabilities": ["e1"], "scan_interval": {"exponential": 120},
                     "proficiency": 0.8},
        "defender": {"detect_delay": {"fixed": 600}, "forensics_duration": {"fixed": 300},
                     "per_host_discovery_prob": 0.5, "remediation_per_host": {"fixed": 60}},
        "sim": {"horizon": "8h"},
    }


class TestHopTable:
    @settings(max_examples=150, deadline=None)
    @given(hop_cases())
    def test_eligible_hops_match_the_neighbour_scan(self, case):
        spec, capability_sets, steps = case
        graph = build_graph(spec)
        target = spec["assets"][-1]["id"]
        runtimes = [
            AttackerRuntime(AttackerSpec(target, STOP, StartPolicy.fixed(0.0), caps),
                            graph, Simulator(), RngStream(7, 2))
            for caps in capability_sets
        ]
        searched = set()
        for t, (action, host) in enumerate(steps):
            for rt in runtimes:
                if action == "remediate":
                    rt.remediate_host(host, float(t))
                elif host not in rt.foothold:
                    rt.foothold.append(host)  # as a phish or a hop does
                    rt._hops = None
                if rt.foothold:
                    searched.add(rt.spec.capabilities)
                assert rt._eligible_hops() == neighbour_scan(graph, rt.foothold, rt.spec.capabilities)
        # Each capability set has its own entries, each one a host's own scan.
        tables = graph.topology._hops
        assert set(tables) == searched
        for capabilities, table in tables.items():
            for host, hops in table.items():
                assert hops == tuple(neighbour_scan(graph, [host], capabilities))

    def test_table_is_filled_on_first_use_not_at_load(self):
        sc = scenario_from_dict(lateral_scenario())
        assert sc.topology._hops == {}
        sc.run_replication(0, 5)
        table = sc.topology._hops[frozenset({"e1"})]
        assert table and all(type(hops) is tuple for hops in table.values())

    def test_threads_filling_a_fresh_table_match_serial_runs(self):
        def run(sc, k):
            metrics, _, timeline, _ = sc.run_detailed(k, 5)
            return metrics, timeline.entries

        sc = scenario_from_dict(lateral_scenario())
        assert sc.topology._hops == {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                threaded = list(pool.map(lambda k: run(sc, k), range(12)))
        finally:
            sys.setswitchinterval(interval)
        assert sc.topology._hops
        fresh = scenario_from_dict(lateral_scenario())
        serial = [run(fresh, k) for k in range(12)]
        assert threaded == serial
        moves = [sum(e.kind == "lateral_move" for e in entries) for _, entries in serial]
        assert min(moves) >= 1 and sum(moves) > 24
