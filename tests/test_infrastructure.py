import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from miakit.infrastructure import (
    ASSET_KINDS,
    EDGE_KINDS,
    MEMO_LIMIT,
    AssetState,
    DanglingReference,
    DuplicateId,
    InfrastructureGraph,
    SelfLoop,
    TimeRegression,
    UnknownAsset,
    UnknownTask,
    build_graph,
    build_topology,
    effective_performance,
    effective_performance_all,
    graph_doc,
    propagate_static_impact,
    reachable_dependents,
    set_state,
)
from miakit.kernel import run_replications
from miakit.scenario import bundled_path, load_scenario


def chain_graph():
    return build_graph(
        {
            "assets": [
                {"id": "a", "kind": "application"},
                {"id": "b", "kind": "service"},
                {"id": "c", "kind": "device"},
            ],
            "edges": [{"from": "a", "to": "b"}, {"from": "b", "to": "c"}],
        }
    )


def random_graph_spec(rng, n_nodes=12, p_edge=0.18):
    assets = [{"id": f"n{i}", "kind": "device"} for i in range(n_nodes)]
    edges = []
    for i in range(n_nodes):
        for j in range(n_nodes):
            if i != j and rng.random() < p_edge:
                edges.append({"from": f"n{i}", "to": f"n{j}"})
    return {"assets": assets, "edges": edges}


class TestBuild:
    def test_empty_spec(self):
        g = build_graph({})
        assert g.assets == {} and g.edges == []

    def test_chain(self):
        g = chain_graph()
        assert len(g.assets) == 3 and len(g.edges) == 2
        assert all(s.mode == "operational" for s in g.states.values())

    def test_dangling_reference(self):
        with pytest.raises(DanglingReference):
            build_graph({"assets": [{"id": "a", "kind": "device"}], "edges": [{"from": "a", "to": "zz"}]})

    def test_duplicate_id(self):
        with pytest.raises(DuplicateId):
            build_graph({"assets": [{"id": "a", "kind": "device"}, {"id": "a", "kind": "service"}]})

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            build_graph({"assets": [{"id": "a", "kind": "device"}], "edges": [{"from": "a", "to": "a"}]})


class TestReachability:
    def test_empty_set(self):
        assert reachable_dependents(chain_graph(), set()) == set()

    def test_isolated_node(self):
        g = build_graph({"assets": [{"id": "x", "kind": "device"}]})
        assert reachable_dependents(g, {"x"}) == {"x"}

    def test_unknown_asset(self):
        with pytest.raises(UnknownAsset):
            reachable_dependents(chain_graph(), {"zz"})

    @staticmethod
    def _fixpoint_oracle(spec, seeds):
        # Add any node with an edge into the current set, until nothing changes.
        result = set(seeds)
        changed = True
        while changed:
            changed = False
            for e in spec["edges"]:
                if e["to"] in result and e["from"] not in result:
                    result.add(e["from"])
                    changed = True
        return result

    def test_matches_fixpoint_oracle_on_random_graphs(self):
        rng = random.Random(2024)
        for _ in range(60):
            spec = random_graph_spec(rng)
            g = build_graph(spec)
            seeds = {f"n{rng.randrange(12)}" for _ in range(rng.randint(1, 3))}
            assert reachable_dependents(g, seeds) == self._fixpoint_oracle(spec, seeds)


class TestStaticImpact:
    def test_no_compromise_all_clear(self):
        g = chain_graph()
        report = propagate_static_impact(g, set(), {"t1": ["a"]})
        assert not report.status("t1").impacted
        assert report.impacted_tasks() == []

    def test_direct_requirement(self):
        g = chain_graph()
        report = propagate_static_impact(g, {"a"}, {"t1": ["a"]})
        s = report.status("t1")
        assert s.impacted and s.witness == ("a",)

    def test_diamond_witness_chain(self):
        g = build_graph(
            {
                "assets": [{"id": x, "kind": "device"} for x in "abcd"],
                "edges": [
                    {"from": "d", "to": "b"},
                    {"from": "d", "to": "c"},
                    {"from": "b", "to": "a"},
                    {"from": "c", "to": "a"},
                ],
            }
        )
        report = propagate_static_impact(g, {"a"}, {"t": ["d"]})
        s = report.status("t")
        assert s.impacted
        assert s.witness[0] == "d" and s.witness[-1] == "a"
        assert len(s.witness) == 3  # d -> (b or c) -> a

    def test_unknown_task_and_asset(self):
        g = chain_graph()
        report = propagate_static_impact(g, {"a"}, {"t": ["a"]})
        with pytest.raises(UnknownTask):
            report.status("nope")
        with pytest.raises(UnknownAsset):
            propagate_static_impact(g, {"zz"}, {})

    def test_matches_reachability_oracle(self):
        rng = random.Random(7)
        for _ in range(40):
            spec = random_graph_spec(rng)
            g = build_graph(spec)
            compromised = {f"n{rng.randrange(12)}" for _ in range(2)}
            bindings = {f"t{k}": [f"n{rng.randrange(12)}"] for k in range(4)}
            report = propagate_static_impact(g, compromised, bindings)
            reach = reachable_dependents(g, compromised)
            for task, required in bindings.items():
                assert report.status(task).impacted == any(a in reach for a in required)

    def test_monotone_in_compromised_set(self):
        rng = random.Random(99)
        for _ in range(30):
            spec = random_graph_spec(rng)
            g = build_graph(spec)
            bindings = {f"t{k}": [f"n{rng.randrange(12)}"] for k in range(5)}
            small = {f"n{rng.randrange(12)}"}
            large = small | {f"n{rng.randrange(12)}"}
            r_small = propagate_static_impact(g, small, bindings)
            r_large = propagate_static_impact(g, large, bindings)
            assert set(r_small.impacted_tasks()) <= set(r_large.impacted_tasks())

    def test_task_ids_that_are_one_key_are_refused(self):
        # 1 and "1" would both be the verdict of task "1", the later one's.
        with pytest.raises(DuplicateId) as err:
            propagate_static_impact(chain_graph(), {"c"}, {1: ["c"], "1": ["a"], "t": ["b"]})
        assert (err.value.field, err.value.reason) == (
            "mission_bindings", "task ids 1 and '1' are both '1'"
        )

    def test_pure_function(self):
        g = chain_graph()
        a = propagate_static_impact(g, {"c"}, {"t": ["a"]})
        b = propagate_static_impact(g, {"c"}, {"t": ["a"]})
        assert a.tasks == b.tasks


class TestEffectivePerformance:
    def test_all_operational(self):
        g = chain_graph()
        assert effective_performance(g, "a") == 1.0

    def test_own_degradation(self):
        g = chain_graph()
        set_state(g, "a", AssetState("degraded", factor=0.5), 1.0)
        assert effective_performance(g, "a") == 0.5

    def test_chain_composes_multiplicatively(self):
        g = chain_graph()
        set_state(g, "b", AssetState("degraded", factor=0.5), 1.0)
        set_state(g, "c", AssetState("degraded", factor=0.5), 1.0)
        assert abs(effective_performance(g, "a") - 0.25) < 1e-12

    def test_unavailable_zeroes_dependents(self):
        g = chain_graph()
        set_state(g, "c", AssetState("unavailable"), 1.0)
        assert effective_performance(g, "a") == 0.0

    def test_confidentiality_and_integrity_do_not_slow(self):
        g = chain_graph()
        set_state(g, "b", AssetState("integrity_compromised"), 1.0)
        set_state(g, "c", AssetState("confidentiality_compromised"), 1.0)
        assert effective_performance(g, "a") == 1.0

    def test_any_of_group_takes_best_alternative(self):
        g = build_graph(
            {
                "assets": [
                    {"id": "app", "kind": "application"},
                    {"id": "link1", "kind": "external_link"},
                    {"id": "link2", "kind": "external_link"},
                ],
                "edges": [
                    {"from": "app", "to": "link1", "group": "uplinks"},
                    {"from": "app", "to": "link2", "group": "uplinks"},
                ],
            }
        )
        set_state(g, "link1", AssetState("unavailable"), 1.0)
        assert effective_performance(g, "app") == 1.0
        set_state(g, "link2", AssetState("degraded", factor=0.4), 2.0)
        assert effective_performance(g, "app") == 0.4

    def test_cycle_members_take_min_of_states(self):
        g = build_graph(
            {
                "assets": [{"id": "a", "kind": "device"}, {"id": "b", "kind": "device"}],
                "edges": [{"from": "a", "to": "b"}, {"from": "b", "to": "a"}],
            }
        )
        set_state(g, "b", AssetState("degraded", factor=0.5), 1.0)
        assert effective_performance(g, "a") == 0.5
        assert effective_performance(g, "b") == 0.5

    def test_cycle_with_external_dependency(self):
        g = build_graph(
            {
                "assets": [
                    {"id": "a", "kind": "device"},
                    {"id": "b", "kind": "device"},
                    {"id": "ext", "kind": "service"},
                ],
                "edges": [
                    {"from": "a", "to": "b"},
                    {"from": "b", "to": "a"},
                    {"from": "a", "to": "ext"},
                ],
            }
        )
        set_state(g, "ext", AssetState("degraded", factor=0.5), 1.0)
        set_state(g, "b", AssetState("degraded", factor=0.8), 1.0)
        assert abs(effective_performance(g, "a") - 0.4) < 1e-12

    @staticmethod
    def _iteration_oracle(g, tol=1e-12):
        # Repeated application of value(a) = own(a) * min(dep values); on an
        # acyclic graph this converges to the unique fixpoint.
        value = {a: 1.0 for a in g.assets}
        while True:
            delta = 0.0
            for a in g.assets:
                own = g.states[a].own_factor()
                deps = [value[e.to_id] for e in g.dependencies_of(a)]
                new = own * (min(deps) if deps else 1.0)
                delta = max(delta, abs(new - value[a]))
                value[a] = new
            if delta < tol:
                return value

    def test_matches_iteration_oracle_on_random_dags(self):
        rng = random.Random(555)
        for _ in range(30):
            n = 10
            assets = [{"id": f"n{i}", "kind": "device"} for i in range(n)]
            edges = [
                {"from": f"n{i}", "to": f"n{j}"}
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.25
            ]
            g = build_graph({"assets": assets, "edges": edges})
            for i in range(n):
                r = rng.random()
                if r < 0.2:
                    set_state(g, f"n{i}", AssetState("degraded", factor=rng.uniform(0.1, 0.9)), 1.0)
                elif r < 0.3:
                    set_state(g, f"n{i}", AssetState("unavailable"), 1.0)
            expected = self._iteration_oracle(g)
            actual = effective_performance_all(g)
            for a in g.assets:
                assert abs(actual[a] - expected[a]) < 1e-12

    def test_bounds_on_random_cyclic_graphs(self):
        rng = random.Random(31)
        for _ in range(20):
            spec = random_graph_spec(rng, n_nodes=8, p_edge=0.3)
            g = build_graph(spec)
            for i in range(8):
                if rng.random() < 0.3:
                    set_state(g, f"n{i}", AssetState("degraded", factor=rng.uniform(0.1, 0.9)), 0.0)
            for v in effective_performance_all(g).values():
                assert 0.0 <= v <= 1.0


class TestSetState:
    def test_records_history(self):
        g = chain_graph()
        set_state(g, "a", AssetState("unavailable"), 10.0)
        assert len(g.history) == 1
        change = g.history[0]
        assert change.old.mode == "operational" and change.new.mode == "unavailable"
        assert change.new.since == 10.0

    def test_time_regression(self):
        g = chain_graph()
        set_state(g, "a", AssetState("unavailable"), 10.0)
        with pytest.raises(TimeRegression):
            set_state(g, "a", AssetState("operational"), 9.0)

    def test_unknown_asset(self):
        with pytest.raises(UnknownAsset):
            set_state(chain_graph(), "zz", AssetState("unavailable"), 0.0)

    def test_history_timestamps_nondecreasing_per_asset(self):
        rng = random.Random(8)
        g = chain_graph()
        clock = {a: 0.0 for a in g.assets}
        for _ in range(100):
            asset = rng.choice(list(g.assets))
            clock[asset] += rng.uniform(0, 5)
            mode = rng.choice(["operational", "unavailable", "integrity_compromised"])
            set_state(g, asset, AssetState(mode), clock[asset])
        seen = {}
        for change in g.history:
            assert change.at >= seen.get(change.asset_id, 0.0)
            seen[change.asset_id] = change.at

    def test_listeners_notified(self):
        g = chain_graph()
        seen = []
        g.subscribe(lambda ch: seen.append((ch.asset_id, ch.new.mode)))
        set_state(g, "b", AssetState("unavailable"), 3.0)
        assert seen == [("b", "unavailable")]

    def test_degraded_factor_bounds(self):
        with pytest.raises(ValueError):
            AssetState("degraded", factor=0.0)
        with pytest.raises(ValueError):
            AssetState("degraded", factor=1.0)
        with pytest.raises(ValueError):
            AssetState("operational", factor=0.5)


# ---------------------------------------------------------------------------
# Incremental performance maintenance on a shared topology

STATES = st.one_of(
    st.sampled_from(
        [AssetState(m) for m in ("operational", "unavailable", "integrity_compromised",
                                 "confidentiality_compromised")]
    ),
    st.floats(0.05, 0.95).map(lambda f: AssetState("degraded", factor=f)),
)


@st.composite
def graph_and_changes(draw):
    """A small graph with cycles and any-of groups, plus a sequence of
    (asset, state, read_after) changes."""
    n = draw(st.integers(1, 9))
    ids = [f"n{i}" for i in range(n)]
    pairs = [(a, b) for a in ids for b in ids if a != b]
    edges = draw(st.lists(st.tuples(st.sampled_from(pairs), st.sampled_from([None, "g1", "g2"])),
                          max_size=20)) if pairs else []
    spec = {
        "assets": [{"id": a, "kind": "device"} for a in ids],
        "edges": [{"from": a, "to": b, "group": g} for (a, b), g in edges],
    }
    changes = draw(st.lists(st.tuples(st.sampled_from(ids), STATES, st.booleans()),
                            min_size=1, max_size=25))
    return spec, changes


def from_scratch_performance(graph):
    """Every asset's factor computed anew from the states: components by
    mutual reachability, each evaluated after the components it depends on."""
    reach = {}
    for a in graph.assets:
        seen, stack = {a}, [a]
        while stack:
            for e in graph.dependencies_of(stack.pop()):
                if e.to_id not in seen:
                    seen.add(e.to_id)
                    stack.append(e.to_id)
        reach[a] = seen
    comp = {a: frozenset(b for b in reach[a] if a in reach[b]) for a in graph.assets}
    memo = {}

    def value(c):
        if c not in memo:
            contributions = []
            for a in c:
                grouped = {}
                for e in graph.dependencies_of(a):
                    if e.to_id in c:
                        continue
                    v = value(comp[e.to_id])
                    if e.group is None:
                        contributions.append(v)
                    else:
                        grouped.setdefault(e.group, []).append(v)
                contributions += [max(vs) for vs in grouped.values()]
            own = min(graph.states[a].own_factor() for a in c)
            memo[c] = own * (min(contributions) if contributions else 1.0)
        return memo[c]

    return {a: value(comp[a]) for a in graph.assets}


class TestIncrementalPerformance:
    @settings(max_examples=150, deadline=None)
    @given(graph_and_changes())
    def test_equals_from_scratch_after_every_change(self, case):
        spec, changes = case
        g = build_graph(spec)
        assert effective_performance_all(g) == from_scratch_performance(g)
        for t, (asset, state, _) in enumerate(changes):
            set_state(g, asset, state, float(t))
            assert effective_performance_all(g) == from_scratch_performance(g)

    @settings(max_examples=150, deadline=None)
    @given(graph_and_changes())
    def test_batched_changes_between_reads(self, case):
        spec, changes = case
        g = build_graph(spec)
        for t, (asset, state, read) in enumerate(changes):
            set_state(g, asset, state, float(t))
            if read:
                assert effective_performance_all(g) == from_scratch_performance(g)
        assert effective_performance_all(g) == from_scratch_performance(g)

    @settings(max_examples=50, deadline=None)
    @given(graph_and_changes())
    def test_overlays_on_one_topology_are_independent(self, case):
        spec, changes = case
        first = build_graph(spec)
        second = type(first)(first.topology)
        for t, (asset, state, _) in enumerate(changes):
            set_state(first, asset, state, float(t))
        effective_performance_all(first)
        assert all(s.mode == "operational" for s in second.states.values())
        assert second.history == []
        assert set(effective_performance_all(second).values()) <= {1.0}


@st.composite
def graph_documents(draw):
    """A graph of :func:`graph_and_changes` (cycles, any-of groups) with asset
    kinds, names, subnets, edge kinds and vulnerabilities drawn on top."""
    spec, _ = draw(graph_and_changes())
    ids = [a["id"] for a in spec["assets"]]
    for asset in spec["assets"]:
        asset["kind"] = draw(st.sampled_from(sorted(ASSET_KINDS)))
        asset["subnet"] = draw(st.sampled_from([None, "s1", "s2", 3]))
        if draw(st.booleans()):
            asset["name"] = draw(st.text(max_size=4))
    for edge in spec["edges"]:
        edge["kind"] = draw(st.sampled_from(sorted(EDGE_KINDS)))
    vulns = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(["e1", "e2"])),
                          max_size=8))
    spec["vulnerabilities"] = [{"asset": a, "exploit": e} for a, e in vulns]
    return spec


class TestGraphDocument:
    @settings(max_examples=150, deadline=None)
    @given(graph_documents())
    def test_built_again_from_its_yaml_it_is_the_same_topology(self, spec):
        topology = build_topology(spec)
        again = build_topology(yaml.safe_load(yaml.safe_dump(graph_doc(topology))))
        assert list(again.assets.values()) == list(topology.assets.values())
        assert again.edges == topology.edges
        assert again.vulnerabilities == topology.vulnerabilities


# ---------------------------------------------------------------------------
# Static impact against the task loop it replaced


def reference_static_impact(graph, compromised, mission_bindings):
    """The earlier body of ``propagate_static_impact``: every task's assets
    validated, then sorted, and the witness built from the first reached;
    then task ids that are one key under ``str()`` refused.  Returns
    (compromised, {task key: (task_id, impacted, witness)})."""
    seeds = sorted(set(compromised))
    for a in seeds:
        graph.require(a)

    parent = {s: None for s in seeds}
    frontier = list(seeds)
    while frontier:
        nxt = []
        for node in frontier:
            for edge in graph._in[node]:
                if edge.from_id not in parent:
                    parent[edge.from_id] = node
                    nxt.append(edge.from_id)
        frontier = nxt

    tasks = {}
    for task_id in mission_bindings:
        required = list(mission_bindings[task_id])
        for a in required:
            graph.require(a)
        witness = ()
        impacted = False
        for a in sorted(required):
            if a in parent:
                impacted = True
                chain = [a]
                while parent[chain[-1]] is not None:
                    chain.append(parent[chain[-1]])
                witness = tuple(chain)
                break
        tasks[str(task_id)] = (str(task_id), impacted, witness)
    ids = list(mission_bindings)
    for k, task_id in enumerate(ids):
        for earlier in ids[:k]:
            if str(earlier) == str(task_id):
                why = f"task ids {earlier!r} and {task_id!r} are both {str(task_id)!r}"
                raise DuplicateId("mission_bindings", why)
    return tuple(seeds), tasks


# Task ids: 1 and "1" (and 2 and "2") are one key once made strings, so a
# query draws ids distinct under str() and an example keeps one collision.
TASK_IDS = st.sampled_from(["plan", "ship", "1", 1, "2", 2])
UNKNOWN_ASSETS = st.sampled_from(["nosuch", "n99", 7])


@st.composite
def impact_queries(draw):
    """A graph document, a compromised set (possibly empty), and 0-8 task
    bindings, each 0-4 assets drawn with repeats, held in a list, a tuple or
    a generator; optionally one unknown asset at a random place among them."""
    spec = draw(graph_documents())
    ids = [a["id"] for a in spec["assets"]]
    # Compromise what others rely on and bind what relies on others more
    # often than not, so that long witnesses and diamonds come up.
    relied_on = sorted({e["to"] for e in spec["edges"]}) or ids
    reliant = sorted({e["from"] for e in spec["edges"]}) or ids
    compromised = draw(st.lists(st.sampled_from(ids) | st.sampled_from(relied_on), max_size=3))
    required = st.lists(st.sampled_from(ids) | st.sampled_from(reliant), max_size=4)
    tasks = draw(st.lists(st.tuples(TASK_IDS, required, st.sampled_from([list, tuple, iter])),
                          max_size=8, unique_by=lambda task: str(task[0])))
    if tasks and draw(st.booleans()):
        k = draw(st.integers(0, len(tasks) - 1))
        task_id, required, shape = tasks[k]
        required = list(required)
        required.insert(draw(st.integers(0, len(required))), draw(UNKNOWN_ASSETS))
        tasks[k] = (task_id, required, shape)
    return spec, compromised, tasks


def bindings_of(tasks):
    """Fresh bindings for one call: a generator is read only once."""
    return {task_id: shape(required) for task_id, required, shape in tasks}


def outcome(query, *args):
    try:
        return query(*args)
    except (UnknownAsset, DuplicateId) as exc:
        return type(exc), str(exc)


# d reaches a through b and through c: the walk keeps the parent it finds first.
DIAMOND = {
    "assets": [{"id": x, "kind": "device"} for x in "abcd"],
    "edges": [{"from": "d", "to": "b"}, {"from": "d", "to": "c"},
              {"from": "b", "to": "a"}, {"from": "c", "to": "a"}],
}


class TestStaticImpactOracle:
    @settings(max_examples=300, deadline=None)
    @given(impact_queries())
    @example((DIAMOND, ["a"], [("t", ["d"], list), ("u", ["c", "b"], iter), (1, [], tuple)]))
    @example((DIAMOND, ["b"], [("t", ["a"], tuple), ("u", ["b", "nosuch"], list)]))
    @example((DIAMOND, ["a"], [(1, ["d"], list), ("t", [], tuple), ("1", ["b"], iter)]))
    def test_matches_the_earlier_task_loop(self, case):
        spec, compromised, tasks = case
        g = build_graph(spec)
        want = outcome(reference_static_impact, g, compromised, bindings_of(tasks))
        got = outcome(propagate_static_impact, g, compromised, bindings_of(tasks))
        if isinstance(want[0], type):
            assert got == want
            return
        want_compromised, want_tasks = want
        assert got.compromised == want_compromised
        assert list(got.tasks) == list(want_tasks)
        for key, (task_id, impacted, witness) in want_tasks.items():
            verdict = got.tasks[key]
            assert (verdict.task_id, verdict.impacted, verdict.witness) == (task_id, impacted, witness)

    def test_verdict_is_a_named_tuple_with_the_same_repr(self):
        report = propagate_static_impact(chain_graph(), {"c"}, {"t": ["a"], "u": []})
        assert report.status("t") == ("t", True, ("a", "b", "c"))
        assert repr(report.status("u")) == "TaskImpact(task_id='u', impacted=False, witness=())"


class TestScenarioOverlays:
    def test_graphs_share_topology_but_not_state(self):
        sc = load_scenario(bundled_path("timing.yaml"))
        a, b = sc.build_graph(), sc.build_graph()
        assert a.topology is b.topology is sc.without_attack().build_graph().topology
        # The attacker reads the end users on every run: the topology's own tuple.
        assert a.end_user_nodes() is b.end_user_nodes() is a.topology.end_users
        assert a.states is not b.states and a.history is not b.history
        set_state(a, "plansys", AssetState("unavailable"), 5.0)
        assert b.states["plansys"].mode == "operational" and b.history == []
        assert effective_performance(b, "plansys") == 1.0

    def test_replication_repeats_after_another_ran(self):
        sc = load_scenario(bundled_path("timing.yaml"))

        def run(k):
            m, result, timeline, _ = sc.run_detailed(k, sc.base_seed)
            return m, result.blocked_time, timeline.entries

        first = run(3)
        other = run(7)
        assert run(3) == first
        assert first[2] and any(e.kind == "effect_onset" for e in first[2])
        assert other != first

    def test_threads_sharing_one_topology_match_serial_runs(self):
        sc = load_scenario(bundled_path("timing.yaml"))
        serial = run_replications(sc, 12, 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                threaded = list(pool.map(lambda k: sc.run_replication(k, 5), range(12)))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


# ---------------------------------------------------------------------------
# Performance maps remembered per state on the topology

# Few states, so walks revisit them; equal own factors from different modes
# share a memo entry, different factors on one asset must not.
MEMO_STATES = st.sampled_from(
    [AssetState("operational"), AssetState("unavailable"), AssetState("integrity_compromised"),
     AssetState("degraded", factor=0.25), AssetState("degraded", factor=0.5)]
)


@st.composite
def graph_and_walks(draw):
    """A small graph, one change sequence that every overlay walks, and the
    order in which the overlays take their steps."""
    spec, _ = draw(graph_and_changes())
    ids = [a["id"] for a in spec["assets"]]
    # At most 12 states read, so the table never fills here.
    changes = draw(st.lists(st.tuples(st.sampled_from(ids), MEMO_STATES, st.booleans()),
                            min_size=1, max_size=12))
    n_overlays = draw(st.integers(2, 4))
    order = draw(st.permutations([k for k in range(n_overlays) for _ in changes]))
    return spec, changes, n_overlays, order


def memo_key(graph):
    """The state a performance map belongs to, read from the states alone."""
    return frozenset((a, s.own_factor()) for a, s in graph.states.items() if s.own_factor() != 1.0)


def assert_memo_exact(topology):
    """Every stored map equals a from-scratch evaluation of its own state."""
    assert len(topology._memo) <= MEMO_LIMIT
    for key, (values, perf) in topology._memo.items():
        probe = InfrastructureGraph(topology)
        for asset, factor in key:
            mode = "unavailable" if factor == 0.0 else "degraded"
            probe.states[asset] = AssetState(mode, factor if factor else None)
        assert perf == from_scratch_performance(probe)
        assert sorted(set(values)) == sorted(set(perf.values()))


class TestPerformanceMemo:
    @settings(max_examples=120, deadline=None)
    @given(graph_and_walks())
    def test_interleaved_overlays_match_from_scratch(self, case):
        spec, changes, n_overlays, order = case
        first = build_graph(spec)
        overlays = [first] + [InfrastructureGraph(first.topology) for _ in range(n_overlays - 1)]
        cursor = [0] * n_overlays
        hits = 0
        for k in order:
            g = overlays[k]
            asset, state, read = changes[cursor[k]]
            set_state(g, asset, state, float(cursor[k]))
            cursor[k] += 1
            if read or cursor[k] == len(changes):
                hits += memo_key(g) in first.topology._memo
                expected = from_scratch_performance(g)
                assert effective_performance(g, asset) == expected[asset]
                assert effective_performance_all(g) == expected
        # Every overlay ends in the state the first one to finish stored.
        assert hits >= n_overlays - 1
        assert_memo_exact(first.topology)

    @settings(max_examples=60, deadline=None)
    @given(graph_and_walks())
    def test_mutating_a_returned_map_changes_no_other(self, case):
        spec, changes, _, _ = case
        a = build_graph(spec)
        b = InfrastructureGraph(a.topology)
        for t, (asset, state, _) in enumerate(changes):
            for g in (a, b):
                set_state(g, asset, state, float(t))
            returned = effective_performance_all(a)
            for asset_id in returned:
                returned[asset_id] = -1.0
            assert effective_performance_all(b) == from_scratch_performance(b)
            assert effective_performance_all(a) == from_scratch_performance(a)
        fresh = InfrastructureGraph(a.topology)
        assert set(effective_performance_all(fresh).values()) <= {1.0}
        assert_memo_exact(a.topology)

    @settings(max_examples=60, deadline=None)
    @given(graph_and_walks())
    def test_stored_entries_unchanged_after_other_overlays_miss(self, case):
        spec, changes, n_overlays, _ = case
        first = build_graph(spec)
        stored = {}
        for k in range(n_overlays):
            g = first if k == 0 else InfrastructureGraph(first.topology)
            # Each overlay walks the changes from a different point, so it
            # misses on states the others have not seen.
            for t, (asset, state, _) in enumerate(changes[k:] + changes[:k]):
                set_state(g, asset, state, float(t))
                effective_performance_all(g)
                for key, (values, perf) in first.topology._memo.items():
                    if key in stored:
                        assert (list(values), dict(perf)) == stored[key]
                    else:
                        stored[key] = (list(values), dict(perf))
        assert_memo_exact(first.topology)

    @settings(max_examples=40, deadline=None)
    @given(graph_and_changes(),
           st.lists(st.floats(0.05, 0.95), min_size=MEMO_LIMIT + 1, max_size=MEMO_LIMIT + 8,
                    unique=True))
    def test_table_never_exceeds_limit_and_stays_exact_when_full(self, case, factors):
        spec, _ = case
        g = build_graph(spec)
        other = InfrastructureGraph(g.topology)
        asset = spec["assets"][0]["id"]
        # Every factor is a new state, then the walk goes back over them.
        for t, factor in enumerate(factors + factors[::-1]):
            for overlay in (g, other):
                set_state(overlay, asset, AssetState("degraded", factor=factor), float(t))
                assert effective_performance_all(overlay) == from_scratch_performance(overlay)
            assert len(g.topology._memo) <= MEMO_LIMIT
        assert len(g.topology._memo) == MEMO_LIMIT
        set_state(g, asset, AssetState("operational"), float(2 * len(factors)))
        assert effective_performance_all(g) == from_scratch_performance(g)
        assert_memo_exact(g.topology)

    def test_threads_filling_a_fresh_table_match_serial_runs(self):
        sc = load_scenario(bundled_path("timing.yaml"))
        assert len(sc.build_graph().topology._memo) == 1  # only the all-operational map
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                threaded = list(pool.map(lambda k: sc.run_replication(k, 5), range(12)))
        finally:
            sys.setswitchinterval(interval)
        assert len(sc.build_graph().topology._memo) > 1
        assert_memo_exact(sc.build_graph().topology)
        serial = run_replications(load_scenario(bundled_path("timing.yaml")), 12, 5)
        assert threaded == serial
