import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from miakit import infrastructure as infrastructure_mod
from miakit import kernel as kernel_mod
from miakit import mission as mission_mod
from miakit import scenario as scenario_mod
from miakit import threat as threat_mod
from miakit.fields import ValidationError
from miakit.infrastructure import AssetState, build_graph, effective_performance_all, set_state
from miakit.kernel import Distribution, Simulator, StreamFactory
from miakit.mission import (
    CyclicPrecedence,
    MissionIndex,
    MissionRuntime,
    MissionSpec,
    TaskSpec,
    UnknownAssetBinding,
    UnknownRole,
    WorkItem,
    apply_checkpoint,
    compute_utilization,
    validate_mission,
)
from miakit.scenario import bundled_path, load_scenario
from tests.test_golden import SEED, _result_text, _workweek
from tests.test_infrastructure import STATES, graph_documents


def task(tid, duration, role="planner", requires=(), after=(), rework=60.0):
    return TaskSpec(
        id=tid,
        duration=Distribution.fixed(duration) if isinstance(duration, (int, float)) else duration,
        role=role,
        required_assets=tuple(requires),
        predecessors=tuple(after),
        rework_duration=Distribution.fixed(rework),
    )


def spec(tasks, arrivals, horizon=10_000.0, personnel=None, **kw):
    return MissionSpec(
        tasks=tuple(tasks),
        arrivals=arrivals if isinstance(arrivals, Distribution) else Distribution.fixed(arrivals),
        personnel=personnel or {"planner": 1},
        day_length=kw.get("day_length", 86_400.0),
        horizon=horizon,
        checkpoints=tuple(kw.get("checkpoints", ())),
        deadline_per_item=kw.get("deadline_per_item"),
        arrival_cutoff=kw.get("arrival_cutoff"),
    )


def plain_graph(*asset_ids):
    return build_graph({"assets": [{"id": a, "kind": "application"} for a in asset_ids]})


def run(mission_spec, graph=None, seed=0):
    """Validate ``mission_spec`` and run it alone (no adversary) to its
    horizon, wired as ``Scenario.run_detailed`` wires a replication."""
    graph = graph or plain_graph("sys")
    mission_spec = validate_mission(mission_spec, graph)
    sim = Simulator()
    runtime = MissionRuntime(mission_spec, graph, sim, StreamFactory(seed)).install()
    sim.run_until(mission_spec.horizon)
    return runtime.finalize(), graph, sim


class TestValidate:
    def test_chain_order(self):
        s = spec([task("t2", 1, after=["t1"]), task("t1", 1)], 10)
        normalized = validate_mission(s)
        assert [t.id for t in normalized.tasks] == ["t1", "t2"]

    def test_cycle_detected(self):
        s = spec([task("t1", 1, after=["t2"]), task("t2", 1, after=["t1"])], 10)
        with pytest.raises(CyclicPrecedence):
            validate_mission(s)

    def test_unknown_role(self):
        s = spec([task("t1", 1, role="pilot")], 10)
        with pytest.raises(UnknownRole):
            validate_mission(s)

    def test_unknown_asset_binding(self):
        s = spec([task("t1", 1, requires=["ghost"])], 10)
        with pytest.raises(UnknownAssetBinding):
            validate_mission(s, plain_graph("sys"))

    def test_duplicate_task_id(self):
        with pytest.raises(ValueError):
            validate_mission(spec([task("t1", 1), task("t1", 2)], 10))

    def test_checkpoint_outside_day(self):
        s = spec([task("t1", 1)], 10, checkpoints=[90_000.0])
        with pytest.raises(ValueError):
            validate_mission(s)

    @pytest.mark.parametrize("arrivals,day_length,field,reason", [
        (10, 0.0, "day_length", "must be positive"),
        (0, 0.0, "arrivals", "mean interval between arrivals must be positive"),
    ])
    def test_mission_rules_checked_before_the_bounds(self, arrivals, day_length, field, reason):
        s = spec([task("t1", 1)], arrivals, day_length=day_length)
        with pytest.raises(ValidationError) as err:
            validate_mission(s)
        assert (err.value.field, err.value.reason) == (field, reason)

    def test_random_dag_order_consistent_with_edges(self):
        rng = random.Random(321)
        for _ in range(30):
            n = 6
            tasks = []
            for i in range(n):
                preds = [f"t{j}" for j in range(i) if rng.random() < 0.4]
                tasks.append(task(f"t{i}", 1, after=preds))
            rng.shuffle(tasks)
            normalized = validate_mission(spec(tasks, 10))
            position = {t.id: k for k, t in enumerate(normalized.tasks)}
            for t in normalized.tasks:
                for p in t.predecessors:
                    assert position[p] < position[t.id]


class TestUtilization:
    def test_ratio_definition(self):
        s = spec([task("t1", 60)], Distribution.exponential(120))
        assert compute_utilization(s) == {"planner": 0.5}

    def test_doubling_headcount_halves(self):
        s1 = spec([task("t1", 60)], 120)
        s2 = spec([task("t1", 60)], 120, personnel={"planner": 2})
        assert compute_utilization(s1)["planner"] == 2 * compute_utilization(s2)["planner"]

    def test_matches_simulated_busy_fraction(self):
        # Statistical oracle: long-run busy fraction of the simulated pool.
        s = spec(
            [task("t1", Distribution.exponential(70)), task("t2", Distribution.uniform(10, 50))],
            Distribution.exponential(130),
            horizon=400_000.0,
        )
        analytic = compute_utilization(s)["planner"]
        assert analytic <= 0.8
        result, _, _ = run(s, seed=1)
        simulated = result.task_utilization["planner"]
        assert abs(simulated - analytic) / analytic < 0.05


class TestServiceDynamics:
    def test_all_clean_when_uncontested(self):
        s = spec([task("t1", 10)], 50, horizon=1000.0)
        result, _, _ = run(s)
        done = [i for i in result.items if i.outcome == "completed_clean"]
        assert len(done) == len([i for i in result.items if i.completed_at is not None])
        assert len(done) == 19  # arrivals at 50,100,...,950 each done in 10s
        assert result.blocked_time["t1"] == 0.0

    def test_mdone_queue_replay_oracle(self):
        # Deterministic arrivals every 50 s, fixed 60 s of work, one person:
        # c_k = max(a_k, c_{k-1}) + 60.
        s = spec([task("t1", 60)], 50, horizon=2000.0)
        result, _, _ = run(s)
        completion = {}
        prev = 0.0
        for k in range(1, 41):
            a_k = 50.0 * k
            prev = max(a_k, prev) + 60.0
            completion[k] = prev
        for item in result.items:
            if item.completed_at is not None:
                assert item.completed_at == pytest.approx(completion[item.id], abs=1e-9)
            else:
                assert completion[item.id] > 2000.0

    def test_unavailable_asset_blocks_entirely(self):
        g = plain_graph("sys")
        set_state(g, "sys", AssetState("unavailable"), 0.0)
        s = spec([task("t1", 10, requires=["sys"])], 50, horizon=1000.0)
        result, _, _ = run(s, graph=g)
        assert all(i.completed_at is None for i in result.items)
        assert result.blocked_time["t1"] == 1000.0

    def test_degradation_scales_rate(self):
        g = plain_graph("sys")
        set_state(g, "sys", AssetState("degraded", factor=0.5), 0.0)
        s = spec([task("t1", 30, requires=["sys"])], 200, horizon=1000.0)
        result, _, _ = run(s, graph=g)
        for item in result.items:
            if item.completed_at is not None:
                assert item.completed_at - item.created_at == pytest.approx(60.0)

    def test_outage_suspends_and_resumes_without_loss(self):
        g = plain_graph("sys")
        s = spec([task("t1", 100, requires=["sys"])], 1000, horizon=5000.0)
        sim = Simulator()
        runtime = MissionRuntime(s, g, sim, StreamFactory(0)).install()
        # Outage window [1030, 1250) interrupts the first item (started 1000).
        sim.schedule("attack", 1030.0, lambda: set_state(g, "sys", AssetState("unavailable"), 1030.0))
        sim.schedule("repair", 1250.0, lambda: set_state(g, "sys", AssetState("operational"), 1250.0))
        sim.run_until(5000.0)
        result = runtime.finalize()
        first = result.items[0]
        # 30 s done before the outage, 70 s after it: completes at 1320.
        assert first.completed_at == pytest.approx(1320.0, abs=1e-9)
        assert result.blocked_time["t1"] == pytest.approx(220.0)

    def test_work_conservation_under_interruptions(self):
        g = plain_graph("sys")
        s = spec(
            [task("t1", Distribution.uniform(40, 80), requires=["sys"])],
            Distribution.exponential(90),
            horizon=4000.0,
        )
        sim = Simulator()
        runtime = MissionRuntime(s, g, sim, StreamFactory(3)).install()
        states = [
            (500.0, AssetState("degraded", factor=0.25)),
            (900.0, AssetState("operational")),
            (1500.0, AssetState("unavailable")),
            (2100.0, AssetState("degraded", factor=0.6)),
            (2800.0, AssetState("operational")),
        ]
        for at, st_ in states:
            sim.schedule("state", at, lambda s_=st_, t=at: set_state(g, "sys", s_, t))
        sim.run_until(4000.0)
        result = runtime.finalize()
        for item in result.items:
            if item.completed_at is not None:
                w = item.work["t1"]
                assert abs(w.processed - (w.sampled + w.rework)) < 1e-9

    def test_deadline_abandons_item(self):
        s = spec([task("t1", 100)], 10, horizon=500.0, deadline_per_item=150.0)
        result, _, _ = run(s)
        outcomes = {i.outcome for i in result.items}
        assert "abandoned" in outcomes
        for i in result.items:
            if i.outcome == "completed_clean":
                assert i.completed_at - i.created_at <= 150.0

    def test_baseline_rerun_is_identical(self):
        s = spec([task("t1", Distribution.exponential(40))], Distribution.exponential(60), horizon=3000.0)
        r1, _, _ = run(s, seed=11)
        r2, _, _ = run(s, seed=11)
        assert [(i.id, i.completed_at, i.outcome) for i in r1.items] == [
            (i.id, i.completed_at, i.outcome) for i in r2.items
        ]


class TestTaintAndCheckpoints:
    def _integrity_window(self, start, end, checkpoints, horizon=4000.0, seed=0, day=86_400.0):
        g = plain_graph("sys")
        s = spec(
            [task("t1", 30, requires=["sys"])],
            100,
            horizon=horizon,
            checkpoints=checkpoints,
            day_length=day,
        )
        sim = Simulator()
        runtime = MissionRuntime(s, g, sim, StreamFactory(seed)).install()
        sim.schedule("taint", start, lambda: set_state(g, "sys", AssetState("integrity_compromised"), start))
        sim.schedule("clean", end, lambda: set_state(g, "sys", AssetState("operational"), end))
        sim.run_until(horizon)
        return runtime.finalize()

    def test_apply_checkpoint_pure_op(self):
        items = [WorkItem(1, 0.0, ("t1",), [1.0])]
        assert apply_checkpoint(items) == [] and not items[0].tainted
        items[0].tainted = True
        assert apply_checkpoint(items) == items and not items[0].tainted

    def test_taint_detected_at_checkpoint(self):
        # Compromise [500, 800), checkpoint at 2000 inside the same day.
        result = self._integrity_window(500.0, 800.0, checkpoints=[2000.0], day=4000.0)
        finished = [i for i in result.items if i.completed_at is not None]
        assert finished
        assert all(i.outcome == "completed_clean" for i in finished)
        reworked = [i for i in finished if i.work["t1"].rework > 0]
        assert reworked  # taint was found and cost rework effort

    def test_taint_after_last_checkpoint_escapes(self):
        result = self._integrity_window(2500.0, 3900.0, checkpoints=[2000.0], day=4000.0)
        corrupted = [i for i in result.items if i.outcome == "completed_corrupted"]
        assert corrupted
        for i in corrupted:
            assert "sys" in i.taint_sources

    def test_taint_soundness(self):
        # Corrupted outcomes only ever come from items processed during the
        # compromise window with no later checkpoint look.
        result = self._integrity_window(1000.0, 1500.0, checkpoints=[], day=4000.0)
        for i in result.items:
            if i.outcome == "completed_corrupted":
                assert i.taint_sources == {"sys"}
            if i.completed_at is not None and i.completed_at < 1000.0:
                assert i.outcome == "completed_clean"


class TestCommonRandomNumbers:
    def test_longer_outage_never_completes_more(self):
        # Same seed, outage of growing length on the only required asset.
        def completions(outage_s, seed):
            g = plain_graph("sys")
            s = spec(
                [task("t1", Distribution.uniform(30, 90), requires=["sys"])],
                Distribution.exponential(70),
                horizon=6000.0,
            )
            sim = Simulator()
            runtime = MissionRuntime(s, g, sim, StreamFactory(seed)).install()
            if outage_s > 0:
                sim.schedule("down", 1000.0, lambda: set_state(g, "sys", AssetState("unavailable"), 1000.0))
                end = 1000.0 + outage_s
                sim.schedule("up", end, lambda: set_state(g, "sys", AssetState("operational"), end))
            sim.run_until(6000.0)
            return sum(1 for i in runtime.finalize().items if i.completed_at is not None)

        for seed in range(8):
            counts = [completions(d, seed) for d in (0, 500, 1000, 2000, 3500)]
            assert counts == sorted(counts, reverse=True)


class TestMissionIndex:
    def test_roles_and_tasks_numbered_in_spec_order(self):
        s = validate_mission(spec(
            [task("c", 1, role="b", after=["a"]), task("a", 1, role="a"),
             task("d", 1, role="a", requires=["x", "x", "y"], after=["c"])],
            10,
            personnel={"a": 1, "b": 2},
        ))
        ix = s.index
        assert ix.task_ids == ("a", "c", "d")
        assert ix.roles == ("a", "b") and ix.headcount == (1, 2)
        assert ix.task_role == (0, 1, 0)
        assert ix.role_tasks == ((0, 2), (1,))
        assert ix.tasks_needing == {"x": (2,), "y": (2,)}

    def test_built_once_per_scenario(self, monkeypatch):
        from miakit.scenario import bundled_path, load_scenario

        built = []
        real_init = MissionIndex.__init__

        def counting(self, spec_):
            built.append(spec_)
            real_init(self, spec_)

        monkeypatch.setattr(MissionIndex, "__init__", counting)
        sc = load_scenario(bundled_path("checkpoint.yaml"))
        for k in range(3):
            sc.run_replication(k, sc.base_seed)
            sc.without_attack().run_replication(k, sc.base_seed)
        assert len(built) == 1


    @settings(max_examples=60, deadline=None)
    @given(
        kinds=st.lists(
            st.sampled_from(["fixed", "uniform", "exponential", "triangular", "low", "high"]),
            min_size=1, max_size=6,
        ),
        seed=st.integers(0, 2**32),
        replication=st.integers(0, 40),
    )
    def test_batched_durations_equal_one_sample_at_a_time(self, kinds, seed, replication):
        """Each item's durations, drawn in a few batched calls and turned
        into values column by column, are the values ``sample`` draws one
        at a time from the item's stream, bit for bit."""
        dists = {
            "fixed": Distribution.fixed(42.5),
            "uniform": Distribution.uniform(375.3, 645.1),
            "exponential": Distribution.exponential(165.7),
            "triangular": Distribution.triangular(90.1, 120.7, 150.2),
            "low": Distribution.triangular(450.0, 450.0, 750.0),
            "high": Distribution.triangular(30.0, 60.0, 60.0),
        }
        tasks = [task(f"t{i}", dists[kind], after=[f"t{i - 1}"] if i else [])
                 for i, kind in enumerate(kinds)]
        s = validate_mission(spec(tasks, Distribution.exponential(60), horizon=3_000.0))
        streams = StreamFactory(seed, replication)
        drawn = MissionIndex(s).draws(streams)
        assert drawn.durations
        for item_id, durations in enumerate(drawn.durations, start=1):
            stream = streams.item_stream(item_id)
            want = tuple(kernel_mod.sample(d, stream) for d in s.index.durations)
            assert [float.hex(v) for v in durations] == [float.hex(v) for v in want]
            assert all(type(v) is float for v in durations)


class TestTracedEntryPoints:
    """The benchmark's tracer counts calls of ``StreamFactory.item_stream``,
    ``Simulator.schedule`` and ``kernel.sample`` by replacing them from
    outside; the runtime must keep going through those names."""

    def test_no_item_stream_without_a_drawn_rework_and_one_schedule_per_event(self, monkeypatch):
        counts = {"item_stream": 0, "schedule": 0, "sample": 0, "left": 0}
        real = {
            "item_stream": StreamFactory.item_stream,
            "schedule": Simulator.schedule,
            "discard": Simulator.discard_pending,
            "sample": kernel_mod.sample,
        }

        def item_stream(self, item_id):
            counts["item_stream"] += 1
            return real["item_stream"](self, item_id)

        def schedule(self, *args, **kwargs):
            counts["schedule"] += 1
            return real["schedule"](self, *args, **kwargs)

        def discard_pending(self):
            counts["left"] += self.pending()
            real["discard"](self)

        def sample(dist, stream):
            counts["sample"] += 1
            return real["sample"](dist, stream)

        monkeypatch.setattr(StreamFactory, "item_stream", item_stream)
        monkeypatch.setattr(Simulator, "schedule", schedule)
        monkeypatch.setattr(Simulator, "discard_pending", discard_pending)
        monkeypatch.setattr(mission_mod, "sample", sample)
        # The attack starts before the noon checkpoint, which reworks items.
        doc = scenario_mod.read_yaml(bundled_path("checkpoint.yaml"))
        doc["attacker"]["start"] = {"fixed": "8h"}
        sc = scenario_mod.scenario_from_dict(doc)
        _, result, _, trace = sc.run_detailed(0, sc.base_seed, record_trace=True)

        assert result.items
        # Durations are drawn in batches, without item streams; this
        # scenario's rework is fixed, so no item builds one.
        assert counts["item_stream"] == 0
        assert counts["schedule"] == len(trace) + counts["left"]
        # Each arrival gap (and the one past the horizon) and each rework
        # is drawn through the module's ``sample``, and nothing else.
        reworks = sum(n for _, kind, n in result.checkpoint_log if kind == "checkpoint")
        assert reworks
        assert counts["sample"] == len(result.items) + 1 + reworks


class TestItemsAreTheResult:
    """The runtime's work items are the records the run reports: nothing is
    copied at ``finalize``, and ``work``/``current_task`` are views."""

    def _run(self):
        tasks = [
            task("t1", Distribution.exponential(50)),
            task("t2", Distribution.exponential(50), after=["t1"]),
        ]
        s = validate_mission(spec(tasks, Distribution.exponential(60), horizon=3000.0))
        sim = Simulator()
        runtime = MissionRuntime(s, plain_graph("sys"), sim, StreamFactory(5)).install()
        sim.run_until(s.horizon)
        live = list(runtime.items.values())
        return runtime.finalize(), live

    def test_finalize_returns_the_runtime_items_themselves(self):
        result, live = self._run()
        assert len(result.items) == len(live) > 0
        assert all(got is item for got, item in zip(result.items, live))

    def test_replication_builds_no_task_work(self, monkeypatch):
        from miakit.scenario import bundled_path, load_scenario

        built = []

        class CountingTaskWork(mission_mod.TaskWork):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(mission_mod, "TaskWork", CountingTaskWork)
        sc = load_scenario(bundled_path("checkpoint.yaml"))
        _, result, _, _ = sc.run_detailed(0, sc.base_seed)
        assert result.items and built == []
        assert len(result.items[0].work) == len(built) == len(sc.mission.tasks)

    def test_views_match_the_per_task_lists(self):
        result, _ = self._run()
        ids = ("t1", "t2")
        current = {item.current_task for item in result.items}
        assert "done" in current and current - {"done"}
        for item in result.items:
            assert item.current_task == (ids[item.task] if item.task < 2 else "done")
            assert item.work == {
                tid: mission_mod.TaskWork(
                    item.sampled[k], item.rework[k], item.processed[k], item.remaining[k]
                )
                for k, tid in enumerate(ids)
            }
            assert list(item.work) == list(ids)


# Assets the taint-count test sets, and the states it sets them to: a
# degraded or unavailable asset changes the task's rate, and an unavailable
# one blocks it, so its queue starts as soon as the asset comes back.
TAINT_ASSETS = ("a", "b", "c")
TAINT_STATES = (
    AssetState("operational"),
    AssetState("integrity_compromised"),
    AssetState("degraded", 0.5),
    AssetState("unavailable"),
)
COMPROMISE = ("set", "a", 1)
RECOVER = ("set", "a", 0)
_set_op = st.tuples(
    st.just("set"), st.sampled_from(TAINT_ASSETS), st.integers(0, len(TAINT_STATES) - 1)
)
_start_op = st.tuples(st.just("start"), st.integers(0, 3))


class TestTaintCounts:
    """A start walks its task's assets for taint only while the task's count
    of integrity-compromised required assets is non-zero.  The counts must
    follow every state change, including one made before ``install``, so
    that each start is tainted exactly as a full walk of its assets says."""

    # Task t2 names ``b`` twice; t3 needs nothing.
    REQUIRES = (("a",), ("a", "b"), ("b", "c", "b"), ())

    def _runtime(self, before):
        graph = plain_graph(*TAINT_ASSETS)
        for asset, state in before:
            set_state(graph, asset, TAINT_STATES[state], 0.0)
        tasks = [task(f"t{k}", 10, requires=req) for k, req in enumerate(self.REQUIRES)]
        s = validate_mission(spec(tasks, 1000.0, personnel={"planner": 100}), graph)
        runtime = MissionRuntime(s, graph, Simulator(), StreamFactory(0)).install()
        return runtime, graph

    @staticmethod
    def _compromised(graph, assets):
        return {a for a in assets if graph.states[a].mode == "integrity_compromised"}

    @settings(max_examples=150, deadline=None)
    @given(
        before=st.lists(st.tuples(st.sampled_from(TAINT_ASSETS), st.integers(0, 3)), max_size=3),
        ops=st.lists(st.one_of(_set_op, _start_op), max_size=25),
    )
    @example(before=[], ops=[COMPROMISE, COMPROMISE, ("start", 0), RECOVER, ("start", 1)])
    @example(before=[("a", 1)], ops=[("start", 1), RECOVER, ("start", 0), COMPROMISE])
    @example(
        before=[("b", 3)],
        ops=[("set", "b", 1), ("start", 2), ("set", "b", 3), ("start", 2), ("set", "b", 1)],
    )
    def test_starts_are_tainted_as_a_full_walk_says(self, before, ops):
        runtime, graph = self._runtime(before)
        required = runtime.index.required
        started = []

        def check_start(task_id, item_id, at):
            k = runtime.index.task_ids.index(task_id)
            item = runtime.items[item_id]
            walk = self._compromised(graph, required[k])
            assert item.tainted == bool(walk)
            assert item.taint_sources == walk
            started.append(item_id)

        runtime.on_task_start(check_start)
        for op in ops:
            if op[0] == "set":
                set_state(graph, op[1], TAINT_STATES[op[2]], 0.0)
            else:
                k = op[1]
                item_id = len(runtime.items) + 1
                item = WorkItem(item_id, 0.0, runtime.index.task_ids, [10.0] * 4)
                item.task = k
                runtime.items[item_id] = item
                runtime.queues[k].append(item)
                if runtime.factors[k] > 0:
                    runtime._dispatch_task(k)
                    assert started[-1] == item_id
            assert runtime.taint_counts == [
                len(self._compromised(graph, assets)) for assets in required
            ]
        # Every item queued on a task that is not blocked has started.
        waiting = sum(len(q) for k, q in enumerate(runtime.queues) if runtime.factors[k] > 0)
        assert waiting == 0
        assert len(started) == len(runtime.runs)


@st.composite
def bound_missions(draw):
    """A graph document (cycles, any-of groups), tasks bound to some of its
    assets, and a sequence of state changes."""
    doc = draw(graph_documents())
    ids = [a["id"] for a in doc["assets"]]
    requires = draw(st.lists(st.lists(st.sampled_from(ids), max_size=3), min_size=1, max_size=4))
    changes = draw(st.lists(st.tuples(st.sampled_from(ids), STATES), max_size=20))
    return doc, requires, changes


class TestPerformanceRead:
    """A task's factor is read from its own assets, not from a copy of the
    whole performance map, and must still equal the map's minimum over
    them after every state change."""

    @settings(max_examples=150, deadline=None)
    @given(bound_missions())
    def test_task_factors_follow_the_whole_map(self, case):
        doc, requires, changes = case
        graph = build_graph(doc)
        tasks = [task(f"t{k}", 10, requires=req) for k, req in enumerate(requires)]
        s = validate_mission(spec(tasks, 1000.0, personnel={"planner": 100}), graph)
        runtime = MissionRuntime(s, graph, Simulator(), StreamFactory(0)).install()
        required = {t.id: t.required_assets for t in s.tasks}

        def assert_factors():
            perf = effective_performance_all(graph)
            want = [min((perf[a] for a in required[tid]), default=1.0)
                    for tid in runtime.index.task_ids]
            assert runtime.factors == want

        assert_factors()
        for t, (asset, state) in enumerate(changes):
            set_state(graph, asset, state, float(t))
            assert_factors()

    def test_a_replication_never_copies_the_map(self, monkeypatch):
        copies, refreshes = [], []
        real_copy = effective_performance_all
        for module in (infrastructure_mod, mission_mod, scenario_mod, threat_mod):
            if hasattr(module, "effective_performance_all"):
                monkeypatch.setattr(module, "effective_performance_all",
                                    lambda graph: copies.append(graph) or real_copy(graph))
        real_refresh = MissionRuntime._refresh_factors
        monkeypatch.setattr(MissionRuntime, "_refresh_factors",
                            lambda self, initial=False: refreshes.append(initial)
                            or real_refresh(self, initial))
        scenario = load_scenario(bundled_path("timing.yaml"))
        for sc in (scenario, scenario.without_attack()):
            sc.run_replication(0, 7)
        assert False in refreshes  # the attack changed a state the mission reads
        assert copies == []


@st.composite
def deadline_documents(draw):
    """A small scenario where deadlines fire on checkpoints: times are whole
    minutes, so a fixed arrival plus the deadline often lands exactly on a
    checkpoint, and an integrity attack has checkpoints reopen finished
    items; a defender makes the workforce aware."""
    minutes = lambda lo, hi: 60 * draw(st.integers(lo, hi))  # noqa: E731
    durations = st.sampled_from(["fixed"] * 3 + ["uniform", "exponential"])

    def duration(kind):
        if kind == "fixed":
            return {"fixed": minutes(1, 20)}
        return {"uniform": [60, 900]} if kind == "uniform" else {"exponential": 300}

    tasks = []
    for i in range(draw(st.integers(1, 3))):
        tasks.append({
            "id": f"t{i}",
            "role": draw(st.sampled_from(["a", "b"])),
            "duration": duration(draw(durations)),
            "rework": duration(draw(durations)),
            "requires": ["sys"] if draw(st.booleans()) or i == 0 else [],
            "after": [f"t{i - 1}"] if i else [],
        })
    day = draw(st.sampled_from([4 * 3600, 86_400]))
    checkpoints = sorted(set(draw(st.lists(st.integers(1, day // 60 - 1), min_size=1, max_size=4))))
    gap = minutes(2, 15)
    arrivals = {"fixed": gap} if draw(st.booleans()) else {"exponential": 400}
    deadline = minutes(5, 180)
    if "fixed" in arrivals and draw(st.booleans()):
        # The deadline of the item that arrives n gaps before a checkpoint
        # falls on it.
        at = 60 * draw(st.sampled_from(checkpoints))
        deadline = at - gap * draw(st.integers(1, max(1, at // gap - 1)))
        assume(deadline > 0)
    defender = None
    if draw(st.booleans()):
        defender = {
            "detect_delay": {"fixed": minutes(0, 240)},
            "forensics_duration": {"fixed": minutes(10, 60)},
            "per_host_discovery_prob": draw(st.sampled_from([0.5, 1.0])),
        }
    return {
        "infrastructure": {
            "assets": [{"id": "ws-1", "kind": "end_user_node", "subnet": "office"},
                       {"id": "sys", "kind": "application", "subnet": "office"}],
            "edges": [],
            "vulnerabilities": [{"asset": "sys", "exploit": "exp-1"}],
        },
        "mission": {
            "day_length": day,
            "checkpoints": [60 * c for c in checkpoints],
            "arrivals": arrivals,
            "personnel": {"a": draw(st.integers(1, 2)), "b": draw(st.integers(1, 2))},
            "deadline_per_item": deadline,
            "tasks": tasks,
        },
        "attacker": {
            "target": "sys",
            "effect": "integrity",
            "start": {"fixed": minutes(0, 240)},
            "capabilities": ["exp-1"],
            "spearphish_success_prob": 1.0,
            "spearphish_interval": {"fixed": 60},
            "scan_interval": {"fixed": 60},
            "proficiency": 1.0,
            "agility": 1.0,
        },
        "defender": defender,
        "sim": {"base_seed": draw(st.integers(0, 1000)), "horizon": "10h"},
    }


def _reopened_at_its_due_time() -> dict:
    """One planner, a 60 s task, an item every 600 s, a 6,600 s deadline and
    one checkpoint at 7,800 s: item 2's deadline falls on the checkpoint.
    The attack taints every item from 120 s on, so the checkpoint reopens
    items 1-12; the deadline chain skipped item 2 at 7,200 s, when item 1's
    deadline found it finished."""
    return {
        "infrastructure": {
            "assets": [{"id": "ws-1", "kind": "end_user_node", "subnet": "office"},
                       {"id": "sys", "kind": "application", "subnet": "office"}],
            "edges": [],
            "vulnerabilities": [{"asset": "sys", "exploit": "exp-1"}],
        },
        "mission": {
            "checkpoints": [7800],
            "arrivals": {"fixed": 600},
            "personnel": {"planner": 1},
            "deadline_per_item": 6600,
            "tasks": [{"id": "draft", "role": "planner", "duration": {"fixed": 60},
                       "rework": {"fixed": 60}, "requires": ["sys"]}],
        },
        "attacker": {"target": "sys", "effect": "integrity", "start": {"fixed": 0},
                     "capabilities": ["exp-1"], "spearphish_success_prob": 1.0,
                     "spearphish_interval": {"fixed": 60}, "scan_interval": {"fixed": 60},
                     "proficiency": 1.0, "agility": 1.0},
        "defender": None,
        "sim": {"base_seed": 3, "horizon": "4h"},
    }


class TestLazyDeadlines:
    """An untraced run schedules a deadline only while it can still abandon
    its item; a traced run schedules every one.  Both give the same metrics
    and item records."""

    @staticmethod
    def _deadlines(monkeypatch) -> list:
        """(time, seq, traced) of every deadline scheduled from here on."""
        scheduled = []
        real = Simulator.schedule

        def schedule(self, tag, at, *args, **kwargs):
            seq = real(self, tag, at, *args, **kwargs)
            if tag == "deadline":
                scheduled.append((at, seq, self.record_trace))
            return seq

        monkeypatch.setattr(Simulator, "schedule", schedule)
        return scheduled

    @settings(max_examples=80, deadline=None)
    @given(doc=deadline_documents(), k=st.integers(0, 3))
    def test_traced_and_untraced_runs_agree(self, doc, k):
        attack = scenario_mod.scenario_from_dict(doc)
        for sc in (attack, attack.without_attack()):
            m_traced, traced, _, _ = sc.run_detailed(k, sc.base_seed, record_trace=True)
            m_lazy, lazy, _, _ = sc.run_detailed(k, sc.base_seed)
            assert m_lazy == m_traced
            assert _result_text(lazy) == _result_text(traced)

    def test_an_item_reopened_at_its_due_time_is_abandoned_then(self, monkeypatch):
        scheduled = self._deadlines(monkeypatch)
        sc = scenario_mod.scenario_from_dict(_reopened_at_its_due_time())
        m_traced, traced, _, trace = sc.run_detailed(0, sc.base_seed, record_trace=True)
        m_lazy, lazy, _, _ = sc.run_detailed(0, sc.base_seed)
        fired = [e for e in trace if e.tag == "deadline" and e.data == (2,)]
        assert [(e.time, e.seq) for e in fired] == [(7800.0, 8)]
        checkpoint = [e for e in trace if e.tag == "checkpoint"]
        assert [(e.time, e.seq) for e in checkpoint] == [(7800.0, 1)]
        # The untraced run arms item 2's deadline again when the checkpoint
        # reopens it, at the traced run's time and sequence id.
        assert (7800.0, 8, False) in scheduled
        for result in (traced, lazy):
            item = result.items[1]
            assert (item.id, item.outcome, item.rework, item.remaining) == (2, "abandoned", [60.0], [60.0])
        assert m_lazy == m_traced
        assert _result_text(lazy) == _result_text(traced)

    @staticmethod
    def _recheck_at_the_due_time(record_trace: bool, early: bool):
        """Item 1 arrives at 600 s, is done at 660 s and is due at 1,200 s.
        It is tainted at 700 s, and a checkpoint at 1,200 s reopens it; the
        checkpoint is scheduled before the item arrives (``early``), so it
        comes before the deadline, or at 700 s, after it."""
        s = validate_mission(spec([task("t1", 60)], 600, horizon=2_000.0, deadline_per_item=600.0))
        sim = Simulator(record_trace=record_trace)
        runtime = MissionRuntime(s, plain_graph("sys"), sim, StreamFactory(0)).install()

        def recheck():
            sim.schedule("recheck", 1_200.0, runtime._checkpoint, args=(1_200.0,))

        def taint():
            runtime.items[1].tainted = True
            if not early:
                recheck()

        if early:
            recheck()
        sim.schedule("taint", 700.0, taint)
        sim.run_until(s.horizon)
        return runtime.finalize(), sim.trace

    @pytest.mark.parametrize("early,outcome", [(True, "abandoned"), (False, "completed_clean")])
    def test_a_reopened_item_is_abandoned_only_if_its_deadline_comes_after(self, early, outcome):
        traced, trace = self._recheck_at_the_due_time(True, early)
        lazy, _ = self._recheck_at_the_due_time(False, early)
        at_due = [e.tag for e in trace if e.time == 1_200.0 and e.tag in ("deadline", "recheck")]
        assert at_due == (["recheck", "deadline"] if early else ["deadline", "recheck"])
        assert traced.items[0].outcome == lazy.items[0].outcome == outcome
        assert _result_text(lazy) == _result_text(traced)

    def test_untraced_runs_schedule_few_of_the_deadlines(self, monkeypatch):
        scheduled = self._deadlines(monkeypatch)
        sc = scenario_mod.scenario_from_dict(_workweek())
        _, traced, _, trace = sc.run_detailed(0, SEED, record_trace=True)
        _, lazy, _, _ = sc.run_detailed(0, SEED)
        fired = sum(e.tag == "deadline" for e in trace)
        assert fired == sum(traced_ for _, _, traced_ in scheduled) - sum(
            at > sc.horizon for at, _, traced_ in scheduled if traced_)
        lazy_count = sum(not traced_ for _, _, traced_ in scheduled)
        assert 0 < lazy_count < fired / 10
        assert _result_text(lazy) == _result_text(traced)
