"""The measured process of one benchmark run.

``run.py`` generates the inputs, writes them to a work directory and starts
this script in a fresh interpreter, so that peak resident memory belongs to
the workload alone.  The script drives miakit through its public Python API
in a closed loop (one caller, the next operation starts when the previous
one returns), checks every output, and prints one JSON object on its last
line of standard output for ``run.py`` to report.

Usage: worker.py --src DIR --inputs DIR --workload NAME --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
from statistics import median
from time import perf_counter

import workloads
from hostspeed import BUFFER_BYTES, HostClock

# Share of the run spent on the workload's main operations; the rest goes to
# static propagation queries on the workload's graph.
MAIN_SHARE = 0.85
# Replications 0..DIGEST_REPS-1 of the attack and baseline runs are hashed,
# so the digests do not depend on how many replications a run completes.
DIGEST_REPS = 16
# Replications 0..REPLAY_REPS-1 are re-run with record_trace=True: their
# metrics must repeat exactly, and their event traces give the event and
# threat counts.
REPLAY_REPS = 4
PROBLEM_LIMIT = 20


class Outcome:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.problems) < PROBLEM_LIMIT:
            self.problems.append(reason)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that leaves at least
    ten samples beyond it: the eleventh-largest sample."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def figures(op_s: list[float], latency_s: list[float], units_per_op: float = 1.0) -> dict:
    """Throughput over ``op_s`` and the median and tail of ``latency_s``."""
    return {
        "throughput_per_s": units_per_op * len(op_s) / sum(op_s),
        "op_ms_p50": 1000.0 * median(latency_s),
        "op_ms_tail": 1000.0 * tail(latency_s)[0],
    }


def add_propagation(out: dict, run: dict, prop: dict) -> None:
    """Propagation queries per second, raw and at nominal host speed, and
    the median host-speed factors of both phases on the raw line."""
    out["e2e"]["propagate_queries_per_s"] = prop["queries"] / prop["scaled_busy_s"]
    out["raw"].update(propagate_queries_per_s=prop["queries"] / prop["busy_s"],
                      host_speed_main=run["speed"], host_speed_propagate=prop["speed"])


def peak_rss_mb() -> float:
    """Peak resident memory, less the host-speed reference's array, which
    stays resident for the whole run."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - BUFFER_BYTES) / 2**20


def measure(loop, seconds: float, trace: bool, size):
    """Run ``loop`` for ``seconds``.  Traced: run it untraced for a third of
    that, install the tracer, and run the same work again (``size`` gives
    the work done as ``loop``'s ``count``).  Returns (run, plain, tracer);
    ``plain`` and ``tracer`` are None when untraced."""
    if not trace:
        return loop(seconds=seconds), None, None
    plain = loop(seconds=seconds / 3)
    from tracer import Tracer

    tracer = Tracer().install()
    run = loop(count=size(plain))
    run["layer_self_s"] = tracer.layer_self_s()
    return run, plain, tracer


# ---------------------------------------------------------------------------
# Static propagation queries, shared by every workload


def witness_problem(graph, report, compromised, bindings, reached) -> str | None:
    """Check one static-impact report against its graph: a task is impacted
    exactly when a required asset depends on the compromised set, and each
    witness is a dependency chain from a required asset to a compromised one."""
    for task_id, required in bindings.items():
        impact = report.tasks[task_id]
        if impact.impacted != any(a in reached for a in required):
            return f"propagate {compromised}: task {task_id} impacted={impact.impacted}"
        if not impact.impacted:
            continue
        chain = impact.witness
        if not chain or chain[0] not in required or chain[-1] not in compromised:
            return f"propagate {compromised}: bad witness {chain} for {task_id}"
        for a, b in zip(chain, chain[1:]):
            if b not in {e.to_id for e in graph.dependencies_of(a)}:
                return f"propagate {compromised}: witness step {a}->{b} is no edge"
    return None


def run_propagation(miakit, graph, bindings, sets, seconds, outcome, clock) -> dict:
    """Answer static-impact queries over ``sets`` round-robin for ``seconds``;
    each set's first report is checked after the timed loop.  Call time is
    summed per stretch between host-speed samples, and each stretch is
    scaled by its local factor."""
    infra = miakit.infrastructure
    mark = len(clock.samples)
    first: list = []
    starts: list[float] = []
    busy: list[float] = []
    n = 0
    start = perf_counter()
    while perf_counter() - start < seconds:
        if clock.probe() or not starts:
            starts.append(perf_counter())
            busy.append(0.0)
        compromised = sets[n % len(sets)]
        n += 1
        outcome.attempted += 1
        t0 = perf_counter()
        try:
            report = infra.propagate_static_impact(graph, compromised, bindings)
        except Exception as exc:  # counted as a failed operation
            report = None
            outcome.fail(f"propagate {compromised}: {exc!r}")
        busy[-1] += perf_counter() - t0
        if len(first) < len(sets):
            first.append(report)
    reach = []
    for compromised, report in zip(sets, first):
        reached = infra.reachable_dependents(graph, compromised)
        reach.append(len(reached))
        problem = report and witness_problem(graph, report, set(compromised), bindings, reached)
        if problem:
            outcome.fail(problem)
    reached_total = sum(reach[i % len(reach)] for i in range(n)) if reach else 0
    scaled = sum(b / f for b, f in zip(busy, clock.local_factors(starts, mark)))
    return {"queries": n, "busy_s": sum(busy), "scaled_busy_s": scaled,
            "reached": reached_total, "speed": clock.factor(mark)}


# ---------------------------------------------------------------------------
# Simulation workloads: mission-week and enterprise-attack


def invariant_problem(m, horizon: float, n_tasks: int, baseline: bool) -> str | None:
    values = [getattr(m, f) for f in m.__dataclass_fields__]
    if not all(math.isfinite(v) for v in values):
        return f"non-finite metric in {m}"
    if m.plans_completed < 0 or m.plans_corrupted_undetected < 0:
        return f"negative count in {m}"
    if not 0.0 <= m.corrupted_fraction <= 1.0:
        return f"corrupted_fraction {m.corrupted_fraction} outside [0, 1]"
    if not 0.0 <= m.blocked_s <= horizon * n_tasks:
        return f"blocked_s {m.blocked_s} outside [0, horizon x tasks]"
    if min(m.mean_completion_delay_s, m.attack_duration_s, m.confidentiality_exposure_s) < 0:
        return f"negative duration in {m}"
    if baseline and (m.plans_corrupted_undetected or m.attack_duration_s or m.blocked_s):
        return f"attack-free baseline shows attack effects: {m}"
    return None


class SimRunner:
    def __init__(self, miakit, path: str, outcome: Outcome, clock: HostClock):
        self.miakit = miakit
        self.clock = clock
        self.attack = miakit.scenario.load_scenario(path)
        self.baseline = self.attack.without_attack()
        self.seed = self.attack.base_seed
        self.outcome = outcome

    def rep(self, k: int, baseline: bool):
        sc = self.baseline if baseline else self.attack
        self.outcome.attempted += 1
        t0 = perf_counter()
        try:
            m = sc.run_replication(k, self.seed)
        except Exception as exc:  # counted as a failed operation
            self.outcome.fail(f"replication {k} (baseline={baseline}): {exc!r}")
            return None, perf_counter() - t0
        dt = perf_counter() - t0
        problem = invariant_problem(m, sc.horizon, len(sc.mission.tasks), baseline)
        if problem:
            self.outcome.fail(f"replication {k} (baseline={baseline}): {problem}")
        return m, dt

    def loop(self, seconds: float | None = None, count: int | None = None) -> dict:
        """Attack then baseline replication k, for k = 0, 1, ... until
        ``seconds`` have passed or ``count`` indices are done."""
        rows = {False: [], True: []}
        times = {False: [], True: []}
        starts = {False: [], True: []}
        mark = len(self.clock.samples)
        start = perf_counter()
        k = 0
        while (perf_counter() - start < seconds) if count is None else (k < count):
            for baseline in (False, True):
                self.clock.probe()
                starts[baseline].append(perf_counter())
                m, dt = self.rep(k, baseline)
                rows[baseline].append(m)
                times[baseline].append(dt)
            k += 1
        scaled = {
            b: [t / f for t, f in zip(times[b], self.clock.local_factors(starts[b], mark))]
            for b in times
        }
        return {"rows": rows, "times": times, "scaled": scaled, "n": k,
                "wall_s": perf_counter() - start, "speed": self.clock.factor(mark)}

    def digests(self, rows: dict) -> dict:
        out = {}
        for baseline, label in ((False, "attack"), (True, "baseline")):
            got = rows[baseline]
            for k in range(len(got), DIGEST_REPS):
                got.append(self.rep(k, baseline)[0])
            head = got[:DIGEST_REPS]
            if any(m is None for m in head):
                out[label] = "incomplete"
                continue
            csv_text = self.miakit.metrics.metrics_csv(head)
            out[label] = hashlib.sha256(csv_text.encode()).hexdigest()
        return out

    def replay(self, rows: dict) -> dict:
        """Re-run replications 0..REPLAY_REPS-1 with record_trace=True.

        Metrics must equal the timed run's; every task with simulated blocked
        time must be flagged by static propagation from the attack target
        (the static result over-approximates the timed one).  Returns the
        event and threat counts of the replayed runs.
        """
        infra = self.miakit.infrastructure
        counts = {"events": 0, "scans": 0, "lateral_moves": 0, "onset_reps": 0,
                  "forensics_passes": 0, "remediations": 0, "reps": 0}
        target = self.attack.attacker.target
        graph = self.attack.build_graph()
        flagged = set(
            infra.propagate_static_impact(graph, [target], self.attack.mission_bindings()).impacted_tasks()
        )
        for k in range(REPLAY_REPS):
            for baseline in (False, True):
                sc = self.baseline if baseline else self.attack
                self.outcome.attempted += 1
                try:
                    m, result, timeline, trace = sc.run_detailed(k, self.seed, record_trace=True)
                except Exception as exc:  # counted as a failed operation
                    self.outcome.fail(f"replay {k} (baseline={baseline}): {exc!r}")
                    continue
                if k < len(rows[baseline]) and m != rows[baseline][k]:
                    self.outcome.fail(f"replay {k} (baseline={baseline}): metrics differ on re-run")
                blocked = {t for t, s in result.blocked_time.items() if s > 0}
                if not blocked <= flagged:
                    self.outcome.fail(
                        f"replay {k}: blocked tasks {sorted(blocked - flagged)} not flagged statically"
                    )
                counts["events"] += len(trace)
                counts["reps"] += 1
                if timeline is None:
                    continue
                tags = [e.tag for e in trace]
                counts["scans"] += tags.count("scan")
                counts["forensics_passes"] += tags.count("forensics_pass")
                counts["remediations"] += tags.count("remediation")
                counts["lateral_moves"] += sum(1 for e in timeline.entries if e.kind == "lateral_move")
                counts["onset_reps"] += timeline.first("effect_onset") is not None
        return counts


def run_sim(miakit, args, outcome: Outcome, clock: HostClock, out: dict) -> None:
    inputs = args.inputs
    runner = SimRunner(miakit, os.path.join(inputs, "scenario.yaml"), outcome, clock)
    with open(os.path.join(inputs, "sets.json"), encoding="utf-8") as fh:
        sets = json.load(fh)
    main_s = args.seconds * MAIN_SHARE
    run, plain, tracer = measure(runner.loop, main_s, args.trace, lambda r: r["n"])
    if plain is not None and run["rows"] != plain["rows"]:
        outcome.fail("traced replications differ from untraced ones")

    graph = runner.attack.build_graph()
    prop = run_propagation(miakit, graph, runner.attack.mission_bindings(), sets,
                           args.seconds - main_s, outcome, clock)
    rows = run["rows"]
    means = "no summary"
    try:
        summary = miakit.metrics.aggregate([m for m in rows[False] if m is not None])
        base_summary = miakit.metrics.aggregate([m for m in rows[True] if m is not None])
        report = miakit.metrics.compare(summary, base_summary)
        means = (
            f"mean plans_completed attack={summary['plans_completed'].mean:.6g} "
            f"baseline={base_summary['plans_completed'].mean:.6g} "
            f"reduction={report.percent_reduction:.4f}"
        )
    except Exception as exc:  # counted as a failed operation
        outcome.fail(f"aggregate/compare: {exc!r}")
    if tracer is not None:
        tracer.uninstall()

    out["digests"] = runner.digests(rows)
    counts = runner.replay(rows)
    times, scaled = run["times"], run["scaled"]
    out["e2e"] = figures(scaled[False] + scaled[True], scaled[False])
    out["raw"] = figures(times[False] + times[True], times[False])
    add_propagation(out, run, prop)
    out["info"] = {
        "ops": f"{run['n']} attack + {run['n']} baseline replications",
        "latency": f"attack run_replication calls, n={run['n']}, tail=p{tail(times[False])[1]:.1f}",
        "propagate": f"{prop['queries']} queries over {len(sets)} compromised sets",
        "summary": means,
    }
    if tracer is not None:
        out["layers"] = sim_layers(tracer, run, plain, prop, counts)
        out["tracer"] = tracer


def sim_layers(tr, run, plain, prop, counts) -> dict:
    calls, total = tr.calls_of, tr.total_s_of
    dispatched = calls("kernel.schedule") - tr.extra.get("pending_after_run", 0)
    run_until_s = total("kernel.run_until")
    out = {
        "kernel.events": counts["events"],
        "kernel.us_per_event": 1e6 * run_until_s / dispatched if dispatched else 0.0,
        "kernel.run_until_s": run_until_s,
        "kernel.self_s": tr.self_s[tr.names.index("kernel.run_until")],
        "kernel.item_streams": calls("kernel.item_stream"),
        "kernel.item_stream_s": total("kernel.item_stream"),
        "kernel.samples": calls("kernel.sample"),
        "kernel.sample_s": total("kernel.sample"),
        "mission.items": tr.extra.get("items", 0),
        "mission.install_s": total("mission.install"),
        "mission.finalize_s": total("mission.finalize"),
        "mission.checkpoint_examined": tr.extra.get("checkpoint_examined", 0),
        "mission.apply_checkpoint_s": total("mission.apply_checkpoint"),
        "infrastructure.neighbors_calls": calls("infrastructure.neighbors"),
        "infrastructure.neighbors_s": total("infrastructure.neighbors"),
        "infrastructure.exploits_on_calls": calls("infrastructure.exploits_on"),
        "infrastructure.exploits_on_s": total("infrastructure.exploits_on"),
        "infrastructure.build_graph_calls": calls("infrastructure.build_graph"),
        "infrastructure.build_graph_s": total("infrastructure.build_graph"),
        "infrastructure.perf_recompute_calls": calls("infrastructure.effective_performance_all"),
        "infrastructure.perf_recompute_s": total("infrastructure.effective_performance_all"),
        "infrastructure.set_state_calls": calls("infrastructure.set_state"),
        "infrastructure.propagate_s": total("infrastructure.propagate_static_impact"),
        "infrastructure.propagate_reached": prop["reached"],
        "threat.scans": counts["scans"],
        "threat.lateral_moves": counts["lateral_moves"],
        "threat.hop_yield": counts["lateral_moves"] / counts["scans"] if counts["scans"] else 0.0,
        "threat.onset_reps": counts["onset_reps"],
        "threat.forensics_passes": counts["forensics_passes"],
        "threat.remediations": counts["remediations"],
        "scenario.run_detailed_s": total("scenario.run_detailed"),
        "metrics.collect_s": total("metrics.collect"),
        "metrics.aggregate_s": total("metrics.aggregate"),
        "metrics.compare_s": total("metrics.compare"),
        "bench.replay_reps": counts["reps"],
        "bench.traced_ops": 2 * run["n"],
        "bench.trace_overhead": overhead(run["scaled"][False] + run["scaled"][True],
                                         plain["scaled"][False] + plain["scaled"][True]),
    }
    out.update(shares(run))
    return out


def overhead(traced_s: list[float], plain_s: list[float]) -> float:
    """Traced over untraced time of the same operations, minus one, both at
    nominal host speed."""
    return sum(traced_s) / sum(plain_s) - 1.0


def shares(run: dict) -> dict:
    """Each layer's self time as a share of the traced main segment's wall
    time (propagation queries excluded)."""
    return {f"{layer}.share": s / run["wall_s"] for layer, s in run["layer_self_s"].items()}


# ---------------------------------------------------------------------------
# flow-discovery


def discover(miakit, text: str):
    """The ``miakit discover`` path on one capture, with the CLI's defaults
    and its per-channel series cache."""
    flows, discovery = miakit.flows, miakit.discovery
    records = flows.parse_flows(text)
    direct = discovery.direct_dependencies(records)
    t0 = min(r.ts_us for r in records)
    t1 = max(r.ts_us for r in records) + 1
    cache: dict = {}

    def series_for(channel):
        if channel not in cache:
            cache[channel] = flows.bin_activity(records, channel, 1.0, (t0, t1))
        return cache[channel]

    indirect = discovery.infer_indirect(direct, series_for)
    chains = discovery.detect_retry_chains(records)
    graph = discovery.export_graph(direct, indirect, chains)
    return records, direct, indirect, chains, graph


def discovery_digest(direct, indirect, chains) -> str:
    lines = [f"D {d.client} {d.service.label()} {d.flow_count} {d.first_seen_us} {d.last_seen_us}"
             for d in direct]
    lines += [f"I {i.upstream.label()} {i.downstream.label()} {i.lag_bins} {i.score!r}" for i in indirect]
    lines += [f"R {c.client} {c.first_contact.label()} {c.fallback.label()} {c.support}" for c in chains]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def run_flows(miakit, args, outcome: Outcome, clock: HostClock, out: dict) -> None:
    discovery = miakit.discovery
    with open(os.path.join(args.inputs, "flows.csv"), encoding="utf-8") as fh:
        text = fh.read()
    with open(os.path.join(args.inputs, "truth.json"), encoding="utf-8") as fh:
        truth = json.load(fh)
    reference: dict = {}

    def one_pass():
        outcome.attempted += 1
        t0 = perf_counter()
        try:
            records, direct, indirect, chains, graph = discover(miakit, text)
        except Exception as exc:  # counted as a failed operation
            outcome.fail(f"discover: {exc!r}")
            return perf_counter() - t0
        dt = perf_counter() - t0
        digest = discovery_digest(direct, indirect, chains)
        if not reference:
            reference.update(digest=digest, records=records, direct=direct,
                             indirect=indirect, chains=chains, graph=graph)
        elif digest != reference["digest"]:
            outcome.fail("discover: output differs between passes")
        return dt

    def loop(seconds=None, count=None):
        times, starts = [], []
        mark = len(clock.samples)
        start = perf_counter()
        while (perf_counter() - start < seconds) if count is None else (len(times) < count):
            clock.probe()
            starts.append(perf_counter())
            times.append(one_pass())
        scaled = [t / f for t, f in zip(times, clock.local_factors(starts, mark))]
        return {"times": times, "scaled": scaled, "wall_s": perf_counter() - start,
                "speed": clock.factor(mark)}

    main_s = args.seconds * MAIN_SHARE
    run, plain, tracer = measure(loop, main_s, args.trace, lambda r: len(r["times"]))
    if not reference:
        raise SystemExit("discover failed on every pass")

    graph = reference["graph"]
    ids = sorted(graph.assets)
    leaves = [a for a in ids if not graph.dependents_of(a)]
    sets = workloads.propagation_sets(ids, leaves, args.seed)
    bindings = {a.id: [a.id] for a in graph.assets.values() if a.kind == "device"}
    prop = run_propagation(miakit, graph, bindings, sets, args.seconds - main_s, outcome, clock)
    if tracer is not None:
        tracer.uninstall()

    synth = miakit.synth
    found = (
        {discovery.direct_key(d) for d in reference["direct"]}
        | {discovery.indirect_key(i) for i in reference["indirect"]}
        | {discovery.retry_key(c) for c in reference["chains"]}
    )
    want = synth.truth_direct_keys(truth) | synth.truth_indirect_keys(truth) | synth.truth_retry_keys(truth)
    report = discovery.evaluate(found, want)

    n_records = len(reference["records"])
    times = run["times"]
    out["e2e"] = figures(run["scaled"], run["scaled"], n_records)
    out["raw"] = figures(times, times, n_records)
    add_propagation(out, run, prop)
    out["digests"] = {"discovery": reference["digest"]}
    out["info"] = {
        "ops": f"{len(times)} discover passes over {n_records} flow records",
        "latency": f"whole discover passes, n={len(times)}, tail=p{tail(times)[1]:.1f}",
        "propagate": f"{prop['queries']} queries over {len(sets)} compromised sets on the discovered graph",
        "quality": f"discover_precision={report.precision!r} discover_recall={report.recall!r}",
    }
    if tracer is not None:
        out["layers"] = flow_layers(tracer, run, plain, prop, reference, report)
        out["tracer"] = tracer


def flow_layers(tr, run, plain, prop, reference, report) -> dict:
    calls, total = tr.calls_of, tr.total_s_of
    passes = len(run["times"])
    per_client: dict[str, int] = {}
    for d in reference["direct"]:
        per_client[d.client] = per_client.get(d.client, 0) + d.flow_count
    pairs = calls("discovery.max_lag_ncc")
    out = {
        "flows.records": len(reference["records"]),
        "flows.parse_s": total("flows.parse_flows"),
        "flows.bin_activity_calls": calls("flows.bin_activity"),
        "flows.bin_activity_s": total("flows.bin_activity"),
        "flows.records_scanned": tr.extra.get("records_scanned", 0),
        "discovery.channels": len(reference["direct"]),
        "discovery.direct_s": total("discovery.direct_dependencies"),
        "discovery.pairs_scored": pairs,
        "discovery.ncc_calls": calls("discovery.ncc"),
        "discovery.ncc_s": total("discovery.ncc"),
        "discovery.indirect_s": total("discovery.infer_indirect"),
        "discovery.indirect_yield": len(reference["indirect"]) * passes / pairs if pairs else 0.0,
        "discovery.retry_s": total("discovery.detect_retry_chains"),
        "discovery.retry_contacts_max": max(per_client.values()),
        "discovery.export_graph_s": total("discovery.export_graph"),
        "discovery.precision": report.precision,
        "discovery.recall": report.recall,
        "infrastructure.build_graph_calls": calls("infrastructure.build_graph"),
        "infrastructure.build_graph_s": total("infrastructure.build_graph"),
        "infrastructure.propagate_s": total("infrastructure.propagate_static_impact"),
        "infrastructure.propagate_reached": prop["reached"],
        "bench.traced_ops": passes,
        "bench.trace_overhead": overhead(run["scaled"], plain["scaled"]),
    }
    out.update(shares(run))
    return out


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import miakit.discovery
    import miakit.flows
    import miakit.infrastructure
    import miakit.metrics
    import miakit.scenario
    import miakit.synth

    outcome = Outcome()
    clock = HostClock()
    out: dict = {}
    if args.workload == "flow-discovery":
        run_flows(miakit, args, outcome, clock, out)
    else:
        run_sim(miakit, args, outcome, clock, out)
    out["e2e"]["peak_rss_mb"] = peak_rss_mb()
    tracer = out.pop("tracer", None)
    if tracer is not None:
        out["layers"]["bench.spans_dropped"] = tracer.dropped
        if args.spans_out:
            tracer.dump(args.spans_out)
    out.update(attempted=outcome.attempted, failed=outcome.failed, problems=outcome.problems)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
