"""Command-line front end.

Subcommands: ``discover`` (flow file -> dependency document), ``simulate``
(scenario -> per-replication metrics CSV and summary, optionally against a
no-attack baseline), ``propagate`` (static impact of a compromised set),
``gen-flows`` (seeded synthetic traffic plus ground truth), and ``report``
(re-aggregate saved metrics).  Exit codes: 0 success, 1 bad input (a
:class:`~miakit.fields.MiakitError`, or a file that cannot be read or
written), 2 usage error; any other exception is a bug and a traceback.
"""

from __future__ import annotations

import argparse
import sys

import yaml

from . import discovery, flows, infrastructure, metrics, synth
from .fields import MiakitError, ValidationError, _list, _read_key, _read_keys, read_text
from .infrastructure import InfrastructureGraph, build_topology, graph_doc, propagate_static_impact
from .kernel import run_replications
from .scenario import infrastructure_of, load_scenario, read_yaml


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _dump_yaml(doc: dict) -> str:
    return yaml.safe_dump(doc, sort_keys=False)


# ---------------------------------------------------------------------------
# discover


def cmd_discover(args: argparse.Namespace) -> int:
    flows.bin_width_us(args.bin_width)
    discovery.check_indirect_options(args.ncc_threshold, args.max_lag, args.min_activity)
    discovery.check_retry_options(
        args.episode_gap, args.min_support, discovery.DEFAULT_DOMINANCE
    )
    malformed: list = []
    records = flows.parse_flows(args.flows, strict=args.strict, malformed=malformed)
    direct = discovery.direct_dependencies(records)

    indirect: list = []
    chains: list = []
    if records:
        # The capture's index holds every timestamp as int64; the window
        # bounds are Python ints.
        ts_us = records.by_channel.ts_us
        t0 = int(ts_us.min())
        t1 = int(ts_us.max()) + 1
        indirect = discovery.infer_indirect(
            direct,
            lambda channel: flows.bin_activity(records, channel, args.bin_width, (t0, t1)),
            threshold=args.ncc_threshold,
            max_lag=args.max_lag,
            min_activity=args.min_activity,
        )
        chains = discovery.detect_retry_chains(
            records,
            episode_gap=args.episode_gap,
            min_support=args.min_support,
        )

    doc = {
        "schema_version": 1,
        "parameters": {
            "flows": args.flows,
            "bin_width": args.bin_width,
            "max_lag": args.max_lag,
            "ncc_threshold": args.ncc_threshold,
            "min_activity": args.min_activity,
            "episode_gap": args.episode_gap,
            "min_support": args.min_support,
            "records": len(records),
            "malformed_skipped": len(malformed),
        },
        "direct": [
            {
                "client": d.client,
                "service": d.service.label(),
                "flows": d.flow_count,
                "first_seen_us": d.first_seen_us,
                "last_seen_us": d.last_seen_us,
            }
            for d in direct
        ],
        "indirect": [
            {
                "upstream": {"client": i.upstream.client, "service": i.upstream.service.label()},
                "downstream": {
                    "client": i.downstream.client,
                    "service": i.downstream.service.label(),
                },
                "lag_s": i.lag_s,
                "lag_bins": i.lag_bins,
                "score": round(i.score, 6),
            }
            for i in indirect
        ],
        "retry_chains": [
            {
                "client": c.client,
                "first_contact": c.first_contact.label(),
                "fallback": c.fallback.label(),
                "support": c.support,
                "episode_gap_s": c.episode_gap_s,
            }
            for c in chains
        ],
    }
    _write(args.out, _dump_yaml(doc))
    if args.graph_out:
        graph = discovery.export_graph(direct, indirect, chains)
        gdoc = {"schema_version": 1, **graph_doc(graph.topology), "annotations": graph.annotations}
        gdoc["assets"].sort(key=lambda a: a["id"])
        _write(args.graph_out, _dump_yaml(gdoc))
    print(
        f"discover: {len(records)} flows -> {len(direct)} direct, "
        f"{len(indirect)} indirect, {len(chains)} retry chains"
    )
    return 0


# ---------------------------------------------------------------------------
# simulate


class _Variants:
    """Replication k of each variant, one after the other: the runs after the
    first read the arrivals and durations it drew (see ``MissionIndex.draws``)."""

    def __init__(self, *variants):
        self.variants = variants

    def run_replication(self, replication: int, base_seed: int) -> list:
        return [v.run_replication(replication, base_seed) for v in self.variants]


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    n = args.replications if args.replications is not None else scenario.replications
    seed = args.seed if args.seed is not None else scenario.base_seed

    variants = (scenario, scenario.without_attack()) if args.baseline else (scenario,)
    runs = run_replications(_Variants(*variants), n, seed)
    results = [run[0] for run in runs]
    _write(args.out, metrics.metrics_csv(results))
    summary = metrics.aggregate(results)
    print(f"scenario: {args.scenario} (replications={n}, base_seed={seed})")
    print(metrics.summary_text(summary, title="attack" if scenario.attacker else "mission"), end="")

    if args.baseline:
        base = [run[1] for run in runs]
        base_path = args.out + ".baseline.csv"
        _write(base_path, metrics.metrics_csv(base))
        base_summary = metrics.aggregate(base)
        print(metrics.summary_text(base_summary, title="baseline"), end="")
        report = metrics.compare(summary, base_summary)
        print(metrics.comparison_text(report), end="")
    return 0


# ---------------------------------------------------------------------------
# propagate


def _load_bindings(path: str) -> tuple[dict, dict]:
    """The task bindings of a mission or scenario file, and for each task
    key the field its ``requires`` list was read from."""
    doc = read_yaml(path)
    tasks = None
    where = "tasks"
    if isinstance(doc, dict):
        if "mission" in doc and isinstance(doc["mission"], dict):
            tasks = doc["mission"].get("tasks")
            where = "mission.tasks"
        elif "tasks" in doc:
            tasks = doc["tasks"]
    tasks = _list(tasks, where)
    if not tasks:
        raise ValidationError("mission", f"{path} has no task list")
    bindings, fields = {}, {}
    for i, t in enumerate(tasks):
        if not isinstance(t, dict) or t.get("id") is None:
            raise ValidationError(f"{where}[{i}].id", "missing required field")
        task_id = _read_key(t["id"], f"{where}[{i}].id")
        if task_id in bindings:
            raise infrastructure.DuplicateId(f"{where}[{i}].id", f"duplicate task id {task_id!r}")
        field = f"{where}[{i}].requires"
        bindings[task_id] = _read_keys(t.get("requires"), field)
        fields[task_id] = field
    return bindings, fields


def cmd_propagate(args: argparse.Namespace) -> int:
    doc = read_yaml(args.graph)
    if doc is not None and not isinstance(doc, dict):
        raise ValidationError(args.graph, "graph document must be a mapping")
    nested = doc and "infrastructure" in doc
    graph = InfrastructureGraph(infrastructure_of(doc) if nested else build_topology(doc or {}))
    compromised = [c for c in (args.compromised or "").split(",") if c]
    bindings, fields = _load_bindings(args.mission)
    # Checked in the query's own order, so the asset reported is the one the
    # query would refuse, now with the field that gave it.
    for a in sorted(set(compromised)):
        if a not in graph.assets:
            raise ValidationError("compromised", f"unknown asset {a!r}")
    for task_id, required in bindings.items():
        for j, a in enumerate(required):
            if a not in graph.assets:
                raise ValidationError(f"{fields[task_id]}[{j}]", f"unknown asset {a!r}")
    report = propagate_static_impact(graph, compromised, bindings)
    doc = {
        "schema_version": 1,
        "compromised": list(report.compromised),
        "tasks": {
            task_id: {
                "impacted": impact.impacted,
                "witness": list(impact.witness),
            }
            for task_id, impact in sorted(report.tasks.items())
        },
    }
    out = _dump_yaml(doc)
    if args.out:
        _write(args.out, out)
    print(out, end="")
    return 0


# ---------------------------------------------------------------------------
# gen-flows


def cmd_gen_flows(args: argparse.Namespace) -> int:
    topology = synth.load_topology(args.topology)
    records, truth = synth.gen_flows(topology, duration_s=args.duration, seed=args.seed)
    _write(args.out, flows.serialize_flows(records))
    if args.truth:
        synth.save_truth(truth, args.truth)
    print(f"gen-flows: wrote {len(records)} flows (seed={args.seed})")
    return 0


# ---------------------------------------------------------------------------
# report


def cmd_report(args: argparse.Namespace) -> int:
    summary = metrics.aggregate(metrics.parse_metrics_csv(read_text(args.metrics)))
    print(metrics.summary_text(summary, title=args.metrics), end="")
    if args.baseline:
        base = metrics.parse_metrics_csv(read_text(args.baseline))
        base_summary = metrics.aggregate(base)
        print(metrics.summary_text(base_summary, title=args.baseline), end="")
        print(metrics.comparison_text(metrics.compare(summary, base_summary)), end="")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="miakit",
        description="dependency discovery and mission impact simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discover", help="infer dependencies from a flow CSV")
    p.add_argument("--flows", required=True)
    p.add_argument("--bin-width", type=float, default=1.0)
    p.add_argument("--max-lag", type=int, default=discovery.DEFAULT_MAX_LAG)
    p.add_argument("--ncc-threshold", type=float, default=discovery.DEFAULT_NCC_THRESHOLD)
    p.add_argument("--min-activity", type=int, default=discovery.DEFAULT_MIN_ACTIVITY)
    p.add_argument("--episode-gap", type=float, default=discovery.DEFAULT_EPISODE_GAP)
    p.add_argument("--min-support", type=int, default=discovery.DEFAULT_MIN_SUPPORT)
    p.add_argument("--strict", action="store_true", help="abort on malformed lines")
    p.add_argument("--out", required=True)
    p.add_argument("--graph-out", default=None, help="also write a graph fragment")
    p.set_defaults(fn=cmd_discover)

    p = sub.add_parser("simulate", help="run scenario replications")
    p.add_argument("--scenario", required=True)
    p.add_argument("--replications", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--baseline", action="store_true", help="also run the attack-free variant")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("propagate", help="static impact of a compromised asset set")
    p.add_argument("--graph", required=True)
    p.add_argument("--compromised", required=True, help="comma-separated asset ids")
    p.add_argument("--mission", required=True, help="scenario or mission file for task bindings")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_propagate)

    p = sub.add_parser("gen-flows", help="generate synthetic traffic with ground truth")
    p.add_argument("--topology", required=True)
    p.add_argument("--duration", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--truth", default=None)
    p.set_defaults(fn=cmd_gen_flows)

    p = sub.add_parser("report", help="summarize saved metrics CSVs")
    p.add_argument("--metrics", required=True)
    p.add_argument("--baseline", default=None)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (MiakitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
