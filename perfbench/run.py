"""miakit benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is the
``miakit`` package in ``src/``.  The run generates the workload's inputs from
the seed, times set-up in fresh interpreters, then starts ``worker.py`` in
its own interpreter to drive the workload for S seconds and check its
outputs.  Metric names and units come from ``BENCHMARK.json`` at the
checkout root: ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a run with spans recorded around miakit's public
callables.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give sample counts, percentiles, output digests and failures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_PROBES = 3
# Every run must finish well inside three minutes.
RUN_LIMIT_S = 170.0

sys.path.insert(0, HERE)
import workloads  # noqa: E402


class BenchError(Exception):
    pass


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None


def import_miakit():
    if not os.path.isfile(os.path.join(SRC, "miakit", "__init__.py")):
        raise BenchError(f"no miakit package under {SRC}")
    sys.path.insert(0, SRC)
    import miakit.flows
    import miakit.synth

    if not os.path.abspath(miakit.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported miakit from {miakit.__file__}, not from {SRC}")
    return miakit


def write_inputs(miakit, workload: str, seed: int, work: str) -> tuple[str, str, dict]:
    """Generate the workload's inputs into ``work``.  Returns the set-up
    probe's (kind, path) and the generation timings."""
    import yaml

    timings = {"synth.gen_flows_s": 0.0}
    if workload == "flow-discovery":
        topology = workloads.flow_topology(seed)
        path = os.path.join(work, "topology.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(topology, fh, sort_keys=False)
        t0 = perf_counter()
        records, truth = miakit.synth.gen_flows(topology, seed=seed)
        timings["synth.gen_flows_s"] = perf_counter() - t0
        with open(os.path.join(work, "flows.csv"), "w", encoding="utf-8") as fh:
            fh.write(miakit.flows.serialize_flows(records))
        with open(os.path.join(work, "truth.json"), "w", encoding="utf-8") as fh:
            json.dump(truth, fh)
        return "topology", path, timings
    doc = workloads.SCENARIOS[workload](seed)
    path = os.path.join(work, "scenario.yaml")
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)
    with open(os.path.join(work, "sets.json"), "w", encoding="utf-8") as fh:
        json.dump(workloads.scenario_propagation_sets(doc, seed), fh)
    return "scenario", path, timings


def child(argv: list[str], deadline: float) -> str:
    """Run a Python child to completion and return its standard output."""
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run(
            [sys.executable, *argv], stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{os.path.basename(argv[0])} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{os.path.basename(argv[0])} exited with code {proc.returncode}")
    return proc.stdout


def measure_setup(kind: str, path: str, probes: int, deadline: float) -> dict:
    """Median set-up seconds over ``probes`` fresh interpreters, with its
    import and load parts."""
    rows = []
    for _ in range(probes):
        out = child([os.path.join(HERE, "setup_probe.py"), SRC, kind, path], deadline)
        total, imp = (float(x) for x in out.split())
        rows.append((total, imp, total - imp))
    medians = [statistics.median(col) for col in zip(*rows)]
    return dict(zip(("setup_s", "cli.import_s", "scenario.load_s"), medians))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = perf_counter() + RUN_LIMIT_S

    try:
        spec = load_spec()
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        miakit = import_miakit()
        work = os.path.join(WORK, f"run-{os.getpid()}")
        os.makedirs(work, exist_ok=True)
        try:
            kind, path, timings = write_inputs(miakit, args.workload, args.seed, work)
            setup = measure_setup(kind, path, SETUP_PROBES, deadline)
            argv = [
                os.path.join(HERE, "worker.py"), "--src", SRC, "--inputs", work,
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            if args.trace:
                traces = os.path.join(WORK, "traces")
                os.makedirs(traces, exist_ok=True)
                argv += ["--spans-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.npz")]
            lines = child(argv, deadline).strip().splitlines()
        finally:
            shutil.rmtree(work, ignore_errors=True)
        result = json.loads(lines[-1])
    except (BenchError, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    failed = result["failed"]
    attempted = result["attempted"]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for key, text in result["info"].items():
        print(f"{key}: {text}")
    for key, digest in result["digests"].items():
        print(f"digest {key}: sha256={digest}")
    print(f"setup: median of {SETUP_PROBES} fresh interpreters, import miakit.cli "
          f"{setup['cli.import_s']:.4f} s + load input {setup['scenario.load_s']:.4f} s")
    print("raw wall time: " + " ".join(f"{k}={v:.6g}" for k, v in result["raw"].items()))
    print(f"error_rate={failed / attempted!r} ({failed} failed of {attempted} attempted)")
    for problem in result["problems"]:
        print(f"FAILED: {problem}")

    if args.trace:
        values = dict(result["layers"], **timings)
        values["cli.import_s"] = setup["cli.import_s"]
        values["scenario.load_s"] = setup["scenario.load_s"]
        wanted = spec["per_layer"]
    else:
        values = dict(result["e2e"], setup_s=setup["setup_s"])
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
