"""Scenario documents: loading, validation, and replication execution.

A scenario is one YAML document with ``infrastructure``, ``mission``,
optional ``attacker``/``defender`` sections and a ``sim`` block.  Durations
may be given as seconds or with s/m/h/d/w suffixes; all defaults are filled
in at load time and echoed back out, so a saved scenario reloads to exactly
the same object.  ``Scenario.run_replication`` wires the four models onto
one kernel for a single seeded run.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from importlib import resources
from typing import Any

import yaml

from . import metrics as metrics_mod
from .fields import (
    ValidationError, _list, _mapping, _read_float, _read_int, _require, read_text, within
)
from .infrastructure import (
    InfrastructureGraph, Topology, _exploit_name, build_topology, graph_doc
)
from .kernel import Distribution, InvalidDistribution, Simulator, StreamFactory
from .mission import (
    MissionResult,
    MissionRuntime,
    MissionSpec,
    TaskSpec,
    validate_mission,
)
from .threat import (
    AttackerRuntime,
    AttackerSpec,
    AttackTimeline,
    DefenderSpec,
    EffectSpec,
    StartPolicy,
    attacker_process,
    defender_process,
)

SCHEMA_VERSION = 1

# libyaml's parser when PyYAML was built with it (about six times faster on
# large scenarios), else the pure-Python one; both build the same documents.
_SafeLoader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_SUFFIXES = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}

# How many parameters each distribution kind takes.
_ARITY = {"fixed": 1, "exponential": 1, "uniform": 2, "triangular": 3}

# Most scans or phishing attempts an attacker, or forensics passes a defender,
# may be expected to make over the horizon; past it a document is refused at
# load instead of running for hours.
MAX_EXPECTED_ATTACKER_STEPS = 1_000_000


def parse_duration(value: Any, fieldname: str = "duration") -> float:
    """Seconds from a number or a suffixed string like ``90``, ``15m``, ``2h``;
    never negative or NaN."""
    seconds = _read_seconds(value, fieldname)
    if not seconds >= 0:
        raise ValidationError(fieldname, f"durations must be >= 0, got {value!r}")
    return seconds


def _read_seconds(value: Any, fieldname: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, str):
        text = value.strip()
        suffix = text[-1:].lower()
        if suffix in _SUFFIXES:
            try:
                return float(text[:-1]) * _SUFFIXES[suffix]
            except ValueError:
                pass
        try:
            return float(text)
        except ValueError:
            pass
    raise ValidationError(fieldname, f"cannot read duration from {value!r}")


def parse_distribution(value: Any, fieldname: str = "distribution") -> Distribution:
    """Distribution from its document form.

    ``{fixed: X}``, ``{uniform: [a, b]}``, ``{exponential: M}`` (or
    ``{exponential: {mean: M}}``), ``{triangular: [lo, mode, hi]}``; bare
    numbers are shorthand for fixed.  Every parameter is a duration.
    """
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        return Distribution.fixed(parse_duration(value, fieldname))
    if not isinstance(value, dict) or len(value) != 1:
        raise ValidationError(fieldname, f"expected one-key distribution map, got {value!r}")
    kind, params = next(iter(value.items()))
    if kind not in _ARITY:
        raise ValidationError(fieldname, f"unknown distribution kind {kind!r}")
    if kind == "exponential" and isinstance(params, dict) and "mean" in params:
        params = params["mean"]
    args = [params] if _ARITY[kind] == 1 else params
    if not isinstance(args, list) or len(args) != _ARITY[kind]:
        raise ValidationError(fieldname, f"bad {kind} parameters {params!r}")
    try:
        return Distribution(kind, tuple(parse_duration(a, fieldname) for a in args))
    except InvalidDistribution as exc:
        raise ValidationError(fieldname, str(exc)) from None


def _dist_doc(dist: Distribution) -> dict:
    if dist.kind in ("fixed", "exponential"):
        return {dist.kind: dist.params[0]}
    return {dist.kind: list(dist.params)}


def parse_effect(value: Any) -> EffectSpec:
    if value == "integrity":
        return EffectSpec("integrity")
    if value == "confidentiality":
        return EffectSpec("confidentiality")
    if isinstance(value, dict) and set(value) == {"availability"}:
        inner = value["availability"]
        if inner == "stop":
            return EffectSpec("availability_stop")
        if isinstance(inner, dict) and set(inner) == {"degrade"}:
            factor = _read_float(inner["degrade"], "effect")
            return EffectSpec("availability_degrade", degrade_factor=factor)
    raise ValidationError("effect", f"cannot read effect {value!r}")


def _effect_doc(effect: EffectSpec) -> Any:
    if effect.kind == "integrity":
        return "integrity"
    if effect.kind == "confidentiality":
        return "confidentiality"
    if effect.kind == "availability_stop":
        return {"availability": "stop"}
    return {"availability": {"degrade": effect.degrade_factor}}


def parse_start(value: Any) -> StartPolicy:
    if isinstance(value, dict) and len(value) == 1:
        kind, param = next(iter(value.items()))
        if kind == "fixed":
            return StartPolicy.fixed(parse_duration(param, "start"))
        if kind == "random":
            return StartPolicy.random(parse_duration(param, "start"))
        if kind == "task":
            return StartPolicy.process_triggered(str(param))
    raise ValidationError("start", f"cannot read start policy {value!r}")


def _start_doc(policy: StartPolicy) -> dict:
    if policy.kind == "fixed":
        return {"fixed": policy.at}
    if policy.kind == "random":
        return {"random": policy.window}
    return {"task": policy.task}


# How each field of the attacker and defender sections is read from the
# document and echoed back to it, in echo order.  A field that is absent or
# null takes the spec's default; one without a default is required.
_ATTACKER_FIELDS = {
    "target": (lambda value, _: str(value), str),
    "effect": (lambda value, _: parse_effect(value), _effect_doc),
    "start": (lambda value, _: parse_start(value), _start_doc),
    "capabilities": (
        lambda value, name: frozenset(
            _exploit_name(c, f"{name}[{i}]") for i, c in enumerate(_list(value, name))
        ),
        sorted,
    ),
    "spearphish_success_prob": (_read_float, float),
    "spearphish_interval": (parse_distribution, _dist_doc),
    "scan_interval": (parse_distribution, _dist_doc),
    "proficiency": (_read_float, float),
    "agility": (_read_float, float),
}
_DEFENDER_FIELDS = {
    "detect_delay": (parse_distribution, _dist_doc),
    "forensics_duration": (parse_distribution, _dist_doc),
    "per_host_discovery_prob": (_read_float, float),
    "remediation_per_host": (parse_distribution, _dist_doc),
}


def _read_spec(spec_type: type, table: dict, doc: dict) -> Any:
    """``spec_type`` built from a document section through ``table``."""
    kwargs = {}
    for f in dataclasses.fields(spec_type):
        value = doc.get(f.name)
        if value is not None:
            kwargs[f.name] = table[f.name][0](value, f.name)
        elif f.default is dataclasses.MISSING:
            raise ValidationError(f.name, "missing required field")
    return spec_type(**kwargs)


def _spec_doc(spec: Any, table: dict) -> dict:
    return {name: echo(getattr(spec, name)) for name, (_, echo) in table.items()}


@dataclass
class Scenario:
    topology: Topology
    mission: MissionSpec
    attacker: AttackerSpec | None
    defender: DefenderSpec | None
    replications: int
    base_seed: int
    horizon: float
    source: str = ""

    def build_graph(self) -> InfrastructureGraph:
        """A fresh, all-operational state overlay on the scenario's topology."""
        return InfrastructureGraph(self.topology)

    def without_attack(self) -> "Scenario":
        return dataclasses.replace(self, attacker=None, defender=None)

    def mission_bindings(self) -> dict:
        return {t.id: list(t.required_assets) for t in self.mission.tasks}

    # -- execution ----------------------------------------------------------

    def run_detailed(
        self, replication: int, base_seed: int, record_trace: bool = False
    ) -> tuple[metrics_mod.MissionMetrics, MissionResult, AttackTimeline | None, list]:
        graph = self.build_graph()
        sim = Simulator(record_trace=record_trace)
        streams = StreamFactory(base_seed, replication)
        mission_rt = MissionRuntime(self.mission, graph, sim, streams).install()
        attacker_rt: AttackerRuntime | None = None
        if self.attacker is not None:
            attacker_rt = attacker_process(
                self.attacker,
                graph,
                sim,
                streams.stream(StreamFactory.ATTACKER),
                mission=mission_rt,
            )
            if self.defender is not None:
                defender_process(
                    self.defender,
                    sim,
                    streams.stream(StreamFactory.DEFENDER),
                    attacker_rt,
                    mission=mission_rt,
                )
        trace = sim.run_until(self.horizon)
        result = mission_rt.finalize()
        # The runtimes, the overlay and the kernel's pending events refer to
        # one another.  Unlink them so the replication is freed when it
        # returns, not at some later full garbage-collection pass.
        sim.discard_pending()
        graph._listeners.clear()
        mission_rt._task_start_hooks.clear()
        timeline = None
        if attacker_rt is not None:
            attacker_rt.onset_listeners.clear()
            attacker_rt.timeline.horizon = self.horizon
            timeline = attacker_rt.timeline
        return metrics_mod.collect(result, timeline), result, timeline, trace

    def run_replication(self, replication: int, base_seed: int) -> metrics_mod.MissionMetrics:
        return self.run_detailed(replication, base_seed)[0]


def read_yaml(path: str) -> Any:
    """The document at ``path``; a missing file, non-UTF-8 text or malformed
    YAML is a :class:`ValidationError` naming the path, whose message fits
    on one line.  Each distinct string in the document is one object: a
    large graph repeats its keys, asset kinds and asset ids thousands of
    times, and the topology's assets and edges then share those id and kind
    strings instead of each holding a copy."""
    try:
        loader = _SafeLoader(read_text(path))
        scalar = loader.construct_scalar
        loader.construct_scalar = lambda node: sys.intern(scalar(node))
        try:
            return loader.get_single_data()
        finally:
            loader.dispose()
    except FileNotFoundError:
        raise ValidationError(path, "no such file") from None
    except yaml.YAMLError as exc:
        raise ValidationError(path, "YAML error: " + " ".join(str(exc).split())) from None


def load_scenario(path: str) -> Scenario:
    doc = read_yaml(path)
    if not isinstance(doc, dict):
        raise ValidationError(path, "scenario document must be a mapping")
    return scenario_from_dict(doc, source=path)


def infrastructure_of(doc: dict) -> Topology:
    """The topology of a scenario document's ``infrastructure`` section; an
    error names its field as ``infrastructure.<path>``."""
    infra = _mapping(doc.get("infrastructure"), "infrastructure")
    with within("infrastructure"):
        return build_topology(infra)


def scenario_from_dict(doc: dict, source: str = "") -> Scenario:
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValidationError("schema_version", f"unsupported version {version!r}")

    topology = infrastructure_of(doc)

    sim_doc = _mapping(doc.get("sim"), "sim")
    horizon = parse_duration(sim_doc.get("horizon", "1d"), "sim.horizon")
    if not 0 < horizon < float("inf"):
        raise ValidationError("sim.horizon", "must be positive and finite")
    replications = _read_int(sim_doc.get("replications", 1), "sim.replications")
    base_seed = _read_int(sim_doc.get("base_seed", 0), "sim.base_seed")
    if replications < 1:
        raise ValidationError("sim.replications", "must be >= 1")
    if base_seed < 0:
        raise ValidationError("sim.base_seed", "must be >= 0")

    mission_doc = _mapping(_require(doc, "mission", "scenario"), "mission")
    tasks = []
    for i, tdoc in enumerate(_list(mission_doc.get("tasks"), "mission.tasks")):
        loc = f"mission.tasks[{i}]"
        tdoc = _mapping(tdoc, loc)
        task_id = str(_require(tdoc, "id", loc))
        tasks.append(
            TaskSpec(
                id=task_id,
                duration=parse_distribution(_require(tdoc, "duration", loc), f"{loc}.duration"),
                role=str(_require(tdoc, "role", loc)),
                required_assets=tuple(map(str, _list(tdoc.get("requires"), f"{loc}.requires"))),
                predecessors=tuple(map(str, _list(tdoc.get("after"), f"{loc}.after"))),
                rework_duration=parse_distribution(
                    tdoc.get("rework", 0.0), f"{loc}.rework"
                ),
            )
        )
    arrivals = parse_distribution(_require(mission_doc, "arrivals", "mission"), "mission.arrivals")
    if arrivals.mean() <= 0:
        raise ValidationError("mission.arrivals", "mean interval between arrivals must be positive")
    day_length = parse_duration(mission_doc.get("day_length", "1d"), "mission.day_length")
    if day_length <= 0:
        raise ValidationError("mission.day_length", "must be positive")
    mission = MissionSpec(
        tasks=tuple(tasks),
        arrivals=arrivals,
        personnel={
            str(r): _read_int(n, f"mission.personnel.{r}")
            for r, n in _mapping(mission_doc.get("personnel"), "mission.personnel").items()
        },
        day_length=day_length,
        horizon=horizon,
        checkpoints=tuple(
            parse_duration(c, "mission.checkpoints")
            for c in _list(mission_doc.get("checkpoints"), "mission.checkpoints")
        ),
        deadline_per_item=(
            parse_duration(mission_doc["deadline_per_item"], "mission.deadline_per_item")
            if mission_doc.get("deadline_per_item") is not None
            else None
        ),
        arrival_cutoff=(
            parse_duration(mission_doc["arrival_cutoff"], "mission.arrival_cutoff")
            if mission_doc.get("arrival_cutoff") is not None
            else None
        ),
    )
    with within("mission"):
        mission = validate_mission(mission, topology)

    attacker = None
    defender = None
    if doc.get("attacker") is not None:
        adoc = _mapping(doc["attacker"], "attacker")
        with within("attacker"):
            attacker = _read_spec(AttackerSpec, _ATTACKER_FIELDS, adoc)
        for name in ("scan_interval", "spearphish_interval"):
            mean = getattr(attacker, name).mean()
            # The interval alone, then scaled by agility: the error names the cause.
            for cause, step in ((name, mean), ("agility", mean * attacker.agility)):
                steps = horizon / step if step > 0 else float("inf")
                if steps > MAX_EXPECTED_ATTACKER_STEPS:
                    why = f"a mean {name} step of {step:g} s over {horizon:g} s expects"
                    why += f" {steps:.3g} steps, more than {MAX_EXPECTED_ATTACKER_STEPS}"
                    raise ValidationError(f"attacker.{cause}", why)
        if attacker.target not in topology.assets:
            raise ValidationError("attacker.target", f"unknown asset {attacker.target!r}")
        task = attacker.start.task
        if task is not None and task not in {t.id for t in mission.tasks}:
            raise ValidationError("attacker.start", f"unknown task {task!r}")
        if not topology.end_users:
            raise ValidationError(
                "infrastructure.assets", "attacker needs at least one end_user_node"
            )
        if "defender" not in doc:
            raise ValidationError(
                "defender", "scenario has an attacker; give a defender or an explicit null"
            )
        if doc["defender"] is not None:
            ddoc = _mapping(doc["defender"], "defender")
            with within("defender"):
                defender = _read_spec(DefenderSpec, _DEFENDER_FIELDS, ddoc)
            # A pass that leaves a host hidden is followed by another, so passes
            # repeat until the horizon, or at one instant until a find if they
            # take no time; each host is found in 1 / p passes on average.
            mean = defender.forensics_duration.mean()
            p = defender.per_host_discovery_prob
            passes = min(
                horizon / mean if mean > 0 else float("inf"), 1 / p if p > 0 else float("inf")
            )
            if passes > MAX_EXPECTED_ATTACKER_STEPS:
                why = f"a mean pass of {mean:g} s over {horizon:g} s, finding a hidden host"
                why += f" with probability {p:g}, expects {passes:.3g} passes,"
                why += f" more than {MAX_EXPECTED_ATTACKER_STEPS}"
                raise ValidationError("defender.forensics_duration", why)

    return Scenario(
        topology=topology,
        mission=mission,
        attacker=attacker,
        defender=defender,
        replications=replications,
        base_seed=base_seed,
        horizon=horizon,
        source=source,
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    """Full document form with every default echoed."""
    mission = scenario.mission
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "infrastructure": graph_doc(scenario.topology),
        "mission": {
            "day_length": mission.day_length,
            "checkpoints": list(mission.checkpoints),
            "arrivals": _dist_doc(mission.arrivals),
            "personnel": dict(mission.personnel),
            "deadline_per_item": mission.deadline_per_item,
            "arrival_cutoff": mission.arrival_cutoff,
            "tasks": [
                {
                    "id": t.id,
                    "role": t.role,
                    "duration": _dist_doc(t.duration),
                    "rework": _dist_doc(t.rework_duration),
                    "requires": list(t.required_assets),
                    "after": list(t.predecessors),
                }
                for t in mission.tasks
            ],
        },
        "sim": {
            "replications": scenario.replications,
            "base_seed": scenario.base_seed,
            "horizon": scenario.horizon,
        },
    }
    if scenario.attacker is not None:
        d = scenario.defender
        doc["attacker"] = _spec_doc(scenario.attacker, _ATTACKER_FIELDS)
        doc["defender"] = None if d is None else _spec_doc(d, _DEFENDER_FIELDS)
    return doc


def save_scenario(scenario: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(scenario_to_dict(scenario), fh, sort_keys=False)


def bundled_path(name: str) -> str:
    """Filesystem path of a scenario or topology document shipped with the
    package (see ``miakit/scenarios/``)."""
    return str(resources.files("miakit").joinpath("scenarios", name))
