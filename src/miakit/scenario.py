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
    ValidationError,
    _list,
    _mapping,
    _read_float,
    _read_int,
    _read_key,
    _read_keys,
    _require,
    read_text,
    within,
)
from .infrastructure import InfrastructureGraph, Topology, build_topology, graph_doc
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
            return StartPolicy.process_triggered(_read_key(param, "start"))
    raise ValidationError("start", f"cannot read start policy {value!r}")


def _start_doc(policy: StartPolicy) -> dict:
    if policy.kind == "fixed":
        return {"fixed": policy.at}
    if policy.kind == "random":
        return {"random": policy.window}
    return {"task": policy.task}


# How each field of a document section is read from the document and echoed
# back to it, in echo order.  A field that is absent or null takes the spec's
# default; one without a default is required.
_TASK_FIELDS = {
    "id": (_read_key, str),
    "role": (_read_key, str),
    "duration": (parse_distribution, _dist_doc),
    "rework": (parse_distribution, _dist_doc),
    "requires": (_read_keys, list),
    "after": (_read_keys, list),
}
_MISSION_FIELDS = {
    "day_length": (parse_duration, float),
    "checkpoints": (
        lambda value, name: tuple(parse_duration(c, name) for c in _list(value, name)),
        list,
    ),
    "arrivals": (parse_distribution, _dist_doc),
    "personnel": (
        lambda value, name: {
            _read_key(r, f"{name}.{r}"): _read_int(n, f"{name}.{r}")
            for r, n in _mapping(value, name).items()
        },
        dict,
    ),
    "deadline_per_item": (parse_duration, lambda seconds: seconds),
    "arrival_cutoff": (parse_duration, lambda seconds: seconds),
    "tasks": (
        lambda value, name: tuple(
            _read_spec(TaskSpec, _TASK_FIELDS, t, f"{name}[{i}]")
            for i, t in enumerate(_list(value, name))
        ),
        lambda tasks: [_spec_doc(t, _TASK_FIELDS) for t in tasks],
    ),
}
_ATTACKER_FIELDS = {
    "target": (_read_key, str),
    "effect": (lambda value, _: parse_effect(value), _effect_doc),
    "start": (lambda value, _: parse_start(value), _start_doc),
    "capabilities": (lambda value, name: frozenset(_read_keys(value, name)), sorted),
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
_SIM_FIELDS = {
    "replications": (_read_int, int),
    "base_seed": (_read_int, int),
    "horizon": (parse_duration, float),
}
# The document keys whose spec attribute has another name.
_ATTRIBUTE = {"rework": "rework_duration", "requires": "required_assets", "after": "predecessors"}
_KEY = {attribute: key for key, attribute in _ATTRIBUTE.items()}


def _read_spec(spec_type: type, table: dict, doc: Any, path: str, **given: Any) -> Any:
    """``spec_type`` built from the document section at ``path`` through
    ``table``.  ``given`` holds the attributes read elsewhere, or a value
    for an absent or null field that has no default in the spec."""
    doc = _mapping(doc, path)
    with within(path):
        for f in dataclasses.fields(spec_type):
            key = _KEY.get(f.name, f.name)
            if key in table and doc.get(key) is not None:
                given[f.name] = table[key][0](doc[key], key)
            elif f.name not in given and f.default is dataclasses.MISSING:
                raise ValidationError(key, "missing required field")
        return spec_type(**given)


def _spec_doc(spec: Any, table: dict) -> dict:
    return {key: echo(getattr(spec, _ATTRIBUTE.get(key, key))) for key, (_, echo) in table.items()}


@dataclass
class Scenario:
    topology: Topology
    mission: MissionSpec
    attacker: AttackerSpec | None = None
    defender: DefenderSpec | None = None
    replications: int = 1
    base_seed: int = 0
    horizon: float = 86_400.0
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
    # The sim section reads straight onto the scenario; each other section
    # is set on it once read.
    sim_doc = doc.get("sim")
    scenario = _read_spec(Scenario, _SIM_FIELDS, sim_doc, "sim", topology=topology, mission=None)
    horizon = scenario.horizon
    if not 0 < horizon < float("inf"):
        raise ValidationError("sim.horizon", "must be positive and finite")
    if scenario.replications < 1:
        raise ValidationError("sim.replications", "must be >= 1")
    if scenario.base_seed < 0:
        raise ValidationError("sim.base_seed", "must be >= 0")

    mission_doc = _require(doc, "mission", "scenario")
    mission = _read_spec(
        MissionSpec, _MISSION_FIELDS, mission_doc, "mission",
        tasks=(), personnel={}, horizon=horizon,
    )
    with within("mission"):
        mission = validate_mission(mission, topology)

    attacker = None
    defender = None
    if doc.get("attacker") is not None:
        attacker = _read_spec(AttackerSpec, _ATTACKER_FIELDS, doc["attacker"], "attacker")
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
            defender = _read_spec(DefenderSpec, _DEFENDER_FIELDS, doc["defender"], "defender")
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

    return dataclasses.replace(
        scenario, mission=mission, attacker=attacker, defender=defender, source=source
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    """Full document form with every default echoed."""
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "infrastructure": graph_doc(scenario.topology),
        "mission": _spec_doc(scenario.mission, _MISSION_FIELDS),
        "sim": _spec_doc(scenario, _SIM_FIELDS),
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
