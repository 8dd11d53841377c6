"""Adversary and defender process models.

The attacker is a staged kill-chain state machine: spearphish an end-user
node for access, scan and hop laterally across adjacent vulnerable assets,
and on reaching the target apply a confidentiality, integrity, or
availability effect to it.  The defender detects the effect after a delay,
runs repeated forensics passes that each discover hidden foothold hosts
with some probability, and remediates every discovered host until the
attacker is evicted.  Both interact with the rest of the simulation only
through kernel events and infrastructure state changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .fields import MiakitError, ValidationError
from .infrastructure import AssetState, InfrastructureGraph, set_state
from .kernel import Distribution, RngStream, Simulator, sample

PHASES = ("dormant", "access", "lateral_movement", "exploitation", "effect_active", "evicted")


class NoEndUserNodes(MiakitError):
    pass


class UnknownTarget(MiakitError):
    pass


class MissingOnset(Exception):
    pass


@dataclass(frozen=True)
class EffectSpec:
    """What happens to the target: availability stop/degrade, integrity, or
    confidentiality compromise."""

    kind: str
    degrade_factor: float | None = None

    def __post_init__(self):
        if self.kind not in ("availability_stop", "availability_degrade", "integrity", "confidentiality"):
            raise ValidationError("effect", f"unknown effect {self.kind!r}")
        if self.kind == "availability_degrade" and not (
            self.degrade_factor is not None and 0.0 < self.degrade_factor < 1.0
        ):
            raise ValidationError("effect", "degrade factor must lie strictly in (0, 1)")

    def to_state(self) -> AssetState:
        if self.kind == "availability_stop":
            return AssetState("unavailable")
        if self.kind == "availability_degrade":
            return AssetState("degraded", factor=self.degrade_factor)
        if self.kind == "integrity":
            return AssetState("integrity_compromised")
        return AssetState("confidentiality_compromised")


@dataclass(frozen=True)
class StartPolicy:
    kind: str  # fixed | random | process_triggered
    at: float = 0.0
    window: float = 0.0
    task: str | None = None

    @classmethod
    def fixed(cls, at: float) -> "StartPolicy":
        return cls("fixed", at=at)

    @classmethod
    def random(cls, window: float) -> "StartPolicy":
        return cls("random", window=window)

    @classmethod
    def process_triggered(cls, task: str) -> "StartPolicy":
        return cls("process_triggered", task=task)


@dataclass(frozen=True)
class AttackerSpec:
    target: str
    effect: EffectSpec
    start: StartPolicy
    capabilities: frozenset = frozenset()
    spearphish_success_prob: float = 1.0
    spearphish_interval: Distribution = Distribution.fixed(60.0)
    scan_interval: Distribution = Distribution.fixed(60.0)
    proficiency: float = 1.0
    agility: float = 1.0

    def __post_init__(self):
        for name, p in (
            ("spearphish_success_prob", self.spearphish_success_prob),
            ("proficiency", self.proficiency),
        ):
            if not (0.0 <= p <= 1.0):
                raise ValidationError(name, f"must be a probability, got {p}")
        if not (0.0 < self.agility <= 1.0):
            raise ValidationError("agility", f"must lie in (0, 1], got {self.agility}")
        # A zero interval would repeat a failing phish or an empty scan at
        # one simulated instant forever.
        for name in ("spearphish_interval", "scan_interval"):
            if getattr(self, name).mean() <= 0:
                raise ValidationError(name, "mean interval must be positive")


@dataclass(frozen=True)
class DefenderSpec:
    detect_delay: Distribution = Distribution.fixed(3600.0)
    forensics_duration: Distribution = Distribution.fixed(1800.0)
    per_host_discovery_prob: float = 1.0
    remediation_per_host: Distribution = Distribution.fixed(1800.0)

    def __post_init__(self):
        if not (0.0 <= self.per_host_discovery_prob <= 1.0):
            raise ValidationError("per_host_discovery_prob", "must be a probability")
        # Passes that find nothing repeat until the horizon; instant ones
        # would repeat at one simulated instant forever.
        if self.per_host_discovery_prob == 0 and self.forensics_duration.mean() <= 0:
            raise ValidationError(
                "forensics_duration", "mean must be positive when per_host_discovery_prob is 0"
            )


@dataclass(frozen=True)
class TimelineEntry:
    time: float
    kind: str
    detail: str = ""


@dataclass
class AttackTimeline:
    entries: list = field(default_factory=list)
    horizon: float = 0.0

    def add(self, time: float, kind: str, detail: str = "") -> None:
        self.entries.append(TimelineEntry(time, kind, detail))

    def first(self, kind: str) -> TimelineEntry | None:
        for entry in self.entries:
            if entry.kind == kind:
                return entry
        return None


@dataclass(frozen=True)
class AttackDuration:
    seconds: float
    open_ended: bool


def attack_duration(timeline: AttackTimeline) -> AttackDuration:
    """Effect onset to eviction, or to the horizon (open-ended) if the
    defender never finished."""
    onset = timeline.first("effect_onset")
    if onset is None:
        raise MissingOnset("timeline has no effect onset")
    eviction = timeline.first("eviction")
    if eviction is None:
        return AttackDuration(timeline.horizon - onset.time, True)
    return AttackDuration(eviction.time - onset.time, False)


class AttackerRuntime:
    """Kill-chain process bound to a kernel, a graph, and one random stream."""

    def __init__(
        self,
        spec: AttackerSpec,
        graph: InfrastructureGraph,
        sim: Simulator,
        stream: RngStream,
        mission=None,
    ):
        self.spec = spec
        self.graph = graph
        self.sim = sim
        self.stream = stream
        self.mission = mission
        self.phase = "dormant"
        self.foothold: list[str] = []
        self._hops: list[str] | None = None  # eligible hops from the current foothold
        self.timeline = AttackTimeline()
        self.onset_listeners: list[Callable[[float], None]] = []
        self._end_users = graph.end_user_nodes()
        if spec.target not in graph.assets:
            raise UnknownTarget(f"attack target {spec.target!r} not in graph")
        if not self._end_users:
            raise NoEndUserNodes("spearphishing needs at least one end_user_node")

    def install(self) -> "AttackerRuntime":
        policy = self.spec.start
        if policy.kind == "fixed":
            self.sim.schedule("attack_start", policy.at, self._begin)
        elif policy.kind == "random":
            at = self.stream.uniform(0.0, policy.window)
            self.sim.schedule("attack_start", at, self._begin)
        elif policy.kind == "process_triggered":
            if self.mission is None:
                raise ValueError("process_triggered start needs the mission runtime")
            armed = {"done": False}

            def hook(task_id: str, item_id: int, at: float) -> None:
                if not armed["done"] and task_id == policy.task:
                    armed["done"] = True
                    self._begin()

            self.mission.on_task_start(hook)
        else:
            raise ValueError(f"unknown start policy {policy.kind!r}")
        return self

    # -- kill chain ------------------------------------------------------------

    def _begin(self) -> None:
        if self.phase != "dormant":
            return
        self._transition("access")
        self._schedule_phish()

    def _transition(self, phase: str) -> None:
        self.phase = phase
        self.timeline.add(self.sim.now, "phase", phase)

    def _schedule_phish(self) -> None:
        delay = sample(self.spec.spearphish_interval, self.stream) * self.spec.agility
        self.sim.schedule("spearphish", self.sim.now + delay, self._phish)

    def _phish(self) -> None:
        if self.phase != "access":
            return
        victim = self._end_users[self.stream.integers(len(self._end_users))]
        if self.stream.random() < self.spec.spearphish_success_prob:
            self.foothold.append(victim)
            self._hops = None
            self.timeline.add(self.sim.now, "access_success", victim)
            if victim == self.spec.target:
                self._transition("exploitation")
                self._apply_effect()
            else:
                self._transition("lateral_movement")
                self._schedule_scan()
        else:
            self.timeline.add(self.sim.now, "access_failure", victim)
            self._schedule_phish()

    def _schedule_scan(self) -> None:
        delay = sample(self.spec.scan_interval, self.stream) * self.spec.agility
        self.sim.schedule("scan", self.sim.now + delay, self._scan)

    def _eligible_hops(self) -> list[str]:
        """Vulnerable neighbours of the foothold, sorted; recomputed only after
        the foothold changes, from each host's entry in the topology's table."""
        if self._hops is None:
            near: set[str] = set()
            for host in self.foothold:
                near.update(self.graph.exploitable_neighbors(host, self.spec.capabilities))
            near.difference_update(self.foothold)
            self._hops = sorted(near)
        return self._hops

    def _scan(self) -> None:
        if self.phase != "lateral_movement":
            return
        hops = self._eligible_hops()
        if hops:
            choice = hops[self.stream.integers(len(hops))]
            if self.stream.random() < self.spec.proficiency:
                self.foothold.append(choice)
                self._hops = None
                self.timeline.add(self.sim.now, "lateral_move", choice)
                if choice == self.spec.target:
                    self._transition("exploitation")
                    self.timeline.add(self.sim.now, "exploit_success", choice)
                    self._apply_effect()
                    return
            else:
                self.timeline.add(self.sim.now, "exploit_failure", choice)
        self._schedule_scan()

    def _apply_effect(self) -> None:
        now = self.sim.now
        state = self.spec.effect.to_state()
        set_state(self.graph, self.spec.target, state, now)
        self._transition("effect_active")
        self.timeline.add(now, "effect_onset", f"{self.spec.effect.kind}:{self.spec.target}")
        for listener in list(self.onset_listeners):
            listener(now)

    # -- defender callbacks ------------------------------------------------------

    def remediate_host(self, host: str, at: float) -> None:
        if host in self.foothold:
            self.foothold.remove(host)
            self._hops = None
        if host == self.spec.target and self.graph.states[host].mode != "operational":
            set_state(self.graph, host, AssetState("operational"), at)
            self.timeline.add(at, "effect_end", host)
        self.timeline.add(at, "host_remediated", host)
        if not self.foothold and self.phase != "evicted":
            self._transition("evicted")
            self.timeline.add(at, "eviction")


class DefenderRuntime:
    """Detect, forensics, remediate loop driven by effect-onset events."""

    def __init__(
        self,
        spec: DefenderSpec,
        sim: Simulator,
        stream: RngStream,
        attacker: AttackerRuntime,
        mission=None,
    ):
        self.spec = spec
        self.sim = sim
        self.stream = stream
        self.attacker = attacker
        self.mission = mission
        self.found: list[str] = []

    def install(self) -> "DefenderRuntime":
        self.attacker.onset_listeners.append(self._on_effect_onset)
        return self

    def _on_effect_onset(self, at: float) -> None:
        delay = sample(self.spec.detect_delay, self.stream)
        self.sim.schedule("detection", at + delay, self._detect)

    def _detect(self) -> None:
        now = self.sim.now
        self.attacker.timeline.add(now, "detection")
        if self.mission is not None:
            self.mission.set_aware(now)
        self._schedule_pass()

    def _schedule_pass(self) -> None:
        duration = sample(self.spec.forensics_duration, self.stream)
        self.sim.schedule("forensics_pass", self.sim.now + duration, self._finish_pass)

    def _finish_pass(self) -> None:
        now = self.sim.now
        self.attacker.timeline.add(now, "forensics_pass")
        hidden = [h for h in self.attacker.foothold if h not in self.found]
        for host in hidden:
            if self.stream.random() < self.spec.per_host_discovery_prob:
                self.found.append(host)
                delay = sample(self.spec.remediation_per_host, self.stream)
                self.sim.schedule(
                    "remediation", now + delay, self._remediate, data=(host,), args=(host,)
                )
        if any(h not in self.found for h in self.attacker.foothold):
            self._schedule_pass()

    def _remediate(self, host: str) -> None:
        self.attacker.remediate_host(host, self.sim.now)


def attacker_process(
    spec: AttackerSpec,
    graph: InfrastructureGraph,
    kernel: Simulator,
    stream: RngStream,
    mission=None,
) -> AttackerRuntime:
    """Validate and install the attacker on a kernel; returns its runtime."""
    return AttackerRuntime(spec, graph, kernel, stream, mission).install()


def defender_process(
    spec: DefenderSpec,
    kernel: Simulator,
    stream: RngStream,
    attacker: AttackerRuntime,
    mission=None,
) -> DefenderRuntime:
    """Install the defender loop; it reacts to the attacker's effect onset."""
    return DefenderRuntime(spec, kernel, stream, attacker, mission).install()
