"""Mission process model: a workflow of tasks processing work items.

Work items (plans) arrive stochastically and visit tasks in precedence
order.  A task needs a free person of its role and working infrastructure:
its processing rate is scaled by the worst effective performance of its
required assets, re-evaluated on every infrastructure state change, and an
outage suspends in-flight work without losing progress.  Items touched
while a required asset is integrity-compromised are tainted; scheduled
consistency checkpoints (and an aware workforce) detect taint and send the
item to rework, otherwise the taint escapes as a corrupted completion.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

from .infrastructure import InfrastructureGraph, StateChange, Topology, effective_performance_all
from .kernel import Distribution, RngStream, Simulator, StreamFactory, sample


class CyclicPrecedence(Exception):
    pass


class UnknownRole(Exception):
    pass


class UnknownAssetBinding(Exception):
    def __init__(self, task_id: str, asset: str):
        super().__init__(f"task {task_id!r} bound to unknown asset {asset!r}")
        self.task_id = task_id


@dataclass(frozen=True)
class TaskSpec:
    id: str
    duration: Distribution
    role: str
    required_assets: tuple[str, ...] = ()
    predecessors: tuple[str, ...] = ()
    rework_duration: Distribution = Distribution.fixed(0.0)


@dataclass(frozen=True)
class MissionSpec:
    tasks: tuple[TaskSpec, ...]
    arrivals: Distribution
    personnel: dict
    day_length: float = 86_400.0
    horizon: float = 86_400.0
    checkpoints: tuple[float, ...] = ()
    deadline_per_item: float | None = None
    arrival_cutoff: float | None = None


@dataclass
class TaskWork:
    sampled: float
    rework: float = 0.0
    processed: float = 0.0
    remaining: float = 0.0


@dataclass
class WorkItem:
    id: int
    created_at: float
    current_task: str
    tainted: bool = False
    taint_sources: set = field(default_factory=set)
    completed_at: float | None = None
    outcome: str = "in_progress"
    work: dict = field(default_factory=dict)


@dataclass
class MissionResult:
    items: list
    task_utilization: dict
    blocked_time: dict
    awareness_time: float | None = None
    checkpoint_log: list = field(default_factory=list)


def validate_mission(
    spec: MissionSpec, graph: InfrastructureGraph | Topology | None = None
) -> MissionSpec:
    """Check references, compute a topological task order, return the
    normalized spec (tasks reordered so predecessors always come first)."""
    by_id = {}
    for task in spec.tasks:
        if task.id in by_id:
            raise ValueError(f"duplicate task id {task.id!r}")
        by_id[task.id] = task
    for task in spec.tasks:
        for pred in task.predecessors:
            if pred not in by_id:
                raise ValueError(f"task {task.id!r} names unknown predecessor {pred!r}")
        if task.role not in spec.personnel:
            raise UnknownRole(f"task {task.id!r} needs role {task.role!r} with no headcount")
        if spec.personnel[task.role] < 1:
            raise ValueError(f"role {task.role!r} must have headcount >= 1")
        if graph is not None:
            for asset in task.required_assets:
                if asset not in graph.assets:
                    raise UnknownAssetBinding(task.id, asset)
    for cp in spec.checkpoints:
        if not (0 <= cp < spec.day_length):
            raise ValueError(f"checkpoint {cp} outside [0, day_length)")

    ordered: list[TaskSpec] = []
    placed: set[str] = set()
    pending = list(spec.tasks)
    while pending:
        progressed = False
        for i, task in enumerate(pending):
            if all(p in placed for p in task.predecessors):
                ordered.append(task)
                placed.add(task.id)
                del pending[i]
                progressed = True
                break
        if not progressed:
            cyc = sorted(t.id for t in pending)
            raise CyclicPrecedence(f"precedence cycle among tasks {cyc}")
    return replace(spec, tasks=tuple(ordered))


def compute_utilization(spec: MissionSpec) -> dict:
    """Analytic offered load per role: arrival rate x mean work / headcount."""
    rate = 1.0 / spec.arrivals.mean()
    load: dict[str, float] = {role: 0.0 for role in spec.personnel}
    for task in spec.tasks:
        load[task.role] += task.duration.mean()
    return {role: rate * load[role] / spec.personnel[role] for role in load}


def apply_checkpoint(items: Iterable[WorkItem]) -> list[WorkItem]:
    """Examine items at a consistency checkpoint.

    Every tainted item's taint is detected and cleared; those items are
    returned as the rework set (the caller adds the rework effort).
    Untainted items pass.  Detection is unconditional.
    """
    rework: list[WorkItem] = []
    for item in items:
        if item.tainted:
            item.tainted = False
            rework.append(item)
    return rework


@dataclass
class _Run:
    item_id: int
    task_id: str
    role: str
    seized_at: float
    last_update: float
    factor: float
    generation: int = 0


class MissionRuntime:
    """Event-driven execution of one mission replication on a kernel.

    ``spec`` must come from :func:`validate_mission` against the graph's
    topology; it is used as given, not validated again.
    """

    def __init__(
        self,
        spec: MissionSpec,
        graph: InfrastructureGraph,
        sim: Simulator,
        streams: StreamFactory,
    ):
        self.spec = spec
        self.graph = graph
        self.sim = sim
        self.streams = streams
        self.arrival_stream = streams.stream(StreamFactory.ARRIVALS)

        self.tasks = {t.id: t for t in self.spec.tasks}
        self.order = [t.id for t in self.spec.tasks]
        self.items: dict[int, WorkItem] = {}
        self.item_streams: dict[int, RngStream] = {}
        self.queues: dict[str, deque[int]] = {t: deque() for t in self.order}
        self.runs: dict[int, _Run] = {}
        self.active_by_task: dict[str, set[int]] = {t: set() for t in self.order}
        self.free: dict[str, int] = dict(self.spec.personnel)
        self.busy_seconds: dict[str, float] = {r: 0.0 for r in self.spec.personnel}

        self.factors: dict[str, float] = {}
        self.blocked_since: dict[str, float | None] = {t: None for t in self.order}
        self.blocked_total: dict[str, float] = {t: 0.0 for t in self.order}

        self.completed_today: list[int] = []
        self.awareness = False
        self.awareness_time: float | None = None
        self.checkpoint_log: list = []
        self._task_start_hooks: list[Callable[[str, int, float], None]] = []
        self._next_item = 1
        self._finalized = False

    # -- wiring --------------------------------------------------------------

    def install(self) -> "MissionRuntime":
        self.graph.subscribe(self._on_state_change)
        self._refresh_factors(initial=True)
        first = sample(self.spec.arrivals, self.arrival_stream)
        if first <= self._arrival_end():
            self.sim.schedule("arrival", first, self._arrive)
        day_count = int(self.spec.horizon // self.spec.day_length) + 1
        for day in range(day_count):
            base = day * self.spec.day_length
            for cp in sorted(self.spec.checkpoints):
                t = base + cp
                if 0 < t <= self.spec.horizon:
                    self.sim.schedule(
                        "checkpoint", t, lambda t=t: self._checkpoint(t), data=(t,)
                    )
            day_end = base + self.spec.day_length
            if day_end <= self.spec.horizon:
                self.sim.schedule("day_end", day_end, self._finalize_day)
        return self

    def on_task_start(self, hook: Callable[[str, int, float], None]) -> None:
        self._task_start_hooks.append(hook)

    def set_aware(self, at: float) -> None:
        """Workforce becomes aware of the attack (defender declared detection).

        In-flight taint is re-examined immediately; from here on, tainted
        work is caught and reworked as each task wraps up.
        """
        if self.awareness:
            return
        self.awareness = True
        self.awareness_time = at
        in_progress = [
            i for i in self.items.values() if i.completed_at is None and i.outcome == "in_progress"
        ]
        rework = apply_checkpoint(in_progress)
        self.checkpoint_log.append((at, "detection_exam", len(rework)))
        for item in rework:
            self._add_rework(item)

    # -- arrival and service ---------------------------------------------------

    def _arrival_end(self) -> float:
        if self.spec.arrival_cutoff is None:
            return self.spec.horizon
        return min(self.spec.arrival_cutoff, self.spec.horizon)

    def _arrive(self) -> None:
        now = self.sim.now
        item_id = self._next_item
        self._next_item += 1
        stream = self.streams.item_stream(item_id)
        item = WorkItem(id=item_id, created_at=now, current_task=self.order[0])
        for task in self.spec.tasks:
            drawn = sample(task.duration, stream)
            item.work[task.id] = TaskWork(sampled=drawn, remaining=drawn)
        self.items[item_id] = item
        self.item_streams[item_id] = stream
        self.queues[self.order[0]].append(item_id)
        if self.spec.deadline_per_item is not None:
            self.sim.schedule(
                "deadline",
                now + self.spec.deadline_per_item,
                lambda i=item_id: self._deadline(i),
                data=(item_id,),
            )
        self._dispatch_task(self.order[0])
        nxt = now + sample(self.spec.arrivals, self.arrival_stream)
        if nxt <= self._arrival_end():
            self.sim.schedule("arrival", nxt, self._arrive)

    def _dispatch_role(self, role: str) -> None:
        for task_id in self.order:
            if self.tasks[task_id].role == role:
                self._dispatch_task(task_id)

    def _dispatch_task(self, task_id: str) -> None:
        task = self.tasks[task_id]
        queue = self.queues[task_id]
        while queue and self.free[task.role] > 0 and self.factors[task_id] > 0:
            item_id = queue.popleft()
            item = self.items[item_id]
            if item.outcome != "in_progress" or item.current_task != task_id:
                continue
            self._start_service(item, task)

    def _start_service(self, item: WorkItem, task: TaskSpec) -> None:
        now = self.sim.now
        self.free[task.role] -= 1
        run = _Run(item.id, task.id, task.role, now, now, self.factors[task.id])
        self.runs[item.id] = run
        self.active_by_task[task.id].add(item.id)
        self._check_taint(item, task)
        for hook in list(self._task_start_hooks):
            hook(task.id, item.id, now)
        self._schedule_completion(run)

    def _schedule_completion(self, run: _Run) -> None:
        run.generation += 1
        work = self.items[run.item_id].work[run.task_id]
        if run.factor <= 0:
            return
        eta = self.sim.now + work.remaining / run.factor
        self.sim.schedule(
            "task_complete",
            eta,
            lambda r=run, g=run.generation: self._complete(r, g),
            data=(run.item_id, run.task_id),
        )

    def _settle(self, run: _Run) -> None:
        """Credit work processed since the last update at the active rate."""
        now = self.sim.now
        if run.factor > 0 and now > run.last_update:
            done = (now - run.last_update) * run.factor
            work = self.items[run.item_id].work[run.task_id]
            done = min(done, work.remaining)
            work.processed += done
            work.remaining -= done
        run.last_update = now

    def _check_taint(self, item: WorkItem, task: TaskSpec) -> None:
        for asset in task.required_assets:
            if self.graph.states[asset].mode == "integrity_compromised":
                item.tainted = True
                item.taint_sources.add(asset)

    def _complete(self, run: _Run, generation: int) -> None:
        if self.runs.get(run.item_id) is not run or run.generation != generation:
            return
        item = self.items[run.item_id]
        task = self.tasks[run.task_id]
        work = item.work[run.task_id]
        work.processed += work.remaining
        work.remaining = 0.0
        run.last_update = self.sim.now

        if item.tainted and self.awareness:
            # Aware personnel re-validate on the spot instead of handing
            # corrupted output downstream.
            drawn = sample(task.rework_duration, self.item_streams[item.id])
            if drawn > 0:
                item.tainted = False
                work.rework += drawn
                work.remaining += drawn
                self._check_taint(item, task)
                self._schedule_completion(run)
                return

        self._release(run)
        idx = self.order.index(run.task_id)
        if idx + 1 < len(self.order):
            item.current_task = self.order[idx + 1]
            self.queues[item.current_task].append(item.id)
            self._dispatch_task(item.current_task)
        else:
            item.current_task = "done"
            item.completed_at = self.sim.now
            self.completed_today.append(item.id)
        self._dispatch_role(run.role)

    def _release(self, run: _Run) -> None:
        self.busy_seconds[run.role] += self.sim.now - run.seized_at
        self.free[run.role] += 1
        self.active_by_task[run.task_id].discard(run.item_id)
        del self.runs[run.item_id]

    def _deadline(self, item_id: int) -> None:
        item = self.items[item_id]
        if item.completed_at is not None or item.outcome != "in_progress":
            return
        item.outcome = "abandoned"
        run = self.runs.get(item_id)
        if run is not None:
            self._settle(run)
            run.generation += 1
            role = run.role
            self._release(run)
            self._dispatch_role(role)

    # -- rework and checkpoints ------------------------------------------------

    def _add_rework(self, item: WorkItem) -> None:
        """Charge the item's current task with its rework effort."""
        if item.completed_at is not None:
            last = self.order[-1]
            item.current_task = last
            item.completed_at = None
            if item.id in self.completed_today:
                self.completed_today.remove(item.id)
            drawn = sample(self.tasks[last].rework_duration, self.item_streams[item.id])
            item.work[last].rework += drawn
            item.work[last].remaining += drawn
            self.queues[last].append(item.id)
            self._dispatch_task(last)
            return
        task_id = item.current_task
        drawn = sample(self.tasks[task_id].rework_duration, self.item_streams[item.id])
        work = item.work[task_id]
        work.rework += drawn
        work.remaining += drawn
        run = self.runs.get(item.id)
        if run is not None:
            self._settle(run)
            self._schedule_completion(run)

    def _checkpoint(self, at: float) -> None:
        examined = [
            i
            for i in self.items.values()
            if i.outcome == "in_progress"
            and (i.completed_at is None or i.id in self.completed_today)
        ]
        rework = apply_checkpoint(examined)
        self.checkpoint_log.append((at, "checkpoint", len(rework)))
        for item in rework:
            self._add_rework(item)

    def _finalize_day(self) -> None:
        for item_id in self.completed_today:
            item = self.items[item_id]
            item.outcome = "completed_corrupted" if item.tainted else "completed_clean"
        self.completed_today = []

    # -- infrastructure coupling ------------------------------------------------

    def _task_factor(self, task: TaskSpec, perf: dict) -> float:
        if not task.required_assets:
            return 1.0
        return min(perf[a] for a in task.required_assets)

    def _refresh_factors(self, initial: bool = False) -> None:
        perf = effective_performance_all(self.graph)
        now = self.sim.now
        for task in self.spec.tasks:
            new_f = self._task_factor(task, perf)
            old_f = self.factors.get(task.id)
            self.factors[task.id] = new_f
            if initial:
                if new_f == 0:
                    self.blocked_since[task.id] = now
                continue
            if old_f == new_f:
                continue
            if old_f == 0 and new_f > 0:
                self.blocked_total[task.id] += now - self.blocked_since[task.id]
                self.blocked_since[task.id] = None
            elif old_f > 0 and new_f == 0:
                self.blocked_since[task.id] = now
            for item_id in sorted(self.active_by_task[task.id]):
                run = self.runs[item_id]
                self._settle(run)
                run.factor = new_f
                self._schedule_completion(run)
            if new_f > 0 and old_f == 0:
                self._dispatch_task(task.id)

    def _on_state_change(self, change: StateChange) -> None:
        self._refresh_factors()
        if change.new.mode == "integrity_compromised":
            for task in self.spec.tasks:
                if change.asset_id in task.required_assets:
                    for item_id in sorted(self.active_by_task[task.id]):
                        item = self.items[item_id]
                        item.tainted = True
                        item.taint_sources.add(change.asset_id)

    # -- results -----------------------------------------------------------------

    def finalize(self) -> MissionResult:
        if self._finalized:
            raise RuntimeError("finalize() may only be called once")
        self._finalized = True
        horizon = self.spec.horizon
        self._finalize_day()
        for run in self.runs.values():
            self._settle(run)
            self.busy_seconds[run.role] += horizon - run.seized_at
        for task_id, since in self.blocked_since.items():
            if since is not None:
                self.blocked_total[task_id] += horizon - since
                self.blocked_since[task_id] = None
        utilization = {
            role: self.busy_seconds[role] / (self.spec.personnel[role] * horizon)
            for role in self.spec.personnel
        }
        items = [self.items[k] for k in sorted(self.items)]
        return MissionResult(
            items=items,
            task_utilization=utilization,
            blocked_time=dict(self.blocked_total),
            awareness_time=self.awareness_time,
            checkpoint_log=list(self.checkpoint_log),
        )


def simulate_mission(
    spec: MissionSpec,
    graph: InfrastructureGraph,
    kernel: Simulator,
    streams: StreamFactory,
) -> MissionResult:
    """Validate ``spec`` and run the mission alone (no adversary) to its horizon."""
    runtime = MissionRuntime(validate_mission(spec, graph), graph, kernel, streams).install()
    kernel.run_until(spec.horizon)
    return runtime.finalize()
