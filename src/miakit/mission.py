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
from functools import cached_property
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple

from .fields import ValidationError
from .infrastructure import InfrastructureGraph, StateChange, Topology, effective_performance
from .kernel import Distribution, Simulator, StreamFactory, sample

_COMPROMISED = "integrity_compromised"

# The most checkpoint and day-end events a mission may put on the calendar,
# which :meth:`MissionRuntime.install` schedules up front (a few hundred
# bytes each), and the most work items one run may expect to create.  A
# document past either is refused at validation instead of exhausting
# memory or running for hours.
MAX_CALENDAR_EVENTS = 1_000_000
MAX_EXPECTED_ITEMS = 1_000_000


class CyclicPrecedence(ValidationError):
    pass


class UnknownRole(ValidationError):
    pass


class UnknownAssetBinding(ValidationError):
    pass


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

    @cached_property
    def index(self) -> "MissionIndex":
        """The tasks and roles numbered for the runtime, built on first use
        and shared by every replication of this spec."""
        return MissionIndex(self)


@dataclass
class TaskWork:
    sampled: float
    rework: float = 0.0
    processed: float = 0.0
    remaining: float = 0.0


@dataclass
class MissionResult:
    """The outcome of one mission run.  ``items`` are the runtime's own
    :class:`WorkItem` objects in arrival order, not copies."""

    items: list
    task_utilization: dict
    blocked_time: dict
    awareness_time: float | None = None
    checkpoint_log: list = field(default_factory=list)


def validate_mission(
    spec: MissionSpec, graph: InfrastructureGraph | Topology | None = None
) -> MissionSpec:
    """Check references, compute a topological task order, return the
    normalized spec (tasks reordered so predecessors always come first).
    An error is a :class:`~miakit.fields.ValidationError` naming the field
    of the mission document by the task's index, such as ``tasks[0].after``."""
    if spec.arrivals.mean() <= 0:
        raise ValidationError("arrivals", "mean interval between arrivals must be positive")
    if spec.day_length <= 0:
        raise ValidationError("day_length", "must be positive")
    by_id = {}
    for i, task in enumerate(spec.tasks):
        if task.id in by_id:
            raise ValidationError(f"tasks[{i}].id", f"duplicate task id {task.id!r}")
        by_id[task.id] = task
    for i, task in enumerate(spec.tasks):
        for pred in task.predecessors:
            if pred not in by_id:
                raise ValidationError(f"tasks[{i}].after", f"unknown predecessor {pred!r}")
        if task.role not in spec.personnel:
            raise UnknownRole(f"tasks[{i}].role", f"role {task.role!r} has no headcount")
        if spec.personnel[task.role] < 1:
            raise ValidationError(f"personnel.{task.role}", "headcount must be >= 1")
        if graph is not None:
            for asset in task.required_assets:
                if asset not in graph.assets:
                    why = f"task {task.id!r} bound to unknown asset {asset!r}"
                    raise UnknownAssetBinding(f"tasks[{i}].requires", why)
    for cp in spec.checkpoints:
        if not (0 <= cp < spec.day_length):
            raise ValidationError("checkpoints", f"checkpoint {cp} outside [0, day_length)")
    calendar = (spec.horizon // spec.day_length + 1) * (len(spec.checkpoints) + 1)
    if calendar > MAX_CALENDAR_EVENTS:
        why = (
            f"{spec.day_length:g} s days over a {spec.horizon:g} s horizon schedule {calendar:.3g}"
            f" checkpoint and day-end events, more than {MAX_CALENDAR_EVENTS}"
        )
        raise ValidationError("day_length", why)
    window = spec.horizon if spec.arrival_cutoff is None else min(spec.arrival_cutoff, spec.horizon)
    mean = spec.arrivals.mean()
    expected = window / mean
    if expected > MAX_EXPECTED_ITEMS:
        why = (
            f"a mean interval of {mean:g} s over {window:g} s of arrivals expects {expected:.3g}"
            f" work items, more than {MAX_EXPECTED_ITEMS}"
        )
        raise ValidationError("arrivals", why)

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
            raise CyclicPrecedence("tasks", f"precedence cycle among tasks {cyc}")
    return replace(spec, tasks=tuple(ordered))


class ReplicationDraws(NamedTuple):
    """What one replication draws outside the model's control: the arrival
    times (each the one before plus a gap from the arrivals stream, up to
    the arrival cutoff) and each item's task durations, item ``i`` at
    ``durations[i - 1]``.  The attack and attack-free runs of a replication
    draw the same values, so one run draws them and the other reads them."""

    arrivals: tuple[float, ...]
    durations: tuple[tuple[float, ...], ...]


class MissionIndex:
    """A mission spec's tasks and roles as integers, for the runtime.

    Task ``i`` is the i-th task of the spec (its workflow order, so the next
    task is ``i + 1``); role ``r`` is the r-th key of ``personnel``.

    The index also keeps the last replication's :class:`ReplicationDraws`,
    keyed by (base seed, replication); see :meth:`draws`.
    """

    def __init__(self, spec: MissionSpec):
        self.arrivals = spec.arrivals
        self.arrival_end = (
            spec.horizon if spec.arrival_cutoff is None else min(spec.arrival_cutoff, spec.horizon)
        )
        self.task_ids = tuple(t.id for t in spec.tasks)
        self.roles = tuple(spec.personnel)
        self.headcount = tuple(spec.personnel[r] for r in self.roles)
        role_of = {r: i for i, r in enumerate(self.roles)}
        self.task_role = tuple(role_of[t.role] for t in spec.tasks)
        self.durations = tuple(t.duration for t in spec.tasks)
        self.reworks = tuple(t.rework_duration for t in spec.tasks)
        self.required = tuple(t.required_assets for t in spec.tasks)
        self.role_tasks = tuple(
            tuple(i for i, r in enumerate(self.task_role) if r == role)
            for role in range(len(self.roles))
        )
        needing: dict[str, list[int]] = {}
        for i, assets in enumerate(self.required):
            for asset in dict.fromkeys(assets):
                needing.setdefault(asset, []).append(i)
        self.tasks_needing = {a: tuple(ts) for a, ts in needing.items()}
        self._draws: tuple[tuple[int, int], ReplicationDraws] | None = None

    def draws(self, streams: StreamFactory) -> tuple[ReplicationDraws, list | None]:
        """The draws of ``streams``' replication, and the items' streams,
        item ``i`` at ``i - 1``, past their duration draws, when this call
        drew them; None when they came from the cache.

        The cache holds one entry, replaced by a call with another key.  An
        entry is a function of its key alone and is never changed once
        stored, so threads that miss together store equal entries.
        """
        key = (streams.base_seed, streams.replication)
        cached = self._draws
        if cached is not None and cached[0] == key:
            return cached[1], None
        arrival_stream = streams.stream(StreamFactory.ARRIVALS)
        arrivals = []
        at = sample(self.arrivals, arrival_stream)
        while at <= self.arrival_end:
            arrivals.append(at)
            at += sample(self.arrivals, arrival_stream)
        item_streams = [streams.item_stream(i) for i in range(1, len(arrivals) + 1)]
        durations = tuple(
            tuple([sample(d, stream) for d in self.durations]) for stream in item_streams
        )
        drawn = ReplicationDraws(tuple(arrivals), durations)
        self._draws = (key, drawn)
        return drawn, item_streams


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
    Untainted items pass.  Detection is unconditional.  Only the ``tainted``
    flag is read and cleared; the runtime passes the items the run reports.
    """
    rework: list[WorkItem] = []
    for item in items:
        if item.tainted:
            item.tainted = False
            rework.append(item)
    return rework


class WorkItem:
    """A work item (plan): the runtime's live record, and the one the run
    reports.  ``task`` indexes ``task_ids`` (their count once done), and the
    per-task work figures are in that order: ``sampled`` is the replication's
    tuple of drawn durations, the others are lists; ``current_task`` and
    ``work`` are read-only views of them, computed on each read.  ``stream``
    is the item's random stream, for its rework draws, or None until a run
    that read the durations from the cache needs it.

    While the item is being worked on, it also holds its run state: when a
    person took it up (``seized_at``), when its progress was last credited
    (``last_update``), the task's rate at that time (``factor``), and the
    number of its latest completion event (``generation``).  The generation
    only grows over the item's life, so a completion event scheduled before
    a rate change, an abandonment or an earlier task never matches again.
    """

    __slots__ = (
        "id", "created_at", "task_ids", "stream", "task", "tainted", "taint_sources",
        "completed_at", "outcome", "sampled", "rework", "processed", "remaining",
        "seized_at", "last_update", "factor", "generation",
    )

    def __init__(self, item_id: int, created_at: float, task_ids: tuple, sampled: tuple, stream):
        self.id = item_id
        self.created_at = created_at
        self.task_ids = task_ids
        self.stream = stream
        self.task = 0
        self.tainted = False
        self.taint_sources: set = set()
        self.completed_at: float | None = None
        self.outcome = "in_progress"
        self.sampled = sampled
        self.rework = [0.0] * len(sampled)
        self.processed = [0.0] * len(sampled)
        self.remaining = list(sampled)
        self.seized_at = 0.0
        self.last_update = 0.0
        self.factor = 0.0
        self.generation = 0

    @property
    def current_task(self) -> str:
        """The current task's id, or ``"done"`` past the last task."""
        return self.task_ids[self.task] if self.task < len(self.task_ids) else "done"

    @property
    def work(self) -> dict[str, TaskWork]:
        """Each task's effort figures, by task id."""
        figures = zip(self.sampled, self.rework, self.processed, self.remaining)
        return {tid: TaskWork(*f) for tid, f in zip(self.task_ids, figures)}


class MissionRuntime:
    """Event-driven execution of one mission replication on a kernel.

    ``spec`` must come from :func:`validate_mission` against the graph's
    topology; it is used as given, not validated again.  Tasks and roles
    are read through ``spec.index``, which every replication shares.

    ``runs`` maps the id of each item being worked on to the item itself,
    which carries its run state (see :class:`WorkItem`); the person's role
    is its task's.  ``taint_counts[task]`` is how many of the task's
    distinct required assets are integrity-compromised: set at
    :meth:`install` and kept on every state change, so a start walks the
    task's assets for taint only while one of them is compromised.  The
    ``data`` of the per-item events, which only a trace records, is built
    only when the kernel records a trace.
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
        self.index = ix = spec.index
        n = len(ix.task_ids)

        self.items: dict[int, WorkItem] = {}
        self.queues: list[deque[WorkItem]] = [deque() for _ in range(n)]
        self.runs: dict[int, WorkItem] = {}
        self.free = list(ix.headcount)
        self.busy_seconds = [0.0] * len(ix.roles)

        self.factors = [0.0] * n
        self.taint_counts = [0] * n
        self.blocked_since: list[float | None] = [None] * n
        self.blocked_total = [0.0] * n

        self.completed_today: list[WorkItem] = []
        self.awareness = False
        self.awareness_time: float | None = None
        self.checkpoint_log: list = []
        self._task_start_hooks: list[Callable[[str, int, float], None]] = []
        self._next_item = 1
        self._draws = ReplicationDraws((), ())
        self._item_streams: list | None = None
        self._finalized = False

    # -- wiring --------------------------------------------------------------

    def install(self) -> "MissionRuntime":
        self.graph.subscribe(self._on_state_change)
        states = self.graph.states
        self.taint_counts = [
            sum(states[a].mode == _COMPROMISED for a in dict.fromkeys(assets))
            for assets in self.index.required
        ]
        self._refresh_factors(initial=True)
        self._draws, self._item_streams = self.index.draws(self.streams)
        if self._draws.arrivals:
            self.sim.schedule("arrival", self._draws.arrivals[0], self._arrive)
        day_count = int(self.spec.horizon // self.spec.day_length) + 1
        for day in range(day_count):
            base = day * self.spec.day_length
            for cp in sorted(self.spec.checkpoints):
                t = base + cp
                if 0 < t <= self.spec.horizon:
                    self.sim.schedule("checkpoint", t, self._checkpoint, data=(t,), args=(t,))
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
    #
    # A dispatch call is skipped where its loop would not run: an empty
    # queue, no free person of the role, or a blocked task.

    def _arrive(self) -> None:
        sim = self.sim
        now = sim.now
        ix = self.index
        item_id = self._next_item
        self._next_item = item_id + 1
        draws = self._draws
        streams = self._item_streams
        stream = None if streams is None else streams[item_id - 1]
        item = WorkItem(item_id, now, ix.task_ids, draws.durations[item_id - 1], stream)
        self.items[item_id] = item
        self.queues[0].append(item)
        if self.spec.deadline_per_item is not None:
            sim.schedule(
                "deadline",
                now + self.spec.deadline_per_item,
                self._deadline,
                data=(item_id,) if sim.record_trace else (),
                args=(item,),
            )
        if self.free[ix.task_role[0]] > 0 and self.factors[0] > 0:
            self._dispatch_task(0)
        if item_id < len(draws.arrivals):
            sim.schedule("arrival", draws.arrivals[item_id], self._arrive)

    def _dispatch_role(self, role: int) -> None:
        free = self.free
        queues = self.queues
        factors = self.factors
        for task in self.index.role_tasks[role]:
            if free[role] == 0:
                return
            if queues[task] and factors[task] > 0:
                self._dispatch_task(task)

    def _dispatch_task(self, task: int) -> None:
        """Start queued items on ``task`` while a person is free and the task
        is not blocked; items abandoned or moved on since are dropped.  Each
        start schedules its item's completion, as :meth:`_schedule_completion`
        would, after the start hooks have run."""
        queue = self.queues[task]
        ix = self.index
        role = ix.task_role[task]
        free = self.free
        factors = self.factors
        runs = self.runs
        sim = self.sim
        now = sim.now
        while queue and free[role] > 0 and factors[task] > 0:
            item = queue.popleft()
            if item.outcome != "in_progress" or item.task != task:
                continue
            free[role] -= 1
            item.seized_at = item.last_update = now
            item.factor = factors[task]
            runs[item.id] = item
            if self.taint_counts[task]:
                self._check_taint(item, task)
            if self._task_start_hooks:
                task_id = ix.task_ids[task]
                for hook in list(self._task_start_hooks):
                    hook(task_id, item.id, now)
            # A hook may have changed the task's rate, so it is read again.
            item.generation = generation = item.generation + 1
            if item.factor > 0:
                sim.schedule(
                    "task_complete",
                    now + item.remaining[task] / item.factor,
                    self._complete,
                    data=(item.id, ix.task_ids[task]) if sim.record_trace else (),
                    args=(item, generation),
                )

    def _schedule_completion(self, item: WorkItem) -> None:
        item.generation += 1
        if item.factor <= 0:
            return
        sim = self.sim
        task = item.task
        sim.schedule(
            "task_complete",
            sim.now + item.remaining[task] / item.factor,
            self._complete,
            data=(item.id, self.index.task_ids[task]) if sim.record_trace else (),
            args=(item, item.generation),
        )

    def _settle(self, item: WorkItem) -> None:
        """Credit work processed since the last update at the active rate."""
        now = self.sim.now
        if item.factor > 0 and now > item.last_update:
            done = (now - item.last_update) * item.factor
            task = item.task
            done = min(done, item.remaining[task])
            item.processed[task] += done
            item.remaining[task] -= done
        item.last_update = now

    def _check_taint(self, item: WorkItem, task: int) -> None:
        states = self.graph.states
        for asset in self.index.required[task]:
            if states[asset].mode == _COMPROMISED:
                item.tainted = True
                item.taint_sources.add(asset)

    def _complete(self, item: WorkItem, generation: int) -> None:
        if item.generation != generation:
            return
        task = item.task
        remaining = item.remaining
        item.processed[task] += remaining[task]
        remaining[task] = 0.0
        now = item.last_update = self.sim.now
        ix = self.index

        if item.tainted and self.awareness:
            # Aware personnel re-validate on the spot instead of handing
            # corrupted output downstream.
            drawn = self._draw_rework(item, task)
            if drawn > 0:
                item.tainted = False
                item.rework[task] += drawn
                remaining[task] += drawn
                if self.taint_counts[task]:
                    self._check_taint(item, task)
                self._schedule_completion(item)
                return

        # Release the person (as _release does), move the item on, then
        # offer the person the role's queues (as _dispatch_role does).
        role = ix.task_role[task]
        free = self.free
        self.busy_seconds[role] += now - item.seized_at
        free[role] += 1
        del self.runs[item.id]
        queues = self.queues
        factors = self.factors
        nxt = item.task = task + 1
        if nxt < len(remaining):
            queues[nxt].append(item)
            if free[ix.task_role[nxt]] > 0 and factors[nxt] > 0:
                self._dispatch_task(nxt)
        else:
            item.completed_at = now
            self.completed_today.append(item)
        for other in ix.role_tasks[role]:
            if free[role] == 0:
                return
            if queues[other] and factors[other] > 0:
                self._dispatch_task(other)

    def _release(self, item: WorkItem) -> None:
        role = self.index.task_role[item.task]
        self.busy_seconds[role] += self.sim.now - item.seized_at
        self.free[role] += 1
        del self.runs[item.id]

    def _deadline(self, item: WorkItem) -> None:
        if item.completed_at is not None or item.outcome != "in_progress":
            return
        item.outcome = "abandoned"
        if item.id in self.runs:
            self._settle(item)
            item.generation += 1
            self._release(item)
            self._dispatch_role(self.index.task_role[item.task])

    # -- rework and checkpoints ------------------------------------------------

    def _draw_rework(self, item: WorkItem, task: int) -> float:
        """``item``'s rework effort at ``task``, from the item's stream.  An
        item whose durations were read from the cache gets its stream at its
        first rework that is not fixed, moved past its duration draws by
        drawing them again."""
        dist = self.index.reworks[task]
        stream = item.stream
        if stream is None and dist.kind != "fixed":
            stream = item.stream = self.streams.item_stream(item.id)
            for duration in self.index.durations:
                sample(duration, stream)
        return sample(dist, stream)

    def _add_rework(self, item: WorkItem) -> None:
        """Charge the item's current task with its rework effort."""
        if item.completed_at is not None:
            last = len(item.remaining) - 1
            item.task = last
            item.completed_at = None
            if item in self.completed_today:
                self.completed_today.remove(item)
            drawn = self._draw_rework(item, last)
            item.rework[last] += drawn
            item.remaining[last] += drawn
            self.queues[last].append(item)
            self._dispatch_task(last)
            return
        task = item.task
        drawn = self._draw_rework(item, task)
        item.rework[task] += drawn
        item.remaining[task] += drawn
        if item.id in self.runs:
            self._settle(item)
            self._schedule_completion(item)

    def _checkpoint(self, at: float) -> None:
        today = set(self.completed_today)
        examined = [
            i
            for i in self.items.values()
            if i.outcome == "in_progress" and (i.completed_at is None or i in today)
        ]
        rework = apply_checkpoint(examined)
        self.checkpoint_log.append((at, "checkpoint", len(rework)))
        for item in rework:
            self._add_rework(item)

    def _finalize_day(self) -> None:
        for item in self.completed_today:
            item.outcome = "completed_corrupted" if item.tainted else "completed_clean"
        self.completed_today = []

    # -- infrastructure coupling ------------------------------------------------

    def _active_runs(self, task: int) -> list[WorkItem]:
        """The items being worked on at ``task``, by item id."""
        running = (item for item in self.runs.values() if item.task == task)
        return sorted(running, key=attrgetter("id"))

    def _refresh_factors(self, initial: bool = False) -> None:
        # Only the tasks' own assets are read: a copy of the whole map would
        # cost as much as the graph is large.
        graph = self.graph
        now = self.sim.now
        for task, assets in enumerate(self.index.required):
            new_f = min(effective_performance(graph, a) for a in assets) if assets else 1.0
            old_f = self.factors[task]
            self.factors[task] = new_f
            if initial:
                if new_f == 0:
                    self.blocked_since[task] = now
                continue
            if old_f == new_f:
                continue
            if old_f == 0 and new_f > 0:
                self.blocked_total[task] += now - self.blocked_since[task]
                self.blocked_since[task] = None
            elif old_f > 0 and new_f == 0:
                self.blocked_since[task] = now
            for item in self._active_runs(task):
                self._settle(item)
                item.factor = new_f
                self._schedule_completion(item)
            if new_f > 0 and old_f == 0:
                self._dispatch_task(task)

    def _on_state_change(self, change: StateChange) -> None:
        # The counts go first: a task unblocked below starts items at once.
        compromised = change.new.mode == _COMPROMISED
        tasks = self.index.tasks_needing.get(change.asset_id, ())
        if compromised != (change.old.mode == _COMPROMISED):
            step = 1 if compromised else -1
            for task in tasks:
                self.taint_counts[task] += step
        self._refresh_factors()
        if compromised:
            for task in tasks:
                for item in self._active_runs(task):
                    item.tainted = True
                    item.taint_sources.add(change.asset_id)

    # -- results -----------------------------------------------------------------

    def finalize(self) -> MissionResult:
        if self._finalized:
            raise RuntimeError("finalize() may only be called once")
        self._finalized = True
        ix = self.index
        horizon = self.spec.horizon
        self._finalize_day()
        for item in self.runs.values():
            self._settle(item)
            self.busy_seconds[ix.task_role[item.task]] += horizon - item.seized_at
        for task, since in enumerate(self.blocked_since):
            if since is not None:
                self.blocked_total[task] += horizon - since
                self.blocked_since[task] = None
        utilization = {
            role: busy / (count * horizon)
            for role, busy, count in zip(ix.roles, self.busy_seconds, ix.headcount)
        }
        return MissionResult(
            items=list(self.items.values()),
            task_utilization=utilization,
            blocked_time=dict(zip(ix.task_ids, self.blocked_total)),
            awareness_time=self.awareness_time,
            checkpoint_log=list(self.checkpoint_log),
        )
