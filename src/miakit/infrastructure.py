"""Infrastructure model: directed dependency graph with operational state.

Assets (devices, services, applications, end-user nodes, external links)
are connected by dependency edges pointing from the dependent to the thing
it relies on.  The structure is a :class:`Topology`, built and validated
once; each replication works on an :class:`InfrastructureGraph`, a light
overlay giving every asset a time-varying operational state.  Analyses on
top of the graph include reverse reachability, static impact propagation
with witness chains, and a performance factor that composes degradation
along dependency paths, re-evaluated only where a state change reaches
and remembered per state on the topology.
"""

from __future__ import annotations

import heapq
import math
import threading
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, NamedTuple

from .fields import MiakitError, ValidationError, _list, _read_key, _require

ASSET_KINDS = frozenset(
    {"device", "service", "application", "end_user_node", "external_link"}
)
EDGE_KINDS = frozenset({"declared", "discovered_direct", "discovered_indirect"})
STATE_MODES = frozenset(
    {
        "operational",
        "degraded",
        "unavailable",
        "integrity_compromised",
        "confidentiality_compromised",
    }
)


class GraphError(MiakitError):
    pass


class UnknownAsset(GraphError):
    pass


class UnknownTask(GraphError):
    pass


class DanglingReference(ValidationError):
    pass


class DuplicateId(ValidationError):
    pass


class SelfLoop(ValidationError):
    pass


class TimeRegression(GraphError):
    pass


@dataclass(frozen=True)
class Asset:
    id: str
    kind: str
    name: str = ""
    subnet: str | None = None

    def __post_init__(self):
        if self.kind not in ASSET_KINDS:
            raise ValidationError("kind", f"unknown asset kind {self.kind!r}")
        _check_key(self.subnet, "subnet")


@dataclass(frozen=True)
class DependencyEdge:
    """``from_id`` depends on ``to_id``.

    Edges sharing a non-null ``group`` on the same source asset form an
    any-of family (redundant alternatives); ungrouped edges are all-of.
    """

    from_id: str
    to_id: str
    kind: str = "declared"
    group: str | None = None

    def __post_init__(self):
        if self.kind not in EDGE_KINDS:
            raise ValidationError("kind", f"unknown edge kind {self.kind!r}")
        _check_key(self.group, "group")


def _check_key(value, fieldname: str) -> None:
    """A subnet or any-of group names a set of assets, so it is a key; null
    means none."""
    if value is not None:
        _read_key(value, fieldname)


@dataclass(frozen=True)
class Vulnerability:
    asset_id: str
    exploit_id: str


@dataclass(frozen=True)
class AssetState:
    """One operational mode at a time; ``factor`` only for degraded."""

    mode: str
    factor: float | None = None
    since: float = 0.0

    def __post_init__(self):
        if self.mode not in STATE_MODES:
            raise ValueError(f"unknown state mode {self.mode!r}")
        if self.mode == "degraded":
            if self.factor is None or not (0.0 < self.factor < 1.0):
                raise ValueError("degraded factor must lie strictly in (0, 1)")
        elif self.factor is not None:
            raise ValueError(f"mode {self.mode!r} takes no factor")

    def own_factor(self) -> float:
        if self.mode == "unavailable":
            return 0.0
        if self.mode == "degraded":
            return self.factor  # type: ignore[return-value]
        return 1.0


OPERATIONAL = AssetState("operational")

# Most performance maps a topology remembers (about 70 KB each on a 2.1k-asset
# graph); once full it stores no more and evicts nothing.
MEMO_LIMIT = 16


@dataclass(frozen=True)
class StateChange:
    asset_id: str
    old: AssetState
    new: AssetState
    at: float


class Topology:
    """The unchanging part of an infrastructure model, validated and indexed once.

    Holds the assets, edges and vulnerabilities; adjacency both ways; each
    asset's exploits; each subnet's members; the strongly connected
    components of the dependency graph in dependency order, with the
    external inputs of each; and every component's performance when all
    assets are operational.  The structure never changes after
    construction, so any number of replications (and threads) share one
    topology, each through its own :class:`InfrastructureGraph` overlay.

    The one thing that grows is ``_memo``: component values and performance
    map per state, keyed by ``frozenset((asset, own_factor))`` over the
    assets whose own factor is not 1.0, at most :data:`MEMO_LIMIT` entries.
    A map is a pure function of the own factors, so an entry does not
    depend on which overlay stored it or when.  Stored objects are never
    mutated: overlays share them and copy before they re-evaluate.

    ``_hops`` is filled on first use too: per capability set, each host's
    neighbours (see :meth:`InfrastructureGraph.neighbors`) that those
    capabilities can exploit, in id order.  An entry is a pure function of
    the topology, the host and the capabilities, so threads that fill one
    at once store equal tuples.
    """

    def __init__(
        self,
        assets: Iterable[Asset] = (),
        edges: Iterable[DependencyEdge] = (),
        vulnerabilities: Iterable[Vulnerability] = (),
    ):
        self.assets: dict[str, Asset] = {}
        self.edges: list[DependencyEdge] = []
        self.vulnerabilities: list[Vulnerability] = []
        self._out: dict[str, list[DependencyEdge]] = {}
        self._in: dict[str, list[DependencyEdge]] = {}
        for i, asset in enumerate(assets):
            if asset.id in self.assets:
                raise DuplicateId(f"assets[{i}].id", f"asset id {asset.id!r} declared twice")
            self.assets[asset.id] = asset
            self._out[asset.id] = []
            self._in[asset.id] = []
        for i, edge in enumerate(edges):
            for end, endpoint in (("from", edge.from_id), ("to", edge.to_id)):
                if endpoint not in self.assets:
                    raise DanglingReference(f"edges[{i}].{end}", f"unknown asset {endpoint!r}")
            if edge.from_id == edge.to_id:
                raise SelfLoop(f"edges[{i}].to", f"asset {edge.from_id!r} cannot depend on itself")
            self.edges.append(edge)
            self._out[edge.from_id].append(edge)
            self._in[edge.to_id].append(edge)
        exploits: dict[str, set[str]] = {}
        for i, v in enumerate(vulnerabilities):
            if v.asset_id not in self.assets:
                where = f"vulnerabilities[{i}].asset"
                raise DanglingReference(where, f"unknown asset {v.asset_id!r}")
            self.vulnerabilities.append(v)
            exploits.setdefault(v.asset_id, set()).add(v.exploit_id)
        self._exploits = {a: frozenset(x) for a, x in exploits.items()}
        members: dict[str, set[str]] = {}
        for asset in self.assets.values():
            if asset.subnet is not None:
                members.setdefault(asset.subnet, set()).add(asset.id)
        self._subnet_members = {s: frozenset(m) for s, m in members.items()}
        self.end_users = tuple(
            sorted(a.id for a in self.assets.values() if a.kind == "end_user_node")
        )
        self._index_components()

    def _index_components(self) -> None:
        """Condense the dependency graph: components in dependency order, each
        one's plan (members, then external inputs as component indices:
        ungrouped edges singly, any-of groups per source asset), the
        components relying on each, and the all-operational values."""
        self.components = [tuple(c) for c in _strongly_connected_components(self)]
        self._comp_of = {a: i for i, comp in enumerate(self.components) for a in comp}
        self._plans: list[tuple[tuple[str, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]] = []
        dependents: list[set[int]] = [set() for _ in self.components]
        for i, comp in enumerate(self.components):
            singles: list[int] = []
            groups: list[tuple[int, ...]] = []
            for a in sorted(comp):
                grouped: dict[str, list[int]] = {}
                for edge in self._out[a]:
                    j = self._comp_of[edge.to_id]
                    if j == i:
                        continue  # internal edge, covered by the cycle min rule
                    dependents[j].add(i)
                    if edge.group is None:
                        singles.append(j)
                    else:
                        grouped.setdefault(edge.group, []).append(j)
                groups.extend(tuple(g) for g in grouped.values())
            self._plans.append((comp, tuple(singles), tuple(groups)))
        self._comp_dependents = [tuple(sorted(d)) for d in dependents]
        # NaN equals nothing, so every component gets written.
        values = [math.nan] * len(self.components)
        perf: dict[str, float] = {}
        # Every overlay starts from a copy of these states.
        self._operational = dict.fromkeys(self.assets, OPERATIONAL)
        _reevaluate(self, list(range(len(values))), self._operational, values, perf)
        self._memo: dict[frozenset, tuple[list[float], dict[str, float]]] = {
            frozenset(): (values, perf)
        }
        self._memo_lock = threading.Lock()  # holds the size check and store together
        self._hops: dict[frozenset, dict[str, tuple[str, ...]]] = {}


class InfrastructureGraph:
    """One replication's state overlay on a shared :class:`Topology`.

    Owns the per-asset states, the history of changes, the change listeners
    and a performance map that ``set_state`` marks stale and the next read
    brings up to date.  The structure (``assets``, ``edges``, adjacency) is
    the topology's own objects, never copied.  The component values and
    performance map may be the objects in the topology's memo, so the
    overlay copies them before it re-evaluates.
    """

    def __init__(self, topology: Topology):
        self.topology = topology
        self.assets = topology.assets
        self.edges = topology.edges
        self.vulnerabilities = topology.vulnerabilities
        self._out = topology._out
        self._in = topology._in
        self.states: dict[str, AssetState] = topology._operational.copy()
        self.history: list[StateChange] = []
        self.annotations: list[dict] = []
        self._listeners: list[Callable[[StateChange], None]] = []
        self._values, self._perf = topology._memo[frozenset()]
        self._dirty: set[str] = set()
        self._off_nominal: dict[str, float] = {}  # own factor of each asset not at 1.0

    # -- queries ------------------------------------------------------------

    def require(self, asset_id: str) -> Asset:
        try:
            return self.assets[asset_id]
        except KeyError:
            raise UnknownAsset(f"unknown asset {asset_id!r}") from None

    def dependencies_of(self, asset_id: str) -> list[DependencyEdge]:
        self.require(asset_id)
        return self._out[asset_id]

    def dependents_of(self, asset_id: str) -> list[DependencyEdge]:
        self.require(asset_id)
        return self._in[asset_id]

    def end_user_nodes(self) -> tuple[str, ...]:
        """The topology's end-user node ids, its own tuple (not a copy)."""
        return self.topology.end_users

    def exploits_on(self, asset_id: str) -> frozenset[str]:
        return self.topology._exploits.get(asset_id, frozenset())

    def neighbors(self, asset_id: str) -> set[str]:
        """Adjacency for lateral movement: shared subnet or any edge, either way."""
        asset = self.require(asset_id)
        near = {e.to_id for e in self._out[asset_id]}
        near |= {e.from_id for e in self._in[asset_id]}
        if asset.subnet is not None:
            near |= self.topology._subnet_members[asset.subnet]
        near.discard(asset_id)
        return near

    def exploitable_neighbors(self, asset_id: str, capabilities: frozenset) -> tuple[str, ...]:
        """The neighbours of ``asset_id`` that an exploit in ``capabilities``
        works on, in id order; worked out once per topology."""
        table = self.topology._hops.get(capabilities)
        if table is None:
            table = self.topology._hops.setdefault(capabilities, {})
        hops = table.get(asset_id)
        if hops is None:
            near = self.neighbors(asset_id)
            hops = tuple(sorted(a for a in near if not self.exploits_on(a).isdisjoint(capabilities)))
            table[asset_id] = hops
        return hops

    # -- state --------------------------------------------------------------

    def subscribe(self, listener: Callable[[StateChange], None]) -> None:
        self._listeners.append(listener)

    def state_of(self, asset_id: str) -> AssetState:
        self.require(asset_id)
        return self.states[asset_id]


def _reevaluate(
    topology: Topology,
    pending: list[int],
    states: Mapping[str, AssetState],
    values: list[float],
    perf: dict[str, float],
) -> None:
    """Evaluate the components in ``pending`` (ascending indices) and then,
    in dependency order, every dependent of a component whose value moved.

    A component's value is the min of its members' own-state factors,
    scaled by its worst external input: an ungrouped edge contributes its
    target's value, an any-of group the best of its targets' values.
    ``values`` holds one value per component and ``perf`` one per asset.
    """
    plans, dependents = topology._plans, topology._comp_dependents
    queued = set(pending)
    while pending:
        i = heapq.heappop(pending)
        members, singles, groups = plans[i]
        if len(members) == 1:
            own = states[members[0]].own_factor()
        else:
            own = min([states[a].own_factor() for a in members])
        contributions = [values[j] for j in singles]
        for group in groups:
            contributions.append(max([values[j] for j in group]))
        value = own * (min(contributions) if contributions else 1.0)
        if value == values[i]:
            continue
        values[i] = value
        for member in members:
            perf[member] = value
        for j in dependents[i]:
            if j not in queued:
                queued.add(j)
                heapq.heappush(pending, j)


def _asset(entry: dict) -> Asset:
    asset_id = _read_key(_require(entry, "id"), "id")
    kind, name = str(entry.get("kind", "device")), str(entry.get("name", asset_id))
    return Asset(asset_id, kind, name, entry.get("subnet"))


def _edge(entry: dict) -> DependencyEdge:
    ends = _read_key(_require(entry, "from"), "from"), _read_key(_require(entry, "to"), "to")
    return DependencyEdge(*ends, str(entry.get("kind", "declared")), entry.get("group"))


def _vulnerability(entry: dict) -> Vulnerability:
    exploit = _read_key(_require(entry, "exploit"), "exploit")
    return Vulnerability(_read_key(_require(entry, "asset"), "asset"), exploit)


# How an entry of each graph document list is read.
_GRAPH_ENTRIES = {"assets": _asset, "edges": _edge, "vulnerabilities": _vulnerability}


def build_topology(spec: Mapping) -> Topology:
    """Build and validate a topology from its graph document (see :func:`graph_doc`).

    ``spec`` mirrors the ``infrastructure`` section of a scenario document:
    lists (absent or null reads as empty) of ``assets`` (id/kind/name/subnet),
    ``edges`` (from/to/kind/group) and ``vulnerabilities`` (asset/exploit).
    A wrong field is a :class:`~miakit.fields.ValidationError` naming its
    path in the document, such as ``edges`` or ``assets[3].id``.
    """
    # New lists: each entry is replaced by what it reads as.
    lists = [list(_list(spec.get(key), key)) for key in _GRAPH_ENTRIES]
    for (key, read), entries in zip(_GRAPH_ENTRIES.items(), lists):
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise ValidationError(f"{key}[{i}]", "must be a mapping")
            try:
                entries[i] = read(entry)
            except ValidationError as exc:
                raise exc.under(f"{key}[{i}]") from None
    return Topology(*lists)


def graph_doc(topology: Topology) -> dict:
    """The graph document of ``topology``, the inverse of :func:`build_topology`:
    every asset field written out, an edge's ``group`` only when it is set.
    Building a topology from it gives equal assets, edges and
    vulnerabilities, in the same order."""
    edges = []
    for e in topology.edges:
        entry = {"from": e.from_id, "to": e.to_id, "kind": e.kind}
        if e.group is not None:
            entry["group"] = e.group
        edges.append(entry)
    return {
        "assets": [
            {"id": a.id, "kind": a.kind, "name": a.name, "subnet": a.subnet}
            for a in topology.assets.values()
        ],
        "edges": edges,
        "vulnerabilities": [
            {"asset": v.asset_id, "exploit": v.exploit_id} for v in topology.vulnerabilities
        ],
    }


def build_graph(spec: Mapping) -> InfrastructureGraph:
    """A graph over a topology built from ``spec`` (see :func:`build_topology`),
    with every asset operational."""
    return InfrastructureGraph(build_topology(spec))


def set_state(
    graph: InfrastructureGraph, asset_id: str, new_state: AssetState, at: float
) -> StateChange:
    """Replace an asset's state at simulated time ``at`` and record the change."""
    old = graph.state_of(asset_id)
    if at < old.since:
        raise TimeRegression(
            f"state change for {asset_id!r} at {at} precedes current since {old.since}"
        )
    stamped = replace(new_state, since=at)
    change = StateChange(asset_id, old, stamped, at)
    graph.states[asset_id] = stamped
    graph.history.append(change)
    graph._dirty.add(asset_id)
    factor = stamped.own_factor()
    if factor == 1.0:
        graph._off_nominal.pop(asset_id, None)
    else:
        graph._off_nominal[asset_id] = factor
    for listener in graph._listeners:
        listener(change)
    return change


# ---------------------------------------------------------------------------
# Analyses


def _reverse_walk(graph: InfrastructureGraph, seeds: list[str]) -> dict[str, str | None]:
    """Breadth-first over reverse dependency edges from ``seeds`` (validated
    by the caller): every asset reached, mapped to the asset it was first
    reached from (``None`` for a seed).  Following the parents from an asset
    gives a dependency chain down to a seed."""
    parent: dict[str, str | None] = dict.fromkeys(seeds)
    frontier = list(parent)
    while frontier:
        nxt = []
        for node in frontier:
            for edge in graph._in[node]:
                if edge.from_id not in parent:
                    parent[edge.from_id] = node
                    nxt.append(edge.from_id)
        frontier = nxt
    return parent


def reachable_dependents(graph: InfrastructureGraph, asset_set: Iterable[str]) -> set[str]:
    """Everything that transitively depends on ``asset_set``, the set included.

    Reverse reachability over dependency edges; terminates on cycles.
    """
    seeds = list(asset_set)
    for a in seeds:
        graph.require(a)
    return set(_reverse_walk(graph, seeds))


class TaskImpact(NamedTuple):
    """One task's verdict: a named tuple, so it compares equal to the plain
    tuple ``(task_id, impacted, witness)``."""

    task_id: str
    impacted: bool
    witness: tuple[str, ...] = ()


@dataclass
class StaticImpactReport:
    """Per-task impact verdicts with a dependency chain witnessing each hit."""

    compromised: tuple[str, ...]
    tasks: dict[str, TaskImpact]

    def status(self, task_id: str) -> TaskImpact:
        try:
            return self.tasks[task_id]
        except KeyError:
            raise UnknownTask(f"unknown task {task_id!r}") from None

    def impacted_tasks(self) -> list[str]:
        return sorted(t for t, s in self.tasks.items() if s.impacted)


def propagate_static_impact(
    graph: InfrastructureGraph,
    compromised: Iterable[str],
    mission_bindings: Mapping[str, Iterable[str]],
) -> StaticImpactReport:
    """Mark each task impacted iff a required asset transitively depends on
    a compromised asset.  Time-free over-approximation of simulated impact.

    Each task's verdict is a :class:`TaskImpact` named tuple keyed by
    ``str(task_id)``; an impacted task's witness runs from the least
    reached required asset along dependency edges to a compromised one.
    A query costs one reverse walk from the compromised set plus one step
    per bound asset: each task's assets are read once, and an asset the
    walk did not reach is checked against the graph, so the first unknown
    asset (in task order, then list order) raises :class:`UnknownAsset`.
    Two task ids that are one key under ``str()``, such as ``1`` and
    ``"1"``, are a :class:`DuplicateId` once every binding is read.
    """
    seeds = sorted(set(compromised))
    for a in seeds:
        graph.require(a)
    parent = _reverse_walk(graph, seeds)
    assets = graph.assets
    # A verdict built straight from its three fields, skipping the
    # generated __new__ and its default handling.
    verdict = tuple.__new__

    tasks: dict[str, TaskImpact] = {}
    for task_id in mission_bindings:
        hits = []
        for a in mission_bindings[task_id]:
            if a in parent:
                hits.append(a)
            elif a not in assets:
                graph.require(a)
        key = str(task_id)
        if hits:
            chain = [min(hits)]
            while (up := parent[chain[-1]]) is not None:
                chain.append(up)
            tasks[key] = verdict(TaskImpact, (key, True, tuple(chain)))
        else:
            tasks[key] = verdict(TaskImpact, (key, False, ()))
    if len(tasks) < len(mission_bindings):
        first: dict[str, object] = {}
        for task_id in mission_bindings:
            key = str(task_id)
            if key in first:
                why = f"task ids {first[key]!r} and {task_id!r} are both {key!r}"
                raise DuplicateId("mission_bindings", why)
            first[key] = task_id
    return StaticImpactReport(tuple(seeds), tasks)


def _strongly_connected_components(topology: Topology) -> list[list[str]]:
    """Iterative Tarjan over dependency edges; components emitted
    dependencies-first (every component before the ones that rely on it)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = 0

    for root in sorted(topology.assets):
        if root in index:
            continue
        work = [(root, iter(sorted(e.to_id for e in topology._out[root])))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append(
                        (succ, iter(sorted(e.to_id for e in topology._out[succ])))
                    )
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp.append(member)
                    if member == node:
                        break
                components.append(comp)
    return components


def effective_performance_all(graph: InfrastructureGraph) -> dict[str, float]:
    """Performance factor in [0, 1] for every asset.

    factor(a) = own_state(a) x combined dependencies, where ungrouped edges
    contribute their target's factor individually (all-of, min) and edges in
    an any-of group contribute the max over the group's targets.  Members of
    a dependency cycle share one value: the min of their own-state factors,
    scaled by the cycle's external dependencies.

    A state the topology has seen before is read from its memo; otherwise
    only the components reached by state changes since the last call are
    re-evaluated (see :func:`_reevaluate`) and the result stored.  Either
    way it is the same as a full evaluation over the topology's components.
    """
    _bring_up_to_date(graph)
    return dict(graph._perf)


def effective_performance(graph: InfrastructureGraph, asset_id: str) -> float:
    """``asset_id``'s factor in :func:`effective_performance_all`, read
    without copying the map."""
    graph.require(asset_id)
    _bring_up_to_date(graph)
    return graph._perf[asset_id]


def _bring_up_to_date(graph: InfrastructureGraph) -> None:
    """Make ``graph._perf`` the map of its current states."""
    if not graph._dirty:
        return
    topology = graph.topology
    key = frozenset(graph._off_nominal.items())
    stored = topology._memo.get(key)
    if stored is not None:
        graph._values, graph._perf = stored
    else:
        graph._values, graph._perf = list(graph._values), dict(graph._perf)
        pending = sorted({topology._comp_of[a] for a in graph._dirty})
        _reevaluate(topology, pending, graph.states, graph._values, graph._perf)
        # Threads missing on one key at once store equal values.
        with topology._memo_lock:
            if len(topology._memo) < MEMO_LIMIT:
                topology._memo[key] = (graph._values, graph._perf)
    graph._dirty.clear()
