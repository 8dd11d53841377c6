"""Dependency inference from flow activity.

Direct dependencies are observed client-to-service channels.  Indirect
dependencies are inferred where activity on one channel predicts lagged
activity on another through a shared pivot host, scored with normalized
cross-correlation over binned count series.  Retry chains flag the
failover pattern where a client habitually contacts one service and then
immediately another.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable

import numpy as np

from .fields import ValidationError
from .flows import Channel, ChannelSeries, FlowRecord, ServiceKey, channel_index
from .infrastructure import Asset, DependencyEdge, InfrastructureGraph, Topology

DEFAULT_NCC_THRESHOLD = 0.8
DEFAULT_MAX_LAG = 30
DEFAULT_MIN_ACTIVITY = 10
DEFAULT_EPISODE_GAP = 2.0
DEFAULT_MIN_SUPPORT = 20
DEFAULT_DOMINANCE = 0.8


class ConstantSeries(Exception):
    pass


class InsufficientOverlap(Exception):
    pass


class MismatchedBinning(Exception):
    pass


class NoValidLag(Exception):
    pass


@dataclass(frozen=True)
class DirectDependency:
    client: str
    service: ServiceKey
    flow_count: int
    first_seen_us: int
    last_seen_us: int

    def channel(self) -> Channel:
        return Channel(self.client, self.service)


@dataclass(frozen=True)
class IndirectDependency:
    upstream: Channel
    downstream: Channel
    lag_s: float
    lag_bins: int
    score: float


@dataclass(frozen=True)
class RetryChain:
    client: str
    first_contact: ServiceKey
    fallback: ServiceKey
    support: int
    episode_gap_s: float


@dataclass
class EvaluationReport:
    precision: float
    recall: float
    true_positives: list
    false_positives: list
    false_negatives: list


def direct_dependencies(records: Iterable[FlowRecord]) -> list[DirectDependency]:
    """One entry per distinct (client, service) with counts and time bounds."""
    index = channel_index(records)
    starts, ends = index.bounds[:-1], index.bounds[1:]
    first = index.ts_by_row[starts].tolist()
    last = index.ts_by_row[ends - 1].tolist()
    out = [
        DirectDependency(ch.client, ch.service, count, lo, hi)
        for ch, count, lo, hi in zip(index.channels, (ends - starts).tolist(), first, last)
    ]
    out.sort(key=lambda d: (d.client, d.service.label()))
    return out


def _check_binning(x: ChannelSeries, y: ChannelSeries) -> None:
    if x.bin_width != y.bin_width or x.start_us != y.start_us:
        raise MismatchedBinning(
            "series must share bin width and window start "
            f"({x.bin_width}/{x.start_us} vs {y.bin_width}/{y.start_us})"
        )


# Float elements stacked for one chunk of pairs.  A chunk also keeps its
# centred windows and one scratch array, each no larger, so scoring holds a
# few MiB of floats however many channels share a pivot and however many bins
# their series have.
_CHUNK_ELEMENTS = 1 << 18


def _centre(windows: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Centre each row of the (k, m) float ``windows`` into ``out`` and return
    the rows' sample standard deviations; m >= 2, and ``scratch`` has at least
    k rows and m columns.

    Each row is reduced with the ufunc steps that ``ndarray.mean`` and
    ``ndarray.std(ddof=1)`` run on it alone, summed in the same pairwise
    order, so the results are bit-identical to those methods'.
    """
    k, m = windows.shape
    mean = np.add.reduce(windows, axis=1) / m
    np.subtract(windows, mean[:, None], out=out)
    squares = np.multiply(out, out, out=scratch[:k, :m])
    return np.sqrt(np.add.reduce(squares, axis=1) / (m - 1))


def ncc(x: ChannelSeries, y: ChannelSeries, lag: int) -> float:
    """Pearson correlation between x[t] and y[t + lag] over their overlap.

    Means and sample standard deviations are taken over the overlap itself,
    so the score is invariant under positive affine rescaling of either
    series.  Raises :class:`ConstantSeries` when either side has zero
    variance on the overlap.
    """
    _check_binning(x, y)
    skip_x, skip_y = max(-lag, 0), max(lag, 0)
    m = min(len(x.counts) - skip_x, len(y.counts) - skip_y)
    if m < 2:
        raise InsufficientOverlap(f"overlap of {m} bins at lag {lag}")
    windows = np.empty((2, m))
    windows[0] = x.counts[skip_x : skip_x + m]
    windows[1] = y.counts[skip_y : skip_y + m]
    centred = np.empty_like(windows)
    sx, sy = _centre(windows, centred, np.empty_like(windows))
    if sx == 0.0 or sy == 0.0:
        raise ConstantSeries(f"zero variance over {m}-bin overlap at lag {lag}")
    r = float(centred[0].dot(centred[1]) / ((m - 1) * sx * sy))
    return max(-1.0, min(1.0, r))


Pair = tuple[ChannelSeries, ChannelSeries]


def _stack(series: list[ChannelSeries]) -> tuple[np.ndarray, dict[int, int]]:
    """The counts of the distinct series objects in ``series``, all of one
    length, as the rows of one float array, and each one's row by ``id``."""
    distinct = {id(s): s for s in series}
    stack = np.empty((len(distinct), len(series[0].counts)))
    for row, s in enumerate(distinct.values()):
        stack[row] = s.counts
    return stack, {key: row for row, key in enumerate(distinct)}


def _score_chunk(
    pairs: list[Pair], ks: list[int], max_lag: int, best: list[tuple[int, float] | None]
) -> None:
    """Set ``best[k]`` for each pair number k in ``ks``, which share x and y
    lengths, walking the lags once in increasing order.

    At each lag every distinct x prefix window and y window is centred, one
    :func:`_centre` call per side, and a pair's score is one dot product of
    its two centred rows, as :func:`ncc` computes it.
    """
    xs, x_row = _stack([pairs[k][0] for k in ks])
    ys, y_row = _stack([pairs[k][1] for k in ks])
    px = np.array([x_row[id(pairs[k][0])] for k in ks])
    py = np.array([y_row[id(pairs[k][1])] for k in ks])
    rows = list(zip(px.tolist(), py.tolist()))
    nx, ny = xs.shape[1], ys.shape[1]
    width = min(nx, ny)
    cx, cy = np.empty((len(xs), width)), np.empty((len(ys), width))
    scratch = np.empty((max(len(xs), len(ys)), width))
    best_lag = np.full(len(ks), -1)
    best_score = np.full(len(ks), -np.inf)
    x_len = 0
    for lag in range(min(max_lag, ny - 2) + 1):
        m = min(nx, ny - lag)
        if m != x_len:
            # x's windows are prefixes, so they change only with the overlap.
            sx, x_len = _centre(xs[:, :m], cx[:, :m], scratch), m
            x_windows = list(cx[:, :m])
        sy = _centre(ys[:, lag : lag + m], cy[:, :m], scratch)
        y_windows = list(cy[:, :m])
        dots = np.array([x_windows[i].dot(y_windows[j]) for i, j in rows])
        sx_k, sy_k = sx[px], sy[py]
        with np.errstate(divide="ignore", invalid="ignore"):
            score = np.clip(dots / ((m - 1) * sx_k * sy_k), -1.0, 1.0)
        # Within 1e-12 of the best counts as a tie, which the earlier lag keeps.
        better = (sx_k != 0.0) & (sy_k != 0.0) & (score > best_score + 1e-12)
        best_score[better] = score[better]
        best_lag[better] = lag
    for k, lag, score in zip(ks, best_lag.tolist(), best_score.tolist()):
        if lag >= 0:
            best[k] = (lag, score)


def _chunks(pairs: list[Pair], ks: list[int], n: int) -> list[list[int]]:
    """The pair numbers ``ks`` split so that each chunk's distinct x and y
    series, times ``n`` bins, stay within :data:`_CHUNK_ELEMENTS`.

    The distinct x series, in first-seen order, are cut into blocks of ``a``
    and the y series into blocks of ``b``, ``a + b`` series in all; a chunk
    is the pairs of one x block and one y block, so pairs that share series
    share chunks.
    """
    x_num: dict[int, int] = {}
    y_num: dict[int, int] = {}
    for k in ks:
        x_num.setdefault(id(pairs[k][0]), len(x_num))
        y_num.setdefault(id(pairs[k][1]), len(y_num))
    rows = max(2, _CHUNK_ELEMENTS // n)
    a = min(len(x_num), max(rows - len(y_num), rows // 2))
    b = rows - a
    chunks: dict[tuple[int, int], list[int]] = defaultdict(list)
    for k in ks:
        chunks[x_num[id(pairs[k][0])] // a, y_num[id(pairs[k][1])] // b].append(k)
    return list(chunks.values())


def _best_lags(pairs: list[Pair], max_lag: int) -> list[tuple[int, float] | None]:
    """The :func:`max_lag_ncc` of each (x, y) pair, or None where no lag
    admits a correlation.

    Pairs are grouped by their x and y lengths and each group is split by
    :func:`_chunks`, so the floats held at once stay bounded.
    """
    groups: dict[tuple[int, int], list[int]] = defaultdict(list)
    for k, (x, y) in enumerate(pairs):
        _check_binning(x, y)
        groups[len(x.counts), len(y.counts)].append(k)
    best: list[tuple[int, float] | None] = [None] * len(pairs)
    for (nx, ny), ks in groups.items():
        if nx >= 2 and ny >= 2:
            for chunk in _chunks(pairs, ks, max(nx, ny)):
                _score_chunk(pairs, chunk, max_lag, best)
    return best


def max_lag_ncc(
    x: ChannelSeries, y: ChannelSeries, max_lag: int = DEFAULT_MAX_LAG
) -> tuple[int, float]:
    """(lag, score) maximizing :func:`ncc` over lags 0..max_lag; smallest lag
    wins ties.

    Scores within 1e-12 count as tied, so float jitter between overlap
    windows cannot steal a tie from the earlier lag.  Lags past
    ``len(y.counts) - 2`` overlap in fewer than two bins and are not tried,
    so the cost does not grow with ``max_lag``.  This is the scorer of
    :func:`infer_indirect` run on one pair, with bit-identical scores.
    """
    best = _best_lags([(x, y)], max_lag)[0]
    if best is None:
        raise NoValidLag(f"no lag in [0, {max_lag}] admits a correlation")
    return best


def check_indirect_options(threshold: float, max_lag: int, min_activity: int) -> None:
    """The argument rules of :func:`infer_indirect`."""
    if not -1 <= threshold <= 1:
        raise ValidationError("threshold", f"must lie in [-1, 1], got {threshold}")
    for name, value in (("max_lag", max_lag), ("min_activity", min_activity)):
        if not value >= 0:
            raise ValidationError(name, f"must be >= 0, got {value}")


def infer_indirect(
    direct: Iterable[DirectDependency],
    series_for: Callable[[Channel], ChannelSeries],
    threshold: float = DEFAULT_NCC_THRESHOLD,
    max_lag: int = DEFAULT_MAX_LAG,
    min_activity: int = DEFAULT_MIN_ACTIVITY,
) -> list[IndirectDependency]:
    """Score every channel pair (A->B, B->C) sharing pivot host B.

    B is the service host of the upstream channel and the client of the
    downstream one.  Pairs where either channel is constant are skipped;
    a dependency is emitted when the best lagged score reaches ``threshold``.
    Each pair's best lag and score are those of :func:`max_lag_ncc`, but all
    pairs are scored together, lag by lag: at each lag every distinct window
    is centred once for all the pairs it is in, and the floats held at once
    stay bounded however busy a pivot is.  ``series_for`` is called once per
    channel that is in a pair.
    """
    check_indirect_options(threshold, max_lag, min_activity)
    by_pivot: dict[str, list[Channel]] = defaultdict(list)
    by_client: dict[str, list[Channel]] = defaultdict(list)
    for d in direct:
        if d.flow_count >= min_activity:
            by_pivot[d.service.host].append(d.channel())
            by_client[d.client].append(d.channel())

    channel_pairs = [
        (up, down)
        for pivot, ups in by_pivot.items()
        for up in ups
        for down in by_client.get(pivot, ())
        if down != up
    ]
    series: dict[Channel, ChannelSeries] = {}
    for pair in channel_pairs:
        for channel in pair:
            if channel not in series:
                series[channel] = series_for(channel)
    scores = _best_lags([(series[up], series[down]) for up, down in channel_pairs], max_lag)
    found: list[IndirectDependency] = []
    for (up, down), best in zip(channel_pairs, scores):
        if best is not None and best[1] >= threshold:
            lag, score = best
            found.append(IndirectDependency(up, down, lag * series[up].bin_width, lag, score))
    found.sort(key=lambda i: (i.upstream.service.host, i.upstream.label(), i.downstream.label()))
    return found


def check_retry_options(episode_gap: float, min_support: int, dominance: float) -> None:
    """The argument rules of :func:`detect_retry_chains`."""
    if not 0 <= episode_gap < math.inf:
        raise ValidationError("episode_gap", f"must be finite and >= 0, got {episode_gap}")
    if not min_support >= 0:
        raise ValidationError("min_support", f"must be >= 0, got {min_support}")
    if not 0 <= dominance <= 1:
        raise ValidationError("dominance", f"must lie in [0, 1], got {dominance}")


def detect_retry_chains(
    records: Iterable[FlowRecord],
    episode_gap: float = DEFAULT_EPISODE_GAP,
    min_support: int = DEFAULT_MIN_SUPPORT,
    dominance: float = DEFAULT_DOMINANCE,
) -> list[RetryChain]:
    """Find habitual contact-then-fallback pairs per client.

    An episode is a flow to service B followed within ``episode_gap`` seconds
    by the same client's next flow to a different service C.  A chain is
    reported when its episode count reaches ``min_support`` and covers at
    least ``dominance`` of all the client's contacts with B.
    """
    check_retry_options(episode_gap, min_support, dominance)
    gap_us = int(round(episode_gap * 1e6))
    index = channel_index(records)
    if not len(index.row):
        return []
    # Each client's contacts in time order (file order on equal times).  A
    # row is one (client, service), so a contact's next contact with another
    # service is the first of the next run of equal rows, if that run is the
    # same client's.
    ids: dict[str, int] = {}
    client_of_row = np.array(
        [ids.setdefault(ch.client, len(ids)) for ch in index.channels], dtype=np.intp
    )
    order = np.lexsort((index.ts_us, client_of_row[index.row]))
    row, ts = index.row[order], index.ts_us[order]
    client = client_of_row[row]
    new_run = row[1:] != row[:-1]
    run_starts = np.append(np.flatnonzero(new_run) + 1, len(row))
    nxt = run_starts[np.concatenate(([0], np.cumsum(new_run)))]
    at = np.flatnonzero(nxt < len(row))
    to = nxt[at]
    episode = (client[at] == client[to]) & (ts[to] - ts[at] <= gap_us)
    n_rows = len(index.channels)
    pairs, supports = np.unique(row[at[episode]] * n_rows + row[to[episode]], return_counts=True)
    totals = np.bincount(index.row, minlength=n_rows).tolist()

    chains: list[RetryChain] = []
    for pair, support in zip(pairs.tolist(), supports.tolist()):
        first, fallback = divmod(pair, n_rows)
        if support >= min_support and support >= dominance * totals[first]:
            chains.append(
                RetryChain(
                    index.channels[first].client,
                    index.channels[first].service,
                    index.channels[fallback].service,
                    support,
                    episode_gap,
                )
            )
    chains.sort(key=lambda c: (c.client, c.first_contact.label(), c.fallback.label()))
    return chains


def evaluate(discovered: Iterable[Hashable], ground_truth: Iterable[Hashable]) -> EvaluationReport:
    """Precision/recall of discovered edges against ground truth.

    Edge identity is whatever hashable key the caller supplies (endpoints
    plus kind); 0/0 ratios are defined as 1.
    """
    found = set(discovered)
    truth = set(ground_truth)
    tp = found & truth
    fp = found - truth
    fn = truth - found
    precision = len(tp) / len(found) if found else 1.0
    recall = len(tp) / len(truth) if truth else 1.0
    return EvaluationReport(
        precision=precision,
        recall=recall,
        true_positives=sorted(tp, key=repr),
        false_positives=sorted(fp, key=repr),
        false_negatives=sorted(fn, key=repr),
    )


def direct_key(d: DirectDependency) -> tuple:
    return ("direct", d.client, d.service.label())


def indirect_key(i: IndirectDependency) -> tuple:
    return ("indirect", i.upstream.label(), i.downstream.label())


def retry_key(r: RetryChain) -> tuple:
    return ("retry", r.client, r.first_contact.label(), r.fallback.label())


def export_graph(
    direct: Iterable[DirectDependency],
    indirect: Iterable[IndirectDependency] = (),
    retry_chains: Iterable[RetryChain] = (),
) -> InfrastructureGraph:
    """Turn inference output into an infrastructure graph fragment.

    Client hosts become devices and services become service assets named by
    their label.  No edge ties a service to its host.  Each direct
    dependency becomes a client-to-service edge, and each indirect one an
    edge from the upstream service to the downstream service.  Retry
    chains are attached as annotations for operator review: a habitual
    primary-then-fallback pattern usually means a misconfiguration.
    """
    direct = list(direct)
    indirect = list(indirect)
    retry_chains = list(retry_chains)

    clients: set[str] = set()
    services: set[ServiceKey] = set()
    for d in direct:
        clients.add(d.client)
        services.add(d.service)
    for i in indirect:
        for ch in (i.upstream, i.downstream):
            clients.add(ch.client)
            services.add(ch.service)
    for r in retry_chains:
        clients.add(r.client)
        services.add(r.first_contact)
        services.add(r.fallback)

    assets = [Asset(host, "device", host) for host in sorted(clients)]
    assets += [Asset(label, "service", label) for label in sorted(s.label() for s in services)]
    edges = [DependencyEdge(d.client, d.service.label(), "discovered_direct") for d in direct]
    for i in indirect:
        up, down = i.upstream.service.label(), i.downstream.service.label()
        if up != down:
            edges.append(DependencyEdge(up, down, "discovered_indirect"))
    # dict.fromkeys drops repeated edges and keeps first-seen order.
    graph = InfrastructureGraph(Topology(assets, dict.fromkeys(edges)))
    for r in retry_chains:
        graph.annotations.append(
            {
                "kind": "retry_chain",
                "client": r.client,
                "first_contact": r.first_contact.label(),
                "fallback": r.fallback.label(),
                "support": r.support,
                "note": "client habitually retries against the fallback; review configuration",
            }
        )
    return graph
