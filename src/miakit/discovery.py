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


def _moments(w: np.ndarray) -> tuple[float, float]:
    """The mean and sample standard deviation of a float window of length
    m >= 2.

    These are the ufunc steps that ``ndarray.mean`` and ``ndarray.std(ddof=1)``
    run, so scores are bit-identical to those methods'.
    """
    m = len(w)
    mean = np.add.reduce(w) / m
    d = w - mean
    return mean, math.sqrt(np.add.reduce(d * d) / (m - 1))


def _pearson(xs: np.ndarray, x_moments: tuple, ys: np.ndarray, y_moments: tuple) -> float | None:
    """Pearson correlation of two equal-length float windows given their
    :func:`_moments`, or None when either has zero variance."""
    (mx, sx), (my, sy) = x_moments, y_moments
    if sx == 0.0 or sy == 0.0:
        return None
    r = float(np.dot(xs - mx, ys - my) / ((len(xs) - 1) * sx * sy))
    return max(-1.0, min(1.0, r))


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
    xs = np.asarray(x.counts[skip_x : skip_x + m], dtype=float)
    ys = np.asarray(y.counts[skip_y : skip_y + m], dtype=float)
    score = _pearson(xs, _moments(xs), ys, _moments(ys))
    if score is None:
        raise ConstantSeries(f"zero variance over {m}-bin overlap at lag {lag}")
    return score


class _Windows:
    """One count series as float, with each window's :func:`_moments` kept
    by (start, length) once computed.

    Only two scalars are kept per window, so a memo holds one float copy of
    each series plus O(windows) scalars, whatever ``max_lag`` is.
    """

    __slots__ = ("series", "counts", "floats", "moments")

    def __init__(self, series: ChannelSeries):
        # Held so that the series' id, the memo key, stays its own.
        self.series = series
        self.counts = series.counts
        self.floats = np.asarray(series.counts, dtype=float)
        self.moments: dict[tuple[int, int], tuple[float, float]] = {}

    def get(self, start: int, m: int) -> tuple[np.ndarray, tuple[float, float]]:
        """The window's floats and their moments."""
        w = self.floats[start : start + m]
        moments = self.moments.get((start, m))
        if moments is None:
            moments = self.moments[start, m] = _moments(w)
        return w, moments


def _windows_of(memo: dict[int, _Windows], series: ChannelSeries) -> _Windows:
    windows = memo.get(id(series))
    if windows is None or windows.counts is not series.counts:
        windows = memo[id(series)] = _Windows(series)
    return windows


def max_lag_ncc(
    x: ChannelSeries,
    y: ChannelSeries,
    max_lag: int = DEFAULT_MAX_LAG,
    memo: dict | None = None,
) -> tuple[int, float]:
    """(lag, score) maximizing :func:`ncc` over lags 0..max_lag; smallest lag
    wins ties.

    Scores within 1e-12 count as tied, so float jitter between overlap
    windows cannot steal a tie from the earlier lag.  Lags past
    ``len(y.counts) - 2`` overlap in fewer than two bins and are not tried,
    so the cost does not grow with ``max_lag``.

    ``memo``, a dict the caller starts empty, keeps each series' float copy
    and window means and deviations across calls, keyed by the series
    object, so scoring one series against several others computes its
    window statistics once.  A series whose ``counts`` is set to another
    array gets fresh statistics; the elements of a series' counts must not
    change while the memo is in use.  Without it, the call starts a memo of
    its own.
    """
    _check_binning(x, y)
    if memo is None:
        memo = {}
    wx, wy = _windows_of(memo, x), _windows_of(memo, y)
    nx, ny = len(wx.floats), len(wy.floats)
    best: tuple[int, float] | None = None
    for lag in range(min(max_lag, ny - 2) + 1):
        m = min(nx, ny - lag)
        if m < 2:
            continue
        score = _pearson(*wx.get(0, m), *wy.get(lag, m))
        if score is not None and (best is None or score > best[1] + 1e-12):
            best = (lag, score)
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
    Pairs are scored pivot by pivot, with one :func:`max_lag_ncc` memo per
    pivot, so a ``series_for`` that returns the same series object for a
    channel on every call has each window's statistics computed once.  For
    the same reason ``series_for`` must not change, during the call, the
    elements of the counts of a series it has already returned (setting
    ``counts`` to a new array is seen and is safe).
    """
    check_indirect_options(threshold, max_lag, min_activity)
    by_pivot: dict[str, list[Channel]] = defaultdict(list)
    by_client: dict[str, list[Channel]] = defaultdict(list)
    for d in direct:
        if d.flow_count >= min_activity:
            by_pivot[d.service.host].append(d.channel())
            by_client[d.client].append(d.channel())

    found: list[IndirectDependency] = []
    for pivot, ups in by_pivot.items():
        memo: dict[int, _Windows] = {}
        for up in ups:
            for down in by_client.get(pivot, ()):
                if down == up:
                    continue
                try:
                    xs = series_for(up)
                    ys = series_for(down)
                    lag, score = max_lag_ncc(xs, ys, max_lag, memo)
                except (ConstantSeries, InsufficientOverlap, NoValidLag):
                    continue
                if score >= threshold:
                    found.append(
                        IndirectDependency(
                            upstream=up,
                            downstream=down,
                            lag_s=lag * xs.bin_width,
                            lag_bins=lag,
                            score=score,
                        )
                    )
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
