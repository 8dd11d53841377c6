"""Deterministic discrete-event simulation kernel.

A single-threaded event loop ordered by (time, insertion sequence), a small
family of parametric duration distributions, and replayable random streams
keyed by (seed, stream id).  Replications are independent: each one gets its
own kernel and its own derived streams.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .fields import MiakitError, ValidationError


class SchedulingInPast(Exception):
    """An event was scheduled before the current simulation clock."""


class InvalidDistribution(MiakitError):
    """Distribution parameters violate their domain constraints."""


# ---------------------------------------------------------------------------
# Distributions


@dataclass(frozen=True)
class Distribution:
    """Parametric distribution for durations and intervals (seconds).

    Supported kinds: fixed(value), uniform(low, high), exponential(mean),
    triangular(low, mode, high).  Construct through the classmethods so
    parameters are validated once, up front.
    """

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        p = self.params
        if self.kind == "fixed":
            if len(p) != 1:
                raise InvalidDistribution("fixed takes exactly one value")
        elif self.kind == "uniform":
            if len(p) != 2 or p[0] > p[1]:
                raise InvalidDistribution(f"uniform requires low <= high, got {p}")
        elif self.kind == "exponential":
            if len(p) != 1 or p[0] <= 0:
                raise InvalidDistribution(f"exponential requires mean > 0, got {p}")
        elif self.kind == "triangular":
            if len(p) != 3 or not (p[0] <= p[1] <= p[2]) or p[0] == p[2]:
                raise InvalidDistribution(
                    f"triangular requires low < high and low <= mode <= high, got {p}"
                )
        else:
            raise InvalidDistribution(f"unknown distribution kind {self.kind!r}")

    @classmethod
    def fixed(cls, value: float) -> "Distribution":
        return cls("fixed", (float(value),))

    @classmethod
    def uniform(cls, low: float, high: float) -> "Distribution":
        return cls("uniform", (float(low), float(high)))

    @classmethod
    def exponential(cls, mean: float) -> "Distribution":
        return cls("exponential", (float(mean),))

    @classmethod
    def triangular(cls, low: float, mode: float, high: float) -> "Distribution":
        return cls("triangular", (float(low), float(mode), float(high)))

    def mean(self) -> float:
        p = self.params
        if self.kind == "fixed":
            return p[0]
        if self.kind == "uniform":
            return (p[0] + p[1]) / 2.0
        if self.kind == "exponential":
            return p[0]
        return (p[0] + p[1] + p[2]) / 3.0

    def variance(self) -> float:
        p = self.params
        if self.kind == "fixed":
            return 0.0
        if self.kind == "uniform":
            return (p[1] - p[0]) ** 2 / 12.0
        if self.kind == "exponential":
            return p[0] ** 2
        a, m, b = p
        return (a * a + m * m + b * b - a * m - a * b - m * b) / 18.0


def sample(dist: Distribution, stream: "RngStream") -> float:
    """Draw one value from ``dist`` using ``stream``.

    fixed(k) returns k without consuming randomness, so adding or removing
    deterministic delays never perturbs other draws on the same stream.
    """
    p = dist.params
    if dist.kind == "fixed":
        return p[0]
    if dist.kind == "uniform":
        return stream.uniform(p[0], p[1])
    if dist.kind == "exponential":
        return stream.exponential(p[0])
    return stream.triangular(p[0], p[1], p[2])


def values_of_doubles(dist: Distribution, u: np.ndarray) -> np.ndarray:
    """The values :func:`sample` draws from a uniform or triangular ``dist``
    when its stream's ``random()`` doubles are ``u``, with the same floating
    point operations, so each value is bit-identical to the drawn one."""
    p = dist.params
    if dist.kind == "uniform":
        low, high = p
        return low + (high - low) * u
    low, mode, high = p
    base = high - low
    left = mode - low
    lower = low + np.sqrt(u * (left * base))
    upper = high - np.sqrt((1.0 - u) * ((high - mode) * base))
    return np.where(u <= left / base, lower, upper)


# ---------------------------------------------------------------------------
# Random streams


class RngStream:
    """Deterministic random stream: (seed, stream_id, draw index) -> value.

    The generator is PCG64 seeded by ``SeedSequence((seed, stream_id))``;
    ``seed_seq`` may hand in that seed precomputed (see :mod:`miakit.seeding`).
    """

    def __init__(self, seed: int, stream_id: int, seed_seq: Any = None):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        if seed_seq is None:
            seed_seq = np.random.SeedSequence((self.seed, self.stream_id))
        self._gen = np.random.Generator(np.random.PCG64(seed_seq))

    def random(self) -> float:
        return float(self._gen.random())

    def uniform(self, low: float, high: float) -> float:
        # NumPy's own formula (``random_uniform``) on one raw double, without
        # the argument checks and array dispatch of ``Generator.uniform``.
        return low + (high - low) * self._gen.random()

    def exponential(self, mean: float) -> float:
        return float(self._gen.exponential(mean))

    def triangular(self, low: float, mode: float, high: float) -> float:
        # NumPy's ``random_triangular``, operation for operation; needs
        # low < high, which Distribution checks.
        u = self._gen.random()
        base = high - low
        left = mode - low
        if u <= left / base:
            return low + math.sqrt(u * (left * base))
        return high - math.sqrt((1.0 - u) * ((high - mode) * base))

    def integers(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        return int(self._gen.integers(n))


class StreamFactory:
    """Derives one independent :class:`RngStream` per model component.

    Streams are keyed by (base_seed, replication, stream_id), so replication
    k depends only on its own index and events added to one component never
    shift the draws of another.  Work items get private substreams keyed by
    item id, which keeps item-level draws aligned across scenario variants
    (common random numbers).
    """

    ARRIVALS = 1
    ATTACKER = 2
    DEFENDER = 3
    _ITEM_BASE = 1_000_000

    def __init__(self, base_seed: int, replication: int = 0):
        self.base_seed = int(base_seed)
        self.replication = int(replication)
        # Collapse (base_seed, replication) into one 64-bit replication seed.
        # seeding is imported here, not at the top: it needs numpy.random (a
        # few MB), which commands that run no simulation never load.
        from .seeding import replication_seeds

        self._rep_seed, self._seeds = replication_seeds(self.base_seed, self.replication)

    def stream(self, stream_id: int) -> RngStream:
        """Stream ``stream_id``: ``SeedSequence((rep_seed, stream_id))``,
        whichever way its seed is computed."""
        return RngStream(self._rep_seed, stream_id, self._seeds.get(stream_id))

    def item_stream(self, item_id: int) -> RngStream:
        """Item ``item_id``'s stream: ``SeedSequence((rep_seed, 1_000_000 +
        item_id))``, whichever way its seed is computed."""
        return RngStream(self._rep_seed, self._ITEM_BASE + item_id, self.item_seed(item_id))

    def item_seed(self, item_id: int) -> Any:
        """The seed sequence of item ``item_id``'s stream, for ``PCG64``:
        precomputed where :mod:`miakit.seeding` has it."""
        stream_id = self._ITEM_BASE + item_id
        seed = self._seeds.get(stream_id)
        return np.random.SeedSequence((self._rep_seed, stream_id)) if seed is None else seed


# ---------------------------------------------------------------------------
# Event queue


@dataclass(frozen=True)
class Event:
    """A dispatched event: when it fired, its insertion order, and what it was."""

    time: float
    seq: int
    tag: str
    data: tuple = ()


class Simulator:
    """Event loop with FIFO tie-breaking at equal times.

    ``schedule`` enqueues a callback at an absolute simulated time and returns
    the event's sequence id; ``run_until`` dispatches in (time, seq) order up
    to a horizon, calling ``fn(*args)``.  Each queue entry is one tuple
    (time, seq, tag, fn, args, data), so a model passes a bound method and
    its arguments instead of building a closure per event.  The
    dispatched-event trace is recorded when ``record_trace`` is set (replays
    of the same seeded scenario produce identical traces).

    ``reserve`` takes a sequence id without scheduling anything; an event
    scheduled later with ``seq=`` that id is dispatched where it would have
    been had it been scheduled at the time of the reservation.  A model can
    so leave out an event that would do nothing, and schedule it only once
    it may do something, without moving any other event.  ``dispatching``
    is the sequence id of the event being dispatched (-1 when no event at
    ``now`` has been), and a reserved event that would have come before it
    is refused as :class:`SchedulingInPast`.
    """

    def __init__(self, record_trace: bool = False):
        self.now = 0.0
        self.dispatching = -1
        self.trace: list[Event] = []
        self.record_trace = record_trace
        self._queue: list[tuple[float, int, str, Callable[..., None] | None, tuple, tuple]] = []
        self._seq = 0

    def reserve(self) -> int:
        """A sequence id for an event to be scheduled later with ``seq=``."""
        seq = self._seq
        self._seq = seq + 1
        return seq

    def schedule(
        self,
        tag: str,
        at: float,
        fn: Callable[..., None] | None = None,
        data: tuple = (),
        args: tuple = (),
        seq: int | None = None,
    ) -> int:
        if at < self.now:
            raise SchedulingInPast(f"cannot schedule {tag!r} at {at} (now {self.now})")
        if seq is None:
            seq = self._seq
            self._seq = seq + 1
        elif not self.precedes(self.now, self.dispatching, at, seq) or seq >= self._seq:
            raise SchedulingInPast(
                f"cannot schedule {tag!r} at ({at}, seq {seq}): not a reserved id after"
                f" the event being dispatched ({self.now}, seq {self.dispatching})"
            )
        heapq.heappush(self._queue, (float(at), seq, tag, fn, args, data))
        return seq

    @staticmethod
    def precedes(at: float, seq: int, other_at: float, other_seq: int) -> bool:
        """Whether the event (at, seq) is dispatched before (other_at, other_seq)."""
        return at < other_at or (at == other_at and seq < other_seq)

    def run_until(self, horizon: float) -> list[Event]:
        if horizon < self.now:
            raise ValueError(f"horizon {horizon} precedes clock {self.now}")
        queue = self._queue
        pop = heapq.heappop
        trace = self.trace if self.record_trace else None
        while queue and queue[0][0] <= horizon:
            t, seq, tag, fn, args, data = pop(queue)
            self.now = t
            self.dispatching = seq
            if trace is not None:
                trace.append(Event(t, seq, tag, data))
            if fn is not None:
                fn(*args)
        if horizon > self.now:
            self.now = horizon
            self.dispatching = -1
        return self.trace

    def pending(self) -> int:
        return len(self._queue)

    def discard_pending(self) -> None:
        """Drop every event still queued, with the callbacks it holds."""
        self._queue.clear()


def trace_lines(trace: list[Event]) -> str:
    """Render a trace as text, one event per line, for byte-level comparison."""
    return "\n".join(f"{e.time!r} {e.seq} {e.tag} {e.data!r}" for e in trace)


# ---------------------------------------------------------------------------
# Replications


def run_replications(scenario: Any, n: int, base_seed: int) -> list[Any]:
    """Run ``n`` independent replications of ``scenario``, in index order.

    ``scenario`` must expose ``run_replication(index, base_seed)``;
    replication k's outcome is a function of (base_seed, k, scenario) only.
    """
    if n < 1:
        raise ValidationError("replications", "must be >= 1")
    if base_seed < 0:
        raise ValidationError("seed", "must be >= 0")
    return [scenario.run_replication(k, base_seed) for k in range(n)]
