"""Seeded synthetic flow generation with planted ground truth.

A topology document names client-to-service channels (independent Poisson
traffic), cascades (each upstream request triggers a downstream request
after a fixed lag, optionally jittered or dropped), and retry chains (a
client that always contacts a primary service and then its fallback).  The
generator emits a flow list plus the matching ground-truth edges, so
discovery output can be scored with precision and recall.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np
import yaml

from .fields import ValidationError, _list, _mapping, _read_float, _require
from .flows import INT64_MAX, Channel, FlowRecord, ServiceKey, bin_width_us, parse_service
from .scenario import read_yaml

SCHEMA_VERSION = 1
# The most flows a topology may expect over its duration: at about 420 bytes
# a flow while generated and written, about 0.85 GB.
MAX_EXPECTED_FLOWS = 2_000_000


def load_topology(path: str) -> dict:
    doc = read_yaml(path)
    if not isinstance(doc, dict):
        raise ValidationError(path, "topology document must be a mapping")
    return doc


def _service(entry: dict, key: str, location: str) -> ServiceKey:
    label = _require(entry, key, location)
    try:
        return parse_service(str(label))
    except ValueError as exc:
        raise ValidationError(f"{location}.{key}", str(exc)) from None


def _number(entry: dict, key: str, location: str, default: float | None = None) -> float:
    """``entry[key]`` as a finite float >= 0; required when there is no default."""
    value = _require(entry, key, location) if default is None else entry.get(key, default)
    number = _read_float(value, f"{location}.{key}")
    if not 0 <= number < math.inf:
        raise ValidationError(f"{location}.{key}", f"must be finite and >= 0, got {number}")
    return number


def _entries(topology: dict, key: str):
    """(path, mapping) for each entry of the topology's list ``key``."""
    for i, entry in enumerate(_list(topology.get(key), key)):
        yield f"{key}[{i}]", _mapping(entry, f"{key}[{i}]")


def _emit(
    out: list[FlowRecord],
    rng: np.random.Generator,
    t_s: float,
    client: str,
    service: ServiceKey,
) -> None:
    out.append(
        FlowRecord(
            ts_us=int(round(t_s * 1e6)),
            src_host=client,
            src_port=int(rng.integers(49152, 65536)),
            dst_host=service.host,
            dst_port=service.port,
            proto=service.proto,
            bytes=int(rng.integers(200, 1500)),
            packets=int(rng.integers(1, 10)),
        )
    )


def _cascade(at: str, entry: dict) -> tuple:
    """(client, service, rate, downstream service, lag, jitter, drop) of a cascade."""
    up_at = f"{at}.upstream"
    up = _mapping(_require(entry, "upstream", at), up_at)
    client = str(_require(up, "client", up_at))
    service = _service(up, "service", up_at)
    rate = _number(up, "rate_per_s", up_at)
    down_service = _service(entry, "downstream_service", at)
    lag = _number(entry, "lag_s", at)
    jitter = _number(entry, "jitter_s", at, 0.0)
    drop = _number(entry, "drop_prob", at, 0.0)
    if drop > 1:
        raise ValidationError(f"{at}.drop_prob", f"must lie in [0, 1], got {drop}")
    return client, service, rate, down_service, lag, jitter, drop


def _poisson_times(rng: np.random.Generator, rate_per_s: float, duration_s: float) -> list[float]:
    times = []
    t = rng.exponential(1.0 / rate_per_s) if rate_per_s > 0 else duration_s
    while t < duration_s:
        times.append(t)
        t += rng.exponential(1.0 / rate_per_s)
    return times


def gen_flows(
    topology: dict, duration_s: float | None = None, seed: int = 0
) -> tuple[list[FlowRecord], dict]:
    """Generate flows for ``topology`` over ``duration_s`` seconds.

    Returns (records sorted by timestamp, ground-truth document).  A
    topology field that is missing or of the wrong type is a
    :class:`~miakit.fields.ValidationError` naming its path.  Every field
    is read before the first draw, and a duration whose microseconds pass
    int64, or that expects more than :data:`MAX_EXPECTED_FLOWS` flows, is
    refused on ``duration_s``.
    """
    if seed < 0:
        raise ValidationError("seed", "must be >= 0")
    rng = np.random.default_rng(int(seed))
    if duration_s is None:
        duration_s = _read_float(topology.get("duration_s", 600.0), "duration_s")
    if not 0 < duration_s < math.inf:
        raise ValidationError("duration_s", f"must be finite and > 0, got {duration_s}")
    if duration_s * 1e6 > INT64_MAX:
        why = f"{duration_s:g} s is {duration_s * 1e6:.3g} us, past the int64 flow timestamp"
        raise ValidationError("duration_s", why)
    bin_width = _read_float(topology.get("bin_width", 1.0), "bin_width")
    bin_width_us(bin_width)

    channels = [
        (str(_require(entry, "client", at)), _service(entry, "service", at),
         _number(entry, "rate_per_s", at))
        for at, entry in _entries(topology, "channels")
    ]
    cascades = [_cascade(at, entry) for at, entry in _entries(topology, "cascades")]
    retries = [
        (str(_require(entry, "client", at)), _service(entry, "primary", at),
         _service(entry, "fallback", at), _number(entry, "rate_per_s", at),
         _number(entry, "gap_s", at, 0.5))
        for at, entry in _entries(topology, "retries")
    ]
    # A cascade and a retry each send up to two flows per request.
    rates = [c[2] for c in channels] + [2 * c[2] for c in cascades] + [2 * r[3] for r in retries]
    expected = duration_s * math.fsum(rates)
    if expected > MAX_EXPECTED_FLOWS:
        why = f"{duration_s:g} s of traffic expects {expected:.3g} flows,"
        why += f" more than {MAX_EXPECTED_FLOWS}"
        raise ValidationError("duration_s", why)

    records: list[FlowRecord] = []
    truth: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "seed": int(seed),
        "duration_s": duration_s,
        "bin_width": bin_width,
        "direct": [],
        "indirect": [],
        "retry_chains": [],
    }

    def direct_truth(client: str, service: ServiceKey) -> None:
        entry = {"client": client, "service": service.label()}
        if entry not in truth["direct"]:
            truth["direct"].append(entry)

    for client, service, rate in channels:
        times = _poisson_times(rng, rate, duration_s)
        for t in times:
            _emit(records, rng, t, client, service)
        if times:
            direct_truth(client, service)

    for client, service, rate, down_service, lag, jitter, drop in cascades:
        pivot = service.host
        up_times = _poisson_times(rng, rate, duration_s)
        emitted_down = False
        for t in up_times:
            _emit(records, rng, t, client, service)
            if drop > 0 and rng.random() < drop:
                continue
            resp = t + lag + (rng.uniform(-jitter, jitter) if jitter > 0 else 0.0)
            if 0 <= resp < duration_s:
                _emit(records, rng, resp, pivot, down_service)
                emitted_down = True
        if up_times:
            direct_truth(client, service)
        if emitted_down:
            direct_truth(pivot, down_service)
            truth["indirect"].append(
                {
                    "upstream": {"client": client, "service": service.label()},
                    "downstream": {"client": pivot, "service": down_service.label()},
                    "lag_bins": int(round(lag / bin_width)),
                }
            )

    for client, primary, fallback, rate, gap in retries:
        times = _poisson_times(rng, rate, duration_s)
        for t in times:
            _emit(records, rng, t, client, primary)
            retry_t = t + gap
            if retry_t < duration_s:
                _emit(records, rng, retry_t, client, fallback)
        if times:
            direct_truth(client, primary)
            direct_truth(client, fallback)
            truth["retry_chains"].append(
                {
                    "client": client,
                    "first_contact": primary.label(),
                    "fallback": fallback.label(),
                }
            )

    records.sort(key=lambda r: (r.ts_us, r.src_host, r.dst_host, r.src_port))
    return records, truth


# -- ground-truth edge keys, matching the discovery key helpers ---------------


def truth_direct_keys(truth: dict) -> set:
    return {("direct", d["client"], d["service"]) for d in truth.get("direct", [])}


def truth_indirect_keys(truth: dict) -> set:
    keys = set()
    for entry in truth.get("indirect", []):
        up = Channel(entry["upstream"]["client"], parse_service(entry["upstream"]["service"]))
        down = Channel(
            entry["downstream"]["client"], parse_service(entry["downstream"]["service"])
        )
        keys.add(("indirect", up.label(), down.label()))
    return keys


def truth_retry_keys(truth: dict) -> set:
    return {
        ("retry", r["client"], r["first_contact"], r["fallback"])
        for r in truth.get("retry_chains", [])
    }


def save_truth(truth: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(truth, fh, sort_keys=False)
