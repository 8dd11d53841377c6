"""Network flow ingestion: CSV parsing, service identification, time binning.

The front end of dependency discovery.  Flow records are plain 5-tuple
observations with byte/packet counts; the service side of each flow is
the endpoint with the lower port, and per-channel activity is
binned into fixed-width count series for correlation.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .fields import MiakitError, ValidationError, read_text

FLOW_HEADER = "ts_us,src_ip,src_port,dst_ip,dst_port,proto,bytes,packets"
REGISTERED_PORT_LIMIT = 49151


class MalformedLine(MiakitError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class EmptyWindow(MiakitError):
    pass


@dataclass(frozen=True)
class FlowRecord:
    ts_us: int
    src_host: str
    src_port: int
    dst_host: str
    dst_port: int
    proto: str
    bytes: int
    packets: int


@dataclass(frozen=True)
class ServiceKey:
    host: str
    port: int
    proto: str

    def label(self) -> str:
        return f"{self.host}:{self.port}/{self.proto}"


def parse_service(label: str) -> ServiceKey:
    """Inverse of :meth:`ServiceKey.label` ("host:port/proto")."""
    hostport, _, proto = label.partition("/")
    host, _, port = hostport.rpartition(":")
    if not host or not port or proto not in ("tcp", "udp"):
        raise ValueError(f"bad service label {label!r}")
    number = int(port)
    if not 0 <= number <= 65535:
        raise ValueError(f"port {number} out of range in {label!r}")
    return ServiceKey(host, number, proto)


@dataclass(frozen=True)
class Channel:
    """One observed client-to-service communication relationship."""

    client: str
    service: ServiceKey

    def label(self) -> str:
        return f"{self.client}->{self.service.label()}"


@dataclass
class ChannelSeries:
    channel: Channel
    bin_width: float
    start_us: int
    counts: np.ndarray


class FlowLog(list):
    """The records of one capture, in file order: a plain ``list`` of
    :class:`FlowRecord`.

    :func:`bin_activity` keeps the channel index it builds on the log, with
    its bin width and window and a snapshot of the records it read.  A later
    call with the same bin width and window reuses the index only while the
    log holds exactly those record objects in the same order, compared by
    identity (``is``), never by value.  After an append, assignment,
    deletion or reordering, the next call builds the index again.
    """

    # (width_us, t0, t1), tuple of the records indexed, channel -> bin numbers
    _binned: tuple | None = None


_NO_BINS = np.empty(0, dtype=np.int64)


def _check_fields(fields: Sequence[str], line_no: int) -> FlowRecord:
    if len(fields) != 8:
        raise MalformedLine(line_no, f"expected 8 fields, got {len(fields)}")
    try:
        ts_us = int(fields[0])
        src_port = int(fields[2])
        dst_port = int(fields[4])
        nbytes = int(fields[6])
        packets = int(fields[7])
    except ValueError as exc:
        raise MalformedLine(line_no, str(exc)) from None
    proto = fields[5]
    if proto not in ("tcp", "udp"):
        raise MalformedLine(line_no, f"proto must be tcp or udp, got {proto!r}")
    for name, port in (("src_port", src_port), ("dst_port", dst_port)):
        if not (0 <= port <= 65535):
            raise MalformedLine(line_no, f"{name} {port} out of range")
    if nbytes < 0:
        raise MalformedLine(line_no, f"bytes {nbytes} negative")
    if packets < 1:
        raise MalformedLine(line_no, f"packets {packets} must be >= 1")
    return FlowRecord(ts_us, fields[1], src_port, fields[3], dst_port, proto, nbytes, packets)


def parse_flows(
    source,
    strict: bool = True,
    malformed: list | None = None,
) -> FlowLog:
    """Parse flow CSV from a path, file object, or string content.

    Strict mode raises :class:`MalformedLine` on the first bad line; lenient
    mode skips bad lines, tallying (line_no, reason) into ``malformed`` when
    a list is supplied.
    """
    if isinstance(source, str) and "\n" not in source:
        source = read_text(source)
    if isinstance(source, str):
        source = io.StringIO(source)

    reader = csv.reader(source)
    records = FlowLog()
    header = next(reader, None)
    if header is None or ",".join(header) != FLOW_HEADER:
        raise MalformedLine(1, f"header must be exactly {FLOW_HEADER!r}")
    for line_no, fields in enumerate(reader, start=2):
        if not fields:
            continue
        try:
            records.append(_check_fields(fields, line_no))
        except MalformedLine as exc:
            if strict:
                raise
            if malformed is not None:
                malformed.append((exc.line_no, exc.reason))
    return records


def serialize_flows(records: Iterable[FlowRecord]) -> str:
    lines = [FLOW_HEADER]
    for r in records:
        lines.append(
            f"{r.ts_us},{r.src_host},{r.src_port},{r.dst_host},{r.dst_port},"
            f"{r.proto},{r.bytes},{r.packets}"
        )
    return "\n".join(lines) + "\n"


def service_side(record: FlowRecord) -> tuple[str, ServiceKey, bool]:
    """Pick the service endpoint of a flow: (client_host, service, ambiguous).

    The endpoint with the lower port is the service side; the destination
    wins ties.  A flow whose ports are both above the registered range is
    flagged ambiguous.
    """
    client, host, port, ambiguous = _service_endpoint(record)
    return client, ServiceKey(host, port, record.proto), ambiguous


def _service_endpoint(record: FlowRecord) -> tuple[str, str, int, bool]:
    """:func:`service_side` as plain values: (client_host, service_host,
    service_port, ambiguous)."""
    ambiguous = min(record.src_port, record.dst_port) > REGISTERED_PORT_LIMIT
    if record.dst_port <= record.src_port:
        return record.src_host, record.dst_host, record.dst_port, ambiguous
    return record.dst_host, record.src_host, record.src_port, ambiguous


def identify_services(records: Iterable[FlowRecord]) -> set[ServiceKey]:
    """Distinct service endpoints observed across ``records``."""
    return {service_side(r)[1] for r in records}


def channel_of(record: FlowRecord) -> Channel:
    client, service, _ = service_side(record)
    return Channel(client, service)


def _channel_index(
    records: Iterable[FlowRecord], t0: int, t1: int, width_us: int
) -> dict[Channel, np.ndarray]:
    """Bin numbers of the records in [t0, t1), one array per channel.

    Each in-window record's channel, as in :func:`channel_of`, gets a row
    number; one stable sort by row groups the bin numbers by channel.  Rows
    are keyed by plain (client, host, port, proto) tuples, and each
    :class:`Channel` is built once per row, not once per record.
    """
    rows: dict[tuple[str, str, int, str], int] = {}
    row_of: list[int] = []
    bins: list[int] = []
    for r in records:
        if t0 <= r.ts_us < t1:
            client, host, port, _ = _service_endpoint(r)
            row_of.append(rows.setdefault((client, host, port, r.proto), len(rows)))
            bins.append((r.ts_us - t0) // width_us)
    row_arr = np.array(row_of, dtype=np.intp)
    grouped = np.array(bins, dtype=np.int64)[np.argsort(row_arr, kind="stable")]
    bounds = np.concatenate(([0], np.cumsum(np.bincount(row_arr, minlength=len(rows)))))
    return {
        Channel(client, ServiceKey(host, port, proto)): grouped[bounds[i] : bounds[i + 1]]
        for (client, host, port, proto), i in rows.items()
    }


def bin_activity(
    records: Iterable[FlowRecord],
    channel: Channel,
    bin_width: float,
    window: tuple[int, int],
) -> ChannelSeries:
    """Per-bin flow counts for ``channel`` over ``window`` = [t0_us, t1_us).

    One pass over the records bins every channel of the window at once.  On
    a :class:`FlowLog` that index is kept on the log and reused by later
    calls with the same bin width and window for as long as the log holds
    the same record objects (by identity) in the same order; any other
    iterable is indexed for this call only.  ``counts`` is a new int64
    array on every call.
    """
    t0, t1 = window
    if t0 >= t1:
        raise EmptyWindow(f"window [{t0}, {t1}) is empty")
    if not 1e-6 <= bin_width < math.inf:
        raise ValidationError("bin_width", f"must be finite and >= 1e-06, got {bin_width}")
    width_us = int(round(bin_width * 1e6))
    n_bins = -(-(t1 - t0) // width_us)  # ceil division
    if isinstance(records, FlowLog):
        key = (width_us, t0, t1)
        cached = records._binned
        if not (
            cached is not None
            and cached[0] == key
            and len(records) == len(cached[1])
            and all(map(operator.is_, records, cached[1]))
        ):
            snapshot = tuple(records)
            cached = records._binned = (key, snapshot, _channel_index(snapshot, t0, t1, width_us))
        index = cached[2]
    else:
        index = _channel_index(records, t0, t1, width_us)
    counts = np.bincount(index.get(channel, _NO_BINS), minlength=n_bins)
    counts = counts.astype(np.int64, copy=False)
    return ChannelSeries(channel, bin_width, t0, counts)
