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
from dataclasses import dataclass
from itertools import count, repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

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


class FlowRecord(NamedTuple):
    """One flow observation.  A named tuple: immutable, hashed and compared
    by value (also against a plain tuple of the same fields)."""

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


class FlowLog(tuple):
    """The records of one capture, in file order: a ``tuple`` of
    :class:`FlowRecord` that owns the capture's :class:`ChannelIndex` as
    ``by_channel``.

    The index is built once, when the log is made, and the log cannot be
    edited, so :func:`bin_activity`, :func:`~miakit.discovery.direct_dependencies`
    and :func:`~miakit.discovery.detect_retry_chains` read it as it is.
    """

    by_channel: ChannelIndex

    def __new__(cls, records: Iterable[FlowRecord] = ()) -> FlowLog:
        log = super().__new__(cls, records)
        log.by_channel = ChannelIndex(*_transposed(log)[:6])
        return log


INT64_MAX = 2**63 - 1
_NO_TS = np.empty(0, dtype=np.int64)


def _check_fields(fields: Sequence[str], line_no: int) -> FlowRecord:
    # Every rule bounds one field on its own, so a block of lines passes when
    # rows made of its columns' minima and maxima pass (see _in_range).
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
    if not 0 <= ts_us <= INT64_MAX:
        raise MalformedLine(line_no, f"ts_us {ts_us} out of range [0, {INT64_MAX}]")
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


# Lines that parse_flows checks and converts together, and the most lines of
# a failed block it reads line by line.
_BLOCK_LINES = 1024
_PIECE_LINES = 16
# Characters that only csv.reader may interpret: quotes and carriage returns,
# and NUL, which the reader refuses before Python 3.11.
_CSV_ONLY = ('"', "\r", "\0")
# The positions of the integer fields in a line.
_INT_FIELDS = (0, 2, 4, 6, 7)


def _transposed(records: Iterable[Sequence]) -> list:
    """The eight columns of ``records``, one sequence per field."""
    return list(zip(*records)) or [()] * 8


def _check_header(line: str) -> None:
    if line != FLOW_HEADER:
        raise MalformedLine(1, f"header must be exactly {FLOW_HEADER!r}")


def _check_rows(
    rows: Iterator[list[str]], line_no: int, strict: bool, malformed: list | None
) -> list:
    """The records of the csv ``rows``, the first of them line ``line_no``,
    by the line rules: in strict mode the first bad line raises
    :class:`MalformedLine`; otherwise it is skipped and (line_no, reason)
    is appended to ``malformed`` when a list is given.  A blank line is
    skipped."""
    records = []
    while True:
        try:
            try:
                fields = next(rows)
            except StopIteration:
                return records
            except csv.Error as exc:  # a field past csv.field_size_limit(); the reader goes on
                raise MalformedLine(line_no, str(exc)) from None
            if fields:
                records.append(_check_fields(fields, line_no))
        except MalformedLine as exc:
            if strict:
                raise
            if malformed is not None:
                malformed.append((exc.line_no, exc.reason))
        line_no += 1


# A row that passes every line rule, into which _in_range puts one value.
_PASSING_ROW = (0, "", 0, "", 0, "tcp", 0, 1)


def _in_range(k: int, column: list[int]) -> bool:
    """Whether every value of field ``k``'s converted ``column`` passes the
    line rules: its extremes do, each in an otherwise passing row."""
    row = list(_PASSING_ROW)
    try:
        for value in (min(column), max(column)):
            row[k] = value
            _check_fields(row, 0)
    except MalformedLine:
        return False
    return True


def _check_columns(columns: list, failed: int | None = None) -> int | None:
    """Convert the integer fields of a piece's eight ``columns`` in place,
    checking each one's extremes as soon as it is converted, and return the
    position in ``_INT_FIELDS`` of the first that fails them, or None.  A
    value that is no integer raises ValueError.  ``failed`` is such a
    position from a larger piece that held this one: the fields before it
    pass and it is converted already, so it is only checked again."""
    for n in range(failed or 0, len(_INT_FIELDS)):
        k = _INT_FIELDS[n]
        if n != failed:
            columns[k] = list(map(int, columns[k]))
        if not _in_range(k, columns[k]):
            return n
    return None


def _block_columns(lines: list[str], limit: int) -> tuple[list | None, int | None]:
    """``lines`` as their eight columns and the failed position that
    :func:`_check_columns` gives them: the columns are the block's records
    when it is None.  The columns are None instead when a line is longer
    than ``limit``, has not eight fields, or has a field that fails its
    rule before any range is checked (a protocol, or an integer that does
    not read)."""
    if max(map(len, lines)) > limit:
        return None, None
    # Each line boundary becomes a field "\n" of its own, which must fall
    # after every eighth field.
    fields = ",\n,".join(lines).split(",")
    if len(fields) != 9 * len(lines) - 1 or fields[8::9].count("\n") != len(lines) - 1:
        return None, None
    columns = [fields[k::9] for k in range(8)]
    try:
        # The protocols first: they cost least to check.
        for proto in set(columns[5]):
            _check_fields((0, "", 0, "", 0, proto, 0, 1), 0)
        return columns, _check_columns(columns)
    except (ValueError, MalformedLine):
        return None, None


def _half_columns(columns: list, failed: int, rows: slice) -> tuple[list | None, int | None]:
    """The ``rows`` of a piece whose field at ``failed`` failed its range,
    checked as :func:`_block_columns` checks a block, from the piece's own
    columns: no line is split or field converted twice."""
    half = [column[rows] for column in columns]
    try:
        return half, _check_columns(half, failed)
    except ValueError:
        return None, None


def _pieces(block: list[str], line_no: int, tried: tuple, limit: int,
            halve: bool = True) -> Iterator:
    """``block``, its first line ``line_no``, as (lines, first line,
    columns) pieces in line order.  ``tried`` is what :func:`_block_columns`
    gave the block: when its columns are not the records, its halves are
    tried, unless ``halve`` is false, from the block's columns when a range
    failed and by splitting their lines otherwise.  A failed piece of at
    most ``_PIECE_LINES`` lines is one piece with no columns, to be read
    line by line; a larger one whose halves are not tried or both fail is
    two such pieces, its halves (its bad lines are dense, and smaller
    pieces would only fail again)."""
    columns, failed = tried
    if columns is not None and failed is None:
        yield block, line_no, columns
        return
    if len(block) <= _PIECE_LINES:
        yield block, line_no, None
        return
    half = len(block) // 2
    halves = ((block[:half], line_no), (block[half:], line_no + half))
    if not halve:
        attempts = [(None, None)] * 2
    elif columns is None:
        attempts = [_block_columns(piece, limit) for piece, _ in halves]
    else:
        attempts = [_half_columns(columns, failed, rows) for rows in (slice(half), slice(half, None))]
    if all(c is None or f is not None for c, f in attempts):
        for piece, start in halves:
            yield piece, start, None
        return
    for (piece, start), attempt in zip(halves, attempts):
        yield from _pieces(piece, start, attempt, limit)


def parse_flows(
    source,
    strict: bool = True,
    malformed: list | None = None,
) -> FlowLog:
    """Parse flow CSV from a path, file object, or string content.

    Strict mode raises :class:`MalformedLine` on the first bad line; lenient
    mode skips bad lines, tallying (line_no, reason) into ``malformed`` when
    a list is supplied.  A field longer than :func:`csv.field_size_limit` is
    a bad line.

    The text is read in blocks of ``_BLOCK_LINES`` lines.  A block whose
    lines all have eight fields is split and converted column by column, and
    each column's extremes are checked as soon as it is converted; any
    other block, or one that fails a check, is tried again in halves.  The
    halves of a block that failed a range are cut from its split and
    converted columns.  A piece of at most ``_PIECE_LINES``
    lines that fails, or one whose halves both fail, is read line by line
    with :func:`csv.reader`.  Pieces are kept in line order, so a bad line
    is met in file order.  A failed block is not tried in halves when the
    last block that had bad or blank lines had them in both halves: where
    bad lines are that dense, both halves would fail as well.  A text
    holding a quote, a carriage return or a NUL is read line by line
    throughout.  Equal host and protocol strings are held once.  The log's
    :class:`ChannelIndex` is built from the columns, once.
    """
    if isinstance(source, str):
        text = source if "\n" in source else read_text(source)
    else:
        text = source.read()

    records: list[FlowRecord] = []
    columns: list[list] = [[] for _ in range(6)]
    strings: dict[str, str] = {}

    def keep(parsed: Sequence) -> None:
        ts_us, src, src_port, dst, dst_port, proto, nbytes, packets = parsed
        src, dst, proto = (list(map(strings.setdefault, c, c)) for c in (src, dst, proto))
        rows = zip(ts_us, src, src_port, dst, dst_port, proto, nbytes, packets)
        records.extend(map(tuple.__new__, repeat(FlowRecord), rows))
        for column, values in zip(columns, (ts_us, src, src_port, dst, dst_port, proto)):
            column.extend(values)

    if any(c in text for c in _CSV_ONLY):
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader, [])
        except csv.Error:
            header = []
        _check_header(",".join(header))
        keep(_transposed(_check_rows(reader, 2, strict, malformed)))
    else:
        lines = text.split("\n")
        if lines[-1] == "":
            lines.pop()
        _check_header(lines[0] if lines else "")
        limit = csv.field_size_limit()
        dense = False
        for start in range(1, len(lines), _BLOCK_LINES):
            block = lines[start : start + _BLOCK_LINES]
            pieces = _pieces(block, start + 1, _block_columns(block, limit), limit, not dense)
            # Which halves of the block held a line that gave no record.
            irregular = set()
            for piece, line_no, parsed in pieces:
                if parsed is None:
                    rows = _check_rows(csv.reader(piece), line_no, strict, malformed)
                    if len(rows) < len(piece):
                        irregular.add(line_no - start - 1 >= len(block) // 2)
                    parsed = _transposed(rows)
                keep(parsed)
            if irregular:
                dense = len(irregular) == 2
    log = tuple.__new__(FlowLog, records)
    log.by_channel = ChannelIndex(*columns)
    return log


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
    _, src_host, src_port, dst_host, dst_port, proto, _, _ = record
    ambiguous = min(src_port, dst_port) > REGISTERED_PORT_LIMIT
    if dst_port <= src_port:
        return src_host, ServiceKey(dst_host, dst_port, proto), ambiguous
    return dst_host, ServiceKey(src_host, src_port, proto), ambiguous


def identify_services(records: Iterable[FlowRecord]) -> set[ServiceKey]:
    """Distinct service endpoints observed across ``records``."""
    return {service_side(r)[1] for r in records}


def channel_of(record: FlowRecord) -> Channel:
    client, service, _ = service_side(record)
    return Channel(client, service)


class ChannelIndex:
    """Every record of a capture by channel.

    ``channels`` holds one :class:`Channel` per row, numbered in order of
    first appearance; ``row`` and ``ts_us`` give each record's row and
    timestamp (int64), in record order.  ``ts_by_row`` is ``ts_us`` grouped
    by row, ascending within a row: row ``k`` owns
    ``ts_by_row[bounds[k]:bounds[k + 1]]``.  Nothing here depends on a bin
    width or window.

    Built from the records' first six columns; :func:`channel_index` gives
    the index of any iterable of records.
    """

    def __init__(self, ts_us, src_host, src_port, dst_host, dst_port, proto):
        # The service side is the endpoint with the lower port; the
        # destination wins ties (service_side, column by column).
        src_port = np.array(src_port, dtype=np.int64)
        dst_port = np.array(dst_port, dtype=np.int64)
        served = dst_port <= src_port
        src_host = np.array(src_host, dtype=object)
        dst_host = np.array(dst_host, dtype=object)
        keys = zip(
            np.where(served, src_host, dst_host).tolist(),
            np.where(served, dst_host, src_host).tolist(),
            np.where(served, dst_port, src_port).tolist(),
            proto,
        )
        # Each record's key maps to the position of the key's first record,
        # so numbering the distinct positions in order numbers the rows in
        # order of first appearance.
        rows: dict[tuple[str, str, int, str], int] = {}
        first = np.fromiter(map(rows.setdefault, keys, count()), dtype=np.intp, count=len(ts_us))
        self.channels = [
            Channel(client, ServiceKey(host, port, proto)) for client, host, port, proto in rows
        ]
        self.row_of = {ch: k for k, ch in enumerate(self.channels)}
        self.row = np.unique(first, return_inverse=True)[1]
        self.ts_us = np.array(ts_us, dtype=np.int64)
        self.ts_by_row = self.ts_us[np.lexsort((self.ts_us, self.row))]
        self.bounds = np.concatenate(
            ([0], np.cumsum(np.bincount(self.row, minlength=len(rows))))
        )


def channel_index(records: Iterable[FlowRecord]) -> ChannelIndex:
    """The :class:`ChannelIndex` of ``records``: a :class:`FlowLog`'s own,
    built for this call from any other iterable."""
    if isinstance(records, FlowLog):
        return records.by_channel
    return ChannelIndex(*_transposed(records)[:6])


def bin_width_us(bin_width: float) -> int:
    """``bin_width`` seconds in whole microseconds; it must be finite and at
    least 1e-06."""
    if not 1e-6 <= bin_width < math.inf:
        raise ValidationError("bin_width", f"must be finite and >= 1e-06, got {bin_width}")
    return int(round(bin_width * 1e6))


def bin_activity(
    records: Iterable[FlowRecord],
    channel: Channel,
    bin_width: float,
    window: tuple[int, int],
) -> ChannelSeries:
    """Per-bin flow counts for ``channel`` over ``window`` = [t0_us, t1_us).

    The counts come from the capture's :func:`channel_index`: a
    :class:`FlowLog`'s serves every call, whatever its bin width and window.
    ``counts`` is a new int64 array on every call.  A window with more bins
    than numpy can allocate is a :class:`~miakit.fields.ValidationError` on
    ``bin_width``.
    """
    t0, t1 = window
    if t0 >= t1:
        raise EmptyWindow(f"window [{t0}, {t1}) is empty")
    width_us = bin_width_us(bin_width)
    n_bins = -(-(t1 - t0) // width_us)  # ceil division
    index = channel_index(records)
    k = index.row_of.get(channel)
    if k is None:
        ts = _NO_TS
    else:
        ts = index.ts_by_row[index.bounds[k] : index.bounds[k + 1]]
        ts = ts[(ts >= t0) & (ts < t1)]
    try:
        counts = np.bincount((ts - t0) // width_us, minlength=n_bins)
    except (MemoryError, OverflowError, ValueError):  # numpy's three ways to refuse the size
        reason = f"window [{t0}, {t1}) needs {n_bins} bins of {bin_width} s, too many to hold"
        raise ValidationError("bin_width", reason) from None
    return ChannelSeries(channel, bin_width, t0, counts.astype(np.int64, copy=False))
