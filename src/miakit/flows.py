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
from itertools import chain, islice, repeat
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


# Lines that parse_flows reads from their bytes together.
_BLOCK_LINES = 1024
# Characters that only csv.reader may interpret: quotes and carriage returns,
# and NUL, which the reader refuses before Python 3.11.
_CSV_ONLY = ('"', "\r", "\0")
# The positions of the integer fields in a line.
_INT_FIELDS = (0, 2, 4, 6, 7)
# The protocols, coded 0 and 1, and their bytes.
_PROTOS = ("tcp", "udp")
_TCP, _UDP = (np.frombuffer(p.encode(), dtype=np.uint8) for p in _PROTOS)
# The most bytes that a block's hosts are packed into to code them with
# numpy (hosts of up to 128 bytes, in blocks of 1,024 lines).
_HOST_BYTES = 1 << 18
# An odd multiplier that mixes a long host's words into one key.
_MIX = np.uint64(0x9E3779B97F4A7C15)


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


def _first_of(inverse: np.ndarray, n_codes: int) -> np.ndarray:
    """The position of each code's first appearance in ``inverse``."""
    first = np.full(n_codes, len(inverse), dtype=np.intp)
    np.minimum.at(first, inverse, np.arange(len(inverse)))
    return first


class _Parse:
    """The records of one parse, their host and protocol strings, each held
    once and coded by its place in ``names`` (the protocols are codes 0 and
    1), and the index columns of the records, one part per block."""

    def __init__(self, strict: bool, malformed: list | None) -> None:
        self.strict = strict
        self.malformed = malformed
        self.records: list[FlowRecord] = []
        self.names = list(_PROTOS)
        self.codes = {name.encode(): k for k, name in enumerate(self.names)}
        self.protos = np.array(self.names, dtype=object)
        self.parts: list = []

    def code(self, raw: bytes) -> int:
        """The code of the string whose UTF-8 bytes are ``raw``, decoded the
        first time it is met."""
        k = self.codes.get(raw)
        if k is None:
            k = self.codes[raw] = len(self.names)
            self.names.append(raw.decode("utf-8", "surrogatepass"))
        return k

    def checked(self, rows: Iterator[list[str]], line_no: int) -> np.ndarray:
        """Keep the records that :func:`_check_rows` reads from the csv
        ``rows``, their strings replaced by the held ones, and return their
        index columns (ts_us, src_host, src_port, dst_host, dst_port, proto;
        strings as codes), one row per column."""
        records = _check_rows(rows, line_no, self.strict, self.malformed)
        ts_us, src, src_port, dst, dst_port, proto, nbytes, packets = _transposed(records)
        codes = []
        for column in (src, dst, proto):
            code = {s: self.code(s.encode("utf-8", "surrogatepass")) for s in set(column)}
            codes.append(list(map(code.__getitem__, column)))
        src, dst, proto = (list(map(self.names.__getitem__, column)) for column in codes)
        self.records.extend(map(tuple.__new__, repeat(FlowRecord),
                                zip(ts_us, src, src_port, dst, dst_port, proto, nbytes, packets)))
        return np.array([ts_us, codes[0], src_port, codes[1], dst_port, codes[2]], dtype=np.int64)

    def block(self, data: bytes, offset: int, block: np.ndarray, starts: np.ndarray,
              ends: np.ndarray, line_no: int, limit: int) -> None:
        """Keep the records of a block of :func:`_blocks`, its first line
        ``line_no``: the regular lines' from their columns, and each other
        line's from :func:`_check_rows`, alone, in line order."""
        lines, values, proto, hosts = _regular(block, starts, ends, limit)
        inverse, first = _host_codes(block, *hosts)
        code = [self.code(data[offset + a : offset + a + n])
                for a, n in zip(*(h[first].tolist() for h in hosts))]
        held = np.array([self.names[k] for k in code], dtype=object)[inverse]
        code = np.array(code, dtype=np.intp)[inverse]
        m = len(lines)
        ts_us, src_port, dst_port, nbytes, packets = values
        part = [ts_us, code[:m], src_port, code[m:], dst_port, proto]
        rows = zip(ts_us.tolist(), held[:m].tolist(), src_port.tolist(), held[m:].tolist(),
                   dst_port.tolist(), self.protos[proto].tolist(), nbytes.tolist(), packets.tolist())
        regular = np.zeros(len(ends), dtype=bool)
        regular[lines] = True
        records = self.records
        at, extra, taken = [], [], 0
        for k, line in enumerate(np.flatnonzero(~regular).tolist()):
            # The regular lines before this one, then this one alone.
            records.extend(map(tuple.__new__, repeat(FlowRecord), islice(rows, line - k - taken)))
            taken = line - k
            raw = data[offset + int(starts[line]) : offset + int(ends[line])]
            checked = self.checked(csv.reader([raw.decode("utf-8", "surrogatepass")]), line_no + line)
            at += [taken] * checked.shape[1]
            extra.append(checked)
        records.extend(map(tuple.__new__, repeat(FlowRecord), rows))
        if at:
            extra = np.concatenate(extra, axis=1)
            part = [np.insert(column, at, values) for column, values in zip(part, extra)]
        self.parts.append(part)

    def log(self) -> FlowLog:
        """The records as a :class:`FlowLog` with their index."""
        columns = [np.concatenate(c) for c in zip(*self.parts)] if self.parts else [_NO_TS] * 6
        log = tuple.__new__(FlowLog, self.records)
        log.by_channel = ChannelIndex.from_codes(*columns, self.names)
        return log


def _blocks(buf: np.ndarray, start: int) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """The lines of ``buf`` from ``start`` on, in blocks of at most
    ``_BLOCK_LINES``, as (offset, block, starts, ends): ``block`` is the
    bytes of the block's lines, from ``buf[offset]`` on; line k is
    ``block[starts[k]:ends[k]]``, and ends[k] is its newline or the end of
    ``buf``.  Positions are int32 unless a block is too long for them.
    Only a block's own bytes, and as many again, are searched."""
    size = len(buf)
    span = 64 * _BLOCK_LINES
    while start < size:
        ends = np.flatnonzero(buf[start : start + span] == 10)
        while len(ends) < _BLOCK_LINES and start + span < size:
            span *= 2
            ends = np.flatnonzero(buf[start : start + span] == 10)
        ends = ends[:_BLOCK_LINES]
        if len(ends) < _BLOCK_LINES and (not len(ends) or start + ends[-1] < size - 1):
            ends = np.append(ends, size - start)  # a last line with no newline
        stop = start + int(ends[-1])
        ends = ends.astype(np.int32 if stop - start < 2**31 else np.int64)
        starts = np.empty_like(ends)
        starts[0] = 0
        starts[1:] = ends[:-1] + 1
        yield start, buf[start:stop], starts, ends
        span = max(64 * _BLOCK_LINES, 2 * (stop - start))
        start = stop + 1


def _integers(buf: np.ndarray, start: np.ndarray, length: np.ndarray) -> tuple:
    """The fields ``buf[start:start + length]`` read as decimal integers, and
    whether each is 1 to 18 ASCII digits (which an int64 holds): a value
    counts only where it is.  The digits are gathered one row per place, so
    every step runs along a row of fields."""
    width = int(min(length.max(initial=1), 18))
    at = np.arange(-width, 0, dtype=start.dtype)[:, None] + (start + length)
    digits = np.take(buf, at, mode="clip") - 48  # any other byte wraps to 10 or more
    digits *= at >= start
    ok = (digits < 10).all(axis=0) & (length >= 1) & (length <= 18)
    value = digits[0].astype(np.int64)
    for place in digits[1:]:
        value *= 10
        value += place
    return value, ok


def _regular(block: np.ndarray, starts: np.ndarray, ends: np.ndarray, limit: int) -> tuple:
    """The regular lines of a block: lines of exactly eight fields, none
    longer than ``limit`` bytes, whose integer fields are 1 to 18 ASCII
    digits within the line rules' ranges and whose protocol is exactly tcp
    or udp.  Returns their positions in the block, the values of their
    integer fields (one row per field of ``_INT_FIELDS``), their protocol
    codes, and the start and length of their source hosts, then of their
    destination hosts."""
    commas = np.flatnonzero(block == 44).astype(starts.dtype)
    before = np.searchsorted(commas, ends)
    lines = np.flatnonzero(np.diff(before, prepend=0) == 7)
    # One row per field, one column per line.
    cuts = commas[np.arange(-7, 0)[:, None] + before[lines]]
    start = np.vstack((starts[lines], cuts + 1))
    length = np.vstack((cuts, ends[lines])) - start
    ok = (length <= limit).all(axis=0)
    values = []
    for k in _INT_FIELDS:
        value, digits = _integers(block, start[k], length[k])
        values.append(value)
        ok &= digits
    _, src_port, dst_port, _, packets = values
    ok &= (src_port <= 65535) & (dst_port <= 65535) & (packets >= 1)
    proto = np.take(block, np.arange(3, dtype=start.dtype)[:, None] + start[5], mode="clip")
    udp = (proto == _UDP[:, None]).all(axis=0)
    ok &= (length[5] == 3) & (udp | (proto == _TCP[:, None]).all(axis=0))
    hosts = start[[1, 3]][:, ok].ravel(), length[[1, 3]][:, ok].ravel()
    return lines[ok], np.array(values)[:, ok], udp[ok].astype(np.int64), hosts


def _host_codes(block: np.ndarray, start: np.ndarray, length: np.ndarray) -> tuple:
    """Codes for the byte strings ``block[start:start + length]``, equal for
    equal strings, and the position of each code's first string.  The
    strings are packed into zero-padded 8-byte words (no host holds a NUL)
    and coded by ``np.unique``; strings too long to pack, or whose mixed
    words collide, are coded by a dict."""
    width = -(-int(length.max(initial=0)) // 8)
    if 0 < 8 * width * len(start) <= _HOST_BYTES:
        cells = np.arange(8 * width, dtype=start.dtype)[:, None]
        packed = np.take(block, cells + start, mode="clip")
        packed *= cells < length
        words = np.ascontiguousarray(packed.T).view(np.uint64)
        key = words[:, 0]
        for k in range(1, width):
            key = key * _MIX + words[:, k]
        distinct, inverse = np.unique(key, return_inverse=True)
        first = _first_of(inverse, len(distinct))
        if width == 1 or np.array_equal(words[first][inverse], words):
            return inverse, first
    seen: dict[bytes, int] = {}
    ends = (start + length).tolist()
    inverse = np.fromiter((seen.setdefault(block[a:b].tobytes(), len(seen))
                           for a, b in zip(start.tolist(), ends)),
                          dtype=np.intp, count=len(start))
    return inverse, _first_of(inverse, len(seen))


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

    The text's UTF-8 bytes (``surrogatepass``) are read with numpy, in
    blocks of ``_BLOCK_LINES`` lines: one search finds a block's newlines,
    and one its commas.  A *regular* line has exactly eight fields, none
    longer than the field size limit; its five integer fields are 1 to 18
    ASCII digits within their ranges, and its protocol is exactly tcp or
    udp.  The integers of regular lines are read column by column from
    their digits, and their hosts are coded with ``np.unique``, each
    distinct host decoded once.  Every other line (a blank line, a wrong
    field count, a sign, a space, a non-ASCII digit, 19 or more digits, a
    value out of range) is read alone, in line order, by
    :func:`csv.reader` and the line rules, so it keeps its record or its
    number and reason.  A text holding a quote, a carriage return or a NUL
    is read by :func:`csv.reader` throughout.  Equal host and protocol
    strings are held once.  The log's :class:`ChannelIndex` is built once,
    from the strings' integer codes.
    """
    if isinstance(source, str):
        text = source if "\n" in source else read_text(source)
    else:
        text = source.read()

    parse = _Parse(strict, malformed)
    if any(c in text for c in _CSV_ONLY):
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader, [])
        except csv.Error:
            header = []
        _check_header(",".join(header))
        parse.parts.append(parse.checked(reader, 2))
    else:
        _check_header(text.partition("\n")[0])
        data = text.encode("utf-8", "surrogatepass")
        limit = csv.field_size_limit()
        line_no = 2
        for offset, block, starts, ends in _blocks(np.frombuffer(data, dtype=np.uint8),
                                                   data.find(b"\n") + 1 or len(data)):
            parse.block(data, offset, block, starts, ends, line_no, limit)
            line_no += len(ends)
    return parse.log()


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

    Built from the records' first six columns: ``ChannelIndex(*columns)``
    codes their strings and calls :meth:`from_codes`, which
    :func:`parse_flows` calls with the codes it read.
    :func:`channel_index` gives the index of any iterable of records.
    """

    def __init__(self, ts_us, src_host, src_port, dst_host, dst_port, proto):
        names = list(dict.fromkeys(chain(proto, src_host, dst_host)))
        code = {name: k for k, name in enumerate(names)}.__getitem__

        def codes(column: Sequence[str]) -> np.ndarray:
            return np.fromiter(map(code, column), dtype=np.intp, count=len(column))

        self._build(np.array(ts_us, dtype=np.int64), codes(src_host),
                    np.array(src_port, dtype=np.int64), codes(dst_host),
                    np.array(dst_port, dtype=np.int64), codes(proto), names)

    @classmethod
    def from_codes(cls, ts_us, src_host, src_port, dst_host, dst_port, proto,
                   names: Sequence[str]) -> ChannelIndex:
        """The index of records whose six columns are integer arrays, with
        each host and protocol given as its position in ``names``."""
        index = cls.__new__(cls)
        index._build(ts_us, src_host, src_port, dst_host, dst_port, proto, names)
        return index

    def _build(self, ts_us, src_host, src_port, dst_host, dst_port, proto, names) -> None:
        # The service side is the endpoint with the lower port; the
        # destination wins ties (service_side, column by column).
        served = dst_port <= src_port
        client = np.where(served, src_host, dst_host)
        host = np.where(served, dst_host, src_host)
        port = np.where(served, dst_port, src_port)
        # One integer key per (client, host, port, proto): the port and the
        # protocol are appended in turn as digits of their own radix, the
        # key so far first made dense where the digit would overflow it.
        key = client.astype(np.int64) * len(names) + host
        for digit in (port, proto) if len(key) else ():
            low, high = int(digit.min()), int(digit.max())
            if high - low >= 2**31:  # ports of hand-built records only
                digit, low = np.unique(digit, return_inverse=True)[1], 0
                high = int(digit.max())
            radix = high - low + 1
            if int(key.max()) >= 2**63 // radix - 1:
                key = np.unique(key, return_inverse=True)[1]
            key = key * radix + (digit - low)
        distinct, inverse = np.unique(key, return_inverse=True)
        # Rows are numbered in order of their first record.
        first = _first_of(inverse, len(distinct))
        order = np.argsort(first)
        rank = np.empty(len(order), dtype=np.intp)
        rank[order] = np.arange(len(order))
        first = first[order]
        self.channels = [
            Channel(names[c], ServiceKey(names[h], p, names[q]))
            for c, h, p, q in zip(*(column[first].tolist() for column in (client, host, port, proto)))
        ]
        self.row_of = {ch: k for k, ch in enumerate(self.channels)}
        self.row = rank[inverse]
        self.ts_us = ts_us
        # By time, then stably by row: a row number that fits in 16 bits
        # sorts by radix.
        order = np.argsort(ts_us, kind="stable")
        by_row = self.row[order]
        if len(self.channels) <= 2**15:
            by_row = by_row.astype(np.int16)
        self.ts_by_row = ts_us[order[np.argsort(by_row, kind="stable")]]
        self.bounds = np.concatenate(
            ([0], np.cumsum(np.bincount(self.row, minlength=len(self.channels))))
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
