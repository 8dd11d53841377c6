import csv
import gc
import heapq
import io
import itertools
import operator
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miakit import flows
from miakit.discovery import detect_retry_chains, direct_dependencies
from miakit.flows import (
    FLOW_HEADER,
    REGISTERED_PORT_LIMIT,
    Channel,
    ChannelIndex,
    EmptyWindow,
    FlowLog,
    FlowRecord,
    MalformedLine,
    ServiceKey,
    bin_activity,
    channel_index,
    channel_of,
    parse_flows,
    parse_service,
    serialize_flows,
    service_side,
)
from miakit.synth import gen_flows


def flow(ts_us=0, src="10.0.0.2", sport=51514, dst="10.0.0.1", dport=443, proto="tcp"):
    return FlowRecord(ts_us, src, sport, dst, dport, proto, 100, 1)


class TestParsing:
    def test_empty_file_with_header(self):
        assert list(parse_flows(FLOW_HEADER + "\n")) == []

    def test_parse_returns_a_flow_log_tuple(self):
        records = [flow(ts_us=5), flow(ts_us=9, dport=22)]
        log = parse_flows(serialize_flows(records))
        assert isinstance(log, FlowLog) and isinstance(log, tuple)
        assert log == tuple(records) and log[1:] == tuple(records[1:]) and list(log) == records

    def test_wrong_header_rejected(self):
        with pytest.raises(MalformedLine):
            parse_flows("ts,src\n1,2\n")

    def test_port_out_of_range(self):
        text = FLOW_HEADER + "\n1,a,70000,b,443,tcp,10,1\n"
        with pytest.raises(MalformedLine) as err:
            parse_flows(text)
        assert err.value.line_no == 2

    @pytest.mark.parametrize(
        "row",
        [
            "1,a,1,b,443,icmp,10,1",  # bad proto
            "1,a,1,b,443,tcp,-5,1",  # negative bytes
            "1,a,1,b,443,tcp,10,0",  # packets < 1
            "x,a,1,b,443,tcp,10,1",  # non-integer ts
            "1,a,1,b,443,tcp,10",  # missing field
        ],
    )
    def test_malformed_rows(self, row):
        with pytest.raises(MalformedLine):
            parse_flows(FLOW_HEADER + "\n" + row + "\n")

    @pytest.mark.parametrize("ts", [-1, 2**63, 10**30])
    def test_timestamp_outside_int64_rejected(self, ts):
        with pytest.raises(MalformedLine) as err:
            parse_flows(FLOW_HEADER + f"\n{ts},a,1,b,443,tcp,10,1\n")
        assert err.value.line_no == 2
        assert err.value.reason == f"ts_us {ts} out of range [0, {2**63 - 1}]"

    def test_int64_timestamp_bounds_accepted(self):
        text = FLOW_HEADER + f"\n0,a,51514,b,443,tcp,10,1\n{2**63 - 1},a,51514,b,443,tcp,10,1\n"
        log = parse_flows(text)
        assert [r.ts_us for r in log] == [0, 2**63 - 1]
        series = bin_activity(log, channel_of(log[0]), 1.0, (2**63 - 2_000_000, 2**63))
        assert list(series.counts) == [0, 1]

    def test_lenient_mode_skips_out_of_range_timestamp(self):
        text = FLOW_HEADER + f"\n1,a,1,b,443,tcp,10,1\n{2**63},a,1,b,443,tcp,10,1\n"
        skipped = []
        assert len(parse_flows(text, strict=False, malformed=skipped)) == 1
        assert [line for line, _ in skipped] == [3]

    def test_lenient_mode_skips_and_tallies(self):
        text = FLOW_HEADER + "\n1,a,1,b,443,tcp,10,1\nbad,line\n2,a,1,b,443,tcp,10,1\n"
        skipped = []
        records = parse_flows(text, strict=False, malformed=skipped)
        assert len(records) == 2
        assert len(skipped) == 1 and skipped[0][0] == 3

    def test_round_trip_is_byte_identical(self):
        rng = random.Random(606)
        records = [
            FlowRecord(
                ts_us=rng.randrange(10**12),
                src_host=f"10.0.{rng.randrange(5)}.{rng.randrange(250)}",
                src_port=rng.randrange(1024, 65536),
                dst_host=f"10.1.0.{rng.randrange(250)}",
                dst_port=rng.choice([22, 53, 80, 443, 2404, 5432]),
                proto=rng.choice(["tcp", "udp"]),
                bytes=rng.randrange(0, 10**6),
                packets=rng.randrange(1, 1000),
            )
            for _ in range(10_000)
        ]
        text = serialize_flows(records)
        assert list(parse_flows(text)) == records
        assert serialize_flows(parse_flows(text)) == text


# Hosts without the characters CSV would quote.
csv_host = st.text(alphabet="abcxyz0123456789.-_:", min_size=1, max_size=12)
any_record = st.builds(
    FlowRecord,
    ts_us=st.integers(min_value=0, max_value=2**63 - 1),
    src_host=csv_host,
    src_port=st.integers(min_value=0, max_value=65535),
    dst_host=csv_host,
    dst_port=st.integers(min_value=0, max_value=65535),
    proto=st.sampled_from(["tcp", "udp"]),
    bytes=st.integers(min_value=0, max_value=10**12),
    packets=st.integers(min_value=1, max_value=10**9),
)


class TestFlowRecord:
    TEXT = FLOW_HEADER + "\n5,a,51514,b,443,tcp,10,1\n7,b,22,c,60000,udp,0,3\n"

    def test_fields_cannot_be_assigned(self):
        record = parse_flows(self.TEXT)[0]
        with pytest.raises(AttributeError):
            record.ts_us = 6
        with pytest.raises(AttributeError):
            record.extra = 1
        assert record.ts_us == 5

    def test_two_parses_are_equal_and_hash_alike(self):
        first, second = parse_flows(self.TEXT), parse_flows(self.TEXT)
        assert first == second
        assert all(a is not b for a, b in zip(first, second))
        assert [hash(r) for r in first] == [hash(r) for r in second]
        assert set(first) == set(second)

    def test_a_record_is_a_named_tuple(self):
        # What a named tuple adds over the frozen dataclass it replaced.
        record = parse_flows(self.TEXT)[0]
        assert record == (5, "a", 51514, "b", 443, "tcp", 10, 1)
        assert hash(record) == hash((5, "a", 51514, "b", 443, "tcp", 10, 1))
        ts_us, *_, packets = record
        assert (ts_us, packets) == (5, 1)
        assert sorted([record._replace(ts_us=9), record]) == [record, record._replace(ts_us=9)]

    @given(records=st.lists(any_record, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_serialize_parse_round_trip(self, records):
        text = serialize_flows(records)
        assert list(parse_flows(text)) == records
        assert serialize_flows(parse_flows(text)) == text


def three_branch_rule(record, limit):
    """Reference: the service-side rule with a registered-port limit, as
    (destination is the service side, ambiguous)."""
    src_ok = record.src_port <= limit
    dst_ok = record.dst_port <= limit
    if src_ok and dst_ok:
        dst_side = record.dst_port <= record.src_port
    elif dst_ok or src_ok:
        dst_side = dst_ok
    else:
        dst_side = record.dst_port <= record.src_port
    return dst_side, not (src_ok or dst_ok)


port = st.one_of(st.integers(0, 65535), st.sampled_from([0, 49151, 49152, 65535]))


class TestServiceIdentification:
    @given(sport=port, dport=port, limit=port)
    def test_lower_port_rule_matches_the_three_branch_rule(self, sport, dport, limit):
        record = flow(src="a", sport=sport, dst="b", dport=dport)
        client, _, ambiguous = service_side(record)
        assert (client == "a") == three_branch_rule(record, limit)[0]
        assert ambiguous == three_branch_rule(record, REGISTERED_PORT_LIMIT)[1]

    def test_well_known_port_side(self):
        client, svc, ambiguous = service_side(flow())
        assert (client, svc) == ("10.0.0.2", ServiceKey("10.0.0.1", 443, "tcp"))
        assert not ambiguous

    def test_registered_on_source_side(self):
        client, svc, ambiguous = service_side(flow(sport=443, dport=51514, src="s", dst="c"))
        assert (client, svc) == ("c", ServiceKey("s", 443, "tcp"))
        assert not ambiguous

    def test_both_ephemeral_takes_lower_port_flagged(self):
        client, svc, ambiguous = service_side(flow(sport=56000, dport=55000))
        assert svc.port == 55000
        assert ambiguous

    def test_both_registered_takes_lower_port(self):
        _, svc, ambiguous = service_side(flow(sport=8080, dport=443))
        assert svc.port == 443 and not ambiguous

    def test_deterministic_and_order_independent(self):
        rng = random.Random(99)
        records = [
            flow(ts_us=k, sport=rng.randrange(1, 65536), dport=rng.randrange(1, 65536))
            for k in range(500)
        ]
        shuffled = records[:]
        rng.shuffle(shuffled)
        sides = {r: service_side(r) for r in records}
        assert [service_side(r) for r in shuffled] == [sides[r] for r in shuffled]
        assert {svc for _, svc, _ in map(service_side, shuffled)} == \
            {svc for _, svc, _ in sides.values()}

    def test_synthetic_corpus_ground_truth(self):
        # Generator clients use ephemeral ports, so every flow's service side
        # is recoverable exactly.
        topology = {
            "duration_s": 300,
            "channels": [
                {"client": "ws-1", "service": "app-1:8080/tcp", "rate_per_s": 1.0},
                {"client": "ws-2", "service": "db-1:5432/tcp", "rate_per_s": 1.0},
            ],
        }
        records, truth = gen_flows(topology, seed=3)
        expected = {parse_service(d["service"]) for d in truth["direct"]}
        assert {service_side(r)[1] for r in records} == expected
        for r in records:
            client, svc, ambiguous = service_side(r)
            assert not ambiguous
            assert {"client": client, "service": svc.label()} in truth["direct"]


class TestBinning:
    def channel(self):
        return Channel("10.0.0.2", ServiceKey("10.0.0.1", 443, "tcp"))

    def test_empty_window_rejected(self):
        with pytest.raises(EmptyWindow):
            bin_activity([], self.channel(), 1.0, (5, 5))
        with pytest.raises(ValueError):
            bin_activity([], self.channel(), 0.0, (0, 10))

    def test_no_matching_records(self):
        series = bin_activity([flow(ts_us=1, dport=22)], self.channel(), 1.0, (0, 5_500_000))
        assert list(series.counts) == [0, 0, 0, 0, 0, 0]  # ceil(5.5) bins

    def test_boundary_inclusion(self):
        series = bin_activity([flow(ts_us=0)], self.channel(), 1.0, (0, 2_000_000))
        assert list(series.counts) == [1, 0]

    def test_recount_oracle(self):
        rng = random.Random(17)
        records = [flow(ts_us=rng.randrange(0, 10_000_000)) for _ in range(500)]
        records += [flow(ts_us=rng.randrange(0, 10_000_000), dport=22) for _ in range(200)]
        window = (1_000_000, 9_000_000)
        series = bin_activity(records, self.channel(), 0.7, window)
        direct = sum(
            1
            for r in records
            if window[0] <= r.ts_us < window[1] and channel_of(r) == self.channel()
        )
        assert int(series.counts.sum()) == direct

    @given(
        ts=st.lists(st.integers(min_value=0, max_value=19_999_999), max_size=200),
        width=st.sampled_from([0.5, 1.0, 2.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_conservation_and_halving(self, ts, width):
        records = [flow(ts_us=t) for t in ts]
        window = (0, 20_000_000)
        coarse = bin_activity(records, self.channel(), width, window)
        fine = bin_activity(records, self.channel(), width / 2, window)
        in_window = sum(1 for t in ts if window[0] <= t < window[1])
        assert int(coarse.counts.sum()) == in_window
        assert int(fine.counts.sum()) == in_window
        paired = fine.counts.reshape(-1, 2).sum(axis=1)
        assert np.array_equal(paired, coarse.counts)


def bin_oracle(records, channel, bin_width, window):
    """Reference: the per-record loop ``bin_activity`` ran before it indexed
    channels."""
    t0, t1 = window
    width_us = int(round(bin_width * 1e6))
    n_bins = -(-(t1 - t0) // width_us)  # ceil division
    counts = np.zeros(n_bins, dtype=np.int64)
    for r in records:
        if not (t0 <= r.ts_us < t1):
            continue
        if channel_of(r) != channel:
            continue
        counts[(r.ts_us - t0) // width_us] += 1
    return counts


flow_record = st.builds(
    flow,
    ts_us=st.integers(min_value=0, max_value=12_000_000),
    src=st.sampled_from(["10.0.0.2", "10.0.0.3", "10.0.0.1"]),
    sport=st.sampled_from([51514, 443, 60000]),
    dst=st.sampled_from(["10.0.0.1", "10.0.0.4"]),
    dport=st.sampled_from([443, 22, 55000]),
    proto=st.sampled_from(["tcp", "udp"]),
)
window = st.tuples(
    st.integers(min_value=0, max_value=6_000_000), st.integers(min_value=1, max_value=8_000_000)
).map(lambda w: (w[0], w[0] + w[1]))
width = st.sampled_from([0.25, 0.7, 1.0, 3.0])
ABSENT = Channel("10.9.9.9", ServiceKey("10.0.0.1", 443, "tcp"))


def channels(records):
    return sorted({channel_of(r) for r in records} | {ABSENT}, key=Channel.label)


def assert_matches_oracle(records, bin_width, win):
    for ch in channels(records):
        got = bin_activity(records, ch, bin_width, win)
        want = bin_oracle(list(records), ch, bin_width, win)
        assert got.counts.dtype == np.int64
        assert np.array_equal(got.counts, want), ch.label()


class TestChannelIndex:
    @given(records=st.lists(flow_record, max_size=80), bin_width=width, win=window)
    @settings(max_examples=60, deadline=None)
    def test_log_list_and_generator_match_oracle(self, records, bin_width, win):
        log = FlowLog(records)
        for ch in channels(records):
            want = bin_oracle(records, ch, bin_width, win)
            for source in (log, list(records), (r for r in records)):
                assert np.array_equal(bin_activity(source, ch, bin_width, win).counts, want)

    @given(
        records=st.lists(flow_record, max_size=80),
        first=st.tuples(width, window),
        second=st.tuples(width, window),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_log_two_binnings_in_turn(self, records, first, second):
        log = FlowLog(records)
        for bin_width, win in (first, second, first, second):
            assert_matches_oracle(log, bin_width, win)

    @pytest.mark.parametrize("edit", [
        lambda log, r: operator.setitem(log, 1, r),
        lambda log, r: operator.delitem(log, 0),
        list.append,
        heapq.heappush,
        lambda log, r: list.sort(log),
    ], ids=["set", "del", "list.append", "heappush", "list.sort"])
    def test_an_edit_raises_and_leaves_the_index(self, edit):
        records = [flow(ts_us=t) for t in (0, 10, 1_500_000)]
        log = FlowLog(records)
        index = channel_index(log)
        assert index is log.by_channel
        with pytest.raises(TypeError):
            edit(log, flow(ts_us=1_200_000, src="10.0.0.3"))
        assert list(log) == records and log.by_channel is index
        assert_index_matches_oracle(index, records)
        assert_matches_oracle(log, 1.0, (0, 2_000_000))

    def test_returned_counts_are_the_callers(self):
        log = FlowLog([flow(ts_us=t) for t in (0, 10, 1_500_000)])
        ch = channel_of(log[0])
        first = bin_activity(log, ch, 1.0, (0, 2_000_000))
        first.counts[:] = 99
        again = bin_activity(log, ch, 1.0, (0, 2_000_000))
        assert list(again.counts) == [2, 1]


def oracle_check_fields(fields, line_no):
    """Reference: the line rules as parse_flows applied them line by line."""
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
    if not 0 <= ts_us <= 2**63 - 1:
        raise MalformedLine(line_no, f"ts_us {ts_us} out of range [0, {2**63 - 1}]")
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


def oracle_parse(text, strict=True, malformed=None):
    """Reference: parse_flows as one csv.reader loop over the whole text, a
    record per row, but with a csv.Error (a field past the size limit) a bad
    line at its row, after which the reader goes on."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
    except csv.Error:
        header = None
    if header is None or ",".join(header) != FLOW_HEADER:
        raise MalformedLine(1, f"header must be exactly {FLOW_HEADER!r}")
    records = []
    for line_no in itertools.count(2):
        try:
            try:
                fields = next(reader)
            except StopIteration:
                return records
            except csv.Error as exc:
                raise MalformedLine(line_no, str(exc)) from None
            if fields:
                records.append(oracle_check_fields(fields, line_no))
        except MalformedLine as exc:
            if strict:
                raise
            if malformed is not None:
                malformed.append((exc.line_no, exc.reason))


def index_oracle(records):
    """Reference: the per-record loop that built a ChannelIndex, as
    (channels, row, ts_us, ts_by_row, bounds)."""
    rows = {}
    row = []
    ts = []
    for r in records:
        client, service, _ = service_side(r)
        row.append(rows.setdefault((client, service.host, service.port, service.proto), len(rows)))
        ts.append(r.ts_us)
    row = np.array(row, dtype=np.intp)
    ts = np.array(ts, dtype=np.int64)
    channels = [Channel(c, ServiceKey(h, p, q)) for c, h, p, q in rows]
    bounds = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=len(rows)))))
    return channels, row, ts, ts[np.lexsort((ts, row))], bounds


def assert_index_matches_oracle(index, records):
    channels, row, ts, ts_by_row, bounds = index_oracle(records)
    assert index.channels == channels
    assert index.row_of == {ch: k for k, ch in enumerate(channels)}
    for got, want in ((index.row, row), (index.ts_us, ts), (index.ts_by_row, ts_by_row),
                      (index.bounds, bounds)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


# csv.field_size_limit() while TestBlockParsing runs, so that short fields
# and lines pass it.
SMALL_FIELD_LIMIT = 40


def line_of(fields):
    return ",".join(str(f) for f in fields)


def valid_fields(draw):
    return [
        draw(st.integers(0, 2**63 - 1) | st.integers(0, 10**7)),
        draw(st.sampled_from(["10.0.0.1", "10.0.0.2", "gw", "db-1"])),
        draw(port),
        draw(st.sampled_from(["10.0.0.1", "10.0.0.2", "gw", "db-1"])),
        draw(port),
        draw(st.sampled_from(["tcp", "udp"])),
        draw(st.integers(0, 10**20)),
        draw(st.integers(1, 10**9)),
    ]


# (field position, value) edits that make a valid line bad, or valid in a
# way that int() alone decides.
FIELD_EDITS = [
    (0, "x"), (0, ""), (0, " 12"), (0, "12 "), (2, "+5"), (4, "1_000"), (6, "١٢"),
    (7, "²"), (0, "-1"), (0, str(2**63)), (0, str(2**63 - 1)), (2, "-1"), (4, "65536"),
    (2, "65535"), (6, "-3"), (7, "0"), (5, "icmp"), (5, "TCP"), (5, ""), (1, ""),
    (1, "h" * (SMALL_FIELD_LIMIT + 1)), (3, "h" * SMALL_FIELD_LIMIT), (1, "a\0b"),
]


@st.composite
def flow_line(draw):
    kind = draw(st.sampled_from(["valid"] * 10 + ["edit"] * 3 + ["count", "blank", "quote", "cr"]))
    fields = valid_fields(draw)
    if kind == "edit":
        k, value = draw(st.sampled_from(FIELD_EDITS))
        fields[k] = value
    elif kind == "count":
        fields = fields[: draw(st.sampled_from([1, 7]))] if draw(st.booleans()) else fields + ["9"]
    elif kind == "blank":
        return ""
    elif kind == "quote":
        k = draw(st.sampled_from([1, 3, 5]))
        fields[k] = draw(st.sampled_from([f'"{fields[k]}"', '"a,b"', '"x\ny"', '"open']))
    elif kind == "cr":
        return line_of(fields) + "\r"
    return line_of(fields)


@st.composite
def flow_text(draw):
    header = draw(st.sampled_from([FLOW_HEADER] * 8 + [
        "", "ts,src", FLOW_HEADER + ",x", FLOW_HEADER + "\r", '"ts_us"' + FLOW_HEADER[5:],
        "h" * (SMALL_FIELD_LIMIT + 1),
    ]))
    lines = [header] + draw(st.lists(flow_line(), max_size=12))
    text = "\n".join(lines) + draw(st.sampled_from(["\n", ""]))
    return text if "\n" in text else text + "\n"  # a string with no newline is a path


def parse_outcome(parse, text, strict):
    """(the records as a list, malformed) or the (line_no, reason) of the
    error raised."""
    malformed = []
    try:
        records = parse(text, strict=strict, malformed=malformed)
    except MalformedLine as exc:
        return ("error", exc.line_no, exc.reason)
    return list(records), malformed


class TestBlockParsing:
    """parse_flows against the per-line csv.reader loop, whatever the block
    length, and its index against the per-record index loop."""

    @pytest.fixture(autouse=True)
    def small_field_limit(self):
        saved = csv.field_size_limit(SMALL_FIELD_LIMIT)
        yield
        csv.field_size_limit(saved)

    def check(self, text, strict):
        want = parse_outcome(oracle_parse, text, strict)
        assert parse_outcome(parse_flows, text, strict) == want
        from_file = parse_outcome(lambda t, **kw: parse_flows(io.StringIO(t), **kw), text, strict)
        assert from_file == want
        if want[0] == "error":
            return
        log = parse_flows(text, strict=strict)
        assert type(log) is FlowLog
        assert [type(r) for r in log] == [FlowRecord] * len(log)
        assert [list(map(type, r)) for r in log] == [list(map(type, r)) for r in want[0]]
        assert_index_matches_oracle(log.by_channel, want[0])
        held = {}
        for r in log:
            for s in (r.src_host, r.dst_host, r.proto):
                assert held.setdefault(s, s) is s

    @given(text=flow_text(), strict=st.booleans(),
           block=st.sampled_from([1, 3, flows._BLOCK_LINES]))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_line_loop(self, text, strict, block):
        with mock.patch.object(flows, "_BLOCK_LINES", block):
            self.check(text, strict)

    # The edited line is the first, either side of the first block boundary,
    # inside the second block or the last.
    @pytest.mark.parametrize("edit,at", list(zip(FIELD_EDITS + [(None, "")],
                                                 itertools.cycle((0, 1_023, 1_024, 1_500, 2_599)))))
    def test_one_edit_in_a_capture_of_default_blocks(self, edit, at):
        lines = [f"{k},c{k % 7},{50000 + k % 9},s{k % 3},443,tcp,10,1" for k in range(2_600)]
        field, value = edit
        if field is None:
            lines[at] = value
        else:
            fields = lines[at].split(",")
            fields[field] = value
            lines[at] = line_of(fields)
        for strict in (True, False):
            self.check("\n".join([FLOW_HEADER] + lines) + "\n", strict)

    def line_loop_calls(self, monkeypatch, text, strict):
        """The (line_no, rows read) of each call parse_flows makes to the
        line loop, and the outcome of the parse."""
        calls = []
        real = flows._check_rows

        def spy(rows, line_no, strict, malformed):
            read = []
            calls.append((line_no, read))
            return real((read.append(row) or row for row in rows), line_no, strict, malformed)

        monkeypatch.setattr(flows, "_check_rows", spy)
        return calls, parse_outcome(parse_flows, text, strict)

    # One block per letter: "d" has a bad line every ten lines, "o" one bad
    # line, "c" none; "r" has a port out of range and a line that only
    # int() reads ("+5" as a port), whose record is kept.
    @pytest.mark.parametrize("layout", ["dddd", "oooo", "doo", "dco", "rc"])
    @pytest.mark.parametrize("strict", [True, False])
    def test_only_irregular_lines_go_through_the_line_loop(self, monkeypatch, layout, strict):
        size = flows._BLOCK_LINES
        lines = [f"{k},c{k % 7},{50000 + k % 9},s{k % 3},443,tcp,10,1"
                 for k in range(size * len(layout))]
        irregular = []
        for b, kind in enumerate(layout):
            bad = {"d": range(5, size, 10), "o": [size // 3], "c": [], "r": [7, size - 1]}[kind]
            for i in bad:
                k = b * size + i
                lines[k] = lines[k].replace(",443,", ",+5," if i == 7 else ",70000,") \
                    if kind == "r" else lines[k] + ",9"
                irregular.append(k + 2)
        text = "\n".join([FLOW_HEADER] + lines) + "\n"
        self.check(text, strict)
        calls, outcome = self.line_loop_calls(monkeypatch, text, strict)
        if strict:
            # A strict parse stops at the first bad line.
            irregular = irregular[: irregular.index(outcome[1]) + 1]
        assert [(line_no, [lines[line_no - 2].split(",")]) for line_no in irregular] == calls

    def test_irregular_lines_of_every_kind_go_alone(self, monkeypatch):
        edits = ["", "1,a,2,b,443,tcp,10", ",,,,,,,", " 1,a,2,b,443,tcp,10,1",
                 "1,a,-2,b,443,tcp,10,1", "1,a,2,b,1_0,tcp,10,1", "١,a,2,b,443,tcp,10,1",
                 f"{'9' * 19},a,2,b,443,tcp,10,1", "1,a,2,b,443,tcp,10," + "0" * 18 + "7",
                 "1,a,2,b,443,TCP,10,1", "1,a,2,b,443,tcp,10,0", f"1,{'h' * 41},2,b,443,tcp,10,1"]
        lines = [f"{k},c{k % 7},{50000 + k % 9},s{k % 3},443,tcp,10,1" for k in range(60)]
        for k, edit in enumerate(edits):
            lines[5 * k + 1] = edit
        text = "\n".join([FLOW_HEADER] + lines) + "\n"
        self.check(text, False)
        with mock.patch.object(flows, "_BLOCK_LINES", 7):
            calls, _ = self.line_loop_calls(monkeypatch, text, False)
        assert [line_no for line_no, _ in calls] == [5 * k + 3 for k in range(len(edits))]
        # The blank line reads an empty row; the line past the field size
        # limit reads none.
        assert [rows for _, rows in calls][0] == [[]]
        assert [len(rows) for _, rows in calls] == [1] * (len(edits) - 1) + [0]

    # The byte path's own edges: (lines, what follows the last, the lines
    # that are irregular, as positions in ``lines``).
    EDGES = {
        "digits": ([
            "9" * 18 + ",a,51514,b,443,tcp," + "9" * 18 + "," + "9" * 18,
            "1" + "0" * 18 + ",a,51514,b,443,tcp,10,1",
            "0" * 18 + "7,a,51514,b,443,tcp,10,1",
            "1,a," + "0" * 17 + "7,b,443,tcp,10,1",
            f"1,a,51514,b,443,tcp,{10**19 + 7},1",
            f"{2**63},a,51514,b,443,tcp,10,1",
        ], "\n", [1, 2, 4, 5]),
        "hosts": ([
            "1,hôte-1,51514,服务,443,tcp,10,1",
            "2,服务,443,hôte-1,51514,udp,10,1",
            "3,h\ud800,51514,服务,443,tcp,10,1",
            "4,服务,51514,h\ud800,443,tcp,10,1",
            # Within the limit in characters but not in bytes.
            "5," + "é" * 40 + ",51514,b,443,tcp,10,1",
            "6," + "é" * 41 + ",51514,b,443,tcp,10,1",
            "7,hôte-1,51514," + "é" * 40 + ",443,tcp,10,1",
            # Line separators to str.splitlines, but not to csv.
            "8,a\u2028b,51514,c\x85d\x1c,443,tcp,10,1",
        ], "\n", [4, 5, 6]),
        # Two 16-byte hosts whose two words mix into one key: the parse
        # compares their words and codes them apart.
        "mixed words collide": (["1,btbfmoevqtgxrogd,51514,s,443,tcp,10,1",
                                 "2,erdvijza2*VGB(*j,51514,s,443,tcp,10,1",
                                 "3,s,51514,btbfmoevqtgxrogd,443,tcp,10,1"], "\n", []),
        "no last newline": (["1,a,51514,b,443,tcp,10,1", ",,,,,,,", "2,a,51514,b,443,tcp,10,1"],
                            "", [1]),
        "two trailing blank lines": (["1,a,51514,b,443,tcp,10,1", "2,a,51514,b,443,tcp,10,1"],
                                     "\n\n\n", [2, 3]),
        "irregular at block ends": ([
            "0,a,51514,b,443,tcp,10,1", "1,b,51514,a,443,tcp,10,1", "2,a,51514,b,443,tcp,10",
            "3,a,51514,b,443,tcp,10,1,x", "4,a,51514,b,443,tcp,10,1", "5,a,51514,b,443,udp,10,0",
            "", "7,a,51514,b,443,udp,10,1", "8,a,51514,b,443,tcp,10,1",
        ], "\n", [2, 3, 5, 6]),
    }

    @pytest.mark.parametrize("edge", list(EDGES))
    @pytest.mark.parametrize("block", [1, 3, flows._BLOCK_LINES])
    def test_the_byte_path_edges(self, monkeypatch, edge, block):
        lines, end, irregular = self.EDGES[edge]
        text = "\n".join([FLOW_HEADER] + lines) + end
        monkeypatch.setattr(flows, "_BLOCK_LINES", block)
        for strict in (True, False):
            self.check(text, strict)
        calls, _ = self.line_loop_calls(monkeypatch, text, False)
        assert [line_no for line_no, _ in calls] == [k + 2 for k in irregular]

    def test_a_parse_leaves_no_reference_cycle(self):
        # Objects in a cycle wait for the cyclic collector: a parse that left
        # one would hold its working lists, and the records, past its return.
        lines = [f"{k},c{k % 7},{50000 + k % 9},s{k % 3},443,tcp,10,1" for k in range(2_048)]
        lines[700] = "700,c0,50000,s0,443,icmp,10,1"
        text = "\n".join([FLOW_HEADER] + lines) + "\n"
        gc.collect()
        gc.disable()
        try:
            parse_flows(text, strict=False)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("strict", [True, False])
    def test_lines_whose_field_counts_cancel_out(self, strict):
        # Ten fields and six: sixteen in all, and every column would convert.
        text = FLOW_HEADER + "\n1,a,51514,b,443,tcp,10,1,x,5\n80,s,443,tcp,10,1\n"
        self.check(text, strict)

    def test_a_field_past_the_limit_is_a_bad_line(self):
        text = FLOW_HEADER + f"\n1,{'h' * 41},2,b,443,tcp,10,1\n2,a,51514,b,443,tcp,10,1\n"
        skipped = []
        assert len(parse_flows(text, strict=False, malformed=skipped)) == 1
        assert skipped == [(2, "field larger than field limit (40)")]
        with pytest.raises(MalformedLine) as err:
            parse_flows(text)
        assert (err.value.line_no, err.value.reason) == (2, "field larger than field limit (40)")


class TestIndexBuiltAtParse:
    TOPOLOGY = {
        "duration_s": 120,
        "channels": [
            {"client": f"ws-{k}", "service": f"app-{k % 3}:{8080 + k % 2}/tcp", "rate_per_s": 0.5}
            for k in range(8)
        ],
    }

    def text(self):
        return serialize_flows(gen_flows(self.TOPOLOGY, seed=5)[0])

    def test_a_discover_pass_builds_the_index_once(self):
        build = ChannelIndex._build
        with mock.patch.object(ChannelIndex, "_build", autospec=True, side_effect=build) as spy:
            log = parse_flows(self.text())
            direct = direct_dependencies(log)
            window = (min(r.ts_us for r in log), max(r.ts_us for r in log) + 1)
            for k in range(70):
                d = direct[k % len(direct)]
                bin_activity(log, Channel(d.client, d.service), 1.0, window)
            detect_retry_chains(log)
        assert spy.call_count == 1
        assert len(direct) == 8

    @pytest.mark.parametrize("records", [
        # Ports at both ends of int64: the port column is coded before it
        # joins the key.
        [flow(ts_us=k, src=f"c{k % 5}", sport=2**63 - 1, dst=f"s{k % 3}",
              dport=(-(2**63), 2**63 - 1, 443)[k % 3]) for k in range(30)],
        # 2**17 strings and service ports 2**31 - 1 apart: the (client,
        # host) key times the port radix would wrap past int64, where
        # clients 2**16 apart collide, so it is made dense first.
        [flow(ts_us=k, src=f"c{k}", sport=2**31, dst="s", dport=0 if k else 2**31 - 1)
         for k in range(2**17 - 2)],
    ], ids=["int64 ports", "dense key"])
    def test_keys_that_would_overflow_int64(self, records):
        assert_index_matches_oracle(ChannelIndex(*flows._transposed(records)[:6]), records)

    @given(records=st.lists(flow_record, max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_any_iterable_of_records_matches_the_record_loop(self, records):
        for source in (records, FlowLog(records), FlowLog(r for r in records),
                       (r for r in records)):
            assert_index_matches_oracle(channel_index(source), records)
