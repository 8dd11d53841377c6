import heapq
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miakit.flows import (
    FLOW_HEADER,
    REGISTERED_PORT_LIMIT,
    Channel,
    EmptyWindow,
    FlowLog,
    FlowRecord,
    MalformedLine,
    ServiceKey,
    bin_activity,
    channel_index,
    channel_of,
    identify_services,
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
        assert parse_flows(FLOW_HEADER + "\n") == []

    def test_parse_returns_a_flow_log_list(self):
        records = [flow(ts_us=5), flow(ts_us=9, dport=22)]
        log = parse_flows(serialize_flows(records))
        assert isinstance(log, FlowLog) and isinstance(log, list)
        assert log == records and log[1:] == records[1:] and list(log) == records

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
        assert parse_flows(text) == records
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
        assert parse_flows(text) == records
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
        assert identify_services(records) == identify_services(shuffled)

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
        assert identify_services(records) == expected
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

    @given(
        records=st.lists(flow_record, min_size=1, max_size=60),
        edits=st.lists(
            st.tuples(st.sampled_from(["append", "set", "del", "sort"]),
                      st.integers(min_value=0, max_value=10**6), flow_record),
            min_size=1, max_size=4,
        ),
        bin_width=width,
        win=window,
    )
    @settings(max_examples=80, deadline=None)
    def test_edits_after_indexing_are_seen(self, records, edits, bin_width, win):
        log = FlowLog(records)
        assert_matches_oracle(log, bin_width, win)
        for op, k, record in edits:
            if op == "append":
                log.append(record)
            elif op == "set" and log:
                log[k % len(log)] = record
            elif op == "del" and log:
                del log[k % len(log)]
            elif op == "sort":
                log.sort(key=lambda r: (-r.ts_us, r.src_port))
            assert_matches_oracle(log, bin_width, win)

    def test_equal_records_reuse_the_index(self):
        log = FlowLog([flow(ts_us=t) for t in (0, 10, 1_500_000)])
        index = channel_index(log)
        copy = FlowRecord(*log[1])
        assert copy is not log[1]
        log[1] = copy
        assert channel_index(log) is index

    def test_a_different_record_rebuilds_the_index(self):
        log = FlowLog([flow(ts_us=t) for t in (0, 10, 1_500_000)])
        index = channel_index(log)
        log[1] = log[1]._replace(dst_port=22)
        assert channel_index(log) is not index
        assert_matches_oracle(log, 1.0, (0, 2_000_000))

    @pytest.mark.parametrize("add", [heapq.heappush, list.append])
    def test_edits_past_the_list_methods_are_seen(self, add):
        log = FlowLog([flow(ts_us=t) for t in (0, 10, 1_500_000)])
        assert_matches_oracle(log, 1.0, (0, 2_000_000))
        add(log, flow(ts_us=1_200_000, src="10.0.0.3"))
        assert len(log) == 4
        assert_matches_oracle(log, 1.0, (0, 2_000_000))

    def test_returned_counts_are_the_callers(self):
        log = FlowLog([flow(ts_us=t) for t in (0, 10, 1_500_000)])
        ch = channel_of(log[0])
        first = bin_activity(log, ch, 1.0, (0, 2_000_000))
        first.counts[:] = 99
        again = bin_activity(log, ch, 1.0, (0, 2_000_000))
        assert list(again.counts) == [2, 1]
