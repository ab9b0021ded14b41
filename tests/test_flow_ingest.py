"""Parsing, protocol filtering, and sliding-window slicing."""

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botfuse import flow_ingest
from botfuse.comm_graph import build_graph
from botfuse.flow_features import extract_node_features
from botfuse.flow_ingest import (
    DEFAULT_STRIDE,
    DEFAULT_WINDOW_LEN,
    FlowRecord,
    Label,
    Proto,
    WindowSlice,
    binetflow_start_times,
    derive_node_labels,
    encode_flows,
    filter_tcp_udp,
    parse_flow_file,
    slice_windows,
    write_flows_csv,
)


def _record(ts=0.0, proto=Proto.TCP, src="a", dst="b", up=100, down=50, label=Label.UNKNOWN):
    return FlowRecord(
        ts_start=ts,
        duration=1.0,
        proto=proto,
        src_ip=src,
        src_port=1234,
        dst_ip=dst,
        dst_port=80,
        src_bytes=up,
        dst_bytes=down,
        label=label,
    )


class TestParseCanonical:
    def test_single_line_field_mapping(self, tmp_path):
        p = tmp_path / "flows.csv"
        p.write_text("0.0,1.5,tcp,10.0.0.1,1234,10.0.0.2,80,500,300,legit\n")
        result = parse_flow_file(p)
        assert len(result.records) == 1
        r = result.records[0]
        assert r.ts_start == 0.0
        assert r.duration == 1.5
        assert r.proto is Proto.TCP
        assert r.src_ip == "10.0.0.1"
        assert r.src_port == 1234
        assert r.dst_ip == "10.0.0.2"
        assert r.dst_port == 80
        assert r.src_bytes == 500
        assert r.dst_bytes == 300
        assert r.label is Label.LEGIT

    def test_label_column_optional(self, tmp_path):
        p = tmp_path / "flows.csv"
        p.write_text("1.0,0.5,udp,a,1,b,2,10,0\n")
        r = parse_flow_file(p).records[0]
        assert r.label is Label.UNKNOWN
        assert r.proto is Proto.UDP

    def test_header_line_skipped_without_counting(self, tmp_path):
        p = tmp_path / "flows.csv"
        p.write_text(
            "ts_start,duration,proto,src_ip,src_port,dst_ip,dst_port,src_bytes,dst_bytes\n"
            "1.0,0.5,tcp,a,1,b,2,10,5\n"
        )
        result = parse_flow_file(p)
        assert len(result.records) == 1
        assert result.malformed == 0

    def test_malformed_lines_counted_not_fatal(self, tmp_path):
        p = tmp_path / "flows.csv"
        p.write_text(
            "1.0,0.5,tcp,a,1,b,2,10,5\n"
            "2.0,0.5,tcp,a,1,b,2,10,5\n"
            "not,a,flow\n"
            "3.0,0.5,tcp,a,1,b,2,10,5\n"
        )
        result = parse_flow_file(p)
        assert len(result.records) == 3
        assert result.malformed == 1

    def test_all_lines_malformed_is_error(self, tmp_path):
        p = tmp_path / "flows.csv"
        p.write_text("garbage\nmore,garbage\n")
        with pytest.raises(ValueError, match="no parseable"):
            parse_flow_file(p)

    def test_invalid_field_values_are_malformed(self, tmp_path):
        # negative duration, out-of-range port, negative bytes
        p = tmp_path / "flows.csv"
        p.write_text(
            "1.0,-0.5,tcp,a,1,b,2,10,5\n"
            "1.0,0.5,tcp,a,99999,b,2,10,5\n"
            "1.0,0.5,tcp,a,1,b,2,-10,5\n"
            "1.0,0.5,tcp,a,1,b,2,10,5\n"
        )
        result = parse_flow_file(p)
        assert len(result.records) == 1
        assert result.malformed == 3

    def test_oversized_byte_count_is_malformed(self, tmp_path):
        # A 400-digit count cannot become a float; it used to end slicing
        # or feature extraction in an OverflowError traceback.
        p = tmp_path / "flows.csv"
        p.write_text(f"1.0,0.5,tcp,a,1,b,2,1{'0' * 400},5\n2.0,0.5,tcp,a,1,b,2,10,5\n")
        result = parse_flow_file(p)
        assert [r.ts_start for r in result.records] == [2.0]
        assert result.malformed == 1
        assert len(slice_windows(result.records)) == 1

    def test_byte_count_beyond_int64_is_kept(self, tmp_path):
        # Byte counts are float64 columns, so only a count that no float
        # holds is malformed; 2**63 and 10**300 still give features.
        p = tmp_path / "flows.csv"
        p.write_text(f"1.0,0.5,tcp,a,1,b,2,{2**63},5\n2.0,0.5,tcp,a,1,b,2,1{'0' * 300},5\n")
        result = parse_flow_file(p)
        assert result.malformed == 0
        (window,) = slice_windows(result.records)
        assert window.table.src_bytes.tolist() == [float(2**63), float(10**300)]
        features = extract_node_features(window)
        assert features.matrix[features.nodes.index("a"), 3] == (0.0 + 2**63 + 10**300) / 2

    @pytest.mark.parametrize("ts", ["inf", "-inf", "nan"])
    def test_non_finite_start_time_is_malformed(self, tmp_path, ts):
        p = tmp_path / "flows.csv"
        p.write_text(f"{ts},0.5,tcp,a,1,b,2,10,5\n1.0,0.5,tcp,a,1,b,2,10,5\n")
        result = parse_flow_file(p)
        assert [r.ts_start for r in result.records] == [1.0]
        assert result.malformed == 1

    @pytest.mark.parametrize("ts", ["-1e300", "-1e18", "1e300"])
    def test_start_time_outside_years_1_to_9999_is_malformed(self, tmp_path, ts):
        # One far-off row must neither empty nor shift the trace's windows.
        rows = "".join(f"{k}.5,0.5,tcp,10.0.0.{k % 7},1,10.0.1.{k % 3},80,100,100,\n"
                       for k in range(200))
        clean, dirty = tmp_path / "clean.csv", tmp_path / "dirty.csv"
        clean.write_text(rows)
        dirty.write_text(rows + f"{ts},0.5,tcp,10.0.0.1,1,10.0.0.2,80,100,100,\n")
        expect, result = parse_flow_file(clean), parse_flow_file(dirty)
        assert result.malformed == expect.malformed + 1
        assert slice_windows(result.records) == slice_windows(expect.records)

    def test_start_times_of_years_1_and_9999_are_kept(self, tmp_path):
        p = tmp_path / "flows.csv"
        p.write_text("".join(f"{ts},0.5,tcp,a,1,b,2,10,5\n" for ts in (
            "-62135596800.001", "-62135596800", "253402300800", "253402300800.001")))
        result = parse_flow_file(p)
        assert [r.ts_start for r in result.records] == [-62135596800.0, 253402300800.0]
        assert result.malformed == 2

    @pytest.mark.parametrize("dur", ["nan", "inf"])
    def test_non_finite_duration_is_malformed(self, tmp_path, dur):
        p = tmp_path / "flows.csv"
        p.write_text(f"1.0,{dur},tcp,a,1,b,2,10,5\n2.0,0.5,tcp,a,1,b,2,10,5\n")
        result = parse_flow_file(p)
        assert [r.duration for r in result.records] == [0.5]
        assert result.malformed == 1

    def test_hex_port_accepted(self, tmp_path):
        p = tmp_path / "flows.csv"
        p.write_text("1.0,0.5,tcp,a,0x50,b,0x1F90,10,5\n")
        r = parse_flow_file(p).records[0]
        assert r.src_port == 80
        assert r.dst_port == 8080

    def test_unknown_format_descriptor(self, tmp_path):
        p = tmp_path / "flows.csv"
        p.write_text("1.0,0.5,tcp,a,1,b,2,10,5\n")
        with pytest.raises(ValueError, match="unknown format descriptor"):
            parse_flow_file(p, format_descriptor="pcap")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_flow_file(tmp_path / "nope.csv")

    def test_other_protocols_parse_as_other(self, tmp_path):
        p = tmp_path / "flows.csv"
        p.write_text("1.0,0.5,icmp,a,0,b,0,10,5\n")
        assert parse_flow_file(p).records[0].proto is Proto.OTHER

    CLEAN = b"1.0,0.5,tcp,a,1,b,2,10,5\n2.0,0.5,tcp,b,1,c,2,10,5\n3.0,0.5,udp,c,1,a,2,10,5\n"

    def test_line_that_is_not_utf8_is_one_malformed_row(self, tmp_path):
        clean = tmp_path / "clean.csv"
        clean.write_bytes(self.CLEAN)
        dirty = tmp_path / "dirty.csv"
        lines = self.CLEAN.splitlines(keepends=True)
        dirty.write_bytes(lines[0] + b"1.5,0.5,tcp,a\xff,1,b,2,10,5\n" + b"".join(lines[1:]))
        expected = parse_flow_file(clean)
        result = parse_flow_file(dirty)
        assert result.records == expected.records
        assert (expected.malformed, result.malformed) == (0, 1)

    def test_field_over_the_csv_size_limit_is_one_malformed_row(self, tmp_path):
        p = tmp_path / "flows.csv"
        lines = self.CLEAN.splitlines(keepends=True)
        huge = b"1.5,0.5,tcp," + b"x" * 200_000 + b",1,b,2,10,5\n"
        p.write_bytes(lines[0] + huge + b"".join(lines[1:]))
        result = parse_flow_file(p)
        assert [r.ts_start for r in result.records] == [1.0, 2.0, 3.0]
        assert result.malformed == 1


class TestParseBinetflow:
    LINE = (
        "2011/08/10 09:46:53.047277,3550.182,udp,212.50.71.179,39678,<->,"
        "147.32.84.229,13363,CON,0,0,12,875,413,flow=From-Botnet-V42\n"
    )

    def test_field_mapping(self, tmp_path):
        p = tmp_path / "flows.binetflow"
        p.write_text(self.LINE)
        r = parse_flow_file(p, format_descriptor="binetflow").records[0]
        assert r.proto is Proto.UDP
        assert r.src_ip == "212.50.71.179"
        assert r.src_port == 39678
        assert r.dst_ip == "147.32.84.229"
        assert r.dst_port == 13363
        assert r.src_bytes == 413
        assert r.dst_bytes == 875 - 413
        assert r.duration == 3550.182
        assert r.label is Label.BOT

    def test_normal_label(self, tmp_path):
        p = tmp_path / "flows.binetflow"
        p.write_text(self.LINE.replace("From-Botnet-V42", "Normal-stuff"))
        r = parse_flow_file(p, format_descriptor="binetflow").records[0]
        assert r.label is Label.LEGIT

    def test_src_bytes_exceeding_total_is_malformed(self, tmp_path):
        bad = self.LINE.replace(",875,413,", ",100,413,")
        p = tmp_path / "flows.binetflow"
        p.write_text(self.LINE + bad)
        result = parse_flow_file(p, format_descriptor="binetflow")
        assert len(result.records) == 1
        assert result.malformed == 1

    def test_start_times_match_strptime_row_by_row(self, tmp_path):
        # Off-shape and out-of-range times in one file: the refused ones are
        # malformed and the others keep strptime's values.
        starts = [
            "2011/08/10 09:46:53.047277",
            "2011/8/10 9:46:53.5",
            "2011/02/29 00:00:00.000000",
            "2012/02/29 23:59:59.999999",
            "2011/08/10 09:46:60.000000",
            "0000/01/01 00:00:00.000000",
            "0001/01/01 00:00:00.000001",
            " 2011/08/10 09:46:53.047277 ",
        ]
        p = tmp_path / "flows.binetflow"
        p.write_text("".join(self.LINE.replace(self.LINE[:26], t) for t in starts))
        result = parse_flow_file(p, format_descriptor="binetflow")
        expected = [v for v in map(_strptime_seconds, starts) if v is not None]
        assert [r.ts_start.hex() for r in result.records] == [v.hex() for v in expected]
        assert result.malformed == len(starts) - len(expected)

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3])
    def test_chunked_reading_gives_the_same_result(self, tmp_path, monkeypatch, chunk_rows):
        p = tmp_path / "flows.binetflow"
        header = "StartTime,Dur,Proto,SrcAddr,Sport,Dir,DstAddr,Dport,State,sTos,dTos,TotPkts\n"
        later = self.LINE.replace("09:46:53.047277", "09:47:00.5")
        p.write_text(header + self.LINE + "\n" + "x" * 200_000 + "\n" + later + "short,row\n")
        whole = parse_flow_file(p, format_descriptor="binetflow")
        monkeypatch.setattr(flow_ingest, "_CHUNK_ROWS", chunk_rows)
        chunked = parse_flow_file(p, format_descriptor="binetflow")
        assert chunked.records == whole.records
        assert [r.ts_start for r in whole.records] == [1312969613.047277, 1312969620.5]
        assert (chunked.malformed, whole.malformed) == (2, 2)

    @pytest.mark.parametrize("fmt", ["canonical", "binetflow"])
    def test_chunk_edges_change_no_result(self, tmp_path, monkeypatch, fmt):
        # A header, a blank line, and a bad row on each side of the first
        # chunk edge, then a row the reader refuses, in a file of several
        # chunks of the default size.
        chunk = flow_ingest._CHUNK_ROWS
        if fmt == "canonical":
            header = "ts_start,duration,proto,src_ip,src_port,dst_ip,dst_port,src_bytes,dst_bytes"
            rows = [f"{k}.5,0.5,tcp,10.0.{k % 7}.1,1,10.0.0.2,80,{k},5" for k in range(2 * chunk + 300)]
        else:
            header = "StartTime,Dur,Proto,SrcAddr,Sport,Dir,DstAddr,Dport,State,sTos,dTos,TotPkts"
            rows = [self.LINE.strip().replace("53.047277", f"{k % 60:02d}.{k:06d}")
                    .replace("39678", str(k)) for k in range(2 * chunk + 300)]
        # Non-blank row k + 1 of the file is rows[k]: the header is row 0.
        rows[chunk - 2] = "short,row"
        rows[chunk - 1] = rows[chunk - 1].replace(",", ";", 2)
        lines = [header, *rows[:5], "", *rows[5:chunk], "x" * 200_000, *rows[chunk:]]
        p = tmp_path / f"flows.{fmt}"
        p.write_text("\n".join(lines) + "\n")
        chunked = parse_flow_file(p, format_descriptor=fmt)
        monkeypatch.setattr(flow_ingest, "_CHUNK_ROWS", 10 * len(lines))
        whole = parse_flow_file(p, format_descriptor=fmt)
        assert chunked == whole
        assert whole.malformed == 3
        assert len(whole.records) == len(rows) - 2 > 2 * chunk


def _strptime_seconds(text: str) -> float | None:
    try:
        started = datetime.strptime(text.strip(), "%Y/%m/%d %H:%M:%S.%f")
    except ValueError:
        return None
    return started.replace(tzinfo=timezone.utc).timestamp()


_EPOCH = datetime(1970, 1, 1)
_MICROSECOND = timedelta(microseconds=1)


def _format_exact(t: datetime) -> str:
    return (
        f"{t.year:04d}/{t.month:02d}/{t.day:02d} "
        f"{t.hour:02d}:{t.minute:02d}:{t.second:02d}.{t.microsecond:06d}"
    )


# Fields of the exact shape, with values just outside each field's range.
_exact_shape = st.builds(
    "{:04d}/{:02d}/{:02d} {:02d}:{:02d}:{:02d}.{:06d}".format,
    st.one_of(st.integers(0, 9999), st.integers(1685, 2255), st.sampled_from([0, 1, 1970, 2000])),
    st.integers(0, 13),
    st.integers(0, 32),
    st.integers(0, 25),
    st.integers(0, 61),
    st.integers(0, 61),
    st.integers(0, 999_999),
)
_off_shape = st.one_of(
    _exact_shape.map(lambda t: t.replace("/0", "/").replace(" 0", " ").replace(":0", ":")),
    _exact_shape.map(lambda t: t[:-1]),
    _exact_shape.map(lambda t: t + "0"),
    _exact_shape.map(lambda t: f" {t}\t"),
    _exact_shape.map(lambda t: t.replace("1", "\u0661")),
    _exact_shape.map(lambda t: t.replace(" ", "T")),
    st.text(max_size=30),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(_exact_shape, _off_shape), max_size=8))
def test_vector_start_times_are_strptime_bits_or_refused(texts):
    fast = binetflow_start_times(texts)
    assert len(fast) == len(texts)
    for text, value in zip(texts, fast):
        reference = _strptime_seconds(text)
        if value is not None:
            assert reference is not None and value.hex() == reference.hex()
        elif reference is not None:
            # Only a time off the exact shape, or one a float64 cannot hold to
            # the microsecond, may leave the vector path.
            started = datetime.strptime(text.strip(), "%Y/%m/%d %H:%M:%S.%f")
            exact_shape = _format_exact(started) == text.strip()
            assert not exact_shape or abs((started - _EPOCH) // _MICROSECOND) >= 2**53


class TestFilterTcpUdp:
    def test_mixed_protocols(self):
        records = [
            _record(proto=Proto.TCP),
            _record(proto=Proto.OTHER),
            _record(proto=Proto.UDP),
        ]
        kept = filter_tcp_udp(records)
        assert [r.proto for r in kept] == [Proto.TCP, Proto.UDP]

    def test_all_other_gives_empty(self):
        assert filter_tcp_udp([_record(proto=Proto.OTHER)] * 3) == []

    def test_all_tcp_is_identity(self):
        records = [_record(ts=float(i)) for i in range(4)]
        assert filter_tcp_udp(records) == records


class TestSliceWindows:
    def test_interval_membership_example(self):
        records = [_record(ts=5.0), _record(ts=59.0)]
        windows = slice_windows(records, 60.0, 10.0)
        starts = [w.window_start for w in windows]
        assert starts == [0.0, 10.0, 20.0, 30.0, 40.0, 50.0]
        late = [w.window_start for w in windows if any(r.ts_start == 59.0 for r in w.records)]
        early = [w.window_start for w in windows if any(r.ts_start == 5.0 for r in w.records)]
        assert late == starts
        assert early == [0.0]

    def test_single_record_non_overlapping(self):
        windows = slice_windows([_record(ts=42.0)], 60.0, 60.0)
        assert len(windows) == 1
        assert windows[0].window_start == 0.0

    def test_brute_force_membership_oracle(self):
        rng = np.random.default_rng(7)
        records = [_record(ts=float(t)) for t in rng.uniform(0.0, 200.0, size=500)]
        window_len, stride = DEFAULT_WINDOW_LEN, DEFAULT_STRIDE
        windows = slice_windows(records, window_len, stride)

        times = sorted(r.ts_start for r in records)
        first = np.floor(times[0] / stride) * stride
        expected = {}
        start = first
        while start <= times[-1]:
            members = sorted(t for t in times if start <= t < start + window_len)
            if members:
                expected[start] = members
            start += stride

        assert {w.window_start for w in windows} == set(expected)
        for w in windows:
            assert sorted(r.ts_start for r in w.records) == expected[w.window_start]
            for r in w.records:
                assert w.window_start <= r.ts_start < w.window_start + window_len

    def test_equal_stride_partitions(self):
        rng = np.random.default_rng(3)
        records = [_record(ts=float(t)) for t in rng.uniform(0.0, 300.0, size=200)]
        windows = slice_windows(records, 60.0, 60.0)
        seen = [r.ts_start for w in windows for r in w.records]
        assert sorted(seen) == sorted(r.ts_start for r in records)
        assert len(seen) == len(records)

    def test_start_alignment_to_stride(self):
        windows = slice_windows([_record(ts=37.0)], 60.0, 10.0)
        assert all(w.window_start % 10.0 == 0.0 for w in windows)
        assert windows[0].window_start == 30.0

    def test_empty_input(self):
        assert slice_windows([], 60.0, 10.0) == []

    def test_gapped_traces_match_every_window_start(self):
        # Oracle: try every stride-aligned start between the first and last
        # flow, with the slicer's start formula.
        rng = np.random.default_rng(13)
        for _ in range(40):
            gaps = rng.choice([0.0, 1.0, 400.0], size=30) * rng.random(30)
            times = np.round(rng.uniform(-500.0, 500.0) + np.cumsum(gaps), 1)
            stride = float(rng.choice([0.5, 2.5, 10.0]))
            window_len = stride * float(rng.choice([1.0, 2.5, 6.0]))
            records = [_record(ts=float(t)) for t in rng.permutation(times)]
            first = np.floor(times.min() / stride) * stride
            expected = []
            for k in range(int((times.max() - first) // stride) + 1):
                start = first + k * stride
                members = sorted(t for t in times if start <= t < start + window_len)
                if members:
                    expected.append((start, members))
            windows = slice_windows(records, window_len, stride)
            got = [(w.window_start, [r.ts_start for r in w.records]) for w in windows]
            assert got == expected

    def test_epoch_stamped_row_costs_no_window_per_stride(self):
        # 1.6e8 empty stride slots lie between the two groups of flows.
        records = [_record(ts=0.0), _record(ts=1.6e9), _record(ts=1.6e9 + 35.0)]
        windows = slice_windows(records, 60.0, 10.0)
        assert [w.window_start for w in windows] == [0.0] + [1.6e9 + 10.0 * k for k in range(-5, 4)]
        assert [len(w.records) for w in windows] == [1, 1, 1, 1, 2, 2, 2, 1, 1, 1]

    def test_windows_are_views_of_one_table(self):
        rng = np.random.default_rng(11)
        records = [
            _record(ts=float(t), src=f"h{rng.integers(0, 9)}", dst=f"h{rng.integers(0, 9)}",
                    up=int(rng.integers(0, 3)), down=int(rng.integers(0, 3)))
            for t in rng.uniform(0.0, 120.0, size=80)
        ]
        windows = slice_windows(records, 60.0, 10.0)
        base = windows[0].table
        for w in windows:
            t = w.table
            assert t.endpoints is base.endpoints
            assert t.src.base is not None and t.src.base is base.src.base
            assert len(t) == len(w.records)
            assert t.endpoints[t.src].tolist() == [r.src_ip for r in w.records]
            assert t.endpoints[t.dst].tolist() == [r.dst_ip for r in w.records]
            assert t.duration.tolist() == [r.duration for r in w.records]
            assert t.src_bytes.tolist() == [r.src_bytes for r in w.records]
            assert t.dst_bytes.tolist() == [r.dst_bytes for r in w.records]
        assert base.endpoints.tolist() == sorted({r.src_ip for r in records} | {r.dst_ip for r in records})

    def test_table_views_match_hand_built_windows(self):
        # Hand-built windows encode their own records; the slicer's windows
        # are views of one table over the whole trace. Both must give the
        # same nodes, feature bits, edges and dropped self-loops.
        rng = np.random.default_rng(12)
        records = []
        for t in rng.uniform(0.0, 150.0, size=600):
            # Hosts drift with time, so each window sees a subset of them.
            hosts = int(t // 10) + rng.integers(0, 15, size=2)
            src, dst = (f"10.0.{i // 10}.{i % 10}" for i in hosts)
            records.append(FlowRecord(
                ts_start=float(t), duration=float(rng.exponential(2.0)), proto=Proto.TCP,
                src_ip=src, src_port=1, dst_ip=dst, dst_port=2,
                src_bytes=int(rng.integers(0, 3)) * int(rng.integers(1, 900)),
                dst_bytes=int(rng.integers(0, 3)) * int(rng.integers(1, 900)),
            ))
        assert any(r.src_ip == r.dst_ip for r in records)
        assert any(r.src_bytes == 0 and r.dst_bytes == 0 for r in records)
        windows = slice_windows(records, 60.0, 10.0)
        assert len(windows) > 10
        for w in windows:
            hand = WindowSlice(w.window_start, w.window_len, list(w.records))
            assert hand.table.endpoints.size < w.table.endpoints.size
            got, want = extract_node_features(w), extract_node_features(hand)
            assert got.nodes == want.nodes
            assert got.matrix.tobytes() == want.matrix.tobytes()
            g, h = build_graph(w, got), build_graph(hand, want)
            assert np.array_equal(g.edges, h.edges)
            assert g.dropped_self_loops == h.dropped_self_loops

    def test_table_must_match_records(self):
        records = [_record(ts=1.0), _record(ts=2.0)]
        with pytest.raises(ValueError, match="1 rows for 2 records"):
            WindowSlice(0.0, 60.0, records, encode_flows(records[:1]))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            slice_windows([_record()], 0.0, 10.0)
        with pytest.raises(ValueError):
            slice_windows([_record()], 60.0, -1.0)
        with pytest.raises(ValueError, match="exceeds"):
            slice_windows([_record()], 10.0, 60.0)


class TestDeriveNodeLabels:
    def test_source_of_bot_flow_is_bot(self):
        records = [
            _record(src="bot", dst="victim", label=Label.BOT),
            _record(src="victim", dst="web", label=Label.LEGIT),
        ]
        labels = derive_node_labels(records)
        assert labels["bot"] is Label.BOT
        assert labels["victim"] is Label.LEGIT
        assert labels["web"] is Label.UNKNOWN

    def test_receiving_from_bot_does_not_taint(self):
        records = [_record(src="bot", dst="sink", label=Label.BOT)]
        assert derive_node_labels(records)["sink"] is Label.UNKNOWN

    def test_bot_wins_over_legit(self):
        records = [
            _record(src="dual", dst="x", label=Label.LEGIT),
            _record(src="dual", dst="y", label=Label.BOT),
        ]
        assert derive_node_labels(records)["dual"] is Label.BOT


class TestCsvRoundTrip:
    def test_write_then_parse_is_identity(self, tmp_path):
        rng = np.random.default_rng(11)
        records = [
            _record(
                ts=float(rng.uniform(0, 100)),
                proto=Proto.UDP if rng.random() < 0.3 else Proto.TCP,
                src=f"10.0.0.{rng.integers(0, 9)}",
                dst=f"10.0.1.{rng.integers(0, 9)}",
                up=int(rng.integers(0, 5000)),
                down=int(rng.integers(0, 5000)),
                label=Label.BOT if rng.random() < 0.2 else Label.LEGIT,
            )
            for _ in range(50)
        ]
        p = tmp_path / "out.csv"
        write_flows_csv(records, p)
        parsed = parse_flow_file(p)
        assert parsed.malformed == 0
        assert parsed.records == records

    def test_unknown_label_round_trips_as_empty(self, tmp_path):
        p = tmp_path / "out.csv"
        write_flows_csv([_record(label=Label.UNKNOWN)], p)
        assert p.read_text().rstrip().endswith(",")
        assert parse_flow_file(p).records[0].label is Label.UNKNOWN
