"""Flow-record ingestion: file parsing, protocol filtering, sliding-window slicing."""

from __future__ import annotations

import csv
import enum
import itertools
import math
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

DEFAULT_WINDOW_LEN = 60.0
DEFAULT_STRIDE = 10.0
DEFAULT_FORMAT = "canonical"

CANONICAL_COLUMNS = (
    "ts_start",
    "duration",
    "proto",
    "src_ip",
    "src_port",
    "dst_ip",
    "dst_port",
    "src_bytes",
    "dst_bytes",
    "label",
)


class Proto(enum.Enum):
    TCP = "tcp"
    UDP = "udp"
    OTHER = "other"


class Label(enum.Enum):
    BOT = "bot"
    LEGIT = "legit"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class FlowRecord:
    """One five-tuple communication flow with byte counts and timing."""

    ts_start: float
    duration: float
    proto: Proto
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    src_bytes: int
    dst_bytes: int
    label: Label = Label.UNKNOWN


@dataclass(frozen=True, eq=False)
class FlowTable:
    """Flows as numpy columns, row-aligned with a record sequence.

    ``src``/``dst`` are int64 ids into ``endpoints``, an object array of the
    sorted endpoint ids, so id order is node order. Byte counts are float64,
    the type the feature sums accumulate in. Slicing rows gives views that
    share ``endpoints``.
    """

    endpoints: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    duration: np.ndarray
    src_bytes: np.ndarray
    dst_bytes: np.ndarray

    def __len__(self) -> int:
        return self.src.size

    def __getitem__(self, rows: slice) -> FlowTable:
        return FlowTable(
            self.endpoints,
            self.src[rows],
            self.dst[rows],
            self.duration[rows],
            self.src_bytes[rows],
            self.dst_bytes[rows],
        )

    def node_index(self) -> tuple[list[str], np.ndarray]:
        """The endpoints these rows touch, in node order, and the (m, 2)
        local node indices of each row's (src, dst)."""
        ids, local = np.unique(np.column_stack((self.src, self.dst)), return_inverse=True)
        return self.endpoints[ids].tolist(), local.reshape(-1, 2)


def encode_flows(records: Sequence[FlowRecord]) -> FlowTable:
    """Column table of the records, in their order, from one pass over them."""
    columns = [(r.src_ip, r.dst_ip, r.duration, r.src_bytes, r.dst_bytes) for r in records]
    src_ip, dst_ip, duration, src_bytes, dst_bytes = zip(*columns) if columns else [()] * 5
    endpoints = sorted(set(src_ip).union(dst_ip))
    index = {endpoint: i for i, endpoint in enumerate(endpoints)}
    return FlowTable(
        endpoints=np.array(endpoints, dtype=object),
        src=np.fromiter(map(index.__getitem__, src_ip), np.int64, len(columns)),
        dst=np.fromiter(map(index.__getitem__, dst_ip), np.int64, len(columns)),
        duration=np.array(duration, dtype=np.float64),
        src_bytes=np.array(src_bytes, dtype=np.float64),
        dst_bytes=np.array(dst_bytes, dtype=np.float64),
    )


@dataclass
class WindowSlice:
    """All flows whose start time falls inside one sliding-window interval.

    ``table`` holds the same flows as columns; when it is not given, the
    records are encoded into a table of their own.
    """

    window_start: float
    window_len: float
    records: list[FlowRecord]
    table: FlowTable | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.table is None:
            self.table = encode_flows(self.records)
        elif len(self.table) != len(self.records):
            raise ValueError(
                f"flow table has {len(self.table)} rows for {len(self.records)} records"
            )


@dataclass
class ParseResult:
    """Records recovered from a flow file plus a count of skipped lines."""

    records: list[FlowRecord]
    malformed: int = 0


def _parse_proto(text: str) -> Proto:
    text = text.strip().lower()
    if text == "tcp":
        return Proto.TCP
    if text == "udp":
        return Proto.UDP
    return Proto.OTHER


def _parse_label(text: str) -> Label:
    text = text.strip().lower()
    if text == "bot":
        return Label.BOT
    if text == "legit":
        return Label.LEGIT
    if text in ("", "unknown"):
        return Label.UNKNOWN
    raise ValueError(f"unrecognized label {text!r}")


def _parse_port(text: str) -> int:
    text = text.strip()
    if not text:
        return 0
    port = int(text, 16) if text.lower().startswith("0x") else int(text)
    if not 0 <= port <= 65535:
        raise ValueError(f"port {port} out of range")
    return port


# UTC epoch seconds of 0001-01-01 and 10000-01-01: the start times a binetflow
# StartTime can name. The upper end is closed because strptime's float of
# 9999/12/31 23:59:59.999999 rounds up to it.
_FIRST_START = -62_135_596_800.0
_LAST_START = 253_402_300_800.0


def _validated(record: FlowRecord) -> FlowRecord:
    if not _FIRST_START <= record.ts_start <= _LAST_START:
        raise ValueError(f"start time {record.ts_start} outside years 1-9999")
    if not math.isfinite(record.duration):
        raise ValueError("non-finite duration")
    if record.duration < 0:
        raise ValueError("negative duration")
    if record.src_bytes < 0 or record.dst_bytes < 0:
        raise ValueError("negative byte count")
    try:
        float(record.src_bytes), float(record.dst_bytes)
    except OverflowError:
        raise ValueError("byte count too large for a float") from None
    if not record.src_ip or not record.dst_ip:
        raise ValueError("empty endpoint id")
    return record


def _parse_canonical_row(row: Sequence[str]) -> FlowRecord:
    if len(row) not in (9, 10):
        raise ValueError(f"expected 9 or 10 columns, got {len(row)}")
    label = _parse_label(row[9]) if len(row) == 10 else Label.UNKNOWN
    return _validated(
        FlowRecord(
            ts_start=float(row[0]),
            duration=float(row[1]),
            proto=_parse_proto(row[2]),
            src_ip=row[3].strip(),
            src_port=_parse_port(row[4]),
            dst_ip=row[5].strip(),
            dst_port=_parse_port(row[6]),
            src_bytes=int(row[7]),
            dst_bytes=int(row[8]),
            label=label,
        )
    )


def _binetflow_label(text: str) -> Label:
    lowered = text.lower()
    if "botnet" in lowered:
        return Label.BOT
    if "normal" in lowered:
        return Label.LEGIT
    return Label.UNKNOWN


# The one shape numpy casts as strptime reads it. strptime also takes 1-digit
# fields and non-ASCII digits; such strings go to strptime. numpy takes year
# 0000, which strptime refuses, but that lies outside float64's exact range.
_BINETFLOW_TIME = re.compile(r"[0-9]{4}/[0-9]{2}/[0-9]{2} [0-9]{2}:[0-9]{2}:[0-9]{2}\.[0-9]{6}")


def binetflow_start_times(texts: Sequence[str]) -> list[float | None]:
    """UTC epoch seconds of binetflow StartTime strings, cast as one vector.

    Gives strptime's float for each string of the shape
    ``YYYY/MM/DD HH:MM:SS.ffffff`` that numpy accepts and whose microsecond
    count a float64 holds exactly, and None for every other string, which
    then goes through strptime.
    """
    texts = [t.strip() for t in texts]
    fast = [i for i, t in enumerate(texts) if _BINETFLOW_TIME.fullmatch(t)]
    iso = [texts[i].replace("/", "-").replace(" ", "T") for i in fast]
    try:
        micros = np.array(iso, dtype="datetime64[us]").astype(np.int64).tolist()
    except ValueError:
        # A field out of range, such as 02/30 or 24:00, refuses the whole
        # cast; cast one at a time and leave the refused ones to strptime.
        micros = [_datetime64_us(t) for t in iso]
    times: list[float | None] = [None] * len(texts)
    for i, us in zip(fast, micros):
        if us is not None and abs(us) < 2**53:
            times[i] = us / 1e6
    return times


def _datetime64_us(text: str) -> int | None:
    try:
        return int(np.datetime64(text, "us").astype(np.int64))
    except ValueError:
        return None


def _parse_binetflow_row(row: Sequence[str], ts_start: float | None = None) -> FlowRecord:
    # StartTime,Dur,Proto,SrcAddr,Sport,Dir,DstAddr,Dport,State,sTos,dTos,
    # TotPkts,TotBytes,SrcBytes,Label
    if len(row) < 14:
        raise ValueError(f"expected >= 14 columns, got {len(row)}")
    if ts_start is None:
        started = datetime.strptime(row[0].strip(), "%Y/%m/%d %H:%M:%S.%f")
        ts_start = started.replace(tzinfo=timezone.utc).timestamp()
    tot_bytes = int(row[12])
    src_bytes = int(row[13])
    if src_bytes > tot_bytes:
        raise ValueError("src bytes exceed total bytes")
    label = _binetflow_label(row[14]) if len(row) > 14 else Label.UNKNOWN
    return _validated(
        FlowRecord(
            ts_start=ts_start,
            duration=float(row[1]),
            proto=_parse_proto(row[2]),
            src_ip=row[3].strip(),
            src_port=_parse_port(row[4]),
            dst_ip=row[6].strip(),
            dst_port=_parse_port(row[7]),
            src_bytes=src_bytes,
            dst_bytes=tot_bytes - src_bytes,
            label=label,
        )
    )


_ROW_PARSERS = {
    "canonical": _parse_canonical_row,
    "binetflow": _parse_binetflow_row,
}


def parse_flow_file(path: str | Path, format_descriptor: str = DEFAULT_FORMAT) -> ParseResult:
    """Parse a flow-record file into FlowRecords.

    Two column mappings are supported: ``canonical`` (CSV columns
    ts_start,duration,proto,src_ip,src_port,dst_ip,dst_port,src_bytes,
    dst_bytes[,label], header optional) and ``binetflow`` (CTU-13 flow
    export layout). Malformed lines are skipped and counted in the result;
    a file whose every line fails to parse is an error.
    """
    try:
        parse_row = _ROW_PARSERS[format_descriptor]
    except KeyError:
        raise ValueError(
            f"unknown format descriptor {format_descriptor!r}; "
            f"expected one of {sorted(_ROW_PARSERS)}"
        ) from None

    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"flow file not found: {path}")

    records: list[FlowRecord] = []
    malformed = 0
    with path.open(newline="", encoding="utf-8", errors="surrogateescape") as handle:
        for rows, refused in _read_rows(handle):
            malformed += refused
            start_times = (
                binetflow_start_times([row[0] for _, row in rows])
                if parse_row is _parse_binetflow_row
                else [None] * len(rows)
            )
            for (lineno, row), ts_start in zip(rows, start_times):
                try:
                    # A byte that is not UTF-8 decodes to a lone surrogate,
                    # which does not encode back.
                    "".join(row).encode()
                    records.append(
                        parse_row(row) if ts_start is None else parse_row(row, ts_start)
                    )
                except (ValueError, IndexError):
                    if lineno == 0 and _looks_like_header(row):
                        continue
                    malformed += 1
    if not records:
        raise ValueError(f"no parseable flow records in {path} ({malformed} malformed lines)")
    return ParseResult(records=records, malformed=malformed)


_CHUNK_ROWS = 1024


def _read_rows(handle) -> Iterator[tuple[list[tuple[int, list[str]]], int]]:
    """The non-blank CSV rows with their row numbers, in chunks of at most
    ``_CHUNK_ROWS``, each with the number of rows the reader refused (a
    field over the size limit, say). The reader goes on at the next line
    after a refusal."""
    rows = []
    refused = 0
    reader = csv.reader(handle)
    for lineno in itertools.count():
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error:
            refused += 1
            continue
        if row and any(cell.strip() for cell in row):
            rows.append((lineno, row))
            if len(rows) == _CHUNK_ROWS:
                yield rows, refused
                rows, refused = [], 0
    yield rows, refused


def _looks_like_header(row: Sequence[str]) -> bool:
    try:
        float(row[0])
    except (ValueError, IndexError):
        return True
    return False


def filter_tcp_udp(records: Iterable[FlowRecord]) -> list[FlowRecord]:
    """Keep only TCP and UDP flows, preserving input order."""
    return [r for r in records if r.proto in (Proto.TCP, Proto.UDP)]


def slice_windows(
    records: Sequence[FlowRecord],
    window_len: float = DEFAULT_WINDOW_LEN,
    stride: float = DEFAULT_STRIDE,
) -> list[WindowSlice]:
    """Split flows into overlapping sliding windows keyed by flow start time.

    Window starts are aligned to stride boundaries at or before the earliest
    flow; a flow belongs to every window whose half-open interval
    [start, start + window_len) contains its start time. Windows that would
    contain no flows are omitted. The flows are encoded once, in time order,
    and each window's table is a view of its rows.
    """
    for name, value in (("window_len", window_len), ("stride", stride)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    if stride > window_len:
        raise ValueError(f"stride {stride} exceeds window length {window_len}")
    if not records:
        return []

    ordered = sorted(records, key=lambda r: r.ts_start)
    table = encode_flows(ordered)
    times = np.array([r.ts_start for r in ordered], dtype=np.float64)
    first = math.floor(times[0] / stride) * stride
    n_starts = int(math.floor((times[-1] - first) / stride)) + 1
    # A flow in stride slot c can only lie in windows c - reach .. c + 1 (one
    # extra each side absorbs rounding). Trying just those keeps a long gap
    # in the trace, such as one row stamped at the epoch, from costing
    # memory in proportion to the gap.
    reach = math.ceil(window_len / stride) + 1
    slots = np.unique(np.floor((times - first) / stride).astype(np.int64))
    ks = np.unique((slots[:, None] + np.arange(-reach, 2)).ravel())
    ks = ks[(ks >= 0) & (ks < n_starts)]
    starts = first + ks * stride
    los = np.searchsorted(times, starts).tolist()
    his = np.searchsorted(times, starts + window_len).tolist()

    windows: list[WindowSlice] = []
    for start, lo, hi in zip(starts.tolist(), los, his):
        if hi > lo:
            windows.append(WindowSlice(start, window_len, ordered[lo:hi], table[lo:hi]))
    return windows


def derive_node_labels(records: Iterable[FlowRecord]) -> dict[str, Label]:
    """Assign per-node labels from per-flow labels.

    A node is BOT when it originates at least one bot-labeled flow, LEGIT
    when it originates legitimate flows only, and UNKNOWN otherwise (flows
    received from a bot do not taint the receiving node).
    """
    bot_sources: set[str] = set()
    legit_sources: set[str] = set()
    nodes: set[str] = set()
    for r in records:
        nodes.add(r.src_ip)
        nodes.add(r.dst_ip)
        if r.label is Label.BOT:
            bot_sources.add(r.src_ip)
        elif r.label is Label.LEGIT:
            legit_sources.add(r.src_ip)
    labels: dict[str, Label] = {}
    for node in nodes:
        if node in bot_sources:
            labels[node] = Label.BOT
        elif node in legit_sources:
            labels[node] = Label.LEGIT
        else:
            labels[node] = Label.UNKNOWN
    return labels


def write_flows_csv(records: Iterable[FlowRecord], path: str | Path) -> None:
    """Write flows in the canonical CSV column order, under a header row."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CANONICAL_COLUMNS)
        for r in records:
            writer.writerow(
                [
                    repr(r.ts_start),
                    repr(r.duration),
                    r.proto.value,
                    r.src_ip,
                    r.src_port,
                    r.dst_ip,
                    r.dst_port,
                    r.src_bytes,
                    r.dst_bytes,
                    r.label.value if r.label is not Label.UNKNOWN else "",
                ]
            )
