"""Flow-record ingestion: file parsing, protocol filtering, sliding-window slicing."""

from __future__ import annotations

import csv
import enum
import math
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from itertools import chain, compress
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


# A table's proto and label columns hold each member's index in its enum.
_PROTOS = tuple(Proto)
_LABELS = tuple(Label)
_CODE = {member: i for members in (_PROTOS, _LABELS) for i, member in enumerate(members)}


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


# The row-aligned columns of a FlowTable and their types.
_COLUMNS = {
    "ts": np.float64,
    "duration": np.float64,
    "proto": np.int8,
    "src_port": np.int32,
    "dst_port": np.int32,
    "src_bytes": np.float64,
    "dst_bytes": np.float64,
    "label": np.int8,
}


@dataclass(frozen=True, eq=False)
class FlowTable:
    """Flows as numpy columns, one row per flow.

    ``src``/``dst`` are int64 ids into ``endpoints``, an object array of the
    sorted endpoint ids, so id order is node order. ``ts`` is the start
    time, ``proto`` and ``label`` hold each member's index in ``Proto`` and
    ``Label``. Byte counts are float64, the type the feature sums accumulate
    in. Indexing rows by a slice gives views, by a mask or an index array
    copies; either way the rows share ``endpoints``.
    """

    endpoints: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    ts: np.ndarray
    duration: np.ndarray
    proto: np.ndarray
    src_port: np.ndarray
    dst_port: np.ndarray
    src_bytes: np.ndarray
    dst_bytes: np.ndarray
    label: np.ndarray

    def __len__(self) -> int:
        return self.src.size

    def __getitem__(self, rows) -> FlowTable:
        return FlowTable(self.endpoints, self.src[rows], self.dst[rows],
                         **{name: getattr(self, name)[rows] for name in _COLUMNS})

    def records(self) -> list[FlowRecord]:
        """The rows as FlowRecords, built on request. A byte count is the
        int of its float64, so a count above 2**53 comes back rounded."""
        columns = (self.ts, self.duration, self.proto, self.endpoints[self.src], self.src_port,
                   self.endpoints[self.dst], self.dst_port, self.src_bytes, self.dst_bytes,
                   self.label)
        return [
            FlowRecord(ts, duration, _PROTOS[proto], src_ip, src_port, dst_ip, dst_port,
                       int(src_bytes), int(dst_bytes), _LABELS[label])
            for ts, duration, proto, src_ip, src_port, dst_ip, dst_port, src_bytes, dst_bytes,
            label in zip(*(column.tolist() for column in columns))
        ]


def _endpoint_ids(endpoints: Sequence[str], index: dict[str, int]) -> np.ndarray:
    """Provisional ids of the endpoints; one not in ``index`` yet is added
    under the next free id."""
    for endpoint in set(endpoints).difference(index):
        index[endpoint] = len(index)
    return np.fromiter(map(index.__getitem__, endpoints), np.int64, len(endpoints))


def _table(index: dict[str, int], src: np.ndarray, dst: np.ndarray, **columns) -> FlowTable:
    """The table of the ``_COLUMNS`` arrays and the rows' provisional
    endpoint ids, renumbered in sorted endpoint order."""
    endpoints = sorted(index)
    rank = np.empty(len(index), dtype=np.int64)
    rank[[index[endpoint] for endpoint in endpoints]] = np.arange(len(index))
    return FlowTable(np.array(endpoints, dtype=object), rank[src], rank[dst], **columns)


def encode_flows(records: Sequence[FlowRecord]) -> FlowTable:
    """Column table of the records, in their order, from one pass over them."""
    rows = [(r.src_ip, r.dst_ip, r.ts_start, r.duration, _CODE[r.proto], r.src_port,
             r.dst_port, r.src_bytes, r.dst_bytes, _CODE[r.label]) for r in records]
    src_ip, dst_ip, *columns = zip(*rows) if rows else [()] * (2 + len(_COLUMNS))
    index: dict[str, int] = {}
    return _table(index, _endpoint_ids(src_ip, index), _endpoint_ids(dst_ip, index), **{
        name: np.array(values, dtype=dtype)
        for (name, dtype), values in zip(_COLUMNS.items(), columns)
    })


@dataclass(eq=False)
class WindowSlice:
    """All flows whose start time falls inside one sliding-window interval,
    as the column ``table`` the stages read."""

    window_start: float
    table: FlowTable

    @cached_property
    def node_index(self) -> tuple[list[str], np.ndarray]:
        """The endpoints the window's flows touch, in node order, and the
        (m, 2) local node indices of each flow's (src, dst). Computed once
        per window, so the feature rows and the graph nodes of a window are
        one list."""
        table = self.table
        ids, local = np.unique(np.column_stack((table.src, table.dst)), return_inverse=True)
        return table.endpoints[ids].tolist(), local.reshape(-1, 2)

    @property
    def records(self) -> list[FlowRecord]:
        """The window's flows as FlowRecords, built on request."""
        return self.table.records()


@dataclass(eq=False)
class ParseResult:
    """The flows recovered from a flow file, in file order, plus a count of
    skipped lines."""

    table: FlowTable
    malformed: int = 0

    @property
    def records(self) -> list[FlowRecord]:
        """The flows as FlowRecords, built on request."""
        return self.table.records()


def _parse_proto(text: str) -> Proto:
    try:
        return Proto(text.strip().lower())
    except ValueError:
        return Proto.OTHER


def _parse_label(text: str) -> Label:
    """An empty cell is UNKNOWN; a name that Label lacks raises ValueError."""
    text = text.strip().lower()
    return Label(text) if text else Label.UNKNOWN


def _binetflow_label(text: str) -> Label:
    lowered = text.lower()
    if "botnet" in lowered:
        return Label.BOT
    if "normal" in lowered:
        return Label.LEGIT
    return Label.UNKNOWN


def _port(text: str) -> int:
    """A port cell that int() refuses may still name a port: str.strip()
    also removes the separators U+001C-U+001F that int() keeps, an empty
    cell reads 0 and a 0x prefix reads hex."""
    text = text.strip()
    if not text:
        return 0
    return int(text, 16) if text.lower().startswith("0x") else int(text)


# Column parsing. Each parser reads a chunk of rows column by column, and it
# and `_check` mark in ``bad`` every row they do not take: a row of another
# width, a text its conversion refuses, a value the checks refuse. These alone
# define a valid row. A column whose texts all convert the ordinary way
# (float(), int(), the vector StartTime cast) takes no other step; only a
# column that holds an odd text goes the slow way, cell by cell: a port int()
# refuses goes through `_port`, byte counts beyond int64 are kept as exact
# ints, and a StartTime off the cast's shape, or in a chunk whose cast numpy
# refuses, goes through strptime.


def _columns(rows: list[list[str]], width: int, fewest: int, most: float,
             bad: np.ndarray) -> list[tuple[str, ...]]:
    """The first ``width`` columns of rows of ``fewest`` to ``most`` cells,
    missing trailing cells read as empty; rows of other widths are bad."""
    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    if not (lengths == width).all():
        bad |= (lengths < fewest) | (lengths > most)
        rows = [row[:width] + [""] * (width - len(row)) for row in rows]
    return list(zip(*rows))


def _mapped(convert, values: Sequence, bad: np.ndarray, slow=None) -> list:
    """convert(value) for each value. If convert refuses one, every value
    goes through ``slow`` instead (convert itself by default), and a value
    that refuses reads 0 and is bad."""
    try:
        return list(map(convert, values))
    except (ValueError, OverflowError):
        pass
    slow = slow or convert
    out = []
    for i, value in enumerate(values):
        try:
            out.append(slow(value))
        except (ValueError, OverflowError):
            out.append(0)
            bad[i] = True
    return out


def _floats(texts: Sequence[str], bad: np.ndarray) -> np.ndarray:
    return np.array(_mapped(float, texts, bad), dtype=np.float64)


def _ints(texts: Sequence[str], bad: np.ndarray, slow=None) -> np.ndarray:
    """The ints of the texts (see `_mapped`) as int64, or as exact Python
    ints in an object array when one lies beyond int64."""
    values = _mapped(int, texts, bad, slow)
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _float64(ints: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """The `_ints` as float64; an exact int that no float holds reads 0 and
    is bad."""
    try:
        return ints.astype(np.float64)
    except OverflowError:
        return np.array(_mapped(float, ints.tolist(), bad), dtype=np.float64)


def _codes(decode, texts: Sequence[str], bad: np.ndarray) -> np.ndarray:
    """The column code of decode(text), decoded once per distinct text; a
    text it refuses is bad."""
    codes = {}
    for text in set(texts):
        try:
            codes[text] = _CODE[decode(text)]
        except ValueError:
            codes[text] = -1
    column = np.fromiter(map(codes.__getitem__, texts), np.int8, len(texts))
    bad |= column < 0
    return column


# The one shape numpy casts as strptime reads it. strptime also takes 1-digit
# fields and non-ASCII digits; such strings go to strptime. numpy takes year
# 0000, which strptime refuses, but that lies outside float64's exact range.
_BINETFLOW_TIME = re.compile(r"[0-9]{4}/[0-9]{2}/[0-9]{2} [0-9]{2}:[0-9]{2}:[0-9]{2}\.[0-9]{6}")


def _start_times(texts: Sequence[str]) -> np.ndarray:
    """UTC epoch seconds of binetflow StartTime strings: strptime's float of
    each, or NaN where strptime refuses it, which the range check refuses.

    The times of the shape ``YYYY/MM/DD HH:MM:SS.ffffff`` are cast as one
    vector, which gives strptime's float for each whose microsecond count a
    float64 holds exactly. Every other time goes through strptime, and so
    does every time of a chunk whose cast numpy refuses (a field out of
    range, such as 02/30 or 24:00, refuses the whole cast).
    """
    texts = list(map(str.strip, texts))
    fast = np.array([i for i, t in enumerate(texts) if _BINETFLOW_TIME.fullmatch(t)], np.int64)
    times = np.full(len(texts), np.nan)
    try:
        micros = np.array([texts[i].replace("/", "-").replace(" ", "T") for i in fast.tolist()],
                          dtype="datetime64[us]").astype(np.int64)
    except ValueError:
        pass
    else:
        exact = np.abs(micros) < 2**53
        times[fast[exact]] = micros[exact] / 1e6
    for i in np.flatnonzero(np.isnan(times)).tolist():
        try:
            started = datetime.strptime(texts[i], "%Y/%m/%d %H:%M:%S.%f")
        except ValueError:
            continue
        times[i] = started.replace(tzinfo=timezone.utc).timestamp()
    return times


def _canonical_columns(rows: list[list[str]], bad: np.ndarray) -> dict:
    cols = _columns(rows, 10, 9, 10, bad)
    return dict(
        ts=_floats(cols[0], bad),
        duration=_floats(cols[1], bad),
        proto=_codes(_parse_proto, cols[2], bad),
        src_ip=list(map(str.strip, cols[3])),
        src_port=_ints(cols[4], bad, _port),
        dst_ip=list(map(str.strip, cols[5])),
        dst_port=_ints(cols[6], bad, _port),
        src_bytes=_float64(_ints(cols[7], bad), bad),
        dst_bytes=_float64(_ints(cols[8], bad), bad),
        label=_codes(_parse_label, cols[9], bad),
    )


def _binetflow_columns(rows: list[list[str]], bad: np.ndarray) -> dict:
    # StartTime,Dur,Proto,SrcAddr,Sport,Dir,DstAddr,Dport,State,sTos,dTos,
    # TotPkts,TotBytes,SrcBytes,Label
    cols = _columns(rows, 15, 14, math.inf, bad)
    tot_bytes = _ints(cols[12], bad)
    src_bytes = _ints(cols[13], bad)
    bad |= src_bytes > tot_bytes
    return dict(
        ts=_start_times(cols[0]),
        duration=_floats(cols[1], bad),
        proto=_codes(_parse_proto, cols[2], bad),
        src_ip=list(map(str.strip, cols[3])),
        src_port=_ints(cols[4], bad, _port),
        dst_ip=list(map(str.strip, cols[6])),
        dst_port=_ints(cols[7], bad, _port),
        src_bytes=_float64(src_bytes, bad),
        dst_bytes=_float64(tot_bytes - src_bytes, bad),
        label=_codes(_binetflow_label, cols[14], bad),
    )


_MAX_PORT = 65535

# UTC epoch seconds of 0001-01-01 and 10000-01-01: the start times a binetflow
# StartTime can name. The upper end is closed because strptime's float of
# 9999/12/31 23:59:59.999999 rounds up to it.
_FIRST_START = -62_135_596_800.0
_LAST_START = 253_402_300_800.0


def _check(rows: list[list[str]], c: dict, bad: np.ndarray) -> None:
    """Mark bad the rows that hold a start time outside years 1-9999, a
    negative or non-finite duration, a port outside 0-65535, a negative byte
    count, an empty endpoint, or bytes that are not UTF-8."""
    ok = (
        (_FIRST_START <= c["ts"]) & (c["ts"] <= _LAST_START)
        & np.isfinite(c["duration"]) & (c["duration"] >= 0)
        & (c["src_port"] >= 0) & (c["src_port"] <= _MAX_PORT)
        & (c["dst_port"] >= 0) & (c["dst_port"] <= _MAX_PORT)
        & (c["src_bytes"] >= 0) & (c["dst_bytes"] >= 0)
        & np.fromiter(map(bool, c["src_ip"]), bool, len(rows))
        & np.fromiter(map(bool, c["dst_ip"]), bool, len(rows))
    )
    try:
        "".join(chain.from_iterable(rows)).encode()
    except UnicodeEncodeError:
        ok &= np.array([_is_utf8(row) for row in rows], dtype=bool)
    bad |= ~ok


def _is_utf8(row: Sequence[str]) -> bool:
    # A byte that is not UTF-8 decodes to a lone surrogate, which does not
    # encode back.
    try:
        "".join(row).encode()
    except UnicodeEncodeError:
        return False
    return True


# The flow file formats parse_flow_file reads, each with its column parser.
FORMATS = {"canonical": _canonical_columns, "binetflow": _binetflow_columns}


def parse_flow_file(path: str | Path, format_descriptor: str = DEFAULT_FORMAT) -> ParseResult:
    """Parse a flow-record file into a FlowTable.

    Two column mappings are supported: ``canonical`` (CSV columns
    ts_start,duration,proto,src_ip,src_port,dst_ip,dst_port,src_bytes,
    dst_bytes[,label], header optional) and ``binetflow`` (CTU-13 flow
    export layout, its ``StartTime,...`` header optional). A leading UTF-8
    byte order mark is dropped. Rows are read in chunks and converted column
    by column; a row the columns refuse is malformed, skipped and counted in
    the result, except that the first non-blank row is skipped uncounted
    when it looks like a header (see `_looks_like_header`). A file whose
    every line is refused is an error.
    """
    try:
        parse_columns = FORMATS[format_descriptor]
    except KeyError:
        raise ValueError(
            f"unknown format descriptor {format_descriptor!r}; "
            f"expected one of {sorted(FORMATS)}"
        ) from None

    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"flow file not found: {path}")

    parts: dict[str, list] = {name: [] for name in ("src_ip", "dst_ip", *_COLUMNS)}
    index: dict[str, int] = {}  # the endpoints seen so far and their provisional ids
    malformed = 0
    first = True  # no non-blank row read yet; the first may be a header
    with path.open(newline="", encoding="utf-8-sig", errors="surrogateescape") as handle:
        for rows, refused in _read_rows(handle):
            malformed += refused
            if not rows:
                continue
            bad = np.zeros(len(rows), dtype=bool)
            columns = parse_columns(rows, bad)
            _check(rows, columns, bad)
            malformed += int(np.count_nonzero(bad))
            if first and bad[0] and _looks_like_header(rows[0], format_descriptor):
                malformed -= 1  # a header, not a malformed row
            keep = ~bad
            for name, values in columns.items():
                parts[name].append(_endpoint_ids(list(compress(values, keep)), index)
                                   if name in ("src_ip", "dst_ip") else values[keep])
            first = False
    if not index:
        raise ValueError(f"no parseable flow records in {path} ({malformed} malformed lines)")
    src, dst = (np.concatenate(parts.pop(name)) for name in ("src_ip", "dst_ip"))
    return ParseResult(
        _table(index, src, dst, **{name: np.concatenate(parts[name]).astype(dtype, copy=False)
                                   for name, dtype in _COLUMNS.items()}),
        malformed,
    )


_CHUNK_ROWS = 1024


def _read_rows(handle) -> Iterator[tuple[list[list[str]], int]]:
    """The non-blank CSV rows in chunks of at most ``_CHUNK_ROWS``, each
    with the number of rows the reader refused (a field over the size limit,
    say). The reader goes on at the next line after a refusal."""
    rows = []
    refused = 0
    reader = csv.reader(handle)
    while True:
        try:
            for row in reader:
                if any(map(str.strip, row)):
                    rows.append(row)
                    if len(rows) == _CHUNK_ROWS:
                        yield rows, refused
                        rows, refused = [], 0
            break
        except csv.Error:
            refused += 1
    yield rows, refused


def _looks_like_header(row: Sequence[str], format_descriptor: str) -> bool:
    """Whether a refused first row is a header: a binetflow row whose first
    cell is StartTime in any case, a canonical row whose first cell is not a
    number."""
    if format_descriptor == "binetflow":
        return row[0].strip().lower() == "starttime"
    try:
        float(row[0])
    except ValueError:
        return True
    return False


def filter_tcp_udp(table: FlowTable) -> FlowTable:
    """Keep only TCP and UDP flows, preserving row order."""
    return table[table.proto != _CODE[Proto.OTHER]]


def check_windowing(window_len: float, stride: float) -> None:
    """Refuse a window length or stride that is not finite and positive, a
    stride longer than the window, which would skip flows, and a pair whose
    ratio overflows."""
    for name, value in (("window_len", window_len), ("stride", stride)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    if stride > window_len:
        raise ValueError(f"stride {stride} exceeds window length {window_len}")
    if window_len / stride == math.inf:
        raise ValueError(f"window_len {window_len} / stride {stride} is not finite")


def slice_windows(
    table: FlowTable,
    window_len: float = DEFAULT_WINDOW_LEN,
    stride: float = DEFAULT_STRIDE,
) -> list[WindowSlice]:
    """Split flows into overlapping sliding windows keyed by flow start time.

    Window starts are aligned to stride boundaries at or before the earliest
    flow; a flow belongs to every window whose half-open interval
    [start, start + window_len) contains its start time. Windows that would
    contain no flows are omitted. The rows are sorted once by start time,
    ties kept in input order, and each window's table is a view of a row
    range of the sorted table.

    Settings too fine for the flow times are refused: 2**62 or more stride
    slots, or a flow that lies in no window because a start plus window_len
    rounds back to that start.
    """
    check_windowing(window_len, stride)
    if not len(table):
        return []

    table = table[np.argsort(table.ts, kind="stable")]
    times = table.ts
    # As Python floats, a quotient that overflows is inf without a warning.
    t0, t1 = float(times[0]), float(times[-1])
    lead = t0 / stride
    first = math.floor(lead) * stride if math.isfinite(lead) else math.nan
    last = (t1 - first) / stride
    if not last < 2**62 - 1:
        raise ValueError(
            f"window_len {window_len} and stride {stride} are too fine for flow times "
            f"{t0} to {t1} s: a stride slot number reaches 2**62"
        )
    n_starts = int(math.floor(last)) + 1
    # A flow in stride slot c can only lie in windows c - reach .. c + 1 (one
    # extra each side absorbs rounding). Trying just those keeps a long gap
    # in the trace, such as one row stamped at the epoch, from costing
    # memory in proportion to the gap. There are only n_starts starts to try.
    reach = min(math.ceil(window_len / stride), n_starts) + 1
    slots = np.unique(np.floor((times - first) / stride).astype(np.int64))
    # The slots ascend, so their ranges merge into runs: a run ends where the
    # next slot's range begins past it. Expanding the runs, clipped to the
    # starts, costs memory in proportion to the starts tried, not to slots
    # times reach.
    new = np.flatnonzero(slots[1:] - reach > slots[:-1] + 1) + 1
    run_lo = np.maximum(slots[np.append(0, new)] - reach, 0)
    run_hi = np.minimum(slots[np.append(new - 1, slots.size - 1)] + 1, n_starts - 1)
    lengths = np.maximum(run_hi - run_lo + 1, 0)
    ks = np.repeat(run_lo + lengths - np.cumsum(lengths), lengths) + np.arange(lengths.sum())
    starts = first + ks * stride
    los = np.searchsorted(times, starts)
    his = np.searchsorted(times, starts + window_len)
    # Starts never descend, so neither do los and his, and the rows from
    # his[i - 1] up to los[i] lie in no window.
    ends = np.append(0, his)
    gaps = np.flatnonzero(ends < np.append(los, len(table)))
    if gaps.size:
        raise ValueError(
            f"window_len {window_len} and stride {stride} are too fine for flow times "
            f"near {times[ends[gaps[0]]]} s: the flow there lies in no window"
        )
    return [WindowSlice(start, table[lo:hi])
            for start, lo, hi in zip(starts.tolist(), los.tolist(), his.tolist()) if hi > lo]


def node_labels(table: FlowTable) -> dict[str, Label]:
    """Per-node labels of the nodes the flows touch, from per-flow labels.

    A node is BOT when it originates at least one bot-labeled flow, LEGIT
    when it originates legitimate flows only, and UNKNOWN otherwise (flows
    received from a bot do not taint the receiving node).
    """
    codes = np.full(table.endpoints.size, _CODE[Label.UNKNOWN], dtype=np.int8)
    for label in (Label.LEGIT, Label.BOT):  # bot is written last, so it wins
        codes[table.src[table.label == _CODE[label]]] = _CODE[label]
    ids = np.unique(np.concatenate((table.src, table.dst)))
    return dict(zip(table.endpoints[ids].tolist(), map(_LABELS.__getitem__, codes[ids].tolist())))


def derive_node_labels(records: Sequence[FlowRecord]) -> dict[str, Label]:
    """`node_labels` of the records' flows."""
    return node_labels(encode_flows(records))


def write_flows_csv(records: Iterable[FlowRecord], path: str | Path) -> None:
    """Write flows in the canonical CSV column order, under a header row."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8", errors="surrogateescape") as handle:
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
