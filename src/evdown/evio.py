"""Reading and writing event streams, priors, stats, and decision logs.

Two stream formats are supported:

* CSV: header ``t,x,y,p`` (optionally ``t,x,y,p,label``), one event per
  line, label E for edge and N for noise.  The format carries no sensor
  geometry; pass one to :func:`read_events` or it is inferred as the
  smallest sensor containing every event.
* binary: little-endian, magic ``EVDN``, version byte (1), width u16,
  height u16, count u64, then ``count`` packed 13-byte records of
  t u64, x u16, y u16, p u8.  Labels are not stored.

Both formats round-trip every event field bit-exactly.  Writers emit a
canonical encoding, so re-serializing a stream is byte-stable.  A binary
file can also be read block by block (:class:`BinaryEvents`), and a
stream or decision log written piece by piece (:class:`EventWriter`,
:class:`LogWriter`); every writer writes into a file made by
:func:`replacing`, so a failed write leaves its path as it was.

Event CSVs and decision logs are read by the compiled parsers of
:mod:`evdown.capwalk`, which take exactly the rows the writers here emit.
A file they reject, or any file when the compiled kernels are not
available, is read by a line loop instead: the loops accept the same
files into the same columns, and every message about a malformed file
comes from them.
"""

from __future__ import annotations

import contextlib
import errno
import functools
import json
import os
import shutil
import stat
import struct
import tempfile
from pathlib import Path

import numpy as np

from . import capwalk
from .density import PriorMap
from .events import (EventLabel, EventStream, SensorGeometry,
                     first_violations)
from .pipeline import DecisionLog, RunStats
from .metrics import SelectivityReport

MAGIC = b"EVDN"
VERSION = 1
_HEADER = struct.Struct("<4sBHHQ")
REC_DTYPE = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "u1")])
assert REC_DTYPE.itemsize == 13
_INT64_MAX = int(np.iinfo(np.int64).max)

_CSV_HEADER = "t,x,y,p"
_CSV_HEADER_LABELED = "t,x,y,p,label"
_LABEL_CHAR = {int(EventLabel.EDGE): "E", int(EventLabel.NOISE): "N"}
_CHAR_LABEL = {"E": int(EventLabel.EDGE), "N": int(EventLabel.NOISE)}
_CODE_CHAR = {0: "A", 1: "S", 2: "C"}
# Headers the compiled parsers take; any other goes to the line loops.
_CSV_FAST_HEADERS = {b"t,x,y,p\n": False, b"t,x,y,p\r\n": False,
                     b"t,x,y,p,label\n": True, b"t,x,y,p,label\r\n": True}
_LOG_HEADER = "index,t,window,code,p"
_LOG_FAST_HEADERS = (b"index,t,window,code,p\n", b"index,t,window,code,p\r\n")
_CHAR_CODE = {v: k for k, v in _CODE_CHAR.items()}


class EventFileError(ValueError):
    """A file failed to parse or violated format-level constraints."""


def detect_format(path) -> str:
    """Return "binary" when the file starts with the magic bytes, else "csv"."""
    with open(path, "rb") as fh:
        return "binary" if fh.read(4) == MAGIC else "csv"


def read_events(path, fmt: str = "auto",
                geometry: SensorGeometry | None = None) -> EventStream:
    """Load an event stream, checking ordering and geometry bounds.

    fmt is "csv", "binary", or "auto" (sniff by magic bytes).  For CSV, an
    explicit geometry is validated against the data; without one the
    geometry is inferred from the coordinate maxima (1x1 for an empty
    stream).  For binary, the header geometry is used and an explicit one
    must match it.
    """
    if fmt == "auto":
        fmt = detect_format(path)
    if fmt == "csv":
        return _read_csv(path, geometry)
    if fmt == "binary":
        return _read_binary(path, geometry)
    raise ValueError(f"unknown format {fmt!r}")


def write_events(stream: EventStream, path, fmt: str = "auto") -> None:
    """Write a stream as CSV or binary; "auto" picks CSV for a .csv suffix.

    CSV output includes the label column iff the stream is labeled.  Binary
    output drops labels (the format has no field for them).
    """
    with replacing(path) as fh:
        writer = EventWriter(fh, output_format(path, fmt), stream.geometry,
                             stream.is_labeled)
        writer.write(stream)
        writer.finish()


def output_format(path, fmt: str = "auto") -> str:
    """The format write_events uses for path: fmt, or for "auto" CSV when
    path ends in .csv and binary otherwise."""
    if fmt == "auto":
        return "csv" if str(path).endswith(".csv") else "binary"
    return fmt


@functools.cache
def _umask() -> int:
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


@contextlib.contextmanager
def replacing(path):
    """A new binary file to write path's content into.  When the block
    ends it takes path's place; when the block raises it is dropped and
    path is left as it was.

    The file is made beside path (beside its target, for a symbolic link)
    and moved over it with os.replace, taking path's permission bits, or
    those a newly created file would get; an existing path this process
    may not write raises PermissionError, as opening it would.  A path
    that exists but is no regular file (a device, a pipe) is written only
    once the block ends, from a copy spooled to a temporary file.
    """
    dest = os.path.realpath(path)
    try:
        mode = os.stat(dest).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not os.access(dest, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES),
                              str(path))
    if mode is not None and not stat.S_ISREG(mode):
        with tempfile.TemporaryFile() as spool:
            yield spool
            spool.seek(0)
            with open(dest, "wb") as fh:
                shutil.copyfileobj(spool, fh)
        return
    head, tail = os.path.split(dest)
    fd, tmp = tempfile.mkstemp(dir=head, prefix=f".{tail}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.chmod(tmp, 0o666 & ~_umask() if mode is None
                 else stat.S_IMODE(mode))
        os.replace(tmp, dest)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _finish_stream(path, geometry, t, x, y, p, labels=None, start=0,
                   before=None) -> EventStream:
    """Shared ordering/bounds checks and geometry resolution for readers.

    For a block of a longer stream, ``start`` is the index of its first
    event, which messages count from, and ``before`` the timestamp of the
    event ahead of it.
    """
    t = np.asarray(t, dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    i, j = first_violations(t, x, y, geometry, before)
    if i is not None:
        raise EventFileError(
            f"{path}: events out of order at index {start + i} "
            f"(t={int(t[i])} after t={before if i == 0 else int(t[i - 1])})")
    if geometry is None:
        try:
            geometry = SensorGeometry(int(x.max()) + 1 if x.size else 1,
                                      int(y.max()) + 1 if y.size else 1)
        except ValueError as exc:
            raise EventFileError(f"{path}: inferred {exc}") from None
    elif j is not None:
        raise EventFileError(
            f"{path}: event {start + j} at ({int(x[j])}, {int(y[j])}) "
            f"outside {geometry.width}x{geometry.height} sensor")
    return EventStream(geometry, t, x, y, p, labels=labels)


def _ascii_lines(path, lines):
    """Pass text lines through, raising EventFileError naming the first line
    that holds a non-ASCII byte (read with errors="surrogateescape")."""
    for lineno, line in enumerate(lines, start=1):
        if not line.isascii():
            byte = next(ord(c) for c in line if not c.isascii()) - 0xDC00
            raise EventFileError(f"{path}:{lineno}: non-ASCII byte "
                                 f"0x{byte:02x}")
        yield line


def _read_csv(path, geometry) -> EventStream:
    columns = _parse_csv_compiled(path)
    if columns is None:
        columns = _parse_csv_lines(path)
    return _finish_stream(path, geometry, *columns)


def _parse_csv_compiled(path):
    """Parse an event CSV with the compiled parser, or return None.

    The parser takes only rows as EventWriter writes them (digits, commas,
    the label letter, LF or CRLF), which _parse_csv_lines reads into the
    same columns; for any other file, or without the compiled kernels, this
    returns None and the line loop parses the file and reports what is
    wrong with it.  The file's bytes are dropped on return, before the
    caller builds the stream.
    """
    data = Path(path).read_bytes()
    header = data[:data.find(b"\n") + 1]
    labeled = _CSV_FAST_HEADERS.get(header)
    if labeled is None:
        return None
    return capwalk.parse_events(data, len(header), labeled)


def _parse_csv_lines(path):
    """Parse an event CSV line by line; every malformed-file message that
    names a line comes from here."""
    with open(path, "r", encoding="ascii", errors="surrogateescape",
              newline="") as fh:
        lines = _ascii_lines(path, fh)
        header = next(lines, "").rstrip("\r\n")
        if header == _CSV_HEADER:
            labeled = False
        elif header == _CSV_HEADER_LABELED:
            labeled = True
        else:
            raise EventFileError(
                f"{path}:1: bad header {header!r}, expected "
                f"{_CSV_HEADER!r} or {_CSV_HEADER_LABELED!r}")
        ncols = 5 if labeled else 4
        t, x, y, p = [], [], [], []
        labels = [] if labeled else None
        for lineno, line in enumerate(lines, start=2):
            fields = line.rstrip("\r\n").split(",")
            if len(fields) != ncols:
                raise EventFileError(
                    f"{path}:{lineno}: expected {ncols} fields, "
                    f"got {len(fields)}")
            try:
                ti, xi, yi, pi = (int(fields[0]), int(fields[1]),
                                  int(fields[2]), int(fields[3]))
            except ValueError as exc:
                raise EventFileError(f"{path}:{lineno}: {exc}") from None
            if ti < 0 or xi < 0 or yi < 0:
                raise EventFileError(
                    f"{path}:{lineno}: negative timestamp or coordinate")
            if pi not in (0, 1):
                raise EventFileError(
                    f"{path}:{lineno}: polarity must be 0 or 1, got {pi}")
            if labeled:
                if fields[4] not in _CHAR_LABEL:
                    raise EventFileError(
                        f"{path}:{lineno}: label must be E or N, "
                        f"got {fields[4]!r}")
                labels.append(_CHAR_LABEL[fields[4]])
            t.append(ti)
            x.append(xi)
            y.append(yi)
            p.append(pi)
    try:
        t, x, y = (np.asarray(col, dtype=np.int64) for col in (t, x, y))
    except OverflowError:
        # Values are parsed as Python ints; find the line only once one has
        # proved too large, so the loop above stays as cheap as it is.
        big = next(i for i, vals in enumerate(zip(t, x, y))
                   if max(vals) > _INT64_MAX)
        raise EventFileError(f"{path}:{big + 2}: value exceeds the signed "
                             f"64-bit range") from None
    return t, x, y, np.asarray(p, dtype=np.uint8), labels


_CHUNK_ROWS = 1 << 16   # rows per formatted block; bounds a writer's memory


def _decimal(values) -> np.ndarray:
    """Decimal ASCII of integers as the rows of a uint8 matrix, aligned
    right and NUL-padded on the left ("-" precedes a negative value)."""
    values = np.asarray(values, dtype=np.int64)
    neg = values < 0
    sign = int(neg.any())
    mag = values.astype(np.uint64)
    if sign:
        mag[neg] = -mag[neg]  # modulo 2**64, so exact for the int64 minimum
    top = int(mag.max())
    if top <= 0xFFFFFFFF:
        mag = mag.astype(np.uint32)  # 32-bit division is the faster one
    out = np.empty((values.size, sign + len(str(top))), np.uint8)
    q = mag // 10
    out[:, -1] = mag - q * 10 + 48
    for col in range(out.shape[1] - 2, sign - 1, -1):
        mag = q
        q = mag // 10
        out[:, col] = (mag - q * 10 + 48) * (mag != 0)  # NUL, not a leading 0
    if sign:
        out[:, 0] = neg * ord("-")
    return out


def _strings(texts) -> np.ndarray:
    """ASCII strings as the rows of a uint8 matrix, NUL-padded on the right."""
    table = np.array([text.encode("ascii") for text in texts])
    return table.view(np.uint8).reshape(len(texts), table.itemsize)


def _reprs(values) -> np.ndarray:
    """repr of floats as the rows of a uint8 matrix, NUL-padded on the
    right; repr runs once per distinct bit pattern, so -0.0 and 0.0 stay
    apart."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits, which = np.unique(values.view(np.uint64), return_inverse=True)
    return _strings([repr(v) for v in bits.view(np.float64).tolist()])[which]


def _symbols(mapping: dict, values, what: str):
    """A (table, index) column writing each value as its letter in mapping;
    a value mapping lacks raises ValueError."""
    values = np.asarray(values)
    top = max(mapping)
    known = np.array([k in mapping for k in range(top + 1)])
    # min and max first: known[values] must not wrap a negative index.
    if values.size and not (values.min() >= 0 and values.max() <= top
                            and known[values].all()):
        unknown = ~np.isin(values, list(mapping))
        raise ValueError(f"{what} {values[unknown][0]} has no letter")
    table = _strings([mapping.get(k, "") for k in range(top + 1)])
    return table, values


def _write_rows(fh, n: int, columns) -> None:
    """Write n rows of columns to the binary file fh as comma-separated
    text, one row per line, _CHUNK_ROWS rows at a time.

    A column is an integer array or range, written in decimal, a float
    array, written with repr, or a pair (table, index) writing row i as
    table[index[i]] (see _strings).  Each block is laid out as a
    fixed-width byte matrix whose NUL padding is dropped on the way out, so
    no Python object is made per row and no temporary spans more than one
    block.
    """
    def field(col, lo, hi):
        if isinstance(col, tuple):
            return col[0][col[1][lo:hi]]
        part = col[lo:hi]
        if isinstance(part, range):
            part = np.arange(part.start, part.stop, part.step)
        return _reprs(part) if part.dtype.kind == "f" else _decimal(part)

    for lo in range(0, n, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, n)
        fields = [field(col, lo, hi) for col in columns]
        block = np.empty((hi - lo, sum(f.shape[1] + 1 for f in fields)),
                         np.uint8)
        end = 0
        for f in fields:
            start, end = end, end + f.shape[1]
            block[:, start:end] = f
            block[:, end] = ord(",")
            end += 1
        block[:, -1] = ord("\n")
        fh.write(block.tobytes().translate(None, b"\0"))


def _read_binary(path, geometry) -> EventStream:
    source = BinaryEvents(path, geometry)
    return source.read(0, source.count)


class BinaryEvents:
    """A binary event file whose header and size have been checked; its
    records are read, and checked, a block at a time.

    Raises EventFileError for a header or size that is wrong, and OSError
    when the file cannot be read.
    """

    def __init__(self, path, geometry: SensorGeometry | None = None):
        with open(path, "rb") as fh:
            head = fh.read(_HEADER.size)
            size = os.fstat(fh.fileno()).st_size
        if len(head) < _HEADER.size:
            raise EventFileError(f"{path}: truncated header "
                                 f"({len(head)} bytes, need {_HEADER.size})")
        magic, version, width, height, count = _HEADER.unpack(head)
        if magic != MAGIC:
            raise EventFileError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise EventFileError(f"{path}: unsupported version {version}")
        expected = _HEADER.size + REC_DTYPE.itemsize * count
        if size != expected:
            whole = (size - _HEADER.size) // REC_DTYPE.itemsize
            raise EventFileError(
                f"{path}: size mismatch for {count} records: expected "
                f"{expected} bytes, got {size} (truncated at record {whole})")
        try:
            header_geo = SensorGeometry(width, height)
        except ValueError as exc:
            raise EventFileError(f"{path}: bad header geometry: {exc}") from None
        if geometry is not None and geometry != header_geo:
            raise EventFileError(
                f"{path}: header geometry {width}x{height} does not match "
                f"requested {geometry.width}x{geometry.height}")
        self.path = path
        self.geometry = header_geo
        self.count = count

    def read(self, start: int, stop: int, before: int | None = None
             ) -> EventStream:
        """Records start .. stop - 1 as a stream, checked as read_events
        checks a whole file; messages give each record's index in the
        file, and ``before`` is the timestamp of record ``start - 1``."""
        recs = np.fromfile(self.path, REC_DTYPE, count=stop - start,
                           offset=_HEADER.size + start * REC_DTYPE.itemsize)
        if recs.size != stop - start:
            raise EventFileError(f"{self.path}: truncated at record "
                                 f"{start + recs.size}")
        if recs.size and int(recs["t"].max()) > _INT64_MAX:
            raise EventFileError(
                f"{self.path}: timestamp exceeds the signed 64-bit range")
        bad = np.flatnonzero(recs["p"] > 1)
        if bad.size:
            i = int(bad[0])
            raise EventFileError(
                f"{self.path}: record {start + i}: polarity must be 0 or 1, "
                f"got {int(recs['p'][i])}")
        return _finish_stream(self.path, self.geometry,
                              recs["t"].astype(np.int64),
                              recs["x"].astype(np.int64),
                              recs["y"].astype(np.int64),
                              recs["p"].copy(), start=start, before=before)

    def blocks(self, size: int):
        """The records in order, as checked streams of up to size events."""
        before = None
        for start in range(0, self.count, size):
            block = self.read(start, min(start + size, self.count), before)
            before = int(block.t[-1])
            yield block


class EventWriter:
    """Writes a stream to a binary file object piece by piece.

    The header goes out first and each piece as it is written;
    :meth:`finish` then sets the event count of a binary header.  CSV rows
    carry the label column iff ``labeled``; binary records drop labels.

    Raises ValueError for an unknown format or a geometry past the binary
    format's 65535x65535.
    """

    def __init__(self, fh, fmt: str, geometry: SensorGeometry,
                 labeled: bool = False):
        if fmt == "csv":
            header = (_CSV_HEADER_LABELED if labeled else _CSV_HEADER) + "\n"
            fh.write(header.encode("ascii"))
        elif fmt == "binary":
            if geometry.width > 0xFFFF or geometry.height > 0xFFFF:
                raise ValueError("binary format limits geometry to 65535x65535")
            fh.write(self._header(geometry, 0))
        else:
            raise ValueError(f"unknown format {fmt!r}")
        self._fh = fh
        self._fmt = fmt
        self._geometry = geometry
        self._labeled = labeled
        self.count = 0

    @staticmethod
    def _header(geo: SensorGeometry, count: int) -> bytes:
        return _HEADER.pack(MAGIC, VERSION, geo.width, geo.height, count)

    def write(self, stream: EventStream) -> None:
        """Append a stream's events.  Raises ValueError for a label without
        a letter, a missing label column, or an event outside a binary
        file's geometry."""
        n = len(stream)
        if self._fmt == "csv":
            columns = [stream.t, stream.x, stream.y, stream.p]
            if self._labeled:
                if not stream.is_labeled:
                    raise ValueError("an unlabeled stream for a labeled file")
                columns.append(_symbols(_LABEL_CHAR, stream.labels, "label"))
            _write_rows(self._fh, n, columns)
        else:
            oob = ~self._geometry.contains(stream.x, stream.y)
            if np.any(oob):
                i = self.count + int(np.flatnonzero(oob)[0])
                raise ValueError(
                    f"event {i} outside stream geometry, refusing to write")
            recs = np.empty(n, dtype=REC_DTYPE)
            recs["t"] = stream.t
            recs["x"] = stream.x
            recs["y"] = stream.y
            recs["p"] = stream.p
            self._fh.write(recs.tobytes())
        self.count += n

    def finish(self) -> None:
        """Complete the file: a binary header gets the event count."""
        if self._fmt == "binary" and self.count:
            self._fh.seek(0)
            self._fh.write(self._header(self._geometry, self.count))
            self._fh.seek(0, os.SEEK_END)


def read_prior(path, geometry: SensorGeometry) -> PriorMap:
    """Load a prior: first line "width height", then height rows of width
    decimal weights.  Dimensions must match the given geometry; weight
    values are taken verbatim (no normalization on load)."""
    text = Path(path).read_text(encoding="ascii", errors="surrogateescape")
    lines = list(_ascii_lines(path, text.splitlines()))
    if not lines:
        raise EventFileError(f"{path}: empty prior file")
    head = lines[0].split()
    if len(head) != 2:
        raise EventFileError(f"{path}:1: expected 'width height', got {lines[0]!r}")
    try:
        width, height = int(head[0]), int(head[1])
    except ValueError:
        raise EventFileError(f"{path}:1: expected 'width height', "
                             f"got {lines[0]!r}") from None
    if (width, height) != (geometry.width, geometry.height):
        raise EventFileError(
            f"{path}: prior is {width}x{height}, stream geometry is "
            f"{geometry.width}x{geometry.height}")
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != height:
        raise EventFileError(
            f"{path}: expected {height} weight rows, got {len(body)}")
    weights = np.empty((height, width))
    for r, ln in enumerate(body):
        fields = ln.split()
        if len(fields) != width:
            raise EventFileError(
                f"{path}: row {r} has {len(fields)} weights, expected {width}")
        try:
            weights[r] = [float(v) for v in fields]
        except ValueError as exc:
            raise EventFileError(f"{path}: row {r}: {exc}") from None
    try:
        return PriorMap(geometry, weights)
    except ValueError as exc:
        raise EventFileError(f"{path}: {exc}") from None


def write_prior(prior: PriorMap, path) -> None:
    """Write a prior in the format read_prior expects, values via repr so
    float64 weights round-trip exactly."""
    geo = prior.geometry
    lines = [f"{geo.width} {geo.height}"]
    for row in prior.weights:
        lines.append(" ".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _selectivity_doc(report: SelectivityReport) -> dict:
    return {
        "edge_total": report.edge_total,
        "noise_total": report.noise_total,
        "edge_retained": report.edge_retained,
        "noise_retained": report.noise_retained,
        "edge_fraction": report.edge_fraction,
        "noise_fraction": report.noise_fraction,
        "ratio": report.ratio,
        "overall": report.overall,
        "alpha": report.alpha,
    }


STATS_KEYS = ("alpha", "method", "seed", "processed", "retained", "capped",
              "ratio", "per_window_ratios", "ms_per_kev_total",
              "ms_per_kev_pdf", "ms_per_kev_eval")


def report_doc(selectivity: SelectivityReport | None = None,
               **fields) -> dict:
    """Build a stats document from its fields: every key of STATS_KEYS, in
    that order (None where a field is not given), then the selectivity
    block when there is one."""
    doc = dict.fromkeys(STATS_KEYS)
    doc.update(fields)
    if selectivity is not None:
        doc["selectivity"] = _selectivity_doc(selectivity)
    return doc


def stats_doc(stats: RunStats,
              selectivity: SelectivityReport | None = None) -> dict:
    """Build the stats document for a run as a plain dict."""
    return report_doc(selectivity,
                      **{key: getattr(stats, key) for key in STATS_KEYS})


def write_json_doc(doc: dict, path_or_stream) -> None:
    """Serialize a document as stable, indented JSON (key order preserved)."""
    text = json.dumps(doc, indent=2) + "\n"
    if hasattr(path_or_stream, "write"):
        path_or_stream.write(text)
    else:
        Path(path_or_stream).write_text(text, encoding="ascii")


def write_stats(stats: RunStats, path_or_stream,
                selectivity: SelectivityReport | None = None) -> None:
    """Write a run's stats document as JSON (to a path or open stream)."""
    write_json_doc(stats_doc(stats, selectivity), path_or_stream)


def write_log(log: DecisionLog, path) -> None:
    """Write a decision log as CSV: index,t,window,code,p.

    Codes are A (accept), S (sampler reject), C (cap reject); p uses repr
    so probabilities round-trip exactly (nan for deterministic decisions).
    """
    with replacing(path) as fh:
        LogWriter(fh).write(log)


class LogWriter:
    """Writes a decision log to a binary file object piece by piece, as
    write_log writes it whole: the header first, then each piece's rows,
    indexed on from the last piece's."""

    def __init__(self, fh):
        fh.write(_LOG_HEADER.encode("ascii") + b"\n")
        self._fh = fh
        self.count = 0

    def write(self, log: DecisionLog) -> None:
        """Append a piece's rows.  Raises ValueError for a code without a
        letter, before any row of the piece is written."""
        n = len(log)
        codes = _symbols(_CODE_CHAR, log.code, "decision code")
        if n:
            _write_rows(self._fh, n, [
                range(self.count, self.count + n),
                np.asarray(log.t, np.int64), np.asarray(log.window, np.int64),
                codes, np.asarray(log.probability, np.float64)])
        self.count += n


def read_log(path) -> DecisionLog:
    """Read a decision log written by write_log.

    The compiled parser reads a log as write_log writes it; any other file,
    or every file without the compiled kernels, goes to the line loop,
    which also names the line of any error.
    """
    data = Path(path).read_bytes()
    header = data[:data.find(b"\n") + 1]
    columns = None
    if header in _LOG_FAST_HEADERS:
        columns = capwalk.parse_log(data, len(header))
    del data
    if columns is None:
        columns = _parse_log_lines(path)
    return DecisionLog(*columns)


def _parse_log_lines(path):
    with open(path, "r", encoding="ascii", errors="surrogateescape",
              newline="") as fh:
        lines = _ascii_lines(path, fh)
        header = next(lines, "").rstrip("\r\n")
        if header != _LOG_HEADER:
            raise EventFileError(f"{path}:1: bad log header {header!r}")
        t, window, code, prob = [], [], [], []
        for lineno, line in enumerate(lines, start=2):
            fields = line.rstrip("\r\n").split(",")
            if len(fields) != 5:
                raise EventFileError(
                    f"{path}:{lineno}: expected 5 fields, got {len(fields)}")
            try:
                idx = int(fields[0])
                t.append(int(fields[1]))
                window.append(int(fields[2]))
                code.append(_CHAR_CODE[fields[3]])
                prob.append(float(fields[4]))
            except (ValueError, KeyError) as exc:
                raise EventFileError(f"{path}:{lineno}: {exc!r}") from None
            if idx != len(t) - 1:
                raise EventFileError(
                    f"{path}:{lineno}: index {idx} out of sequence")
    try:
        t, window = (np.asarray(col, dtype=np.int64) for col in (t, window))
    except OverflowError:
        big = next(i for i, vals in enumerate(zip(t, window))
                   if min(vals) < -_INT64_MAX - 1 or max(vals) > _INT64_MAX)
        raise EventFileError(f"{path}:{big + 2}: value exceeds the signed "
                             f"64-bit range") from None
    return (t, window, np.asarray(code, dtype=np.uint8),
            np.asarray(prob, dtype=np.float64))
