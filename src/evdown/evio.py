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
canonical encoding, so re-serializing a stream is byte-stable.  Either
format can also be read block by block (:class:`BinaryEvents`,
:class:`CsvEvents`), and a stream or decision log written piece by piece
(:class:`EventWriter`, :class:`LogWriter`); every writer writes into a
file made by :func:`replacing`, so a failed write leaves its path as it
was.  A reader's columns become its stream's without a copy.

Event CSVs are read by :class:`CsvEvents` alone, in blocks of whole
lines, twice: a scan that keeps no column, then a parse, each pass
reading its blocks into one buffer.  Each block is read by the compiled
scan and parser of :mod:`evdown.capwalk`, which take exactly the rows the
writers here emit, ended by LF, CRLF or a lone CR as the line loop's lines
are; a block the scan rejects, or every block when the compiled kernels
are not available, is read by a line loop instead, in both passes.  The
loop accepts the same rows into the same columns, and every message about
a malformed CSV comes from it.  Decision logs are read by a line loop
alone, on every host.

The rows of event CSVs and decision logs are written by the compiled row
formatter of :mod:`evdown.capwalk`, or, where the compiled kernels are not
available, laid out with numpy as the same bytes.
"""

from __future__ import annotations

import array
import contextlib
import errno
import functools
import io
import json
import math
import os
import re
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
_LOG_HEADER = "index,t,window,code,p"
_CHAR_CODE = {v: k for k, v in _CODE_CHAR.items()}


class EventFileError(ValueError):
    """A file failed to parse or violated format-level constraints."""


def detect_format(path) -> str:
    """Return "binary" when the file starts with the magic bytes, else "csv";
    a pipe is "csv" unsniffed, as sniffing would take bytes from it."""
    with open(path, "rb") as fh:
        if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            return "csv"
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
        return CsvEvents(path, geometry).read()
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
    may not write raises PermissionError, as opening it would, and a file
    that cannot be made beside path raises the OSError, naming path.  A
    path that exists but is no regular file (a device, a pipe) is written
    only once the block ends, from a copy spooled to a temporary file.
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
    try:
        fd, tmp = tempfile.mkstemp(dir=head, prefix=f".{tail}.", suffix=".tmp")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
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
    """The stream a reader's columns make, in the given geometry or, without
    one, the smallest sensor that holds every event.

    For a block of a longer stream, ``start`` is the index of its first
    event, which messages count from, and ``before`` the timestamp of the
    event ahead of it.  The columns must be fresh arrays of the stream's
    dtypes: the stream takes them as its own.  A stream that cannot be
    built raises EventFileError, naming its first event out of order, else
    its first event outside the given geometry, else the inferred
    geometry's fault.
    """
    if before is None or not t.size or t[0] >= before:
        try:
            sensor = geometry if geometry is not None else SensorGeometry(
                int(x.max()) + 1 if x.size else 1,
                int(y.max()) + 1 if y.size else 1)
            return EventStream._adopt(sensor, t, x, y, p, labels=labels)
        except ValueError as exc:
            refusal = exc
    # The stream was refused: find its offence again, in the file's terms.
    disorder = _out_of_order(path, t, x, y, start, before)
    if disorder is not None:
        raise disorder
    j = first_violations(t, x, y, geometry)[1]
    if j is not None:
        raise EventFileError(
            f"{path}: event {start + j} at ({int(x[j])}, {int(y[j])}) "
            f"outside {geometry.width}x{geometry.height} sensor")
    # The columns pass every other check of the stream's, so what is left
    # is the geometry inferred from them.
    raise EventFileError(f"{path}: inferred {refusal}")


def _out_of_order(path, t, x, y, start=0, before=None):
    """The EventFileError naming the first event of the columns (index
    start in the file) whose timestamp is below the one ahead of it,
    ``before`` for the first; None when they are in order."""
    i = (0 if before is not None and t.size and t[0] < before
         else first_violations(t, x, y)[0])
    return None if i is None else EventFileError(
        f"{path}: events out of order at index {start + i} "
        f"(t={int(t[i])} after t={before if i == 0 else int(t[i - 1])})")


def _ascii_lines(path, lines, start: int = 1):
    """Pass text lines (line start on) through, raising EventFileError
    naming the first with a non-ASCII byte (read as surrogateescape)."""
    for lineno, line in enumerate(lines, start=start):
        if not line.isascii():
            byte = next(ord(c) for c in line if not c.isascii()) - 0xDC00
            raise EventFileError(f"{path}:{lineno}: non-ASCII byte "
                                 f"0x{byte:02x}")
        yield line


def _text_lines(path, data: bytes, start: int = 1):
    """The lines of data, the first of them line start of path, as the
    line loop reads them: split after LF, CRLF or a lone CR, and checked by
    _ascii_lines unless data is ASCII throughout."""
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="ascii",
                             errors="surrogateescape", newline="")
    return lines if data.isascii() else _ascii_lines(path, lines, start)


# The first line of a buffer, its LF, CRLF or lone CR included.
_FIRST_LINE = re.compile(rb"[^\r\n]*(?:\r\n?|\n)?")


def _header(path, data, stop: int):
    """(length, labeled) of the event-CSV header line that data[:stop]
    starts with; raises EventFileError for any other first line."""
    end = _FIRST_LINE.match(data, 0, stop).end()
    line = next(_text_lines(path, data[:end]), "")
    header = line.rstrip("\r\n")
    if header not in (_CSV_HEADER, _CSV_HEADER_LABELED):
        raise EventFileError(
            f"{path}:1: bad header {header!r}, expected "
            f"{_CSV_HEADER!r} or {_CSV_HEADER_LABELED!r}")
    return len(line), header == _CSV_HEADER_LABELED


def _parse_lines(path, data: bytes, labeled: bool, start: int):
    """The columns (t, x, y, p, labels) of data, whole lines of an event
    CSV from line start of path on, parsed line by line, and None or the
    EventFileError naming the first line with a value past the signed
    64-bit range (read as 0), which a malformed line later in the file
    outranks.  A malformed line raises EventFileError at once; every
    malformed-file message that names a line comes from here."""
    ncols = 5 if labeled else 4
    t, x, y = array.array("q"), array.array("q"), array.array("q")
    p, labels = array.array("B"), array.array("B") if labeled else None
    big = None
    for lineno, line in enumerate(_text_lines(path, data, start), start):
        fields = line.rstrip("\r\n").split(",")
        if len(fields) != ncols:
            raise EventFileError(
                f"{path}:{lineno}: expected {ncols} fields, got {len(fields)}")
        try:
            ti, xi, yi, pi = (int(fields[0]), int(fields[1]),
                              int(fields[2]), int(fields[3]))
        except ValueError as exc:
            raise EventFileError(f"{path}:{lineno}: {exc}") from None
        every = ti | xi | yi  # negative iff one is, past int64 iff one is
        if every < 0:
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
        if every > _INT64_MAX:
            big = lineno if big is None else big
            ti = xi = yi = 0
        t.append(ti)
        x.append(xi)
        y.append(yi)
        p.append(pi)
    columns = (*(np.frombuffer(col, np.int64) for col in (t, x, y)),
               np.frombuffer(p, np.uint8),
               None if labels is None else np.frombuffer(labels, np.uint8))
    overflow = None if big is None else EventFileError(
        f"{path}:{big}: value exceeds the signed 64-bit range")
    return columns, overflow


_CHUNK_ROWS = 1 << 16   # rows per formatted block; bounds a writer's memory


def _decimal(values) -> np.ndarray:
    """Decimal ASCII of integers (an array or range) as the rows of a uint8
    matrix, aligned right and NUL-padded on the left ("-" precedes a
    negative value)."""
    if isinstance(values, range):
        values = np.arange(values.start, values.stop, values.step)
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


def _reprs(values):
    """A (table, index) column writing each float with repr; repr runs once
    per distinct bit pattern, so -0.0 and 0.0 stay apart.  A NaN with its
    sign bit set is written -nan, which float reads back with the sign;
    other NaN payload bits are not kept."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    one = bits.size and bits.min() == bits.max()  # one value: skip the sort
    if one:
        bits, which = bits[:1], np.zeros(bits.size, np.uint8)
    else:
        bits, which = np.unique(bits, return_inverse=True)
    texts = tuple("-nan" if v != v and math.copysign(1.0, v) < 0 else repr(v)
                  for v in bits.view(np.float64).tolist())
    return _letters(texts) if one else _strings(texts), which


def _symbols(mapping: dict, values, what: str):
    """A (table, index) column writing each value as its letter in mapping,
    whose keys are 0 .. len(mapping) - 1; a value mapping lacks raises
    ValueError."""
    values = np.asarray(values)
    if values.size and (values.max() >= len(mapping) or (
            values.dtype.kind == "i" and values.min() < 0)):
        unknown = ~np.isin(values, list(mapping))
        raise ValueError(f"{what} {values[unknown][0]} has no letter")
    return _letters(tuple(mapping[k] for k in range(len(mapping)))), values


@functools.lru_cache(maxsize=64)
def _letters(texts: tuple) -> np.ndarray:
    """_strings of texts, read only and made once while it stays among
    the last 64 asked for: a run's constant probability columns take one
    entry each, so the cache must not grow with the windows."""
    table = _strings(texts)
    table.setflags(write=False)
    return table


# Bytes of text a writer formats at a time, in one buffer it keeps.
_TEXT_BYTES = 1 << 17


def _write_rows(fh, n: int, columns, text=None) -> None:
    """Write n rows of columns to the binary file fh as comma-separated
    text, one row per line, _CHUNK_ROWS rows at a time.

    A column is an integer array or range, written in decimal, a float
    array, written with repr (see _reprs), or a pair (table, index) writing
    row i as table[index[i]] (see _strings).  Each block's columns become
    integers and (table, index) pairs, which the compiled row formatter
    (capwalk.format_rows) writes into ``text``, a uint8 buffer the writer
    keeps, a part at a time (into a buffer of its own without one); without
    the compiled kernels, _matrix_rows lays them out.  Either way no Python
    object is made per row and no temporary spans more than one block.
    """
    def field(col, lo, hi):
        if isinstance(col, tuple):
            return col if n <= _CHUNK_ROWS else (col[0], col[1][lo:hi])
        part = col if n <= _CHUNK_ROWS else col[lo:hi]
        if isinstance(part, np.ndarray) and part.dtype.kind == "f":
            return _reprs(part)
        return part

    for lo in range(0, n, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, n)
        fields = [field(col, lo, hi) for col in columns]
        if capwalk.format_rows(hi - lo, fields, text, fh.write) is None:
            fh.write(_matrix_rows(hi - lo, fields))


def _matrix_rows(n: int, fields) -> bytes:
    """n rows of fields, as _write_rows takes them after the float columns
    became (table, index) pairs, laid out as a fixed-width byte matrix
    whose NUL padding is dropped on the way out."""
    fields = [f[0][f[1]] if isinstance(f, tuple) else _decimal(f)
              for f in fields]
    block = np.empty((n, sum(f.shape[1] + 1 for f in fields)), np.uint8)
    end = 0
    for f in fields:
        start, end = end, end + f.shape[1]
        block[:, start:end] = f
        block[:, end] = ord(",")
        end += 1
    block[:, -1] = ord("\n")
    return block.tobytes().translate(None, b"\0")


def _unseekable(path) -> EventFileError:
    """The error for binary input that is no regular file."""
    return EventFileError(f"{path}: binary input must be a regular file "
                          f"(its records are read by offset)")


def _read_binary(path, geometry) -> EventStream:
    with contextlib.closing(BinaryEvents(path, geometry)) as source:
        return source.read(0, source.count)


class BinaryEvents:
    """A binary event file whose header and size have been checked; its
    records are read, and checked, a block at a time.

    Raises EventFileError for a header or size that is wrong or a path that
    is no regular file, and OSError when the file cannot be read.
    """

    def __init__(self, path, geometry: SensorGeometry | None = None):
        with open(path, "rb") as fh:
            info = os.fstat(fh.fileno())
            if not stat.S_ISREG(info.st_mode):
                raise _unseekable(path)
            head = fh.read(_HEADER.size)
            size = info.st_size
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
        self.labeled = False  # the format has no field for labels
        self.count = count
        self._fh = open(path, "rb", buffering=0)  # read block by block
        # The records of a block, read into one array that every block
        # reuses: its columns are converted into the block's own.
        self._recs = np.empty(0, REC_DTYPE)

    def close(self) -> None:
        """Close the file; a later read fails."""
        self._fh.close()

    def read(self, start: int, stop: int, before: int | None = None
             ) -> EventStream:
        """Records start .. stop - 1 as a stream, checked as read_events
        checks a whole file; messages give each record's index in the
        file, and ``before`` is the timestamp of record ``start - 1``."""
        if stop - start > self._recs.shape[0]:
            self._recs = None  # not held while the larger one is made
            self._recs = np.empty(stop - start, REC_DTYPE)
        recs = self._recs[:stop - start]
        self._fh.seek(_HEADER.size + start * REC_DTYPE.itemsize)
        got = self._fh.readinto(recs)
        while got < recs.nbytes and (
                more := self._fh.readinto(memoryview(recs).cast("B")[got:])):
            got += more  # a read can return fewer bytes than it was asked
        got //= REC_DTYPE.itemsize
        if got != stop - start:
            raise EventFileError(f"{self.path}: truncated at record "
                                 f"{start + got}")
        # A timestamp past int64 becomes negative.
        t = recs["t"].astype(np.int64)
        if got and t.min() < 0:
            raise EventFileError(
                f"{self.path}: timestamp exceeds the signed 64-bit range")
        p = recs["p"].copy()
        if got and p.max() > 1:
            i = int(np.argmax(p > 1))
            raise EventFileError(
                f"{self.path}: record {start + i}: polarity must be 0 or 1, "
                f"got {int(p[i])}")
        return _finish_stream(self.path, self.geometry, t,
                              recs["x"].astype(np.int64),
                              recs["y"].astype(np.int64), p, start=start,
                              before=before)

    def blocks(self, size: int):
        """The records in order, as checked streams of up to size events."""
        before = None
        for start in range(0, self.count, size):
            block = self.read(start, min(start + size, self.count), before)
            before = int(block.t[-1])
            yield block
            del block  # not held while the next block is read


# Bytes per block of a CSV that CsvEvents reads; a block is cut after its
# last line end, so it holds whole lines.
_CSV_BLOCK_BYTES = 1 << 18
# The longest line of an event CSV, its line end included: a block grows
# to hold a line up to this, and a longer line is refused, so no line is
# read whole however long it is.
_CSV_LINE_BYTES = 1 << 20


def _long_line(path, lineno: int) -> EventFileError:
    return EventFileError(f"{path}:{lineno}: line longer than "
                          f"{_CSV_LINE_BYTES} bytes")


def _slices(columns, lo: int, hi: int):
    """Rows lo .. hi - 1 of columns, a None column left None."""
    return tuple(None if c is None else c[lo:hi] for c in columns)


class _Blocks:
    """Blocks of a seekable binary file, each read into the start of one
    buffer, ``data``, of _CSV_BLOCK_BYTES or, once a longer line needed
    more, of the largest block read."""

    def __init__(self, fh):
        self.fh, self.data = fh, bytearray()

    def read(self, offset: int, size: int) -> int:
        """Read up to size bytes from offset on into data; return how many
        were read."""
        if len(self.data) < size:
            self.data = None  # not held while the larger one is made
            self.data = bytearray(max(size, _CSV_BLOCK_BYTES))
        self.fh.seek(offset)
        return self.fh.readinto(memoryview(self.data)[:size])

    def text(self, stop: int) -> bytes:
        """A copy of data[:stop], for the line loop."""
        return bytes(memoryview(self.data)[:stop])

    def lines(self, offset: int = 0):
        """(offset, stop, cut) for each block from offset on, read into
        data[:stop]: data[:cut] holds its whole lines as the line loop
        splits them, cut after the last LF, or the last CR followed by a
        byte that is no LF, of _CSV_BLOCK_BYTES; a longer line grows the
        block, up to _CSV_LINE_BYTES.  A line that does not end within
        that, and not with the file, ends the blocks with a block of cut 0
        that starts with it."""
        size = _CSV_BLOCK_BYTES
        while stop := self.read(offset, size):
            cr = self.data.rfind(b"\r", 0, stop - 1)
            lone_cr = cr if cr >= 0 and self.data[cr + 1] != ord("\n") else -1
            cut = (stop if stop < size
                   else max(self.data.rfind(b"\n", 0, stop), lone_cr) + 1)
            if cut:
                yield offset, stop, cut
                offset, size = offset + cut, _CSV_BLOCK_BYTES
            elif size < _CSV_LINE_BYTES:
                size = min(2 * size, _CSV_LINE_BYTES)
            else:
                yield offset, stop, 0 if self.fh.read(1) else stop
                return


class CsvEvents:
    """An event CSV whose rows have been checked and whose geometry is
    known; :meth:`blocks` and :meth:`read` parse its blocks again.

    Each pass reads the file in blocks of whole lines into one buffer of
    its own, dropped when the pass ends.  The constructor reads every
    block once, keeping no column: the compiled scan checks each, else the
    line loop, which then parses that block in the second pass too.  A
    malformed line, or one longer than _CSV_LINE_BYTES, raises
    EventFileError at once; after the last block, a value past int64 does,
    else an event out of order, else the inferred geometry's refusal, as a
    whole-file read ranks them.  The second pass parses the rows straight
    into the columns they end up in, a part's own or the whole stream's;
    events outside a given ``geometry`` raise there.  A pipe is read from a
    copy in a temporary file (refused when it starts with the binary
    magic), which the second pass or :meth:`close` closes.  Raises OSError
    when the file cannot be read.
    """

    def __init__(self, path, geometry: SensorGeometry | None = None):
        self.path = path
        with open(path, "rb") as fh, contextlib.ExitStack() as undo:
            self._spool = None
            if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                self._spool = undo.enter_context(tempfile.TemporaryFile())
                shutil.copyfileobj(fh, self._spool)
            self._scan(self._spool or fh, geometry)
            undo.pop_all()  # the spool stays open for the second pass

    def close(self) -> None:
        """Close a pipe's copy, if it is still open; a later pass fails."""
        if self._spool is not None:
            self._spool.close()

    def _scan(self, fh, geometry) -> None:
        top = np.zeros(3, np.uint64)  # the largest x and y, the last t
        spans, rows, overflow, disorder = [], 0, None, None
        self._looped = set()  # the blocks the line loop reads
        blocks = _Blocks(fh)
        _, stop, cut = next(blocks.lines(), (0, 0, 0))
        if self._spool is not None and blocks.data.startswith(MAGIC, 0, stop):
            raise _unseekable(self.path)  # detect_format sniffs no pipe
        if stop and not cut:
            raise _long_line(self.path, 1)
        offset, self.labeled = _header(self.path, blocks.data, stop)
        for offset, _, cut in blocks.lines(offset):
            if not cut:
                raise _long_line(self.path, rows + 2)
            before = int(top[2])
            n = capwalk.scan_events(blocks.data, cut, self.labeled, top)
            if n is None:
                self._looped.add(len(spans))
                (t, x, y, _, _), big = _parse_lines(
                    self.path, blocks.text(cut), self.labeled, rows + 2)
                n, overflow = len(t), overflow or big
                if big is None:
                    disorder = disorder or _out_of_order(
                        self.path, t, x, y, rows, before if rows else None)
                    top[:] = (max(int(top[0]), int(x.max())),
                              max(int(top[1]), int(y.max())), int(t[-1]))
            spans.append((offset, cut, n))
            rows += n
        if overflow or disorder:
            raise overflow or disorder
        if geometry is None:
            try:
                geometry = SensorGeometry(int(top[0]) + 1, int(top[1]) + 1)
            except ValueError as exc:
                raise EventFileError(f"{self.path}: inferred {exc}") from None
        self.geometry, self.count, self._spans = geometry, rows, spans

    def _parts(self, size: int, into=None):
        """(columns, start) for the events in order, at most size at a
        time and no part spanning two blocks, parsed again: the columns of
        events start .. start + len - 1, fresh, or the slices of the whole
        columns ``into`` that they are written into.  Raises EventFileError
        when a block no longer holds the rows the scan counted, because the
        file changed in between."""
        changed = EventFileError(f"{self.path}: changed while it was read")
        # Unbuffered, so each block is read from the file as it is now.
        with (open(self.path, "rb", buffering=0) if self._spool is None
              else self._spool) as fh:
            blocks, start = _Blocks(fh), 0
            for block, (offset, stop, rows) in enumerate(self._spans):
                if blocks.read(offset, stop) != stop:
                    raise changed
                lines, at = None, 0
                if block in self._looped:
                    with contextlib.suppress(EventFileError):
                        lines, big = _parse_lines(self.path, blocks.text(stop),
                                                  self.labeled, start + 2)
                    if lines is None or big is not None or len(
                            lines[0]) != rows:
                        raise changed
                for lo in range(0, rows, size):
                    hi = min(lo + size, rows)
                    out = (None if into is None
                           else _slices(into, start + lo, start + hi))
                    if lines is None:
                        part = capwalk.parse_events(
                            blocks.data, self.labeled, hi - lo, at, stop, out)
                        if part is None:
                            raise changed
                        part, at = part
                    else:
                        part = _slices(lines, lo, hi)
                        for dest, column in zip(out or (), part):
                            if dest is not None:
                                dest[:] = column
                    yield part, start + lo
                    del part  # not held while the next part is parsed
                if lines is None and at != stop:
                    raise changed
                start += rows

    def blocks(self, size: int):
        """The events in order, as checked streams of up to size events."""
        before = None
        for columns, start in self._parts(size):
            part = _finish_stream(self.path, self.geometry, *columns,
                                  start=start, before=before)
            del columns  # the part holds them
            before = int(part.t[-1])
            yield part
            del part  # not held while the next part is parsed

    def read(self) -> EventStream:
        """Every event, as one checked stream; each block is parsed into
        its slice of the stream's columns."""
        n = self.count
        whole = [np.empty(n, np.int64) for _ in range(3)] + [
            np.empty(n, np.uint8), np.empty(n, np.uint8) if self.labeled
            else None]
        for _ in self._parts(max(n, 1), whole):
            pass
        return _finish_stream(self.path, self.geometry, *whole)


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
        self._text = np.empty(_TEXT_BYTES if fmt == "csv" else 0, np.uint8)
        self.count = 0

    @staticmethod
    def _header(geo: SensorGeometry, count: int) -> bytes:
        return _HEADER.pack(MAGIC, VERSION, geo.width, geo.height, count)

    def write(self, stream: EventStream) -> None:
        """Append a stream's events.  Raises ValueError for a label without
        a letter, a missing label column, or, in a binary file, a stream
        whose geometry does not fit the file's."""
        n = len(stream)
        if self._fmt == "csv":
            columns = [stream.t, stream.x, stream.y, stream.p]
            if self._labeled:
                if not stream.is_labeled:
                    raise ValueError("an unlabeled stream for a labeled file")
                columns.append(_symbols(_LABEL_CHAR, stream.labels, "label"))
            _write_rows(self._fh, n, columns, self._text)
        else:
            # Every event lies on the stream's geometry, so a geometry that
            # fits the file's is enough.
            geo, fit = stream.geometry, self._geometry
            if geo.width > fit.width or geo.height > fit.height:
                raise ValueError(
                    f"a {geo.width}x{geo.height} stream does not fit a "
                    f"{fit.width}x{fit.height} file, refusing to write")
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
    with replacing(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))


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
    """Serialize a document as stable, indented JSON (key order preserved).
    A NaN or infinite value, which JSON cannot hold, raises ValueError."""
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    if hasattr(path_or_stream, "write"):
        path_or_stream.write(text)
    else:
        with replacing(path_or_stream) as fh:
            fh.write(text.encode("ascii"))


def write_stats(stats: RunStats, path_or_stream,
                selectivity: SelectivityReport | None = None) -> None:
    """Write a run's stats document as JSON (to a path or open stream)."""
    write_json_doc(stats_doc(stats, selectivity), path_or_stream)


def write_log(log: DecisionLog, path) -> None:
    """Write a decision log as CSV: index,t,window,code,p.

    Codes are A (accept), S (sampler reject), C (cap reject); p uses repr
    so probabilities round-trip exactly (nan for deterministic decisions,
    -nan for a NaN with its sign bit set; other NaN payload bits are lost).
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
        self._text = np.empty(_TEXT_BYTES, np.uint8)
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
                codes, np.asarray(log.probability, np.float64)], self._text)
        self.count += n


def read_log(path) -> DecisionLog:
    """Read a decision log written by write_log, line by line (on every
    host: logs have no compiled parser), naming the line of any error.  A
    pipe is read once, as a regular file holding its bytes is read."""
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
    return DecisionLog(t, window, np.asarray(code, dtype=np.uint8),
                       np.asarray(prob, dtype=np.float64))
