"""The compiled kernels: the budget-cap walk, the score sigmoid, the window
scorer, the event parser and scan, and the row formatter.

The cap is a sequential state machine.  Event ``k`` (0-based, stream-wide)
is dropped before evaluation when ``k > 0`` and ``retained > alpha * k``,
and a dropped event consumes no draw, so which draw an event sees depends
on every earlier decision.  Such a walk cannot be vectorized exactly in
numpy.  The sigmoid ``1 / (1 + exp(-x))`` could be, but numpy's vector
``exp`` does not round as libm's scalar ``exp`` does on every input, so
scores would depend on the CPU numpy runs on.  The window scorer,
:func:`score_window`, does all the per-event work of scoring one window in
one call: a radix sort of its pixels, their tally, and a merge walk
against the frozen map that writes each event's probability.

These three kernels have two implementations with bit-identical results:

* C loops, compiled together on first use with the system C compiler
  (``cc``) into this package's ``__pycache__`` and loaded with
  :mod:`ctypes`; no build step is needed, and later processes load the
  cached file;
* Python twins (``math.exp`` is libm's ``exp``; the window scorer's is
  ``np.unique`` and :meth:`evdown.density.SparseScores.lookup`), which run
  whenever the C loops cannot be built or loaded (no compiler, an
  unwritable cache, a failed compile or load, a library lacking a kernel).

The same library holds the other three: a byte-level parser,
:func:`parse_events`, for exactly the rows that ``evio`` writes to event
CSVs, and :func:`scan_events`, which checks those rows as
:func:`parse_events` does but stores none of them.  Both take one block of
whole rows.  They have no Python twin here: when they reject a row, or the
library is not available, they return None and ``evio``'s line loop, the
only source of its error messages, reads that block instead.
Decision logs have no compiled reader: ``evio.read_log`` is a line loop
on every host.  :func:`format_rows` writes the comma-separated rows of
event CSVs and decision logs; without the library it returns None and
``evio`` lays the same bytes out with numpy.

The cache file is the shared object followed by the SHA-256 of its bytes.
A file whose trailer does not match is rebuilt, never loaded: mapping a
truncated shared object can kill the process with SIGBUS.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np

# No -ffast-math, -Ofast, -fopenmp-simd or -march=native: ``alpha * k``
# must round exactly as Python's float multiply does, and ``exp`` must stay
# libm's scalar one rather than a vector variant.  -std=c99 makes the
# compiler round to double even on targets with excess precision (x87).
_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <string.h>

/* Events k0 .. k0 + n - 1 of a walk that has retained so far; *used
   receives the draws taken from u. */
int64_t cap_walk(const double *p, const double *u, int64_t n, double alpha,
                 int64_t k0, int64_t retained, uint8_t *codes, int64_t *used)
{
    int64_t di = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t k = k0 + i;
        double budget = alpha * (double)k;
        if (k && (double)retained > budget)
            codes[i] = 2;
        else if ((u ? u[di++] : 0.0) < p[i]) {
            codes[i] = 0;
            retained++;
        } else
            codes[i] = 1;
    }
    *used = di;
    return retained;
}

void expit(const double *x, double *out, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = 1.0 / (1.0 + exp(-x[i]));
}

/* The text parsers read the rows write_events emits, and nothing else.
   parse_events reads at most cap rows of buf[0:len], which starts at a
   line start, into its output columns.  A row ends in LF or CRLF; only
   the last row of buf may lack one.  It returns the number of rows
   read and sets *used to the bytes they span, so a later call can resume
   at buf + *used, or returns -1 - i for the first row i it rejects.  The
   field helpers below take and return the position in buf, NULL once a
   field is rejected. */

/* Decimal digits, at least one, of a value at most max. */
static const char *digits(const char *s, const char *end, uint64_t max,
                          uint64_t *v)
{
    const char *start = s;
    uint64_t r = 0;
    if (!s)
        return NULL;
    for (; s < end && *s >= '0' && *s <= '9'; s++) {
        unsigned d = (unsigned)(*s - '0');
        if (r > max / 10 || (r == max / 10 && d > max % 10))
            return NULL;
        r = r * 10 + d;
    }
    *v = r;
    return s > start ? s : NULL;
}

static const char *comma(const char *s, const char *end)
{
    return s && s < end && *s == ',' ? s + 1 : NULL;
}

/* One letter of set; *v is its position there. */
static const char *letter(const char *s, const char *end, const char *set,
                          uint8_t *v)
{
    for (uint8_t k = 0; s && s < end && set[k]; k++)
        if (*s == set[k]) {
            *v = k;
            return s + 1;
        }
    return NULL;
}

/* Past the line end at s: LF, CRLF, or the end of buf. */
static const char *eol(const char *s, const char *end)
{
    if (!s || s == end)
        return s;
    if (*s == '\r')
        s++;
    return s < end && *s == '\n' ? s + 1 : NULL;
}

/* An event row t,x,y,p[,label]: t, x and y at most INT64_MAX, p 0 or 1,
   the label N or E (written as 0 or 1, the EventLabel values). */
static const char *event_row(const char *s, const char *end, int labeled,
                             uint64_t *v, uint8_t *label)
{
    s = digits(s, end, INT64_MAX, &v[0]);
    s = digits(comma(s, end), end, INT64_MAX, &v[1]);
    s = digits(comma(s, end), end, INT64_MAX, &v[2]);
    s = digits(comma(s, end), end, 1, &v[3]);
    if (labeled)
        s = letter(comma(s, end), end, "NE", label);
    return eol(s, end);
}

int64_t parse_events(const char *buf, int64_t len, int labeled, int64_t cap,
                     int64_t *t, int64_t *x, int64_t *y, uint8_t *p,
                     uint8_t *label, int64_t *used)
{
    const char *s = buf, *end = buf + len;
    int64_t i;
    for (i = 0; i < cap && s < end; i++) {
        uint64_t v[4];
        uint8_t mark;
        s = event_row(s, end, labeled, v, &mark);
        if (!s)
            return -1 - i;
        if (labeled)
            label[i] = mark;
        t[i] = (int64_t)v[0];
        x[i] = (int64_t)v[1];
        y[i] = (int64_t)v[2];
        p[i] = (uint8_t)v[3];
    }
    *used = s - buf;
    return i;
}

/* The event rows of buf[0:len], checked as parse_events checks them and
   for timestamp order, but not stored.  top holds the largest x and y so
   far and the last timestamp, and is updated here, so a later call goes
   on with the rows that follow.  Returns the number of rows, or -1 - i
   for the first row i that is rejected or precedes the row before it. */
int64_t scan_events(const char *buf, int64_t len, int labeled, uint64_t *top)
{
    const char *s = buf, *end = buf + len;
    int64_t i;
    for (i = 0; s < end; i++) {
        uint64_t v[4];
        uint8_t mark;
        s = event_row(s, end, labeled, v, &mark);
        if (!s || v[0] < top[2])
            return -1 - i;
        if (v[1] > top[0])
            top[0] = v[1];
        if (v[2] > top[1])
            top[1] = v[2];
        top[2] = v[0];
    }
    return i;
}

/* The window scorer.  score_window sorts the n flat pixel indices of
   one window, each below 2**bits (bits <= 63), with their positions: an
   LSD radix sort in 11-bit digits, one pass per digit that bits needs (at
   least one).  It writes the k distinct pixels, ascending, to
   scratch[0:k] and their counts to scratch[n:n + k], and it merge-walks
   the pixels against the m sorted pixels of active, writing to p[i] the
   score of event i: probs[j] where its pixel is active[j], else rest.
   scratch holds 4n + PASSES * RADIX values; the last are the digit
   histograms.  Returns k, or -1, before writing anything, for an index
   that is negative or not below 2**bits. */
#define DIGIT 11
#define RADIX (1 << DIGIT)
#define PASSES ((63 + DIGIT - 1) / DIGIT)

int64_t score_window(const int64_t *flat, int64_t n, int64_t bits,
                     const int64_t *active, const double *probs, int64_t m,
                     double rest, double *p, int64_t *scratch)
{
    int passes = bits > DIGIT ? (int)((bits + DIGIT - 1) / DIGIT) : 1;
    int out = 0;
    int64_t (*hist)[RADIX] = (int64_t (*)[RADIX])(scratch + 4 * n);
    int64_t *keys[2] = {scratch, scratch + n};
    int64_t *pos[2] = {scratch + 2 * n, scratch + 3 * n};
    const int64_t *key = flat, *at = NULL;
    uint64_t seen = 0;
    int64_t k = 0;

    if (n <= 0)
        return 0;
    memset(hist, 0, passes * sizeof hist[0]);
    for (int64_t i = 0; i < n; i++) {
        uint64_t v = (uint64_t)flat[i];
        seen |= v;
        for (int d = 0; d < passes; d++)
            hist[d][(v >> (DIGIT * d)) & (RADIX - 1)]++;
    }
    if (seen >> bits)
        return -1;
    for (int d = 0; d < passes; d++) {
        int shift = DIGIT * d;
        int64_t *h = hist[d], sum = 0;
        for (int b = 0; b < RADIX; b++) {
            int64_t c = h[b];
            h[b] = sum;
            sum += c;
        }
        for (int64_t i = 0; i < n; i++) {
            int64_t j = h[((uint64_t)key[i] >> shift) & (RADIX - 1)]++;
            keys[out][j] = key[i];
            pos[out][j] = d ? at[i] : i;
        }
        key = keys[out];
        at = pos[out];
        out ^= 1;
    }
    /* Pixel k and count k are written once its run of keys has been read,
       at k no later than the run's start, so writing over key is safe. */
    for (int64_t i = 0, j = 0; i < n; k++) {
        int64_t v = key[i], start = i;
        while (j < m && active[j] < v)
            j++;
        double score = j < m && active[j] == v ? probs[j] : rest;
        for (; i < n && key[i] == v; i++)
            p[at[i]] = score;
        keys[0][k] = v;
        keys[1][k] = i - start;
    }
    return k;
}

/* The decimal of v at o ('-' first when negative); returns the end.
   The digits are counted first, then written from the last, two at a
   time, which halves the chain of divisions. */
static char *decimal(char *o, int64_t v)
{
    static const char pairs[] =
        "0001020304050607080910111213141516171819"
        "2021222324252627282930313233343536373839"
        "4041424344454647484950515253545556575859"
        "6061626364656667686970717273747576777879"
        "8081828384858687888990919293949596979899";
    uint64_t m = (uint64_t)v, ten = 10;
    int len = 1;
    if (v < 0) {
        *o++ = '-';
        m = 0 - m;  /* modulo 2**64, so exact for INT64_MIN */
    }
    for (; len < 19 && m >= ten; len++)  /* m < 10**19 */
        ten *= 10;
    char *s = o + len;
    for (; m >= 100; m /= 100)
        memcpy(s -= 2, pairs + 2 * (m % 100), 2);
    if (m >= 10)
        memcpy(s - 2, pairs + 2 * m, 2);
    else
        s[-1] = (char)('0' + m);
    return o + len;
}

/* n rows of ncols comma-separated fields, each row ending in LF, written
   to out; returns the bytes written.  Field c of row i is row ints[c][i]
   of the table tables[c], whose rows are width[c] bytes, NUL-padded on the
   right, when tables[c] is set; else the decimal of ints[c][i] when that
   is set; else the decimal of start[c] + i.  out must hold every field at
   its widest plus one separator each. */
int64_t format_rows(int64_t n, int64_t ncols, const int64_t *const *ints,
                    const int64_t *start, const char *const *tables,
                    const int64_t *width, char *out)
{
    char *o = out;
    for (int64_t i = 0; i < n; i++) {
        for (int64_t c = 0; c < ncols; c++) {
            if (tables[c]) {
                const char *r = tables[c] + ints[c][i] * width[c];
                int64_t k;
                for (k = 0; k < width[c] && r[k]; k++)
                    o[k] = r[k];
                o += k;
            } else
                o = decimal(o, ints[c] ? ints[c][i] : start[c] + i);
            *o++ = c + 1 < ncols ? ',' : '\n';
        }
    }
    return o - out;
}
"""
_COMPILE = ("cc", "-std=c99", "-O2", "-shared", "-fPIC", "-x", "c", "-",
            "-lm")
_COMPILE_TIMEOUT_S = 60
_CACHE_DIR = Path(__file__).resolve().parent / "__pycache__"
_DIGEST_BYTES = 32
# The Python loops convert this many values at a time to Python floats,
# so their memory does not grow with the input.
_BLOCK = 1 << 14
_P, _I64 = ctypes.c_void_p, ctypes.c_int64
# The frozen map of a window without one: no active pixel.
_NO_PIXELS, _NO_SCORES = np.empty(0, np.int64), np.empty(0, np.float64)
# The window scorer's digit histograms: six 11-bit digits cover 63 bits.
_HISTOGRAMS = 6 << 11
# The functions _SOURCE exports, with their (argtypes, restype): a library
# lacking any of them is rebuilt.
_KERNELS = {
    "cap_walk": ((_P, _P, _I64, ctypes.c_double, _I64, _I64, _P, _P), _I64),
    "expit": ((_P, _P, _I64), None),
    "parse_events": ((_P, _I64, ctypes.c_int, _I64, *[_P] * 6), _I64),
    "scan_events": ((_P, _I64, ctypes.c_int, _P), _I64),
    "format_rows": ((_I64, _I64, _P, _P, _P, _P, _P), _I64),
    "score_window": ((_P, _I64, _I64, _P, _P, _I64, ctypes.c_double, _P, _P),
                     _I64),
}


def cap_walk(p: np.ndarray, draws: np.ndarray | None, alpha: float,
             codes: np.ndarray, k0: int = 0,
             retained0: int = 0) -> tuple[int, int]:
    """Run the capped decision walk over events ``k0 .. k0 + len(p) - 1``
    of a stream; return ``(retained, draws_used)``.

    ``p`` holds each event's acceptance probability.  With ``draws`` the
    walk is stochastic: each event the cap lets through takes the next
    unused draw and is accepted iff the draw is below its ``p``.  With
    ``draws=None`` (the deterministic method, where ``p`` is 0 or 1) an
    event is accepted iff its ``p`` is above 0, and nothing is drawn.
    ``codes`` (uint8, one per event) receives the DecisionCode values:
    0 accept, 1 sampler reject, 2 cap.  With ``alpha=math.inf`` the cap
    never trips (the budget ``alpha * k`` is infinite for every ``k > 0``,
    and event 0 is never capped), so the walk is the sampler alone: the
    budget cap turned off.

    The walk resumes one that has passed ``k0`` events and kept
    ``retained0`` of them; ``retained`` counts from there.  Two walks, the
    second given the first's ``retained``, its ``k0 + len(p)`` and the
    draws it left unused, decide exactly as one walk over both parts.

    Raises ValueError when the arrays do not fit each other or the resume
    point is impossible.
    """
    p = np.ascontiguousarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("p must be one-dimensional")
    n = p.shape[0]
    if draws is not None:
        draws = np.ascontiguousarray(draws, dtype=np.float64)
        if draws.ndim != 1 or draws.shape[0] < n:
            raise ValueError(f"need at least {n} draws in one dimension")
    if (codes.dtype != np.uint8 or codes.shape != (n,)
            or not codes.flags.c_contiguous or not codes.flags.writeable):
        raise ValueError(f"codes must be a writable contiguous uint8 array "
                         f"of length {n}")
    k0, retained0 = int(k0), int(retained0)
    if not 0 <= retained0 <= k0:
        raise ValueError(f"cannot resume after {k0} events with {retained0} "
                         f"retained")
    kernel = _kernel()
    if kernel is None:
        return _walk_python(p, draws, alpha, codes, k0, retained0)
    used = ctypes.c_int64()
    retained = kernel.cap_walk(p.ctypes.data,
                               None if draws is None else draws.ctypes.data,
                               n, alpha, k0, retained0, codes.ctypes.data,
                               ctypes.byref(used))
    return retained, used.value


def expit(x):
    """The logistic sigmoid ``1 / (1 + exp(-x))`` of float64 values.

    Rounds as libm's ``exp`` does, on every CPU: it equals
    ``scipy.special.expit`` bit for bit.  Returns an array of the input's
    shape, or an ``np.float64`` for a 0-d input.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = np.ravel(x)  # contiguous, copied only when x is not
    out = np.empty_like(flat)
    kernel = _kernel()
    if kernel is None:
        _expit_python(flat, out)
    else:
        kernel.expit(flat.ctypes.data, out.ctypes.data, flat.shape[0])
    return out.reshape(x.shape)[()]


def window_scratch(longest: int) -> np.ndarray:
    """Scratch for :func:`score_window` on windows of up to ``longest``
    events: int64, 32 bytes per event and 96 KiB of digit histograms."""
    return np.empty(4 * longest + _HISTOGRAMS, np.int64)


def score_window(flat: np.ndarray, bits: int, frozen, alpha: float,
                 p: np.ndarray, scratch: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Score the events of one window and tally its pixels.

    ``flat`` holds the events' flat pixel indices, each in
    ``[0, 2**bits)``, and ``frozen`` the map they are scored with, a
    :class:`evdown.density.SparseScores`, or None to score each of them
    ``alpha``.  Writes each event's score to ``p`` and returns the
    window's distinct pixels, ascending, and their counts (int64).
    ``scratch``, from :func:`window_scratch` for at least ``len(flat)``
    events, is where the compiled kernel sorts; the Python twin,
    ``np.unique`` and :meth:`~evdown.density.SparseScores.lookup`, leaves
    it alone.

    Raises ValueError when the arrays do not fit each other, and for an
    index outside ``[0, 2**bits)``.
    """
    n = flat.size
    if (flat.dtype != np.int64 or flat.ndim != 1
            or not flat.flags.c_contiguous
            or p.dtype != np.float64 or p.shape != (n,)
            or not p.flags.c_contiguous or not p.flags.writeable
            or scratch.dtype != np.int64 or scratch.ndim != 1
            or scratch.shape[0] < 4 * n + _HISTOGRAMS
            or not scratch.flags.c_contiguous
            or not scratch.flags.writeable or not 0 <= bits <= 63):
        raise ValueError("need contiguous int64 indices, a writable float64 "
                         "array of their length, writable int64 scratch "
                         "for it, and 0 <= bits <= 63")
    kernel = _kernel()
    if kernel is None:
        return _score_window_python(flat, bits, frozen, alpha, p)
    if frozen is None:
        active, probs, rest = _NO_PIXELS, _NO_SCORES, alpha
    else:
        active = np.ascontiguousarray(frozen.active, np.int64)
        probs = np.ascontiguousarray(frozen.probabilities, np.float64)
        rest = frozen.rest
        if active.ndim != 1 or probs.shape != active.shape:
            raise ValueError("need one score per active pixel")
    k = kernel.score_window(flat.ctypes.data, n, bits, active.ctypes.data,
                            probs.ctypes.data, active.shape[0], rest,
                            p.ctypes.data, scratch.ctypes.data)
    if k < 0:
        raise ValueError(f"flat pixel indices must be in [0, 2**{bits})")
    return scratch[:k].copy(), scratch[n:n + k].copy()


def parse_events(data: bytes, labeled: bool, rows: int):
    """The columns ``(t, x, y, p, labels)`` of the ``rows`` event rows that
    ``data`` holds, or None.

    ``t``, ``x`` and ``y`` are int64, ``p`` and ``labels`` uint8 (``labels``
    is None unless ``labeled``).  Returns None when the compiled parser is
    not available, rejects a row, or finds another number of rows: then
    the rows need the line loop.
    """
    kernel = _kernel()
    if kernel is None:
        return None
    address = _address(data)
    t, x, y = (np.empty(rows, np.int64) for _ in range(3))
    p = np.empty(rows, np.uint8)
    labels = np.empty(rows, np.uint8) if labeled else None
    used = ctypes.c_int64()
    got = kernel.parse_events(
        address, len(data), labeled, rows,
        t.ctypes.data, x.ctypes.data, y.ctypes.data, p.ctypes.data,
        None if labels is None else labels.ctypes.data, ctypes.byref(used))
    if got != rows or used.value != len(data):
        return None
    return t, x, y, p, labels


def scan_events(data: bytes, stop: int, labeled: bool,
                top: np.ndarray) -> int | None:
    """The number of event rows in ``data[:stop]``, which starts at a line
    start, checked as :func:`parse_events` checks them, or None.

    Nothing is stored: ``top`` (uint64, three values) holds the largest x,
    the largest y and the last timestamp of the rows scanned before, and
    receives those of these rows too, so a scan of a file's blocks in
    order sees its maxima.  Returns None when the compiled parser is not
    available, rejects a row, or finds a timestamp below the one before it.
    """
    kernel = _kernel()
    if kernel is None:
        return None
    if (not 0 <= stop <= len(data) or top.dtype != np.uint64
            or top.shape != (3,) or not top.flags.c_contiguous
            or not top.flags.writeable):
        raise ValueError("need a stop within data and a writable uint64 "
                         "array of three values")
    got = kernel.scan_events(_address(data), stop, labeled, top.ctypes.data)
    return None if got < 0 else got


def format_rows(n: int, columns):
    """The text of ``n`` rows of ``columns``, comma-separated and each
    ending in a newline, as a memoryview of ASCII bytes, or None when the
    compiled kernels are not available.

    A column is an integer array of ``n`` values or a range of ``n``
    consecutive integers, each written in decimal, or a pair ``(table,
    index)``: a uint8 matrix whose rows are ASCII text NUL-padded on the
    right, and ``n`` row numbers, row ``i`` written as ``table[index[i]]``
    without its padding.  The buffer holds every field at its widest in
    these rows, so its size follows the values, not their dtype.

    Raises ValueError for a column that does not fit that description.
    """
    kernel = _kernel()
    if kernel is None:
        return None
    n = int(n)
    if n == 0:
        return memoryview(b"")
    ncols = len(columns)
    ints, tables = np.zeros(ncols, np.uintp), np.zeros(ncols, np.uintp)
    start, width = np.zeros(ncols, np.int64), np.zeros(ncols, np.int64)
    keep = []  # the arrays whose addresses the kernel reads
    for c, col in enumerate(columns):
        if isinstance(col, tuple):
            table = np.ascontiguousarray(col[0], np.uint8)
            index = np.ascontiguousarray(col[1], np.int64)
            if (table.ndim != 2 or index.shape != (n,) or index.min() < 0
                    or index.max() >= table.shape[0]):
                raise ValueError(f"need a 2-D table and {n} row numbers "
                                 f"within it")
            keep += [table, index]
            ints[c], tables[c] = index.ctypes.data, table.ctypes.data
            width[c] = table.shape[1]
            continue
        if isinstance(col, range):
            lo, hi = col.start, col.stop - 1
            if len(col) != n or col.step != 1 or lo < -2**63 or hi >= 2**63:
                raise ValueError(f"need a range of {n} consecutive int64 "
                                 f"values")
            start[c] = lo
        else:
            values = np.asarray(col)
            if values.dtype.kind not in "iub" or values.shape != (n,):
                raise ValueError(f"need {n} integers in one dimension")
            values = np.ascontiguousarray(values, np.int64)
            keep.append(values)
            ints[c] = values.ctypes.data
            lo, hi = int(values.min()), int(values.max())
        width[c] = max(len(str(lo)), len(str(hi)))  # the sign included
    out = np.empty(n * int(width.sum() + ncols), np.uint8)
    used = kernel.format_rows(n, ncols, ints.ctypes.data, start.ctypes.data,
                              tables.ctypes.data, width.ctypes.data,
                              out.ctypes.data)
    return out.data[:used]


def implementation() -> str:
    """Which kernels run in this process: "compiled", or "python" (the
    Python twins, evio's line loop in place of the event parser and scan,
    and its numpy row layout in place of the row formatter)."""
    return "python" if _kernel() is None else "compiled"


def _walk_python(p, draws, alpha, codes, k0=0, retained0=0):
    retained = retained0
    di = 0
    for i0 in range(0, p.shape[0], _BLOCK):
        pv = p[i0:i0 + _BLOCK].tolist()
        # Without draws, a draw of 0.0 accepts exactly the events with p > 0.
        uv = ([0.0] * len(pv) if draws is None
              else draws[di:di + len(pv)].tolist())
        j = 0
        k = k0 + i0
        block = []
        append = block.append
        for pk in pv:
            if k and retained > alpha * k:
                append(2)
            else:
                u = uv[j]
                j += 1
                if u < pk:
                    append(0)
                    retained += 1
                else:
                    append(1)
            k += 1
        codes[i0:i0 + len(pv)] = block
        di += j
    return retained, 0 if draws is None else di


def _score_window_python(flat, bits, frozen, alpha, p):
    if flat.size and (flat.min() < 0 or int(flat.max()) >> bits):
        raise ValueError(f"flat pixel indices must be in [0, 2**{bits})")
    pixels, inverse, counts = np.unique(flat, return_inverse=True,
                                        return_counts=True)
    p[:] = alpha if frozen is None else frozen.lookup(pixels)[inverse]
    return pixels, counts


def _address(data: bytes) -> int:
    """The address of data's bytes, valid while data lives."""
    if not isinstance(data, bytes):
        raise ValueError("need bytes")
    return ctypes.cast(ctypes.c_char_p(data), ctypes.c_void_p).value


def _expit_python(x, out) -> None:
    exp = math.exp
    for i0 in range(0, x.shape[0], _BLOCK):
        block = []
        append = block.append
        for v in x[i0:i0 + _BLOCK].tolist():
            try:
                append(1.0 / (1.0 + exp(-v)))
            except OverflowError:  # exp(-v) is inf in C, so 1/(1+inf)
                append(0.0)
        out[i0:i0 + len(block)] = block


@functools.cache
def _kernel():
    """The compiled library, or None when it cannot be built or loaded.

    Loaded once per process; a cached file that is missing, damaged or
    unloadable is rebuilt once.
    """
    key = hashlib.sha256("\0".join(
        (_SOURCE, *_COMPILE, sys.implementation.cache_tag or "",
         platform.machine())).encode()).hexdigest()[:20]
    path = _CACHE_DIR / f"capwalk-{key}.so"
    lib = _load(path)
    if lib is None and _build(path):
        lib = _load(path)
    return lib


def _load(path: Path):
    try:
        data = path.read_bytes()
    except OSError:
        return None
    body, digest = data[:-_DIGEST_BYTES], data[-_DIGEST_BYTES:]
    if not body or hashlib.sha256(body).digest() != digest:
        return None
    try:
        lib = ctypes.CDLL(str(path))
        for name, (argtypes, restype) in _KERNELS.items():
            kernel = getattr(lib, name)  # AttributeError when it is missing
            kernel.argtypes, kernel.restype = argtypes, restype
        return lib
    except (OSError, AttributeError):
        return None


def _build(path: Path) -> bool:
    """Compile the kernel to ``path`` (atomically); False on any failure."""
    import subprocess
    import tempfile

    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem,
                                   suffix=".tmp")
        os.close(fd)
    except OSError:
        return False
    try:
        subprocess.run([*_COMPILE, "-o", tmp], input=_SOURCE, text=True,
                       capture_output=True, check=True,
                       timeout=_COMPILE_TIMEOUT_S)
        with open(tmp, "rb+") as fh:
            digest = hashlib.sha256(fh.read()).digest()
            fh.write(digest)
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        try:
            os.unlink(tmp)
        except OSError:
            pass
