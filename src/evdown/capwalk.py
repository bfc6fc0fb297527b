"""The compiled kernels: the budget-cap walk, the score sigmoid and the text
parsers.

The cap is a sequential state machine.  Event ``k`` (0-based, stream-wide)
is dropped before evaluation when ``k > 0`` and ``retained > alpha * k``,
and a dropped event consumes no draw, so which draw an event sees depends
on every earlier decision.  Such a walk cannot be vectorized exactly in
numpy.  The sigmoid ``1 / (1 + exp(-x))`` could be, but numpy's vector
``exp`` does not round as libm's scalar ``exp`` does on every input, so
scores would depend on the CPU numpy runs on.

Both kernels have two implementations with bit-identical results:

* C loops, compiled together on first use with the system C compiler
  (``cc``) into this package's ``__pycache__`` and loaded with
  :mod:`ctypes`; no build step is needed, and later processes load the
  cached file;
* Python loops (``math.exp`` is libm's ``exp``), which run whenever the C
  loops cannot be built or loaded (no compiler, an unwritable cache, a
  failed compile or load, a library lacking a kernel).

The same library holds two byte-level parsers, :func:`parse_events` and
:func:`parse_log`, for exactly the rows that ``evio`` writes to event CSVs
and decision logs.  They have no Python twin here: when they reject a row,
or the library is not available, they return None and ``evio``'s line
loops, the only source of its error messages, read the file instead.

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

/* The text parsers read the rows write_events and write_log emit, and
   nothing else.  Each reads at most cap rows of buf[0:len], which starts
   at a line start, into its output columns.  A row ends in LF or CRLF;
   only the last row of buf may lack one.  It returns the number of rows
   read and sets *used to the bytes they span, so a later call can resume
   at buf + *used, or returns -1 - i for the first row i it rejects.  The
   field helpers below take and return the position in buf, NULL once a
   field is rejected. */

#define REPR_WIDTH 24  /* the longest repr of a float64 */

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

/* An int64 in decimal, with an optional leading "-". */
static const char *integer(const char *s, const char *end, int64_t *v)
{
    uint64_t m;
    int neg;
    if (!s)
        return NULL;
    neg = s < end && *s == '-';
    s = digits(s + neg, end, (uint64_t)INT64_MAX + (uint64_t)neg, &m);
    /* Negated in two halves: 2**63 has no positive int64. */
    if (s)
        *v = neg ? -(int64_t)(m / 2) - (int64_t)(m - m / 2) : (int64_t)m;
    return s;
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

static const char *run(const char *s, const char *end)
{
    const char *start = s;
    while (s < end && *s >= '0' && *s <= '9')
        s++;
    return s > start ? s : NULL;
}

/* A float as repr writes it, -?(nan|inf|D+(.D+)?(e[+-]D+)?), copied into
   a REPR_WIDTH-byte slot padded with NULs. */
static const char *real(const char *s, const char *end, char *slot)
{
    const char *f = s;
    if (!s)
        return NULL;
    if (s < end && *s == '-')
        s++;
    if (end - s >= 3 && (!memcmp(s, "nan", 3) || !memcmp(s, "inf", 3)))
        s += 3;
    else {
        s = run(s, end);
        if (s && s < end && *s == '.')
            s = run(s + 1, end);
        if (s && s < end && *s == 'e')
            s = s + 1 < end && (s[1] == '+' || s[1] == '-')
                ? run(s + 2, end) : NULL;
    }
    if (!s || s - f > REPR_WIDTH)
        return NULL;
    memset(slot, 0, REPR_WIDTH);
    memcpy(slot, f, (size_t)(s - f));
    return s;
}

/* Event rows t,x,y,p[,label]: t, x and y at most INT64_MAX, p 0 or 1, the
   label N or E (written as 0 or 1, the EventLabel values). */
int64_t parse_events(const char *buf, int64_t len, int labeled, int64_t cap,
                     int64_t *t, int64_t *x, int64_t *y, uint8_t *p,
                     uint8_t *label, int64_t *used)
{
    const char *s = buf, *end = buf + len;
    int64_t i;
    for (i = 0; i < cap && s < end; i++) {
        uint64_t v[4];
        s = digits(s, end, INT64_MAX, &v[0]);
        s = digits(comma(s, end), end, INT64_MAX, &v[1]);
        s = digits(comma(s, end), end, INT64_MAX, &v[2]);
        s = digits(comma(s, end), end, 1, &v[3]);
        if (labeled)
            s = letter(comma(s, end), end, "NE", &label[i]);
        s = eol(s, end);
        if (!s)
            return -1 - i;
        t[i] = (int64_t)v[0];
        x[i] = (int64_t)v[1];
        y[i] = (int64_t)v[2];
        p[i] = (uint8_t)v[3];
    }
    *used = s - buf;
    return i;
}

/* Decision-log rows index,t,window,code,p: the index is first + the row's
   position, the code A, S or C (written as 0, 1 or 2), and p's text goes
   to the row's slot in prob, for the caller to convert. */
int64_t parse_log(const char *buf, int64_t len, int64_t first, int64_t cap,
                  int64_t *t, int64_t *window, uint8_t *code, char *prob,
                  int64_t *used)
{
    const char *s = buf, *end = buf + len;
    int64_t i;
    for (i = 0; i < cap && s < end; i++) {
        uint64_t index = 0;
        s = digits(s, end, INT64_MAX, &index);
        s = integer(comma(s, end), end, &t[i]);
        s = integer(comma(s, end), end, &window[i]);
        s = letter(comma(s, end), end, "ASC", &code[i]);
        s = eol(real(comma(s, end), end, prob + i * REPR_WIDTH), end);
        if (!s || index != (uint64_t)(first + i))
            return -1 - i;
    }
    *used = s - buf;
    return i;
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
_REPR_WIDTH = 24  # REPR_WIDTH in the C source


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
    0 accept, 1 sampler reject, 2 cap.

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


def parse_events(data: bytes, start: int, labeled: bool):
    """The columns ``(t, x, y, p, labels)`` of the event rows in
    ``data[start:]``, or None.

    ``t``, ``x`` and ``y`` are int64, ``p`` and ``labels`` uint8 (``labels``
    is None unless ``labeled``).  Returns None when the compiled parser is
    not available or rejects a row: then the file needs the line loop.
    """
    kernel = _kernel()
    if kernel is None:
        return None
    address, size, n = _text(data, start)
    t, x, y = (np.empty(n, np.int64) for _ in range(3))
    p = np.empty(n, np.uint8)
    labels = np.empty(n, np.uint8) if labeled else None
    used = ctypes.c_int64()
    got = kernel.parse_events(
        address, size, labeled, n,
        t.ctypes.data, x.ctypes.data, y.ctypes.data, p.ctypes.data,
        None if labels is None else labels.ctypes.data, ctypes.byref(used))
    if got != n:
        return None
    return t, x, y, p, labels


def parse_log(data: bytes, start: int):
    """The columns ``(t, window, code, probability)`` of the decision-log
    rows in ``data[start:]``, or None, as :func:`parse_events`.

    The C parser only checks that a probability is written as ``repr``
    writes floats; ``float`` converts it, once per distinct text in a block
    of rows, as the writer runs ``repr`` once per distinct value.
    """
    kernel = _kernel()
    if kernel is None:
        return None
    address, size, n = _text(data, start)
    t, window = np.empty(n, np.int64), np.empty(n, np.int64)
    code, prob = np.empty(n, np.uint8), np.empty(n, np.float64)
    texts = np.empty(min(n, _BLOCK), f"S{_REPR_WIDTH}")
    used = ctypes.c_int64()
    pos = 0
    for row in range(0, n, _BLOCK):
        k = min(_BLOCK, n - row)
        got = kernel.parse_log(
            address + pos, size - pos, row, k,
            t[row:].ctypes.data, window[row:].ctypes.data,
            code[row:].ctypes.data, texts.ctypes.data, ctypes.byref(used))
        if got != k:
            return None
        pos += used.value
        block = texts[:k].tolist()  # bytes, the NUL padding dropped
        values = {text: float(text) for text in set(block)}
        prob[row:row + k] = [values[text] for text in block]
    return t, window, code, prob


def implementation() -> str:
    """Which kernels run in this process: "compiled", or "python" (the
    Python loops, and evio's line loops in place of the parsers)."""
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


def _text(data: bytes, start: int) -> tuple[int, int, int]:
    """The address and size of data[start:], valid while data lives, and
    its lines (the last may lack its newline).  A parser that reads that
    many rows has read every byte: each row takes one whole line."""
    if not isinstance(data, bytes) or not 0 <= start <= len(data):
        raise ValueError("need bytes and a start within them")
    address = ctypes.cast(ctypes.c_char_p(data), ctypes.c_void_p).value
    lines = (data.count(b"\n", start)
             + (len(data) > start and not data.endswith(b"\n")))
    return address + start, len(data) - start, lines


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
    if lib is not None:
        lib.cap_walk.argtypes = (ctypes.c_void_p, ctypes.c_void_p,
                                 ctypes.c_int64, ctypes.c_double,
                                 ctypes.c_int64, ctypes.c_int64,
                                 ctypes.c_void_p, ctypes.c_void_p)
        lib.cap_walk.restype = ctypes.c_int64
        lib.expit.argtypes = (ctypes.c_void_p, ctypes.c_void_p,
                              ctypes.c_int64)
        lib.expit.restype = None
        lib.parse_events.argtypes = (ctypes.c_void_p, ctypes.c_int64,
                                     ctypes.c_int, ctypes.c_int64,
                                     *[ctypes.c_void_p] * 6)
        lib.parse_events.restype = ctypes.c_int64
        lib.parse_log.argtypes = (ctypes.c_void_p, ctypes.c_int64,
                                  ctypes.c_int64, ctypes.c_int64,
                                  *[ctypes.c_void_p] * 5)
        lib.parse_log.restype = ctypes.c_int64
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
        # AttributeError when a kernel is missing
        lib.cap_walk, lib.expit, lib.parse_events, lib.parse_log
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
