"""The compiled kernels: the budget-cap walk and the score sigmoid.

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

int64_t cap_walk(const double *p, const double *u, int64_t n, double alpha,
                 uint8_t *codes)
{
    int64_t retained = 0, di = 0;
    for (int64_t k = 0; k < n; k++) {
        double budget = alpha * (double)k;
        if (k && (double)retained > budget)
            codes[k] = 2;
        else if ((u ? u[di++] : 0.0) < p[k]) {
            codes[k] = 0;
            retained++;
        } else
            codes[k] = 1;
    }
    return retained;
}

void expit(const double *x, double *out, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = 1.0 / (1.0 + exp(-x[i]));
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


def cap_walk(p: np.ndarray, draws: np.ndarray | None, alpha: float,
             codes: np.ndarray) -> int:
    """Run the capped decision walk over a whole stream; return retained.

    ``p`` holds each event's acceptance probability.  With ``draws`` the
    walk is stochastic: each event the cap lets through takes the next
    unused draw and is accepted iff the draw is below its ``p``.  With
    ``draws=None`` (the deterministic method, where ``p`` is 0 or 1) an
    event is accepted iff its ``p`` is above 0, and nothing is drawn.
    ``codes`` (uint8, one per event) receives the DecisionCode values:
    0 accept, 1 sampler reject, 2 cap.

    Raises ValueError when the arrays do not fit each other.
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
    kernel = _kernel()
    if kernel is None:
        return _walk_python(p, draws, alpha, codes)
    return kernel.cap_walk(p.ctypes.data,
                           None if draws is None else draws.ctypes.data,
                           n, alpha, codes.ctypes.data)


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


def implementation() -> str:
    """Which kernels :func:`cap_walk` and :func:`expit` run in this
    process: "compiled" or "python"."""
    return "python" if _kernel() is None else "compiled"


def _walk_python(p, draws, alpha, codes) -> int:
    retained = 0
    di = 0
    for i0 in range(0, p.shape[0], _BLOCK):
        pv = p[i0:i0 + _BLOCK].tolist()
        # Without draws, a draw of 0.0 accepts exactly the events with p > 0.
        uv = ([0.0] * len(pv) if draws is None
              else draws[di:di + len(pv)].tolist())
        j = 0
        k = i0
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
    return retained


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
                                 ctypes.c_void_p)
        lib.cap_walk.restype = ctypes.c_int64
        lib.expit.argtypes = (ctypes.c_void_p, ctypes.c_void_p,
                              ctypes.c_int64)
        lib.expit.restype = None
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
        lib.cap_walk, lib.expit  # AttributeError when a kernel is missing
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
