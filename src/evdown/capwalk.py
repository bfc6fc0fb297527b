"""The compiled kernels: the push, the score sigmoid, the event parser and
scan, and the row formatter.

A push of :class:`evdown.pipeline.Downsampler` decides a piece of a
stream through :class:`_Decider`, which holds the run's state and the
buffers every push reuses, in one call of the compiled push per span of
at most _SPAN events; a piece within one span is one call.  The call
finds each event's window, dividing once per window rather than once per
event; each event's probability (the window scorer's for ``poisson``);
then the cap walk, and the kept positions, codes and windows.  The cap
is a sequential state machine.  Event ``k`` (0-based, stream-wide) is
dropped before evaluation when ``k > 0`` and ``retained > alpha * k``,
and a dropped event consumes no draw, so which draw an event sees
depends on every earlier decision.  Such a walk cannot be vectorized
exactly in numpy.  Before each span the caller makes room for all that
it can need, a draw and a kept position per event: the walk reads the
draws the last span left unused, then fresh ones the caller wrote after
them into the same buffer.  The sigmoid ``1 / (1 + exp(-x))`` could be
vectorized, but numpy's vector ``exp`` does not round as libm's scalar
``exp`` does on every input, so scores would depend on the CPU numpy runs
on.  The window scorer, for each window, radix-sorts its pixels, tallies
them, merge-walks them against the window's map to write each event's
probability, and freezes the next window's map from the tally.  The
freeze runs the chain of :func:`evdown.density.sparse_scores` with the
same bits: the mean is summed in numpy's pairwise order
(:func:`pairwise_sum` in the C source, held to ``np.add.reduce`` by a
test), and without a prior the sigmoid runs once per occupancy class
``min(count, 37)`` rather than once per pixel.

The push and the sigmoid have two implementations with bit-identical
results:

* C loops, compiled together on first use with the system C compiler
  (``cc``) into this package's ``__pycache__`` and loaded with
  :mod:`ctypes`; no build step is needed, and later processes load the
  cached file;
* Python twins, one span at a time over the same state and buffers and
  with the same statuses (``(t - t0) // t_us + 1`` and
  :func:`evdown.events.window_spans` for the windows; a loop over Python
  floats for the walk; ``np.unique``, ``sparse_scores`` and
  :meth:`evdown.density.SparseScores.lookup` for the scorer; ``math.exp``,
  libm's ``exp``, for the sigmoid), which run whenever the C loops cannot
  be built or loaded (no compiler, an unwritable cache, a failed compile
  or load, a library lacking a kernel).

The same library holds the other three: a byte-level parser,
:func:`parse_events`, for exactly the rows that ``evio`` writes to event
CSVs, and :func:`scan_events`, which checks those rows as
:func:`parse_events` does but stores none of them.  The scan takes one
block of whole rows; the parser takes a number of rows from any line start
in one, into fresh columns or the slices of given ones, and says where it
stopped, so a block is parsed a chunk at a time.  They have no Python twin
here: when they reject a row, or the library is not available, they return
None and ``evio``'s line loop, the only source of its error messages,
reads that block instead.
Decision logs have no compiled reader: ``evio.read_log`` is a line loop
on every host.  :func:`format_rows` writes the comma-separated rows of
event CSVs and decision logs into a buffer the caller passes; without the
library it returns False and ``evio`` lays the same bytes out with numpy.

The cache file is the shared object followed by the SHA-256 of its bytes.
A file whose trailer does not match is rebuilt, never loaded: mapping a
truncated shared object can kill the process with SIGBUS.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import math
import os
import platform
import re
import sys
import time
from pathlib import Path

import numpy as np

from .events import _check_window_limit, window_spans

# No -ffast-math, -Ofast, -fopenmp-simd or -march=native: ``alpha * k``
# must round exactly as Python's float multiply does, and ``exp`` must stay
# libm's scalar one rather than a vector variant.  -std=c99 makes the
# compiler round to double even on targets with excess precision (x87), and
# -ffp-contract=off keeps it from fusing a multiply and an add into one
# rounding, as numpy never does.
_SOURCE = r"""
#define _POSIX_C_SOURCE 199309L
#include <math.h>
#include <stdint.h>
#include <string.h>
#include <time.h>

/* The windows of the n timestamps t, each at least t0: the window
   (t[i] - t0) / t_us + 1 of each event to windows, and the nonempty
   windows, window ids[w] holding events bounds[w] .. bounds[w + 1] - 1;
   ids and bounds have room for n and n + 1.  One division per window, not
   per event: an event stays in the window before it while its offset from
   that window's start is below t_us, a test in unsigned offsets that
   cannot wrap.  The caller keeps every id at most INT64_MAX.  Returns the
   number of windows, or -1 for a timestamp below the one before it. */
static int64_t window_pass(const int64_t *t, int64_t n, int64_t t0,
                           int64_t t_us, int64_t *windows, int64_t *ids,
                           int64_t *bounds)
{
    uint64_t span = (uint64_t)t_us, start = 0;
    int64_t nw = 0, id = 0;
    for (int64_t i = 0; i < n; i++) {
        uint64_t d = (uint64_t)t[i] - (uint64_t)t0;
        if (i && t[i] < t[i - 1])
            return -1;
        if (!nw || d - start >= span) {
            start = d - d % span;
            id = (int64_t)(d / span) + 1;
            ids[nw] = id;
            bounds[nw++] = i;
        }
        windows[i] = id;
    }
    bounds[nw] = n;
    return nw;
}

/* The cap walk over the n events of a span whose event i is event k0 + i
   of the stream and whose window w holds events bounds[w] ..
   bounds[w + 1] - 1.  st holds the events retained in the stream, the
   events capped and the events kept, read and updated.  Event k is capped
   (code 2) when k > 0 and retained > alpha * k; any other takes the next
   draw of u, or 0.0 without u, and is accepted (code 0) when the draw is
   below p[i], else rejected (code 1); an accepted event's position
   base + i goes to kept and counts in per_window[w].  u holds a draw and
   kept room for a position per event; returns the draws used. */
static int64_t cap_walk(const double *p, int64_t n, const int64_t *bounds,
                        const double *u, double alpha, int64_t k0,
                        uint8_t *codes, int64_t *kept, int64_t base,
                        int64_t *per_window, int64_t *st)
{
    int64_t w = 0, retained = st[0], capped = st[1], nk = st[2], di = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t k = k0 + i;
        if (i == bounds[w + 1])
            w++;
        if (k && (double)retained > alpha * (double)k) {
            codes[i] = 2;
            capped++;
        } else if ((u ? u[di++] : 0.0) < p[i]) {
            codes[i] = 0;
            retained++;
            kept[nk++] = base + i;
            per_window[w]++;
        } else
            codes[i] = 1;
    }
    st[0] = retained;
    st[1] = capped;
    st[2] = nk;
    return di;
}

void expit(const double *x, double *out, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = 1.0 / (1.0 + exp(-x[i]));
}

/* The text parsers read the rows write_events emits, and nothing else.
   parse_events reads at most cap rows of buf[0:len], which starts at a
   line start, into its output columns.  A row ends in LF, CRLF or a lone
   CR, as the line loop splits lines; only the last row of buf may lack
   one, and buf does not end between the CR and LF of a CRLF.  It returns
   the number of rows read and sets *used to the bytes they span, so a
   later call can resume at buf + *used, or returns -1 - i for the first
   row i it rejects.  The field helpers below take and return the
   position in buf, NULL once a field is rejected. */

/* The powers of ten up to 10**19, the largest below 2**64. */
static const uint64_t tens[20] = {
    1u, 10u, 100u, 1000u, 10000u, 100000u, 1000000u, 10000000u,
    100000000u, 1000000000u, 10000000000u, 100000000000u,
    1000000000000u, 10000000000000u, 100000000000000u,
    1000000000000000u, 10000000000000000u, 100000000000000000u,
    1000000000000000000u, 10000000000000000000u};

/* Decimal digits, at least one, of a value at most max.  No value of 18
   digits passes a max of 10**18 - 1 or more, so then only the 19th digit
   and those after it are checked. */
static const char *digits(const char *s, const char *end, uint64_t max,
                          uint64_t *v)
{
    const char *start = s, *unchecked = s;
    uint64_t r = 0;
    if (!s)
        return NULL;
    if (max >= tens[18] - 1)
        unchecked = end - s < 18 ? end : s + 18;
    for (; s < unchecked && (unsigned)(*s - '0') < 10; s++)
        r = r * 10 + (unsigned)(*s - '0');
    for (; s < end && (unsigned)(*s - '0') < 10; s++) {
        unsigned d = (unsigned)(*s - '0');
        if (r > max / 10 || (r == max / 10 && d > max % 10))
            return NULL;
        r = r * 10 + d;
    }
    *v = r;
    return s > start ? s : NULL;
}

/* The leading digits of the 8 bytes at s, at most 8: returns how many
   and sets *v to their value.  The bytes are read as one little-endian
   word w, the first byte lowest, and '0' is taken from each.  A byte is a
   digit when it is then below 10, so that neither it nor it plus 0x76
   has bit 7 set.  A borrow or a carry only passes to the bytes above the
   one it starts in, which lie past the first byte that is no digit.  The
   digits are moved to the top of the word, zeros below them, and summed
   in pairs, then in fours, with three multiplies. */
static int lead8(const char *s, uint64_t *v)
{
    const unsigned char *u = (const unsigned char *)s;
    uint64_t w = (uint64_t)u[0] | (uint64_t)u[1] << 8 | (uint64_t)u[2] << 16
        | (uint64_t)u[3] << 24 | (uint64_t)u[4] << 32 | (uint64_t)u[5] << 40
        | (uint64_t)u[6] << 48 | (uint64_t)u[7] << 56, bad;
    int n;
    w -= 0x3030303030303030u;
    bad = (w | (w + 0x7676767676767676u)) & 0x8080808080808080u;
    n = bad ? __builtin_ctzll(bad) >> 3 : 8;
    *v = 0;
    if (!n)
        return 0;
    w <<= 8 * (8 - n);
    w = w * 10 + (w >> 8);
    *v = ((w & 0x000000FF000000FFu) * (100 + (1000000ull << 32))
          + ((w >> 16) & 0x000000FF000000FFu) * (1 + (10000ull << 32))) >> 32;
    return n;
}

/* A value at most INT64_MAX: up to 15 digits are read 8 bytes at a time
   where 16 bytes are left, any other by digits. */
static const char *value(const char *s, const char *end, uint64_t *v)
{
    uint64_t hi, lo;
    int n;
    if (!s || end - s < 16)
        return digits(s, end, INT64_MAX, v);
    n = lead8(s, &hi);
    if (n < 8) {
        *v = hi;
        return n ? s + n : NULL;
    }
    n = lead8(s + 8, &lo);
    if (n == 8)
        return digits(s, end, INT64_MAX, v);
    *v = hi * tens[n] + lo;
    return s + 8 + n;
}

static const char *comma(const char *s, const char *end)
{
    return s && s < end && *s == ',' ? s + 1 : NULL;
}

/* The polarity 0 or 1: one such byte that no digit follows, else the
   checked digits, which read 00 and 01 as the line loop does. */
static const char *polarity(const char *s, const char *end, uint64_t *v)
{
    if (s && s < end && (unsigned)(*s - '0') < 2
            && (s + 1 == end || (unsigned)(s[1] - '0') >= 10)) {
        *v = (uint64_t)(*s - '0');
        return s + 1;
    }
    return digits(s, end, 1, v);
}

/* The label letter N or E; *v is 0 or 1, the EventLabel values. */
static const char *letter(const char *s, const char *end, uint8_t *v)
{
    if (!s || s == end || !((*s == 'N') | (*s == 'E')))
        return NULL;
    *v = *s == 'E';
    return s + 1;
}

/* Past the line end at s: LF, CRLF, a lone CR, or the end of buf. */
static const char *eol(const char *s, const char *end)
{
    if (!s || s == end)
        return s;
    if (*s == '\n')
        return s + 1;
    if (*s != '\r')
        return NULL;
    return s + 1 < end && s[1] == '\n' ? s + 2 : s + 1;
}

/* An event row t,x,y,p[,label]: t, x and y at most INT64_MAX, p 0 or 1,
   the label N or E. */
static const char *event_row(const char *s, const char *end, int labeled,
                             uint64_t *v, uint8_t *mark)
{
    s = value(s, end, &v[0]);
    s = value(comma(s, end), end, &v[1]);
    s = value(comma(s, end), end, &v[2]);
    s = polarity(comma(s, end), end, &v[3]);
    if (labeled)
        s = letter(comma(s, end), end, mark);
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
   far and the last timestamp, and receives those of the rows read before
   any rejected one, so a later call goes on with the rows that follow.
   Returns the number of rows, or -1 - i for the first row i that is
   rejected or precedes the row before it. */
int64_t scan_events(const char *buf, int64_t len, int labeled, uint64_t *top)
{
    const char *s = buf, *end = buf + len;
    uint64_t xmax = top[0], ymax = top[1], last = top[2];
    int64_t i;
    int ok = 1;
    for (i = 0; s < end; i++) {
        uint64_t v[4];
        uint8_t mark;
        s = event_row(s, end, labeled, v, &mark);
        if (!s || v[0] < last) {
            ok = 0;
            break;
        }
        xmax = v[1] > xmax ? v[1] : xmax;
        ymax = v[2] > ymax ? v[2] : ymax;
        last = v[0];
    }
    top[0] = xmax;
    top[1] = ymax;
    top[2] = last;
    return ok ? i : -1 - i;
}

/* numpy's float64 sum, np.add.reduce of a contiguous array: fewer than 8
   values in order, up to 128 in eight interleaved partial sums, more
   split in two at a multiple of 8.  The freeze sums a map in this order,
   so it gives numpy's bits; a test holds the two to each other. */
double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

/* The window scorer.  A window's map holds the sorted active pixels
   map[0:m][0] and their scores prb[0:m]; prb[m] scores every other pixel.
   The chain that freezes one, density.sparse_scores, is: base =
   occupancy (occ[min(count, 37)]) of each active pixel, times its prior
   weight over the peak weight when there is a prior; g = (base - lo) /
   (hi - lo), or 0 when hi == lo, where lo and hi range over the bases
   and, when some pixel is inactive, 0; mean = (the pairwise sum of the
   active g + the inactive pixels' count * their g) / n_pixels; score =
   sigmoid(g + (alpha - mean)), clamped inside (0, 1). */
#define DIGIT 11
#define RADIX (1 << DIGIT)
#define PASSES ((63 + DIGIT - 1) / DIGIT)
#define CLASSES 38  /* occupancy classes min(count, 37) */
#define P_LO 0x1p-1074  /* the clamp bounds: the doubles next to 0 and 1 */
#define P_HI (1.0 - 0x1p-53)

/* A pixel and its count in a tally or map; a pixel and an event's
   position in the sort. */
typedef int64_t pair[2];

struct chain {
    int64_t n_pixels;
    double alpha, slope, midpoint, peak;
    const double *occ, *weights;  /* weights: NULL without a prior */
};

static int class_of(int64_t count)
{
    return count < CLASSES ? (int)count : CLASSES - 1;
}

/* density.sigmoid of g + shift. */
static double sigmoid(const struct chain *c, double g, double shift)
{
    double x = c->slope * ((g + shift) - c->midpoint);
    double s = 1.0 / (1.0 + exp(-x));
    return s < P_LO ? P_LO : s > P_HI ? P_HI : s;
}

/* prb[0:k + 1], the map frozen from the tally tal[0:k].  Without a prior
   a pixel's score follows from its class alone, so the sigmoid runs once
   per class; prb holds each pixel's g first, for the sum. */
static void freeze(const struct chain *c, pair *tal, int64_t k,
                   double *prb)
{
    int64_t n_rest = c->n_pixels - k;
    double lo = n_rest ? 0.0 : INFINITY, hi = n_rest ? 0.0 : -INFINITY;
    double g[CLASSES], s[CLASSES];
    for (int64_t i = 0; i < k; i++) {
        double base = c->occ[class_of(tal[i][1])];
        if (c->weights) {
            double w = c->weights[tal[i][0]] / c->peak;
            base *= w;
            prb[i] = base;
        }
        lo = base < lo ? base : lo;
        hi = base > hi ? base : hi;
    }
    double span = hi - lo, g_rest = hi == lo ? 0.0 : (0.0 - lo) / span;
    if (c->weights)
        for (int64_t i = 0; i < k; i++)
            prb[i] = hi == lo ? 0.0 : (prb[i] - lo) / span;
    else {
        for (int j = 0; j < CLASSES; j++)
            g[j] = hi == lo ? 0.0 : (c->occ[j] - lo) / span;
        for (int64_t i = 0; i < k; i++)
            prb[i] = g[class_of(tal[i][1])];
    }
    /* sparse_scores adds the inactive pixels' share n_rest * g_rest; here
       it is +0.0, as every base is at least 0, so lo is 0 when any is. */
    double mean = pairwise_sum(prb, k) / (double)c->n_pixels;
    double shift = c->alpha - mean;
    if (c->weights)
        for (int64_t i = 0; i < k; i++)
            prb[i] = sigmoid(c, prb[i], shift);
    else {
        for (int j = 0; j < CLASSES; j++)
            s[j] = sigmoid(c, g[j], shift);
        for (int64_t i = 0; i < k; i++)
            prb[i] = s[class_of(tal[i][1])];
    }
    prb[k] = sigmoid(c, g_rest, shift);
}

/* The union of the tallies a[0:ka] and b[0:kb], each of ascending
   distinct pixels, their counts summed, in out[0:k]; returns k. */
static int64_t merge(pair *a, int64_t ka, pair *b, int64_t kb, pair *out)
{
    int64_t i = 0, j = 0, k = 0;
    for (; i < ka && j < kb; k++) {
        int64_t d = (a[i][0] > b[j][0]) - (a[i][0] < b[j][0]);
        out[k][0] = d > 0 ? b[j][0] : a[i][0];
        out[k][1] = (d <= 0 ? a[i++][1] : 0) + (d >= 0 ? b[j++][1] : 0);
    }
    memcpy(out + k, a + i, (size_t)(ka - i) * sizeof *a);
    memcpy(out + k + ka - i, b + j, (size_t)(kb - j) * sizeof *b);
    return k + ka - i + kb - j;
}

/* The open window's tally: runs of ascending distinct pixels and their
   counts, run r in tal[ends[r]:ends[r + 1]] (ends[0] is 0), that together
   count the window's events so far.  tmp has room for all of them. */
struct tally {
    pair *tal, *tmp;
    int64_t *ends, runs;
};

static void merge_top(struct tally *t)
{
    int64_t *e = t->ends + --t->runs - 1;  /* the top two: e[0] .. e[2] */
    int64_t k = merge(t->tal + e[0], e[1] - e[0], t->tal + e[1], e[2] - e[1],
                      t->tmp);
    memcpy(t->tal + e[0], t->tmp, (size_t)k * sizeof *t->tmp);
    e[1] = e[0] + k;
}

/* Adds the run of k pairs written after the last, then merges the top two
   runs while the lower holds at most twice the pairs of the upper.  Each
   run then holds over twice the pairs of the one above it, so a pair is
   merged a logarithmic number of times, a piece costs in proportion to
   its own tally rather than its window's, and at most 63 runs are open. */
static void add_run(struct tally *t, int64_t k)
{
    int64_t *e = t->ends + t->runs++;
    e[1] = e[0] + k;
    while (t->runs > 1 && (e = t->ends + t->runs - 2,
                           e[1] - e[0] <= 2 * (e[2] - e[1])))
        merge_top(t);
}

/* score_piece scores the events of one piece of a stream: window w has
   id ids[w] (ascending) and events bounds[w] .. bounds[w + 1] - 1, whose
   flat pixel indices flat holds, each below n_pixels <= 2**bits (the
   push checks them as it computes them).

   st[0:3] is what the scorer carries from piece to piece, read and
   updated: the id of the open window (0 before the first piece), the
   size m of its map, in map and prb, and the number of runs of its
   tally, in tal and ends (struct tally).  Each window that opens in the
   piece gets a map: alpha for every pixel in window 1; else the map
   frozen from the tally of the window before it, or from no tally after
   a gap.  Then its events are sorted with their positions, an LSD radix
   sort in 11-bit digits, one pass per digit that bits needs (at least
   one), their distinct pixels and counts added to the tally as one run,
   and the pixels merge-walked against the map, writing each event's
   score to p.

   scratch holds room[0] values and tal, tmp and map room[1] pairs each,
   prb one double more.  The piece needs 4 * longest + passes * RADIX
   values, for its longest window, and the tally's pairs plus longest
   pairs; when it needs more than there is, nothing is read or written
   but st[3] and st[4], which receive the two sizes, and -1 is returned.
   Otherwise returns 0. */
static int64_t score_piece(const int64_t *flat, int64_t bits,
                           const int64_t *ids, const int64_t *bounds,
                           int64_t nw, int64_t n_pixels, const double *consts,
                           const double *occ, const double *weights,
                           double *p, int64_t *scratch, pair *tal, pair *tmp,
                           pair *map, double *prb, const int64_t *room,
                           int64_t *ends, int64_t *st)
{
    struct chain c = {n_pixels, consts[0], consts[1], consts[2], consts[3],
                      occ, weights};
    struct tally t = {tal, tmp, ends, st[2]};
    int passes = bits > DIGIT ? (int)((bits + DIGIT - 1) / DIGIT) : 1;
    int64_t longest = 0, m = st[1];
    for (int64_t w = 0; w < nw; w++)
        if (bounds[w + 1] - bounds[w] > longest)
            longest = bounds[w + 1] - bounds[w];
    if (4 * longest + passes * RADIX > room[0]
            || ends[t.runs] + longest > room[1]) {
        st[3] = 4 * longest + passes * RADIX;
        st[4] = ends[t.runs] + longest;
        return -1;
    }
    int64_t (*hist)[RADIX] = (int64_t (*)[RADIX])(scratch + 4 * longest);
    /* The sort moves each event's pixel and position together, so a pass
       writes one place in memory per event, not two. */
    pair *rec[2] = {(pair *)scratch, (pair *)(scratch + 2 * longest)};

    for (int64_t w = 0; w < nw; w++) {
        const int64_t *f = flat + bounds[w];
        int64_t n = bounds[w + 1] - bounds[w], k = 0;
        pair *in = NULL, *mine;

        if (ids[w] != st[0]) {
            if (ids[w] == 1) {
                m = 0;
                prb[0] = c.alpha;
            } else {
                /* After a gap no pixel is active. */
                m = 0;
                if (ids[w] == st[0] + 1 && t.runs) {
                    while (t.runs > 1)
                        merge_top(&t);
                    m = ends[1];
                    memcpy(map, tal, (size_t)m * sizeof *map);
                }
                freeze(&c, map, m, prb);
            }
            t.runs = 0;
            st[0] = ids[w];
        }
        memset(hist, 0, passes * sizeof hist[0]);
        for (int64_t i = 0; i < n; i++)
            for (int d = 0; d < passes; d++)
                hist[d][((uint64_t)f[i] >> (DIGIT * d)) & (RADIX - 1)]++;
        for (int d = 0; d < passes; d++) {
            int shift = DIGIT * d;
            int64_t *h = hist[d], sum = 0;
            pair *to = rec[d & 1];
            for (int b = 0; b < RADIX; b++) {
                int64_t count = h[b];
                h[b] = sum;
                sum += count;
            }
            if (d == 0)
                for (int64_t i = 0; i < n; i++) {
                    int64_t j = h[(uint64_t)f[i] & (RADIX - 1)]++;
                    to[j][0] = f[i];
                    to[j][1] = i;
                }
            else
                for (int64_t i = 0; i < n; i++) {
                    int64_t j = h[((uint64_t)in[i][0] >> shift) & (RADIX - 1)]++;
                    to[j][0] = in[i][0];
                    to[j][1] = in[i][1];
                }
            in = to;
        }
        mine = tal + ends[t.runs];
        for (int64_t i = 0, j = 0; i < n; k++) {
            int64_t v = in[i][0], start = i;
            while (j < m && map[j][0] < v)
                j++;
            double score = j < m && map[j][0] == v ? prb[j] : prb[m];
            for (; i < n && in[i][0] == v; i++)
                p[bounds[w] + in[i][1]] = score;
            mine[k][0] = v;
            mine[k][1] = i - start;
        }
        add_run(&t, k);
    }
    st[1] = m;
    st[2] = t.runs;
    return 0;
}

/* The push of the next span of a piece of a stream, every step of a
   decision in one call: each event's window, its probability and the cap
   walk.  The piece holds the n events t[0:n] (x and y their pixels); the
   span starts at event lo and holds at most conf[C_SPAN] of them, ending
   before a window that goes on past it, so that no window shorter than a
   span is split.

   conf holds the method (M_DUTY, the duty cycle (t - t0) mod tw_us < ta,
   which draws nothing; M_ALPHA, alpha for every event; M_SCORED, the
   window scorer's score; M_GIVEN, the p the caller wrote), t_us, tw_us,
   ta, the sensor's width, its pixel count, the bits its flat indices need
   and the span.  fconf holds alpha, the sigmoid's slope and midpoint and
   the prior's peak (the scorer's consts), and the cap's alpha (INFINITY
   without the cap).  buf holds the addresses of the buffers, B_ below.
   The caller makes room before the call, for each event the span can
   hold: a value in each span-sized buffer (one more in bounds), a draw
   from st[S_DRAW] on and a kept position from st[S_NK] on.  Without a
   draw buffer the walk takes no draws, and accepts iff p > 0.  st holds
   what the stream carries from span to span, S_ below; the caller sets
   the anchor t0 and the last timestamp pushed.

   Writes each event's window, code and probability (the duty cycle's
   indicator, which the caller then sets to NaN) to windows, codes and p,
   the positions in the piece of the kept events to kept, and the span's
   nw windows (st[S_NW]) to ids, bounds and kept_w: the id, first event
   (from lo) and events kept of each.  Returns the number of events
   decided, or, with the stream's state as it was, a status E_ below: room
   for the scorer (the sizes in st[S_NEED], st[S_NEED + 1]), after which
   the call can be made again; a timestamp below the one before it; or a
   flat index outside the sensor, checked as each is computed.  Before the
   first span the caller refuses a piece that starts before the last
   timestamp pushed, ends before t0, or ends past window id INT64_MAX. */
enum { M_DUTY = 0, M_ALPHA = 1, M_SCORED = 2, M_GIVEN = 3 };
enum { C_METHOD = 0, C_T_US = 1, C_TW_US = 2, C_TA = 3, C_WIDTH = 4,
       C_PIXELS = 5, C_BITS = 6, C_SPAN = 7 };
enum { F_ALPHA = 0, F_CAP = 4 };
enum { B_FLAT = 0, B_IDS = 1, B_BOUNDS = 2, B_KEPT_W = 3, B_KEPT = 4,
       B_DRAWS = 5, B_OCC = 6, B_WEIGHTS = 7, B_SCRATCH = 8, B_TAL = 9,
       B_TMP = 10, B_MAP = 11, B_PRB = 12, B_ROOM = 13, B_ENDS = 14 };
/* S_RETAINED .. S_NK are cap_walk's state, S_SCORE .. S_NEED + 1
   score_piece's; S_SEEN, S_RETAINED and S_CAPPED count the whole
   stream, S_NK the piece. */
enum { S_SEEN = 0, S_T0 = 1, S_LAST = 2, S_RETAINED = 3, S_CAPPED = 4,
       S_NK = 5, S_SCORE = 6, S_NEED = 9, S_NW = 11, S_DRAW = 12,
       S_PDF_NS = 13, S_EVAL_NS = 14, S_SIZE = 15 };
enum { E_ROOM = -1, E_INDEX = -2, E_DECREASE = -3 };

static int64_t now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

int64_t push_span(const int64_t *t, const int64_t *x, const int64_t *y,
                  int64_t *windows, uint8_t *codes, double *p, int64_t n,
                  const int64_t *conf, const double *fconf, int64_t *st,
                  void *const *buf, int64_t lo)
{
    int64_t method = conf[C_METHOD], t0 = st[S_T0], nw, m, start;
    int64_t *ids = buf[B_IDS], *bounds = buf[B_BOUNDS];
    int64_t *kept_w = buf[B_KEPT_W];
    m = n - lo < conf[C_SPAN] ? n - lo : conf[C_SPAN];
    nw = window_pass(t + lo, m, t0, conf[C_T_US], windows + lo, ids, bounds);
    if (nw < 0 || (lo && t[lo] < t[lo - 1]))
        return E_DECREASE;
    if (lo + m < n && nw > 1 && (int64_t)((uint64_t)(t[lo + m] - t0)
            / (uint64_t)conf[C_T_US]) + 1 == ids[nw - 1])
        m = bounds[--nw];
    if (method == M_DUTY) {
        /* (t - t0) mod tw_us, with one division per duty cycle as the
           window pass has: the span's offsets are sorted. */
        uint64_t tw = (uint64_t)conf[C_TW_US], cycle = 0;
        for (int64_t i = lo; i < lo + m; i++) {
            uint64_t d = (uint64_t)(t[i] - t0);
            if (i == lo || d - cycle >= tw)
                cycle = d - d % tw;
            p[i] = (int64_t)(d - cycle) < conf[C_TA];
        }
    } else if (method == M_ALPHA)
        for (int64_t i = lo; i < lo + m; i++)
            p[i] = fconf[F_ALPHA];
    else if (method == M_SCORED) {
        int64_t *flat = buf[B_FLAT], done;
        start = now_ns();
        for (int64_t i = 0; i < m; i++) {
            uint64_t v = (uint64_t)y[lo + i] * (uint64_t)conf[C_WIDTH]
                + (uint64_t)x[lo + i];  /* modulo 2**64, so negatives fail */
            if (v >= (uint64_t)conf[C_PIXELS])
                return E_INDEX;
            flat[i] = (int64_t)v;
        }
        done = score_piece(flat, conf[C_BITS], ids, bounds, nw,
                           conf[C_PIXELS], fconf, buf[B_OCC], buf[B_WEIGHTS],
                           p + lo, buf[B_SCRATCH], buf[B_TAL], buf[B_TMP],
                           buf[B_MAP], buf[B_PRB], buf[B_ROOM], buf[B_ENDS],
                           st + S_SCORE);
        st[S_PDF_NS] += now_ns() - start;
        if (done)
            return E_ROOM;
    }
    start = now_ns();
    memset(kept_w, 0, (size_t)nw * sizeof *kept_w);
    st[S_DRAW] += cap_walk(p + lo, m, bounds, !buf[B_DRAWS] ? NULL
                           : (const double *)buf[B_DRAWS] + st[S_DRAW],
                           fconf[F_CAP], st[S_SEEN], codes + lo,
                           (int64_t *)buf[B_KEPT], lo, kept_w,
                           st + S_RETAINED);
    st[S_EVAL_NS] += now_ns() - start;
    st[S_NW] = nw;
    st[S_SEEN] += m;
    return m;
}

/* The decimal of v at o ('-' first when negative); returns the end.
   The digit count t or t + 1 follows from the bit length b of the
   magnitude m: t = b * 1233 >> 12 is floor(b * log10(2)) for b <= 64,
   and m has t + 1 digits when it is at least 10**t (m | 1 gives 0 one
   digit).  The digits are written from the last, four at a time, as two
   pairs of one 32-bit remainder, which halves the chain of 64-bit
   divisions. */
static char *decimal(char *o, int64_t v)
{
    static const char pairs[] =
        "0001020304050607080910111213141516171819"
        "2021222324252627282930313233343536373839"
        "4041424344454647484950515253545556575859"
        "6061626364656667686970717273747576777879"
        "8081828384858687888990919293949596979899";
    uint64_t m = (uint64_t)v;
    if (v < 0) {
        *o++ = '-';
        m = 0 - m;  /* modulo 2**64, so exact for INT64_MIN */
    }
    int t = (64 - __builtin_clzll(m | 1)) * 1233 >> 12;
    int len = t + ((m | 1) >= tens[t]);
    char *s = o + len;
    for (; m >= 10000; m /= 10000) {
        uint32_t r = (uint32_t)(m % 10000);
        memcpy(s -= 2, pairs + 2 * (r % 100), 2);
        memcpy(s -= 2, pairs + 2 * (r / 100), 2);
    }
    if (m >= 100) {
        memcpy(s -= 2, pairs + 2 * (m % 100), 2);
        m /= 100;
    }
    if (m >= 10)
        memcpy(s - 2, pairs + 2 * m, 2);
    else
        s[-1] = (char)('0' + m);
    return o + len;
}

/* Rows *row .. n - 1 of ncols comma-separated fields, each row ending in
   LF, written to out[0:cap] while the next row fits at its widest; sets
   *row to the first row not written and returns the bytes written, or -1
   before a row whose table column holds a row number outside its table.
   Column c is described by meta[k * ncols + c] for k = 0 .. 5: the
   address of its values, int64 or, when k = 4 holds 1, uint8; the start
   of the values start + i when there are none; the address of a table
   whose rows are k = 3 bytes wide, NUL-padded on the right, and k = 5
   rows long, to write row values[i] of; else the decimal of the value. */
int64_t format_rows(int64_t n, int64_t ncols, const int64_t *meta, char *out,
                    int64_t cap, int64_t *row)
{
    const int64_t *start = meta + ncols, *width = meta + 3 * ncols;
    const int64_t *narrow = meta + 4 * ncols, *rows = meta + 5 * ncols;
    char *o = out;
    int64_t widest = ncols, i;
    for (int64_t c = 0; c < ncols; c++)
        widest += meta[2 * ncols + c] ? width[c] : 20;
    for (i = *row; i < n && (o - out) + widest <= cap; i++) {
        for (int64_t c = 0; c < ncols; c++) {
            const void *values = (const void *)(intptr_t)meta[c];
            const char *table = (const char *)(intptr_t)meta[2 * ncols + c];
            int64_t v = !values ? start[c] + i
                : narrow[c] ? ((const uint8_t *)values)[i]
                : ((const int64_t *)values)[i];
            if (table) {
                const char *r = table + v * width[c];
                int64_t k;
                if ((uint64_t)v >= (uint64_t)rows[c])
                    return -1;
                for (k = 0; k < width[c] && r[k]; k++)
                    o[k] = r[k];
                o += k;
            } else
                o = decimal(o, v);
            *o++ = c + 1 < ncols ? ',' : '\n';
        }
    }
    *row = i;
    return o - out;
}
"""
_COMPILE = ("cc", "-std=c99", "-O2", "-ffp-contract=off", "-shared", "-fPIC",
            "-x", "c", "-", "-lm")
_COMPILE_TIMEOUT_S = 60
_CACHE_DIR = Path(__file__).resolve().parent / "__pycache__"
_DIGEST_BYTES = 32
# The sigmoid's Python loop converts this many values at a time to Python
# floats, so its memory does not grow with the input.
_BLOCK = 1 << 14
# Fresh variates are drawn at least this many at a time, into a buffer the
# push keeps, so that small pieces do not draw each time.
_DRAW_MIN = 1 << 12
# A push decides a piece at most this many events at a time, so that its
# buffers hold this many, however long the piece; a span ends before a
# window that goes on past it, so windows up to this long are scored whole.
_SPAN = 1 << 14
# Per-window rows are kept in blocks of this many, 24 bytes each.
_ROW_BLOCK = 1 << 12
_P, _I64 = ctypes.c_void_p, ctypes.c_int64
_UINT8, _INT64 = np.dtype(np.uint8), np.dtype(np.int64)
# A map without active pixels, and the tally of a window without events.
_NO_PIXELS, _NO_SCORES = np.empty(0, np.int64), np.empty(0, np.float64)
_IDLE = (_NO_PIXELS, _NO_PIXELS)
# The functions _SOURCE exports, with their (argtypes, restype): a library
# lacking any of them is rebuilt.  pairwise_sum is the freeze's sum, exported
# so that a test can hold it to numpy's.
_KERNELS = {
    "push_span": ((*[_P] * 6, _I64, *[_P] * 4, _I64), _I64),
    "expit": ((_P, _P, _I64), None),
    "parse_events": ((_P, _I64, ctypes.c_int, _I64, *[_P] * 6), _I64),
    "scan_events": ((_P, _I64, ctypes.c_int, _P), _I64),
    "format_rows": ((_I64, _I64, _P, _P, _I64, _P), _I64),
    "pairwise_sum": ((_P, _I64), ctypes.c_double),
}
# The enums of push_span in _SOURCE that Python reads or writes.
_METHODS = {"deterministic": 0, "uniform": 1, "poisson": 2, "given": 3}
_C_SPAN, (_B_KEPT, _B_DRAWS, _B_SCRATCH) = 7, (4, 5, 8)
(_S_SEEN, _S_T0, _S_LAST, _S_RETAINED, _S_CAPPED, _S_NK, _S_NEED, _S_NW,
 _S_DRAW, _S_PDF_NS, _S_EVAL_NS, _S_SIZE) = (0, 1, 2, 3, 4, 5, 9, 11, 12, 13,
                                            14, 15)
_E_ROOM, _E_INDEX, _E_DECREASE = -1, -2, -3


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


class _Decider:
    """The decisions of a stream pushed in pieces, and the buffers that
    every push reuses: the state :class:`evdown.pipeline.Downsampler`
    keeps.  ``method`` is one of the pipeline's, or "given", the walk alone
    on the probabilities the caller writes; ``config`` is the run's
    :class:`evdown.samplers.SamplerConfig`; ``fill(out=array)`` writes
    fresh variates, or is None for a walk without draws.

    It holds what crosses a piece boundary: the counts of events seen,
    kept and capped, the anchor and last timestamps, the variates drawn
    but not yet used, the open window's scoring state (its id, map and
    tally) and a ``(window_id, processed, retained)`` row per window, in
    blocks of _ROW_BLOCK.  A push decides its piece a span at a time, each
    in one call of the compiled push (``push_span`` in the C source) or of
    its Python twin, and first makes room for all that the span can need:
    a draw and a kept position per event.  A call that cannot decide its
    span returns a status before it changes anything: for more room for
    the scorer, whose buffers the push grows (to the largest window and
    tally so far) before the call is made again, or for a timestamp below
    the one before it or a pixel outside the sensor, which the push alone
    raises.  The tally is a stack of runs merged as they pile up (``struct
    tally``), so a piece costs in proportion to its own tally.
    """

    def __init__(self, geometry, method, config, fill):
        from .density import _OCCUPANCY
        from .samplers import acceptance_window_us
        self.kernel, self.fill = _kernel(), fill
        alpha, params, prior = config.alpha, config.theta, config.prior
        code = _METHODS[method]
        self.scored, self.n_pixels = code == 2, geometry.n_pixels
        self.chain = (geometry, alpha, params, prior)
        self.conf = np.array([
            code, config.t_us, config.tw_us,
            acceptance_window_us(alpha, config.tw_us), geometry.width,
            geometry.n_pixels, (geometry.n_pixels - 1).bit_length(), _SPAN],
            np.int64)
        self.cap = alpha if config.cap_enabled else math.inf
        self.fconf = np.array([alpha, params.slope, params.midpoint,
                               1.0 if prior is None else prior.peak, self.cap])
        self.state = np.zeros(_S_SIZE, np.int64)
        self.draws, self.kept = np.empty(0), np.empty(0, np.int64)
        # The draws written to the draw buffer end at drawn; the rows fill
        # block to used.
        self.drawn, self.used = 0, 0
        self.full, self.block = [], np.empty((_ROW_BLOCK, 3), np.int64)
        # The Python twin's scoring state: the open window, its tally and map.
        self.window, self.tally, self.frozen = 0, _IDLE, None
        # The buffers, in the order of the B_ enum: the span's flat indices,
        # window ids, bounds and kept counts, then the kept positions, the
        # draws, the occupancy table and the prior's weights.
        self.buffers = [*[np.empty(0, np.int64)] * 4, self.kept,
                        None if fill is None else self.draws, _OCCUPANCY,
                        None if prior is None else prior.weights]
        # The scorer's: scratch, tally, merge room, map and scores, their
        # sizes and the tally's run ends.
        self.buffers += [np.empty(0, np.int64), *(
            np.empty((0, 2), np.int64) for _ in range(3)), np.empty(1),
            np.zeros(2, np.int64), np.zeros(65, np.int64)]
        self.addresses = np.zeros(len(self.buffers), np.int64)
        if self.kernel is None:
            return
        for b in range(len(self.buffers)):
            self._set(b, self.buffers[b])
        self.args = tuple(_array_address(a) for a in (
            self.conf, self.fconf, self.state, self.addresses))

    def push(self, t, x, y, windows, codes, p):
        """Decide the next piece of the stream, given its timestamps and
        pixels (integer arrays, strided views too; ``x`` and ``y`` are read
        only for "poisson").  Each event's window, code and probability go
        to ``windows``, ``codes`` and ``p`` (writable contiguous int64,
        uint8 and float64 arrays of the piece's length; with "given", ``p``
        holds the probabilities).  Returns the positions of the kept events
        in the piece, in a buffer that the next push reuses, and the number
        of events pushed before.

        The piece is nonempty and its timestamps at least the last pushed,
        unless ValueError says otherwise: for a piece that starts before the
        last timestamp pushed, naming the index of its first event in the
        stream, or a window id past 2**63 - 1, before anything changes; for
        timestamps that decrease within the piece, or a pixel outside the
        sensor, before the span that holds them changes anything.
        """
        # The compiled push reads the columns' data in place.
        t, x, y = (np.ascontiguousarray(a, np.int64) for a in (t, x, y))
        st, n, top = self.state, t.shape[0], int(t[-1])
        k0 = int(st[_S_SEEN])
        if k0 and t[0] < st[_S_LAST]:
            raise ValueError(f"events out of order at index {k0}: "
                             f"t={int(t[0])} after t={st[_S_LAST]}")
        t0 = int(st[_S_T0]) if k0 else int(t[0])
        if top < t0:
            raise ValueError("timestamps must not decrease")
        _check_window_limit(top, t0, int(self.conf[1]))
        st[_S_T0] = t0
        columns = t, x, y, windows, codes, p
        if self.kernel is None:
            span = functools.partial(self._span_python, *columns)
        else:
            span = functools.partial(self.kernel.push_span, *map(
                _array_address, columns), n, *self.args)
        lo, size = 0, int(self.conf[_C_SPAN])
        while lo < n:
            self._room(min(n - lo, size))
            done = span(lo)
            if done == _E_ROOM:
                self._grow(*st[_S_NEED:_S_NEED + 2].tolist())
            elif done < 0:
                st[_S_NK] = 0
                raise ValueError(f"flat pixel indices must be in "
                                 f"[0, {self.n_pixels})" if done == _E_INDEX
                                 else "timestamps must not decrease")
            else:
                self._add_rows(int(st[_S_NW]))
                lo += done
        if self.conf[0] == _METHODS["deterministic"]:
            p.fill(np.nan)  # the duty cycle draws nothing
        nk, st[_S_LAST], st[_S_NK] = int(st[_S_NK]), top, 0
        return self.kept[:nk], k0

    def totals(self):
        """The events seen, kept and capped so far, and the seconds spent
        scoring and walking."""
        seen, retained, capped, pdf_ns, eval_ns = self.state[[
            _S_SEEN, _S_RETAINED, _S_CAPPED, _S_PDF_NS, _S_EVAL_NS]].tolist()
        return seen, retained, capped, pdf_ns / 1e9, eval_ns / 1e9

    def rows(self) -> list:
        """Every ``(window_id, processed, retained)`` row so far, made
        from three lists of ints per block rather than a list per row."""
        return [row for block in (*self.full, self.block[:self.used])
                for row in zip(*block.T.tolist())]

    def _set(self, b: int, array) -> None:
        """Make ``array`` buffer ``b`` of the push."""
        self.buffers[b] = array
        if self.kernel is not None:
            self.addresses[b] = 0 if array is None else _array_address(array)

    def _room(self, m: int) -> None:
        """Room for a span of up to ``m`` events: span buffers that hold
        them, room for ``m`` more kept positions, and ``m`` unused draws,
        those left over first, then at least _DRAW_MIN fresh ones."""
        if m >= self.buffers[2].shape[0]:
            for b in range(4):
                self._set(b, np.empty(m + (b == 2) if b or self.scored
                                      else 0, np.int64))
        nk = int(self.state[_S_NK])
        if nk + m > self.kept.shape[0]:
            kept, self.kept = self.kept, np.empty(
                max(2 * self.kept.shape[0], nk + m), np.int64)
            self.kept[:nk] = kept[:nk]
            self._set(_B_KEPT, self.kept)
        first = int(self.state[_S_DRAW])
        left = self.drawn - first
        if self.fill is None or left >= m:
            return
        draws, fresh = self.draws, max(m - left, _DRAW_MIN)
        if left + fresh > draws.shape[0]:
            self.draws = np.empty(m + _DRAW_MIN)
            self._set(_B_DRAWS, self.draws)
        self.draws[:left] = draws[first:self.drawn]
        self.fill(out=self.draws[left:left + fresh])
        self.state[_S_DRAW], self.drawn = 0, left + fresh

    def _add_rows(self, nw: int) -> None:
        """Add the rows of the span's ``nw`` windows, the first to the last
        row when it continues that window."""
        ids, bounds, kept_w = self.buffers[1:4]
        rows, used = self.block, self.used
        first = int(used > 0 and rows[used - 1, 0] == ids[0])
        if first:
            rows[used - 1, 1] += bounds[1]  # bounds[0] is 0
            rows[used - 1, 2] += kept_w[0]
        while first < nw:
            if used == _ROW_BLOCK:
                self.full.append(rows)
                rows, used = np.empty((_ROW_BLOCK, 3), np.int64), 0
                self.block = rows
            take = min(nw - first, _ROW_BLOCK - used)
            block, stop = rows[used:used + take], first + take
            block[:, 0] = ids[first:stop]
            np.subtract(bounds[first + 1:stop + 1], bounds[first:stop],
                        out=block[:, 1])
            block[:, 2] = kept_w[first:stop]
            first, used = stop, used + take
        self.used = used

    def _grow(self, values: int, pairs: int) -> None:
        """Room for ``values`` scratch values and ``pairs`` tally pairs, a
        quarter more than asked, keeping the open window's tally and map.
        The buffers are replaced one at a time, each old one dropped once
        it is copied, so no two generations are held at once."""
        room, ends = self.buffers[_B_SCRATCH + 5:]
        m, runs = self.state[_S_NEED - 2:_S_NEED].tolist()
        more_values, more_pairs = values > room[0], pairs > room[1]
        values, pairs = values * 5 // 4, pairs * 5 // 4 + 1
        # scratch, tal, tmp, map and prb: whether each grows, to what, and
        # how much of it to keep.
        for b, grow, size, used in (
                (0, more_values, values, 0),
                (1, more_pairs, pairs, ends[runs]), (2, more_pairs, pairs, 0),
                (3, more_pairs, pairs, m), (4, more_pairs, pairs + 1, m + 1)):
            if grow:
                old = self.buffers[_B_SCRATCH + b]
                self.buffers[_B_SCRATCH + b] = None
                new = np.empty((size, *old.shape[1:]), old.dtype)
                new[:used] = old[:used]
                del old
                self._set(_B_SCRATCH + b, new)
        room[:] = (self.buffers[_B_SCRATCH].shape[0],
                   self.buffers[_B_SCRATCH + 1].shape[0])

    def _span_python(self, t, x, y, windows, codes, p, lo):
        """The twin of ``push_span``, on the same state and buffers."""
        st, n = self.state, t.shape[0]
        method, t_us, tw_us, ta, *_, size = self.conf.tolist()
        t0, seen = int(st[_S_T0]), int(st[_S_SEEN])
        hi = lo + min(n - lo, size)
        if (np.diff(t[max(lo - 1, 0):hi]) < 0).any():
            return _E_DECREASE
        windows[lo:hi] = (t[lo:hi] - t0) // t_us + 1  # push checked the limit
        ids, bounds = window_spans(windows[lo:hi])
        if hi < n and ids.size > 1 and (t[hi] - t0) // t_us + 1 == ids[-1]:
            ids, bounds = ids[:-1], bounds[:-1]
            hi = lo + int(bounds[-1])
        span = slice(lo, hi)
        start = time.perf_counter_ns()
        if method == 0:
            p[span] = (t[span] - t0) % tw_us < ta
        elif method == 1:
            p[span] = self.chain[1]
        elif method == 2:
            flat = y[span] * self.chain[0].width + x[span]
            if flat.min() < 0 or flat.max() >= self.n_pixels:
                return _E_INDEX
            self.tally, self.frozen = _score_piece_python(
                flat, ids, bounds, self.window, self.tally, self.frozen,
                self.chain, p[span])
            self.window = int(ids[-1])
            st[_S_PDF_NS] += time.perf_counter_ns() - start
        start, draw = time.perf_counter_ns(), int(st[_S_DRAW])
        retained, used = _walk_python(
            p[span], None if self.fill is None
            else self.draws[draw:self.drawn], self.cap, codes[span], seen,
            int(st[_S_RETAINED]))
        st[_S_EVAL_NS] += time.perf_counter_ns() - start
        kept, nk = np.flatnonzero(codes[span] == 0), int(st[_S_NK])
        self.kept[nk:nk + kept.size] = kept + lo
        for buffer, values in zip(self.buffers[1:4], (
                ids, bounds, np.diff(np.searchsorted(kept, bounds)))):
            buffer[:values.size] = values
        st[_S_RETAINED], st[_S_DRAW], st[_S_NK], st[_S_NW] = (
            retained, draw + used, nk + kept.size, ids.size)
        st[_S_CAPPED] += np.count_nonzero(codes[span] == 2)
        st[_S_SEEN] += hi - lo
        return hi - lo


def parse_events(data, labeled: bool, rows: int, start: int = 0,
                 stop: int | None = None, into=None):
    """The ``rows`` event rows that ``data[start:stop]`` begins with, as
    ``(columns, end)``, or None.

    ``data`` is bytes or a bytearray, ``start`` a line start in it and
    ``stop`` (the end of ``data`` when None) a line end or the end of the
    file's last row.  ``end`` is the offset in ``data`` just past the rows,
    where the next call resumes.  The columns ``(t, x, y, p, labels)`` are
    int64, ``p`` and ``labels`` uint8 (``labels`` is None unless
    ``labeled``): fresh arrays, or the arrays of ``into``, which the rows
    are written into.  Returns None when the compiled parser is not
    available, rejects a row, or finds fewer rows: then the rows need the
    line loop.  Raises ValueError for offsets outside ``data`` or ``into``
    arrays that are not ``rows`` contiguous, writable values of those
    dtypes.
    """
    kernel = _kernel()
    if kernel is None:
        return None
    stop = len(data) if stop is None else stop
    if not 0 <= start <= stop <= len(data):
        raise ValueError("need 0 <= start <= stop <= len(data)")
    dtypes = [np.int64] * 3 + [np.uint8, np.uint8 if labeled else None]
    if into is None:
        into = [None if d is None else np.empty(rows, d) for d in dtypes]
    elif any((c is None) != (d is None) or c is not None and (
            c.dtype != d or c.shape != (rows,) or not c.flags.writeable
            or not c.flags.c_contiguous)
            for c, d in zip(into, dtypes, strict=True)):
        raise ValueError(f"need columns of {rows} writable contiguous "
                         f"values: t, x, y int64, p and labels uint8")
    used = ctypes.c_int64()
    got = kernel.parse_events(
        _address(data) + start, stop - start, labeled, rows,
        *(None if c is None else _array_address(c) for c in into),
        ctypes.byref(used))
    return (tuple(into), start + used.value) if got == rows else None


def scan_events(data, stop: int, labeled: bool,
                top: np.ndarray) -> int | None:
    """The number of event rows in ``data[:stop]`` (bytes or a bytearray),
    which starts at a line start, checked as :func:`parse_events` checks
    them, or None.

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


def format_rows(n: int, columns, out, write) -> bool:
    """Format ``n`` rows of ``columns``, comma-separated and each ending in
    a newline, into ``out``, a writable contiguous uint8 array, as many at
    a time as fit at their widest, and pass each part to ``write``, as a
    memoryview of ASCII bytes, before the next is formatted.  Returns
    False, with nothing written, when the compiled kernels are not
    available.

    A column is an integer array of ``n`` values or a range of ``n``
    consecutive integers, each written in decimal, or a pair ``(table,
    index)``: a uint8 matrix whose rows are ASCII text NUL-padded on the
    right, and ``n`` row numbers, row ``i`` written as ``table[index[i]]``
    without its padding.  int64 and uint8 values are read where they are;
    other integers are converted to int64 first.

    Raises ValueError for a column that does not fit that description, or
    an ``out`` too small for a row; a row number outside its table is found
    as the rows are formatted, so the parts before it have been written.
    """
    kernel = _kernel()
    if kernel is None:
        return False
    n, ncols = int(n), len(columns)
    # For each column, what format_rows reads: the address of its values,
    # its start, its table's address, width and rows, and whether its
    # values are uint8; then the next row to format.
    meta, widest = [0] * (6 * ncols + 1), ncols
    keep = []  # the arrays whose addresses the kernel reads
    for c, col in enumerate(columns):
        if isinstance(col, tuple):
            table, col = np.ascontiguousarray(col[0], np.uint8), col[1]
            if table.ndim != 2:
                raise ValueError("need a 2-D table")
            keep.append(table)
            meta[2 * ncols + c] = _array_address(table)
            meta[5 * ncols + c], meta[3 * ncols + c] = table.shape
            widest += table.shape[1]
        else:
            widest += 20  # the sign and 19 digits
        if isinstance(col, range):
            lo, hi = col.start, col.stop - 1
            if len(col) != n or col.step != 1 or lo < -2**63 or hi >= 2**63:
                raise ValueError(f"need a range of {n} consecutive int64 "
                                 f"values")
            meta[ncols + c] = lo
            continue
        values = np.asarray(col)
        if values.dtype.kind not in "iub" or values.shape != (n,):
            raise ValueError(f"need {n} integers in one dimension")
        narrow = values.dtype == _UINT8
        if not ((narrow or values.dtype == _INT64)
                and values.flags.c_contiguous):
            values = np.ascontiguousarray(values, _UINT8 if narrow
                                          else _INT64)
        keep.append(values)
        meta[c], meta[4 * ncols + c] = _array_address(values), narrow
    meta = np.array(meta, np.int64)
    if out.shape[0] < widest:
        raise ValueError(f"need room for a row of {widest} bytes")
    at = _array_address(meta)
    while meta[-1] < n:
        used = kernel.format_rows(n, ncols, at, _array_address(out),
                                  out.shape[0], at + 48 * ncols)
        if used < 0:
            raise ValueError(f"need {n} row numbers within the table")
        write(out.data[:used])
    return True


def implementation() -> str:
    """Which kernels run in this process: "compiled", or "python" (the
    Python twins, evio's line loop in place of the event parser and scan,
    and its numpy row layout in place of the row formatter)."""
    return "python" if _kernel() is None else "compiled"


def _walk_python(p, draws, alpha, codes, k0=0, retained0=0):
    """The walk over p, given a draw for each event or None; returns
    ``(retained, used)``."""
    retained, used, out = retained0, 0, []
    append = out.append
    # Without draws, a draw of 0.0 accepts exactly the events with p > 0.
    uv = [0.0] * p.shape[0] if draws is None else draws[:p.shape[0]].tolist()
    for k, pk in enumerate(p.tolist(), k0):
        if k and retained > alpha * k:
            append(2)
        else:
            u = uv[used]
            used += 1
            if u < pk:
                append(0)
                retained += 1
            else:
                append(1)
    codes[:] = out
    return retained, 0 if draws is None else used


def _score_piece_python(flat, ids, bounds, window, tally, frozen, chain, p):
    """The twin of the window scorer, given the id, tally and map of the
    window open before the piece: returns the tally and map of the window
    open after it."""
    from .density import SparseScores, occupancy_values, sparse_scores
    geometry, alpha, params, prior = chain
    for wid, i0, i1 in zip(ids.tolist(), bounds[:-1].tolist(),
                           bounds[1:].tolist()):
        if wid != window:
            if wid == 1:
                frozen = SparseScores(geometry, _NO_PIXELS, _NO_SCORES,
                                      float(alpha))
            else:
                # After a gap no pixel is active.
                pixels, counts = tally if wid == window + 1 else _IDLE
                frozen = sparse_scores(geometry, pixels,
                                       occupancy_values(counts), alpha,
                                       params, prior)
            window, tally = wid, _IDLE
        pixels, inverse, counts = np.unique(flat[i0:i1], return_inverse=True,
                                            return_counts=True)
        p[i0:i1] = frozen.lookup(pixels)[inverse]
        tally = _merge_tallies(tally, (pixels, counts))
    return tally, frozen


def _merge_tallies(a, b):
    """The union of two tallies, each of ascending distinct pixels and
    their counts (int64), with the counts of shared pixels summed."""
    if not a[0].size:
        return b
    pixels = np.concatenate([a[0], b[0]])
    order = np.argsort(pixels, kind="stable")  # merges the sorted runs
    pixels = pixels[order]
    first = np.flatnonzero(np.r_[True, pixels[1:] != pixels[:-1]])
    counts = np.concatenate([a[1], b[1]])[order]
    return pixels[first], np.add.reduceat(counts, first)


def _data_offset():
    """Where, up to 64 bytes in, an ndarray object holds ``a.ctypes.data``,
    found on a probe array and a view; None where it is not found, and
    then no compiled kernel is used."""
    probes = np.empty(1), np.empty(3)[1:]
    for at in range(8, 64, 8):
        if sys.implementation.name == "cpython" and all(
                ctypes.c_void_p.from_address(id(a) + at).value
                == a.ctypes.data for a in probes):
            return at
    return None


_DATA_AT = _data_offset()


def _array_address(a: np.ndarray) -> int:
    """The address of a contiguous array's data, read from the array
    object, a path several times cheaper than ``a.ctypes.data``."""
    if not isinstance(a, np.ndarray):
        raise TypeError(f"need an array, not {type(a).__name__}")
    return ctypes.c_void_p.from_address(id(a) + _DATA_AT).value


def _address(data) -> int:
    """The address of the bytes of data, bytes or a bytearray, valid while
    data lives and, for a bytearray, keeps its size."""
    if isinstance(data, bytearray) and data:
        return ctypes.addressof(ctypes.c_char.from_buffer(data))
    if not isinstance(data, (bytes, bytearray)):
        raise ValueError("need bytes or a bytearray")
    return ctypes.cast(ctypes.c_char_p(bytes(data)), ctypes.c_void_p).value


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
    """The compiled library, or None when it cannot be built or loaded,
    or where :func:`_array_address` cannot read an array's address.

    Loaded once per process; a cached file that is missing, damaged or
    unloadable is rebuilt once.  Its name carries the interpreter's cache
    tag and the machine, then a digest of the source and the flags.
    """
    if _DATA_AT is None:
        return None
    tag = f"{sys.implementation.cache_tag}-{platform.machine()}"
    key = hashlib.sha256("\0".join(
        (_SOURCE, *_COMPILE, tag)).encode()).hexdigest()[:20]
    path = _CACHE_DIR / f"capwalk-{tag}-{key}.so"
    lib = _load(path)
    if lib is None and _build(path):
        lib = _load(path)
        _prune(path, tag)
    return lib


def _prune(path: Path, tag: str) -> None:
    """Remove the other libraries built for this cache tag and machine, and
    those named without them, from before names carried them: each was
    built from another source, so no process loads it again.  A process
    that has one loaded keeps its mapping."""
    stale = re.compile(rf"capwalk-({re.escape(tag)}-)?[0-9a-f]{{20}}\.so")
    for old in path.parent.glob("capwalk-*.so"):
        if old != path and stale.fullmatch(old.name):
            with contextlib.suppress(OSError):
                old.unlink()


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
