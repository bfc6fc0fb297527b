"""The compiled kernels: the window pass, the budget-cap walk, the score
sigmoid, the window scorer, the event parser and scan, and the row
formatter.

A push of :class:`evdown.pipeline.Downsampler` decides a piece of a
stream in three kernel calls, each with one entry here: the window pass
(:func:`_window_pass`), the window scorer (:class:`_Scorer`, ``poisson``
only) and the piece walk (:func:`_walk_piece`).  The push builds every
array it hands them, and none of them checks its arguments again; their
docstrings state what they take.  The window pass writes each event's
window id and the piece's nonempty windows, dividing once per window
rather than once per event.  The cap is a sequential state machine.
Event ``k`` (0-based, stream-wide) is dropped before evaluation when
``k > 0`` and ``retained > alpha * k``, and a dropped event consumes no
draw, so which draw an event sees depends on every earlier decision.
Such a walk cannot be vectorized exactly in numpy.  The piece walk
applies it and, in the same pass, writes the positions of the accepted
events, the capped count and each window's retained count; it reads the
draws the last piece left unused and then blocks of fresh ones, drawn
only once those run out, so no array of draws is joined to another.  The
sigmoid ``1 / (1 + exp(-x))`` could be vectorized, but numpy's vector
``exp`` does not round as libm's scalar ``exp`` does on every input, so
scores would depend on the CPU numpy runs on.  The window scorer does all
the work of scoring one piece of a stream in one call: for each window, a
radix sort of its pixels, their tally, a merge walk against the window's
map that writes each event's probability, and the freeze of the next
window's map from the tally.  The freeze runs the chain of
:func:`evdown.density.sparse_scores` with the same bits: the mean is
summed in numpy's pairwise order (:func:`pairwise_sum` in the C source,
held to ``np.add.reduce`` by a test), and without a prior the sigmoid
runs once per occupancy class ``min(count, 37)`` rather than once per
pixel.

These four kernels have two implementations with bit-identical results:

* C loops, compiled together on first use with the system C compiler
  (``cc``) into this package's ``__pycache__`` and loaded with
  :mod:`ctypes`; no build step is needed, and later processes load the
  cached file;
* Python twins (the window pass's is :func:`evdown.events.window_ids`
  and :func:`evdown.events.window_spans`; the walk's is a loop over
  Python floats, then numpy over the codes; ``math.exp`` is libm's
  ``exp``; the window scorer's is ``np.unique``, ``sparse_scores`` and
  :meth:`evdown.density.SparseScores.lookup`), which run whenever the C
  loops cannot be built or loaded (no compiler, an unwritable cache, a
  failed compile or load, a library lacking a kernel).

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

import contextlib
import ctypes
import functools
import hashlib
import math
import os
import platform
import re
import sys
from pathlib import Path

import numpy as np

from .events import _check_window_limit, window_ids, window_spans

# No -ffast-math, -Ofast, -fopenmp-simd or -march=native: ``alpha * k``
# must round exactly as Python's float multiply does, and ``exp`` must stay
# libm's scalar one rather than a vector variant.  -std=c99 makes the
# compiler round to double even on targets with excess precision (x87), and
# -ffp-contract=off keeps it from fusing a multiply and an add into one
# rounding, as numpy never does.
_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <string.h>

/* The windows of the n sorted timestamps t, each at least t0: the window
   (t[i] - t0) / t_us + 1 of each event to windows, and the nonempty
   windows, window ids[w] holding events bounds[w] .. bounds[w + 1] - 1.
   One division per window, not per event: an event stays in the window
   before it while its offset from that window's start is below t_us, a
   test in unsigned offsets that cannot wrap.  The caller keeps every id
   at most INT64_MAX.  Returns the number of windows, or -1 when there
   would be more than room. */
int64_t window_pass(const int64_t *t, int64_t n, int64_t t0, int64_t t_us,
                    int64_t *windows, int64_t *ids, int64_t *bounds,
                    int64_t room)
{
    uint64_t span = (uint64_t)t_us, start = 0;
    int64_t nw = 0, id = 0;
    for (int64_t i = 0; i < n; i++) {
        uint64_t d = (uint64_t)t[i] - (uint64_t)t0;
        if (!nw || d - start >= span) {
            if (nw == room)
                return -1;
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

/* The cap walk over events i .. n - 1 of a piece whose event i is event
   k0 + i of the stream and whose window w holds events bounds[w] ..
   bounds[w + 1] - 1.  st holds the walk's state, read and updated: the
   next event i, its window w, the events retained in the stream, and the
   events kept and capped in the piece.  Event k is capped (code 2) when
   k > 0 and retained > alpha * k; any other takes the next draw of
   u[0:nu], or 0.0 without u, and is accepted (code 0) when the draw is
   below p[i], else rejected (code 1); an accepted event's position goes
   to kept and counts in per_window[w].  The walk stops before an event
   that needs a draw when u has none left; returns the draws used. */
int64_t cap_walk(const double *p, int64_t n, const int64_t *bounds,
                 const double *u, int64_t nu, double alpha, int64_t k0,
                 uint8_t *codes, int64_t *kept, int64_t *per_window,
                 int64_t *st)
{
    int64_t i = st[0], w = st[1], retained = st[2], nk = st[3];
    int64_t capped = st[4], di = 0;
    for (; i < n; i++) {
        int64_t k = k0 + i;
        if (i == bounds[w + 1])
            w++;
        if (k && (double)retained > alpha * (double)k) {
            codes[i] = 2;
            capped++;
        } else if (u && di == nu)
            break;
        else if ((u ? u[di++] : 0.0) < p[i]) {
            codes[i] = 0;
            retained++;
            kept[nk++] = i;
            per_window[w]++;
        } else
            codes[i] = 1;
    }
    st[0] = i;
    st[1] = w;
    st[2] = retained;
    st[3] = nk;
    st[4] = capped;
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
   any rejected one, so a later call goes on with the rows that follow.  Returns the number of rows, or -1 - i
   for the first row i that is rejected or precedes the row before it. */
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
   flat pixel indices flat holds, each below n_pixels <= 2**bits.

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
   prb one double more.  The piece needs 4 * longest + PASSES * RADIX
   values, for its longest window, and the tally's pairs plus longest
   pairs; when it needs more than there is, nothing is read or written
   but st[3] and st[4], which receive the two sizes, and -2 is returned.
   Otherwise returns 0, or -1 for an index that is negative or not below
   n_pixels, before any score of its window is written. */
int64_t score_piece(const int64_t *flat, int64_t bits, const int64_t *ids,
                    const int64_t *bounds, int64_t nw, int64_t n_pixels,
                    const double *consts, const double *occ,
                    const double *weights, double *p, int64_t *scratch,
                    pair *tal, pair *tmp, pair *map, double *prb,
                    const int64_t *room, int64_t *ends, int64_t *st)
{
    struct chain c = {n_pixels, consts[0], consts[1], consts[2], consts[3],
                      occ, weights};
    struct tally t = {tal, tmp, ends, st[2]};
    int passes = bits > DIGIT ? (int)((bits + DIGIT - 1) / DIGIT) : 1;
    int64_t longest = 0, m = st[1];
    for (int64_t w = 0; w < nw; w++)
        if (bounds[w + 1] - bounds[w] > longest)
            longest = bounds[w + 1] - bounds[w];
    if (4 * longest + PASSES * RADIX > room[0]
            || ends[t.runs] + longest > room[1]) {
        st[3] = 4 * longest + PASSES * RADIX;
        st[4] = ends[t.runs] + longest;
        return -2;
    }
    int64_t (*hist)[RADIX] = (int64_t (*)[RADIX])(scratch + 4 * longest);
    /* The sort moves each event's pixel and position together, so a pass
       writes one place in memory per event, not two. */
    pair *rec[2] = {(pair *)scratch, (pair *)(scratch + 2 * longest)};

    for (int64_t w = 0; w < nw; w++) {
        const int64_t *f = flat + bounds[w];
        int64_t n = bounds[w + 1] - bounds[w], k = 0;
        pair *in = NULL, *mine;
        uint64_t bad = 0;

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
        for (int64_t i = 0; i < n; i++) {
            uint64_t v = (uint64_t)f[i];
            bad |= v >= (uint64_t)n_pixels;
            for (int d = 0; d < passes; d++)
                hist[d][(v >> (DIGIT * d)) & (RADIX - 1)]++;
        }
        if (bad)
            return -1;
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
_COMPILE = ("cc", "-std=c99", "-O2", "-ffp-contract=off", "-shared", "-fPIC",
            "-x", "c", "-", "-lm")
_COMPILE_TIMEOUT_S = 60
_CACHE_DIR = Path(__file__).resolve().parent / "__pycache__"
_DIGEST_BYTES = 32
# The Python loops convert this many values at a time to Python floats,
# so their memory does not grow with the input.
_BLOCK = 1 << 14
# Fresh variates are drawn this many at a time.  A block stays in cache and
# is reused from the heap; one array of draws for a whole piece of 1M
# events is fresh memory that the process faults in on every push.
_DRAW_BLOCK, _DRAW_MIN = 1 << 16, 1 << 12
_P, _I64 = ctypes.c_void_p, ctypes.c_int64
# A map without active pixels, and the tally of a window without events.
_NO_PIXELS, _NO_SCORES = np.empty(0, np.int64), np.empty(0, np.float64)
_IDLE = (_NO_PIXELS, _NO_PIXELS)
# The functions _SOURCE exports, with their (argtypes, restype): a library
# lacking any of them is rebuilt.  pairwise_sum is the freeze's sum, exported
# so that a test can hold it to numpy's.
_KERNELS = {
    "window_pass": ((_P, _I64, _I64, _I64, _P, _P, _P, _I64), _I64),
    "cap_walk": ((_P, _I64, _P, _P, _I64, ctypes.c_double, _I64, _P, _P, _P,
                  _P), _I64),
    "expit": ((_P, _P, _I64), None),
    "parse_events": ((_P, _I64, ctypes.c_int, _I64, *[_P] * 6), _I64),
    "scan_events": ((_P, _I64, ctypes.c_int, _P), _I64),
    "format_rows": ((_I64, _I64, _P, _P, _P, _P, _P), _I64),
    "pairwise_sum": ((_P, _I64), ctypes.c_double),
    "score_piece": ((_P, _I64, _P, _P, _I64, _I64, *[_P] * 12), _I64),
}


def _window_pass(t, t0: int, t_us: int):
    """The windows of one piece of a stream: ``(windows, ids, bounds)``,
    each event's window id as :func:`evdown.events.window_ids` gives it and
    the nonempty windows as :func:`evdown.events.window_spans` does (its
    Python twin), window ``ids[w]`` holding events ``bounds[w] ..
    bounds[w + 1] - 1``.  ``t``, unchecked, is a nonempty contiguous int64
    array, sorted and from ``t0`` on; ``t_us`` is positive.

    Raises ValueError as :func:`~evdown.events.window_ids` does, before
    anything is computed; the compiled pass, which divides once per window,
    also refuses timestamps that decrease rather than write past its arrays.
    """
    n, top = t.shape[0], int(t[-1])
    _check_window_limit(top, t0, t_us)
    kernel = _kernel()
    if kernel is None:
        windows = window_ids(t, t0, t_us, top)
        return (windows, *window_spans(windows))
    room = max(0, min(n, (top - t0) // t_us - (int(t[0]) - t0) // t_us + 1))
    # One array holds the windows, the ids and the bounds.
    out = np.empty(n + 2 * room + 1, np.int64)
    at = _array_address(out)
    nw = kernel.window_pass(_array_address(t), n, t0, t_us, at, at + 8 * n,
                            at + 8 * (n + room), room)
    if nw < 0:
        raise ValueError("timestamps must not decrease")
    return out[:n], out[n:n + nw], out[n + room:n + room + nw + 1]


def _walk_piece(p, bounds, alpha, k0: int, retained0: int, draws, more):
    """Decide the events ``k0 .. k0 + len(p) - 1`` of one piece of a
    stream, resumed after ``retained0`` of the events before were kept.

    Unchecked: ``p`` (contiguous float64) holds each event's acceptance
    probability, ``bounds`` (contiguous int64) the nonempty windows that
    hold them, as :func:`_window_pass` gives them, ``0 <= retained0 <=
    k0``, and ``draws`` is contiguous float64 or None.  Event ``k`` is
    capped (code 2, taking no draw) when ``k > 0`` and ``retained > alpha *
    k`` (never with ``alpha = math.inf``); any other takes the next draw
    and is accepted (code 0) iff it is below its ``p``, else rejected (code
    1).  ``draws`` holds the variates the walk before left unused, or is
    None for the walk without draws, which accepts iff ``p`` is above 0;
    ``more(n)`` returns ``n`` fresh ones, drawn only once ``draws`` runs
    out, in blocks of the events left, but at least 4,096 and at most
    65,536.  Each evaluated event takes the next variate of the stream, so
    two resumed walks decide as one walk over both pieces.

    Returns ``(codes, kept, capped, window_kept, retained, left)``: the
    codes (uint8), the positions of the accepted events in the piece, how
    many events were capped, how many were accepted in each window, how
    many the stream has retained, and the draws left unused (None without
    draws).  Raises ValueError when ``more`` returns another number of
    draws.
    """
    n = p.shape[0]
    codes = np.empty(n, np.uint8)
    kernel = _kernel()
    if kernel is None:
        st = [0, retained0]

        def walk(u):
            st[1], used, st[0] = _walk_python(p, u, alpha, codes, k0, st[1],
                                              st[0])
            return used, st[0]

        left = _walk_with_draws(walk, n, draws, more)
        kept = np.flatnonzero(codes == 0)
        return (codes, kept, int(np.count_nonzero(codes == 2)),
                np.diff(np.searchsorted(kept, bounds)), st[1], left)
    # The prefix cap bound: an event k > 0 is accepted only when retained
    # <= alpha * k before it, so by the piece's end the stream has kept at
    # most floor(alpha * (k0 + n - 1)) + 1 events.
    room = n
    if 0.0 <= alpha < 1.0:
        room = max(0, min(n, math.floor(alpha * (k0 + n - 1)) + 1
                          - retained0))
    nw = bounds.shape[0] - 1
    # One array holds the kept positions, the per-window counts and the
    # walk's state.
    out = np.zeros(room + nw + 5, np.int64)
    out[room + nw + 2] = retained0
    at = _array_address(out)
    args = (_array_address(p), n, _array_address(bounds))
    outputs = (_array_address(codes), at, at + 8 * room, at + 8 * (room + nw))

    def walk(u):
        draw = (None, 0) if u is None else (_array_address(u), u.shape[0])
        used = kernel.cap_walk(*args, *draw, alpha, k0, *outputs)
        return used, int(out[room + nw])

    left = _walk_with_draws(walk, n, draws, more)
    _, _, retained, nk, capped = out[room + nw:].tolist()
    return codes, out[:nk], capped, out[room:room + nw], retained, left


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


class _Scorer:
    """The window scorer of a stream pushed in pieces: alpha in window 1,
    else the sparse map frozen from the window before, or from no tally
    after a gap.  ``chain`` holds the arguments of
    :func:`evdown.density.sparse_scores` but the tally, ``(geometry,
    alpha, params, prior)``, the prior None or of ``geometry``.

    It holds what crosses a piece boundary: the open window's id, its map
    and its tally.  The compiled kernel keeps them, and its scratch, in
    buffers it reuses, grown to the largest piece and tally so far; the
    tally is a stack of runs it merges as they pile up (``struct tally``
    in the C source), so a piece costs in proportion to its own tally.
    The Python twin keeps the tally as one pair of arrays and the map as a
    :class:`evdown.density.SparseScores`, and runs ``np.unique``,
    ``sparse_scores`` and its lookup window by window.
    """

    def __init__(self, chain):
        self.chain, self.kernel = chain, _kernel()
        self.window, self._tally, self._frozen = 0, _IDLE, None
        if self.kernel is None:
            return
        from .density import _OCCUPANCY
        geometry, alpha, params, prior = chain
        self.consts = np.array([alpha, params.slope, params.midpoint,
                                1.0 if prior is None else prior.peak])
        self.fixed = (geometry.n_pixels, self.consts.ctypes.data,
                      _OCCUPANCY.ctypes.data,
                      None if prior is None else prior.weights.ctypes.data)
        # The open window, the size of its map, the runs of its tally, and
        # the sizes the kernel asks for when it needs more room.
        self.state, self.room = np.zeros(5, np.int64), np.zeros(2, np.int64)
        self.ends = np.zeros(65, np.int64)
        self.scratch, self.prb = np.empty(0, np.int64), np.empty(1)
        self.tal = self.tmp = self.map = np.empty((0, 2), np.int64)
        self._grow(0, 0)

    def score(self, flat, ids, bounds, p) -> None:
        """Write the score of each event of the next piece to ``p`` (a
        contiguous, writable float64 array), given the events' flat pixel
        indices (contiguous int64) and windows as :func:`_window_pass`
        gives them, the ids from the open window's on; none is checked.
        Raises ValueError for an index outside the sensor, before any
        score of its window is written.
        """
        if self.kernel is None:
            self._tally, self._frozen = _score_piece_python(
                flat, ids, bounds, self.window, self._tally, self._frozen,
                self.chain, p)
            self.window = int(ids[-1]) if ids.size else self.window
            return
        piece = (_array_address(flat), (self.fixed[0] - 1).bit_length(),
                 _array_address(ids), _array_address(bounds), ids.shape[0],
                 *self.fixed, _array_address(p))
        while (done := self.kernel.score_piece(*piece, *self.buffers)) == -2:
            self._grow(*self.state[3:].tolist())
        if done < 0:
            raise ValueError(f"flat pixel indices must be in "
                             f"[0, {self.fixed[0]})")

    def _grow(self, values: int, pairs: int) -> None:
        """Room for ``values`` scratch values and ``pairs`` tally pairs, a
        quarter more than asked, keeping the open window's tally and map."""
        if values > self.room[0]:
            self.scratch = np.empty(values * 5 // 4, np.int64)
        if pairs > self.room[1]:
            size = pairs * 5 // 4 + 1
            m, runs = self.state[1:3].tolist()
            used = self.ends[runs]
            tal, self.tmp, maps = (np.empty((size, 2), np.int64)
                                   for _ in range(3))
            prb = np.empty(size + 1)
            tal[:used], maps[:m] = self.tal[:used], self.map[:m]
            prb[:m + 1] = self.prb[:m + 1]
            self.tal, self.map, self.prb = tal, maps, prb
        self.room[:] = self.scratch.size, self.tal.shape[0]
        self.buffers = tuple(a.ctypes.data for a in (
            self.scratch, self.tal, self.tmp, self.map, self.prb, self.room,
            self.ends, self.state))


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
    # Each column's integers' address, table's address, start and width,
    # the four arrays format_rows reads, in one.
    meta = np.zeros((4, ncols), np.int64)
    ints, tables, start, width = meta
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
            ints[c], tables[c] = _array_address(index), _array_address(table)
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
            ints[c] = _array_address(values)
            lo, hi = int(values.min()), int(values.max())
        width[c] = max(len(str(lo)), len(str(hi)))  # the sign included
    out = np.empty(n * int(width.sum() + ncols), np.uint8)
    at = _array_address(meta)
    used = kernel.format_rows(n, ncols, at, at + 16 * ncols, at + 8 * ncols,
                              at + 24 * ncols, _array_address(out))
    return out.data[:used]


def implementation() -> str:
    """Which kernels run in this process: "compiled", or "python" (the
    Python twins, evio's line loop in place of the event parser and scan,
    and its numpy row layout in place of the row formatter)."""
    return "python" if _kernel() is None else "compiled"


def _walk_with_draws(walk, n, draws, more):
    """Run ``walk(u) -> (used, stop)`` over the leftover draws, then, while
    they run out before event ``n``, over blocks of fresh ones, at most
    _DRAW_BLOCK: the events left, but at least _DRAW_MIN, so that small
    pieces do not draw each time; return the draws left unused."""
    used, stop = walk(draws) if draws is None or draws.size else (0, 0)
    while stop < n:
        block = min(_DRAW_BLOCK, max(n - stop, _DRAW_MIN))
        draws = np.ascontiguousarray(more(block), np.float64)
        if draws.shape != (block,):
            raise ValueError(f"more({block}) must return {block} draws")
        used, stop = walk(draws)
    return None if draws is None else draws[used:]


def _walk_python(p, draws, alpha, codes, k0=0, retained0=0, start=0):
    """The walk over events ``start ..`` of p; returns ``(retained, used,
    stop)``, stop being the event before which the draws ran out, or the
    length of p."""
    retained = retained0
    di = 0
    for i0 in range(start, p.shape[0], _BLOCK):
        pv = p[i0:i0 + _BLOCK].tolist()
        # Without draws, a draw of 0.0 accepts exactly the events with p > 0.
        uv = ([0.0] * len(pv) if draws is None
              else draws[di:di + len(pv)].tolist())
        nu = len(uv)
        j = 0
        k = k0 + i0
        block = []
        append = block.append
        for pk in pv:
            if k and retained > alpha * k:
                append(2)
            elif j == nu:
                break
            else:
                u = uv[j]
                j += 1
                if u < pk:
                    append(0)
                    retained += 1
                else:
                    append(1)
            k += 1
        codes[i0:i0 + len(block)] = block
        di += j
        if len(block) < len(pv):
            return retained, di, i0 + len(block)
    return retained, 0 if draws is None else di, p.shape[0]


def _score_piece_python(flat, ids, bounds, window, tally, frozen, chain, p):
    """The twin of the window scorer, given the id, tally and map of the
    window open before the piece: returns the tally and map of the window
    open after it."""
    from .density import SparseScores, occupancy_values, sparse_scores
    geometry, alpha, params, prior = chain
    if flat.size and (flat.min() < 0 or flat.max() >= geometry.n_pixels):
        raise ValueError(f"flat pixel indices must be in "
                         f"[0, {geometry.n_pixels})")
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


def _array_address(a: np.ndarray) -> int:
    """The address of a contiguous array's data; for a writable one, by a
    path several times cheaper than ``a.ctypes.data``."""
    if a.flags.writeable and a.nbytes:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    return a.ctypes.data


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
    unloadable is rebuilt once.  Its name carries the interpreter's cache
    tag and the machine, then a digest of the source and the flags.
    """
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
