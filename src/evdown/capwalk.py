"""The compiled kernels: the window pass, the budget-cap walk, the score
sigmoid, the window scorer, the event parser and scan, and the row
formatter.

A push of :class:`evdown.pipeline.Downsampler` decides a piece of a
stream in three calls: :func:`window_pass`, the window scorer
(``poisson`` only) and :func:`walk_piece`.  The window pass writes each
event's window id and the piece's nonempty windows, dividing once per
window rather than once per event.  The cap is a sequential state
machine.  Event ``k`` (0-based, stream-wide) is dropped before evaluation
when ``k > 0`` and ``retained > alpha * k``, and a dropped event consumes
no draw, so which draw an event sees depends on every earlier decision.
Such a walk cannot be vectorized exactly in numpy.  The piece walk
applies it and, in the same pass, writes the positions of the accepted
events, the capped count and each window's retained count; it reads the
draws the last piece left unused and then blocks of fresh ones, drawn
only once those run out, so no array of draws is joined to another.  The
sigmoid ``1 / (1 + exp(-x))`` could be vectorized, but numpy's vector
``exp`` does not round as libm's scalar ``exp`` does on every input, so
scores would depend on the CPU numpy runs on.  The window scorer,
:func:`score_piece`, does all the work of scoring one piece of a stream
in one call: for each window, a radix sort of its pixels, their tally, a
merge walk against the window's map that writes each event's
probability, and the freeze of the next window's map from the tally.  The
freeze runs the chain of :func:`evdown.density.sparse_scores` with the
same bits: the mean is summed in numpy's pairwise order
(:func:`pairwise_sum` in the C source, held to ``np.add.reduce`` by a
test), and without a prior the sigmoid runs once per occupancy class
``min(count, 37)`` rather than once per pixel.

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

import ctypes
import functools
import hashlib
import math
import os
import platform
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
   below p[i], else rejected (code 1).  With kept set, an accepted event's
   position goes there and counts in per_window[w].  The walk stops before
   an event that needs a draw when u has none left; returns the draws
   used. */
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
            if (kept) {
                kept[nk] = i;
                per_window[w]++;
            }
            nk++;
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
   act[0:m] and their scores prb[0:m]; prb[m] scores every other pixel.
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

/* prb[0:k + 1], the map frozen from the tally pix[0:k], cnt[0:k].
   Without a prior a pixel's score follows from its class alone, so the
   sigmoid runs once per class; prb holds each pixel's g first, for the
   sum. */
static void freeze(const struct chain *c, const int64_t *pix,
                   const int64_t *cnt, int64_t k, double *prb)
{
    int64_t n_rest = c->n_pixels - k;
    double lo = n_rest ? 0.0 : INFINITY, hi = n_rest ? 0.0 : -INFINITY;
    double g[CLASSES], s[CLASSES];
    for (int64_t i = 0; i < k; i++) {
        double base = c->occ[class_of(cnt[i])];
        if (c->weights) {
            double w = c->weights[pix[i]] / c->peak;
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
            prb[i] = g[class_of(cnt[i])];
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
            prb[i] = s[class_of(cnt[i])];
    }
    prb[k] = sigmoid(c, g_rest, shift);
}

/* The union of two tallies of ascending distinct pixels, their counts
   summed, in pix[0:k] and cnt[0:k]; returns k. */
static int64_t merge(const int64_t *pa, const int64_t *ca, int64_t ka,
                     const int64_t *pb, const int64_t *cb, int64_t kb,
                     int64_t *pix, int64_t *cnt)
{
    int64_t i = 0, j = 0, k = 0;
    while (i < ka || j < kb) {
        if (j == kb || (i < ka && pa[i] < pb[j])) {
            pix[k] = pa[i];
            cnt[k++] = ca[i++];
        } else if (i == ka || pb[j] < pa[i]) {
            pix[k] = pb[j];
            cnt[k++] = cb[j++];
        } else {
            pix[k] = pa[i];
            cnt[k++] = ca[i++] + cb[j++];
        }
    }
    return k;
}

/* score_piece scores the events of one piece of a stream: window w has
   id ids[w] (ascending) and events bounds[w] .. bounds[w + 1] - 1, whose
   flat pixel indices flat holds, each below n_pixels <= 2**bits.

   The window open before the piece is open: its tally from earlier
   pieces is pix0[0:k0], cnt0[0:k0] and its map act0[0:m0], prb0[0:m0 + 1].
   Each window that opens in the piece gets a map: alpha for every pixel
   in window 1; else the map frozen from the tally of the window before
   it, the open window's earlier tally included, or from no tally after
   a gap.  Then its events are sorted with their positions, an LSD radix
   sort in 11-bit digits, one pass per digit that bits needs (at least
   one), their distinct pixels and counts tallied, and the pixels merge-
   walked against the map, writing each event's score to p.

   scratch holds 4 * longest + PASSES * RADIX + 3 * most + 1 values, for
   the longest window and the largest tally a map is frozen from (at most
   k0 plus the longest window but the last).  out[0] receives the size k
   of the last window's tally in this piece, at scratch[0:k] with its
   counts at scratch[longest:longest + k], and out[1] the size m of the
   last map frozen, -1 when none was; that map is act = scratch +
   4 * longest + PASSES * RADIX and prb = (double *)(act + 2 * most).
   Returns 0, or -1 for an index that is negative or not below n_pixels,
   before any score of its window is written. */
int64_t score_piece(const int64_t *flat, int64_t bits, const int64_t *ids,
                    const int64_t *bounds, int64_t nw, int64_t open,
                    const int64_t *pix0, const int64_t *cnt0, int64_t k0,
                    const int64_t *act0, const double *prb0, int64_t m0,
                    int64_t n_pixels, const double *consts,
                    const double *occ, const double *weights, double *p,
                    int64_t *scratch, int64_t longest, int64_t most,
                    int64_t *out)
{
    struct chain c = {n_pixels, consts[0], consts[1], consts[2], consts[3],
                      occ, weights};
    int passes = bits > DIGIT ? (int)((bits + DIGIT - 1) / DIGIT) : 1;
    int64_t (*hist)[RADIX] = (int64_t (*)[RADIX])(scratch + 4 * longest);
    /* The sort moves each event's pixel and position together, so a pass
       writes one place in memory per event, not two. */
    int64_t (*rec[2])[2] = {(int64_t (*)[2])scratch,
                            (int64_t (*)[2])(scratch + 2 * longest)};
    int64_t *pix = scratch, *cnt = scratch + longest;
    int64_t *act = scratch + 4 * longest + PASSES * RADIX;
    double *prb = (double *)(act + 2 * most);
    const int64_t *map_act = act0;
    const double *map_prb = prb0;
    int64_t m = m0, id = open, k = 0;

    out[1] = -1;
    for (int64_t w = 0; w < nw; w++) {
        const int64_t *f = flat + bounds[w];
        int64_t n = bounds[w + 1] - bounds[w], (*in)[2] = NULL;
        uint64_t bad = 0;

        if (ids[w] != id) {
            /* The tally of window id: its earlier pieces' and this one's. */
            int64_t earlier = id == open ? k0 : 0;
            if (ids[w] != id + 1)
                earlier = k = 0;  /* after a gap no pixel is active */
            if (ids[w] == 1) {
                m = 0;
                prb[0] = c.alpha;
            } else {
                m = merge(pix0, cnt0, earlier, pix, cnt, k, act, act + most);
                freeze(&c, act, act + most, m, prb);
            }
            map_act = act;
            map_prb = prb;
            out[1] = m;
            id = ids[w];
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
            int64_t *h = hist[d], sum = 0, (*to)[2] = rec[(passes - d) & 1];
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
        /* The last pass wrote rec[1], so the tally goes to rec[0]. */
        k = 0;
        for (int64_t i = 0, j = 0; i < n; k++) {
            int64_t v = in[i][0], start = i;
            while (j < m && map_act[j] < v)
                j++;
            double score = j < m && map_act[j] == v ? map_prb[j] : map_prb[m];
            for (; i < n && in[i][0] == v; i++)
                p[bounds[w] + in[i][1]] = score;
            pix[k] = v;
            cnt[k] = i - start;
        }
    }
    out[0] = k;
    return 0;
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
_DRAW_BLOCK = 1 << 16
_P, _I64 = ctypes.c_void_p, ctypes.c_int64
# A map without active pixels, and the tally of a window without events.
_NO_PIXELS, _NO_SCORES = np.empty(0, np.int64), np.empty(0, np.float64)
_IDLE = (_NO_PIXELS, _NO_PIXELS)
# The window scorer's digit histograms: six 11-bit digits cover 63 bits.
_HISTOGRAMS = 6 << 11
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
    "score_piece": ((_P, _I64, _P, _P, _I64, _I64, _P, _P, _I64, _P, _P, _I64,
                     _I64, _P, _P, _P, _P, _P, _I64, _I64, _P), _I64),
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
    k0, retained0 = _resume_point(k0, retained0)
    kernel = _kernel()
    if kernel is None:
        return _walk_python(p, draws, alpha, codes, k0, retained0)[:2]
    bounds = np.array([0, n], np.int64)
    st = np.array([0, 0, retained0, 0, 0], np.int64)
    used = kernel.cap_walk(p.ctypes.data, n, bounds.ctypes.data,
                           None if draws is None else draws.ctypes.data,
                           0 if draws is None else draws.shape[0], alpha, k0,
                           codes.ctypes.data, None, None, st.ctypes.data)
    return int(st[2]), used


def window_pass(t: np.ndarray, t0: int, t_us: int):
    """The windows of one piece of a stream: ``(windows, ids, bounds)``,
    each event's window id as :func:`evdown.events.window_ids` gives it and
    the piece's nonempty windows as :func:`evdown.events.window_spans` does.

    ``t`` holds the piece's timestamps (int64), sorted and at least the
    anchor ``t0``.  The compiled pass divides once per window, not once
    per event, and sizes ``ids`` and ``bounds`` by the windows the piece
    spans; its Python twin is those two functions.

    Raises ValueError as :func:`~evdown.events.window_ids` does, before
    anything is computed, and for a first timestamp below ``t0``; the
    compiled pass also refuses timestamps that decrease, rather than write
    past its arrays.
    """
    t = np.ascontiguousarray(t, np.int64)
    n, t0, t_us = t.shape[0], int(t0), int(t_us)
    if t.ndim != 1 or t_us < 1 or (n and int(t[0]) < t0):
        raise ValueError("need one-dimensional timestamps from t0 on and a "
                         "positive window length")
    if n == 0:
        return t.copy(), _NO_PIXELS.copy(), np.zeros(1, np.int64)
    top = int(t[-1])
    _check_window_limit(top, t0, t_us)
    kernel = _kernel()
    if kernel is None:
        windows = window_ids(t, t0, t_us, top)
        return (windows, *window_spans(windows))
    room = max(0, min(n, (top - t0) // t_us - (int(t[0]) - t0) // t_us + 1))
    windows = np.empty(n, np.int64)
    ids, bounds = np.empty(room, np.int64), np.empty(room + 1, np.int64)
    nw = kernel.window_pass(t.ctypes.data, n, t0, t_us, windows.ctypes.data,
                            ids.ctypes.data, bounds.ctypes.data, room)
    if nw < 0:
        raise ValueError("timestamps must not decrease")
    return windows, ids[:nw], bounds[:nw + 1]


def walk_piece(p: np.ndarray, bounds: np.ndarray, alpha: float, k0: int,
               retained0: int, draws: np.ndarray | None = None, more=None):
    """Decide the events of one piece of a stream: the walk of
    :func:`cap_walk` over its events ``k0 .. k0 + len(p) - 1``, resumed
    after ``retained0`` of the events before were kept, with its windows
    ``bounds`` (as :func:`window_pass` gives them) counted.

    ``draws`` holds the variates the walk before left unused, or is None
    for the walk without draws, and ``more(n)`` returns ``n`` fresh ones.
    Fresh ones are drawn only once ``draws`` runs out, in blocks of at
    most 65,536 and no more than the events left, so no array of draws is
    ever joined to another, and each evaluated event still takes the next
    variate of the stream.

    Returns ``(codes, kept, capped, window_kept, retained, left)``: the
    codes, the positions of the accepted events in the piece, how many
    events were capped, how many were accepted in each window, how many
    the stream has retained, and the draws left unused (None without
    draws).  The compiled walk writes all of them in its pass; its Python
    twin is :func:`cap_walk`'s loop, then numpy over the codes.

    Raises ValueError when the arrays do not fit each other or the resume
    point is impossible.
    """
    p = np.ascontiguousarray(p, np.float64)
    bounds = np.ascontiguousarray(bounds, np.int64)
    n = p.shape[0]
    if (p.ndim != 1 or bounds.ndim != 1 or bounds.shape[0] < 1
            or bounds[0] != 0 or bounds[-1] != n
            or (np.diff(bounds) <= 0).any()):
        raise ValueError("need one-dimensional probabilities and the bounds "
                         "of nonempty windows that hold them")
    if draws is not None:
        draws = np.ascontiguousarray(draws, np.float64)
        if draws.ndim != 1 or more is None:
            raise ValueError("need draws in one dimension and more of them")
    k0, retained0 = _resume_point(k0, retained0)
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
    kept = np.empty(room, np.int64)
    window_kept = np.zeros(bounds.shape[0] - 1, np.int64)
    st = np.array([0, 0, retained0, 0, 0], np.int64)
    # Looked up once: a piece of 1M events takes 16 blocks of draws.
    piece = (p.ctypes.data, n, bounds.ctypes.data)
    outputs = tuple(a.ctypes.data for a in (codes, kept, window_kept, st))

    def walk(u):
        used = kernel.cap_walk(*piece, None if u is None else u.ctypes.data,
                               0 if u is None else u.shape[0], alpha, k0,
                               *outputs)
        return used, int(st[0])

    left = _walk_with_draws(walk, n, draws, more)
    _, _, retained, nk, capped = st.tolist()
    return codes, kept[:nk], capped, window_kept, retained, left


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


def score_piece(flat: np.ndarray, ids: np.ndarray, bounds: np.ndarray,
                window: int, tally, frozen, chain, p: np.ndarray):
    """Score the events of one piece of a stream, window by window, and
    freeze the map of each window that opens in it.

    ``flat`` holds the events' flat pixel indices (int64), and ``ids``
    and ``bounds`` their windows, as :func:`window_pass` gives them.
    ``chain`` holds the arguments of :func:`evdown.density.sparse_scores`
    but the tally: ``(geometry, alpha, params, prior)``.  The window open
    before the piece is ``window`` (0 before the first piece); ``tally``
    holds its distinct pixels, ascending, and their counts (int64) in the
    pieces before, and ``frozen`` its map, a
    :class:`evdown.density.SparseScores`, or None to score every event
    ``alpha``.

    Window 1 scores every event ``alpha``; every other window that opens
    is scored with the map ``sparse_scores`` freezes from the tally of
    the window before it, or from no tally after a gap.  Writes each
    event's score to ``p`` and returns the last window's tally in this
    piece and its map (``frozen`` itself when the piece holds only the
    open window).

    The compiled kernel scores the whole piece in one call; it gives
    ``sparse_scores``' bits, with one sigmoid per occupancy class when
    there is no prior.  Its Python twin runs ``np.unique``,
    ``sparse_scores`` and :meth:`~evdown.density.SparseScores.lookup`
    window by window.

    Raises ValueError when the arrays do not fit each other or the
    windows, and for an index outside the sensor.
    """
    geometry, alpha, params, prior = chain
    n, n_pixels = flat.size, geometry.n_pixels
    if (flat.dtype != np.int64 or flat.ndim != 1
            or not flat.flags.c_contiguous
            or p.dtype != np.float64 or p.shape != (n,)
            or not p.flags.c_contiguous or not p.flags.writeable):
        raise ValueError("need contiguous int64 indices and a writable "
                         "float64 array of their length")
    ids = np.ascontiguousarray(ids, np.int64)
    bounds = np.ascontiguousarray(bounds, np.int64)
    lengths = np.diff(bounds)
    if (ids.ndim != 1 or bounds.shape != (ids.size + 1,) or bounds[0] != 0
            or bounds[-1] != n or (lengths <= 0).any()
            or (ids.size and ids[0] < max(window, 1))
            or (np.diff(ids) <= 0).any()):
        raise ValueError("need nonempty windows that hold the events, with "
                         "ascending ids from the open window's on")
    pixels, counts = (np.ascontiguousarray(a, np.int64) for a in tally)
    if (pixels.ndim != 1 or counts.shape != pixels.shape
            or (pixels.size and (pixels.min() < 0 or pixels.max() >= n_pixels
                                 or counts.min() < 1))):
        raise ValueError("need a tally of pixels on the sensor with "
                         "positive counts")
    if prior is not None and prior.geometry != geometry:
        raise ValueError("prior geometry does not match occupancy geometry")
    kernel = _kernel()
    if kernel is None:
        return _score_piece_python(flat, ids, bounds, window,
                                   (pixels, counts), frozen, chain, p)
    from .density import _OCCUPANCY, SparseScores
    if frozen is None:
        active, scores = _NO_PIXELS, np.array([alpha], np.float64)
    else:
        active = np.ascontiguousarray(frozen.active, np.int64)
        scores = np.append(np.asarray(frozen.probabilities, np.float64),
                           frozen.rest)
        if active.ndim != 1 or scores.shape != (active.size + 1,):
            raise ValueError("need one score per active pixel")
    # Sized as the kernel lays it out: two buffers of (pixel, position)
    # records for the longest window, the digit histograms, and a tally
    # and a map for the largest tally a map is frozen from.
    longest = int(lengths.max(initial=0))
    most = pixels.size + int(lengths[:-1].max(initial=0))
    scratch = np.empty(4 * longest + _HISTOGRAMS + 3 * most + 1, np.int64)
    consts = np.array([alpha, params.slope, params.midpoint,
                       1.0 if prior is None else prior.peak], np.float64)
    weights = None if prior is None else prior.weights.ctypes.data
    out = np.empty(2, np.int64)
    if kernel.score_piece(
            flat.ctypes.data, (n_pixels - 1).bit_length(), ids.ctypes.data,
            bounds.ctypes.data, ids.size, int(window), pixels.ctypes.data,
            counts.ctypes.data, pixels.size, active.ctypes.data,
            scores.ctypes.data, active.size, n_pixels, consts.ctypes.data,
            _OCCUPANCY.ctypes.data, weights, p.ctypes.data,
            scratch.ctypes.data, longest, most, out.ctypes.data) < 0:
        raise ValueError(f"flat pixel indices must be in [0, {n_pixels})")
    k, m = out.tolist()
    if m >= 0:
        maps = scratch[4 * longest + _HISTOGRAMS:]
        prb = maps[2 * most:2 * most + m + 1].view(np.float64)
        frozen = SparseScores(geometry, maps[:m].copy(), prb[:m].copy(),
                              float(prb[m]))
    return (scratch[:k].copy(), scratch[longest:longest + k].copy()), frozen


def merge_tallies(tallies):
    """One tally from several, each of ascending distinct pixels and their
    counts (int64): the union of their pixels, ascending, with the counts
    of shared pixels summed."""
    tallies = [t for t in tallies if t[0].size] or [_IDLE]
    if len(tallies) == 1:
        return tallies[0]
    pixels = np.concatenate([pix for pix, _ in tallies])
    order = np.argsort(pixels, kind="stable")  # merges the sorted runs
    pixels = pixels[order]
    first = np.flatnonzero(np.r_[True, pixels[1:] != pixels[:-1]])
    counts = np.concatenate([cnt for _, cnt in tallies])[order]
    return pixels[first], np.add.reduceat(counts, first)


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


def _resume_point(k0, retained0) -> tuple[int, int]:
    k0, retained0 = int(k0), int(retained0)
    if not 0 <= retained0 <= k0:
        raise ValueError(f"cannot resume after {k0} events with {retained0} "
                         f"retained")
    return k0, retained0


def _walk_with_draws(walk, n, draws, more):
    """Run ``walk(u) -> (used, stop)`` over the leftover draws, then, while
    they run out before event ``n``, over blocks of fresh ones, at most
    _DRAW_BLOCK and no more than the events left; return the draws left
    unused."""
    used, stop = walk(draws) if draws is None or draws.size else (0, 0)
    while stop < n:
        block = min(_DRAW_BLOCK, n - stop)
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
    from .density import SparseScores, occupancy_values, sparse_scores
    geometry, alpha, params, prior = chain
    if flat.size and (flat.min() < 0 or flat.max() >= geometry.n_pixels):
        raise ValueError(f"flat pixel indices must be in "
                         f"[0, {geometry.n_pixels})")
    part = _IDLE
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
        p[i0:i1] = alpha if frozen is None else frozen.lookup(pixels)[inverse]
        part = pixels, counts
        tally = merge_tallies([tally, part])
    return part, frozen


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
