"""Tiny compiled helpers for the depthwise and quantized conv kernels.

NumPy has no fused depthwise multiply-accumulate: the float path contracts a
strided tap view with ``einsum`` at about 1 GMAC/s, and an ``int8`` einsum
runs through the generic scalar inner loop, slower still.  The kernels
therefore ship a few small C loops compiled on demand with the system C
compiler (no new dependency — the toolchain that built CPython is already on
the host) and loaded through :mod:`ctypes`:

* ``dw_conv_f32`` / ``dw_conv_f64`` — NHWC depthwise forward with implicit
  zero padding, accumulating register tiles of output pixels in tap order
  and storing each once;
* ``dw_conv_bwd_f32`` / ``dw_conv_bwd_f64`` — its weight VJP (per-tap
  channel reduction in ``(b, y, x)`` order) and input VJP (tap-major
  scatter) in one call;
* ``dw_conv_q8`` / ``dw_conv_q16`` — the same forward on an int8 / int16
  image widened to float / double, with a fused per-channel requantization
  in place of the store; ``requant_q8`` / ``requant_q16`` — that requant as
  a standalone pass for the NumPy quantized kernels;
* ``dw_conv_vnni_q8`` / ``pw_conv_vnni_q8`` — int8 depthwise and 1x1 convs
  on AVX-512 VNNI byte dot products (only where the host has them:
  ``vnni_available()``), with their weight packers.

Exactness contract: every C kernel must be *bitwise identical* to its pure
NumPy fallback.  The float kernels add the products of each output element
in the order ``np.einsum`` folds the strided tap view (tap ``(i, j)``
lexicographic, one multiply round and one add round per tap) and the VJPs
follow the per-tap NumPy loops of
:class:`~repro.runtime.kernels.depthwise.DepthwiseEinsumKernel`; a skipped
out-of-image tap adds the ``0 * w`` the padded NumPy copy would add, which
leaves the sum unchanged.  The quantized kernels compute the exact integer
accumulation of the fallbacks in :mod:`repro.runtime.kernels.quantized` —
in int32 lanes, or in float / double, where every product and partial sum
stays below 2**24 / 2**53, so any order gives the same integers — and the
requant tail uses the same rounding sequence: one multiply round, one add
round per term, round-half-even to integer.  The build pins
``-ffp-contract=off`` so the compiler cannot fuse a multiply/add into an
FMA, and ``rintf`` / ``rint`` (and the VNNI kernels' default-mode
conversion) match ``np.rint``.

The shared object is cached inside the package (``_ccache/``, keyed by a
hash of the source, the flags and the host CPU — the build targets
``-march=native``, so a checkout copied to another CPU rebuilds instead of
loading instructions that host may not have; ignored by git).  Builds are
atomic (tempfile + rename) so concurrent processes race benignly.  Any
failure — no compiler, sandboxed filesystem, exotic cc — degrades silently:
``available()`` returns ``False`` and the NumPy fallbacks serve the plan
with identical numerics.  ``REPRO_NATIVE=0`` disables the path outright.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile

__all__ = [
    "available",
    "dw_conv",
    "dw_conv_bwd",
    "dw_conv_quant",
    "dw_conv_vnni_q8",
    "dw_pack_q8",
    "dw_vnni_sizes",
    "pw_conv_vnni_q8",
    "pw_pack_q8",
    "pw_vnni_sizes",
    "requant",
    "vnni_available",
]

ENV_VAR = "REPRO_NATIVE"

#: Rows per register tile of the VNNI int8 1x1 conv (its ``x_rows`` scratch
#: holds this many biased input rows).
PW_ROWS = 4

_SOURCE = r"""
#include <stdint.h>
#include <math.h>
#include <string.h>

/* Output positions o in [*lo, *hi) of a length-`olen` axis whose tap-`t`
 * input o*s + t - p lies inside [0, len): padding as a clipped range. */
static inline void tap_span(int t, int s, int p, int len, int olen,
                            int *lo, int *hi)
{
    int first = p - t, last = len - 1 - t + p;
    *lo = first > 0 ? (first + s - 1) / s : 0;
    *hi = last < 0 ? 0 : last / s + 1;
    if (*hi > olen) *hi = olen;
    if (*hi < *lo) *hi = *lo;
}

/* Taps [*lo, *hi) of a size-k kernel whose input o*s + t - p, for output
 * position o, lies inside [0, len). */
static inline void tap_range(int o, int s, int p, int len, int k,
                             int *lo, int *hi)
{
    int first = o * s - p;
    *lo = first < 0 ? -first : 0;
    *hi = len - first < k ? len - first : k;
    if (*hi < *lo) *hi = *lo;
}

/* Register tile of the depthwise forward: DW_XB output pixels, and at most
 * TILE_ACC accumulators (floats or doubles). */
#define DW_XB 4
#define TILE_ACC 64
"""

#: Output stage of the float kernels: a plain store of the accumulators.
_FLOAT_EMIT = r"""
struct out_@S@ { @T@ *out; };

static inline __attribute__((always_inline)) void emit_@S@(
    const struct out_@S@ *o, long off, int c0, const @T@ *restrict acc,
    int len)
{
    (void)c0;
    @T@ *restrict op = o->out + off;
    for (int q = 0; q < len; ++q)
        op[q] = acc[q];
}
"""

#: Output stage of the quantized kernels: per-channel requantization of
#: exact-integer accumulators (``@O@`` is the narrow integer type).
_QUANT_EMIT = r"""
struct out_@S@ {
    @O@ *out;
    const @O@ *res;
    const @T@ *scale, *bias;
    @T@ res_scale, lo, hi;
};

/* out = narrow(rint(clip(acc * scale + bias [+ res * res_scale]))), one
 * rounding per multiply and add, for the `len` channels from c0 on of the
 * output element at `off`. */
static inline __attribute__((always_inline)) void emit_@S@(
    const struct out_@S@ *o, long off, int c0, const @T@ *restrict acc,
    int len)
{
    @O@ *restrict op = o->out + off;
    const @T@ *restrict scale = o->scale + c0, *restrict bias = o->bias + c0;
    const @T@ lo = o->lo, hi = o->hi;
    if (o->res) {
        const @O@ *restrict r = o->res + off;
        const @T@ rs = o->res_scale;
        #pragma omp simd
        for (int q = 0; q < len; ++q) {
            @T@ v = acc[q] * scale[q];
            v = v + bias[q];
            @T@ t = (@T@)r[q] * rs;
            v = v + t;
            v = v < lo ? lo : (v > hi ? hi : v);
            op[q] = (@O@)@RINT@(v);
        }
    } else {
        #pragma omp simd
        for (int q = 0; q < len; ++q) {
            @T@ v = acc[q] * scale[q];
            v = v + bias[q];
            v = v < lo ? lo : (v > hi ? hi : v);
            op[q] = (@O@)@RINT@(v);
        }
    }
}
"""

#: Depthwise NHWC forward shared by every dtype (``@T@`` is the arithmetic
#: type; the quantized kernels widen their input to it first).
_DW_FORWARD = r"""
/* `np` output pixels of one row, `xs` input elements apart, that share the
 * tap range [i0, i1) x [j0, j1), from channel c0 on in blocks of `cw`
 * channels (np * cw <= TILE_ACC).  Each block accumulates in registers from
 * zero over the taps in (i, j) order, one multiply and one add round per
 * tap -- the sequence np.einsum folds the strided tap view in -- and goes
 * through the output stage once.  `base` is the offset of tap (0, 0) of the
 * first pixel in `xb` (negative in the padding; only in-image taps are
 * read), `off` that pixel's offset in the output.  With `tail` set, one
 * last block covers the c - c0 < cw remaining channels.  Returns the first
 * channel not done. */
static inline __attribute__((always_inline)) int dw_tile_@S@(
    const @T@ *restrict xb, long base, long xs, long in_row, int c,
    const @T@ *restrict w, int k, const struct out_@S@ *o, long off,
    const int np, const int cw, int c0, const int tail,
    int i0, int i1, int j0, int j1)
{
    for (; c0 < c && (tail || c0 + cw <= c); c0 += cw) {
        const int len = tail ? c - c0 : cw;
        @T@ acc[TILE_ACC] = {0};
        for (int i = i0; i < i1; ++i)
            for (int j = j0; j < j1; ++j) {
                const @T@ *xp = xb + (base + i * in_row + (long)j * c + c0);
                const @T@ *wp = w + ((long)i * k + j) * c + c0;
                for (int u = 0; u < np; ++u) {
                    #pragma omp simd
                    for (int q = 0; q < len; ++q)
                        acc[u * cw + q] += xp[u * xs + q] * wp[q];
                }
            }
        for (int u = 0; u < np; ++u)
            emit_@S@(o, off + (long)u * c + c0, c0, acc + u * cw, len);
    }
    return c0;
}

/* Depthwise NHWC forward with implicit zero padding (see dw_tile).  Pixels
 * whose taps all lie inside the image go DW_XB at a time, giving the
 * accumulation chains independent registers to overlap in. */
static inline __attribute__((always_inline)) void dw_forward_@S@(
    const @T@ *restrict x, const @T@ *restrict w, const struct out_@S@ *o,
    int n, int h, int wd, int c, int k, int s, int p, int oh, int ow)
{
    enum { CB = 64 / sizeof(@T@) };
    const long in_row = (long)wd * c, xs = (long)s * c;
    for (int b = 0; b < n; ++b) {
        const @T@ *xb = x + (long)b * h * in_row;
        for (int y = 0; y < oh; ++y) {
            int i0, i1;
            tap_range(y, s, p, h, k, &i0, &i1);
            const long orow = ((long)b * oh + y) * ow * c;
            const long row_base = (long)(y * s - p) * in_row;
            int xo = 0;
            while (xo < ow) {
                int j0, j1, last0, last1;
                tap_range(xo, s, p, wd, k, &j0, &j1);
                tap_range(xo + DW_XB - 1, s, p, wd, k, &last0, &last1);
                const long base = row_base + (long)(xo * s - p) * c;
                const long off = orow + (long)xo * c;
                if (xo + DW_XB <= ow && j0 == 0 && last1 == k) {
                    int c0 = dw_tile_@S@(xb, base, xs, in_row, c, w, k, o, off,
                                         DW_XB, CB, 0, 0, i0, i1, 0, k);
                    dw_tile_@S@(xb, base, xs, in_row, c, w, k, o, off,
                                DW_XB, CB, c0, 1, i0, i1, 0, k);
                    xo += DW_XB;
                } else {
                    int c0 = dw_tile_@S@(xb, base, xs, in_row, c, w, k, o, off,
                                         1, DW_XB * CB, 0, 0, i0, i1, j0, j1);
                    c0 = dw_tile_@S@(xb, base, xs, in_row, c, w, k, o, off,
                                     1, CB, c0, 0, i0, i1, j0, j1);
                    dw_tile_@S@(xb, base, xs, in_row, c, w, k, o, off,
                                1, CB, c0, 1, i0, i1, j0, j1);
                    xo += 1;
                }
            }
        }
    }
}
"""

#: Float depthwise entry points, instantiated for float and double.
_FLOAT_KERNELS = r"""
void dw_conv_@S@(const @T@ *restrict x, const @T@ *restrict w,
                 @T@ *restrict out, int n, int h, int wd, int c,
                 int k, int s, int p, int oh, int ow)
{
    const struct out_@S@ o = {out};
    dw_forward_@S@(x, w, &o, n, h, wd, c, k, s, p, oh, ow);
}

/* Both VJPs of dw_conv.  Weight: per tap, reduce gout * x over (b, y, x) in
 * that order into the (k*k, c) scratch `gwt`, then add it into `gw`
 * ((c, 1, k, k)).  Input (skipped when `gin` is NULL): per image, scatter
 * gout * w tap by tap, so every gin element adds its taps in (i, j) order. */
void dw_conv_bwd_@S@(const @T@ *restrict gout, const @T@ *restrict x,
                     const @T@ *restrict w, @T@ *restrict gw,
                     @T@ *restrict gin, @T@ *restrict gwt,
                     int n, int h, int wd, int c, int k, int s, int p,
                     int oh, int ow)
{
    const long in_row = (long)wd * c, out_row = (long)ow * c;
    const int kk = k * k;
    memset(gwt, 0, (size_t)kk * c * sizeof(@T@));
    for (int b = 0; b < n; ++b) {
        const @T@ *xb = x + (long)b * h * in_row;
        for (int y = 0; y < oh; ++y) {
            const @T@ *grow = gout + ((long)b * oh + y) * out_row;
            for (int i = 0; i < k; ++i) {
                int yi = y * s + i - p;
                if (yi < 0 || yi >= h) continue;
                const @T@ *xrow = xb + (long)yi * in_row;
                for (int j = 0; j < k; ++j) {
                    int x0, x1;
                    tap_span(j, s, p, wd, ow, &x0, &x1);
                    @T@ *acc = gwt + ((long)i * k + j) * c;
                    for (int xo = x0; xo < x1; ++xo) {
                        const @T@ *xp = xrow + (long)(xo * s + j - p) * c;
                        const @T@ *gp = grow + (long)xo * c;
                        #pragma omp simd
                        for (int ch = 0; ch < c; ++ch)
                            acc[ch] += gp[ch] * xp[ch];
                    }
                }
            }
        }
    }
    for (int ch = 0; ch < c; ++ch)
        for (int t = 0; t < kk; ++t)
            gw[(long)ch * kk + t] += gwt[(long)t * c + ch];
    if (!gin) return;
    for (int b = 0; b < n; ++b) {
        for (int i = 0; i < k; ++i) {
            int y0, y1;
            tap_span(i, s, p, h, oh, &y0, &y1);
            for (int j = 0; j < k; ++j) {
                int x0, x1;
                tap_span(j, s, p, wd, ow, &x0, &x1);
                const @T@ *wp = w + ((long)i * k + j) * c;
                for (int y = y0; y < y1; ++y) {
                    @T@ *girow = gin + ((long)b * h + y * s + i - p) * in_row;
                    const @T@ *grow = gout + ((long)b * oh + y) * out_row;
                    for (int xo = x0; xo < x1; ++xo) {
                        @T@ *ip = girow + (long)(xo * s + j - p) * c;
                        const @T@ *gp = grow + (long)xo * c;
                        #pragma omp simd
                        for (int ch = 0; ch < c; ++ch)
                            ip[ch] += gp[ch] * wp[ch];
                    }
                }
            }
        }
    }
}
"""

#: Quantized entry points, instantiated for int8 (float arithmetic) and
#: int16 (double arithmetic).  Every product and partial sum is an integer
#: below 2**24 (int8) / 2**53 (int16), so the float arithmetic is exact in
#: any order and the accumulators equal the integer sums.
_QUANT_KERNELS = r"""
/* Standalone requant tail over a flat (rows, c) accumulator. */
void requant_@S@(const @T@ *restrict acc, const @T@ *restrict scale,
                 const @T@ *restrict bias, const @O@ *restrict res,
                 @T@ res_scale, @O@ *restrict out, long rows, int c,
                 @T@ lo, @T@ hi)
{
    const struct out_@S@ o = {out, res, scale, bias, res_scale, lo, hi};
    for (long m = 0; m < rows; ++m)
        emit_@S@(&o, m * c, 0, acc + m * c, c);
}

/* Depthwise NHWC conv with fused requant; `w` is the tap-major (k*k, c)
 * weight widened to the arithmetic type.  Each image is widened into `xf`
 * (h * wd * c values) first, so the taps read it like the float kernels. */
void dw_conv_@S@(const @O@ *restrict x, const @T@ *restrict w,
                 const @T@ *restrict scale, const @T@ *restrict bias,
                 const @O@ *restrict res, @T@ res_scale,
                 @O@ *restrict out, @T@ *restrict xf, int n, int h, int wd,
                 int c, int k, int s, int p, int oh, int ow, @T@ lo, @T@ hi)
{
    const long img = (long)h * wd * c, out_img = (long)oh * ow * c;
    for (int b = 0; b < n; ++b) {
        const struct out_@S@ o = {out + b * out_img, res ? res + b * out_img : 0,
                                  scale, bias, res_scale, lo, hi};
        const @O@ *xb = x + b * img;
        #pragma omp simd
        for (long e = 0; e < img; ++e)
            xf[e] = xb[e];
        dw_forward_@S@(xf, w, &o, 1, h, wd, c, k, s, p, oh, ow);
    }
}
"""


#: int8 kernels for hosts with AVX-512 VNNI: ``vpdpbusd`` multiplies 64
#: unsigned-by-signed byte pairs and adds them four at a time into 16 int32
#: lanes.  The signed activations are biased by +128 into the unsigned
#: operand, and the accumulators start at -128 times the sum of the weights
#: they meet, so they end at the exact integer dot products.  Without VNNI
#: ``q8_vnni()`` is 0 and the other int8 kernels serve these signatures.
_Q8_VNNI = r"""
#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VNNI__)
#include <immintrin.h>

int q8_vnni(void) { return 1; }

static inline int cols16(int c) { return (c + 15) & ~15; }

/* The requant of 16 int32 accumulators, in the order of the NumPy tail:
 * (float)acc * scale, + bias, + (float)res * res_scale, clip, round half
 * to even (the default MXCSR mode), narrow.  `mask` selects the channels
 * from c0 that exist. */
static inline __attribute__((always_inline)) void emit16_q8(
    const struct out_q8 *o, long off, int c0, __m512i acc, __mmask16 mask)
{
    __m512 v = _mm512_mul_ps(_mm512_cvtepi32_ps(acc),
                             _mm512_maskz_loadu_ps(mask, o->scale + c0));
    v = _mm512_add_ps(v, _mm512_maskz_loadu_ps(mask, o->bias + c0));
    if (o->res) {
        __m128i r = _mm_maskz_loadu_epi8(mask, o->res + off);
        __m512 t = _mm512_mul_ps(_mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(r)),
                                 _mm512_set1_ps(o->res_scale));
        v = _mm512_add_ps(v, t);
    }
    v = _mm512_min_ps(_mm512_max_ps(v, _mm512_set1_ps(o->lo)),
                      _mm512_set1_ps(o->hi));
    _mm_mask_storeu_epi8(o->out + off, mask,
                         _mm512_cvtsepi32_epi8(_mm512_cvtps_epi32(v)));
}

static inline __mmask16 tail_mask(int left)
{
    return left >= 16 ? (__mmask16)0xFFFF : (__mmask16)((1u << left) - 1);
}

/* ---- depthwise: taps four at a time along the kernel row ---- */

/* Pack the (c, 1, k, k) weight as [k][(k+3)/4][cols16(c)][4] bytes (tap j
 * of row i at quad j/4, byte j%4; zero-padded), and corr[i][ch] = -128 *
 * sum_j w[ch, i, j]: the bias correction of one kernel row. */
void dw_pack_q8(const int8_t *restrict w, int8_t *restrict packed,
                int32_t *restrict corr, int c, int k)
{
    const int cq = cols16(c), nq = (k + 3) / 4;
    memset(packed, 0, (size_t)k * nq * cq * 4);
    memset(corr, 0, (size_t)k * cq * sizeof(int32_t));
    for (int ch = 0; ch < c; ++ch)
        for (int i = 0; i < k; ++i)
            for (int j = 0; j < k; ++j) {
                const int8_t v = w[((long)ch * k + i) * k + j];
                packed[(((long)i * nq + j / 4) * cq + ch) * 4 + j % 4] = v;
                corr[(long)i * cq + ch] -= 128 * v;
            }
}

/* Quads of one image: for row y, padded column col (input column col - p)
 * and channel ch, the bytes x[y][col - p + t][ch] + 128, t = 0..3 (128,
 * i.e. zero, outside the image).  Layout [h][wd + 2p][cols16(c)][4].  The
 * taps of an output pixel read the columns o * s + 4 * qj, so with s
 * dividing 4 only every s-th column is built. */
static void dw_quads_q8(const int8_t *restrict x, uint8_t *restrict quads,
                        int h, int wd, int c, int p, int s)
{
    const int cq = cols16(c), cols = wd + 2 * p, step = 4 % s ? 1 : s;
    const __m128i bias = _mm_set1_epi8((char)0x80);
    for (int y = 0; y < h; ++y)
        for (int col = 0; col < cols; col += step)
            for (int c0 = 0; c0 < cq; c0 += 16) {
                const __mmask16 mask = tail_mask(c - c0);
                __m128i v[4];
                for (int t = 0; t < 4; ++t) {
                    const int xc = col - p + t;
                    v[t] = xc >= 0 && xc < wd
                        ? _mm_xor_si128(_mm_maskz_loadu_epi8(
                              mask, x + ((long)y * wd + xc) * c + c0), bias)
                        : bias;
                }
                const __m128i ab0 = _mm_unpacklo_epi8(v[0], v[1]);
                const __m128i ab1 = _mm_unpackhi_epi8(v[0], v[1]);
                const __m128i cd0 = _mm_unpacklo_epi8(v[2], v[3]);
                const __m128i cd1 = _mm_unpackhi_epi8(v[2], v[3]);
                __m128i *q = (__m128i *)(quads + (((long)y * cols + col) * cq + c0) * 4);
                _mm_storeu_si128(q, _mm_unpacklo_epi16(ab0, cd0));
                _mm_storeu_si128(q + 1, _mm_unpackhi_epi16(ab0, cd0));
                _mm_storeu_si128(q + 2, _mm_unpacklo_epi16(ab1, cd1));
                _mm_storeu_si128(q + 3, _mm_unpackhi_epi16(ab1, cd1));
            }
}

/* `np` output pixels from xo of row y, 16 channels from c0: per kernel row
 * in the image, the row's bias correction and (k+3)/4 quad products. */
static inline __attribute__((always_inline)) void dw_tile_vnni_q8(
    const uint8_t *restrict quads, const int8_t *restrict packed,
    const int32_t *restrict corr, const struct out_q8 *o, long off,
    int c, int cq, int cols, int k, int s, int i0, int i1, int row0,
    int xo, int c0, const int np)
{
    const int nq = (k + 3) / 4;
    __m512i acc[DW_VNNI_XB];
    for (int u = 0; u < np; ++u)
        acc[u] = _mm512_setzero_si512();
    for (int i = i0; i < i1; ++i) {
        const __m512i ci = _mm512_loadu_si512(corr + (long)i * cq + c0);
        const uint8_t *qrow = quads + ((long)(row0 + i) * cols * cq + c0) * 4;
        for (int u = 0; u < np; ++u)
            acc[u] = _mm512_add_epi32(acc[u], ci);
        for (int qj = 0; qj < nq; ++qj) {
            const __m512i wq = _mm512_loadu_si512(
                packed + (((long)i * nq + qj) * cq + c0) * 4);
            for (int u = 0; u < np; ++u) {
                const long col = (long)(xo + u) * s + 4 * qj;
                acc[u] = _mm512_dpbusd_epi32(
                    acc[u], _mm512_loadu_si512(qrow + col * cq * 4), wq);
            }
        }
    }
    const __mmask16 mask = tail_mask(c - c0);
    for (int u = 0; u < np; ++u)
        emit16_q8(o, off + (long)u * c + c0, c0, acc[u], mask);
}

/* int8 depthwise NHWC conv with fused requant, from the dw_pack_q8 weight;
 * `quads` is scratch of h * (wd + 2p) * cols16(c) * 4 bytes.  Pixels go
 * DW_VNNI_XB at a time, giving the accumulation chains independent
 * registers to overlap in. */
void dw_conv_vnni_q8(const int8_t *restrict x, const int8_t *restrict packed,
                     const int32_t *restrict corr,
                     const float *restrict scale, const float *restrict bias,
                     const int8_t *restrict res, float res_scale,
                     int8_t *restrict out, uint8_t *restrict quads,
                     int n, int h, int wd, int c, int k, int s, int p,
                     int oh, int ow, float lo, float hi)
{
    const struct out_q8 o = {out, res, scale, bias, res_scale, lo, hi};
    const int cq = cols16(c), cols = wd + 2 * p;
    for (int b = 0; b < n; ++b) {
        dw_quads_q8(x + (long)b * h * wd * c, quads, h, wd, c, p, s);
        for (int y = 0; y < oh; ++y) {
            int i0, i1;
            tap_range(y, s, p, h, k, &i0, &i1);
            const int row0 = y * s - p;
            const long orow = ((long)b * oh + y) * ow * c;
            for (int c0 = 0; c0 < cq; c0 += 16) {
                int xo = 0;
                for (; xo + DW_VNNI_XB <= ow; xo += DW_VNNI_XB)
                    dw_tile_vnni_q8(quads, packed, corr, &o, orow + (long)xo * c,
                                    c, cq, cols, k, s, i0, i1, row0, xo, c0,
                                    DW_VNNI_XB);
                for (; xo < ow; ++xo)
                    dw_tile_vnni_q8(quads, packed, corr, &o, orow + (long)xo * c,
                                    c, cq, cols, k, s, i0, i1, row0, xo, c0, 1);
            }
        }
    }
}

/* ---- pointwise: a GEMM over the input channels, four at a time ---- */

/* Pack the (cn, ck) weight as [(ck+3)/4][cols16(cn)][4] bytes, zero-padded,
 * and set corr[n] = -128 * sum_k w[n, k]. */
void pw_pack_q8(const int8_t *restrict w, int8_t *restrict packed,
                int32_t *restrict corr, int ck, int cn)
{
    const int cols = cols16(cn);
    memset(packed, 0, (size_t)((ck + 3) / 4) * cols * 4);
    memset(corr, 0, (size_t)cols * sizeof(int32_t));
    for (int n = 0; n < cn; ++n)
        for (int k = 0; k < ck; ++k) {
            const int8_t v = w[(long)n * ck + k];
            packed[((long)(k / 4) * cols + n) * 4 + k % 4] = v;
            corr[n] -= 128 * v;
        }
}

/* `mr` rows from m (biased inputs in `xu`, k4 * 4 bytes each) times `nv`
 * blocks of 16 output columns from n0, the last one masked to `last`. */
static inline __attribute__((always_inline)) void pw_tile_q8(
    const uint8_t *restrict xu, const int8_t *restrict packed,
    const int32_t *restrict corr, const struct out_q8 *o, long m, int k4,
    int cn, int n0, const int mr, const int nv, __mmask16 last)
{
    const int cols = cols16(cn);
    __m512i acc[PW_MR][PW_NV];
    for (int v = 0; v < nv; ++v) {
        const __m512i c = _mm512_loadu_si512(corr + n0 + 16 * v);
        for (int u = 0; u < mr; ++u)
            acc[u][v] = c;
    }
    for (int q = 0; q < k4; ++q) {
        __m512i b[PW_NV];
        for (int v = 0; v < nv; ++v)
            b[v] = _mm512_loadu_si512(packed + ((long)q * cols + n0 + 16 * v) * 4);
        for (int u = 0; u < mr; ++u) {
            int32_t quad;
            memcpy(&quad, xu + ((long)u * k4 + q) * 4, 4);
            const __m512i a = _mm512_set1_epi32(quad);
            for (int v = 0; v < nv; ++v)
                acc[u][v] = _mm512_dpbusd_epi32(acc[u][v], a, b[v]);
        }
    }
    for (int u = 0; u < mr; ++u)
        for (int v = 0; v < nv; ++v)
            emit16_q8(o, (m + u) * cn + n0 + 16 * v, n0 + 16 * v, acc[u][v],
                      v == nv - 1 ? last : (__mmask16)0xFFFF);
}

static inline __attribute__((always_inline)) void pw_rows_q8(
    const int8_t *restrict x, const int8_t *restrict packed,
    const int32_t *restrict corr, const struct out_q8 *o,
    uint8_t *restrict xu, long m, int ck, int cn, const int mr)
{
    const int k4 = (ck + 3) / 4;
    for (int u = 0; u < mr; ++u) {
        uint8_t *row = xu + (long)u * k4 * 4;
        for (int k = 0; k < ck; ++k)
            row[k] = (uint8_t)x[(m + u) * ck + k] ^ 0x80;
        for (int k = ck; k < k4 * 4; ++k)
            row[k] = 0;
    }
    int n0 = 0;
    for (; n0 + 16 * PW_NV <= cn; n0 += 16 * PW_NV)
        pw_tile_q8(xu, packed, corr, o, m, k4, cn, n0, mr, PW_NV, 0xFFFF);
    for (; n0 < cn; n0 += 16)
        pw_tile_q8(xu, packed, corr, o, m, k4, cn, n0, mr, 1, tail_mask(cn - n0));
}

/* int8 1x1 conv over `rows` NHWC pixels with fused requant, from the
 * pw_pack_q8 weight; `xu` is scratch of PW_MR * 4 * ((ck + 3) / 4) bytes. */
void pw_conv_vnni_q8(const int8_t *restrict x, const int8_t *restrict packed,
                     const int32_t *restrict corr,
                     const float *restrict scale, const float *restrict bias,
                     const int8_t *restrict res, float res_scale,
                     int8_t *restrict out, uint8_t *restrict xu, long rows,
                     int ck, int cn, float lo, float hi)
{
    const struct out_q8 o = {out, res, scale, bias, res_scale, lo, hi};
    long m = 0;
    for (; m + PW_MR <= rows; m += PW_MR)
        pw_rows_q8(x, packed, corr, &o, xu, m, ck, cn, PW_MR);
    for (; m < rows; ++m)
        pw_rows_q8(x, packed, corr, &o, xu, m, ck, cn, 1);
}
#else
int q8_vnni(void) { return 0; }
#endif
"""


def _instantiate(template, **types):
    for key, value in types.items():
        template = template.replace("@{}@".format(key), value)
    return template


#: The C type of each dtype suffix the library exports.
_FLOAT_TYPES = {"f32": "float", "f64": "double"}
#: Quant suffix -> (narrow integer type, arithmetic type, round-to-int).
_QUANT_TYPES = {"q8": ("int8_t", "float", "rintf"), "q16": ("int16_t", "double", "rint")}

for _s, _t in _FLOAT_TYPES.items():
    _SOURCE += _instantiate(_FLOAT_EMIT + _DW_FORWARD + _FLOAT_KERNELS, S=_s, T=_t)
for _s, (_o, _t, _rint) in _QUANT_TYPES.items():
    _SOURCE += _instantiate(
        _QUANT_EMIT + _DW_FORWARD + _QUANT_KERNELS, S=_s, T=_t, O=_o, RINT=_rint
    )
_SOURCE += (
    "#define PW_MR {}\n#define PW_NV 4\n#define DW_VNNI_XB 8\n".format(PW_ROWS) + _Q8_VNNI
)

#: ``-ffp-contract=off`` is load-bearing: a fused multiply-add in the float
#: depthwise sums or the requant tail would round differently from the NumPy
#: fallbacks and break the bitwise C-vs-NumPy contract.
_CFLAGS = (
    "-O3", "-march=native", "-fopenmp-simd", "-fno-math-errno",
    "-ffp-contract=off", "-shared", "-fPIC",
)

_lib = None
_load_attempted = False


def _host_cpu():
    """The CPU identity a ``-march=native`` build is only valid for.

    ``platform.machine()`` plus the ``flags`` line of ``/proc/cpuinfo`` where
    it exists (the instruction-set extensions the compiler may have used).
    """
    ident = platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("flags"):
                    ident += "\x00" + line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return ident


def _cache_path():
    tag = hashlib.sha256(
        (_SOURCE + "\x00" + " ".join(_CFLAGS) + "\x00" + _host_cpu()).encode()
    ).hexdigest()[:16]
    return os.path.join(os.path.dirname(__file__), "_ccache", "dwq_{}.so".format(tag))


def _build(so_path):
    cache_dir = os.path.dirname(so_path)
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp_c = tempfile.mkstemp(suffix=".c", dir=cache_dir)
    tmp_so = tmp_c[:-2] + ".so"
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(_SOURCE)
        subprocess.run(
            ["cc", *_CFLAGS, tmp_c, "-o", tmp_so],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp_so, so_path)  # atomic: concurrent builders race benignly
    finally:
        for path in (tmp_c, tmp_so):
            try:
                os.unlink(path)
            except OSError:
                pass


def _bind(lib):
    ptr, i32, i64 = ctypes.c_void_p, ctypes.c_int, ctypes.c_long
    dims = [i32] * 9  # n, h, w, c, k, stride, padding, out h, out w
    for suffix in _FLOAT_TYPES:
        _declare(lib, "dw_conv_" + suffix, [ptr] * 3 + dims)
        _declare(lib, "dw_conv_bwd_" + suffix, [ptr] * 6 + dims)
    for suffix, (_, ctype, _) in _QUANT_TYPES.items():
        real = ctypes.c_float if ctype == "float" else ctypes.c_double
        # scale, bias, res, res_scale, out
        epi = [ptr, ptr, ptr, real, ptr]
        _declare(lib, "requant_" + suffix, [ptr, *epi, i64, i32, real, real])
        _declare(lib, "dw_conv_" + suffix, [ptr, ptr, *epi, ptr, *dims, real, real])
    lib.q8_vnni.restype = i32
    lib.q8_vnni.argtypes = []
    if lib.q8_vnni():
        f32 = ctypes.c_float
        epi = [ptr, ptr, ptr, f32, ptr]
        _declare(lib, "dw_pack_q8", [ptr, ptr, ptr, i32, i32])
        _declare(lib, "dw_conv_vnni_q8", [ptr, ptr, ptr, *epi, ptr, *dims, f32, f32])
        _declare(lib, "pw_pack_q8", [ptr, ptr, ptr, i32, i32])
        _declare(lib, "pw_conv_vnni_q8", [ptr, ptr, ptr, *epi, ptr, i64, i32, i32, f32, f32])


def _declare(lib, name, argtypes):
    fn = getattr(lib, name)
    fn.restype = None
    fn.argtypes = argtypes


def _load():
    """The loaded library, building it on first use (``None`` on any failure)."""
    global _lib, _load_attempted
    if _load_attempted:
        return _lib
    _load_attempted = True
    if os.environ.get(ENV_VAR, "1").strip() == "0":
        return None
    try:
        so_path = _cache_path()
        if not os.path.exists(so_path):
            _build(so_path)
        lib = ctypes.CDLL(so_path)
        _bind(lib)
        _lib = lib
    except Exception:
        _lib = None
    return _lib


def available():
    """Whether the compiled depthwise kernels can be used."""
    return _load() is not None


#: Library symbol suffix of each array dtype, by ``dtype.char`` (a cheap
#: lookup next to ``dtype.name`` on a path taken once per conv call).
_SUFFIX = {"f": "f32", "d": "f64", "b": "q8", "h": "q16"}


def _fn(name, dtype):
    return getattr(_load(), "{}_{}".format(name, _SUFFIX[dtype.char]))


def _addr(arr):
    return None if arr is None else arr.ctypes.data


def dw_conv(x, w_taps, out, k, stride, padding):
    """Float NHWC depthwise conv forward (see the C source).

    ``x``/``out`` are C-contiguous NHWC float32 or float64 arrays and
    ``w_taps`` the tap-major ``(k*k, C)`` weight of the same dtype.
    """
    n, h, wd, c = x.shape
    _fn("dw_conv", x.dtype)(
        x.ctypes.data, w_taps.ctypes.data, out.ctypes.data,
        n, h, wd, c, k, stride, padding, out.shape[1], out.shape[2],
    )


def dw_conv_bwd(gout, x, w_taps, gw, gin, gwt, k, stride, padding):
    """Weight VJP accumulated into ``gw`` and input VJP into ``gin``.

    Every array is C-contiguous in the forward's dtype: ``gout`` / ``x`` /
    ``gin`` NHWC, ``gw`` the ``(C, 1, k, k)`` weight gradient, ``gwt`` a
    ``(k*k, C)`` scratch.  ``gin`` may be ``None`` (input VJP skipped).
    """
    n, h, wd, c = x.shape
    _fn("dw_conv_bwd", x.dtype)(
        gout.ctypes.data, x.ctypes.data, w_taps.ctypes.data, gw.ctypes.data,
        _addr(gin), gwt.ctypes.data,
        n, h, wd, c, k, stride, padding, gout.shape[1], gout.shape[2],
    )


def requant(acc, epilogue, res, out):
    """Fused requant pass (``epilogue``'s scale, bias, clip) into ``out``.

    ``acc`` is the exact-integer float32 (int8 ``out``) or float64 (int16
    ``out``) accumulator; ``acc``/``out``/``res`` are C-contiguous with the
    channels innermost and the same leading extent, treated as flat rows.
    """
    c = acc.shape[-1]
    _fn("requant", out.dtype)(
        acc.ctypes.data, *_requant_args(epilogue, res, out),
        acc.size // c, c, epilogue.lo, epilogue.hi,
    )


def _requant_args(epilogue, res, out):
    return (
        epilogue.scale.ctypes.data, epilogue.bias.ctypes.data, _addr(res),
        float(epilogue.res_scale), out.ctypes.data,
    )


def dw_conv_quant(x, w_taps, epilogue, out, x_image, k, stride, padding):
    """Integer NHWC depthwise conv + fused requant (see the C source).

    ``x``/``out``/``epilogue.res`` are C-contiguous NHWC int8 or int16;
    ``w_taps`` is the tap-major ``(k*k, C)`` weight widened to the
    epilogue's float dtype and ``x_image`` a scratch of one input image in
    that dtype.
    """
    n, h, wd, c = x.shape
    _fn("dw_conv", x.dtype)(
        x.ctypes.data, w_taps.ctypes.data,
        *_requant_args(epilogue, epilogue.res, out), x_image.ctypes.data,
        n, h, wd, c, k, stride, padding, out.shape[1], out.shape[2],
        float(epilogue.lo), float(epilogue.hi),
    )


def vnni_available():
    """Whether the VNNI int8 kernels were built (the host has AVX-512 VNNI)."""
    return available() and bool(_lib.q8_vnni())


def _cols16(c):
    return (c + 15) // 16 * 16


def dw_vnni_sizes(c, k, h, w, padding):
    """Element counts of the packed weight (int8), the row correction
    (int32) and the image scratch (uint8) of an int8 VNNI depthwise conv."""
    cq = _cols16(c)
    return k * ((k + 3) // 4) * cq * 4, k * cq, h * (w + 2 * padding) * cq * 4


def pw_vnni_sizes(ck, cn):
    """Element counts of the packed weight (int8), the column correction
    (int32) and the row scratch (uint8) of a ``ck -> cn`` int8 VNNI 1x1
    conv."""
    quads = (ck + 3) // 4
    return quads * _cols16(cn) * 4, _cols16(cn), PW_ROWS * quads * 4


def dw_pack_q8(weight, packed, corr):
    """Pack the C-contiguous ``(C, 1, k, k)`` int8 depthwise ``weight`` for
    :func:`dw_conv_vnni_q8` (buffers sized by :func:`dw_vnni_sizes`)."""
    _lib.dw_pack_q8(weight.ctypes.data, packed.ctypes.data, corr.ctypes.data,
                    weight.shape[0], weight.shape[-1])


def pw_pack_q8(weight, packed, corr):
    """Pack the C-contiguous ``(C_out, C_in)`` int8 ``weight`` for
    :func:`pw_conv_vnni_q8` (buffers sized by :func:`pw_vnni_sizes`)."""
    cn, ck = weight.shape
    _lib.pw_pack_q8(weight.ctypes.data, packed.ctypes.data, corr.ctypes.data, ck, cn)


def dw_conv_vnni_q8(x, packed, corr, epilogue, out, image, k, stride, padding):
    """int8 NHWC depthwise conv + fused requant from :func:`dw_pack_q8`
    buffers; ``x``/``out``/``epilogue.res`` are C-contiguous int8 and
    ``image`` is the image scratch."""
    n, h, wd, c = x.shape
    _lib.dw_conv_vnni_q8(
        x.ctypes.data, packed.ctypes.data, corr.ctypes.data,
        *_requant_args(epilogue, epilogue.res, out), image.ctypes.data,
        n, h, wd, c, k, stride, padding, out.shape[1], out.shape[2],
        float(epilogue.lo), float(epilogue.hi),
    )


def pw_conv_vnni_q8(x, packed, corr, epilogue, out, x_rows):
    """int8 1x1 conv + fused requant over flat ``(rows, C)`` pixels from
    :func:`pw_pack_q8` buffers; ``x``/``out``/``epilogue.res`` are
    C-contiguous int8 with the channels innermost and ``x_rows`` is the row
    scratch."""
    ck, cn = x.shape[-1], out.shape[-1]
    _lib.pw_conv_vnni_q8(
        x.ctypes.data, packed.ctypes.data, corr.ctypes.data,
        *_requant_args(epilogue, epilogue.res, out), x_rows.ctypes.data,
        x.size // ck, ck, cn, float(epilogue.lo), float(epilogue.hi),
    )
