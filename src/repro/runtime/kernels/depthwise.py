"""Depthwise convolution kernels (forward + VJPs) that never build im2col columns.

Depthwise convolutions dominate the runtime's rollout plans (the searched
agents are inverted-residual-heavy), and the im2col path serves them badly:
the patch gather copies ``k*k`` shifted images through tiny strided runs,
and the "GEMM" that follows is ``N*C`` degenerate ``(1, k^2) @ (k^2, L)``
dot products.  Every kernel here accumulates the output tap by tap instead::

    out[b, y, x, :] += w[i, j, :] * xpad[b, y*s + i, x*s + j, :]

Channels-last makes each tap a contiguous multiply along the channel axis
(the per-channel weight broadcasts over the *trailing* dimension).

* :class:`DepthwiseDirectKernel` serves NCHW slots: it packs the input into
  a channels-last padded copy, runs the per-tap MAC lane block by lane
  block (so the padded block, the accumulator and the tap workspace stay
  L2-resident), and unpacks into the NCHW output.
* :class:`DepthwiseEinsumKernel` is the NumPy NHWC kernel: one ``einsum``
  over a zero-copy strided tap view of a border-padded copy, and VJPs that
  contract clipped strided windows of the plan's own slot buffers.
* :class:`DepthwiseNativeKernel` runs the same NHWC arithmetic as compiled C
  (:mod:`repro.runtime.kernels._native`): implicit zero padding, no padded
  copy, bitwise equal to the einsum kernel in forward and both VJPs.  When
  the host cannot build the C code it does not register as a candidate and
  the einsum kernel serves the signature unchanged.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import _native
from .registry import (
    BLOCK_TARGET_BYTES,
    SCRATCH_GEMM,
    SCRATCH_MAIN,
    SCRATCH_PAD,
    ConvKernel,
    register_kernel,
)

__all__ = ["DepthwiseDirectKernel", "DepthwiseEinsumKernel", "DepthwiseNativeKernel"]


def _lane_block(spec, lane_bytes):
    """Batch lanes per block so one block's working set stays L2-resident."""
    return max(1, min(spec.batch, BLOCK_TARGET_BYTES // max(lane_bytes, 1)))


def _padded_shape(spec, lanes):
    p = spec.padding
    return (lanes, spec.height + 2 * p, spec.width + 2 * p, spec.in_channels)


def _fill_padded(xb, x, p):
    """Copy NHWC ``x`` into the interior of ``xb`` and zero its border.

    The scratch arena is shared with other steps, so the border must be
    re-zeroed on every call.
    """
    h, w = x.shape[1], x.shape[2]
    xb[:, :p] = 0.0
    xb[:, p + h:] = 0.0
    xb[:, p:p + h, :p] = 0.0
    xb[:, p:p + h, p + w:] = 0.0
    xb[:, p:p + h, p:p + w, :] = x


@register_kernel
class DepthwiseDirectKernel(ConvKernel):
    """Per-tap shifted-view MAC over a packed NHWC padded copy of an NCHW slot."""

    name = "depthwise_direct"
    trains = True

    @classmethod
    def _block(cls, spec):
        tile = spec.out_height * spec.out_width
        padded = (spec.height + 2 * spec.padding) * (spec.width + 2 * spec.padding)
        return _lane_block(spec, (padded + 2 * tile) * spec.in_channels * spec.itemsize)

    @classmethod
    def supports(cls, spec):
        return spec.depthwise and spec.layout == "NCHW"

    @classmethod
    def scratch_requests(cls, spec):
        block = cls._block(spec)
        tile = block * spec.out_height * spec.out_width * spec.in_channels * spec.itemsize
        requests = [(SCRATCH_GEMM, tile), (SCRATCH_MAIN, tile)]
        if not spec.train:
            padded = math.prod(_padded_shape(spec, block)) * spec.itemsize
            requests.append((SCRATCH_PAD, padded))
        return tuple(requests)

    @classmethod
    def backward_scratch_requests(cls, spec, input_grad_needed):
        n, c, item = spec.batch, spec.in_channels, spec.itemsize
        tile = n * spec.out_height * spec.out_width * c * item
        requests = [(SCRATCH_GEMM, tile), (SCRATCH_MAIN, tile)]
        if input_grad_needed and spec.padding > 0:
            padded = math.prod(_padded_shape(spec, n)) * item
            requests.append((SCRATCH_PAD, padded))
        return tuple(requests)

    def __init__(self, spec, plan):
        super().__init__(spec, plan)
        n, c = spec.batch, spec.in_channels
        oh, ow = spec.out_height, spec.out_width
        self._b = self._block(spec)
        if spec.train:
            # The padded NHWC input is the saved state the VJPs contract
            # against, so it must survive the forward pass: allocate the
            # full batch persistently (zeroed once; the border stays zero).
            self._xph = plan.alloc(_padded_shape(spec, n), zero=True)
        else:
            self._xph = plan.workspace(_padded_shape(spec, self._b), channel=SCRATCH_PAD)
        self._outh = plan.workspace((self._b, oh, ow, c), channel=SCRATCH_GEMM)
        self._wsh = plan.workspace((self._b, oh, ow, c), channel=SCRATCH_MAIN)
        #: Per-tap weight rows ``(k*k, C)``, refreshed from the live weight
        #: array every call (tiny next to any feature map).
        self._wt = plan.alloc((spec.kernel * spec.kernel, c))

    def _tap_view(self, buf, tap):
        """The shifted ``(b, oh, ow, C)`` window of a padded NHWC buffer."""
        spec = self.spec
        i, j = divmod(tap, spec.kernel)
        s = spec.stride
        return buf[
            :,
            i : i + s * (spec.out_height - 1) + 1 : s,
            j : j + s * (spec.out_width - 1) + 1 : s,
            :,
        ]

    def forward(self, x, weight, out, epilogue):
        spec = self.spec
        n, c, p = spec.batch, spec.in_channels, spec.padding
        h, w, k = spec.height, spec.width, spec.kernel
        taps = k * k
        self._wt[...] = weight.reshape(c, taps).T
        if spec.train:
            # Interior fill of the persistent buffer; the border is zero from
            # allocation and never written.
            self._xph[:, p:p + h, p:p + w, :] = np.moveaxis(x, 1, -1)
        blockwise = epilogue.blockwise
        for n0 in range(0, n, self._b):
            n1 = min(n0 + self._b, n)
            b = n1 - n0
            if spec.train:
                xb = self._xph[n0:n1]
            else:
                xb = self._xph[:b]
                _fill_padded(xb, np.moveaxis(x[n0:n1], 1, -1), p)
            ob = self._outh[:b]
            wb = self._wsh[:b]
            np.multiply(self._tap_view(xb, 0), self._wt[0], out=ob)
            for tap in range(1, taps):
                np.multiply(self._tap_view(xb, tap), self._wt[tap], out=wb)
                np.add(ob, wb, out=ob)
            np.copyto(np.moveaxis(out[n0:n1], 1, -1), ob)
            if blockwise:
                epilogue.apply(out[n0:n1], lanes=slice(n0, n1))
        if not blockwise:
            epilogue.apply(out)

    def allocate_backward(self, plan, input_grad_needed):
        spec = self.spec
        n, c = spec.batch, spec.in_channels
        oh, ow = spec.out_height, spec.out_width
        self._gouth = plan.workspace((n, oh, ow, c), channel=SCRATCH_GEMM)
        self._gtap = plan.workspace((n, oh, ow, c), channel=SCRATCH_MAIN)
        self._gpadh = None
        if input_grad_needed and spec.padding > 0:
            self._gpadh = plan.workspace(_padded_shape(spec, n), channel=SCRATCH_PAD)

    def backward(self, gout, x, weight, gw, gin):
        spec = self.spec
        c, p = spec.in_channels, spec.padding
        h, w, k = spec.height, spec.width, spec.kernel
        taps = k * k
        self._wt[...] = weight.reshape(c, taps).T
        np.copyto(self._gouth, np.moveaxis(gout, 1, -1))
        # Weight VJP: per tap, reduce gout * (shifted saved input) over NHW.
        for tap in range(taps):
            np.multiply(self._gouth, self._tap_view(self._xph, tap), out=self._gtap)
            i, j = divmod(tap, k)
            gw[:, 0, i, j] += self._gtap.sum(axis=(0, 1, 2))
        if gin is None:
            return
        # Input VJP: scatter gout * w through the shifted windows.  With no
        # padding the target windows view the caller's accumulator directly;
        # otherwise a zeroed padded workspace collects the taps and its
        # interior is accumulated at the end.
        if self._gpadh is not None:
            target = self._gpadh
            target.fill(0.0)
        else:
            target = np.moveaxis(gin, 1, -1)
        for tap in range(taps):
            np.multiply(self._gouth, self._wt[tap], out=self._gtap)
            self._tap_view(target, tap)[...] += self._gtap
        if self._gpadh is not None:
            gin += np.moveaxis(self._gpadh[:, p:p + h, p:p + w, :], 3, 1)


class DepthwiseEinsumKernel(ConvKernel):
    """Single-pass einsum contraction over a strided NHWC tap view.

    With a channels-last input the whole depthwise contraction is one
    ``einsum`` over a zero-copy strided view ``(b, oh, ow, k, k, C)`` of the
    border-padded input::

        out[b, y, x, c] = sum_ij view[b, y, x, i, j, c] * w[i, j, c]

    — a single C-level pass whose innermost axis is the contiguous channel
    run, each output element folding its ``k*k`` products in tap order
    ``(i, j)``.  The VJPs contract clipped strided windows of the plan's own
    slot buffers, tap by tap, so the kernel carries no persistent state.

    This is the NumPy NHWC kernel and the fallback of
    :class:`DepthwiseNativeKernel`, which computes the same sums in C.
    """

    name = "depthwise_einsum"
    trains = True

    @classmethod
    def _block(cls, spec):
        tile = spec.out_height * spec.out_width
        padded = (spec.height + 2 * spec.padding) * (spec.width + 2 * spec.padding)
        return _lane_block(spec, (padded + tile) * spec.in_channels * spec.itemsize)

    @classmethod
    def supports(cls, spec):
        return spec.depthwise and spec.layout == "NHWC"

    @classmethod
    def scratch_requests(cls, spec):
        if spec.padding == 0:
            return ()
        padded = math.prod(_padded_shape(spec, cls._block(spec))) * spec.itemsize
        return ((SCRATCH_PAD, padded),)

    @classmethod
    def backward_scratch_requests(cls, spec, input_grad_needed):
        tile = spec.batch * spec.out_height * spec.out_width * spec.in_channels
        return ((SCRATCH_MAIN, tile * spec.itemsize),)

    def __init__(self, spec, plan):
        super().__init__(spec, plan)
        self._b = self._block(spec)
        self._xph = (
            plan.workspace(_padded_shape(spec, self._b), channel=SCRATCH_PAD)
            if self.scratch_requests(spec)
            else None
        )
        #: Per-tap weight rows ``(k*k, C)``, refreshed from the live weight
        #: array every call (tiny next to any feature map).
        self._wt = plan.alloc((spec.kernel * spec.kernel, spec.in_channels))

    def _tap_bounds(self, tap):
        """Clipped tap geometry: padding realised as a shrunken region.

        Returns ``(y0, y1, x0, x1, r0, c0)``: the tap contributes to output
        rows ``y0:y1`` / cols ``x0:x1``, reading input rows from ``r0`` and
        cols from ``c0`` (both stepped by the stride).
        """
        spec = self.spec
        i, j = divmod(tap, spec.kernel)
        s, p = spec.stride, spec.padding
        y0 = max(0, -(-(p - i) // s))
        y1 = min(spec.out_height, (spec.height - 1 - i + p) // s + 1)
        x0 = max(0, -(-(p - j) // s))
        x1 = min(spec.out_width, (spec.width - 1 - j + p) // s + 1)
        return y0, y1, x0, x1, y0 * s + i - p, x0 * s + j - p

    def forward(self, x, weight, out, epilogue):
        spec = self.spec
        n, c, p = spec.batch, spec.in_channels, spec.padding
        k, s = spec.kernel, spec.stride
        oh, ow = spec.out_height, spec.out_width
        self._wt[...] = weight.reshape(c, k * k).T
        wv = self._wt.reshape(k, k, c)
        blockwise = epilogue.blockwise
        for n0 in range(0, n, self._b):
            n1 = min(n0 + self._b, n)
            b = n1 - n0
            if p > 0:
                xb = self._xph[:b]
                _fill_padded(xb, x[n0:n1], p)
            else:
                xb = x[n0:n1]
            st = xb.strides
            xv = as_strided(
                xb,
                (b, oh, ow, k, k, c),
                (st[0], st[1] * s, st[2] * s, st[1], st[2], st[3]),
            )
            np.einsum("nhwijc,ijc->nhwc", xv, wv, out=out[n0:n1])
            if blockwise:
                epilogue.apply(out[n0:n1], lanes=slice(n0, n1))
        if not blockwise:
            epilogue.apply(out)

    def allocate_backward(self, plan, input_grad_needed):
        self._gtap = (
            plan.workspace(self._out_nhwc(), channel=SCRATCH_MAIN)
            if self.backward_scratch_requests(self.spec, input_grad_needed)
            else None
        )

    def _out_nhwc(self):
        spec = self.spec
        return (spec.batch, spec.out_height, spec.out_width, spec.in_channels)

    def backward(self, gout, x, weight, gw, gin):
        spec = self.spec
        k, s = spec.kernel, spec.stride
        self._wt[...] = weight.reshape(spec.in_channels, k * k).T
        for tap in range(k * k):
            y0, y1, x0, x1, r0, c0 = self._tap_bounds(tap)
            gv = gout[:, y0:y1, x0:x1, :]
            xv = x[:, r0:r0 + s * (y1 - y0):s, c0:c0 + s * (x1 - x0):s, :]
            gt = self._gtap[:, :y1 - y0, :x1 - x0]
            np.multiply(gv, xv, out=gt)
            i, j = divmod(tap, k)
            gw[:, 0, i, j] += gt.sum(axis=(0, 1, 2))
            if gin is not None:
                np.multiply(gv, self._wt[tap], out=gt)
                gin[:, r0:r0 + s * (y1 - y0):s, c0:c0 + s * (x1 - x0):s, :] += gt


@register_kernel
class DepthwiseNativeKernel(DepthwiseEinsumKernel):
    """The einsum kernel's arithmetic as compiled C, bitwise equal to it.

    Forward: implicit zero padding — no padded copy, no scratch — with each
    output pixel accumulated in registers in tap order and stored once, then
    the step's epilogue on the whole output.  Weight VJP: per-tap channel
    reduction in ``(b, y, x)`` order into a ``(k*k, C)`` buffer, then added
    into ``gw``.  Input VJP: a tap-major scatter per image.  Arrays the C
    code cannot take (not C-contiguous, or not of the signature's dtype) go
    through the inherited einsum path.  The plan's own slots never need it,
    so its pad/tap buffers are private and allocated on first use rather
    than requested from the plan's scratch arena.
    """

    name = "depthwise_native"

    @classmethod
    def supports(cls, spec):
        return (
            super().supports(spec)
            and spec.dtype in ("float32", "float64")
            and _native.available()
        )

    @classmethod
    def scratch_requests(cls, spec):
        return ()

    @classmethod
    def backward_scratch_requests(cls, spec, input_grad_needed):
        return ()

    def allocate_backward(self, plan, input_grad_needed):
        super().allocate_backward(plan, input_grad_needed)
        self._gwt = plan.alloc((self.spec.kernel ** 2, self.spec.in_channels))

    def _native_ok(self, *arrays):
        dtype = self._wt.dtype
        return all(
            a is None or (a.flags.c_contiguous and a.dtype == dtype) for a in arrays
        )

    def forward(self, x, weight, out, epilogue):
        spec = self.spec
        if not self._native_ok(x, out):
            if self._xph is None and spec.padding > 0:
                self._xph = np.empty(_padded_shape(spec, self._b), self._wt.dtype)
            return super().forward(x, weight, out, epilogue)
        k = spec.kernel
        self._wt[...] = weight.reshape(spec.in_channels, k * k).T
        _native.dw_conv(x, self._wt, out, k, spec.stride, spec.padding)
        epilogue.apply(out)

    def backward(self, gout, x, weight, gw, gin):
        spec = self.spec
        if not self._native_ok(gout, x, gw, gin):
            if self._gtap is None:
                self._gtap = np.empty(self._out_nhwc(), self._wt.dtype)
            return super().backward(gout, x, weight, gw, gin)
        k = spec.kernel
        self._wt[...] = weight.reshape(spec.in_channels, k * k).T
        _native.dw_conv_bwd(
            gout, x, self._wt, gw, gin, self._gwt, k, spec.stride, spec.padding
        )


# The einsum kernel registers after its native subclass: the last candidate
# is the autotuner's incumbent, so the C kernel must beat the NumPy one by the
# tuning margin to serve a signature.
register_kernel(DepthwiseEinsumKernel)
