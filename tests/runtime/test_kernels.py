"""Conv kernel registry: parity across implementations, dispatch, autotuning.

Every registered kernel must reproduce the im2col reference bit-tightly
(f64 <= 1e-12, f32 <= 1e-6) in both directions, across depthwise / grouped /
dense / pointwise signatures, strides and paddings — including stacked-path
and train-mode plans.  Dispatch must honour ``REPRO_KERNELS`` pinning, fall
back cleanly when a pinned kernel rejects a signature, and the autotuner
must make one cached, deterministic decision per signature per process.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro import runtime
from repro.drl.agent import ActorCriticAgent
from repro.networks import AgentSuperNet
from repro.nn import Conv2d, Sequential
from repro.runtime import compile_plan
from repro.runtime.kernels import (
    ENV_VAR,
    ConvSpec,
    candidates,
    clear_autotune_cache,
    kernel_names,
    selection_table,
)
from repro.runtime.kernels import _native
from repro.runtime.kernels.autotune import NULL_EPILOGUE, _BenchArena
from repro.runtime.kernels.conv import BlockedIm2colKernel
from repro.runtime.kernels.depthwise import (
    DepthwiseDirectKernel,
    DepthwiseEinsumKernel,
    DepthwiseNativeKernel,
)
from repro.runtime.kernels.registry import reset_selections

F64_TOL = 1e-12
F32_TOL = 1e-6


@pytest.fixture(autouse=True)
def _fresh_selection_table():
    """The selection table is process-global; tests inspect only their own rows."""
    reset_selections()
    yield
    reset_selections()

#: (in_channels, out_channels, kernel, stride, padding, groups, height)
SHAPES = (
    (6, 6, 3, 1, 1, 6, 9),     # depthwise k3 s1
    (5, 5, 5, 2, 2, 5, 8),     # depthwise k5 s2
    (4, 4, 5, 1, 2, 4, 7),     # depthwise k5 s1
    (4, 4, 3, 1, 0, 4, 6),     # depthwise, no padding
    (6, 8, 3, 1, 1, 2, 7),     # grouped (non-depthwise)
    (3, 7, 3, 2, 1, 1, 9),     # dense strided
    (5, 9, 1, 1, 0, 1, 6),     # pointwise
)


def conv_net(cin, cout, k, s, p, g, seed=3):
    """Producer conv + conv-under-test, so the input VJP path is exercised."""
    rng = np.random.default_rng(seed)
    return Sequential(
        Conv2d(cin, cin, 3, stride=1, padding=1, rng=rng),
        Conv2d(cin, cout, k, stride=s, padding=p, groups=g, rng=rng),
    )


def spec_for(cin, cout, k, s, p, g, h, batch=4, dtype="float64", direction="infer"):
    return ConvSpec(batch, cin, cout, h, h, k, s, p, g, dtype, direction)


def run_pinned(monkeypatch, pin, shape, dtype, train=False):
    """Compile + run (and backward) the two-conv net under one kernel pin."""
    cin, cout, k, s, p, g, h = shape
    monkeypatch.setenv(ENV_VAR, pin)
    net = conv_net(cin, cout, k, s, p, g)
    x = np.random.default_rng(11).random((4, cin, h, h)).astype(dtype)
    plan = compile_plan(net, x.shape, dtype=dtype, train=train)
    out = np.asarray(plan.run(x)).copy()
    grads = None
    if train:
        plan.zero_grads()
        plan.seed_grad(plan.output_slots[0], np.ones_like(out))
        plan.run_backward()
        grads = [g.copy() for _, g in plan.param_grads.values()]
    return out, grads


class TestKernelParity:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("dtype,tol", [(np.float64, F64_TOL), (np.float32, F32_TOL)])
    def test_forward_parity_all_kernels(self, monkeypatch, shape, dtype, tol):
        reference, _ = run_pinned(monkeypatch, "im2col", shape, dtype)
        for name in kernel_names():
            if name == "im2col":
                continue
            # Pinning a kernel that rejects the signature falls back — the
            # result must be correct either way.
            produced, _ = run_pinned(monkeypatch, name, shape, dtype)
            np.testing.assert_allclose(produced, reference, atol=tol, err_msg=name)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_backward_parity_all_kernels(self, monkeypatch, shape):
        reference, ref_grads = run_pinned(monkeypatch, "im2col", shape, np.float64, train=True)
        for name in kernel_names():
            if name == "im2col":
                continue
            produced, grads = run_pinned(monkeypatch, name, shape, np.float64, train=True)
            np.testing.assert_allclose(produced, reference, atol=F64_TOL, err_msg=name)
            assert len(grads) == len(ref_grads)
            for got, expected in zip(grads, ref_grads):
                np.testing.assert_allclose(got, expected, atol=F64_TOL, err_msg=name)

    def test_blocked_kernel_splits_batch(self, monkeypatch):
        """A signature big enough to block must still match the reference."""
        shape = (32, 32, 5, 1, 2, 32, 16)
        spec = spec_for(*shape, batch=4, dtype="float32")
        assert BlockedIm2colKernel.supports(spec)
        assert BlockedIm2colKernel._block(spec) < spec.batch
        reference, _ = run_pinned(monkeypatch, "im2col", shape, np.float32)
        produced, _ = run_pinned(monkeypatch, "im2col_block", shape, np.float32)
        np.testing.assert_allclose(produced, reference, atol=F32_TOL)

    def test_f32_fast_path_depthwise_direct(self, monkeypatch):
        shape = (6, 6, 3, 1, 1, 6, 9)
        reference, _ = run_pinned(monkeypatch, "im2col", shape, np.float32)
        produced, _ = run_pinned(monkeypatch, "depthwise_direct", shape, np.float32)
        assert produced.dtype == np.float32
        np.testing.assert_allclose(produced, reference, atol=F32_TOL)


class TestStackedAndTrainPlans:
    def _grads(self, monkeypatch, pin, dtype=np.float64, num_samples=2):
        monkeypatch.setenv(ENV_VAR, pin)
        supernet = AgentSuperNet(in_channels=2, input_size=16, feature_dim=32,
                                 base_width=8, num_cells=3,
                                 rng=np.random.default_rng(0))
        agent = ActorCriticAgent(supernet, num_actions=4, feature_dim=32,
                                 rng=np.random.default_rng(0))
        agent.train()
        gated = tuple((2, 4) for _ in range(supernet.num_cells))
        x = np.random.default_rng(5).random((3, 2, 16, 16))
        plan = compile_plan(agent, x.shape, dtype=dtype, train=True,
                            gated_paths=gated, num_samples=num_samples)
        values = [np.full((num_samples, len(cell)), 0.5) for cell in plan.gate_layout]
        plan.set_gates(values)
        probs, _ = plan.run(x)
        plan.zero_grads()
        plan.seed_grad(plan.named_slots["logits"], np.ones((3 * num_samples, 4)))
        plan.seed_grad(plan.named_slots["value_col"], np.ones((3 * num_samples, 1)))
        plan.run_backward()
        return np.asarray(probs).copy(), [g.copy() for _, g in plan.param_grads.values()]

    def test_stacked_gated_train_plan_parity(self, monkeypatch):
        """Stacked-path supernet training: all kernels agree on alpha-path grads."""
        ref_probs, ref_grads = self._grads(monkeypatch, "im2col")
        probs, grads = self._grads(monkeypatch, "depthwise_direct")
        np.testing.assert_allclose(probs, ref_probs, atol=F64_TOL)
        for got, expected in zip(grads, ref_grads):
            np.testing.assert_allclose(got, expected, atol=1e-11)


class TestDispatch:
    def test_unknown_kernel_name_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "no_such_kernel")
        net = conv_net(4, 4, 3, 1, 1, 4)
        with pytest.raises(ValueError, match="no_such_kernel"):
            compile_plan(net, (2, 4, 6, 6))

    def test_unknown_op_class_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "bogus_class=im2col")
        net = conv_net(4, 4, 3, 1, 1, 4)
        with pytest.raises(ValueError, match="bogus_class"):
            compile_plan(net, (2, 4, 6, 6))

    def test_pin_is_recorded_per_signature(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "depthwise_direct")
        net = conv_net(4, 4, 3, 1, 1, 4)
        compile_plan(net, (2, 4, 6, 6))
        table = selection_table()
        row = next(v for k, v in table.items() if k.startswith("depthwise:n2c4"))
        assert row["kernel"] == "depthwise_direct"
        assert row["source"] == "pinned"

    def test_pin_falls_back_when_unsupported(self, monkeypatch):
        """depthwise_direct rejects dense convs; dispatch must fall back."""
        monkeypatch.setenv(ENV_VAR, "depthwise_direct")
        rng = np.random.default_rng(0)
        net = Sequential(Conv2d(3, 5, 3, stride=1, padding=1, rng=rng))
        x = np.random.default_rng(1).random((2, 3, 8, 8))
        plan = compile_plan(net, x.shape)
        row = next(
            v for k, v in selection_table().items() if k.startswith("dense:n2c3")
        )
        assert row["kernel"] != "depthwise_direct"
        assert row["source"] == "pin-fallback"
        monkeypatch.setenv(ENV_VAR, "im2col")
        reference = compile_plan(
            Sequential(Conv2d(3, 5, 3, stride=1, padding=1, rng=np.random.default_rng(0))),
            x.shape,
        )
        np.testing.assert_allclose(plan.run(x), reference.run(x), atol=F64_TOL)

    def test_per_op_class_pins(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "depthwise=depthwise_direct,dense=im2col")
        net = conv_net(4, 4, 5, 2, 2, 4)  # producer dense k3 + depthwise k5 s2
        compile_plan(net, (2, 4, 9, 9))
        table = selection_table()
        dense = next(v for k, v in table.items() if k.startswith("dense:n2c4"))
        depthwise = next(v for k, v in table.items() if k.startswith("depthwise:n2c4"))
        assert dense["kernel"] == "im2col"
        assert depthwise["kernel"] == "depthwise_direct"

    def test_candidates_respect_training(self):
        infer = spec_for(4, 4, 3, 1, 1, 4, 6, direction="infer")
        train = spec_for(4, 4, 3, 1, 1, 4, 6, direction="train")
        assert {cls.name for cls in candidates(train)} <= {
            cls.name for cls in candidates(infer)
        } | {"im2col", "depthwise_direct"}
        assert all(cls.trains for cls in candidates(train))

    def test_depthwise_direct_rejects_dense(self):
        assert not DepthwiseDirectKernel.supports(spec_for(3, 5, 3, 1, 1, 1, 8))
        assert DepthwiseDirectKernel.supports(spec_for(4, 4, 3, 1, 1, 4, 8))


class TestAutotuner:
    def test_auto_decision_is_cached_and_deterministic(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        clear_autotune_cache()
        shape = (6, 6, 3, 1, 1, 6, 9)
        out1, _ = run_pinned(monkeypatch, "auto", shape, np.float64)
        table = selection_table()
        key, row = next(
            (k, v) for k, v in table.items() if k.startswith("depthwise:n4c6")
        )
        assert row["source"] in ("autotuned", "only")
        first_choice = row["kernel"]
        # Second compile of the same signature must reuse the cached winner
        # without re-timing (deterministic within the process).
        out2, _ = run_pinned(monkeypatch, "auto", shape, np.float64)
        row = selection_table()[key]
        assert row["kernel"] == first_choice
        assert row["source"] == "cached"
        np.testing.assert_array_equal(out1, out2)

    def test_autotuned_rows_report_timings(self, monkeypatch):
        clear_autotune_cache()
        shape = (6, 6, 3, 1, 1, 6, 9)
        run_pinned(monkeypatch, "auto", shape, np.float64)
        row = next(
            v for k, v in selection_table().items() if k.startswith("depthwise:n4c6")
        )
        if row["source"] == "autotuned":
            assert set(row["timings_ms"]) >= {"im2col", "depthwise_direct"}
            assert all(t > 0 for t in row["timings_ms"].values())

    def test_cache_stats_reports_kernel_table(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "im2col")
        net = conv_net(4, 4, 3, 1, 1, 4)
        compile_plan(net, (2, 4, 6, 6))
        stats = runtime.cache_stats()
        assert "kernels" in stats
        assert any(key.startswith("depthwise:") for key in stats["kernels"])
        assert all("kernel" in row and "source" in row for row in stats["kernels"].values())


class TestScratchArenas:
    def test_einsum_pad_copy_is_arena_backed(self, monkeypatch):
        """The NHWC einsum depthwise pad copy draws from the shared scratch
        arena — a plan-owned block sized by the aliasing pass — not a fresh
        per-call (or even per-plan private) allocation."""
        from repro.nn import Sequential as Seq
        from repro.runtime.kernels.depthwise import DepthwiseEinsumKernel
        from repro.runtime.kernels.registry import SCRATCH_PAD
        from repro.runtime.plan import Conv2dStep

        monkeypatch.setenv(ENV_VAR, "depthwise=depthwise_einsum")
        rng = np.random.default_rng(0)
        net = Seq(
            Conv2d(6, 6, 3, stride=1, padding=1, groups=6, rng=rng),
            Conv2d(6, 4, 3, stride=1, padding=1, rng=rng),  # dense head, unpinned
        )
        plan = compile_plan(net, (2, 6, 10, 10), dtype=np.float32)
        kernels = [
            step._kernel for step in plan.steps
            if isinstance(step, Conv2dStep) and isinstance(step._kernel, DepthwiseEinsumKernel)
        ]
        assert kernels, "pin did not select the einsum depthwise kernel"
        pad_block = plan._scratch_blocks.get(SCRATCH_PAD)
        assert pad_block is not None, "aliasing pass provisioned no pad arena"
        for kernel in kernels:
            assert kernel._xph is not None
            assert np.shares_memory(kernel._xph, pad_block)


class TestBlasThreadRecording:
    """Selection rows carry the BLAS thread context they were decided under."""

    def test_blas_thread_count_positive(self):
        from repro.runtime.kernels import blas_thread_count

        assert blas_thread_count() >= 1

    def test_env_override_wins(self, monkeypatch):
        from repro.runtime.kernels import blas_thread_count

        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        assert blas_thread_count() == 3

    def test_every_selection_row_reports_host_threads(self, monkeypatch):
        from repro.runtime.kernels import blas_thread_count

        monkeypatch.setenv(ENV_VAR, "heuristic")
        compile_plan(conv_net(4, 4, 3, 1, 1, 4), (2, 4, 6, 6))
        table = selection_table()
        assert table
        for row in table.values():
            assert row["host_blas_threads"] == blas_thread_count()
            # Heuristic selection never timed, so no timed context exists.
            assert "timed_blas_threads" not in row

    def test_timed_rows_record_tuning_thread_context(self, monkeypatch):
        from repro.runtime.kernels import blas_thread_count

        clear_autotune_cache()
        run_pinned(monkeypatch, "auto", (6, 6, 3, 1, 1, 6, 9), np.float64)
        row = next(
            v for k, v in selection_table().items() if k.startswith("depthwise:n4c6")
        )
        if row["source"] == "autotuned":
            assert row["timed_blas_threads"] == blas_thread_count()


#: (batch, channels, size, kernel, stride) for the native-vs-einsum suite:
#: k3 and k5, stride 1 and 2, batch 1 and odd batches, and channel counts
#: that are not a multiple of any SIMD width next to ones that are.
NATIVE_SHAPES = (
    (1, 16, 16, 5, 1),
    (3, 7, 9, 3, 2),
    (5, 13, 11, 5, 2),
    (16, 96, 8, 3, 1),
    (2, 12, 7, 3, 1),
    (1, 24, 6, 5, 2),
)

native_only = pytest.mark.skipif(
    not _native.available(), reason="the host cannot build the native kernels"
)


def _bind_depthwise(cls, batch, channels, size, k, stride, dtype, direction):
    spec = ConvSpec(batch, channels, channels, size, size, k, stride, k // 2,
                    channels, np.dtype(dtype).name, direction, "NHWC")
    kernel = cls(spec, _BenchArena(spec))
    if spec.train:
        kernel.allocate_backward(_BenchArena(spec), True)
    return spec, kernel


def _depthwise_pass(cls, shape, dtype, direction, seed=0, gin_needed=True):
    """Forward (and both VJPs for train) of one bound kernel on seeded data."""
    spec, kernel = _bind_depthwise(cls, *shape, dtype, direction)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(spec.in_shape).astype(dtype)
    weight = rng.standard_normal((spec.in_channels, 1, spec.kernel, spec.kernel)).astype(dtype)
    out = np.full(spec.out_shape, np.nan, dtype=dtype)
    kernel.forward(x, weight, out, NULL_EPILOGUE)
    if not spec.train:
        return (out,)
    gout = rng.standard_normal(spec.out_shape).astype(dtype)
    # Nonzero starting values: the VJPs must accumulate, not overwrite.
    gw = rng.standard_normal(weight.shape).astype(dtype)
    gin = rng.standard_normal(x.shape).astype(dtype) if gin_needed else None
    kernel.backward(gout, x, weight, gw, gin)
    return (out, gw) if gin is None else (out, gw, gin)


@native_only
class TestNativeDepthwise:
    """``depthwise_native`` is bitwise equal to its ``depthwise_einsum`` fallback."""

    @pytest.mark.parametrize("shape", NATIVE_SHAPES)
    @pytest.mark.parametrize("direction", ["infer", "train"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_einsum(self, shape, direction, dtype):
        native = _depthwise_pass(DepthwiseNativeKernel, shape, dtype, direction)
        einsum = _depthwise_pass(DepthwiseEinsumKernel, shape, dtype, direction)
        for got, expected, what in zip(native, einsum, ("forward", "gw", "gin")):
            assert got.dtype == expected.dtype == dtype
            assert got.tobytes() == expected.tobytes(), what

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weight_vjp_alone_is_bitwise_equal(self, dtype):
        shape = (3, 7, 9, 3, 2)
        native = _depthwise_pass(DepthwiseNativeKernel, shape, dtype, "train", gin_needed=False)
        einsum = _depthwise_pass(DepthwiseEinsumKernel, shape, dtype, "train", gin_needed=False)
        assert native[1].tobytes() == einsum[1].tobytes()

    def test_non_contiguous_input_takes_einsum_path(self, monkeypatch):
        calls = []
        monkeypatch.setattr(_native, "dw_conv", lambda *a: calls.append(a))
        spec, kernel = _bind_depthwise(DepthwiseNativeKernel, 3, 7, 9, 3, 1,
                                       np.float64, "infer")
        rng = np.random.default_rng(1)
        wide = rng.standard_normal(spec.in_shape[:3] + (2 * spec.in_channels,))
        x = wide[..., ::2]
        assert not x.flags.c_contiguous
        weight = rng.standard_normal((7, 1, 3, 3))
        out = np.empty(spec.out_shape)
        kernel.forward(x, weight, out, NULL_EPILOGUE)
        assert not calls
        _, reference = _bind_depthwise(DepthwiseEinsumKernel, 3, 7, 9, 3, 1,
                                       np.float64, "infer")
        expected = np.empty(spec.out_shape)
        reference.forward(np.ascontiguousarray(x), weight, expected, NULL_EPILOGUE)
        assert out.tobytes() == expected.tobytes()

    def test_non_contiguous_gradient_takes_einsum_path(self, monkeypatch):
        calls = []
        monkeypatch.setattr(_native, "dw_conv_bwd", lambda *a: calls.append(a))
        grads = {}
        for cls in (DepthwiseNativeKernel, DepthwiseEinsumKernel):
            spec, kernel = _bind_depthwise(cls, 3, 7, 9, 3, 2, np.float64, "train")
            rng = np.random.default_rng(2)
            x = rng.standard_normal(spec.in_shape)
            weight = rng.standard_normal((7, 1, 3, 3))
            wide = rng.standard_normal(spec.out_shape[:3] + (2 * spec.in_channels,))
            gout = wide[..., ::2]
            gw, gin = np.zeros_like(weight), np.zeros_like(x)
            kernel.backward(gout, x, weight, gw, gin)
            grads[cls.name] = (gw, gin)
        assert not calls
        for got, expected in zip(grads["depthwise_native"], grads["depthwise_einsum"]):
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape", [(2, 5, 7, 3, 2), (1, 3, 6, 5, 1)])
    def test_vjps_match_finite_differences(self, shape, numgrad):
        spec, kernel = _bind_depthwise(DepthwiseNativeKernel, *shape, np.float64, "train")
        rng = np.random.default_rng(2)
        x = rng.standard_normal(spec.in_shape)
        weight = rng.standard_normal((spec.in_channels, 1, spec.kernel, spec.kernel))
        probe = rng.standard_normal(spec.out_shape)
        out = np.empty(spec.out_shape)

        def loss():
            kernel.forward(x, weight, out, NULL_EPILOGUE)
            return float(np.sum(out * probe))

        gw = np.zeros_like(weight)
        gin = np.zeros_like(x)
        kernel.backward(probe.copy(), x, weight, gw, gin)
        np.testing.assert_allclose(gw, numgrad(loss, weight), atol=1e-7)
        np.testing.assert_allclose(gin, numgrad(loss, x), atol=1e-7)

    def test_registered_ahead_of_einsum(self):
        names = kernel_names()
        assert names.index("depthwise_native") < names.index("depthwise_einsum")
        spec = ConvSpec(16, 16, 16, 16, 16, 5, 1, 2, 16, "float32", "infer", "NHWC")
        assert [cls.name for cls in candidates(spec)] == [
            "depthwise_native", "depthwise_einsum"
        ]
        # NCHW and quantized depthwise signatures are not its business.
        assert "depthwise_native" not in {
            cls.name for cls in candidates(spec._replace(layout="NCHW"))
        }

    def test_fallback_process_serves_identical_plan(self, tmp_path):
        """``REPRO_NATIVE=0``: no native candidate, bitwise-identical plan output.

        Heuristic dispatch keeps every other choice (layouts included) the
        same in both processes, so the only difference is which depthwise
        kernel serves the channels-last convs.
        """
        env = dict(os.environ, REPRO_KERNELS="heuristic")
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        outputs = {}
        for native in ("1", "0"):
            path = tmp_path / "out{}.npz".format(native)
            env["REPRO_NATIVE"] = native
            done = subprocess.run(
                [sys.executable, "-c", _DERIVED_PLAN_SCRIPT, str(path)],
                env=env, timeout=600, capture_output=True, text=True,
            )
            assert done.returncode == 0, done.stderr
            outputs[native] = np.load(path)
        with_native, fallback = outputs["1"], outputs["0"]
        assert "depthwise_native" in set(with_native["kernels"])
        assert "depthwise_native" not in set(fallback["kernels"])
        assert not fallback["native_candidate"]
        for key in ("probs", "value"):
            assert with_native[key].tobytes() == fallback[key].tobytes(), key


SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

_DERIVED_PLAN_SCRIPT = """
import sys
import numpy as np
from repro.drl.agent import ActorCriticAgent
from repro.networks import AgentSuperNet
from repro.runtime import compile_plan
from repro.runtime.kernels import ConvSpec, candidates
from repro.runtime.plan import Conv2dStep

supernet = AgentSuperNet(in_channels=2, input_size=32, feature_dim=128,
                         base_width=16, rng=np.random.default_rng(0))
agent = ActorCriticAgent(supernet.derive([4, 5, 6] * 4), num_actions=6,
                         feature_dim=128, rng=np.random.default_rng(0))
agent.eval()
x = np.random.default_rng(3).random((5, 2, 32, 32)).astype(np.float32)
plan = compile_plan(agent, x.shape, dtype=np.float32)
probs, value = plan.run(x)
kernels = [s._kernel.name for s in plan.steps if isinstance(s, Conv2dStep)]
spec = ConvSpec(5, 16, 16, 16, 16, 5, 1, 2, 16, "float32", "infer", "NHWC")
native_candidate = "depthwise_native" in [c.name for c in candidates(spec)]
np.savez(sys.argv[1], probs=np.asarray(probs), value=np.asarray(value),
         kernels=np.array(kernels), native_candidate=native_candidate)
"""
