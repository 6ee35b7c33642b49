"""Autotuner candidate failures: recorded, excluded, quarantined."""

import numpy as np
import pytest

from repro.drl.agent import ActorCriticAgent
from repro.networks import AgentSuperNet
from repro.nn import Conv2d, Sequential
from repro.reliability import health
from repro.runtime import compile_plan
from repro.runtime.kernels import (
    ConvSpec,
    candidates,
    clear_autotune_cache,
    clear_quarantine,
    quarantine_kernel,
    quarantined_kernels,
    selection_table,
)
from repro.runtime.kernels import _native
from repro.runtime.kernels.autotune import _BenchArena, choose, failures_for
from repro.runtime.kernels.depthwise import DepthwiseNativeKernel
from repro.runtime.kernels.registry import reset_selections
from repro.runtime.plan import Conv2dStep


@pytest.fixture(autouse=True)
def _fresh_kernel_state():
    reset_selections()
    clear_autotune_cache()
    clear_quarantine()
    yield
    reset_selections()
    clear_autotune_cache()
    clear_quarantine()


def depthwise_spec(size=9):
    # Depthwise NCHW inference: served by both depthwise_direct and the
    # im2col fallback, so the autotuner has a real decision to make.
    # batch, cin, cout, h, w, kernel, stride, padding, groups, dtype, direction
    return ConvSpec(2, 4, 4, size, size, 3, 1, 1, 4, "float64", "infer")


class TestQuarantineRegistry:
    def test_quarantine_excludes_from_candidates(self):
        spec = depthwise_spec()
        names = [cls.name for cls in candidates(spec)]
        assert "depthwise_direct" in names
        counter = health.get("quarantined_kernels")
        assert quarantine_kernel("depthwise_direct", "broken in test")
        assert health.get("quarantined_kernels") == counter + 1
        assert "depthwise_direct" not in [cls.name for cls in candidates(spec)]
        assert quarantined_kernels()["depthwise_direct"] == "broken in test"

    def test_requarantine_keeps_first_reason_without_recount(self):
        counter = health.get("quarantined_kernels")
        quarantine_kernel("im2col_block", "first")
        quarantine_kernel("im2col_block", "second")
        assert quarantined_kernels()["im2col_block"] == "first"
        assert health.get("quarantined_kernels") == counter + 1

    def test_fallback_kernel_refuses_quarantine(self):
        assert not quarantine_kernel("im2col", "must never be excluded")
        assert "im2col" not in quarantined_kernels()

    def test_candidates_never_go_empty(self):
        spec = depthwise_spec()
        for cls in candidates(spec):
            quarantine_kernel(cls.name, "sweep")
        # The fallback refused quarantine, so dispatch still has a candidate.
        assert candidates(spec)


class TestAutotunerFailures:
    def test_raising_candidate_is_recorded_and_excluded(self, set_faults):
        set_faults("kernel_error=depthwise_direct")
        spec = depthwise_spec()
        cls, source = choose(spec, candidates(spec))
        assert cls.name != "depthwise_direct"
        failures = failures_for(spec)
        assert "depthwise_direct" in failures
        assert "RuntimeError" in failures["depthwise_direct"]
        assert "depthwise_direct" in quarantined_kernels()
        # Subsequent signatures never see the broken candidate again.
        other = depthwise_spec(size=7)
        assert "depthwise_direct" not in [c.name for c in candidates(other)]

    def test_clean_autotune_records_no_failures(self):
        spec = depthwise_spec()
        choose(spec, candidates(spec))
        assert not failures_for(spec)
        assert quarantined_kernels() == {}

    def test_selection_table_reports_failures(self, set_faults, monkeypatch):
        set_faults("kernel_error=depthwise_direct")
        net = Sequential(Conv2d(4, 4, 3, stride=1, padding=1, groups=4,
                                rng=np.random.default_rng(0)))
        monkeypatch.setenv("REPRO_KERNELS", "auto")
        plan = compile_plan(net, (2, 4, 9, 9))
        x = np.random.default_rng(1).random((2, 4, 9, 9))
        out = np.asarray(plan.run(x))
        assert np.all(np.isfinite(out))
        rows = [row for row in selection_table().values() if row.get("failures")]
        assert rows, "the autotuned row should carry the candidate failure"
        assert any("depthwise_direct" in row["failures"] for row in rows)
        assert all(row["kernel"] != "depthwise_direct" for row in rows)


@pytest.mark.skipif(not _native.available(), reason="the host cannot build the native kernels")
class TestNativeDepthwiseQuarantine:
    def test_broken_native_kernel_degrades_to_einsum(self, set_faults, monkeypatch):
        """A crashing ``depthwise_native`` is quarantined once; the einsum
        fallback serves its signatures with bitwise-identical output."""
        set_faults("kernel_error=depthwise_native")
        monkeypatch.setenv("REPRO_KERNELS", "auto")
        supernet = AgentSuperNet(in_channels=2, input_size=32, feature_dim=128,
                                 base_width=16, rng=np.random.default_rng(0))
        agent = ActorCriticAgent(supernet.derive([4, 5, 6] * 4), num_actions=6,
                                 feature_dim=128, rng=np.random.default_rng(0))
        agent.eval()
        x = np.random.default_rng(1).random((4, 2, 32, 32)).astype(np.float32)
        counter = health.get("quarantined_kernels")
        plan = compile_plan(agent, x.shape, dtype=np.float32)
        assert "depthwise_native" in quarantined_kernels()
        assert health.get("quarantined_kernels") == counter + 1
        served = [
            step for step in plan.steps
            if isinstance(step, Conv2dStep) and step._kernel.spec.depthwise
            and step._kernel.spec.layout == "NHWC"
        ]
        assert served, "no channels-last depthwise conv in the derived plan"
        assert all(step._kernel.name == "depthwise_einsum" for step in served)
        fallback = [np.asarray(o).copy() for o in plan.run(x)]
        # The same plan with the native kernel bound to those steps.
        for step in served:
            spec = step._kernel.spec
            step._kernel = DepthwiseNativeKernel(spec, _BenchArena(spec))
        native = [np.asarray(o).copy() for o in plan.run(x)]
        for got, expected in zip(native, fallback):
            assert got.tobytes() == expected.tobytes()
