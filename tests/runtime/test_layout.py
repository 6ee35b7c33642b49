"""Layout-aware plan IR: propagation parity, opt-out, and plan lint.

The ``layout`` pass re-tags slots channels-last (NHWC) wherever the
autotuner's per-layout costs justify it, inserting explicit transposes only
at boundaries.  Different layouts legitimately dispatch different kernels
(e.g. the NHWC einsum depthwise vs the NCHW im2col path), which agree only
up to float reassociation — so parity here is checked against the same
plan compiled with the layout pass disabled, at the reassociation
tolerances the kernel suite already enforces (1e-12 f64 / 1e-6 f32,
relative to the output scale).
"""

import zlib

import numpy as np
import pytest

from repro.drl.agent import ActorCriticAgent
from repro.drl.teacher import make_agent
from repro.networks import AgentSuperNet, build_backbone
from repro.nn import Sequential, no_grad, Tensor
from repro.nn.modules import BatchNorm2d, Conv2d, ReLU
from repro.runtime import CompiledTrainStep, compile_plan
from repro.runtime import kernels as conv_kernels
from repro.runtime import passes
from repro.runtime.kernels import ENV_VAR as KERNELS_ENV
from repro.runtime.kernels.registry import reset_selections, scratch_upper_bound, ConvSpec
from repro.runtime.passes import (
    ENV_VAR as PASSES_ENV,
    LINT_ENV_VAR,
    PASS_NAMES,
    PlanLintError,
    lint_enabled,
    lint_plan,
)
from repro.runtime.plan import (
    ActivationStep,
    AddStep,
    BatchNormStep,
    Conv2dStep,
    GateCombineStep,
    GlobalAvgPoolStep,
    TileStep,
    TransposeStep,
)

F64_TOL = 1e-12
F32_TOL = 1e-6

#: Every pass except the layout assignment: the control plans below.
NO_LAYOUT = frozenset(PASS_NAMES) - {"layout"}


@pytest.fixture(autouse=True)
def _fresh_selection_table():
    """The selection table is process-global; tests inspect only their own rows."""
    reset_selections()
    yield
    reset_selections()


def assert_parity(result, reference, tol):
    """Max-abs parity scaled by the reference magnitude (min scale 1)."""
    results = result if isinstance(result, tuple) else (result,)
    references = reference if isinstance(reference, tuple) else (reference,)
    for got, want in zip(results, references):
        scale = max(1.0, float(np.abs(want).max()))
        np.testing.assert_allclose(got, want, atol=tol * scale, rtol=0.0)


def derived_supernet(seed=0, input_size=28):
    net = AgentSuperNet(in_channels=2, input_size=input_size, feature_dim=32,
                        base_width=4, rng=np.random.default_rng(seed))
    net = net.derive([4, 5, 6] * 4)
    net.eval()
    return net


def depthwise_stack(cin=6, k=5, stride=2, seed=3):
    """Inverted-residual-flavoured stack: pointwise / depthwise / pointwise."""
    rng = np.random.default_rng(seed)
    return Sequential(
        Conv2d(cin, 2 * cin, 1, rng=rng),
        BatchNorm2d(2 * cin),
        ReLU(),
        Conv2d(2 * cin, 2 * cin, k, stride=stride, padding=k // 2,
               groups=2 * cin, rng=rng),
        BatchNorm2d(2 * cin),
        ReLU(),
        Conv2d(2 * cin, cin, 1, rng=rng),
    )


class TestInferenceParity:
    """Layout-propagated plans match layout-disabled plans numerically."""

    @pytest.mark.parametrize("name", ["Vanilla", "ResNet-14"])
    @pytest.mark.parametrize("dtype,tol", [(np.float64, F64_TOL), (np.float32, F32_TOL)])
    def test_backbones(self, rng, name, dtype, tol):
        kwargs = {} if name == "Vanilla" else {"base_width": 4}
        backbone = build_backbone(name, in_channels=2, input_size=28,
                                  feature_dim=32,
                                  rng=np.random.default_rng(1), **kwargs)
        backbone.eval()
        x = rng.random((3, 2, 28, 28)).astype(dtype)
        plan = compile_plan(backbone, x.shape, dtype=dtype)
        control = compile_plan(backbone, x.shape, dtype=dtype, passes=NO_LAYOUT)
        assert_parity(plan.run(x), control.run(x), tol)

    @pytest.mark.parametrize("dtype,tol", [(np.float64, F64_TOL), (np.float32, F32_TOL)])
    def test_derived_supernet(self, rng, dtype, tol):
        net = derived_supernet()
        x = rng.random((3, 2, 28, 28)).astype(dtype)
        plan = compile_plan(net, x.shape, dtype=dtype)
        control = compile_plan(net, x.shape, dtype=dtype, passes=NO_LAYOUT)
        assert_parity(plan.run(x), control.run(x), tol)

    @pytest.mark.parametrize("dtype,tol", [(np.float64, F64_TOL), (np.float32, F32_TOL)])
    def test_heuristic_mode(self, rng, monkeypatch, dtype, tol):
        """Static layout rules (no timing) keep parity too."""
        monkeypatch.setenv(KERNELS_ENV, "heuristic")
        net = derived_supernet()
        x = rng.random((3, 2, 28, 28)).astype(dtype)
        plan = compile_plan(net, x.shape, dtype=dtype)
        control = compile_plan(net, x.shape, dtype=dtype, passes=NO_LAYOUT)
        assert_parity(plan.run(x), control.run(x), tol)

    @pytest.mark.parametrize("size,stride", [(13, 1), (13, 2), (9, 2)])
    @pytest.mark.parametrize("dtype,tol", [(np.float64, F64_TOL), (np.float32, F32_TOL)])
    def test_odd_spatial_and_stride(self, rng, monkeypatch, size, stride, dtype, tol):
        """Odd sizes + stride-2 clip the depthwise taps asymmetrically."""
        monkeypatch.setenv(KERNELS_ENV, "heuristic")
        net = depthwise_stack(stride=stride)
        net.eval()
        x = rng.random((4, 6, size, size)).astype(dtype)
        plan = compile_plan(net, x.shape, dtype=dtype)
        control = compile_plan(net, x.shape, dtype=dtype, passes=NO_LAYOUT)
        assert_parity(plan.run(x), control.run(x), tol)

    def test_supernet_path_argument(self, rng):
        supernet = AgentSuperNet(in_channels=2, input_size=28, feature_dim=32,
                                 base_width=4, rng=np.random.default_rng(0))
        supernet.eval()
        x = rng.random((3, 2, 28, 28))
        path = [4, 5, 6] * 4
        plan = compile_plan(supernet, x.shape, path=path)
        control = compile_plan(supernet, x.shape, path=path, passes=NO_LAYOUT)
        assert_parity(plan.run(x), control.run(x), F64_TOL)


class TestTrainingParity:
    """Gradients of layout-propagated training plans match layout-off plans."""

    def _agent(self, seed=0, derive=True):
        supernet = AgentSuperNet(in_channels=2, input_size=28, feature_dim=32,
                                 base_width=4, rng=np.random.default_rng(seed))
        if derive:
            supernet = supernet.derive([4, 5, 6] * 4)
        agent = ActorCriticAgent(supernet, num_actions=6, feature_dim=32,
                                 rng=np.random.default_rng(seed))
        agent.train()
        return agent

    def _batch(self, rng, batch=5):
        return (
            rng.random((batch, 2, 28, 28)),
            rng.integers(0, 6, size=batch),
            rng.standard_normal(batch),
            rng.standard_normal(batch),
        )

    def _grads(self, agent, args, **kwargs):
        step = CompiledTrainStep(agent)
        plan, result = step.compute_gradients(*args, **kwargs)
        return result.total, {
            name: np.array(plan.param_grad(p))
            for name, p in agent.named_parameters()
            if plan.param_grad(p) is not None
        }

    def _compare(self, monkeypatch, rng, derive=True, **kwargs):
        args = self._batch(rng)
        monkeypatch.setenv(PASSES_ENV, ",".join(sorted(NO_LAYOUT)))
        control_total, control = self._grads(self._agent(derive=derive), args, **kwargs)
        monkeypatch.delenv(PASSES_ENV)
        total, grads = self._grads(self._agent(derive=derive), args, **kwargs)
        assert abs(total - control_total) <= F64_TOL * max(1.0, abs(control_total))
        assert set(grads) == set(control)
        for name in control:
            scale = max(1.0, float(np.abs(control[name]).max()))
            np.testing.assert_allclose(grads[name], control[name],
                                       atol=F64_TOL * scale, rtol=0.0,
                                       err_msg=name)

    def test_train_gradients(self, rng, monkeypatch):
        self._compare(monkeypatch, rng)

    def test_stacked_path_gradients(self, rng, monkeypatch):
        """The K-sample stacked mode keeps gradient parity under layouts."""
        num_samples, num_cells, num_choices = 2, 12, 9
        actives = []
        for k in range(num_samples):
            r = np.random.default_rng(100 + k)
            actives.append(
                [sorted(int(i) for i in r.choice(num_choices, size=2, replace=False))
                 for _ in range(num_cells)]
            )
        union = [
            tuple(sorted(set(actives[0][c]) | set(actives[1][c])))
            for c in range(num_cells)
        ]
        stacked = []
        for c in range(num_cells):
            values = np.zeros((num_samples, len(union[c])))
            for k in range(num_samples):
                r = np.random.default_rng(200 + k)
                for j, i in enumerate(actives[k][c]):
                    values[k, union[c].index(i)] = r.random()
            stacked.append(values)
        self._compare(monkeypatch, rng, derive=False, gated_paths=union,
                      gate_values=stacked, num_samples=num_samples)


class TestOptOut:
    """Disabling the layout pass restores the all-NCHW program bit-exactly."""

    def test_env_var_opt_out_matches_explicit_disable(self, rng, monkeypatch):
        net = derived_supernet()
        x = rng.random((3, 2, 28, 28))
        control = compile_plan(net, x.shape, passes=NO_LAYOUT)
        monkeypatch.setenv(PASSES_ENV, ",".join(sorted(NO_LAYOUT)))
        plan = compile_plan(net, x.shape)
        assert not any(isinstance(s, TransposeStep) for s in plan.steps)
        for step in plan.steps:
            if isinstance(step, Conv2dStep):
                assert step.layout == "NCHW"
                assert plan.layout(step.out_slot) in (None, "NCHW")
        np.testing.assert_allclose(plan.run(x), control.run(x), atol=0.0)


class TestPropagationStructure:
    """Deterministic (heuristic-mode) structural expectations."""

    def test_channels_last_propagates_through_cells(self, rng, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV, "heuristic")
        net = derived_supernet()
        x = rng.random((3, 2, 28, 28))
        plan = compile_plan(net, x.shape)
        convs = [s for s in plan.steps if isinstance(s, Conv2dStep)]
        nhwc = [s for s in convs if s.layout == "NHWC"]
        transposes = [s for s in plan.steps if isinstance(s, TransposeStep)]
        # The synthetic costs favour channels-last for every depthwise /
        # pointwise conv; propagation through whole inverted-residual chains
        # needs only a boundary transpose or two, never one per conv.
        assert len(nhwc) >= len(convs) // 2
        assert len(transposes) <= 3
        assert plan.layout(plan.input_slot) in (None, "NCHW")
        # Logical shapes stay NCHW; the physical view follows the tag.
        for step in nhwc:
            n, c, h, w = plan.shape(step.out_slot)
            assert plan.physical_shape(step.out_slot) == (n, h, w, c)
        assert_parity(plan.run(x),
                      compile_plan(net, x.shape, passes=NO_LAYOUT).run(x),
                      F64_TOL)

    def test_no_adjacent_transpose_pairs(self, rng, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV, "heuristic")
        net = derived_supernet()
        plan = compile_plan(net, (3, 2, 28, 28))
        producer_is_transpose = {}
        for step in plan.steps:
            if isinstance(step, TransposeStep):
                assert not producer_is_transpose.get(step.in_slot, False)
            for slot in (getattr(step, "out_slot", None),):
                if slot is not None:
                    producer_is_transpose[slot] = isinstance(step, TransposeStep)


class TestScratchBounds:
    """Shared arenas are sized in bytes over every (candidate, layout) pair."""

    def test_upper_bound_covers_both_layouts(self):
        from repro.runtime.kernels.registry import candidates

        spec = ConvSpec(4, 8, 8, 9, 9, 5, 2, 2, 8, "float32", "train", "NCHW")
        bound = dict(scratch_upper_bound(spec))
        for layout in ("NCHW", "NHWC"):
            variant = spec._replace(layout=layout)
            for cls in candidates(variant):
                requests = list(cls.scratch_requests(variant))
                requests += list(cls.backward_scratch_requests(variant, True))
                for channel, nbytes in requests:
                    assert bound.get(channel, 0) >= int(nbytes), (
                        layout, cls.name, channel)


class TestPlanLint:
    def test_enabled_under_pytest_by_default(self, monkeypatch):
        monkeypatch.delenv(LINT_ENV_VAR, raising=False)
        assert lint_enabled()  # PYTEST_CURRENT_TEST is in the environment
        monkeypatch.setenv(LINT_ENV_VAR, "0")
        assert not lint_enabled()
        monkeypatch.setenv(LINT_ENV_VAR, "1")
        assert lint_enabled()

    def test_compiled_plans_pass(self, rng, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV, "heuristic")
        plan = compile_plan(derived_supernet(), (3, 2, 28, 28))
        assert lint_plan(plan) is plan

    def _nhwc_plan(self, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV, "heuristic")
        return compile_plan(derived_supernet(), (3, 2, 28, 28))

    def test_layout_mismatch_fails_loudly(self, monkeypatch):
        plan = self._nhwc_plan(monkeypatch)
        conv = next(s for s in plan.steps
                    if isinstance(s, Conv2dStep) and s.layout == "NHWC")
        plan.set_layout(conv.out_slot, "NCHW")
        with pytest.raises(PlanLintError, match="tagged NCHW but step expects NHWC"):
            lint_plan(plan)

    def test_noop_transpose_fails_loudly(self, monkeypatch):
        plan = self._nhwc_plan(monkeypatch)
        transpose = next(s for s in plan.steps if isinstance(s, TransposeStep))
        original = transpose.to_layout
        transpose.to_layout = transpose.from_layout
        try:
            with pytest.raises(PlanLintError, match="no-op"):
                lint_plan(plan)
        finally:
            transpose.to_layout = original

    def test_uncancelled_pair_fails_loudly(self, monkeypatch):
        plan = self._nhwc_plan(monkeypatch)
        index, transpose = next(
            (i, s) for i, s in enumerate(plan.steps) if isinstance(s, TransposeStep)
        )
        inverse = TransposeStep(
            in_slot=transpose.out_slot,
            out_slot=transpose.in_slot,
            from_layout=transpose.to_layout,
            to_layout=transpose.from_layout,
        )
        plan.steps.insert(index + 1, inverse)
        try:
            with pytest.raises(PlanLintError, match="uncancelled adjacent pair"):
                lint_plan(plan)
        finally:
            plan.steps.pop(index + 1)


class TestCacheStatsLayout:
    def test_selection_rows_record_layout(self, rng, monkeypatch):
        from repro.runtime import cache_stats

        monkeypatch.setenv(KERNELS_ENV, "heuristic")
        plan = compile_plan(derived_supernet(), (3, 2, 28, 28))
        rows = cache_stats()["kernels"]
        layouts = {entry["layout"] for entry in rows.values()}
        assert "NHWC" in layouts
        for signature, entry in rows.items():
            assert entry["layout"].lower() in signature


# --------------------------------------------------------------------------- #
# Layout-decision equivalence against the step-walking reference
# --------------------------------------------------------------------------- #
# The reference below is the layout pass as it was before it compiled the
# plan into a flat record program: a per-step rule function driven through a
# generic propagation walk, re-run for every candidate the hill-climb prices.
# The production pass must reach bit-identical costs, assignments and step
# lists from the same kernel costs.


def _ref_step_layout_plan(step, lay, conv_layout, zero_slots):
    if isinstance(step, Conv2dStep):
        layout = conv_layout.get(id(step), "NCHW")
        requires = {step.in_slot: layout}
        if step.res_slot is not None:
            requires[step.res_slot] = layout
        return layout, requires, {step.out_slot: layout}
    if isinstance(step, (BatchNormStep, TileStep)):
        layout = lay(step.in_slot) or "NCHW"
        return layout, {}, {step.out_slot: layout}
    if isinstance(step, ActivationStep):
        return lay(step.slot), {}, {step.slot: lay(step.slot)}
    if isinstance(step, AddStep):
        if step.out_slot in (step.a_slot, step.b_slot):
            layout = lay(step.out_slot) or "NCHW"
        else:
            prefs = [
                lay(slot)
                for slot in (step.a_slot, step.b_slot)
                if slot not in zero_slots and lay(slot) is not None
            ]
            layout = prefs[0] if prefs else "NCHW"
        requires = {
            slot: layout
            for slot in (step.a_slot, step.b_slot)
            if slot != step.out_slot
        }
        return layout, requires, {step.out_slot: layout}
    if isinstance(step, GateCombineStep):
        prefs = [
            lay(slot)
            for slot in step.in_slots
            if slot not in zero_slots and lay(slot) is not None
        ]
        nhwc = sum(1 for pref in prefs if pref == "NHWC")
        if not prefs:
            layout = "NCHW"
        elif nhwc * 2 > len(prefs):
            layout = "NHWC"
        elif nhwc * 2 < len(prefs):
            layout = "NCHW"
        else:
            layout = prefs[0]
        return layout, {slot: layout for slot in step.in_slots}, {step.out_slot: layout}
    if isinstance(step, GlobalAvgPoolStep):
        return lay(step.in_slot) or "NCHW", {}, {}
    if isinstance(step, TransposeStep):
        return step.to_layout, {step.in_slot: step.from_layout}, {
            step.out_slot: step.to_layout
        }
    requires = {
        slot: "NCHW" for slot in passes.step_reads(step) if lay(slot) is not None
    }
    return "NCHW", requires, {}


def _ref_walk_layouts(plan, ctx, conv_layout, on_boundary, materialize=None):
    if materialize is None:
        layouts = list(plan._layouts)
    else:
        layouts = plan._layouts
    versions = {}
    claimed_zero = set()
    for step in plan.steps:
        layout, requires, outs = _ref_step_layout_plan(
            step, lambda s: layouts[s], conv_layout, ctx.zero_slots
        )
        remap = {}
        for slot, needed in requires.items():
            current = layouts[slot]
            if current is None or current == needed:
                continue
            if slot in ctx.zero_slots and slot not in claimed_zero:
                claimed_zero.add(slot)
                layouts[slot] = needed
                continue
            twin = on_boundary(step, slot, versions.get(slot, 0), current, needed)
            if twin is not None:
                remap[slot] = twin
        if materialize is not None:
            if remap:
                passes._rewire_reads(step, remap)
            if isinstance(step, (Conv2dStep, BatchNormStep, GlobalAvgPoolStep)):
                step.layout = layout
            materialize.append(step)
        for slot, new_layout in outs.items():
            if new_layout is not None:
                layouts[slot] = new_layout
            versions[slot] = versions.get(slot, 0) + 1


def _ref_cost_model(plan, ctx, convs):
    conv_costs = {}
    heuristic = False
    for step in convs:
        costs = dict(conv_kernels.layout_costs(step._spec(plan)))
        if step.out_slot in ctx.protected_slots:
            costs["NHWC"] = float("inf")
        if any(cost is None for cost in costs.values()):
            heuristic = True
        conv_costs[id(step)] = costs
    if heuristic:
        for step in convs:
            spec = step._spec(plan)
            feasible = conv_costs[id(step)].get("NHWC") != float("inf")
            good = spec.depthwise or spec.pointwise
            conv_costs[id(step)] = {
                "NCHW": passes._SYN_NCHW,
                "NHWC": (passes._SYN_NHWC_GOOD if good else passes._SYN_NHWC_NEUTRAL)
                if feasible
                else float("inf"),
            }

        def trans_cost(slot):
            return passes._SYN_TRANSPOSE

    else:

        def trans_cost(slot):
            return conv_kernels.transpose_seconds(plan.shape(slot), plan.dtype)

    def evaluate(assign):
        boundaries = set()

        def on_boundary(step, slot, version, current, needed):
            boundaries.add((slot, version, needed))

        _ref_walk_layouts(plan, ctx, assign, on_boundary)
        total = sum(conv_costs[cid][layout] for cid, layout in assign.items())
        weight = 2.0 if plan.train else 1.0
        return total + weight * sum(trans_cost(slot) for slot, _, _ in boundaries)

    return conv_costs, evaluate


def _ref_assign_layouts(plan, ctx):
    convs = [step for step in plan.steps if isinstance(step, Conv2dStep)]
    if not convs:
        return
    conv_costs, evaluate = _ref_cost_model(plan, ctx, convs)
    assign = {id(step): "NCHW" for step in convs}
    best = evaluate(assign)
    components = passes._conv_components(plan, convs)
    for _ in range(passes._LAYOUT_ROUNDS):
        moves = []
        for comp in components:
            for layout in conv_kernels.LAYOUTS:
                moves.append([(cid, layout) for cid in comp])
        for step in convs:
            cid = id(step)
            moves.append([(cid, "NHWC" if assign[cid] == "NCHW" else "NCHW")])
        winner = None
        winner_cost = best
        for move in moves:
            candidate = dict(assign)
            changed = False
            for cid, layout in move:
                if conv_costs[cid][layout] != float("inf") and candidate[cid] != layout:
                    candidate[cid] = layout
                    changed = True
            if not changed:
                continue
            cost = evaluate(candidate)
            if cost < winner_cost * passes._LAYOUT_MARGIN:
                winner, winner_cost = candidate, cost
        if winner is None:
            break
        assign, best = winner, winner_cost
    if all(layout == "NCHW" for layout in assign.values()):
        return
    twins = {}
    new_steps = []

    def on_boundary(step, slot, version, current, needed):
        key = (slot, version, needed)
        twin = twins.get(key)
        if twin is None:
            twin = plan.new_slot(plan.shape(slot), layout=needed)
            new_steps.append(TransposeStep(slot, twin, current, needed))
            twins[key] = twin
            if slot == plan.input_slot or slot in plan._no_grad_slots:
                plan._no_grad_slots.add(twin)
        return twin

    _ref_walk_layouts(plan, ctx, assign, on_boundary, materialize=new_steps)
    plan.steps = new_steps


def _fake_measured(monkeypatch):
    """Fixed per-signature "measured" costs: the timed branch, deterministically.

    Dispatch stays heuristic (no timing at all); the layout pass sees
    per-layout kernel costs and per-shape transpose costs derived from a
    checksum of the signature, so it searches a rugged but reproducible
    landscape that lands on mixed assignments.
    """
    real_layout_costs = conv_kernels.layout_costs

    def unit(text):
        return (zlib.crc32(text.encode()) % 1000 + 1) / 1000.0

    def layout_costs(spec):
        costs = real_layout_costs(spec)
        # Channels-last a little cheaper on average, so searches mix layouts.
        scale = {"NCHW": 1e-4, "NHWC": 0.7e-4}
        return {
            layout: cost if cost is not None
            else scale[layout] * unit("{}{}".format(spec, layout))
            for layout, cost in costs.items()
        }

    def transpose_seconds(shape, dtype):
        return 5e-6 * unit("{}{}".format(tuple(shape), np.dtype(dtype)))

    monkeypatch.setattr(conv_kernels, "layout_costs", layout_costs)
    monkeypatch.setattr(conv_kernels, "transpose_seconds", transpose_seconds)


def _gated_supernet_agent():
    """A3CSConfig geometry: 12 cells, base width 8, 28x28x2 observations."""
    supernet = AgentSuperNet(in_channels=2, input_size=28, feature_dim=32,
                             base_width=8, num_cells=12,
                             rng=np.random.default_rng(0))
    agent = ActorCriticAgent(supernet, num_actions=6, feature_dim=32,
                             rng=np.random.default_rng(0))
    agent.train()
    return agent


def _top2_paths(agent, seed):
    r = np.random.default_rng(seed)
    supernet = agent.backbone
    return tuple(
        tuple(sorted(int(i) for i in r.choice(supernet.num_choices_per_cell, 2,
                                               replace=False)))
        for _ in range(supernet.num_cells)
    )


def _derived_rollout_agent():
    """The derived [4,5,6]x4 agent (base width 16, 32x32x2) of the rollout loop."""
    supernet = AgentSuperNet(in_channels=2, input_size=32, feature_dim=128,
                             base_width=16, rng=np.random.default_rng(0))
    agent = ActorCriticAgent(supernet.derive([4, 5, 6] * 4), num_actions=6,
                             feature_dim=128, rng=np.random.default_rng(0))
    agent.eval()
    return agent


def _plan_structure(plan):
    """Everything the layout pass decides, in comparable form."""
    steps = [
        (
            type(step).__name__,
            getattr(step, "layout", None),
            tuple(passes.step_reads(step)),
            tuple(passes.step_writes(step)),
            getattr(step, "from_layout", None),
            getattr(step, "to_layout", None),
        )
        for step in plan.steps
    ]
    return steps, list(plan._layouts), sorted(plan._no_grad_slots)


def _compile_both(monkeypatch, compile_fn, assignments=24):
    """Compile with the production pass and with the reference pass.

    While the production compile runs, the pre-layout plan is also priced
    under random assignments by both evaluators, which must agree exactly.
    Returns both compiled structures and the production plan.
    """
    priced = []

    def production(plan, ctx):
        convs = [step for step in plan.steps if isinstance(step, Conv2dStep)]
        if convs:
            program = passes._LayoutProgram(plan, ctx)
            _, evaluate = passes._layout_cost_model(plan, ctx, convs, program)
            _, reference = _ref_cost_model(plan, ctx, convs)
            r = np.random.default_rng(len(plan.steps))
            for trial in range(assignments):
                share = (trial % 4 + 0.5) / 4.0
                assign = {
                    id(step): "NHWC" if r.random() < share else "NCHW"
                    for step in convs
                }
                cost = evaluate(assign)
                assert cost == reference(assign), (trial, cost, reference(assign))
            priced.append(len(convs))
        passes.assign_layouts(plan, ctx)

    monkeypatch.setitem(passes._PASS_FUNCS, "layout", production)
    plan = compile_fn()
    monkeypatch.setitem(passes._PASS_FUNCS, "layout", _ref_assign_layouts)
    reference = compile_fn()
    monkeypatch.setitem(passes._PASS_FUNCS, "layout", passes.assign_layouts)
    assert priced, "the layout pass never ran"
    return _plan_structure(plan), _plan_structure(reference), plan


@pytest.fixture(params=["heuristic", "measured"])
def cost_mode(request, monkeypatch):
    """Both cost branches of the pass, deterministically."""
    monkeypatch.setenv(KERNELS_ENV, "heuristic")
    if request.param == "measured":
        _fake_measured(monkeypatch)
    return request.param


class TestLayoutProgramEquivalence:
    """The compiled layout program decides exactly what the step walk did."""

    def _assert_same(self, monkeypatch, compile_fn):
        got, want, plan = _compile_both(monkeypatch, compile_fn)
        assert got[0] == want[0]
        assert got[1] == want[1]
        assert got[2] == want[2]
        return plan

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gated_supernet_train_plans(self, monkeypatch, cost_mode, seed):
        agent = _gated_supernet_agent()
        gated = _top2_paths(agent, seed)
        self._assert_same(
            monkeypatch,
            lambda: compile_plan(agent, (10, 2, 28, 28), train=True, gated_paths=gated),
        )

    @pytest.mark.parametrize("batch", [1, 2, 16, 32])
    def test_derived_agent_f32_inference(self, monkeypatch, cost_mode, batch):
        agent = _derived_rollout_agent()
        self._assert_same(
            monkeypatch,
            lambda: compile_plan(agent, (batch, 2, 32, 32), dtype=np.float32),
        )

    @pytest.mark.parametrize("train", [False, True])
    def test_resnet20_teacher(self, monkeypatch, cost_mode, train):
        teacher = make_agent("ResNet-20", obs_size=28, frame_stack=2,
                             feature_dim=32, base_width=8, seed=0)
        teacher.train(train)
        self._assert_same(
            monkeypatch,
            lambda: compile_plan(teacher, (10, 2, 28, 28), train=train),
        )

    def test_zero_slots_and_in_place_joins(self, monkeypatch, cost_mode):
        """Standalone ReLUs share all-zero helper slots (first-claim re-tags)."""
        net = Sequential(depthwise_stack(stride=1), ReLU(), depthwise_stack(cin=6, k=3))
        net.train()
        plan = self._assert_same(
            monkeypatch, lambda: compile_plan(net, (4, 6, 9, 9), train=True)
        )
        operands = [step.b_slot for step in plan.steps if isinstance(step, AddStep)]
        # The shared zero slot really is shared between joins.
        assert max(operands.count(slot) for slot in operands) >= 2

    def test_rerun_over_materialised_transposes(self, monkeypatch, cost_mode):
        """Existing transpose steps re-tag their outputs and constrain their inputs."""
        agent = _derived_rollout_agent()
        first = compile_plan(agent, (4, 2, 32, 32), dtype=np.float32)
        second = compile_plan(agent, (4, 2, 32, 32), dtype=np.float32)
        assert any(isinstance(step, TransposeStep) for step in first.steps)
        ctx = passes.PassContext(
            protected_slots={first.input_slot, *first.output_slots,
                             *first.named_slots.values()},
        )
        convs = [step for step in first.steps if isinstance(step, Conv2dStep)]
        _, evaluate = passes._layout_cost_model(
            first, ctx, convs, passes._LayoutProgram(first, ctx)
        )
        _, reference = _ref_cost_model(first, ctx, convs)
        r = np.random.default_rng(7)
        for _ in range(24):
            assign = {id(step): "NHWC" if r.random() < 0.5 else "NCHW" for step in convs}
            assert evaluate(assign) == reference(assign)
        passes.assign_layouts(first, ctx)
        _ref_assign_layouts(second, ctx)
        assert _plan_structure(first) == _plan_structure(second)
