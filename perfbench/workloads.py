"""The benchmark's workloads, driven only through the package's public API.

Every workload has the same shape:

* ``setup()`` builds everything up to the first timed operation (the runner
  times it as ``setup_s``);
* ``measure(seconds, recorder=None)`` runs the timed phase and returns its
  raw figures; given a :class:`benchlib.SpanRecorder` it first wraps the
  public entry point of each layer on the live instances and returns the
  per-layer figures instead;
* ``check()`` runs the correctness checks, outside every timed region, and
  returns the number of failed checks;
* ``close()`` releases threads and buffers.

``rollout`` and ``serve`` run the derived A3C-S agent of
``benchmarks/test_runtime_throughput.py`` (path ``[4, 5, 6] x 4``,
base width 16, 32x32x2 observations, float32 runtime); ``cosearch`` runs
Algorithm 1 at the ``A3CSConfig`` geometry.
"""

from __future__ import annotations

import gc
import sys
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, wait

import numpy as np

from benchlib import (
    containing,
    covered_ns,
    kernel_family,
    layer_table,
    percentile,
    poisson_schedule,
    union,
)

from repro.cosearch import A3CSConfig
from repro.cosearch.hardware import HardwarePenalty, UnitGranularityDAS
from repro.drl import (
    ActorCriticAgent,
    RolloutBuffer,
    TaskLossWeights,
    combine_task_loss,
    entropy_loss,
    make_agent,
    policy_gradient_loss,
    value_loss,
)
from repro.envs import make_vector_env
from repro.nas import ArchitectureParameters, DRLArchitectureSearch
from repro.networks import AgentSuperNet
from repro.nn import Tensor
from repro.reliability import health
from repro.runtime import CompiledTrainStep
from repro.serving import PolicyServer, ServingError
from repro.telemetry import report, trace

GAME = "Breakout"

# The derived agent of the batch-16 rollout loop (rollout and serve).
DERIVED_PATH = [4, 5, 6] * 4
OBS_SIZE = 32
FRAME_STACK = 2
FEATURE_DIM = 128
BASE_WIDTH = 16
NUM_ACTIONS = 6
NUM_ENVS = 16
ROLLOUT_LENGTH = 5

#: Float32 answers (runtime vs eager forward; served vs direct at another
#: bucket size): action probabilities within the 1e-6 that
#: ``benchmarks/test_runtime_throughput.py`` holds the same agent to (they
#: differ by ~1e-7, the reassociation the README states); values, which
#: reach ~60, within a relative 1e-5 (~100 float32 ulps; they differ by up
#: to ~1.2e-6 relative).
PROBS_TOL = 1e-6
VALUE_RTOL = 1e-5
#: Float64 compiled vs eager gradients (the runtime is exact to ~1e-12 at f64).
GRAD_PARITY_TOL = 1e-9

#: Open-loop arrival rates (requests/s) and the closed-loop window.
SERVE_RATES = (100, 200)
SERVE_WINDOW = 32
#: Distinct observations the served requests cycle through.
SERVE_POOL = 256
#: An open-loop phase whose generator ran later than this at p99 did not
#: keep to its schedule, so its latencies are not reported.
MAX_GEN_LATE_MS = 20.0
#: Runs of an open-loop phase, the first included: a phase whose generator
#: fell behind (a host stall of ~100 ms is enough at 200 req/s) is
#: discarded and run again on the same schedule.
GEN_ATTEMPTS = 2

#: A timed phase may run past its seconds to reach its minimum sample count,
#: but never past this multiple of them.
MAX_EXTENSION = 2.0
#: A phase stops after this many failed operations.
MAX_FAILURES = 10


def build_derived_agent():
    """The float32 derived agent shared by ``rollout`` and ``serve``."""
    supernet = AgentSuperNet(
        in_channels=FRAME_STACK,
        input_size=OBS_SIZE,
        feature_dim=FEATURE_DIM,
        base_width=BASE_WIDTH,
        rng=np.random.default_rng(0),
    )
    agent = ActorCriticAgent(
        supernet.derive(DERIVED_PATH), num_actions=NUM_ACTIONS,
        feature_dim=FEATURE_DIM, rng=np.random.default_rng(0),
    )
    agent.eval()
    agent.runtime_dtype = np.float32
    return agent


def make_env(seed, num_envs=NUM_ENVS):
    return make_vector_env(
        GAME, num_envs=num_envs, obs_size=OBS_SIZE, frame_stack=FRAME_STACK,
        seed=seed, backend="batched",
    )


def serve_observations(seed, count=SERVE_POOL):
    """``count`` observations from seeded Breakout play under random actions."""
    env = make_env(seed)
    rng = np.random.default_rng(seed)
    frames = [env.reset(seed=seed)]
    while len(frames) * NUM_ENVS < count:
        observations, _, _, _ = env.step(rng.integers(0, NUM_ACTIONS, size=NUM_ENVS))
        frames.append(observations)
    env.close()
    return np.concatenate(frames)[:count].astype(np.float32)


def mismatch(probs, values, ref_probs, ref_values):
    """Largest absolute probability error and largest relative value error."""
    probs_err = float(np.abs(np.asarray(probs) - ref_probs).max())
    scale = np.maximum(1.0, np.abs(ref_values))
    value_err = float((np.abs(np.asarray(values) - ref_values) / scale).max())
    return probs_err, value_err


def timed_loop(op, seconds, min_samples, after=None):
    """Call ``op`` until ``seconds`` passed and ``min_samples`` succeeded.

    Returns ``(durations_ns, failures)``; only ``op`` itself is timed.
    ``after(index)`` runs untimed after each successful call.
    """
    durations, failures = [], 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(durations) >= min_samples:
            break
        if elapsed >= MAX_EXTENSION * seconds or failures >= MAX_FAILURES:
            break
        began = time.perf_counter_ns()
        try:
            op()
        except Exception:  # noqa: BLE001 -- a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            failures += 1
            continue
        durations.append(time.perf_counter_ns() - began)
        if after is not None:
            after(len(durations) - 1)
    return durations, failures


def per_call_ms(table, name, key="self_ns"):
    row = table.get(name)
    return row[key] / row["count"] / 1e6 if row else 0.0


def coverage(spans, roots):
    """Summed self-time of every span under a root over the summed root time."""
    table = layer_table([span for span in spans
                         if span.name in roots or span.parent is not None])
    wall = sum(table[name]["total_ns"] for name in roots if name in table)
    covered = sum(row["self_ns"] for name, row in table.items() if name not in roots)
    return covered / wall if wall else 0.0


def plan_shares(events):
    """Kernel-family, interpreter, forward and backward shares of traced time.

    ``events`` come from the package tracer: ``plan`` spans wrap one plan
    run, ``step`` spans one plan step (conv steps named after their
    kernel signature), ``train/*`` spans the compiled train step's phases.
    """
    plan_ns = 0
    plan_self_ns = 0
    families = {"depthwise": 0, "pointwise": 0, "dense": 0, "other": 0}
    train = {"train/step": 0, "train/forward": 0, "train/backward": 0}
    # Only spans that nest on one thread: the server's cross-thread
    # "serve/request" intervals would otherwise swallow plan steps.
    events = [event for event in events if event["cat"] in ("plan", "step", "train")]
    for event, own in report.self_times(events):
        if event["cat"] == "plan":
            plan_ns += event["dur"]
            plan_self_ns += own
        elif event["cat"] == "step":
            families[kernel_family(event["name"])] += own
        if event["name"] in train:
            train[event["name"]] += event["dur"]
    shares = {
        "kernels.depthwise_share": families["depthwise"] / plan_ns if plan_ns else 0.0,
        "kernels.pointwise_share": families["pointwise"] / plan_ns if plan_ns else 0.0,
        "kernels.dense_share": families["dense"] / plan_ns if plan_ns else 0.0,
        "runtime.interp_self_share": plan_self_ns / plan_ns if plan_ns else 0.0,
    }
    step_ns = train["train/step"]
    shares["train.forward_share"] = train["train/forward"] / step_ns if step_ns else 0.0
    shares["train.backward_share"] = train["train/backward"] / step_ns if step_ns else 0.0
    return shares


class _Traced:
    """Runs one traced phase: package tracer on, wrappers installed, then undone.

    Garbage collections are recorded too, as ``python.gc`` spans: a
    collection stops every thread, and the traced phase allocates enough
    (trace events, spans) to trigger full collections of ~100 ms.
    """

    def __init__(self, recorder):
        self.recorder = recorder
        self.events = []
        self.dropped = 0
        self._collection = None

    def _on_gc(self, stage, _info):
        if stage == "start":
            self._collection = self.recorder.begin()
        elif self._collection is not None:
            self.recorder.end("python.gc", self._collection)
            self._collection = None

    def __enter__(self):
        trace.clear()
        trace.enable(capacity=1 << 19)
        gc.callbacks.append(self._on_gc)
        return self.recorder

    def __exit__(self, *exc_info):
        gc.callbacks.remove(self._on_gc)
        trace.disable()
        self.events = trace.events()
        self.dropped = trace.stats()["dropped"]
        self.recorder.unwrap_all()
        return False


# ---------------------------------------------------------------------- #
# rollout: agent.act -> env.step -> RolloutBuffer.add at batch 16
# ---------------------------------------------------------------------- #
class Rollout:
    name = "rollout"
    warmup_steps = 10
    #: p90 needs ten samples beyond it.
    min_samples = 100
    #: Timed steps whose observations the parity check replays.
    check_every = 100

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        self.agent = build_derived_agent()
        self.env = make_env(self.seed)
        self.buffer = RolloutBuffer(ROLLOUT_LENGTH, NUM_ENVS, self.env.observation_space.shape)
        self.rng = np.random.default_rng(self.seed)
        self.observations = self.env.reset(seed=self.seed)
        self.checked = []
        for _ in range(self.warmup_steps):
            self._step()

    def _step(self):
        if self.buffer.full:
            self.buffer.reset()
        actions, values = self.agent.act(self.observations, self.rng)
        next_observations, rewards, dones, _ = self.env.step(actions)
        self.buffer.add(self.observations, actions, rewards, dones, values)
        self.observations = next_observations

    def _keep(self, index):
        if index % self.check_every == 0:
            self.checked.append(self.observations.copy())

    def measure(self, seconds, recorder=None):
        if recorder is None:
            durations, failures = timed_loop(self._step, seconds, self.min_samples, self._keep)
            return {
                "ops": len(durations), "failed": failures, "durations": durations,
                "units_per_op": NUM_ENVS,
            }
        engine = self.agent.runtime.engine
        misses = engine.cache_misses
        traced = _Traced(recorder)
        with traced as rec:
            rec.wrap(self.agent, "act", "drl.act")
            rec.wrap(self.agent, "policy_value", "drl.policy_value")
            rec.wrap(engine, "run", "runtime.plan")
            rec.wrap(engine, "plan_for", "runtime.plan_for")
            rec.wrap(self.env, "step", "envs.step")
            rec.wrap(self.buffer, "add", "drl.buffer_add")

            def step():
                token = rec.begin()
                try:
                    self._step()
                finally:
                    rec.end("rollout.step", token)

            durations, failures = timed_loop(step, seconds, 1)
        table = layer_table(recorder.spans)
        layers = plan_shares(traced.events)
        layers.update({
            "drl.act_self_ms": per_call_ms(table, "drl.act"),
            "runtime.plan_ms": per_call_ms(table, "runtime.plan"),
            "runtime.infer_plan_misses": engine.cache_misses - misses,
            "envs.step_ms": per_call_ms(table, "envs.step"),
            "drl.buffer_add_ms": per_call_ms(table, "drl.buffer_add"),
            "trace.coverage": coverage(recorder.spans, ("rollout.step",)),
        })
        return {
            "ops": len(durations), "failed": failures, "durations": durations,
            "units_per_op": NUM_ENVS, "layers": layers, "trace_dropped": traced.dropped,
        }

    def check(self):
        """Runtime float32 ``policy_value`` against the eager forward, per kept step."""
        failures = 0
        for observations in self.checked:
            self.agent.use_runtime = True
            probs, values = self.agent.policy_value(observations)
            self.agent.use_runtime = False
            eager_probs, eager_values = self.agent.policy_value(observations)
            self.agent.use_runtime = True
            probs_err, value_err = mismatch(probs, values, eager_probs, eager_values)
            if not (probs_err <= PROBS_TOL and value_err <= VALUE_RTOL):
                print("rollout parity: runtime vs eager differ by {:.3g} (probs), "
                      "{:.3g} (relative, values)".format(probs_err, value_err), file=sys.stderr)
                failures += 1
        self.checked = []
        return failures

    def close(self):
        self.env.close()


# ---------------------------------------------------------------------- #
# cosearch: Algorithm 1 iterations (sample -> rollout -> DAS -> update)
# ---------------------------------------------------------------------- #
class CoSearch:
    name = "cosearch"
    warmup_iterations = 3
    #: p90 needs ten samples beyond it.
    min_samples = 100

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        """Compose the co-search as ``A3CSCoSearch`` builds it, teacher given, batched envs."""
        cfg = A3CSConfig(seed=self.seed)
        teacher = make_agent(
            "ResNet-20", obs_size=cfg.obs_size, frame_stack=cfg.frame_stack,
            feature_dim=cfg.feature_dim, base_width=cfg.base_width, seed=self.seed,
        )
        self.searcher = DRLArchitectureSearch(
            GAME,
            teacher=teacher,
            config=cfg.search_config(),
            env_kwargs={
                "obs_size": cfg.obs_size,
                "frame_stack": cfg.frame_stack,
                "max_episode_steps": cfg.max_episode_steps,
                "backend": "batched",
            },
            supernet_kwargs={
                "input_size": cfg.obs_size,
                "in_channels": cfg.frame_stack,
                "feature_dim": cfg.feature_dim,
                "base_width": cfg.base_width,
                "num_cells": cfg.num_cells,
            },
        )
        das = UnitGranularityDAS(
            num_units=self.searcher.supernet.num_cells + 2, device=cfg.device,
            config=cfg.das_config(),
        )
        self.searcher.hardware_penalty = HardwarePenalty(
            self.searcher.supernet, das, das_steps_per_call=cfg.das_steps_per_iteration
        )
        self.teacher = teacher
        self.steps_per_iteration = cfg.num_envs * self.searcher.config.rollout_length
        self.losses = []
        for _ in range(self.warmup_iterations):
            self._iterate()
        self.losses = []

    def _iterate(self):
        searcher = self.searcher
        searcher.search(total_steps=searcher.total_env_steps + self.steps_per_iteration)
        self.losses.append(searcher.logger.latest("loss/total"))

    def measure(self, seconds, recorder=None):
        searcher = self.searcher
        guards = health.snapshot()
        if recorder is None:
            durations, failures = timed_loop(self._iterate, seconds, self.min_samples)
        else:
            # Built lazily by the first update, so it exists after setup.
            train_step = searcher._train_step
            before = (train_step.cache_misses, train_step.cache_hits,
                      searcher.agent.runtime.engine.cache_misses)
            penalty = searcher.hardware_penalty
            traced = _Traced(recorder)
            with traced as rec:
                rec.wrap(searcher, "search", "nas.loop")
                rec.wrap(searcher.arch, "sample", "nas.arch_sample")
                rec.wrap(searcher.alpha_optimizer, "step", "nas.alpha_update")
                rec.wrap(searcher.agent, "act", "drl.act")
                rec.wrap(searcher.agent, "policy_value", "drl.policy_value")
                rec.wrap(searcher.agent.runtime.engine, "run", "runtime.plan")
                rec.wrap(searcher.agent.runtime.engine, "plan_for", "runtime.plan_for")
                rec.wrap(searcher.env, "step", "envs.step")
                rec.wrap(searcher.collector().buffer, "add", "drl.buffer_add")
                rec.wrap(searcher.distiller, "teacher_targets", "distill.teacher")
                rec.wrap(self.teacher.runtime.engine, "run", "runtime.plan")
                rec.wrap(train_step, "plan_for", "train.plan_for")
                rec.wrap(train_step, "step", "train.step")
                rec.wrap(train_step, "compute_gradients", "train.grad")
                rec.wrap(searcher.weight_optimizer, "apply_gradients", "train.optim")
                rec.wrap(searcher, "hardware_penalty", "cosearch.penalty")
                rec.wrap(penalty.das, "step", "accelerator.das_step")
                durations, failures = timed_loop(self._iterate, seconds, 1)
        iterations = len(durations)
        guard_trips = health.delta(guards).counters.get("guard_trips", 0)
        bad_losses = sum(1 for loss in self.losses if loss is None or not np.isfinite(loss))
        self.losses = []
        result = {
            "ops": iterations, "failed": failures + guard_trips + bad_losses,
            "durations": durations, "units_per_op": self.steps_per_iteration,
        }
        if recorder is None:
            return result
        table = layer_table(recorder.spans)
        names = {span.sid: span.name for span in recorder.spans}
        bootstrap_ns = sum(
            span.dur for span in recorder.spans
            if span.name == "drl.policy_value" and names.get(span.parent) == "nas.loop"
        )
        misses = train_step.cache_misses - before[0]
        hits = train_step.cache_hits - before[1]
        compile_ns = table.get("train.plan_for", {"total_ns": 0})["total_ns"]
        layers = plan_shares(traced.events)
        layers.update({
            "drl.act_self_ms": per_call_ms(table, "drl.act"),
            "runtime.plan_ms": per_call_ms(table, "runtime.plan"),
            "runtime.infer_plan_misses": searcher.agent.runtime.engine.cache_misses - before[2],
            "envs.step_ms": per_call_ms(table, "envs.step"),
            "drl.buffer_add_ms": per_call_ms(table, "drl.buffer_add"),
            "nas.arch_sample_ms": per_call_ms(table, "nas.arch_sample", "total_ns"),
            "nas.alpha_update_ms": per_call_ms(table, "nas.alpha_update", "total_ns"),
            "nas.loop_self_ms": per_call_ms(table, "nas.loop"),
            "drl.bootstrap_ms": bootstrap_ns / iterations / 1e6 if iterations else 0.0,
            "distill.teacher_ms": per_call_ms(table, "distill.teacher", "total_ns"),
            # A hit is a dictionary lookup, so plan_for time is compile time.
            "train.compile_ms": compile_ns / misses / 1e6 if misses else 0.0,
            "train.plan_misses_per_iter": misses / iterations if iterations else 0.0,
            "train.plan_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "train.grad_ms": per_call_ms(table, "train.grad", "total_ns"),
            "train.optim_ms": per_call_ms(table, "train.optim", "total_ns"),
            "cosearch.penalty_self_ms": per_call_ms(table, "cosearch.penalty"),
            "accelerator.das_step_ms": per_call_ms(table, "accelerator.das_step", "total_ns"),
            "trace.coverage": coverage(recorder.spans, ("nas.loop",)),
        })
        result["layers"] = layers
        result["trace_dropped"] = traced.dropped
        return result

    def check(self):
        """Float64 compiled vs eager gradients on the last recorded rollout batch."""
        searcher = self.searcher
        buffer = searcher.collector().buffer
        batch = buffer.compute_targets(np.zeros(buffer.num_envs), searcher.config.gamma)
        obs, actions = batch["observations"], batch["actions"]
        returns, advantages = batch["returns"], batch["advantages"]
        agent = searcher.agent
        weights = TaskLossWeights()
        supernet = searcher.supernet

        def sample():
            arch = ArchitectureParameters(
                supernet.num_cells, supernet.num_choices_per_cell,
                rng=np.random.default_rng(self.seed),
            )
            gates, active, _ = arch.sample(
                5.0, np.random.default_rng(self.seed), num_backward_paths=2
            )
            return arch, gates, active

        arch_eager, gates, active = sample()
        agent.zero_grad()
        chosen, _, values, output = agent.evaluate_actions(
            obs, actions, gates=gates, active_indices=active
        )
        total = combine_task_loss(
            policy_gradient_loss(chosen, advantages),
            value_loss(values, returns),
            entropy_loss(output.probs, output.log_probs),
            weights=weights,
        )
        total.backward()
        eager = {id(p): None if p.grad is None else p.grad.copy() for p in agent.parameters()}
        eager_alpha = [alpha.grad.copy() for alpha in arch_eager.alphas]
        agent.zero_grad()

        arch, gates, active = sample()
        plan, result = CompiledTrainStep(agent).compute_gradients(
            obs, actions, returns, advantages, weights=weights,
            gated_paths=tuple(tuple(cell) for cell in active),
            gate_values=[np.array([gates[c].data[i] for i in cell])
                         for c, cell in enumerate(active)],
        )
        worst = abs(float(total.item()) - result.total)
        for param in agent.parameters():
            reference = eager[id(param)]
            compiled = plan.param_grad(param)
            if reference is not None and compiled is not None:
                worst = max(worst, float(np.abs(compiled - reference).max()))
        seed = None
        for gate, gate_grad, cell in zip(gates, result.gate_grads, active):
            full = np.zeros(gate.data.shape)
            full[list(cell)] = gate_grad
            term = (gate * Tensor(full)).sum()
            seed = term if seed is None else seed + term
        seed.backward()
        for alpha, reference in zip(arch.alphas, eager_alpha):
            worst = max(worst, float(np.abs(alpha.grad - reference).max()))
        if worst <= GRAD_PARITY_TOL:
            return 0
        print("cosearch parity: compiled vs eager gradients differ by {:.3g}".format(worst),
              file=sys.stderr)
        return 1

    def close(self):
        self.searcher.env.close()


# ---------------------------------------------------------------------- #
# serve: open loop at two rates, then a closed loop at a fixed window
# ---------------------------------------------------------------------- #
class _Phase:
    """Per-request stamps (``perf_counter_ns``) of one serving phase."""

    def __init__(self):
        self.due, self.sent, self.accepted, self.done = [], [], [], []
        self.futures, self.pool_index = [], []
        self.shed = 0
        self.completed = 0
        self.seconds = 0.0

    def request(self, due):
        """Open the next request's record; returns its index."""
        for column in (self.sent, self.accepted, self.done, self.pool_index):
            column.append(0)
        self.futures.append(None)
        self.due.append(due)
        return len(self.due) - 1

    def array(self, column):
        return np.asarray(getattr(self, column), dtype=np.int64)

    def late_p99_ms(self):
        """How late the generator sent requests, at p99."""
        return percentile((self.array("sent") - self.array("due")) / 1e6, 99.0)


class Serve:
    name = "serve"
    warmup_requests = 64
    #: p99 of an open-loop phase needs ten samples beyond it.
    min_open_requests = 1000

    def __init__(self, seed):
        self.seed = seed
        self.observations = serve_observations(seed)

    def setup(self):
        self.agent = build_derived_agent()
        self.server = PolicyServer()
        self.server.register_model("agent", self.agent, obs_shape=self.observations.shape[1:],
                                   warm=True)
        self.order = np.random.default_rng(self.seed).integers(0, SERVE_POOL, size=1 << 16)
        self.cursor = 0
        self.phases = []
        self.batch_rows = {}
        warm = [self.server.submit("agent", self.observations[i % SERVE_POOL])
                for i in range(self.warmup_requests)]
        wait(warm)
        for future in warm:
            future.result()

    def _submit(self, phase, i):
        index = int(self.order[self.cursor % len(self.order)])
        self.cursor += 1
        phase.pool_index[i] = index
        phase.sent[i] = time.perf_counter_ns()
        try:
            future = self.server.submit("agent", self.observations[index])
        except ServingError:
            phase.shed += 1
            return None
        phase.accepted[i] = time.perf_counter_ns()
        phase.futures[i] = future

        def resolved(_, i=i):
            phase.done[i] = time.perf_counter_ns()

        future.add_done_callback(resolved)
        return future

    def _open_loop(self, phase, rate, seconds):
        """Submit on a pre-generated Poisson schedule; latency runs from the due time."""
        seconds = max(seconds, self.min_open_requests / rate)
        schedule = poisson_schedule([self.seed, rate], rate, seconds)
        futures = []
        start = time.perf_counter_ns()
        for offset in schedule:
            i = phase.request(start + int(offset * 1e9))
            delay = (phase.due[i] - time.perf_counter_ns()) / 1e9
            if delay > 0:
                time.sleep(delay)
            future = self._submit(phase, i)
            if future is not None:
                futures.append(future)
        wait(futures)
        phase.seconds = (time.perf_counter_ns() - start) / 1e9

    def _open_loop_on_schedule(self, rate, seconds, discarded):
        """An open-loop phase whose generator kept to its schedule, if one of
        ``GEN_ATTEMPTS`` did; the phases it discarded go to ``discarded``."""
        for attempt in range(GEN_ATTEMPTS):
            phase = _Phase()
            self._open_loop(phase, rate, seconds)
            if phase.late_p99_ms() <= MAX_GEN_LATE_MS or attempt == GEN_ATTEMPTS - 1:
                return phase
            discarded.append(phase)

    def _closed_loop(self, phase, seconds):
        """Keep ``SERVE_WINDOW`` requests outstanding; count completions per second."""
        pending = set()
        completed = 0
        start = time.perf_counter_ns()
        deadline = start + int(seconds * 1e9)
        while time.perf_counter_ns() < deadline:
            while len(pending) < SERVE_WINDOW:
                i = phase.request(time.perf_counter_ns())
                future = self._submit(phase, i)
                if future is None:
                    break
                pending.add(future)
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            completed += len(done)
        completed += len(wait(pending).done)
        phase.seconds = (time.perf_counter_ns() - start) / 1e9
        phase.completed = completed

    def _run_phases(self, seconds):
        """The three phases, and the open-loop ones discarded, by phase name."""
        phases, discarded = {}, {}
        for name, rate, share in (("r100", SERVE_RATES[0], 0.4), ("r200", SERVE_RATES[1], 0.2)):
            discarded[name] = []
            phases[name] = self._open_loop_on_schedule(rate, share * seconds, discarded[name])
        phases["closed"] = _Phase()
        self._closed_loop(phases["closed"], 0.4 * seconds)
        return phases, discarded

    def measure(self, seconds, recorder=None):
        agent = self.agent
        # Keep what exists now out of every later collection: a full
        # collection of the set-up's objects stops the generator for ~70 ms,
        # after the freeze for ~15 ms.
        gc.collect()
        gc.freeze()
        if recorder is None:
            phases, discarded = self._run_phases(seconds)
        else:
            engine = agent.runtime.engine
            misses = engine.cache_misses
            traced = _Traced(recorder)
            original = agent.policy_value
            with traced as rec:
                rec.wrap(self.server, "submit", "serving.submit")
                rec.wrap(engine, "run", "runtime.plan")
                rec.wrap(engine, "plan_for", "runtime.plan_for")

                def batch_exec(observations, **kwargs):
                    token = rec.begin()
                    try:
                        return original(observations, **kwargs)
                    finally:
                        span = rec.end("serving.batch_exec", token)
                        self.batch_rows[span.sid] = len(observations)

                agent.policy_value = batch_exec
                try:
                    phases, discarded = self._run_phases(seconds)
                finally:
                    del agent.policy_value
        self.phases.extend(phases.values())
        for late in discarded.values():
            self.phases.extend(late)
        result = self._summary(phases, discarded)
        if recorder is not None:
            result["layers"] = self._layers(phases, discarded, recorder, traced.events,
                                            engine.cache_misses - misses)
            result["layers"].update(plan_shares(traced.events))
            result["trace_dropped"] = traced.dropped
        return result

    def _summary(self, phases, discarded):
        """Latencies of the kept phases; operations and failures of every phase run."""
        out = {"ops": 0, "failed": 0, "gen_late_ms": {}, "latency_ms": {},
               "gen_discarded": {name: len(late) for name, late in discarded.items()}}
        for phase in list(phases.values()) + [p for late in discarded.values() for p in late]:
            out["ops"] += len(phase.due)
            out["failed"] += phase.shed + sum(
                1 for future in phase.futures
                if future is not None and future.exception() is not None
            )
        for name, phase in phases.items():
            due, done = phase.array("due"), phase.array("done")
            out["latency_ms"][name] = (done[done > 0] - due[done > 0]) / 1e6
            if name != "closed":
                out["gen_late_ms"][name] = phase.late_p99_ms()
        closed = phases["closed"]
        out["max_rps"] = closed.completed / closed.seconds
        return out

    def _layers(self, phases, discarded, recorder, events, infer_misses):
        """Per-layer figures of the 200 req/s phase, where batching and queueing act.

        Requests and batches live on different threads, so they are matched
        by time: a request belongs to the server's ``serve/batch`` span its
        answer arrived in, and its submit span is the one that started
        between its ``sent`` and ``accepted`` stamps.
        """
        phase = phases["r200"]
        done = phase.array("done")
        served = done > 0
        due, sent, accepted, done = (phase.array(column)[served].astype(np.float64)
                                     for column in ("due", "sent", "accepted", "done"))
        latency = done - due

        # The server's own spans: batches on the worker thread (pad, run,
        # answer), and each request from its arrival to its answer.
        batches = sorted((e for e in events if e["name"] == "serve/batch"),
                         key=lambda e: e["ts"])
        batch_start = np.array([e["ts"] for e in batches], dtype=np.float64)
        batch_end = batch_start + np.array([e["dur"] for e in batches], dtype=np.float64)
        requests = [e for e in events if e["name"] == "serve/request"]
        arrived = np.array([e["ts"] for e in requests], dtype=np.float64)
        answered = arrived + np.array([e["dur"] for e in requests], dtype=np.float64)
        own = containing(batch_start, batch_end, done)

        # What a waiting request waits for: earlier batches (the worker is
        # busy), its own batch's coalescing window, which opens when the
        # batch's oldest request arrives and lasts at most ``max_wait``, or
        # a garbage collection, which stops both threads.
        head = np.full(len(batches), np.inf)
        batch_of = containing(batch_start, batch_end, answered)
        np.minimum.at(head, batch_of[batch_of >= 0], arrived[batch_of >= 0])
        previous_end = np.concatenate(([-np.inf], batch_end[:-1]))
        window_start = np.maximum(head, previous_end)
        window_end = np.minimum(head + self.server.policy.max_wait * 1e9, batch_start)
        window_start = np.minimum(window_start, window_end)
        collections = [span for span in recorder.spans if span.name == "python.gc"]
        explained_start, explained_end = union(
            np.concatenate((window_start, batch_start, [span.start for span in collections])),
            np.concatenate((window_end, batch_end, [span.end for span in collections])),
        )

        submits = [span for span in recorder.spans if span.name == "serving.submit"]
        submit_of = containing(sent, accepted, [span.start for span in submits])
        submit_end = accepted.copy()
        submit_ns = np.zeros(len(sent))
        for span, i in zip(submits, submit_of):
            if i >= 0:
                submit_end[i] = span.end
                submit_ns[i] = span.dur
        # Each request's latency, covered by the layer that explains it:
        # generator lateness, its submit span, the waiting the worker's
        # spans explain, and its own batch up to its answer.  The pieces do
        # not overlap; what is left (thread wake-ups, lock hand-offs, the
        # gaps between spans) counts against coverage.
        mine = own >= 0
        own_start = np.where(mine, batch_start[np.maximum(own, 0)], submit_end)
        covered = (sent - due) + submit_ns + np.where(
            mine,
            covered_ns(explained_start, explained_end, submit_end, own_start)
            + (done - np.maximum(own_start, submit_end)),
            0.0,
        )

        # The registered agent's policy_value, once per batch.
        execs = [span for span in recorder.spans if span.name == "serving.batch_exec"]
        exec_of = containing(batch_start, batch_end, [span.start for span in execs])
        exec_ns = np.zeros(len(batches))
        rows = np.zeros(len(batches))
        for span, k in zip(execs, exec_of):
            if k >= 0:
                exec_ns[k] = span.dur
                rows[k] = self.batch_rows[span.sid]
        used = np.unique(own[mine])
        queue_wait = latency[mine] - exec_ns[own[mine]]
        table = layer_table(recorder.spans)
        return {
            "runtime.plan_ms": per_call_ms(table, "runtime.plan"),
            "runtime.infer_plan_misses": infer_misses,
            "serving.submit_us": float(np.mean(submit_ns)) / 1e3,
            "serving.queue_wait_p50_ms": percentile(queue_wait, 50.0) / 1e6,
            "serving.queue_wait_p99_ms": percentile(queue_wait, 99.0) / 1e6,
            "serving.batch_exec_ms": float(exec_ns[used].mean()) / 1e6,
            "serving.avg_batch": int(mine.sum()) / len(used),
            "serving.occupancy": int(mine.sum()) / float(rows[used].sum()),
            "serving.padded_slots": float(rows[used].sum()) - int(mine.sum()),
            "serving.busy_share": float(exec_ns[used].sum()) / 1e9 / phase.seconds,
            "serving.shed": sum(p.shed for p in phases.values())
            + sum(p.shed for late in discarded.values() for p in late),
            "gen.late_p99_ms": percentile((sent - due) / 1e6, 99.0),
            "trace.coverage": float(covered.sum() / latency.sum()),
        }

    def check(self):
        """Every served answer against a direct ``policy_value`` of its observation."""
        direct_probs = np.empty((SERVE_POOL, NUM_ACTIONS))
        direct_values = np.empty(SERVE_POOL)
        for index in range(SERVE_POOL):
            probs, values = self.agent.policy_value(self.observations[index:index + 1])
            direct_probs[index] = probs[0]
            direct_values[index] = values[0]
        failures = 0
        worst = 0.0
        for phase in self.phases:
            for future, index in zip(phase.futures, phase.pool_index):
                if future is None or future.exception() is not None:
                    continue
                probs, value = future.result()
                probs_err, value_err = mismatch(
                    probs, value, direct_probs[index], direct_values[index])
                worst = max(worst, probs_err / PROBS_TOL, value_err / VALUE_RTOL)
                if not (probs_err <= PROBS_TOL and value_err <= VALUE_RTOL):
                    failures += 1
        if failures:
            print("serve parity: {} answers off, worst at {:.3g}x the tolerance".format(
                failures, worst), file=sys.stderr)
        self.phases = []
        return failures

    def close(self):
        self.server.close()
        gc.unfreeze()


WORKLOADS = {cls.name: cls for cls in (Rollout, CoSearch, Serve)}
