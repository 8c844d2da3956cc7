"""The three jobs this repository runs, as closed loops with one client.

Each workload builds its inputs from the seed, times its own operations
from outside the package and checks every output it produces. One
operation is a train step, a sample batch or one parameter tensor's
finite-difference check; the timing samples are per train step, per ODE
step and per FD evaluation.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import time

import numpy as np

from dualdit import data as D
from dualdit import model as M
from dualdit import samplers as S
from dualdit import trainer as TR
from dualdit import verification as V
from dualdit.errors import NumericError
from dualdit.tensor import Tensor, grad_check

# the criterion-8 recipe
DESK = M.ModelConfig(patch_depth=4, pixel_depth=2, patch_dim=64, pixel_dim=8, heads=4,
                     patch_size=4, num_classes=3, resolution=(16, 16), channels=3)
BATCH = 64
CHECKPOINT_EVERY = 10
SAMPLER = dict(solver="flow_dpm", steps=32, cfg_scale=2.0, cfg_interval=(0.1, 1.0), shift_alpha=1.0)


def expected_nfe(steps: int, cfg_scale: float, interval: tuple[float, float]) -> int:
    """Velocity evaluations of one unshifted trajectory: two per guided step, one otherwise."""
    lo, hi = interval
    ts = [1.0 - i / steps for i in range(steps)]
    return sum(2 if cfg_scale != 1.0 and lo <= t <= hi else 1 for t in ts)


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(n)]


class Workload:
    name = ""
    throughput_name = ""   # the end-to-end throughput metric, as the reports name it
    op_name = ""           # the end-to-end per-sample timing, without its _p50/_p90
    item = ""              # what throughput counts
    sample = ""            # what one timing sample is
    op_unit = ""           # what one operation is; per-layer metrics are per operation
    timed_span = None      # the root span that each timing sample brackets, if there is one
    config = DESK
    batch = BATCH

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = None
        self.ops = 0
        self.reset()

    def reset(self):
        self.samples_ms: list[float] = []
        self.items = 0

    def root(self, name: str):
        """A root span when traced; nothing otherwise."""
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def _next_op(self):
        if self.tracer is not None:
            self.tracer.op_id = self.ops
        self.ops += 1

    def prepare(self):
        """Inputs the workload needs before set-up; not timed."""

    def setup(self):
        """What a user of this job waits for before the first operation; timed."""
        raise NotImplementedError

    def open(self, built):
        """Adopt one set-up's result and start the timers the loop needs."""

    def warmup(self):
        raise NotImplementedError

    def run_op(self) -> bool:
        """One operation; returns whether its outputs passed their checks."""
        raise NotImplementedError

    def final_problems(self) -> list[str]:
        return []

    def skipped_steps(self) -> int:
        return 0

    def close(self):
        pass


class TrainDesk(Workload):
    name = "train_desk"
    throughput_name = "train_samples_per_s"
    op_name = "train_step_ms"
    item = "samples"
    sample = "train step"
    op_unit = "train step"
    timed_span = "bench.train_step"

    def prepare(self):
        self.data_seed, self.model_seed, self.train_seed = _seeds(self.seed, 3)
        self.ckpt_path = os.path.join(self.out_dir, f"{self.name}.ckpt")
        os.makedirs(self.out_dir, exist_ok=True)

    def setup(self):
        spec = D.ToyDatasetSpec(kind="solid_color", num_classes=3, resolution=(16, 16),
                                samples_per_class=256, noise_std=0.1, seed=self.data_seed)
        dataset = D.make_dataset(spec)
        model = M.DualLevelModel(DESK, seed=self.model_seed)
        cfg = TR.TrainConfig(lr=1e-3, batch_size=BATCH, total_steps=0, align_weight=0.0,
                             class_drop_prob=0.1, seed=self.train_seed)
        return dataset, model, cfg, TR.init_state(model, cfg)

    def open(self, built):
        self.dataset, self.model, self.cfg, self.state = built
        self.losses: list[float] = []

    def _step(self) -> bool:
        st = self.state
        self.cfg.total_steps = st.step + 1
        skipped = st.skipped_steps
        try:
            TR.train(self.model, self.dataset, self.cfg, state=st)
        except NumericError:
            # ten bad steps in a row; the loop refuses to go on
            return False
        loss = st.metrics[-1]["loss"]
        self.losses.append(loss)
        return st.skipped_steps == skipped and math.isfinite(loss)

    def warmup(self):
        for _ in range(3):
            self._step()

    def run_op(self) -> bool:
        self._next_op()
        t0 = time.perf_counter()
        with self.root("bench.train_step"):
            ok = self._step()
        self.samples_ms.append(1e3 * (time.perf_counter() - t0))
        self.items += BATCH
        if self.state.step % CHECKPOINT_EVERY == 0:
            with self.root("bench.checkpoint"):
                TR.save_checkpoint(self.ckpt_path, self.model, self.state)
        return ok

    def skipped_steps(self) -> int:
        return self.state.skipped_steps

    def final_problems(self) -> list[str]:
        tenth = max(1, len(self.losses) // 10)
        first = float(np.mean(self.losses[:tenth]))
        last = float(np.mean(self.losses[-tenth:]))
        if not last < first:
            return [f"loss did not fall: first tenth {first:.4f}, last tenth {last:.4f}"]
        return []


class SampleGuided(Workload):
    name = "sample_guided"
    throughput_name = "sample_images_per_s"
    op_name = "sample_step_ms"
    item = "images"
    sample = "ODE step"
    op_unit = "sample batch"

    def prepare(self):
        model_seed, noise_seed, self.sampler_seed = _seeds(self.seed, 3)
        os.makedirs(self.out_dir, exist_ok=True)
        self.ckpt_path = os.path.join(self.out_dir, f"{self.name}.ckpt")
        model = M.DualLevelModel(DESK, seed=model_seed)
        rng = np.random.default_rng(noise_seed)
        # zero-initialized gates and heads would leave whole branches silent
        for t in model.params.values():
            t.data += rng.normal(scale=0.02, size=t.shape).astype(t.data.dtype)
        state = TR.init_state(model, TR.TrainConfig(align_weight=0.0))
        TR.save_checkpoint(self.ckpt_path, model, state)
        self.nfe_expected = expected_nfe(SAMPLER["steps"], SAMPLER["cfg_scale"], SAMPLER["cfg_interval"])

    def setup(self):
        return TR.load_model(self.ckpt_path)

    def open(self, built):
        self.model = built
        self.nfe = 0
        self.batches = 0
        model = self.model

        def counted_forward(*args, **kwargs):
            self.nfe += 1
            return type(model).forward(model, *args, **kwargs)

        model.forward = counted_forward
        self._solver_step = S.flow_dpm_step

        @functools.wraps(self._solver_step)  # still samplers.flow_dpm_step to the tracer
        def timed_step(*args, **kwargs):
            t0 = time.perf_counter()
            out = self._solver_step(*args, **kwargs)
            self.samples_ms.append(1e3 * (time.perf_counter() - t0))
            return out

        S.flow_dpm_step = timed_step

    def close(self):
        S.flow_dpm_step = self._solver_step

    def _batch(self, steps: int) -> tuple[np.ndarray, int]:
        y = (np.arange(BATCH) + self.batches) % DESK.num_classes
        cfg = S.SamplerConfig(**{**SAMPLER, "steps": steps}, seed=self.sampler_seed + self.batches)
        self.batches += 1
        nfe = self.nfe
        with self.root("bench.sample_batch"):
            images = S.sample(self.model, cfg, y)
        return images, self.nfe - nfe

    def warmup(self):
        self._batch(steps=2)

    def run_op(self) -> bool:
        self._next_op()
        try:
            images, nfe = self._batch(SAMPLER["steps"])
        except NumericError:
            # the sampler refuses to go on from a non-finite state
            return False
        self.items += BATCH
        # sample clips its output to [-1, 1], so the range test guards only that clip
        return (images.shape == (BATCH, DESK.channels, *DESK.resolution)
                and bool(np.all(np.isfinite(images)))
                and float(images.min()) >= -1.0 and float(images.max()) <= 1.0
                and nfe == self.nfe_expected)


class FdSweep(Workload):
    """verification.model_check's frozen float64 toy model; the seed picks the
    order in which its parameter tensors are checked."""

    name = "fd_sweep"
    throughput_name = "fd_evals_per_s"
    op_name = "fd_eval_ms"
    item = "evaluations"
    sample = "FD evaluation"
    op_unit = "FD evaluation"
    config = M.toy_config()
    batch = 1

    def prepare(self):
        self.order_rng = np.random.default_rng(self.seed)
        self.queue: list[str] = []

    def setup(self):
        model = M.DualLevelModel(self.config, seed=30, dtype=np.float64)
        rng = np.random.default_rng(31)
        for t in model.params.values():
            t.data[...] = rng.normal(scale=0.15, size=t.shape)
        x = rng.normal(size=(1, 3, 8, 8))
        w = Tensor(rng.normal(size=(1, 3, 8, 8)))
        return model, x, w

    def open(self, built):
        self.model, self.x, self.w = built
        self.t, self.y = np.array([0.4]), np.array([2])

    def _loss(self, _p):
        self._next_op()
        t0 = time.perf_counter()
        out = (self.model.forward(self.x, self.t, self.y) * self.w).sum()
        self.samples_ms.append(1e3 * (time.perf_counter() - t0))
        self.items += 1
        return out

    def _check(self, name: str) -> float:
        if self.tracer is not None:
            self.tracer.op_id = self.ops
        with self.root("bench.fd_param"):
            return grad_check(self._loss, self.model.params[name], step=V.MODEL_STEP)

    def warmup(self):
        self._check("pixel_head.b")

    def run_op(self) -> bool:
        if not self.queue:
            self.queue = list(self.order_rng.permutation(list(self.model.params)))
        try:
            return self._check(self.queue.pop()) <= V.TOLERANCE
        except NumericError:
            # grad_check refuses a non-finite analytic gradient
            return False


WORKLOADS = {w.name: w for w in (TrainDesk, SampleGuided, FdSweep)}
