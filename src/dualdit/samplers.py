"""ODE integration of the learned velocity field.

Solvers integrate dx/dt = v(x, t) from t=1 (noise) down to t=0 (data) along a
shifted schedule. Classifier-free guidance mixes conditional and
unconditional velocities inside a configurable timestep interval. The
flow-matching DPM solver converts velocity to a data prediction
x0_hat = x - t*v and applies a second-order multistep update in
lambda = log((1-t)/t) coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import shards
from .errors import ConfigError, NumericError, ShapeError

SOLVERS = ("euler", "heun", "flow_dpm")

# lambda(t) diverges at the endpoints; evaluate it at clamped t
T_MIN = 1e-4


@dataclass
class SamplerConfig:
    solver: str = "flow_dpm"
    steps: int = 100
    cfg_scale: float = 1.0
    cfg_interval: tuple[float, float] = (0.0, 1.0)
    shift_alpha: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise ConfigError(f"unknown solver {self.solver!r}; choose from {SOLVERS}")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.cfg_scale < 0:
            raise ConfigError("cfg_scale must be >= 0")
        lo, hi = self.cfg_interval
        if not (0.0 <= lo <= hi <= 1.0):
            raise ConfigError(f"cfg_interval must satisfy 0 <= lo <= hi <= 1, got {self.cfg_interval}")
        if self.shift_alpha < 1.0:
            raise ConfigError("shift_alpha must be >= 1")


@dataclass
class Schedule:
    """Strictly decreasing timesteps from exactly 1 to exactly 0."""

    t: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=np.float64)
        if t[0] != 1.0 or t[-1] != 0.0:
            raise ConfigError(f"schedule endpoints must be 1 and 0, got {t[0]}, {t[-1]}")
        if not np.all(np.diff(t) < 0):
            raise ConfigError("schedule must be strictly decreasing")
        self.t = t

    @property
    def steps(self) -> int:
        return len(self.t) - 1


def make_schedule(steps: int, shift_alpha: float = 1.0) -> Schedule:
    """Uniform grid u = 1 - i/steps mapped through t = a*u / (1 + (a-1)*u).

    alpha = 1 is the identity map; larger alpha concentrates steps near the
    high-noise end. The endpoints u in {0, 1} are fixed points for every alpha.
    """
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    u = 1.0 - np.arange(steps + 1, dtype=np.float64) / steps
    a = float(shift_alpha)
    t = a * u / (1.0 + (a - 1.0) * u)
    t[0], t[-1] = 1.0, 0.0
    return Schedule(t=t)


def _guided(scale: float, t: float, interval: tuple[float, float]) -> bool:
    """Whether a step at ``t`` mixes in the unconditional velocity."""
    lo, hi = interval
    return scale != 1.0 and lo <= t <= hi


def guided_velocity(v_cond: np.ndarray, v_uncond: np.ndarray, scale: float, t: float,
                    interval: tuple[float, float]) -> np.ndarray:
    """v_u + scale*(v_c - v_u) inside the interval; the conditional branch outside.

    scale == 1 returns v_cond itself, so guidance degenerates bitwise.
    """
    if not _guided(scale, t, interval):
        return v_cond
    return v_uncond + scale * (v_cond - v_uncond)


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def euler_step(x: np.ndarray, t: float, t_next: float, v: np.ndarray) -> np.ndarray:
    return x + (t_next - t) * v


def heun_step(x: np.ndarray, t: float, t_next: float,
              velocity_fn: Callable[[np.ndarray, float], np.ndarray]) -> np.ndarray:
    """Explicit trapezoidal rule: Euler predictor, then average endpoint slopes."""
    dt = t_next - t
    v0 = velocity_fn(x, t)
    x_pred = x + dt * v0
    v1 = velocity_fn(x_pred, t_next)
    return x + dt * 0.5 * (v0 + v1)


def _lam(t: float) -> float:
    tc = min(max(t, T_MIN), 1.0 - T_MIN)
    return math.log((1.0 - tc) / tc)


@dataclass
class FlowDpmHistory:
    """Previous data prediction for the second-order multistep update."""

    t_prev: Optional[float] = None
    x0_prev: Optional[np.ndarray] = None


def flow_dpm_step(history: FlowDpmHistory, x: np.ndarray, t: float, t_next: float,
                  velocity_fn: Callable[[np.ndarray, float], np.ndarray]) -> np.ndarray:
    """One multistep second-order data-prediction update.

    x0_hat = x - t*v; with no history the update is first order, which lands
    exactly on x0_hat when the data prediction is constant:
        x_next = (t_next/t)*x + ((t - t_next)/t)*x0_hat
    With history, x0_hat is extrapolated in lambda coordinates before the
    same update (the midpoint variant of the second-order multistep rule).
    The final step to t=0 stays first order: its extrapolation weight
    h/(2*h_prev) diverges with lambda(0), so the lower-order update is both
    the standard practice and the accurate one there.
    """
    v = velocity_fn(x, t)
    x0_hat = x - t * v
    if history.x0_prev is None or t_next <= T_MIN:
        target = x0_hat
    else:
        h = _lam(t_next) - _lam(t)
        h_prev = _lam(t) - _lam(history.t_prev)
        r = h_prev / h
        w = 1.0 / (2.0 * r)
        target = (1.0 + w) * x0_hat - w * history.x0_prev
    ratio = t_next / t
    x_next = ratio * x + ((t - t_next) / t) * target
    history.t_prev = t
    history.x0_prev = x0_hat
    return x_next


# ---------------------------------------------------------------------------
# trajectory integration
# ---------------------------------------------------------------------------

def integrate(velocity_fn: Callable[[np.ndarray, float], np.ndarray], x: np.ndarray,
              schedule: Schedule, solver: str) -> np.ndarray:
    """Run one trajectory from schedule.t[0]=1 down to 0."""
    if solver not in SOLVERS:
        raise ConfigError(f"unknown solver {solver!r}")
    history = FlowDpmHistory()
    ts = schedule.t
    for i in range(schedule.steps):
        t, t_next = float(ts[i]), float(ts[i + 1])
        if solver == "euler":
            x = euler_step(x, t, t_next, velocity_fn(x, t))
        elif solver == "heun":
            x = heun_step(x, t, t_next, velocity_fn)
        else:
            x = flow_dpm_step(history, x, t, t_next, velocity_fn)
        if not np.all(np.isfinite(x)):
            raise NumericError(f"sampler state became non-finite at step {i} (t={t:.4f})", step=i)
    return x


def sample(model, cfg: SamplerConfig, y: np.ndarray,
           initial: Optional[np.ndarray] = None) -> np.ndarray:
    """Generate one batch of images for class ids ``y``.

    Pure function of (model parameters, config, seed): noise comes from a
    dedicated generator seeded with cfg.seed. The terminal state is clamped
    to [-1, 1]; intermediate states are left untouched.

    No trajectory depends on its batch neighbours, so the batch is cut by
    ``shards.shard_cuts`` and each shard runs its whole ODE through
    ``shards.run``, one join per batch; a call waits for another thread's
    shards. The images are bitwise the serial run's wherever BLAS runs a
    shard's GEMMs with the whole batch's kernel. ``initial``, when given,
    holds the starting noise: len(y)*C*H*W values.
    """
    mc = model.config
    y = np.asarray(y, dtype=np.int64)
    n = y.shape[0]
    shape = (n, mc.channels, *mc.resolution)
    if initial is None:
        rng = np.random.default_rng(np.random.PCG64(cfg.seed))
        x = rng.standard_normal(shape).astype(model.dtype)
    else:
        x = np.asarray(initial, dtype=model.dtype)
        if x.size != math.prod(shape):
            raise ShapeError(f"initial holds {x.size} values; {n} images of "
                             f"{shape[1:]} need {math.prod(shape)}")
        x = x.reshape(shape).copy()
    cuts = shards.shard_cuts(n, mc.resolution[0] * mc.resolution[1])
    outs = shards.run(model, _sample_rows, [(x[a:b], y[a:b], cfg) for a, b in cuts])
    failed = [out for out in outs if isinstance(out, NumericError)]
    if failed:
        # the serial run stops at the first step where any row fails
        raise min(failed, key=lambda e: e.step)
    return np.clip(np.concatenate(outs), -1.0, 1.0)


def _sample_rows(model, x: np.ndarray, y: np.ndarray, cfg: SamplerConfig):
    """The unclipped trajectories from noise ``x`` for classes ``y``.

    A NumericError that stops them is returned, not raised, so that
    ``sample`` can name the earliest failing step over all shards.
    """
    y_null = np.full(len(y), model.config.null_class, dtype=np.int64)

    def velocity_fn(state, t):
        tt = np.full(len(y), t)
        v_c = model.forward(state, tt, y).data
        if not _guided(cfg.cfg_scale, t, cfg.cfg_interval):
            return v_c
        v_u = model.forward(state, tt, y_null).data
        return guided_velocity(v_c, v_u, cfg.cfg_scale, t, cfg.cfg_interval)

    try:
        return integrate(velocity_fn, x, make_schedule(cfg.steps, cfg.shift_alpha), cfg.solver)
    except NumericError as exc:
        return exc


# ---------------------------------------------------------------------------
# closed-form reference field (Gaussian -> Gaussian rectified flow)
# ---------------------------------------------------------------------------

def gaussian_field(mu0: float, sigma0: float) -> Callable[[np.ndarray, float], np.ndarray]:
    """Exact marginal velocity when x0 ~ N(mu0, sigma0^2 I) and eps ~ N(0, I).

    v(x, t) = -mu0 + k(t) * (x - (1-t)*mu0) with
    k(t) = (t - (1-t)*sigma0^2) / ((1-t)^2*sigma0^2 + t^2).
    """
    s2 = sigma0 * sigma0

    def v(x, t):
        k = (t - (1.0 - t) * s2) / ((1.0 - t) ** 2 * s2 + t * t)
        return -mu0 + k * (x - (1.0 - t) * mu0)

    return v


def gaussian_field_exact_endpoint(x_at_one: np.ndarray, mu0: float, sigma0: float) -> np.ndarray:
    """The flow map of ``gaussian_field`` evaluated at t=0: x0 = mu0 + sigma0*x1."""
    return mu0 + sigma0 * x_at_one
