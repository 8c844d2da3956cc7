"""Schedules, guidance, solver steps, convergence orders on the analytic field."""

import numpy as np
import pytest

from dualdit import model as M
from dualdit import samplers as S
from dualdit.errors import ConfigError, NumericError, ShapeError


class TestSchedule:
    def test_uniform_grid_alpha_one(self):
        sched = S.make_schedule(4, 1.0)
        np.testing.assert_array_equal(sched.t, [1.0, 0.75, 0.5, 0.25, 0.0])

    def test_endpoints_exact_for_any_alpha(self):
        for alpha in (1.0, 1.5, 3.0, 10.0):
            for steps in (1, 7, 100):
                sched = S.make_schedule(steps, alpha)
                assert sched.t[0] == 1.0 and sched.t[-1] == 0.0

    def test_shift_closed_form(self):
        # alpha=3 maps u=0.5 to 1.5/2
        sched = S.make_schedule(2, 3.0)
        assert sched.t[1] == pytest.approx(0.75, abs=1e-15)

    def test_strictly_decreasing(self):
        for alpha in (1.0, 2.0, 5.0):
            sched = S.make_schedule(37, alpha)
            assert np.all(np.diff(sched.t) < 0)

    def test_invalid_schedules_rejected(self):
        with pytest.raises(ConfigError):
            S.make_schedule(0)
        with pytest.raises(ConfigError):
            S.Schedule(t=np.array([1.0, 0.5, 0.6, 0.0]))
        with pytest.raises(ConfigError):
            S.Schedule(t=np.array([0.9, 0.5, 0.0]))


class TestGuidance:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.v_c = rng.normal(size=(2, 3))
        self.v_u = rng.normal(size=(2, 3))

    def test_scale_one_is_conditional_bitwise(self):
        out = S.guided_velocity(self.v_c, self.v_u, 1.0, 0.5, (0.0, 1.0))
        assert out is self.v_c

    def test_outside_interval_is_conditional(self):
        out = S.guided_velocity(self.v_c, self.v_u, 7.5, 0.05, (0.1, 1.0))
        assert out is self.v_c

    def test_scale_zero_inside_interval_is_unconditional(self):
        out = S.guided_velocity(self.v_c, self.v_u, 0.0, 0.5, (0.0, 1.0))
        np.testing.assert_array_equal(out, self.v_u)

    def test_interval_bounds_inclusive(self):
        out = S.guided_velocity(self.v_c, self.v_u, 2.0, 1.0, (0.1, 1.0))
        np.testing.assert_allclose(out, self.v_u + 2.0 * (self.v_c - self.v_u))


class TestSteps:
    def test_euler_zero_velocity_identity(self):
        x = np.array([1.0, -2.0])
        np.testing.assert_array_equal(S.euler_step(x, 1.0, 0.5, np.zeros(2)), x)

    def test_euler_linear_field_closed_form(self):
        # dx/dt = -x integrated from t=1 down to 0; exact flow is x*e^{dt*A}
        # with dt*A = (-1)*(-1) = 1. A single explicit step gives x*(1 + 1).
        x = np.array([3.0])
        out = S.euler_step(x, 1.0, 0.0, -x)
        np.testing.assert_allclose(out, 2.0 * x)
        # many steps approach the closed-form flow oracle x*e
        xa = x.copy()
        sched = S.make_schedule(512, 1.0)
        for i in range(512):
            xa = S.euler_step(xa, sched.t[i], sched.t[i + 1], -xa)
        np.testing.assert_allclose(xa, x * np.e, rtol=2e-3)

    def test_heun_constant_field_equals_euler(self):
        x = np.array([0.3, -0.7])
        v = np.array([2.0, 1.0])
        heun = S.heun_step(x, 1.0, 0.5, lambda s, t: v)
        np.testing.assert_array_equal(heun, S.euler_step(x, 1.0, 0.5, v))

    def test_heun_zero_field_identity(self):
        x = np.array([1.0, 2.0])
        np.testing.assert_array_equal(S.heun_step(x, 0.8, 0.3, lambda s, t: np.zeros(2)), x)

    def test_flow_dpm_first_step_is_first_order(self):
        hist = S.FlowDpmHistory()
        x = np.array([2.0])
        vf = lambda s, t: (s - 0.5) / t
        out = S.flow_dpm_step(hist, x, 1.0, 0.5, vf)
        x0_hat = x - 1.0 * vf(x, 1.0)
        np.testing.assert_allclose(out, 0.5 * x + 0.5 * x0_hat)
        assert hist.x0_prev is not None

    def test_flow_dpm_point_mass_exact_any_steps(self):
        # constant data prediction: sampler lands exactly on x0
        target = 0.37
        vf = lambda s, t: (s - target) / t
        for steps in (1, 2, 5, 20):
            x = S.integrate(vf, np.array([2.0, -1.0]), S.make_schedule(steps, 1.0), "flow_dpm")
            np.testing.assert_allclose(x, target, atol=1e-12)


# frozen configuration for the convergence study: mu0=0 keeps the global error
# a single signed component, sigma0=1.4 sits in the stable regime for all
# three solvers over the measured step range
FIELD_MU0 = 0.0
FIELD_SIGMA0 = 1.4
ORDER_STEPS = (8, 16, 32, 64)


def solver_errors(solver, mu0=FIELD_MU0, sigma0=FIELD_SIGMA0, n_traj=512):
    vfield = S.gaussian_field(mu0, sigma0)
    x1 = np.random.default_rng(0).standard_normal(n_traj)
    exact = S.gaussian_field_exact_endpoint(x1, mu0, sigma0)
    return [
        np.abs(S.integrate(vfield, x1.copy(), S.make_schedule(n, 1.0), solver) - exact).mean()
        for n in ORDER_STEPS
    ]


def fitted_slope(errs):
    return -np.polyfit(np.log(ORDER_STEPS), np.log(errs), 1)[0]


class TestConvergenceOrders:
    def test_euler_first_order(self):
        assert abs(fitted_slope(solver_errors("euler")) - 1.0) <= 0.3

    def test_heun_second_order(self):
        assert abs(fitted_slope(solver_errors("heun")) - 2.0) <= 0.3

    def test_flow_dpm_second_order(self):
        assert abs(fitted_slope(solver_errors("flow_dpm")) - 2.0) <= 0.3

    def test_flow_dpm_beats_euler_at_16_steps(self):
        assert solver_errors("flow_dpm")[1] <= solver_errors("euler")[1]

    def test_terminal_distribution_matches_target(self):
        # 64-step flow_dpm on a nontrivial field: sample stats within 2%
        mu0, sigma0 = 1.5, 0.7
        vfield = S.gaussian_field(mu0, sigma0)
        x1 = np.random.default_rng(7).standard_normal(10_000)
        xT = S.integrate(vfield, x1, S.make_schedule(64, 1.0), "flow_dpm")
        assert abs(xT.mean() - mu0) / abs(mu0) < 0.02
        assert abs(xT.var() - sigma0**2) / sigma0**2 < 0.02


class TestSampleFunction:
    def setup_method(self):
        self.model = M.DualLevelModel(M.toy_config(), seed=0)
        self.y = np.array([0, 1])

    def test_zero_model_returns_clamped_noise(self):
        cfg = S.SamplerConfig(solver="euler", steps=4, seed=11)
        out = S.sample(self.model, cfg, self.y)
        rng = np.random.default_rng(np.random.PCG64(11))
        noise = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        np.testing.assert_array_equal(out, np.clip(noise, -1, 1))

    def test_fixed_seed_bitwise_identical(self):
        cfg = S.SamplerConfig(solver="flow_dpm", steps=6, cfg_scale=2.0,
                              cfg_interval=(0.1, 1.0), seed=3)
        rng = np.random.default_rng(12)
        for t in self.model.params.values():
            t.data[...] = rng.normal(scale=0.05, size=t.shape).astype(np.float32)
        a = S.sample(self.model, cfg, self.y)
        b = S.sample(self.model, cfg, self.y)
        np.testing.assert_array_equal(a, b)

    def test_cfg_scale_one_reproduces_conditional_bitwise(self):
        rng = np.random.default_rng(13)
        for t in self.model.params.values():
            t.data[...] = rng.normal(scale=0.05, size=t.shape).astype(np.float32)
        guided = S.sample(self.model, S.SamplerConfig(solver="euler", steps=5, cfg_scale=1.0, seed=4), self.y)

        # hand-rolled purely conditional integration from the same noise
        rng2 = np.random.default_rng(np.random.PCG64(4))
        x = rng2.standard_normal((2, 3, 8, 8)).astype(np.float32)
        sched = S.make_schedule(5, 1.0)
        for i in range(5):
            t, tn = float(sched.t[i]), float(sched.t[i + 1])
            v = self.model.forward(x, np.full(2, t), self.y).data
            x = S.euler_step(x, t, tn, v)
        np.testing.assert_array_equal(guided, np.clip(x, -1, 1))

    def test_interval_excludes_guidance_bitwise(self):
        rng = np.random.default_rng(14)
        for t in self.model.params.values():
            t.data[...] = rng.normal(scale=0.05, size=t.shape).astype(np.float32)
        # interval that never activates reproduces the conditional trajectory
        no_guid = S.sample(self.model, S.SamplerConfig(
            solver="euler", steps=4, cfg_scale=9.0, cfg_interval=(0.0, 0.0), seed=5), self.y)
        plain = S.sample(self.model, S.SamplerConfig(
            solver="euler", steps=4, cfg_scale=1.0, seed=5), self.y)
        np.testing.assert_array_equal(no_guid, plain)

    def test_non_finite_abort_names_step(self):
        self.model.params["pixel_head.w"].data[...] = np.nan
        with pytest.raises(NumericError, match="step 0"):
            S.sample(self.model, S.SamplerConfig(solver="euler", steps=3, seed=6), self.y)

    def test_initial_of_another_size_is_refused(self):
        # three images' worth of noise for a batch of two
        with pytest.raises(ShapeError, match="initial holds 576 values.* need 384"):
            S.sample(self.model, S.SamplerConfig(solver="euler", steps=1), self.y,
                     initial=np.zeros(576, np.float32))

    def test_output_clamped(self):
        cfg = S.SamplerConfig(solver="euler", steps=2, seed=7)
        out = S.sample(self.model, cfg, self.y)
        assert out.max() <= 1.0 and out.min() >= -1.0


class TestSamplerConfigValidation:
    def test_rejects_bad_configs(self):
        with pytest.raises(ConfigError):
            S.SamplerConfig(solver="rk4")
        with pytest.raises(ConfigError):
            S.SamplerConfig(steps=0)
        with pytest.raises(ConfigError):
            S.SamplerConfig(cfg_interval=(0.9, 0.1))
        with pytest.raises(ConfigError):
            S.SamplerConfig(shift_alpha=0.5)
        with pytest.raises(ConfigError):
            S.SamplerConfig(cfg_scale=-1.0)
