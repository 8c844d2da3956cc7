"""Acceptance criteria, one test per numbered criterion.

Each test prints a PASS line with its measured values so `pytest -v -s`
doubles as the acceptance report. Criterion 8 trains the toy recipe for
2000 steps and samples 256 images per class; expect several minutes of CPU
for the full module.
"""

import dataclasses
import time

import numpy as np
import pytest
from scipy import stats

from dualdit import analysis as A
from dualdit import data as D
from dualdit import flow as F
from dualdit import samplers as S
from dualdit import trainer as TR
from dualdit import verification as V
from dualdit.model import DualLevelModel, ModelConfig, PRESETS, toy_config
from dualdit.tensor import Tensor


def report(criterion, detail):
    print(f"\nPASS criterion {criterion}: {detail}")


class TestCriterion1GradientIntegrity:
    def test_all_primitives_blocks_and_model(self):
        start = time.time()
        rows, ok, elapsed = V.run_suite(include_model=True, log=lambda s: None)
        worst = max(err for _, err, _ in rows)
        for name, err, passed in rows:
            assert passed, f"{name}: {err:.3e} > {V.TOLERANCE}"
        assert ok
        total = time.time() - start
        assert total < 120.0, f"grad-check suite took {total:.0f}s (budget 120s)"
        report(1, f"{len(rows)} checks, worst max_rel_error {worst:.2e} <= 1e-4, "
                  f"runtime {total:.0f}s < 120s")


class TestCriterion2IdentityAtInit:
    def test_zero_gates_and_head_give_zero_velocity_bitwise(self):
        model = DualLevelModel(toy_config(), seed=0, dtype=np.float64)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 8, 8))
        v = model.forward(x, np.array([0.3, 0.9]), np.array([0, 2]))
        assert np.all(v.data == 0.0)

    def test_zero_gate_stack_is_identity_on_s0(self):
        import dualdit.blocks as B

        model = DualLevelModel(toy_config(patch_depth=5), seed=2, dtype=np.float64)
        rng = np.random.default_rng(3)
        # randomize everything that is not a modulation head; gates stay zero
        for name, t in model.params.items():
            if ".ada." not in name and ".mod." not in name:
                t.data[...] = rng.normal(scale=0.4, size=t.shape)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        from dualdit.model import patchify

        s0 = B.linear(patchify(x, 2), model.patch_embed)
        c, _ = model.embed_condition(np.array([0.2, 0.7]), np.array([1, 2]))
        s_n = model.patch_pathway(s0, c)
        assert np.all(s_n.data == s0.data)
        report(2, "fresh model velocity is exactly 0; 5-block zero-gate stack "
                  "maps s0 to itself bitwise")


class TestCriterion3VariantLattice:
    def _tie(self, src, dst):
        for name, t in dst.params.items():
            if t.shape == src.params[name].shape:
                t.data[...] = src.params[name].data

    def test_pixelwise_reduces_to_patchwise(self):
        m_b = DualLevelModel(toy_config(variant="B_patchwise"), seed=10, dtype=np.float64)
        m_c = DualLevelModel(toy_config(variant="C_pixelwise"), seed=10, dtype=np.float64)
        rng = np.random.default_rng(11)
        for t in m_b.params.values():
            t.data[...] = rng.normal(scale=0.25, size=t.shape)
        self._tie(m_b, m_c)
        p2 = m_c.config.pixels_per_patch
        for i in range(m_c.config.pixel_depth):
            m_c.params[f"pit.{i}.mod.w"].data[...] = np.tile(
                m_b.params[f"pit.{i}.mod.w"].data, (1, p2))
            m_c.params[f"pit.{i}.mod.b"].data[...] = np.tile(
                m_b.params[f"pit.{i}.mod.b"].data, p2)
        x = rng.normal(size=(2, 3, 8, 8))
        t_, y = np.array([0.4, 0.8]), np.array([0, 2])
        diff = np.abs(m_b.forward(x, t_, y).data - m_c.forward(x, t_, y).data).max()
        assert diff <= 1e-12
        self._diff_cb = diff

    def test_patchwise_reduces_to_global(self):
        # zeroed patch embedding + zero-gate patch blocks force the handoff
        # tokens to equal the broadcast conditioning vector, so patch-wise
        # modulation sees exactly the global variant's rows
        m_a = DualLevelModel(toy_config(variant="A_global"), seed=12, dtype=np.float64)
        m_b = DualLevelModel(toy_config(variant="B_patchwise", cond_uses_class=True),
                             seed=12, dtype=np.float64)
        rng = np.random.default_rng(13)
        for t in m_a.params.values():
            t.data[...] = rng.normal(scale=0.25, size=t.shape)
        self._tie(m_a, m_b)
        for m in (m_a, m_b):
            m.params["patch_embed.w"].data[...] = 0.0
            m.params["patch_embed.b"].data[...] = 0.0
            for i in range(m.config.patch_depth):
                m.params[f"patch_blocks.{i}.ada.w"].data[...] = 0.0
                m.params[f"patch_blocks.{i}.ada.b"].data[...] = 0.0
        x = rng.normal(size=(2, 3, 8, 8))
        t_, y = np.array([0.6, 0.1]), np.array([1, 2])
        diff = np.abs(m_a.forward(x, t_, y).data - m_b.forward(x, t_, y).data).max()
        assert diff <= 1e-12
        report(3, "C with row-duplicated head == B and B with constant "
                  f"conditioning == A, both to <= 1e-12 (measured {diff:.1e})")


class TestCriterion4CompactionAccounting:
    def test_attention_sequence_length(self):
        # at 256^2 with p=16 the pixel pathway attends over exactly 256 tokens
        assert A.estimate_flops(PRESETS["XL"]).attention_token_count == 256
        # and the runtime path agrees on a toy model
        model = DualLevelModel(toy_config(resolution=(16, 16), patch_size=4,
                                          patch_dim=32, pixel_dim=4, heads=4), seed=0)
        diag = {}
        model.forward(np.zeros((1, 3, 16, 16)), np.array([0.5]), np.array([0]), diag=diag)
        assert diag["pixel_attention_tokens"] == (16 // 4) * (16 // 4)

    def test_quadratic_flops_ratio_p4_exact(self):
        for p in (2, 4, 8, 16):
            assert A.compaction_flops_ratio(p) == p**4
        report(4, "sequence length (H/p)(W/p) confirmed analytically and at "
                  "runtime; uncompacted/compacted quadratic FLOPs = p^4 exactly "
                  "for p in {2,4,8,16}")


class TestCriterion5CostModel:
    def test_preset_params_within_ten_percent(self):
        published = {"B": 184e6, "L": 569e6, "XL": 797e6}
        deltas = {}
        for name, target in published.items():
            total = A.count_params(PRESETS[name]).params_total
            deltas[name] = (total - target) / target
            assert abs(deltas[name]) < 0.10, name
        self._deltas = deltas

    def test_xl_flops_within_fifteen_percent(self):
        total = A.estimate_flops(PRESETS["XL"]).flops_forward
        assert abs(total - 311e9) / 311e9 < 0.15

    def test_analytic_equals_construction_100_random_configs(self):
        rng = np.random.default_rng(777)
        for _ in range(100):
            heads = int(rng.choice([1, 2, 4]))
            patch = int(rng.choice([2, 4]))
            cfg = ModelConfig(
                patch_depth=int(rng.integers(0, 4)), pixel_depth=int(rng.integers(1, 4)),
                patch_dim=heads * int(rng.choice([4, 8])), pixel_dim=int(rng.integers(2, 9)),
                heads=heads, patch_size=patch, num_classes=int(rng.integers(1, 6)),
                channels=int(rng.choice([1, 3])),
                resolution=(patch * int(rng.integers(1, 5)), patch * int(rng.integers(1, 5))),
                variant=str(rng.choice(("C_pixelwise", "B_patchwise", "A_global",
                                        "no_pixel_attention", "vanilla_dit"))),
                ptc_rate=int(rng.choice([1, 2, 4])),
            )
            analytic = A.count_params(cfg).params_total
            actual = DualLevelModel(cfg, seed=0).num_params()
            assert analytic == actual, cfg
        b = A.count_params(PRESETS["B"]).params_total
        l = A.count_params(PRESETS["L"]).params_total
        xl = A.count_params(PRESETS["XL"]).params_total
        flops = A.estimate_flops(PRESETS["XL"]).flops_forward
        report(5, f"presets {b/1e6:.0f}M/{l/1e6:.0f}M/{xl/1e6:.0f}M vs published "
                  f"184M/569M/797M (within 10%); XL {flops/1e9:.0f} vs 311 GFLOPs "
                  f"(within 15%); analytic == construct-and-count on 100 random configs")


class TestCriterion6SamplerOrders:
    MU0, SIGMA0 = 0.0, 1.4
    STEPS = (8, 16, 32, 64)

    def errors(self, solver):
        field = S.gaussian_field(self.MU0, self.SIGMA0)
        x1 = np.random.default_rng(0).standard_normal(512)
        exact = S.gaussian_field_exact_endpoint(x1, self.MU0, self.SIGMA0)
        return [np.abs(S.integrate(field, x1.copy(), S.make_schedule(n), solver) - exact).mean()
                for n in self.STEPS]

    def slope(self, errs):
        return -np.polyfit(np.log(self.STEPS), np.log(errs), 1)[0]

    def test_orders_and_16_step_comparison(self):
        start = time.time()
        e_euler = self.errors("euler")
        e_heun = self.errors("heun")
        e_dpm = self.errors("flow_dpm")
        s_euler, s_heun, s_dpm = map(self.slope, (e_euler, e_heun, e_dpm))
        assert abs(s_euler - 1.0) <= 0.3, s_euler
        assert abs(s_heun - 2.0) <= 0.3, s_heun
        assert abs(s_dpm - 2.0) <= 0.3, s_dpm
        assert e_dpm[1] <= e_euler[1]
        elapsed = time.time() - start
        assert elapsed < 60.0, f"order study took {elapsed:.0f}s (budget 60s)"
        report(6, f"slopes euler {s_euler:.2f}, heun {s_heun:.2f}, flow_dpm "
                  f"{s_dpm:.2f} (bands 1/2/2 +-0.3); flow_dpm@16 {e_dpm[1]:.2e} <= "
                  f"euler@16 {e_euler[1]:.2e}; runtime {elapsed:.1f}s < 60s")


class TestCriterion7ScheduleGuidanceDegeneracies:
    def test_alpha_one_uniform_exact(self):
        # the shift map at alpha=1 adds zero error over the uniform grid
        for steps in (4, 5, 7, 100):
            uniform = 1.0 - np.arange(steps + 1) / steps
            uniform[0], uniform[-1] = 1.0, 0.0
            np.testing.assert_array_equal(S.make_schedule(steps, 1.0).t, uniform)
        # dyadic case matches the decimal literals exactly
        np.testing.assert_array_equal(S.make_schedule(4, 1.0).t, [1.0, 0.75, 0.5, 0.25, 0.0])

    def test_cfg_one_bitwise_conditional(self):
        model = DualLevelModel(toy_config(), seed=5)
        rng = np.random.default_rng(6)
        for t in model.params.values():
            t.data[...] = rng.normal(scale=0.05, size=t.shape).astype(np.float32)
        y = np.array([0, 1])
        guided = S.sample(model, S.SamplerConfig(solver="heun", steps=4, cfg_scale=1.0, seed=7), y)
        rng2 = np.random.default_rng(np.random.PCG64(7))
        x = rng2.standard_normal((2, 3, 8, 8)).astype(np.float32)
        sched = S.make_schedule(4)
        vf = lambda s, t: model.forward(s, np.full(2, t), y).data
        x = S.integrate(vf, x, sched, "heun")
        np.testing.assert_array_equal(guided, np.clip(x, -1, 1))

    def test_outside_interval_bitwise_conditional(self):
        v_c = np.random.default_rng(8).normal(size=(2, 3))
        v_u = np.random.default_rng(9).normal(size=(2, 3))
        assert S.guided_velocity(v_c, v_u, 5.0, 0.05, (0.1, 1.0)) is v_c
        assert S.guided_velocity(v_c, v_u, 5.0, 0.95, (0.1, 0.9)) is v_c
        report(7, "alpha=1 schedule is the exact uniform grid; cfg_scale=1 and "
                  "out-of-interval times reproduce the conditional branch bitwise")


@pytest.fixture(scope="module")
def desk_scale_run():
    """The criterion-8 recipe: train 2000 steps, sample 256 per class."""
    t0 = time.time()
    mcfg = ModelConfig(patch_depth=4, pixel_depth=2, patch_dim=64, pixel_dim=8, heads=4,
                       patch_size=4, num_classes=3, resolution=(16, 16), channels=3)
    spec = D.ToyDatasetSpec(kind="solid_color", num_classes=3, resolution=(16, 16),
                            samples_per_class=256, noise_std=0.1, seed=11)
    dataset = D.make_dataset(spec)
    tcfg = TR.TrainConfig(lr=1e-3, batch_size=64, total_steps=2000, align_weight=0.0,
                          class_drop_prob=0.1, seed=11)
    model = DualLevelModel(mcfg, seed=11)
    state = TR.train(model, dataset, tcfg)
    train_time = time.time() - t0

    # raw final weights: at 2000 steps an EMA with the published 0.9999 decay
    # still holds ~0.82 of the initialization, so it is not the evaluation
    # model at desk scale (the EMA contract has its own criterion-10 test)
    scfg = S.SamplerConfig(solver="flow_dpm", steps=32, cfg_scale=2.0,
                           cfg_interval=(0.0, 1.0), seed=99)
    class_errors = []
    for k in range(3):
        imgs = S.sample(model, scfg, np.full(256, k))
        err = np.abs(imgs.mean(axis=(0, 2, 3)) - D.class_color(k)).max()
        class_errors.append(float(err))
    total_time = time.time() - t0
    return {"state": state, "train_time": train_time, "total_time": total_time,
            "class_errors": class_errors, "model_cfg": mcfg}


class TestCriterion8DeskScaleLearning:
    def test_loss_halves(self, desk_scale_run):
        losses = [m["loss"] for m in desk_scale_run["state"].metrics]
        init = float(np.mean(losses[:100]))
        final = float(np.mean(losses[-100:]))
        assert final <= 0.5 * init, (init, final)
        self._ratio = final / init
        print(f"\n  criterion 8 loss: init100 {init:.4f} -> final100 {final:.4f} "
              f"(ratio {final / init:.3f} <= 0.5)")

    def test_per_class_mean_color(self, desk_scale_run):
        worst = max(desk_scale_run["class_errors"])
        assert worst <= 0.15, desk_scale_run["class_errors"]
        print(f"\n  criterion 8 sampling: per-class mean RGB error "
              f"{[f'{e:.3f}' for e in desk_scale_run['class_errors']]} (<= 0.15); "
              f"runtime {desk_scale_run['total_time'] / 60:.1f} min "
              f"(target < 30 min, informational)")

    def test_directional_ablation_pixelwise_beats_global(self):
        base = ModelConfig(patch_depth=2, pixel_depth=1, patch_dim=32, pixel_dim=4,
                           heads=4, patch_size=4, num_classes=3, resolution=(16, 16))
        train = TR.TrainConfig(lr=1e-3, batch_size=32, total_steps=400,
                               align_weight=0.0, seed=21)
        dataset = D.ToyDatasetSpec(kind="gaussian_blob", num_classes=3,
                                   resolution=(16, 16), samples_per_class=128,
                                   noise_std=0.1, seed=21)
        rows = [A.AblationRow(name=v, model=dataclasses.replace(base, variant=v),
                              train=train, dataset=dataset)
                for v in ("A_global", "C_pixelwise")]
        _csv, results = A.run_ablation_sweep(rows)
        loss_a = results[0]["final_loss"]
        loss_c = results[1]["final_loss"]
        assert results[0]["status"] == "ok" and results[1]["status"] == "ok"
        assert loss_c <= loss_a, (loss_a, loss_c)
        report(8, f"desk-scale run learned (see lines above); ablation final loss "
                  f"C {loss_c:.3f} <= A {loss_a:.3f} under identical budget/seed")


class TestCriterion9DeterminismPersistence:
    def _tiny(self, total_steps, seed=31):
        spec = D.ToyDatasetSpec(kind="solid_color", num_classes=2, resolution=(4, 4),
                                samples_per_class=16, noise_std=0.05, seed=seed)
        cfg = TR.TrainConfig(lr=1e-3, batch_size=8, total_steps=total_steps,
                             align_weight=0.0, seed=seed)
        model = DualLevelModel(toy_config(resolution=(4, 4), num_classes=2,
                                          patch_depth=1, pixel_depth=1), seed=seed)
        return model, D.make_dataset(spec), cfg

    def test_fixed_seed_training_bitwise(self):
        streams = []
        finals = []
        for _ in range(2):
            model, dataset, cfg = self._tiny(8)
            state = TR.train(model, dataset, cfg)
            streams.append(TR.metrics_to_csv(state.metrics))
            finals.append({k: t.data.copy() for k, t in model.params.items()})
        assert streams[0] == streams[1]
        for k in finals[0]:
            np.testing.assert_array_equal(finals[0][k], finals[1][k])

    def test_fixed_seed_sampling_bitwise(self):
        model, dataset, cfg = self._tiny(5)
        TR.train(model, dataset, cfg)
        scfg = S.SamplerConfig(solver="flow_dpm", steps=5, cfg_scale=2.0,
                               cfg_interval=(0.1, 1.0), seed=17)
        a = S.sample(model, scfg, np.array([0, 1]))
        b = S.sample(model, scfg, np.array([0, 1]))
        np.testing.assert_array_equal(a, b)

    def test_checkpoint_resume_and_idempotent_serialization(self, tmp_path):
        model_full, dataset, cfg_full = self._tiny(10)
        full = TR.train(model_full, dataset, cfg_full)

        model_half, _, cfg_half = self._tiny(5)
        half = TR.train(model_half, dataset, cfg_half)
        ck = tmp_path / "mid.ckpt"
        TR.save_checkpoint(ck, model_half, half)

        model_res, _, cfg_res = self._tiny(10)
        state = TR.init_state(model_res, cfg_res)
        TR.restore_state(model_res, state, ck)
        resumed = TR.train(model_res, dataset, cfg_res, state=state)
        assert TR.metrics_to_csv(full.metrics[5:]) == TR.metrics_to_csv(resumed.metrics)
        for k, t in model_full.params.items():
            np.testing.assert_array_equal(t.data, model_res.params[k].data)

        # save -> load -> save byte identity
        p2 = tmp_path / "again.ckpt"
        model_b, _, cfg_b = self._tiny(10)
        state_b = TR.init_state(model_b, cfg_b)
        TR.restore_state(model_b, state_b, ck)
        TR.save_checkpoint(p2, model_b, state_b)
        assert ck.read_bytes() == p2.read_bytes()
        report(9, "training and sampling bitwise reproducible; resume matches the "
                  "uninterrupted stream; serialization idempotent byte-for-byte")


class TestCriterion10DistributionalComponents:
    def test_logit_normal_ks(self):
        n = 100_000
        sample = F.logit_normal_sampler()(np.random.default_rng(3), n)
        z = np.random.default_rng(4).standard_normal(n)
        oracle = 1.0 / (1.0 + np.exp(-z))
        res = stats.ks_2samp(sample, oracle)
        assert res.pvalue > 0.01
        self._p = res.pvalue

    def test_ema_geometric_convergence(self):
        p, ema, tmp = np.array([1.0]), np.array([0.0]), np.empty(1)
        decay = 0.9999
        gaps = []
        for _ in range(2000):
            TR.ema_update(ema, p, decay, tmp)
            gaps.append(1.0 - ema[0])
        gaps = np.array(gaps)
        ratios = gaps[1:] / gaps[:-1]
        np.testing.assert_allclose(ratios, decay, rtol=1e-9)
        np.testing.assert_allclose(gaps[-1], decay**2000, rtol=1e-9)
        report(10, "logit-normal passes the two-sample KS test at alpha 0.01 "
                   "(n=1e5); EMA gap shrinks by exactly 0.9999 per step over "
                   "2000 frozen steps")
