"""Dual-level model: token plumbing, conditioning, variants, gradients."""

import gc
import os
import signal
import threading

import numpy as np
import pytest

from dualdit import blocks as B
from dualdit import model as M
from dualdit import samplers as S
from dualdit.errors import ConfigError, InputError, NumericError, ShapeError
from dualdit.tensor import Tape, Tensor, grad_check


def toy_model(seed=0, dtype=np.float64, **overrides):
    return M.DualLevelModel(M.toy_config(**overrides), seed=seed, dtype=dtype)


def randomize_all(model, rng, scale=0.2):
    for t in model.params.values():
        t.data[...] = rng.normal(scale=scale, size=t.shape)


class TestPatchify:
    def test_single_patch_is_flat_image(self):
        x = Tensor(np.arange(2 * 3 * 2 * 2, dtype=np.float64).reshape(2, 3, 2, 2))
        tok = M.patchify(x, 2)
        assert tok.shape == (2, 1, 12)

    def test_token_count_at_paper_scale(self):
        # 256x256 with p=16 -> 256 tokens of length 768
        x = Tensor(np.zeros((1, 3, 256, 256), dtype=np.float32))
        tok = M.patchify(x, 16)
        assert tok.shape == (1, 256, 768)

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 32, 32))
        tok = M.patchify(Tensor(x), 8)
        back = M.unpatchify(tok, 8, (4, 4), 3)
        np.testing.assert_array_equal(back.data, x)

    def test_indivisible_raises(self):
        with pytest.raises(ShapeError):
            M.patchify(Tensor(np.zeros((1, 3, 9, 9))), 2)


class TestConfig:
    def test_presets_match_published_sizes(self):
        assert (
            M.PRESETS["B"].patch_depth, M.PRESETS["B"].pixel_depth,
            M.PRESETS["B"].patch_dim, M.PRESETS["B"].pixel_dim, M.PRESETS["B"].heads,
        ) == (12, 2, 768, 16, 12)
        assert (
            M.PRESETS["L"].patch_depth, M.PRESETS["L"].pixel_depth,
            M.PRESETS["L"].patch_dim, M.PRESETS["L"].pixel_dim, M.PRESETS["L"].heads,
        ) == (22, 4, 1024, 16, 16)
        assert (
            M.PRESETS["XL"].patch_depth, M.PRESETS["XL"].pixel_depth,
            M.PRESETS["XL"].patch_dim, M.PRESETS["XL"].pixel_dim, M.PRESETS["XL"].heads,
        ) == (26, 4, 1152, 16, 16)
        for cfg in M.PRESETS.values():
            assert cfg.patch_size == 16 and cfg.resolution == (256, 256)

    def test_token_count_never_stored(self):
        cfg = M.toy_config(resolution=(16, 8), patch_size=4)
        assert cfg.num_patches == (16 // 4) * (8 // 4)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            M.toy_config(patch_dim=15)  # not divisible by heads
        with pytest.raises(ConfigError):
            M.toy_config(resolution=(9, 9))
        with pytest.raises(ConfigError):
            M.toy_config(variant="nope")
        with pytest.raises(ConfigError):
            M.toy_config(pixel_dim=0)
        with pytest.raises(ConfigError):
            M.toy_config(ptc_rate=3)

    @pytest.mark.parametrize("overrides", [
        dict(heads=0), dict(heads=-2), dict(patch_size=0), dict(patch_size=-2),
        dict(channels=0), dict(resolution=(0, 8)), dict(resolution=(8, -8)),
    ], ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
    def test_non_positive_sizes_rejected(self, overrides):
        with pytest.raises(ConfigError, match="must be positive"):
            M.toy_config(**overrides)

    def test_roundtrip_dict(self):
        cfg = M.toy_config(ptc_rate=2, variant="B_patchwise")
        assert M.config_from_dict(M.config_to_dict(cfg)) == cfg


class TestConditioning:
    def test_null_class_deterministic(self):
        m = toy_model(seed=3)
        c1, _ = m.embed_condition(np.array([0.0]), np.array([m.config.null_class]))
        c2, _ = m.embed_condition(np.array([0.0]), np.array([m.config.null_class]))
        np.testing.assert_array_equal(c1.data, c2.data)

    def test_same_inputs_same_c(self):
        m = toy_model(seed=4)
        c1, _ = m.embed_condition(np.array([0.3, 0.7]), np.array([0, 2]))
        c2, _ = m.embed_condition(np.array([0.3, 0.7]), np.array([0, 2]))
        np.testing.assert_array_equal(c1.data, c2.data)

    def test_out_of_range_class(self):
        m = toy_model()
        with pytest.raises(InputError):
            m.embed_condition(np.array([0.5]), np.array([m.config.num_classes + 1]))

    def test_sinusoidal_matches_closed_form(self):
        # standard sin/cos table at t=0.5, dim 8
        feats = M.sinusoidal_features(np.array([0.5]), 8)
        half = 4
        freqs = 10000.0 ** (-np.arange(half) / half)
        args = 0.5 * 1000.0 * freqs
        np.testing.assert_allclose(feats[0], np.concatenate([np.sin(args), np.cos(args)]))


class TestForward:
    def test_shape_preserving(self):
        for kwargs in [{}, {"ptc_rate": 2}, {"variant": "vanilla_dit"},
                       {"variant": "no_pixel_attention"}, {"resolution": (8, 16)},
                       {"variant": "A_global"}, {"variant": "B_patchwise"}]:
            m = toy_model(seed=6, **kwargs)
            rng = np.random.default_rng(7)
            x = rng.normal(size=(2, 3, *m.config.resolution))
            v = m.forward(x, np.array([0.2, 0.9]), np.array([0, 1]))
            assert v.shape == x.shape, kwargs

    def test_identity_at_init_zero_velocity(self):
        m = toy_model(seed=8)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 3, 8, 8))
        v = m.forward(x, np.array([0.5, 0.5]), np.array([0, 1]))
        assert np.all(v.data == 0.0)

    def test_zero_gates_patch_pathway_is_identity(self):
        m = toy_model(seed=10)
        rng = np.random.default_rng(11)
        # randomize everything except modulation heads (zero gates preserved)
        for name, t in m.params.items():
            if ".ada." not in name and ".mod." not in name:
                t.data[...] = rng.normal(scale=0.3, size=t.shape)
        x = Tensor(rng.normal(size=(1, 3, 8, 8)))
        import dualdit.blocks as B

        s0 = B.linear(M.patchify(x, 2), m.patch_embed)
        c, _ = m.embed_condition(np.array([0.4]), np.array([2]))
        s_n = m.patch_pathway(s0, c)
        np.testing.assert_array_equal(s_n.data, s0.data)

    def test_determinism_two_models_same_seed(self):
        kwargs = dict(seed=12, dtype=np.float64)
        rng = np.random.default_rng(13)
        x = rng.normal(size=(1, 3, 8, 8))
        v1 = toy_model(**kwargs).forward(x, np.array([0.3]), np.array([1]))
        v2 = toy_model(**kwargs).forward(x, np.array([0.3]), np.array([1]))
        np.testing.assert_array_equal(v1.data, v2.data)

    def test_pixel_attention_token_count(self):
        for k in (1, 2, 4):
            m = toy_model(seed=14, ptc_rate=k)
            diag = {}
            x = np.zeros((1, 3, 8, 8))
            m.forward(x, np.array([0.5]), np.array([0]), diag=diag)
            assert diag["pixel_attention_tokens"] == k * m.config.num_patches

    def test_input_shape_mismatch(self):
        m = toy_model()
        with pytest.raises(ShapeError):
            m.forward(np.zeros((1, 3, 16, 16)), np.array([0.5]), np.array([0]))
        with pytest.raises(ShapeError, match="for a batch of 2"):
            m.forward(np.zeros((2, 3, 8, 8)), np.array([0.5, 0.5]), np.array([0, 1, 2]))

    def test_semantic_handoff_broadcast(self):
        rng = np.random.default_rng(40)
        s_n = Tensor(rng.normal(size=(2, 4, 8)))
        t_emb = Tensor(rng.normal(size=(2, 1, 8)))
        s_cond = s_n + t_emb
        assert s_cond.shape == (2, 4, 8)
        np.testing.assert_allclose(s_cond.data, s_n.data + t_emb.data)
        zero_t = s_n + Tensor(np.zeros((2, 1, 8)))
        np.testing.assert_array_equal(zero_t.data, s_n.data)
        zero_s = Tensor(np.zeros((2, 4, 8))) + t_emb
        np.testing.assert_array_equal(zero_s.data, np.broadcast_to(t_emb.data, (2, 4, 8)))

    def test_pixel_pathway_rope_flag(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(1, 3, 8, 8))
        outs = []
        for flag in (True, False):
            m = toy_model(seed=42, rope_pixel_pathway=flag)
            randomize_all(m, np.random.default_rng(43))
            outs.append(m.forward(x, np.array([0.5]), np.array([1])).data)
        assert np.abs(outs[0] - outs[1]).max() > 1e-9


DESK = M.ModelConfig(patch_depth=4, pixel_depth=2, patch_dim=64, pixel_dim=8, heads=4,
                     patch_size=4, num_classes=3, resolution=(16, 16), channels=3)


def desk_model():
    model = M.DualLevelModel(DESK, seed=60)
    rng = np.random.default_rng(61)
    # zero-initialized gates and heads would leave the pixel pathway silent
    for t in model.params.values():
        t.data += rng.normal(scale=0.02, size=t.shape).astype(np.float32)
    return model


def desk_inputs(batch):
    rng = np.random.default_rng(62)
    return (rng.standard_normal((batch, 3, 16, 16)).astype(np.float32),
            rng.uniform(size=batch), rng.integers(0, 4, batch))


GUIDED = dict(cfg_scale=2.0, cfg_interval=(0.1, 1.0))


def one_core(monkeypatch):
    monkeypatch.setattr(M.os, "sched_getaffinity", lambda pid: {0})


def no_workers(*args):
    raise AssertionError("forked a worker")


class TestShardedForward:
    """Sampling runs a shard of trajectories per core, each shard's forwards
    whole in one process; ``forward`` itself never shards."""

    def test_desk_batch_is_bitwise_serial(self, shard_sizes, monkeypatch):
        model = desk_model()
        y = np.arange(64) % 3
        cfgs = [S.SamplerConfig(solver=solver, steps=3, seed=60, **GUIDED) for solver in S.SOLVERS]
        sharded = [S.sample(model, cfg, y) for cfg in cfgs]
        # each solver: the worker's shard, then this process's forwards (euler 6, heun 11, flow_dpm 6)
        assert shard_sizes == [32] * (1 + 6 + 1 + 11 + 1 + 6)
        one_core(monkeypatch)
        for cfg, images in zip(cfgs, sharded):
            assert images.tobytes() == S.sample(model, cfg, y).tobytes(), cfg.solver

    @pytest.mark.parametrize("variant", M.VARIANTS)
    @pytest.mark.parametrize("ptc_rate", [1, 2])
    def test_toy_odd_batch_is_bitwise_serial(self, shard_sizes, monkeypatch, variant, ptc_rate):
        monkeypatch.setattr(M, "_MIN_SHARD_PIXELS", 1)
        m = toy_model(seed=63, variant=variant, ptc_rate=ptc_rate)
        randomize_all(m, np.random.default_rng(64))
        cfg = S.SamplerConfig(solver="flow_dpm", steps=2, cfg_scale=2.0, seed=65)
        y = np.arange(5) % 4
        sharded = S.sample(m, cfg, y)
        assert shard_sizes == [3] + [2] * 4
        one_core(monkeypatch)
        assert sharded.tobytes() == S.sample(m, cfg, y).tobytes()

    def test_guided_sample_is_bitwise_serial(self, shard_sizes, monkeypatch):
        model = desk_model()
        cfg = S.SamplerConfig(solver="flow_dpm", steps=4, seed=66, **GUIDED)
        sharded = S.sample(model, cfg, np.arange(32) % 3)
        assert shard_sizes == [16] * (1 + 8)
        monkeypatch.setattr(M, "_MIN_SHARD_PIXELS", 10**9)
        assert sharded.tobytes() == S.sample(model, cfg, np.arange(32) % 3).tobytes()

    def test_one_call_per_nfe_on_a_wrapped_instance(self, shard_sizes):
        # a profiler that counts calls of the instance's forward sees this process's shard
        model = desk_model()
        calls = []

        def counted_forward(*args, **kwargs):
            calls.append(args[0].shape[0])
            return type(model).forward(model, *args, **kwargs)

        model.forward = counted_forward
        cfg = S.SamplerConfig(solver="flow_dpm", steps=32, shift_alpha=1.0, seed=67, **GUIDED)
        S.sample(model, cfg, np.arange(32) % 3)
        assert calls == [16] * 61
        assert shard_sizes == [16] * (1 + 61)

    def test_taped_forward_forks_no_worker(self, shard_sizes, monkeypatch):
        monkeypatch.setattr(M, "_ShardWorker", no_workers)
        model = desk_model()
        x, t, y = desk_inputs(64)
        model.forward(x, t, y)
        with Tape() as tape:
            model.forward(x, t, y)
            S.sample(model, S.SamplerConfig(solver="euler", steps=1), y)
        assert shard_sizes == [64] * 3 and len(tape) > 0

    def test_a_sample_waits_for_another_threads_shards(self, shard_sizes):
        # as a train step does, rather than running in one piece
        model = desk_model()
        M._SHARD_LOCK.acquire()
        release = threading.Timer(0.2, M._SHARD_LOCK.release)
        release.start()
        try:
            S.sample(model, S.SamplerConfig(solver="euler", steps=1), np.arange(64) % 3)
        finally:
            release.join(timeout=10)
        assert shard_sizes == [32, 32] and not release.is_alive()

    def test_serial_without_the_setter(self, shard_sizes, monkeypatch):
        monkeypatch.setattr(M, "_openblas_threads", lambda: None)
        S.sample(desk_model(), S.SamplerConfig(solver="euler", steps=1), np.arange(64) % 3)
        assert shard_sizes == [64]

    def test_bad_class_id_in_a_worker_shard(self, shard_sizes):
        model = desk_model()
        y = np.arange(64) % 3
        y[40] = DESK.num_classes + 1
        with pytest.raises(InputError):
            S.sample(model, S.SamplerConfig(solver="euler", steps=1), y)
        assert shard_sizes == [32, 32]

    def test_worker_rows_that_blow_up_raise_the_serial_error(self, shard_sizes, monkeypatch):
        model = desk_model()
        model.class_embed.data[2] = 1e30
        y = np.where(np.arange(64) < 32, 0, 2)  # class 2 only in the worker's rows
        cfg = S.SamplerConfig(solver="flow_dpm", steps=4, seed=68, **GUIDED)
        with pytest.raises(NumericError) as sharded:
            S.sample(model, cfg, y)
        assert shard_sizes == [32] * (1 + 8)
        one_core(monkeypatch)
        with pytest.raises(NumericError) as serial, np.errstate(over="ignore", invalid="ignore"):
            S.sample(model, cfg, y)
        assert str(sharded.value) == str(serial.value)

    def test_the_earliest_failing_step_of_any_shard_is_named(self, shard_sizes, monkeypatch):
        forward = M.DualLevelModel.forward

        def failing(self, x, t, y, **kwargs):
            # class 1 goes non-finite from t=0.5, class 2 from t=0.75
            out = forward(self, x, t, y, **kwargs)
            out.data[(y == 1) & (t <= 0.5) | (y == 2) & (t <= 0.75)] = np.nan
            return out

        monkeypatch.setattr(M.DualLevelModel, "forward", failing)
        model = desk_model()
        y = np.where(np.arange(64) < 32, 1, 2)  # this process's shard fails later than the worker's
        cfg = S.SamplerConfig(solver="euler", steps=4, seed=69)
        with pytest.raises(NumericError, match="at step 1 ") as sharded:
            S.sample(model, cfg, y)
        assert shard_sizes == [32] * (1 + 3)
        one_core(monkeypatch)
        with pytest.raises(NumericError) as serial:
            S.sample(model, cfg, y)
        assert str(sharded.value) == str(serial.value)

    def test_worker_computes_with_current_parameters(self, shard_sizes, monkeypatch):
        model = desk_model()
        cfg = S.SamplerConfig(solver="euler", steps=2)
        y = np.arange(64) % 3
        S.sample(model, cfg, y)
        for p in model.params.values():
            p.data *= 1.5
        sharded = S.sample(model, cfg, y)
        assert shard_sizes == [32] * 6
        one_core(monkeypatch)
        assert sharded.tobytes() == S.sample(model, cfg, y).tobytes()

    def test_a_dead_worker_fails_one_sample_and_is_replaced(self, shard_sizes, monkeypatch):
        model = desk_model()
        cfg = S.SamplerConfig(solver="euler", steps=2)
        y = np.arange(64) % 3
        S.sample(model, cfg, y)
        [worker] = model._shard_workers
        os.kill(worker.pid, signal.SIGKILL)
        with pytest.raises(RuntimeError, match="exited"):
            S.sample(model, cfg, y)
        assert model._shard_workers == []
        with pytest.raises(ChildProcessError):
            os.waitpid(worker.pid, os.WNOHANG)  # reaped
        sharded = S.sample(model, cfg, y)
        assert model._shard_workers[0].pid != worker.pid
        one_core(monkeypatch)
        assert sharded.tobytes() == S.sample(model, cfg, y).tobytes()

    def test_worker_stops_with_its_model(self, shard_sizes):
        model = desk_model()
        S.sample(model, S.SamplerConfig(solver="euler", steps=1), np.arange(64) % 3)
        pid = model._shard_workers[0].pid
        del model
        gc.collect()
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)

    def test_blas_threads_pinned_then_restored(self, shard_sizes, monkeypatch):
        get_threads, set_threads = M._openblas_threads()
        seen = []
        counted = M.DualLevelModel.forward

        def spy(self, *args, **kwargs):
            seen.append(get_threads())
            return counted(self, *args, **kwargs)

        monkeypatch.setattr(M.DualLevelModel, "forward", spy)
        model = desk_model()
        cfg = S.SamplerConfig(solver="euler", steps=1)
        y = np.arange(64) % 3
        threads = get_threads()
        try:
            set_threads(2)
            want = get_threads()
            S.sample(model, cfg, y)
            assert seen == [1] and get_threads() == want
            y[40] = DESK.num_classes + 1
            with pytest.raises(InputError):
                S.sample(model, cfg, y)
            assert get_threads() == want
        finally:
            set_threads(threads)


class TestRopeGeometry:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_pixel_tables_repeat_each_patch_cell(self, k):
        m = toy_model(ptc_rate=k)
        gh, gw = m.config.grid
        C, S = m.pixel_rope
        want_C, want_S = B.rope_tables(B.grid_positions(gh, gw, k), 8, np.float64)
        np.testing.assert_array_equal(C, want_C)
        np.testing.assert_array_equal(S, want_S)
        assert C.shape == (gh * gw * k, 1, 8)

    def test_pixel_tables_absent_without_pixel_rope(self):
        assert toy_model(rope_pixel_pathway=False).pixel_rope is None

    def test_forward_builds_no_tables(self, monkeypatch):
        m = toy_model(ptc_rate=2)
        calls = []
        real = B.rope_tables
        monkeypatch.setattr(B, "rope_tables", lambda *a: calls.append(a) or real(*a))
        m.forward(np.zeros((2, 3, 8, 8)), np.array([0.2, 0.7]), np.array([0, 1]))
        assert calls == []
        toy_model(ptc_rate=2)
        assert len(calls) == 2  # patch and pixel tables, at construction


class TestVariantLattice:
    def duplicate_rows(self, m_b, m_c):
        """Tile patch-wise head weights across the pixel axis of the pixel-wise head."""
        p2 = m_c.config.pixels_per_patch
        for i in range(m_c.config.pixel_depth):
            wb = m_b.params[f"pit.{i}.mod.w"].data
            bb = m_b.params[f"pit.{i}.mod.b"].data
            m_c.params[f"pit.{i}.mod.w"].data[...] = np.tile(wb, (1, p2))
            m_c.params[f"pit.{i}.mod.b"].data[...] = np.tile(bb, p2)

    def tie_shared(self, src, dst):
        for name, t in dst.params.items():
            if t.shape == src.params[name].shape:
                t.data[...] = src.params[name].data

    def test_pixelwise_with_duplicated_head_equals_patchwise(self):
        m_b = toy_model(seed=20, variant="B_patchwise")
        m_c = toy_model(seed=20, variant="C_pixelwise")
        rng = np.random.default_rng(21)
        randomize_all(m_b, rng)
        self.tie_shared(m_b, m_c)
        self.duplicate_rows(m_b, m_c)
        x = rng.normal(size=(2, 3, 8, 8))
        t, y = np.array([0.3, 0.8]), np.array([0, 2])
        v_b = m_b.forward(x, t, y)
        v_c = m_c.forward(x, t, y)
        assert np.abs(v_b.data - v_c.data).max() <= 1e-12

    def test_patchwise_with_constant_conditioning_equals_global(self):
        # zero patch embedding forces s_N = 0, so s_N + c broadcasts c over L:
        # the patch-wise pathway then sees exactly the global conditioning rows.
        m_a = toy_model(seed=22, variant="A_global")
        m_b = toy_model(seed=22, variant="B_patchwise", cond_uses_class=True)
        rng = np.random.default_rng(23)
        randomize_all(m_a, rng)
        self.tie_shared(m_a, m_b)
        for m in (m_a, m_b):
            m.params["patch_embed.w"].data[...] = 0.0
            m.params["patch_embed.b"].data[...] = 0.0
            for i in range(m.config.patch_depth):
                m.params[f"patch_blocks.{i}.ada.w"].data[...] = 0.0
                m.params[f"patch_blocks.{i}.ada.b"].data[...] = 0.0
        x = rng.normal(size=(2, 3, 8, 8))
        t, y = np.array([0.6, 0.1]), np.array([1, 2])
        v_a = m_a.forward(x, t, y)
        v_b = m_b.forward(x, t, y)
        np.testing.assert_array_equal(v_a.data, v_b.data)

    def test_modulation_level_duplication(self):
        m_b = toy_model(seed=24, variant="B_patchwise")
        m_c = toy_model(seed=24, variant="C_pixelwise")
        rng = np.random.default_rng(25)
        randomize_all(m_b, rng)
        self.tie_shared(m_b, m_c)
        self.duplicate_rows(m_b, m_c)
        cond = Tensor(rng.normal(size=(6, m_b.config.patch_dim)))
        mods_b = m_b.pixel_adaln_params(cond, m_b.pit_blocks[0])
        mods_c = m_c.pixel_adaln_params(cond, m_c.pit_blocks[0])
        for name in ("beta1", "gamma1", "alpha1", "beta2", "gamma2", "alpha2"):
            gb = getattr(mods_b, name).data  # (BL, 1, Dp)
            gc = getattr(mods_c, name).data  # (BL, p2, Dp)
            assert np.abs(gc - gb).max() <= 1e-12

    def test_zero_head_gives_zero_groups(self):
        m = toy_model(seed=26)
        blk = m.pit_blocks[0]
        blk.mod.w.data[...] = 0.0
        blk.mod.b.data[...] = 0.0
        cond = Tensor(np.random.default_rng(27).normal(size=(4, m.config.patch_dim)))
        mods = m.pixel_adaln_params(cond, blk)
        for name in ("beta1", "gamma1", "alpha1", "beta2", "gamma2", "alpha2"):
            assert np.all(getattr(mods, name).data == 0.0)
        # and a fully zeroed head makes the block the identity map
        rng = np.random.default_rng(28)
        for pname, t in m.params.items():
            if ".mod." not in pname:
                t.data[...] = rng.normal(scale=0.3, size=t.shape)
        blk.mod.w.data[...] = 0.0
        blk.mod.b.data[...] = 0.0
        X = Tensor(rng.normal(size=(16, 4, 4)))
        out = m.pit_block(X, Tensor(rng.normal(size=(16, 16))), blk)
        np.testing.assert_array_equal(out.data, X.data)

    def test_group_shapes_from_dimensions(self):
        # p=2, D_pix=3 -> head emits 4 * 6 * 3 = 72 values per token
        m = toy_model(seed=28, pixel_dim=3)
        blk = m.pit_blocks[0]
        assert blk.mod.w.shape == (m.config.patch_dim, 72)
        cond = Tensor(np.zeros((5, m.config.patch_dim)))
        mods = m.pixel_adaln_params(cond, blk)
        assert mods.beta1.shape == (5, 4, 3)


class TestGradients:
    def test_end_to_end_sampled_params(self):
        m = toy_model(seed=30, dtype=np.float64)
        rng = np.random.default_rng(31)
        randomize_all(m, rng, scale=0.15)
        x = rng.normal(size=(1, 3, 8, 8))
        t, y = np.array([0.4]), np.array([2])
        w = Tensor(rng.normal(size=(1, 3, 8, 8)))

        def loss():
            return (m.forward(x, t, y) * w).sum()

        # one parameter from each family keeps this test fast; the acceptance
        # suite sweeps every parameter of the toy model
        picks = ["patch_embed.w", "t_embed.fc2.w", "class_embed",
                 "patch_blocks.0.attn.q.w", "patch_blocks.1.ada.w",
                 "pixel_embed.w", "pit.0.mod.w", "pit.0.compact.w",
                 "pit.1.attn.o.w", "pit.1.mlp.fc1.w", "pixel_head.w"]
        for name in picks:
            err = grad_check(lambda _t: loss(), m.params[name], step=5e-4)
            assert err <= 1e-4, name

    def test_pit_block_grads(self):
        m = toy_model(seed=32, dtype=np.float64)
        rng = np.random.default_rng(33)
        randomize_all(m, rng, scale=0.2)
        X0 = rng.normal(size=(16, 4, 4))
        cond0 = rng.normal(size=(16, 16))

        def f(t):
            return m.pit_block(t, Tensor(cond0), m.pit_blocks[0]).sum()

        assert grad_check(f, Tensor(X0, requires_grad=True), step=1e-4) <= 1e-4
