"""Optimizer oracles, EMA, clipping, loop determinism, checkpoint resume."""

import ctypes
import dataclasses
import errno
import functools
import mmap
import os
import resource
import signal
import stat
import struct
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dualdit import checkpoint as C
from dualdit import data as D
from dualdit import flow as F
from dualdit import model as M
from dualdit import samplers as S
from dualdit import shards as SH
from dualdit import trainer as TR
from dualdit.errors import ConfigError, InputError, NumericError, ParseError, ShapeError
from dualdit.model import DualLevelModel, toy_config
from dualdit.tensor import Tape, Tensor


def tiny_setup(total_steps=8, align=0.0, seed=0, **train_kw):
    spec = D.ToyDatasetSpec(kind="solid_color", num_classes=2, resolution=(4, 4),
                            samples_per_class=16, noise_std=0.05, seed=seed)
    dataset = D.make_dataset(spec)
    cfg = TR.TrainConfig(lr=1e-3, batch_size=8, total_steps=total_steps,
                         align_weight=align, seed=seed, **train_kw)
    model = DualLevelModel(
        toy_config(resolution=(4, 4), num_classes=2, patch_dim=16, pixel_dim=4,
                   patch_depth=1, pixel_depth=1), seed=seed)
    return model, dataset, cfg


def assert_unchanged(state, before: dict):
    after = state.records()
    assert after.keys() == before.keys()
    for key, a in before.items():
        assert after[key].tobytes() == a.tobytes(), key


class TestAdamW:
    def step(self, p, g, m, v, step=1, **kw):
        """One AdamW step on one float64 parameter; its value and moments afterwards."""
        p, g, m, v = (np.array([x], dtype=np.float64) for x in (p, g, m, v))
        TR.adamw_step(p, g, m, v, np.empty(1), step, **kw)
        return p, m, v

    def test_zero_grads_zero_decay_params_unchanged(self):
        p, _, _ = self.step(1.5, 0.0, 0.0, 0.0, lr=0.1)
        np.testing.assert_array_equal(p, [1.5])

    def test_scalar_first_step_closed_form(self):
        # bias-corrected first step with g=1: update = g / (|g| + eps)
        eps = 1e-8
        p, _, _ = self.step(2.0, 1.0, 0.0, 0.0, lr=0.1, eps=eps)
        expected = 2.0 - 0.1 * (1.0 / (1.0 + eps))
        np.testing.assert_allclose(p, [expected], rtol=1e-12)

    def test_decay_only_multiplicative_shrink(self):
        p, _, _ = self.step(3.0, 0.0, 0.0, 0.0, lr=0.1, weight_decay=0.5)
        np.testing.assert_allclose(p, [3.0 * (1 - 0.1 * 0.5)], rtol=1e-12)

    def test_moments_decay_with_zero_grads(self):
        _, m, v = self.step(1.0, 0.0, 1.0, 1.0, step=5, lr=0.0)
        np.testing.assert_allclose(m, [0.9])
        np.testing.assert_allclose(v, [0.999])


def flat_buffers(grads: dict) -> SH.Arena:
    """An arena whose first gradient buffer holds the given gradients by name."""
    arena = SH.Arena({k: Tensor(np.zeros_like(g)) for k, g in grads.items()})
    for view, g in zip(arena.views(arena.grads[0]).values(), grads.values()):
        view[...] = g
    return arena


def grads_of(arena: SH.Arena) -> dict:
    return {k: g.copy() for k, g in arena.views(arena.grads[0]).items()}


def tail(arena: SH.Arena, max_norm: float, shards: int = 1, **kw) -> float:
    """The optimizer tail over ``arena`` and all its gradient buffers as ``train`` runs it, each
    of ``shards`` spans in turn in this process: its pre-clip norm. ``kw`` overrides AdamW's step
    and learning rate and the config's fields."""
    spans = SH.tail_spans(SH.tail_blocks(arena), shards)
    sums = [s for span in spans for s in SH.sum_squares(arena, len(arena.grads), span)]
    norm, scale = TR.clip_scale(arena, sums, max_norm)
    step, lr = kw.pop("step", 1), kw.pop("lr", 1e-3)
    for span in spans:
        TR.step_blocks(arena, span, scale, step, lr, TR.TrainConfig(**kw))
    return norm


class TestClipping:
    """The first step's first moment is (1 - b1) times the clipped gradient."""

    def clipped(self, arena):
        return np.concatenate([m.ravel() for m in arena.views(arena.m).values()]) / 0.1

    def test_identity_below_max(self):
        flat = flat_buffers({"a": np.array([0.3, 0.4])})
        sums = SH.sum_squares(flat, 1, SH.tail_blocks(flat))
        assert TR.clip_scale(flat, sums, 1.0) == (pytest.approx(0.5), None)
        np.testing.assert_array_equal(grads_of(flat)["a"], [0.3, 0.4])
        assert tail(flat, 1.0) == pytest.approx(0.5)
        np.testing.assert_allclose(self.clipped(flat), [0.3, 0.4], rtol=1e-12)

    def test_scales_to_max_norm(self):
        flat = flat_buffers({"a": np.array([6.0]), "b": np.array([8.0])})
        assert tail(flat, 1.0) == pytest.approx(10.0)
        assert np.linalg.norm(self.clipped(flat)) == pytest.approx(1.0, abs=1e-9)

    def test_equals_flattened_concatenation_oracle(self):
        rng = np.random.default_rng(0)
        grads = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=7)}
        flat = np.concatenate([grads["a"].ravel(), grads["b"].ravel()])
        max_norm = 0.5
        expected = flat * (max_norm / np.linalg.norm(flat))
        flat = flat_buffers(grads)
        tail(flat, max_norm)
        np.testing.assert_allclose(self.clipped(flat), expected, rtol=1e-12)


class TestEma:
    def test_fixed_point(self):
        ema = np.array([2.0])
        TR.ema_update(ema, np.array([2.0]), 0.999, np.empty(1))
        np.testing.assert_array_equal(ema, [2.0])

    def test_geometric_convergence(self):
        ema = np.array([0.0])
        decay = 0.9999
        for _ in range(10):
            TR.ema_update(ema, np.array([1.0]), decay, np.empty(1))
        np.testing.assert_allclose(1.0 - ema[0], decay**10, rtol=1e-9)

    def test_decay_zero_copies_params(self):
        ema = np.array([0.0])
        TR.ema_update(ema, np.array([5.0]), 0.0, np.empty(1))
        np.testing.assert_array_equal(ema, [5.0])


def loop_tail(params, grads, m, v, ema, step, lr, betas, weight_decay, eps, decay, max_norm):
    """Clip, AdamW and EMA as loops over per-tensor dicts: the reference the flat tail must match."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.asarray(g, dtype=np.float64) ** 2))
    norm = float(np.sqrt(total))
    if norm > max_norm:
        grads = {k: g * (max_norm / norm) for k, g in grads.items()}
    b1, b2 = betas
    bc1, bc2 = 1.0 - b1**step, 1.0 - b2**step
    for k, p in params.items():
        g = grads[k]
        m[k] = b1 * m[k] + (1.0 - b1) * g
        v[k] = b2 * v[k] + (1.0 - b2) * g * g
        p -= lr * ((m[k] / bc1) / (np.sqrt(v[k] / bc2) + eps))
        if weight_decay:
            p -= (lr * weight_decay) * p
    for k, p in params.items():
        ema[k] = decay * ema[k] + (1.0 - decay) * p
    return norm


class TestFlatTail:
    @pytest.mark.parametrize("block, shards", [(32768, 1), (8, 1), (8, 3)])
    def test_matches_the_per_tensor_loop_bitwise(self, monkeypatch, block, shards):
        # float32 as trained, a clipped norm, decay on, a zero of each sign, one arena
        # over a model's and a projector's tensors; whole or small blocks, one span or
        # three stepped in turn, and each gradient the sum of three shards' buffers
        monkeypatch.setattr(SH, "_TAIL_BLOCK", block)
        rng = np.random.default_rng(4)
        shapes = {"w": (5, 3), "b": (3,), "repa.w": (7, 2), "repa.b": (1,)}
        arena = flat_buffers({k: rng.normal(size=s).astype(np.float32) for k, s in shapes.items()})
        arena.grads += [arena.like(), arena.like()]
        gaps = np.setdiff1d(np.arange(arena.flat.size), np.r_[tuple(arena.parts)])
        for buf in (arena.flat, arena.grads[0], arena.m, arena.v, arena.ema, *arena.grads[1:]):
            buf[...] = rng.normal(size=buf.size).astype(np.float32)
            buf[gaps] = 0.0  # as in the arena's alignment gaps
        for buf in arena.grads:
            arena.views(buf)["w"][0, :2] = [0.0, -0.0]
        arena.v[...] = np.abs(arena.v)
        shard_grads = [arena.views(buf) for buf in arena.grads]
        ref = {kind: {k: a.copy() for k, a in arena.views(buf).items()}
               for kind, buf in (("p", arena.flat), ("m", arena.m), ("v", arena.v),
                                 ("ema", arena.ema))}
        ref["g"] = {k: (shard_grads[0][k] + shard_grads[1][k]) + shard_grads[2][k]
                    for k in shapes}
        kw = dict(step=3, lr=1e-2, betas=(0.9, 0.999), weight_decay=0.05, eps=1e-8)
        want = loop_tail(ref["p"], ref["g"], ref["m"], ref["v"], ref["ema"],
                         decay=0.99, max_norm=0.5, **kw)
        assert want > 0.5
        kw["adam_eps"] = kw.pop("eps")
        assert tail(arena, 0.5, shards, ema_decay=0.99, **kw) == want
        for kind, buf in (("p", arena.flat), ("m", arena.m), ("v", arena.v), ("ema", arena.ema)):
            for k, a in arena.views(buf).items():
                assert a.tobytes() == ref[kind][k].tobytes(), (kind, k)
        assert not arena.flat[gaps].any()


class TestTailPartition:
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sizes=st.lists(st.integers(1, 5000), min_size=1, max_size=30),
           block=st.integers(1, 20000), shards=st.integers(1, 4))
    def test_blocks_tile_the_arena_and_spans_split_them(self, monkeypatch, sizes, block, shards):
        monkeypatch.setattr(SH, "_TAIL_BLOCK", block)
        arena = SH.Arena({f"t{i}": Tensor(np.zeros(n, np.float32)) for i, n in enumerate(sizes)})
        blocks = SH.tail_blocks(arena)
        starts = [part.start for part in arena.parts]
        # from 0 to the arena's end, gaps included, each element in one block
        assert blocks[0][0].start == 0 and blocks[-1][0].stop == arena.flat.size
        for (span, _), (after, _) in zip(blocks, blocks[1:]):
            assert span.stop == after.start
        for i, (span, parts) in enumerate(blocks):
            assert span.stop > span.start
            assert span.start in starts and (span.stop in starts or span.stop == arena.flat.size)
            assert parts == [part for part in arena.parts if span.start <= part.start < span.stop]
            assert i + 1 == len(blocks) or span.stop - span.start >= block
        spans = SH.tail_spans(blocks, shards)
        assert 1 <= len(spans) <= shards and all(spans)
        assert [b for span in spans for b in span] == blocks  # contiguous, disjoint, in order


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("align_weight", -0.5), ("class_drop_prob", 1.5), ("lr", -1.0), ("weight_decay", -0.1),
        ("betas", (1.5, 0.999)), ("adam_eps", 0.0), ("checkpoint_every", -1),
        ("switch_step", -1), ("clip_after_switch", -1.0), ("logit_normal_std", -1.0),
        ("align_feature_dim", 0), ("lr", float("nan")), ("lr_after_switch", -1.0), ("seed", -1),
    ])
    def test_out_of_range_field_is_refused(self, field, value):
        with pytest.raises(ConfigError, match=rf"^{field} must be"):
            TR.TrainConfig(**{field: value})


class TestTrainLoop:
    def test_zero_steps_no_metrics(self):
        model, dataset, cfg = tiny_setup(total_steps=0)
        before = {k: t.data.copy() for k, t in model.params.items()}
        state = TR.train(model, dataset, cfg)
        assert state.metrics == []
        for k, t in model.params.items():
            np.testing.assert_array_equal(t.data, before[k])

    def test_fixed_seed_identical_metric_streams(self):
        runs = []
        for _ in range(2):
            model, dataset, cfg = tiny_setup(total_steps=6)
            state = TR.train(model, dataset, cfg)
            runs.append(TR.metrics_to_csv(state.metrics))
        assert runs[0] == runs[1]

    def test_loss_decreases_on_tiny_task(self):
        model, dataset, cfg = tiny_setup(total_steps=60)
        state = TR.train(model, dataset, cfg)
        first = np.mean([m["loss"] for m in state.metrics[:10]])
        last = np.mean([m["loss"] for m in state.metrics[-10:]])
        assert last < first

    def test_grad_norm_never_exceeds_clip(self):
        model, dataset, cfg = tiny_setup(total_steps=12, clip_norm=0.05)
        state = TR.train(model, dataset, cfg)
        for m in state.metrics:
            post = min(m["grad_norm"], cfg.clip_norm)
            assert post <= cfg.clip_norm + 1e-6

    def test_lr_and_clip_switch(self):
        model, dataset, cfg = tiny_setup(total_steps=6, switch_step=3,
                                         lr_after_switch=1e-5, clip_after_switch=0.5)
        state = TR.train(model, dataset, cfg)
        assert [m["lr"] for m in state.metrics] == [1e-3] * 3 + [1e-5] * 3

    def test_class_drop_draws_after_the_flow_batch(self, monkeypatch):
        # the dropout mask is the generator's next draw after the noise and timesteps
        seen = []
        real = F.loss_diffusion
        monkeypatch.setattr(F, "loss_diffusion",
                            lambda model, batch, y, **kw: seen.append(y) or real(model, batch, y, **kw))
        for prob in (1.0, 0.3, 0.0):
            model, dataset, cfg = tiny_setup(total_steps=1, class_drop_prob=prob)
            state = TR.train(model, dataset, cfg)
            rng = np.random.default_rng(np.random.PCG64(cfg.seed))
            idx = TR._epoch_permutation(cfg.seed, 0, len(dataset.labels))[:cfg.batch_size]
            F.make_flow_batch(dataset.images[idx], rng, F.logit_normal_sampler())
            want = dataset.labels[idx].copy()
            if prob > 0.0:
                want[rng.random(cfg.batch_size) < prob] = model.config.null_class
            np.testing.assert_array_equal(seen.pop(), want)
            assert state.rng.random() == rng.random()  # no other draw, and none at 0

    def test_bad_label_is_refused_even_when_dropped(self):
        model, dataset, cfg = tiny_setup(total_steps=1, class_drop_prob=1.0)
        dataset.labels[3] = model.config.null_class + 1
        with pytest.raises(InputError, match=r"\[0, 2\]"):
            TR.train(model, dataset, cfg)

    def test_alignment_needs_the_projector_in_the_state(self, tmp_path):
        # the projector is in the optimizer's records exactly when alignment is on
        for built, run, held in ((0.0, 0.5, "without"), (0.5, 0.0, "with")):
            model, dataset, cfg = tiny_setup(total_steps=2, align=built)
            state = TR.init_state(model, cfg)
            assert any(key.startswith("param.repa.") for key in state.records()) == (built > 0)
            before = {key: a.copy() for key, a in state.records().items()}
            cfg = dataclasses.replace(cfg, align_weight=run)
            out = tmp_path / f"built{built}"
            out.mkdir()
            with pytest.raises(ConfigError, match=f"align_weight is {run} .* {held} an alignment"):
                TR.train(model, dataset, cfg, state=state, metrics_path=out / "m.csv",
                         checkpoint_dir=out)
            assert state.step == 0 and state.metrics == []
            assert_unchanged(state, before)
            assert list(out.iterdir()) == []
            state = TR.train(model, dataset, cfg, state=TR.init_state(model, cfg))
            assert state.step == 2

    def test_a_projector_of_another_width_is_refused(self, tmp_path):
        # the state's projector maps to 32 features, the config's encoder to 16
        model, dataset, cfg = tiny_setup(total_steps=2, align=0.5, align_feature_dim=32)
        state = TR.init_state(model, cfg)
        before = {key: a.copy() for key, a in state.records().items()}
        narrow = dataclasses.replace(cfg, align_feature_dim=16)
        with pytest.raises(ConfigError, match="align_feature_dim is 16 .* outputs 32 features"):
            TR.train(model, dataset, narrow, state=state, metrics_path=tmp_path / "m.csv",
                     checkpoint_dir=tmp_path)
        assert state.step == 0 and state.metrics == []
        assert_unchanged(state, before)
        assert list(tmp_path.iterdir()) == []
        state = TR.train(model, dataset, narrow, state=TR.init_state(model, narrow))
        assert state.step == 2

    @pytest.mark.parametrize("align", [0.0, 0.5])
    def test_a_state_over_a_rebuilt_arena_is_refused(self, tmp_path, align):
        # a later init_state built the model a new arena, so the stale state's records
        # are no longer the model's: it is neither stepped, saved nor restored
        model, dataset, cfg = tiny_setup(total_steps=2, align=align)
        stale = TR.init_state(model, cfg)
        state = TR.init_state(model, cfg)
        before = {key: a.copy() for key, a in stale.records().items()}
        with pytest.raises(ConfigError, match="build the state again"):
            TR.train(model, dataset, cfg, state=stale)
        assert stale.metrics == []
        TR.train(model, dataset, cfg, state=state)
        assert state.step == 2
        TR.save_checkpoint(tmp_path / "a.ckpt", model, state)
        params = {k: t.data.copy() for k, t in model.params.items()}
        for refused in (lambda: TR.save_checkpoint(tmp_path / "stale.ckpt", model, stale),
                        lambda: TR.restore_state(model, stale, tmp_path / "a.ckpt")):
            with pytest.raises(ConfigError, match="build the state again"):
                refused()
        assert not (tmp_path / "stale.ckpt").exists() and stale.step == 0
        assert_unchanged(stale, before)
        for k, t in model.params.items():
            assert t.data.tobytes() == params[k].tobytes(), k

    def test_alignment_term_logged(self):
        model, dataset, cfg = tiny_setup(total_steps=3, align=0.5)
        state = TR.train(model, dataset, cfg)
        for m in state.metrics:
            assert m["loss_repa"] >= 0.0
            assert m["loss"] == pytest.approx(m["loss_diff"] + 0.5 * m["loss_repa"], rel=1e-5)

    @pytest.mark.parametrize("align", [0.0, 0.5])
    def test_skipped_step_row(self, align):
        # a non-finite diffusion term skips the step before any alignment term is
        # formed, so both objectives log the same placeholder row
        model, dataset, cfg = tiny_setup(total_steps=2, align=align)
        model.params["pixel_head.w"].data[...] = np.nan
        state = TR.train(model, dataset, cfg)
        assert state.skipped_steps == 2
        for m in state.metrics:
            assert np.isnan(m["loss"]) and np.isnan(m["loss_diff"])
            assert (m["loss_repa"], m["grad_norm"]) == (0.0, 0.0)

    def test_abort_after_ten_bad_steps(self):
        model, dataset, cfg = tiny_setup(total_steps=30)
        model.params["pixel_head.w"].data[...] = np.nan
        with pytest.raises(NumericError, match="10 consecutive"):
            TR.train(model, dataset, cfg)


class TestCheckpointing:
    def test_save_load_save_byte_identical(self, tmp_path):
        model, dataset, cfg = tiny_setup(total_steps=4)
        state = TR.train(model, dataset, cfg)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        TR.save_checkpoint(p1, model, state)
        model2, _, cfg2 = tiny_setup(total_steps=4)
        state2 = TR.init_state(model2, cfg2)
        TR.restore_state(model2, state2, p1)
        TR.save_checkpoint(p2, model2, state2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_resume_reproduces_metric_stream(self, tmp_path):
        # uninterrupted run
        model_a, dataset, cfg_a = tiny_setup(total_steps=10)
        full = TR.train(model_a, dataset, cfg_a)

        # interrupted at step 5, then resumed
        model_b, _, cfg_b = tiny_setup(total_steps=5)
        half = TR.train(model_b, dataset, cfg_b)
        ck = tmp_path / "mid.ckpt"
        TR.save_checkpoint(ck, model_b, half)

        model_c, _, cfg_c = tiny_setup(total_steps=10)
        state_c = TR.init_state(model_c, cfg_c)
        TR.restore_state(model_c, state_c, ck)
        resumed = TR.train(model_c, dataset, cfg_c, state=state_c)

        tail_full = TR.metrics_to_csv(full.metrics[5:])
        tail_resumed = TR.metrics_to_csv(resumed.metrics)
        assert tail_full == tail_resumed
        for k, t in model_a.params.items():
            np.testing.assert_array_equal(t.data, model_c.params[k].data)

    def test_resume_drops_stale_metric_rows(self, tmp_path):
        # uninterrupted: 6 steps, checkpoints at 3 and 6
        model_a, dataset, cfg_a = tiny_setup(total_steps=6, checkpoint_every=3)
        (tmp_path / "a").mkdir()
        TR.train(model_a, dataset, cfg_a, metrics_path=str(tmp_path / "a.csv"),
                 checkpoint_dir=tmp_path / "a")
        # stopped after step 4, past the checkpoint at 3: rows 3 and 4 are stale
        model_b, _, cfg_b = tiny_setup(total_steps=5, checkpoint_every=3)
        (tmp_path / "b").mkdir()
        TR.train(model_b, dataset, cfg_b, metrics_path=str(tmp_path / "b.csv"),
                 checkpoint_dir=tmp_path / "b")
        model_c, _, cfg_c = tiny_setup(total_steps=6, checkpoint_every=3)
        state_c = TR.restore_state(model_c, TR.init_state(model_c, cfg_c),
                                   tmp_path / "b/step00000003.ckpt")
        TR.train(model_c, dataset, cfg_c, state=state_c, metrics_path=str(tmp_path / "b.csv"),
                 checkpoint_dir=tmp_path / "b")
        assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()

    def test_resume_with_alignment_projector(self, two_cores, tmp_path):
        # the projector's parameters are part of the optimizer state and must
        # survive the checkpoint round trip; every step shards
        model_a, dataset, cfg_a = tiny_setup(total_steps=8, align=0.5)
        full = TR.train(model_a, dataset, cfg_a)
        assert any(k.startswith("param.repa.") for k in full.records())

        model_b, _, cfg_b = tiny_setup(total_steps=4, align=0.5)
        half = TR.train(model_b, dataset, cfg_b)
        ck = tmp_path / "align.ckpt"
        TR.save_checkpoint(ck, model_b, half)

        model_c, _, cfg_c = tiny_setup(total_steps=8, align=0.5)
        resumed = TR.train(model_c, dataset, cfg_c,
                           state=TR.restore_state(model_c, TR.init_state(model_c, cfg_c), ck))
        assert TR.metrics_to_csv(full.metrics[4:]) == TR.metrics_to_csv(resumed.metrics)
        assert two_cores == [4, 4] * 16
        for key, a in full.records().items():
            assert a.tobytes() == resumed.records()[key].tobytes(), key

    def test_resume_into_another_width_names_the_record(self, tmp_path):
        model, dataset, cfg = tiny_setup(total_steps=2)
        state = TR.train(model, dataset, cfg)
        ck = tmp_path / "d16.ckpt"
        TR.save_checkpoint(ck, model, state)
        wide = DualLevelModel(toy_config(resolution=(4, 4), num_classes=2, patch_dim=32,
                                         pixel_dim=4, patch_depth=1, pixel_depth=1))
        with pytest.raises(ShapeError, match=r"'param\.patch_embed\.w'.*\(12, 16\).*\(12, 32\)"):
            TR.restore_state(wide, TR.init_state(wide, cfg), ck)

    @pytest.mark.parametrize("kind", ["param", "adam_m", "adam_v", "ema"])
    def test_resume_checks_every_record(self, tmp_path, kind):
        model, dataset, cfg = tiny_setup(total_steps=2)
        state = TR.train(model, dataset, cfg)
        ck = tmp_path / "a.ckpt"
        TR.save_checkpoint(ck, model, state)
        header, arrays = C.load(ck)
        name = f"{kind}.pixel_head.w"
        arrays[name] = arrays[name][:-1]
        C.save(ck, header, arrays)
        with pytest.raises(ShapeError, match=rf"'{name}'"):
            TR.restore_state(model, TR.init_state(model, cfg), ck)
        del arrays[name]
        C.save(ck, header, arrays)
        with pytest.raises(ConfigError, match=rf"lacks record '{name}'"):
            TR.restore_state(model, TR.init_state(model, cfg), ck)

    def test_failed_restore_changes_nothing(self, tmp_path):
        model, dataset, cfg = tiny_setup(total_steps=2)
        TR.train(model, dataset, cfg, checkpoint_dir=tmp_path)
        ck = tmp_path / "final.ckpt"
        header, arrays = C.load(ck)
        no_step = {k: v for k, v in header.items() if k != "step"}
        corrupted = [
            # the last record restore_state checks
            (header, {k: a for k, a in arrays.items() if k != "ema.pixel_head.b"},
             "'ema.pixel_head.b'"),
            (no_step, arrays, "'step'"),
            ({**header, "step": "two"}, arrays, "'step'"),
            ({**header, "rng_state": {"bit_generator": "PCG64"}}, arrays, "'rng_state'"),
        ]
        fresh, _, _ = tiny_setup(total_steps=2, seed=1)
        state = TR.init_state(fresh, cfg)
        before = {key: a.copy() for key, a in state.records().items()}
        rng_state = state.rng.bit_generator.state
        for bad_header, bad_arrays, field in corrupted:
            C.save(ck, bad_header, bad_arrays)
            with pytest.raises(ConfigError, match=field):
                TR.restore_state(fresh, state, ck)
            assert_unchanged(state, before)
            assert (state.step, state.skipped_steps, state.consecutive_bad) == (0, 0, 0)
            assert state.rng.bit_generator.state == rng_state

    def test_resume_into_another_config_changes_nothing(self, tmp_path):
        # the flag changes no parameter shape, so only the header tells the models apart
        model, dataset, cfg = tiny_setup(total_steps=2)
        TR.train(model, dataset, cfg, checkpoint_dir=tmp_path)
        other = DualLevelModel(dataclasses.replace(model.config, rope_pixel_pathway=False), seed=1)
        state = TR.init_state(other, cfg)
        before = {key: a.copy() for key, a in state.records().items()}
        with pytest.raises(ConfigError, match="rope_pixel_pathway saved True, model False"):
            TR.restore_state(other, state, tmp_path / "final.ckpt")
        assert_unchanged(state, before)

    @pytest.mark.parametrize("entry", ["load_model", "restore_state"])
    @pytest.mark.parametrize("bad", ["missing", [1], "x", None, "unknown field", "odd patch_dim"])
    def test_a_malformed_model_config_names_it(self, tmp_path, entry, bad):
        model, _, cfg = tiny_setup()
        state = TR.init_state(model, cfg)
        ck = tmp_path / "a.ckpt"
        TR.save_checkpoint(ck, model, state)
        header, arrays = C.load(ck)
        config = header.pop("model_config")
        if bad == "unknown field":
            header["model_config"] = {**config, "depth": 3}
        elif bad == "odd patch_dim":
            header["model_config"] = {**config, "patch_dim": 15}
        elif bad != "missing":
            header["model_config"] = bad
        C.save(ck, header, arrays)
        before = {key: a.copy() for key, a in state.records().items()}
        with pytest.raises(ConfigError, match="header field 'model_config'"):
            if entry == "load_model":
                TR.load_model(ck)
            else:
                TR.restore_state(model, state, ck)
        assert_unchanged(state, before)

    def test_a_non_numeric_step_in_the_metrics_csv_names_the_line(self, tmp_path):
        model, dataset, cfg = tiny_setup(total_steps=2)
        path = tmp_path / "metrics.csv"
        TR.train(model, dataset, cfg, metrics_path=path, checkpoint_dir=tmp_path)
        with open(path, "a") as f:
            f.write("garbage,1,2\n")
        logged = path.read_bytes()
        state = TR.restore_state(model, TR.init_state(model, cfg), tmp_path / "final.ckpt")
        cfg.total_steps = 3
        with pytest.raises(ParseError, match=r"metrics\.csv line 4: step 'garbage'"):
            TR.train(model, dataset, cfg, state=state, metrics_path=path)
        assert state.step == 2 and path.read_bytes() == logged

    def test_load_model_checks_the_records_it_reads(self, tmp_path):
        model, dataset, cfg = tiny_setup(total_steps=1)
        state = TR.train(model, dataset, cfg)
        ck = tmp_path / "m.ckpt"
        TR.save_checkpoint(ck, model, state)
        header, arrays = C.load(ck)
        del arrays["ema.pixel_head.b"]
        C.save(ck, header, arrays)
        with pytest.raises(ConfigError, match="'ema.pixel_head.b'"):
            TR.load_model(ck)
        TR.load_model(ck, use_ema=False)  # the raw parameters are all there

    def test_load_model_copies_the_records_and_draws_nothing(self, tmp_path, monkeypatch):
        model, dataset, cfg = tiny_setup(total_steps=2)
        state = TR.train(model, dataset, cfg)
        ck = tmp_path / "m.ckpt"
        TR.save_checkpoint(ck, model, state)

        def no_draw(*args, **kwargs):
            raise AssertionError("load_model drew an initialisation")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        loaded = TR.load_model(ck)
        # the records are views of the file's bytes; the parameters are copies
        assert all(t.data.flags.writeable for t in loaded.params.values())
        assert loaded.arena is None  # loading builds no shared buffers
        assert SH.share(loaded, {}).flat.tobytes() == state.arena.ema.tobytes()

    def test_load_model_uses_ema(self, tmp_path):
        model, dataset, cfg = tiny_setup(total_steps=5)
        state = TR.train(model, dataset, cfg)
        ck = tmp_path / "m.ckpt"
        TR.save_checkpoint(ck, model, state)
        ema_model = TR.load_model(ck, use_ema=True)
        np.testing.assert_allclose(
            ema_model.params["pixel_head.w"].data,
            state.records()["ema.pixel_head.w"], rtol=1e-6)
        raw_model = TR.load_model(ck, use_ema=False)
        np.testing.assert_array_equal(
            raw_model.params["pixel_head.w"].data, model.params["pixel_head.w"].data)

    def test_metrics_csv_header(self, tmp_path):
        model, dataset, cfg = tiny_setup(total_steps=2)
        path = tmp_path / "metrics.csv"
        TR.train(model, dataset, cfg, metrics_path=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,loss,loss_diff,loss_repa,grad_norm,lr"
        assert len(lines) == 3


class TestCheckpointFormat:
    """A malformed checkpoint raises ParseError with the byte offset, nothing else."""

    def saved(self, tmp_path):
        path = tmp_path / "c.ckpt"
        C.save(path, {"kind": "test"}, {"rec_a": np.zeros(2, np.float32),
                                        "rec_b": np.zeros(2, np.float32)})
        return path, path.read_bytes()

    def test_round_trip(self, tmp_path):
        path, _ = self.saved(tmp_path)
        header, arrays = C.load(path)
        assert header["kind"] == "test" and sorted(arrays) == ["rec_a", "rec_b"]

    def test_failed_save_keeps_the_earlier_file(self, tmp_path):
        # the second record cannot be read, so the writer raises after the first
        path, blob = self.saved(tmp_path)

        class Unreadable:
            dtype = np.dtype(np.float32)

            def __array__(self, dtype=None, copy=None):
                raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            C.save(path, {"kind": "new"}, {"rec_a": np.ones(3, np.float32), "rec_b": Unreadable()})
        assert path.read_bytes() == blob
        assert [p.name for p in tmp_path.iterdir()] == ["c.ckpt"]  # no .tmp left

    def test_non_float32_record_is_refused_before_writing(self, tmp_path):
        path, blob = self.saved(tmp_path)
        model = DualLevelModel(toy_config(), dtype=np.float64)
        with pytest.raises(ConfigError, match=r"'adam_m\.class_embed' is float64"):
            TR.save_checkpoint(path, model, TR.init_state(model, TR.TrainConfig()))
        assert path.read_bytes() == blob
        assert [p.name for p in tmp_path.iterdir()] == ["c.ckpt"]

    def test_record_name_not_utf8(self, tmp_path):
        path, blob = self.saved(tmp_path)
        at = blob.index(b"rec_b")
        path.write_bytes(blob[:at] + b"\xff\xfe\xfd\xfc\xfb" + blob[at + 5:])
        with pytest.raises(ParseError, match="not UTF-8") as exc:
            C.load(path)
        assert exc.value.offset == at

    def test_header_not_an_object(self, tmp_path):
        path = tmp_path / "c.ckpt"
        hdr = b"[1]"
        path.write_bytes(C.MAGIC + struct.pack("<II", C.FORMAT_VERSION, len(hdr)) + hdr
                         + struct.pack("<I", 0))
        with pytest.raises(ParseError, match="not an object") as exc:
            C.load(path)
        assert exc.value.offset == 16

    def test_dims_whose_product_wraps_in_int64(self, tmp_path):
        # (65536,)*4 elements multiply to 0 in int64
        path = tmp_path / "c.ckpt"
        hdr = b"{}"
        blob = (C.MAGIC + struct.pack("<II", C.FORMAT_VERSION, len(hdr)) + hdr
                + struct.pack("<IH", 1, 1) + b"a" + struct.pack("<B4I", 4, *(65536,) * 4))
        path.write_bytes(blob)
        with pytest.raises(ParseError, match="truncated while reading data of a") as exc:
            C.load(path)
        assert exc.value.offset == len(blob)

    def test_a_zero_dim_beside_dims_too_large_for_any_array(self, tmp_path):
        # no data to read, but numpy refuses the shape
        path = tmp_path / "c.ckpt"
        hdr = b"{}"
        blob = (C.MAGIC + struct.pack("<II", C.FORMAT_VERSION, len(hdr)) + hdr
                + struct.pack("<IH", 1, 1) + b"a" + struct.pack("<B4I", 4, 0, *(2**32 - 1,) * 3))
        path.write_bytes(blob)
        with pytest.raises(ParseError, match="too large for any array") as exc:
            C.load(path)
        assert exc.value.offset == len(blob) - 16

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)), max_size=4),
           cut=st.one_of(st.none(), st.integers(0, 10**6)))
    def test_corrupt_or_truncated_file_loads_or_raises_parse_error(self, tmp_path, flips, cut):
        path = tmp_path / "c.ckpt"
        C.save(path, {"kind": "test", "step": 3}, {
            "rec_a": np.arange(6, dtype=np.float32).reshape(2, 3),
            "rec_b": np.zeros(2, np.float32), "scalar": np.array(1.5, np.float32)})
        blob = bytearray(path.read_bytes())
        for at, mask in flips:
            blob[at % len(blob)] ^= mask
        if cut is not None:
            blob = blob[:cut % len(blob)]
        path.write_bytes(bytes(blob))
        try:
            C.load(path)
        except ParseError as exc:
            assert exc.offset is not None and 0 <= exc.offset <= len(blob)

    def test_duplicate_record_name(self, tmp_path):
        path, blob = self.saved(tmp_path)
        at = blob.index(b"rec_b")
        path.write_bytes(blob[:at] + b"rec_a" + blob[at + 5:])
        with pytest.raises(ParseError, match="'rec_a' appears twice") as exc:
            C.load(path)
        assert exc.value.offset == at

    def test_every_truncation_names_the_field_at_its_start(self):
        # built by hand, since save stores a 0-d array as shape (1,): the scalar "s" has no dims
        hdr = b'{"step":3}'
        blob = C.MAGIC + struct.pack("<II", C.FORMAT_VERSION, len(hdr)) + hdr + struct.pack("<I", 3)
        for name, arr in (("a", np.arange(6, dtype="<f4").reshape(2, 3)),
                          ("b", np.zeros(2, "<f4")), ("s", np.array(1.5, "<f4"))):
            blob += struct.pack(f"<H1sB{arr.ndim}I", 1, name.encode(), arr.ndim, *arr.shape)
            blob += arr.tobytes()
        fields = [("magic", 0), ("version/header length", 8), ("header", 16), ("record count", 26),
                  ("name length", 30), ("name", 32), ("ndim", 33), ("dims", 34), ("data of a", 42),
                  ("name length", 66), ("name", 68), ("ndim", 69), ("dims", 70), ("data of b", 74),
                  ("name length", 82), ("name", 84), ("ndim", 85), ("data of s", 86)]
        ends = [at for _, at in fields[1:]] + [len(blob)]
        for (what, at), end in zip(fields, ends):
            for cut in range(at, end):
                with pytest.raises(ParseError) as exc:
                    C.parse(blob[:cut])
                assert str(exc.value) == f"checkpoint truncated while reading {what} (byte offset {at})"
                assert exc.value.offset == at
        header, arrays = C.parse(blob)
        assert header == {"step": 3} and arrays["s"].shape == () and arrays["s"] == 1.5


def fresh_process(*script: str) -> subprocess.CompletedProcess:
    """The parts of ``script`` run in a fresh Python process that imports this dualdit."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(M.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", "".join(map(textwrap.dedent, script))],
                          capture_output=True, text=True, env=env, timeout=300)


def printed(res: subprocess.CompletedProcess) -> float:
    assert res.returncode == 0, res.stderr
    return float(res.stdout)


DESK_PROCESS = """
    import os, resource
    import numpy as np
    from dualdit import flow as F, model as M, samplers as S, shards as SH, trainer as TR

    def faults():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    model = M.DualLevelModel(M.ModelConfig(patch_depth=4, pixel_depth=2, patch_dim=64,
                                           pixel_dim=8, heads=4, patch_size=4, num_classes=3,
                                           resolution=(16, 16), channels=3), seed=11)
    rng = np.random.default_rng(12)
    y = np.arange(32) % 3
"""  # the start of a fresh process: the desk model (DESK) and a minor-fault count


def deleted_links(pid, path) -> int:
    """How many descriptors of process ``pid`` ("self" for this one) link to the file that
    ``path`` named before it was replaced."""
    fds = f"/proc/{pid}/fd"
    links = 0
    for fd in os.listdir(fds):
        try:
            links += os.readlink(os.path.join(fds, fd)) == f"{os.path.realpath(path)} (deleted)"
        except FileNotFoundError:  # closed meanwhile
            pass
    return links


class TestKeepLatestSave:
    """A save over a checkpoint leaves the freeing of the replaced file to a thread."""

    @pytest.fixture(autouse=True)
    def _no_release_under_way(self):
        C._join_releases()  # the releases of earlier tests' saves

    def test_a_save_over_a_file_returns_before_the_old_file_is_freed(self, tmp_path,
                                                                      monkeypatch):
        path = tmp_path / "c.ckpt"
        C.save(path, {"kind": "old"}, {"rec": np.zeros(1 << 16, np.float32)})
        gate, close = threading.Event(), os.close

        def gated_close(fd):
            if threading.current_thread().name == C._RELEASE:
                gate.wait(30)
            close(fd)

        monkeypatch.setattr(os, "close", gated_close)
        C.save(path, {"kind": "new"}, {"rec": np.ones(1 << 16, np.float32)})
        [release] = [t for t in threading.enumerate() if t.name == C._RELEASE]
        try:
            header, arrays = C.load(path)
            assert header["kind"] == "new" and (arrays["rec"] == 1).all()
            assert os.listdir(tmp_path) == ["c.ckpt"]
            assert release.is_alive() and deleted_links("self", path) == 1
        finally:
            gate.set()
            release.join(30)
        assert not release.is_alive() and deleted_links("self", path) == 0

    @pytest.mark.parametrize("kind", ["missing", "symlink", "fifo", "unreadable"])
    def test_anything_but_a_regular_file_is_replaced_plainly(self, tmp_path, monkeypatch, kind):
        path, target = tmp_path / "c.ckpt", tmp_path / "target"
        target.write_bytes(b"old")
        if kind == "symlink":
            path.symlink_to(target)
        elif kind == "fifo":
            os.mkfifo(path)  # opened without O_NONBLOCK, it would wait for a writer
        elif kind == "unreadable":
            path.write_bytes(b"old")
            path.chmod(0)
            if os.geteuid() == 0:  # root reads it anyway; refuse it as the kernel refuses others
                real_open = os.open

                def refusing_open(name, *args, **kwargs):
                    if os.fspath(name) == str(path):
                        raise PermissionError(errno.EACCES, "Permission denied", str(path))
                    return real_open(name, *args, **kwargs)

                monkeypatch.setattr(os, "open", refusing_open)
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self: started.append(self.name) or start(self))

        def too_long(signum, frame):
            pytest.fail("the save blocked")  # not an OSError, which the save would take as a refusal

        handler = signal.signal(signal.SIGALRM, too_long)
        signal.alarm(10)
        try:
            C.save(path, {"kind": "new"}, {"rec": np.ones(4, np.float32)})
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, handler)
        assert C._RELEASE not in started
        assert stat.S_ISREG(os.lstat(path).st_mode) and C.load(path)[0]["kind"] == "new"
        assert target.read_bytes() == b"old"
        assert sorted(os.listdir(tmp_path)) == ["c.ckpt", "target"]

    def test_a_worker_forked_right_after_a_save_holds_no_link_to_the_replaced_file(
            self, two_cores, tmp_path, monkeypatch):
        model, dataset, cfg = crit9_setup(1)
        path = tmp_path / "c.ckpt"
        state = TR.init_state(model, cfg)
        TR.save_checkpoint(path, model, state)
        close = os.close

        def slow_close(fd):
            if threading.current_thread().name == C._RELEASE:
                time.sleep(0.5)  # so that the fork below comes while the old file is held
            close(fd)

        monkeypatch.setattr(os, "close", slow_close)
        TR.save_checkpoint(path, model, state)
        TR.train(model, dataset, cfg, state=TR.init_state(model, cfg))
        assert two_cores == [4, 4]
        assert [deleted_links(w.pid, path) for w in model.arena.workers] == [0]
        assert deleted_links("self", path) == 0

    def test_a_kill_after_the_replace_leaves_the_new_checkpoint_whole(self, tmp_path):
        # the kill comes where the release thread would start: after the rename and the
        # directory's fsync, before the replaced file is closed
        res = fresh_process(DESK_PROCESS, f"""
            import signal, threading
            root = {str(tmp_path)!r}
            state = TR.init_state(model, TR.TrainConfig(align_weight=0.0))
            os.mkdir(os.path.join(root, "run"))
            path = os.path.join(root, "run", "latest.ckpt")
            TR.save_checkpoint(path, model, state)
            state.arena.flat[...] += 1.0
            state.step = 7
            TR.save_checkpoint(os.path.join(root, "expected.ckpt"), model, state)
            threading.Thread.start = lambda self: os.kill(os.getpid(), signal.SIGKILL)
            TR.save_checkpoint(path, model, state)
        """)
        assert res.returncode == -signal.SIGKILL, res.stderr
        assert os.listdir(tmp_path / "run") == ["latest.ckpt"]
        saved = (tmp_path / "run/latest.ckpt").read_bytes()
        assert saved == (tmp_path / "expected.ckpt").read_bytes()
        assert C.load(tmp_path / "run/latest.ckpt")[0]["step"] == 7


def crit9_setup(total_steps, align_weight=0.0, **train_kw):
    """The criterion-9 tiny recipe (tests/test_acceptance.py)."""
    spec = D.ToyDatasetSpec(kind="solid_color", num_classes=2, resolution=(4, 4),
                            samples_per_class=16, noise_std=0.05, seed=31)
    cfg = TR.TrainConfig(lr=1e-3, batch_size=8, total_steps=total_steps,
                         align_weight=align_weight, seed=31, **train_kw)
    model = DualLevelModel(toy_config(resolution=(4, 4), num_classes=2,
                                      patch_depth=1, pixel_depth=1), seed=31)
    return model, D.make_dataset(spec), cfg


DESK = M.ModelConfig(patch_depth=4, pixel_depth=2, patch_dim=64, pixel_dim=8, heads=4,
                     patch_size=4, num_classes=3, resolution=(16, 16), channels=3)


CLIP = TR.clip_scale


def spy_gradients(monkeypatch) -> dict:
    """A dict that each train step fills with copies of its summed, pre-clip gradients."""
    seen = {}
    monkeypatch.setattr(TR, "clip_scale", lambda arena, sums, norm: seen.update(
        grads_of(arena)) or CLIP(arena, sums, norm))
    return seen


class BlankEncoder(F.ToyAlignmentEncoder):
    """Zero features, so that every alignment pair has zero norm."""

    def evaluate(self, images):
        return np.zeros_like(super().evaluate(images))


def write_a_parameter(model, write: bool):
    """A shard that writes a parameter when ``write`` is set."""
    if write:
        model.params["pixel_head.b"].data[...] = 1.0
    return write


def write_a_moment(model, write: bool):
    """A shard that writes AdamW's first moment when ``write`` is set."""
    if write:
        model.arena.m[:4] = 1.0
    return write


def fail_once(monkeypatch, module, name: str, marker, in_worker: bool, call: int):
    """Make the ``call``-th call of tail span ``name`` of ``module`` in a worker (or in this
    process) fail, once in the test: a worker exits, as a killed one would; this process raises."""
    caller, real, calls = os.getpid(), getattr(module, name), []

    @functools.wraps(real)  # reaches the worker by the real one's name
    def span(model, *args):
        calls.append(args)
        if (os.getpid() != caller) == in_worker and len(calls) == call and not marker.exists():
            marker.touch()
            if in_worker:
                os._exit(1)
            raise RuntimeError("tail span failed")
        return real(model, *args)

    monkeypatch.setattr(module, name, span)


def desk_step_grads(monkeypatch):
    """The pre-clip gradients of one criterion-8 train step from a fixed start."""
    spec = D.ToyDatasetSpec(kind="solid_color", num_classes=3, resolution=(16, 16),
                            samples_per_class=64, noise_std=0.1, seed=11)
    cfg = TR.TrainConfig(lr=1e-3, batch_size=64, total_steps=1, align_weight=0.0, seed=11)
    model = DualLevelModel(DESK, seed=11)
    rng = np.random.default_rng(12)
    # zero-initialized gates and heads would leave most gradients at zero
    for t in model.params.values():
        t.data += rng.normal(scale=0.02, size=t.shape).astype(np.float32)
    seen = spy_gradients(monkeypatch)
    TR.train(model, D.make_dataset(spec), cfg)
    return seen


@pytest.fixture
def two_cores(shard_sizes, monkeypatch):
    """Two usable cores and no floor on the shard size, so the tiny recipe shards, and tail
    blocks small enough that every process of a step steps a span of its arena."""
    monkeypatch.setattr(SH, "_MIN_SHARD_PIXELS", 1)
    monkeypatch.setattr(SH, "_TAIL_BLOCK", 256)
    return shard_sizes


class TestHeapPolicy:
    """Every process that runs a shard keeps its heap; each check starts a fresh process,
    since the policy, once set, holds for the rest of the process."""

    @pytest.fixture(autouse=True)
    def _mallopt(self):
        # left to glibc's adaptive thresholds, each call faults thousands of pages in again
        if getattr(ctypes.CDLL(None), "mallopt", None) is None:
            pytest.skip("libc has no mallopt")

    def test_a_train_shard_keeps_its_heap_between_calls(self):
        faults = printed(fresh_process(DESK_PROCESS, """
            batch = F.make_flow_batch(rng.uniform(-1, 1, (32, 3, 16, 16)).astype(np.float32), rng)
            parts = [(batch, y, 1.0, 0)]
            SH.share(model, {})  # the arena the shard's backward writes
            for _ in range(3):
                SH.run(model, TR._loss_shard, parts)
            before = faults()
            for _ in range(10):
                SH.run(model, TR._loss_shard, parts)
            print((faults() - before) / 10)
        """))
        assert faults < 100

    def test_a_sampling_shard_keeps_its_heap_between_forwards(self):
        # one usable core, so that the B=32 batch runs as one shard in this process
        faults = printed(fresh_process(DESK_PROCESS, """
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            cfg = S.SamplerConfig(solver="euler", steps=10)
            forward, calls = model.forward, []
            model.forward = lambda *args, **kwargs: calls.append(1) or forward(*args, **kwargs)
            S.sample(model, S.SamplerConfig(solver="euler", steps=3), y)
            calls.clear()
            before = faults()
            S.sample(model, cfg, y)
            print((faults() - before) / len(calls))
        """))
        assert faults < 100


class TestShardedTraining:
    def test_sharded_runs_are_bitwise_reproducible(self, two_cores):
        runs = []
        for _ in range(2):
            model, dataset, cfg = crit9_setup(8)
            state = TR.train(model, dataset, cfg)
            runs.append((TR.metrics_to_csv(state.metrics),
                         {k: t.data.tobytes() for k, t in model.params.items()}))
        assert two_cores == [4, 4] * 16
        assert runs[0] == runs[1]

    def test_sharded_resume_matches_the_uninterrupted_run(self, two_cores, tmp_path):
        model_full, dataset, cfg = crit9_setup(10)
        full = TR.train(model_full, dataset, cfg)
        model_half, _, cfg_half = crit9_setup(5)
        TR.save_checkpoint(tmp_path / "mid.ckpt", model_half, TR.train(model_half, dataset, cfg_half))
        model_res, _, cfg_res = crit9_setup(10)
        resumed = TR.train(model_res, dataset, cfg_res, state=TR.restore_state(
            model_res, TR.init_state(model_res, cfg_res), tmp_path / "mid.ckpt"))
        assert TR.metrics_to_csv(full.metrics[5:]) == TR.metrics_to_csv(resumed.metrics)
        for k, t in model_full.params.items():
            assert t.data.tobytes() == model_res.params[k].data.tobytes(), k
        # the restore wrote into the flat buffers the optimizer steps
        arena, records = resumed.arena, resumed.records()
        for k, t in model_res.params.items():
            assert np.shares_memory(t.data, model_res.arena.flat), k
            for kind, buf in (("adam_m", arena.m), ("adam_v", arena.v), ("ema", arena.ema)):
                assert np.shares_memory(records[f"{kind}.{k}"], buf), k

    def test_one_call_per_step_forks_once_and_maps_nothing_after_the_first(self, two_cores,
                                                                          monkeypatch):
        # as perfbench's train_desk calls train: every buffer is mapped before the fork
        model, dataset, cfg = crit9_setup(0)
        state = TR.init_state(model, cfg)
        forks, maps = [], []
        fork, mapping = SH._ShardWorker.__init__, mmap.mmap
        monkeypatch.setattr(SH._ShardWorker, "__init__",
                            lambda self, model: forks.append(state.step) or fork(self, model))
        monkeypatch.setattr(mmap, "mmap",
                            lambda *a, **kw: maps.append(state.step) or mapping(*a, **kw))
        for step in range(12):
            cfg.total_steps = step + 1
            TR.train(model, dataset, cfg, state=state)
        assert forks == [0] and set(maps) <= {0}
        assert two_cores == [4, 4] * 12
        model_one, _, cfg_one = crit9_setup(12)
        one = TR.train(model_one, dataset, cfg_one)
        assert TR.metrics_to_csv(state.metrics) == TR.metrics_to_csv(one.metrics)
        for key, a in one.records().items():
            assert a.tobytes() == state.records()[key].tobytes(), key

    def test_usable_cores_that_grow_mid_run_fork_fresh_workers(self, two_cores, usable_cores,
                                                              tmp_path):
        # a worker sees only the mappings made before its fork, and phase A of a step at
        # three cores reads three gradient buffers
        model, dataset, cfg = crit9_setup(1, checkpoint_every=1)
        state = TR.train(model, dataset, cfg, checkpoint_dir=tmp_path)
        old = [worker.pid for worker in model.arena.workers]
        usable_cores(3)
        cfg.total_steps = 2
        TR.train(model, dataset, cfg, state=state)
        assert len(model.arena.grads) == 3 and len(model.arena.workers) == 2
        assert not set(old) & {worker.pid for worker in model.arena.workers}
        for pid in old:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)  # stopped and reaped
        fresh, _, cfg_fresh = crit9_setup(2)
        resumed = TR.train(fresh, dataset, cfg_fresh, state=TR.restore_state(
            fresh, TR.init_state(fresh, cfg_fresh), tmp_path / "step00000001.ckpt"))
        assert two_cores == [4, 4] + [3, 3, 2] * 2
        assert TR.metrics_to_csv(state.metrics[1:]) == TR.metrics_to_csv(resumed.metrics)
        for key, a in resumed.records().items():
            assert a.tobytes() == state.records()[key].tobytes(), key

    def test_one_shard_is_the_serial_step(self, shard_sizes, monkeypatch):
        # a batch whose shards would keep too few pixel tokens runs in one, with weight 1
        monkeypatch.setattr(SH, "_MIN_SHARD_PIXELS", 10**9)
        model, dataset, cfg = crit9_setup(3)
        state = TR.train(model, dataset, cfg)
        assert shard_sizes == [8] * 3 and state.skipped_steps == 0

    def test_desk_step_gradient_matches_the_serial_step(self, shard_sizes, monkeypatch,
                                                        usable_cores):
        sharded = desk_step_grads(monkeypatch)
        assert shard_sizes == [32, 32]
        usable_cores(1)
        serial = desk_step_grads(monkeypatch)
        assert shard_sizes == [32, 32, 64] and sharded.keys() == serial.keys()
        worst = max(np.abs(sharded[k] - g).max() / np.abs(g).max() for k, g in serial.items())
        assert worst <= 1e-4

    def test_gradients_sum_in_shard_order(self, two_cores, monkeypatch, usable_cores):
        # three shards, since a sum of two rounds the same either way round
        usable_cores(3)
        seen = spy_gradients(monkeypatch)

        def setup():
            model, dataset, cfg = crit9_setup(1, class_drop_prob=0.0)
            rng = np.random.default_rng(5)
            # zero-initialized gates and heads would leave many gradients at zero
            for t in model.params.values():
                t.data += rng.normal(scale=0.02, size=t.shape).astype(np.float32)
            return model, dataset, cfg

        model, dataset, cfg = setup()
        TR.train(model, dataset, cfg)
        assert two_cores == [3, 3, 2] and seen.keys() == model.arena.params.keys()
        assert all(g.any() for g in seen.values())
        # the same step by hand, from the same start and the same draws
        model, dataset, cfg = setup()
        SH.share(model, {})  # the arena each shard's backward writes
        idx = TR._epoch_permutation(cfg.seed, 0, len(dataset.labels))[:cfg.batch_size]
        rng = np.random.default_rng(np.random.PCG64(cfg.seed))
        batch = F.make_flow_batch(dataset.images[idx], rng, F.logit_normal_sampler())
        shards = []
        for a, b in ((0, 2), (2, 5), (5, 8)):
            TR._loss_shard(model, batch.rows(a, b), dataset.labels[idx][a:b], (b - a) / 8, 0)
            shards.append({k: g.copy() for k, g in model.arena.views(model.arena.grads[0]).items()})
        for name, g in seen.items():
            want = (shards[0][name] + shards[1][name]) + shards[2][name]
            assert g.tobytes() == want.tobytes(), name

    def test_a_step_waits_for_another_threads_shards(self, two_cores):
        # running serially instead would give the step other bits
        model, dataset, cfg = crit9_setup(1)
        SH._SHARD_LOCK.acquire()
        release = threading.Timer(0.2, SH._SHARD_LOCK.release)
        release.start()
        try:
            state = TR.train(model, dataset, cfg)
        finally:
            release.join(timeout=10)
        assert two_cores == [4, 4] and state.skipped_steps == 0 and not release.is_alive()

    def test_non_finite_loss_in_a_worker_skips_the_step(self, two_cores, monkeypatch):
        caller = os.getpid()
        real = F.loss_diffusion

        def loss(model, batch, y, **kw):
            if os.getpid() != caller:
                raise NumericError("diffusion loss is non-finite")
            return real(model, batch, y, **kw)

        monkeypatch.setattr(F, "loss_diffusion", loss)
        model, dataset, cfg = crit9_setup(2)
        before = {k: t.data.copy() for k, t in model.params.items()}
        state = TR.train(model, dataset, cfg)
        assert two_cores == [4, 4] * 2 and state.skipped_steps == 2
        for m in state.metrics:
            assert np.isnan(m["loss"]) and m["grad_norm"] == 0.0
        for k, t in model.params.items():
            assert t.data.tobytes() == before[k].tobytes(), k

    def test_non_finite_gradient_in_a_worker_skips_the_step(self, two_cores, monkeypatch):
        caller = os.getpid()
        real = TR._loss_shard

        @functools.wraps(real)  # reaches the worker by the real one's name
        def shard(model, batch, y, weight, shard, align=None):
            losses = real(model, batch, y, weight, shard, align)
            if os.getpid() != caller:
                grads = model.arena.views(model.arena.grads[shard])
                grads["pixel_head.b"][0] = np.nan
                grads["t_embed.fc2.b"][1] = np.inf
            return losses

        monkeypatch.setattr(TR, "_loss_shard", shard)
        model, dataset, cfg = crit9_setup(30)
        before = SH.share(model, {}).flat.copy()
        with pytest.raises(NumericError, match="10 consecutive") as exc:
            TR.train(model, dataset, cfg)
        assert str(exc.value.__cause__) == "gradient of t_embed.fc2.b non-finite"
        assert two_cores == [4, 4] * 10
        assert model.arena.flat.tobytes() == before.tobytes()

    def test_non_finite_gradient_in_the_caller_skips_the_step(self, two_cores, monkeypatch):
        caller = os.getpid()
        real = TR._loss_shard

        @functools.wraps(real)
        def shard(model, batch, y, weight, shard, align=None):
            losses = real(model, batch, y, weight, shard, align)
            if os.getpid() == caller:
                grads = model.arena.views(model.arena.grads[shard])
                grads["pixel_head.b"][0] = np.nan
                grads["cond_bias"][3] = -np.inf
            return losses

        monkeypatch.setattr(TR, "_loss_shard", shard)
        model, dataset, cfg = crit9_setup(30)
        state = TR.init_state(model, cfg)
        before = {key: a.copy() for key, a in state.records().items()}
        with pytest.raises(NumericError, match="10 consecutive") as exc:
            TR.train(model, dataset, cfg, state=state)
        assert str(exc.value.__cause__) == "gradient of cond_bias non-finite"
        assert two_cores == [4, 4] * 10
        assert [m["grad_norm"] for m in state.metrics] == [0.0] * 9
        assert all(np.isfinite(m["loss"]) for m in state.metrics)
        assert_unchanged(state, before)

    def test_an_alignment_request_carries_only_arrays_and_numbers(self, two_cores, monkeypatch):
        # the projector is the arena's, and the encoder is built where the shard runs
        parts = []
        run = SH.run
        monkeypatch.setattr(SH, "run", lambda model, fn, ps: (
            fn is TR._loss_shard and parts.extend(ps)) or run(model, fn, ps))
        model, dataset, cfg = crit9_setup(1, align_weight=0.5)
        state = TR.train(model, dataset, cfg)
        assert two_cores == [4, 4] and state.metrics[0]["loss_repa"] > 0.0
        for i, (batch, y, weight, shard, align) in enumerate(parts):
            assert all(type(a) is np.ndarray for a in (batch.x0, batch.t, batch.x_t, batch.v_t, y))
            assert batch.eps is None and (type(weight), shard) == (float, i)
            assert align == (1, 0.5) and [type(v) for v in align] == [int, float]

    def test_sharded_run_matches_the_shards_run_here(self, two_cores, monkeypatch):
        # clipping and weight decay active, so every optimizer buffer takes part;
        # with the alignment term, every shard computes with the arena's projector
        def run(align_weight):
            model, dataset, cfg = crit9_setup(4, align_weight, clip_norm=0.01, weight_decay=0.1)
            state = TR.train(model, dataset, cfg)
            assert all(m["grad_norm"] > cfg.clip_norm for m in state.metrics)
            return (TR.metrics_to_csv(state.metrics),
                    {key: a.tobytes() for key, a in state.records().items()})

        sharded = [run(0.0), run(0.5)]
        assert two_cores == [4, 4] * 8
        assert any(key.startswith("param.repa.") for key in sharded[1][1])
        monkeypatch.setattr(SH, "run", lambda model, fn, ps: model.arena.grow(len(ps)) or [
            fn(model, *part) for part in ps])
        assert [run(0.0), run(0.5)] == sharded

    def test_alignment_runs_shard_and_are_bitwise_reproducible(self, two_cores):
        runs = []
        for _ in range(2):
            model, dataset, cfg = crit9_setup(4, align_weight=0.5)
            state = TR.train(model, dataset, cfg)
            runs.append((TR.metrics_to_csv(state.metrics),
                         {key: a.tobytes() for key, a in state.records().items()}))
        assert two_cores == [4, 4] * 8  # the worker's rows, then this process's
        assert all(m["loss_repa"] > 0.0 for m in state.metrics)
        assert runs[0] == runs[1]

    def test_every_shards_zero_norm_pairs_reach_the_row(self, two_cores, tmp_path, monkeypatch):
        monkeypatch.setattr(F, "ToyAlignmentEncoder", BlankEncoder)
        model, dataset, cfg = crit9_setup(2, align_weight=0.5)
        state = TR.train(model, dataset, cfg, metrics_path=tmp_path / "m.csv")
        assert two_cores == [4, 4] * 2
        pairs = cfg.batch_size * model.config.num_patches
        assert [m["zero_norm_pairs"] for m in state.metrics] == [pairs] * 2
        assert (tmp_path / "m.csv").read_text() == TR.metrics_to_csv(state.metrics)

    def test_a_model_that_sampled_first_trains_like_a_fresh_one(self, two_cores, tmp_path):
        # the projector joins the arena the sampling worker was forked over
        model, dataset, cfg = crit9_setup(3, align_weight=0.5)
        S.sample(model, S.SamplerConfig(steps=2, seed=5), np.array([0, 1, 0, 1]))
        [sampler] = model.arena.workers
        TR.train(model, dataset, cfg, metrics_path=tmp_path / "a.csv")
        [worker] = model.arena.workers
        assert worker.pid != sampler.pid
        with pytest.raises(ChildProcessError):
            os.waitpid(sampler.pid, os.WNOHANG)  # stopped and reaped
        fresh, _, _ = crit9_setup(3, align_weight=0.5)
        TR.train(fresh, dataset, cfg, metrics_path=tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_a_worker_cannot_write_the_arena(self):
        if SH._openblas_threads() is None:
            pytest.skip("sharding needs OpenBLAS's thread-count setter")
        model, _, _ = crit9_setup(1)
        before = SH.share(model, {}).flat.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            SH.run(model, write_a_parameter, [(False,), (True,)])
        assert model.arena.flat.tobytes() == before
        assert SH.run(model, write_a_parameter, [(False,), (False,)]) == [False] * 2

    def test_a_worker_cannot_write_the_optimizer_buffers(self):
        if SH._openblas_threads() is None:
            pytest.skip("sharding needs OpenBLAS's thread-count setter")
        model, dataset, cfg = crit9_setup(1)
        state = TR.train(model, dataset, cfg)
        before = {key: a.copy() for key, a in state.records().items()}
        with pytest.raises(ValueError, match="read-only"):
            SH.run(model, write_a_moment, [(False,), (True,)])
        assert_unchanged(state, before)

    @pytest.mark.parametrize("in_worker", [True, False])
    def test_a_step_that_fails_in_phase_b_is_refused_until_restored(self, two_cores, tmp_path,
                                                                    monkeypatch, in_worker):
        # the other processes step their spans, so the state is half-updated
        def run(model, dataset, cfg, state, name):
            (tmp_path / name).mkdir(exist_ok=True)
            TR.train(model, dataset, cfg, state=state, checkpoint_dir=tmp_path / name,
                     metrics_path=tmp_path / f"{name}.csv")

        model, dataset, cfg = crit9_setup(6, checkpoint_every=2)
        run(model, dataset, cfg, TR.init_state(model, cfg), "full")
        model, dataset, cfg = crit9_setup(6, checkpoint_every=2)
        state = TR.init_state(model, cfg)
        fail_once(monkeypatch, TR, "_step_span", tmp_path / "failed", in_worker, call=5)
        with pytest.raises(RuntimeError, match="exited" if in_worker else "tail span failed"):
            run(model, dataset, cfg, state, "cut")
        assert state.torn and state.step == 4 and two_cores == [4, 4] * 11
        last = tmp_path / "cut" / "step00000004.ckpt"
        loaded = TR.load_model(last, use_ema=False)
        assert model.arena.flat.tobytes() != SH.share(loaded, {}).flat.tobytes()
        for refused in (lambda: TR.train(model, dataset, cfg, state=state),
                        lambda: TR.save_checkpoint(tmp_path / "torn.ckpt", model, state)):
            with pytest.raises(ConfigError, match="restore_state"):
                refused()
        assert not (tmp_path / "torn.ckpt").exists()
        TR.restore_state(model, state, last)
        run(model, dataset, cfg, state, "cut")
        assert (tmp_path / "cut.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()
        cut, full = (tmp_path / name / "final.ckpt" for name in ("cut", "full"))
        assert cut.read_bytes() == full.read_bytes()

    def test_a_step_that_fails_in_phase_a_is_redone_with_the_same_draws(self, two_cores, tmp_path,
                                                                        monkeypatch):
        model_full, dataset, cfg = crit9_setup(4)
        full = TR.train(model_full, dataset, cfg)
        model, _, cfg = crit9_setup(4)
        state = TR.init_state(model, cfg)
        fail_once(monkeypatch, SH, "_sum_span", tmp_path / "failed", in_worker=True, call=3)
        with pytest.raises(RuntimeError, match="exited"):
            TR.train(model, dataset, cfg, state=state)
        assert state.step == 2 and not state.torn
        TR.train(model, dataset, cfg, state=state)
        assert TR.metrics_to_csv(state.metrics) == TR.metrics_to_csv(full.metrics)
        for key, a in full.records().items():
            assert a.tobytes() == state.records()[key].tobytes(), key

    def test_a_second_init_state_trains_like_a_fresh_model(self, two_cores):
        # the worker forked over the first state's buffers must not step the second's
        model, dataset, cfg = crit9_setup(3)
        TR.train(model, dataset, cfg)
        [worker] = model.arena.workers
        start = model.arena.flat.copy()
        state = TR.train(model, dataset, cfg, state=TR.init_state(model, cfg))
        assert model.arena.workers[0].pid != worker.pid
        fresh, _, _ = crit9_setup(3)
        SH.share(fresh, {}).flat[...] = start
        want = TR.train(fresh, dataset, cfg, state=TR.init_state(fresh, cfg))
        assert two_cores == [4, 4] * 9
        assert TR.metrics_to_csv(state.metrics) == TR.metrics_to_csv(want.metrics)
        for key, a in want.records().items():
            assert a.tobytes() == state.records()[key].tobytes(), key

    def test_a_dead_worker_fails_one_step_and_is_replaced(self, two_cores):
        model, dataset, cfg = crit9_setup(1)
        state = TR.train(model, dataset, cfg)
        [worker] = model.arena.workers
        os.kill(worker.pid, signal.SIGKILL)
        cfg.total_steps = 3
        with pytest.raises(RuntimeError, match="exited"):
            TR.train(model, dataset, cfg, state=state)
        assert state.step == 1 and model.arena.workers == []
        with pytest.raises(ChildProcessError):
            os.waitpid(worker.pid, os.WNOHANG)  # reaped
        TR.train(model, dataset, cfg, state=state)
        assert state.step == 3 and state.skipped_steps == 0
        assert model.arena.workers[0].pid != worker.pid

    def test_a_failed_step_is_redone_with_the_same_draws(self, two_cores):
        model_full, dataset, cfg = crit9_setup(3)
        full = TR.train(model_full, dataset, cfg)
        model, _, cfg = crit9_setup(1)
        state = TR.train(model, dataset, cfg)
        os.kill(model.arena.workers[0].pid, signal.SIGKILL)
        cfg.total_steps = 3
        with pytest.raises(RuntimeError, match="exited"):
            TR.train(model, dataset, cfg, state=state)
        TR.train(model, dataset, cfg, state=state)
        assert TR.metrics_to_csv(state.metrics) == TR.metrics_to_csv(full.metrics)
        for k, t in model_full.params.items():
            assert t.data.tobytes() == model.params[k].data.tobytes(), k

    def test_taped_caller_forks_no_worker(self, two_cores, monkeypatch):
        def no_workers(*args):
            raise AssertionError("forked a worker")

        monkeypatch.setattr(SH, "_ShardWorker", no_workers)
        model, dataset, cfg = crit9_setup(2)
        with Tape():
            state = TR.train(model, dataset, cfg)
        assert two_cores == [8] * 2 and state.skipped_steps == 0

    def test_blas_threads_pinned_then_restored(self, two_cores, monkeypatch):
        get_threads, set_threads = SH._openblas_threads()
        seen = []
        counted = M.DualLevelModel.forward

        def spy(self, *args, **kwargs):
            seen.append(get_threads())
            return counted(self, *args, **kwargs)

        monkeypatch.setattr(M.DualLevelModel, "forward", spy)
        model, dataset, cfg = crit9_setup(1)
        threads = get_threads()
        try:
            set_threads(2)
            want = get_threads()
            state = TR.train(model, dataset, cfg)
            assert seen == [1] and get_threads() == want
            os.kill(model.arena.workers[0].pid, signal.SIGKILL)
            cfg.total_steps = 2
            with pytest.raises(RuntimeError, match="exited"):
                TR.train(model, dataset, cfg, state=state)
            assert get_threads() == want
        finally:
            set_threads(threads)
