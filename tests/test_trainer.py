"""Optimizer oracles, EMA, clipping, loop determinism, checkpoint resume."""

import dataclasses
import struct

import numpy as np
import pytest

from dualdit import checkpoint as C
from dualdit import data as D
from dualdit import trainer as TR
from dualdit.errors import ConfigError, NumericError, ParseError, ShapeError
from dualdit.model import DualLevelModel, toy_config
from dualdit.tensor import Tensor


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


def state_arrays(state) -> dict:
    """Every param, Adam moment and EMA array of a train state, by (kind, name)."""
    out = {("param", name): t.data for name, t in state.params.items()}
    for kind, records in (("m", state.m), ("v", state.v), ("ema", state.ema)):
        out.update({(kind, name): a for name, a in records.items()})
    return out


def assert_unchanged(state, before: dict):
    after = state_arrays(state)
    assert after.keys() == before.keys()
    for key, a in before.items():
        assert after[key].tobytes() == a.tobytes(), key


class TestAdamW:
    def params_of(self, value):
        return {"p": Tensor(np.array([value], dtype=np.float64), requires_grad=True)}

    def test_zero_grads_zero_decay_params_unchanged(self):
        params = self.params_of(1.5)
        m = {"p": np.zeros(1)}
        v = {"p": np.zeros(1)}
        TR.adamw_step(params, {"p": np.zeros(1)}, m, v, 1, lr=0.1)
        np.testing.assert_array_equal(params["p"].data, [1.5])

    def test_scalar_first_step_closed_form(self):
        # bias-corrected first step with g=1: update = g / (|g| + eps)
        params = self.params_of(2.0)
        m = {"p": np.zeros(1)}
        v = {"p": np.zeros(1)}
        eps = 1e-8
        TR.adamw_step(params, {"p": np.ones(1)}, m, v, 1, lr=0.1, eps=eps)
        expected = 2.0 - 0.1 * (1.0 / (1.0 + eps))
        np.testing.assert_allclose(params["p"].data, [expected], rtol=1e-12)

    def test_decay_only_multiplicative_shrink(self):
        params = self.params_of(3.0)
        m = {"p": np.zeros(1)}
        v = {"p": np.zeros(1)}
        TR.adamw_step(params, {"p": np.zeros(1)}, m, v, 1, lr=0.1, weight_decay=0.5)
        np.testing.assert_allclose(params["p"].data, [3.0 * (1 - 0.1 * 0.5)], rtol=1e-12)

    def test_moments_decay_with_zero_grads(self):
        params = self.params_of(1.0)
        m = {"p": np.ones(1)}
        v = {"p": np.ones(1)}
        TR.adamw_step(params, {"p": np.zeros(1)}, m, v, 5, lr=0.0)
        np.testing.assert_allclose(m["p"], [0.9])
        np.testing.assert_allclose(v["p"], [0.999])


class TestClipping:
    def test_identity_below_max(self):
        grads = {"a": np.array([0.3, 0.4])}
        norm = TR.clip_gradients(grads, 1.0)
        assert norm == pytest.approx(0.5)
        np.testing.assert_array_equal(grads["a"], [0.3, 0.4])

    def test_scales_to_max_norm(self):
        grads = {"a": np.array([6.0]), "b": np.array([8.0])}
        norm = TR.clip_gradients(grads, 1.0)
        assert norm == pytest.approx(10.0)
        assert TR.global_grad_norm(grads) == pytest.approx(1.0, abs=1e-9)

    def test_equals_flattened_concatenation_oracle(self):
        rng = np.random.default_rng(0)
        grads = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=7)}
        flat = np.concatenate([grads["a"].ravel(), grads["b"].ravel()])
        max_norm = 0.5
        expected = flat * (max_norm / np.linalg.norm(flat))
        TR.clip_gradients(grads, max_norm)
        np.testing.assert_allclose(
            np.concatenate([grads["a"].ravel(), grads["b"].ravel()]), expected, rtol=1e-12)


class TestEma:
    def test_fixed_point(self):
        params = {"p": Tensor(np.array([2.0]))}
        ema = {"p": np.array([2.0])}
        TR.ema_update(ema, params, 0.999)
        np.testing.assert_array_equal(ema["p"], [2.0])

    def test_geometric_convergence(self):
        params = {"p": Tensor(np.array([1.0]))}
        ema = {"p": np.array([0.0])}
        decay = 0.9999
        for _ in range(10):
            TR.ema_update(ema, params, decay)
        np.testing.assert_allclose(1.0 - ema["p"][0], decay**10, rtol=1e-9)

    def test_decay_zero_copies_params(self):
        params = {"p": Tensor(np.array([5.0]))}
        ema = {"p": np.array([0.0])}
        TR.ema_update(ema, params, 0.0)
        np.testing.assert_array_equal(ema["p"], [5.0])


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
        TR.train(model_c, dataset, cfg_c, resume_from=tmp_path / "b/step00000003.ckpt",
                 metrics_path=str(tmp_path / "b.csv"), checkpoint_dir=tmp_path / "b")
        assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()

    def test_resume_with_alignment_projector(self, tmp_path):
        # the projector's parameters are part of the optimizer state and must
        # survive the checkpoint round trip
        model_a, dataset, cfg_a = tiny_setup(total_steps=8, align=0.5)
        full = TR.train(model_a, dataset, cfg_a)
        assert any(k.startswith("repa.") for k in full.params)

        model_b, _, cfg_b = tiny_setup(total_steps=4, align=0.5)
        half = TR.train(model_b, dataset, cfg_b)
        ck = tmp_path / "align.ckpt"
        TR.save_checkpoint(ck, model_b, half)

        model_c, _, cfg_c = tiny_setup(total_steps=8, align=0.5)
        resumed = TR.train(model_c, dataset, cfg_c, resume_from=ck)
        assert TR.metrics_to_csv(full.metrics[4:]) == TR.metrics_to_csv(resumed.metrics)

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
        del arrays["ema.pixel_head.b"]  # the last record restore_state checks
        C.save(ck, header, arrays)
        fresh, _, _ = tiny_setup(total_steps=2, seed=1)
        state = TR.init_state(fresh, cfg)
        before = {key: a.copy() for key, a in state_arrays(state).items()}
        with pytest.raises(ConfigError, match="'ema.pixel_head.b'"):
            TR.restore_state(fresh, state, ck)
        assert_unchanged(state, before)

    def test_resume_into_another_config_changes_nothing(self, tmp_path):
        # the flag changes no parameter shape, so only the header tells the models apart
        model, dataset, cfg = tiny_setup(total_steps=2)
        TR.train(model, dataset, cfg, checkpoint_dir=tmp_path)
        other = DualLevelModel(dataclasses.replace(model.config, rope_pixel_pathway=False), seed=1)
        state = TR.init_state(other, cfg)
        before = {key: a.copy() for key, a in state_arrays(state).items()}
        with pytest.raises(ConfigError, match="rope_pixel_pathway saved True, model False"):
            TR.restore_state(other, state, tmp_path / "final.ckpt")
        assert_unchanged(state, before)

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

    def test_load_model_uses_ema(self, tmp_path):
        model, dataset, cfg = tiny_setup(total_steps=5)
        state = TR.train(model, dataset, cfg)
        ck = tmp_path / "m.ckpt"
        TR.save_checkpoint(ck, model, state)
        ema_model = TR.load_model(ck, use_ema=True)
        np.testing.assert_allclose(
            ema_model.params["pixel_head.w"].data,
            state.ema["pixel_head.w"].astype(np.float32), rtol=1e-6)
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

    def test_duplicate_record_name(self, tmp_path):
        path, blob = self.saved(tmp_path)
        at = blob.index(b"rec_b")
        path.write_bytes(blob[:at] + b"rec_a" + blob[at + 5:])
        with pytest.raises(ParseError, match="'rec_a' appears twice") as exc:
            C.load(path)
        assert exc.value.offset == at
