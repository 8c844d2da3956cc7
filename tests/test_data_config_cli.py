"""Toy datasets, netpbm I/O, config parsing, and the CLI surface."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dualdit import cli
from dualdit import config as C
from dualdit import data as D
from dualdit import shards as SH
from dualdit import trainer as TR
from dualdit.model import DualLevelModel, toy_config
from dualdit.errors import ConfigError, InputError, ParseError


class TestToyData:
    def test_solid_color_no_noise_is_constant(self):
        spec = D.ToyDatasetSpec(kind="solid_color", num_classes=3, resolution=(4, 4),
                                samples_per_class=1, noise_std=0.0, seed=0)
        img = D.generate_toy_batch(spec, [0], np.random.default_rng(0))[0]
        color = D.class_color(0)
        for c in range(3):
            np.testing.assert_allclose(img[c], color[c], atol=1e-7)

    def test_deterministic_per_seed_and_index(self):
        spec = D.ToyDatasetSpec(seed=5, resolution=(8, 8), samples_per_class=4)
        a = D.make_dataset(spec)
        b = D.make_dataset(spec)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_per_class_mean_within_clt_bound(self):
        spec = D.ToyDatasetSpec(kind="solid_color", num_classes=2, resolution=(4, 4),
                                samples_per_class=1000, noise_std=0.1, seed=1)
        ds = D.make_dataset(spec)
        for k in range(2):
            sel = ds.images[ds.labels == k]
            per_channel = sel.mean(axis=(0, 2, 3))
            # each channel mean pools 1000*16 noise draws
            bound = 3 * spec.noise_std / np.sqrt(1000 * 16)
            np.testing.assert_allclose(per_channel, D.class_color(k), atol=bound * 4)

    def test_all_kinds_in_range(self):
        for kind in D.KINDS:
            spec = D.ToyDatasetSpec(kind=kind, num_classes=3, resolution=(8, 8),
                                    samples_per_class=2, noise_std=0.2, seed=2)
            ds = D.make_dataset(spec)
            assert ds.images.min() >= -1.0 and ds.images.max() <= 1.0

    def test_classes_distinguishable(self):
        for kind in D.KINDS:
            spec = D.ToyDatasetSpec(kind=kind, num_classes=3, resolution=(8, 8),
                                    samples_per_class=1, noise_std=0.0, seed=3)
            ds = D.make_dataset(spec)
            assert np.abs(ds.images[0] - ds.images[1]).max() > 0.1, kind

    def test_bad_class_rejected(self):
        spec = D.ToyDatasetSpec(num_classes=2)
        with pytest.raises(InputError):
            D.generate_toy_batch(spec, [2], np.random.default_rng(0))

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError):
            D.ToyDatasetSpec(kind="mandelbrot")

    @pytest.mark.parametrize("field,value", [
        ("noise_std", float("nan")), ("noise_std", -0.1), ("noise_std", float("inf")),
        ("seed", -1), ("seed", 0.5), ("channels", -1), ("channels", 0),
        ("channels", 1.5), ("resolution", (-4, 16)), ("resolution", (0, 16)),
        ("resolution", (16,)), ("resolution", (16, 2.5)), ("num_classes", 0),
        ("samples_per_class", 0), ("samples_per_class", 2.5),
    ])
    def test_spec_it_cannot_build_is_refused(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} "):
            D.ToyDatasetSpec(**{field: value})

    @staticmethod
    def per_sample_reference(spec, class_ids, rng):
        """One clean image and one (C, H, W) noise draw per id, in id order."""
        H, W = spec.resolution
        out = np.empty((len(class_ids), spec.channels, H, W), dtype=np.float32)
        for i, k in enumerate(class_ids):
            img = D._clean_image(spec, int(k))
            if spec.noise_std > 0:
                img = img + rng.normal(scale=spec.noise_std, size=img.shape)
            out[i] = np.clip(img, -1.0, 1.0)
        return out

    @pytest.mark.parametrize("kind", D.KINDS)
    @pytest.mark.parametrize("noise_std", [0.0, 0.4])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("ids", [
        [], [2, 0, 2, 3, 1, 0],
        np.random.default_rng(8).integers(0, 4, size=300),  # not a whole number of chunks
    ], ids=["empty", "short", "long"])
    def test_batch_equals_the_per_sample_loop(self, kind, noise_std, channels, ids):
        # the noise is one stream in row order, so chunking changes no byte
        spec = D.ToyDatasetSpec(kind=kind, num_classes=4, resolution=(6, 5),
                                noise_std=noise_std, channels=channels)
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        got = D.generate_toy_batch(spec, ids, rng)
        want = self.per_sample_reference(spec, ids, ref_rng)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestNetpbm:
    def test_white_pixel_roundtrip(self, tmp_path):
        p = tmp_path / "white.ppm"
        D.write_image(p, np.ones((3, 1, 1)))
        img = D.read_image(p)
        np.testing.assert_array_equal(img, np.ones((3, 1, 1)))

    def test_header_p6_2x2(self, tmp_path):
        p = tmp_path / "tiny.ppm"
        p.write_bytes(b"P6 2 2 255\n" + bytes(range(12)))
        img = D.read_image(p)
        assert img.shape == (3, 2, 2)
        assert img[0, 0, 0] == pytest.approx(0 / 255 * 2 - 1)

    def test_roundtrip_quantization_bound(self, tmp_path):
        spec = D.ToyDatasetSpec(resolution=(8, 8), samples_per_class=1, seed=4)
        img = D.make_dataset(spec).images[0]
        p = tmp_path / "img.ppm"
        D.write_image(p, img)
        back = D.read_image(p)
        assert np.abs(back - img).max() <= 1.0 / 255.0

    def test_write_read_write_identical_bytes(self, tmp_path):
        img = np.random.default_rng(5).uniform(-1, 1, size=(3, 5, 7))
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        D.write_image(p1, img)
        D.write_image(p2, D.read_image(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_grayscale_p5(self, tmp_path):
        p = tmp_path / "g.pgm"
        D.write_image(p, np.zeros((1, 2, 3)))
        assert p.read_bytes().startswith(b"P5")
        assert D.read_image(p).shape == (1, 2, 3)

    def test_truncated_payload_names_offset(self, tmp_path):
        p = tmp_path / "trunc.ppm"
        p.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")
        with pytest.raises(ParseError, match="byte offset") as exc:
            D.read_image(p)
        assert exc.value.offset is not None

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"JUNK")
        with pytest.raises(ParseError):
            D.read_image(p)

    @pytest.mark.parametrize("header,payload", [
        (b"P6\n-2 3\n255\n", 18), (b"P6\n0 3\n255\n", 0), (b"P5\n-1 -4\n255\n", 4),
    ], ids=["negative_width", "zero_width", "both_negative"])
    def test_non_positive_size_rejected(self, tmp_path, header, payload):
        # each payload is as long as width * height * channels asks for
        p = tmp_path / "size.ppm"
        p.write_bytes(header + bytes(payload))
        with pytest.raises(ParseError, match="must be positive") as exc:
            D.read_image(p)
        assert exc.value.offset is not None


CONFIG_TEXT = """
# toy run
model.patch_depth = 2
model.pixel_depth = 1
model.patch_dim = 16
model.pixel_dim = 4
model.heads = 2
model.patch_size = 2
model.num_classes = 2
model.resolution = 8,8

train.lr = 1e-3
train.total_steps = 4
train.batch_size = 4
train.align_weight = 0.0
train.seed = 7

sampler.solver = euler
sampler.steps = 4

dataset.kind = solid_color
dataset.num_classes = 2
dataset.resolution = 8,8
dataset.samples_per_class = 8
dataset.seed = 7

paths.checkpoint_dir = runs/ck
paths.metrics = runs/metrics.csv
"""


class TestConfigParsing:
    def test_parse_roundtrip_values(self):
        cfg = C.parse_config_text(CONFIG_TEXT)
        assert cfg.model.patch_depth == 2
        assert cfg.model.resolution == (8, 8)
        assert cfg.train.lr == pytest.approx(1e-3)
        assert cfg.sampler.solver == "euler"
        assert cfg.dataset.samples_per_class == 8
        assert cfg.paths.metrics == "runs/metrics.csv"

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="train.larning_rate"):
            C.parse_config_text(CONFIG_TEXT + "\ntrain.larning_rate = 1\n")

    def test_unknown_section_named(self):
        with pytest.raises(ConfigError, match="optimzer"):
            C.parse_config_text(CONFIG_TEXT + "\noptimzer.lr = 1\n")

    def test_cross_field_consistency(self):
        bad = CONFIG_TEXT.replace("dataset.resolution = 8,8", "dataset.resolution = 16,16")
        with pytest.raises(ConfigError, match="resolution"):
            C.parse_config_text(bad)

    def test_preset_expansion(self):
        text = "model.preset = XL\ndataset.resolution = 256,256\ndataset.num_classes = 1000\n"
        cfg = C.parse_config_text(text)
        assert cfg.model.patch_dim == 1152 and cfg.model.patch_depth == 26

    def test_overrides_win(self):
        cfg = C.parse_config_text(CONFIG_TEXT)
        cfg2 = C.apply_overrides(cfg, ["train.lr=5e-4", "sampler.steps=9"])
        assert cfg2.train.lr == pytest.approx(5e-4)
        assert cfg2.sampler.steps == 9
        with pytest.raises(ConfigError, match="train.nope"):
            C.apply_overrides(cfg, ["train.nope=1"])

    @pytest.mark.parametrize("override", ["optimzer.lr=1", "lr=1"])
    def test_overrides_check_section(self, override):
        # overrides go through the file parser's key checks: unknown or missing section
        cfg = C.parse_config_text(CONFIG_TEXT)
        key = override.partition("=")[0]
        with pytest.raises(ConfigError, match=f"'{key}'"):
            C.apply_overrides(cfg, [override])


    def test_str_field_keeps_commas(self):
        cfg = C.parse_config_text(CONFIG_TEXT.replace("runs/metrics.csv", "runs/a,b.csv"))
        assert cfg.paths.metrics == "runs/a,b.csv"

    def test_tuple_field_needs_its_arity(self):
        with pytest.raises(ConfigError, match="'train.betas'"):
            C.parse_config_text(CONFIG_TEXT + "\ntrain.betas = 0.9\n")

    def test_int_field_rejects_a_fraction(self):
        with pytest.raises(ConfigError, match="'train.total_steps'"):
            C.parse_config_text(CONFIG_TEXT.replace("train.total_steps = 4", "train.total_steps = 1.5"))


SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(args, cwd):
    # The child runs in `cwd`, where a relative PYTHONPATH (such as the
    # `PYTHONPATH=src` of a checkout run) no longer resolves; put the absolute
    # source directory first and keep whatever the caller had after it.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "dualdit.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


class TestCli:
    def test_params_preset_xl_matches_table(self, tmp_path):
        res = run_cli(["params", "--preset", "XL"], tmp_path)
        assert res.returncode == 0
        total = int([l for l in res.stdout.splitlines() if l.startswith("total,")][0].split(",")[1])
        assert abs(total - 797e6) / 797e6 < 0.10

    def test_flops_preset_xl_near_published(self, tmp_path):
        res = run_cli(["flops", "--preset", "XL"], tmp_path)
        assert res.returncode == 0
        total = int([l for l in res.stdout.splitlines() if l.startswith("total,")][0].split(",")[1])
        assert abs(total - 311e9) / 311e9 < 0.15
        tokens = int([l for l in res.stdout.splitlines()
                      if l.startswith("attention_tokens,")][0].split(",")[1])
        assert tokens == 256

    def test_unknown_flag_exits_2(self, tmp_path):
        res = run_cli(["params", "--nonsense"], tmp_path)
        assert res.returncode == 2

    @pytest.mark.parametrize("command", ["params", "flops"])
    def test_missing_model_source_exits_2(self, tmp_path, command):
        res = run_cli([command], tmp_path)
        assert res.returncode == 2
        assert "usage:" in res.stderr

    @pytest.mark.parametrize("args", [
        ["flops", "--preset", "B", "--resolution", "256"],
        ["flops", "--preset", "B", "--resolution=-256x256"],
        ["flops", "--preset", "B", "--resolution", "0x0"],
        ["sample", "--checkpoint", "missing.ckpt", "--class", "0", "--out", "o",
         "--interval", "0.5"],
        ["flops", "--preset", "B", "--resolution=250x250"],  # not a multiple of patch 16
    ])
    def test_malformed_pair_exits_2(self, tmp_path, args):
        # usage errors, raised before any checkpoint is opened
        res = run_cli(args, tmp_path)
        assert res.returncode == 2
        assert "usage:" in res.stderr

    @pytest.mark.parametrize("flag", [["--steps", "0"], ["--interval", "0.5,0.2"],
                                      ["--count", "0"], ["--count=-1"]])
    def test_bad_sampler_flag_exits_2(self, tmp_path, flag):
        # checked before the (here nonexistent) checkpoint is opened
        res = run_cli(["sample", "--checkpoint", "missing.ckpt", "--class", "0", "--out", "o",
                       *flag], tmp_path)
        assert res.returncode == 2
        assert "usage:" in res.stderr

    def test_missing_file_exits_1(self, tmp_path):
        res = run_cli(["train", "--config", "does_not_exist.cfg"], tmp_path)
        assert res.returncode == 1
        assert "error:" in res.stderr

    def test_train_sample_roundtrip_deterministic(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(CONFIG_TEXT)
        res = run_cli(["train", "--config", "run.cfg"], tmp_path)
        assert res.returncode == 0, res.stderr
        ckpt = tmp_path / "runs/ck/final.ckpt"
        assert ckpt.exists()
        assert (tmp_path / "runs/metrics.csv").exists()

        # re-running the identical config reproduces checkpoint and metrics bytes
        first_ckpt = ckpt.read_bytes()
        first_metrics = (tmp_path / "runs/metrics.csv").read_bytes()
        res = run_cli(["train", "--config", "run.cfg"], tmp_path)
        assert res.returncode == 0, res.stderr
        assert ckpt.read_bytes() == first_ckpt
        assert (tmp_path / "runs/metrics.csv").read_bytes() == first_metrics

        for out in ("s1", "s2"):
            res = run_cli(["sample", "--checkpoint", "runs/ck/final.ckpt", "--class", "1",
                           "--count", "2", "--steps", "3", "--solver", "euler",
                           "--seed", "9", "--out", out], tmp_path)
            assert res.returncode == 0, res.stderr
        a = (tmp_path / "s1/class1_0000.ppm").read_bytes()
        b = (tmp_path / "s2/class1_0000.ppm").read_bytes()
        assert a == b
        manifest = json.loads((tmp_path / "s1/manifest.json").read_text())
        assert manifest["sampler"]["seed"] == 9
        assert len(manifest["checkpoint_sha256"]) == 64

    @pytest.mark.parametrize("align", ["0.0", "0.5"])
    def test_train_resume_matches_the_uninterrupted_run(self, tmp_path, align):
        train = ["train", "--config", "run.cfg", "--set", "train.checkpoint_every=2",
                 "--set", f"train.align_weight={align}"]

        def run(name, *args):
            (tmp_path / name).mkdir(exist_ok=True)
            (tmp_path / name / "run.cfg").write_text(CONFIG_TEXT)
            res = run_cli(train + list(args), tmp_path / name)
            assert res.returncode == 0, res.stderr
            return res

        def outputs(name):
            files = {"metrics.csv": (tmp_path / name / "runs/metrics.csv").read_bytes()}
            files.update({p.name: p.read_bytes() for p in (tmp_path / name / "runs/ck").iterdir()})
            return files

        run("full")
        full = outputs("full")
        assert sorted(full) == ["final.ckpt", "metrics.csv", "step00000002.ckpt",
                                "step00000004.ckpt"]
        # stopped after step 3, one past its checkpoint at 2, then resumed in place
        run("cut", "--set", "train.total_steps=3")
        res = run("cut", "--resume", "runs/ck/step00000002.ckpt")
        assert "resuming from runs/ck/step00000002.ckpt" in res.stdout
        assert outputs("cut") == full
        # resumed elsewhere, the run logs and saves only the steps from 2 on
        (tmp_path / "elsewhere").mkdir()
        (tmp_path / "elsewhere/start.ckpt").write_bytes(full["step00000002.ckpt"])
        run("elsewhere", "--resume", "start.ckpt")
        rows = full["metrics.csv"].decode().splitlines(keepends=True)
        assert outputs("elsewhere") == {
            "metrics.csv": "".join(rows[:1] + rows[3:]).encode(),
            "step00000004.ckpt": full["step00000004.ckpt"], "final.ckpt": full["final.ckpt"]}

    def test_sample_writes_the_same_bytes_on_one_core_and_two(self, tmp_path, shard_sizes,
                                                              monkeypatch, usable_cores):
        # in this process, so that the usable cores can be patched
        model = DualLevelModel(toy_config(), seed=3)
        rng = np.random.default_rng(4)
        for t in model.params.values():
            t.data += rng.normal(scale=0.1, size=t.shape).astype(np.float32)
        ckpt = tmp_path / "m.ckpt"
        TR.save_checkpoint(ckpt, model, TR.init_state(model, TR.TrainConfig(align_weight=0.0)))
        monkeypatch.setattr(SH, "_MIN_SHARD_PIXELS", 1)  # so that 5 small images split
        outs = []
        for cores in (2, 1):
            usable_cores(cores)
            out = tmp_path / f"cores{cores}"
            assert cli.main(["sample", "--checkpoint", str(ckpt), "--class", "1", "--count", "5",
                             "--steps", "3", "--cfg", "2", "--seed", "9", "--out", str(out)]) == 0
            outs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert shard_sizes == [3] + [2] * 6 + [5] * 6
        assert len(outs[0]) == 6 and outs[0] == outs[1]

    def test_sample_manifest_hashes_the_checkpoint_it_sampled_from(self, tmp_path, monkeypatch):
        # a run that keeps only its latest checkpoint may save over it while sampling runs
        model = DualLevelModel(toy_config(), seed=3)
        state = TR.init_state(model, TR.TrainConfig(align_weight=0.0))
        ckpt = tmp_path / "m.ckpt"
        TR.save_checkpoint(ckpt, model, state)
        sampled = ckpt.read_bytes()
        load_model = TR.load_model

        def load_then_save_over(*args, **kwargs):
            loaded = load_model(*args, **kwargs)
            state.step += 1
            TR.save_checkpoint(ckpt, model, state)
            return loaded

        monkeypatch.setattr(TR, "load_model", load_then_save_over)
        assert cli.main(["sample", "--checkpoint", str(ckpt), "--class", "1", "--count", "1",
                         "--steps", "1", "--out", str(tmp_path / "s")]) == 0
        assert ckpt.read_bytes() != sampled
        manifest = json.loads((tmp_path / "s/manifest.json").read_text())
        assert manifest["checkpoint_sha256"] == hashlib.sha256(sampled).hexdigest()

    def test_make_data(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(CONFIG_TEXT)
        res = run_cli(["make-data", "--config", "run.cfg", "--out", "dataout"], tmp_path)
        assert res.returncode == 0, res.stderr
        labels = (tmp_path / "dataout/labels.csv").read_text().splitlines()
        assert labels[0] == "index,file,class"
        assert len(labels) == 1 + 16

    def test_grad_check_quick_exit_zero(self, tmp_path):
        res = run_cli(["grad-check", "--quick"], tmp_path)
        assert res.returncode == 0, res.stderr
        assert "all passed" in res.stdout
