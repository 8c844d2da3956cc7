"""Cost model: analytic counts vs construction, FLOPs structure, sweeps, charts."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualdit import analysis as A
from dualdit import data as D
from dualdit import samplers as S
from dualdit import trainer as TR
from dualdit.errors import ConfigError
from dualdit.model import PRESETS, DualLevelModel, ModelConfig, VARIANTS


def random_config(rng) -> ModelConfig:
    heads = int(rng.choice([1, 2, 4]))
    head_dim = int(rng.choice([4, 8]))
    patch = int(rng.choice([2, 4]))
    return ModelConfig(
        patch_depth=int(rng.integers(0, 4)),
        pixel_depth=int(rng.integers(1, 4)),
        patch_dim=heads * head_dim,
        pixel_dim=int(rng.integers(2, 9)),
        heads=heads,
        patch_size=patch,
        num_classes=int(rng.integers(1, 6)),
        channels=int(rng.choice([1, 3])),
        resolution=(patch * int(rng.integers(1, 5)), patch * int(rng.integers(1, 5))),
        variant=str(rng.choice(VARIANTS)),
        ptc_rate=int(rng.choice([1, 2, 4])),
    )


class TestCountParams:
    def test_matches_construction_on_random_configs(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            cfg = random_config(rng)
            assert A.count_params(cfg).params_total == DualLevelModel(cfg, seed=0).num_params()

    @pytest.mark.parametrize("name,published", [("B", 184e6), ("L", 569e6), ("XL", 797e6)])
    def test_presets_within_ten_percent_of_published(self, name, published):
        total = A.count_params(PRESETS[name]).params_total
        assert abs(total - published) / published < 0.10

    def test_degenerate_width_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(patch_depth=1, pixel_depth=1, patch_dim=16, pixel_dim=0, heads=2,
                        patch_size=2, resolution=(8, 8))

    def test_breakdown_sums_to_total(self):
        report = A.count_params(PRESETS["B"])
        assert sum(report.params_by_module.values()) == report.params_total


class TestEstimateFlops:
    def test_xl_near_published(self):
        report = A.estimate_flops(PRESETS["XL"])
        assert abs(report.flops_forward - 311e9) / 311e9 < 0.15

    def test_attention_token_count(self):
        report = A.estimate_flops(PRESETS["XL"])
        assert report.attention_token_count == (256 // 16) * (256 // 16)

    def test_no_attention_cheaper_than_full(self):
        full = A.estimate_flops(PRESETS["XL"]).flops_forward
        ablated = A.estimate_flops(
            dataclasses.replace(PRESETS["XL"], variant="no_pixel_attention")).flops_forward
        assert ablated < full

    @pytest.mark.parametrize("resolution", [(-256, 256), (0, 0)])
    def test_non_positive_resolution_rejected(self, resolution):
        with pytest.raises(ConfigError, match="must be positive"):
            A.estimate_flops(PRESETS["B"], resolution)

    @pytest.mark.parametrize("p", [2, 4, 8, 16])
    def test_compaction_ratio_is_p4_exactly(self, p):
        assert A.compaction_flops_ratio(p) == p**4

    def test_monotone_in_depth_width_resolution_rate(self):
        base = ModelConfig(patch_depth=2, pixel_depth=2, patch_dim=64, pixel_dim=8,
                           heads=4, patch_size=4, resolution=(16, 16), num_classes=3)
        f0 = A.estimate_flops(base).flops_forward
        assert A.estimate_flops(dataclasses.replace(base, patch_depth=4)).flops_forward > f0
        assert A.estimate_flops(dataclasses.replace(base, pixel_depth=4)).flops_forward > f0
        assert A.estimate_flops(dataclasses.replace(base, patch_dim=128, heads=8)).flops_forward > f0
        assert A.estimate_flops(base, resolution=(32, 32)).flops_forward > f0
        assert A.estimate_flops(dataclasses.replace(base, ptc_rate=2)).flops_forward > f0

    @given(st.integers(0, 5000))
    @settings(max_examples=20, deadline=None)
    def test_property_analytic_equals_construction(self, seed):
        cfg = random_config(np.random.default_rng(seed))
        assert A.count_params(cfg).params_total == DualLevelModel(cfg, seed=0).num_params()


def sweep_row(name, variant, steps=4, seed=3, sample=False):
    model = ModelConfig(patch_depth=1, pixel_depth=1, patch_dim=16, pixel_dim=4, heads=2,
                        patch_size=2, num_classes=2, resolution=(4, 4), variant=variant)
    train = TR.TrainConfig(lr=1e-3, batch_size=4, total_steps=steps, align_weight=0.0, seed=seed)
    dataset = D.ToyDatasetSpec(kind="solid_color", num_classes=2, resolution=(4, 4),
                               samples_per_class=8, noise_std=0.05, seed=seed)
    sampler = S.SamplerConfig(solver="euler", steps=3, seed=seed) if sample else None
    return A.AblationRow(name=name, model=model, train=train, dataset=dataset,
                         sampler=sampler, samples_per_class=4)


class TestAblationSweep:
    def test_single_row_header_plus_one_line(self):
        csv_text, results = A.run_ablation_sweep([sweep_row("solo", "C_pixelwise")])
        lines = csv_text.strip().splitlines()
        assert lines[0] == A.SWEEP_HEADER
        assert len(lines) == 2
        assert results[0]["status"] == "ok"

    def test_identical_rows_identical_output(self):
        rows = [sweep_row("a", "C_pixelwise"), sweep_row("b", "C_pixelwise")]
        csv_text, results = A.run_ablation_sweep(rows)
        l1, l2 = csv_text.strip().splitlines()[1:]
        assert l1.split(",")[2:] == l2.split(",")[2:]  # same numbers, different names

    def test_failed_row_poisons_only_itself(self):
        bad = sweep_row("bad", "C_pixelwise")
        bad.train = dataclasses.replace(bad.train, batch_size=10_000)  # larger than dataset
        csv_text, results = A.run_ablation_sweep([bad, sweep_row("good", "C_pixelwise")])
        assert results[0]["status"].startswith("failed")
        assert results[1]["status"] == "ok"
        assert len(csv_text.strip().splitlines()) == 3

    def test_sampling_metric_present_when_requested(self):
        _csv, results = A.run_ablation_sweep([sweep_row("s", "C_pixelwise", sample=True)])
        assert np.isfinite(results[0]["sample_color_err"])


class TestSvgChart:
    def test_emits_valid_structure(self):
        svg = A.emit_line_chart_svg(
            {"train": [(0, 2.0), (1, 1.0), (2, 0.5)], "val": [(0, 2.2), (2, 0.7)]},
            title="loss", xlabel="step", ylabel="mse")
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert svg.count("<polyline") == 2
        assert "loss" in svg and "step" in svg and "mse" in svg

    def test_empty_series_rejected(self):
        with pytest.raises(ConfigError):
            A.emit_line_chart_svg({"x": []})
