"""Analytic parameter and FLOPs accounting plus ablation-sweep orchestration.

Conventions: one multiply-add counts as two FLOPs. The FLOPs model covers
matmuls (linear layers) and the attention score/value contractions; norms,
activations, softmax and the AdaLN pointwise work are excluded, matching
the usual bookkeeping behind published per-forward GFLOPs numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import data as D
from . import samplers as S
from . import trainer as TR
from .errors import ConfigError
from .model import DualLevelModel, ModelConfig


@dataclass
class CostReport:
    params_total: int = 0
    params_by_module: dict[str, int] = field(default_factory=dict)
    flops_forward: int = 0
    flops_by_module: dict[str, int] = field(default_factory=dict)
    attention_flops: int = 0
    attention_token_count: int = 0

    def check(self):
        if self.params_by_module and sum(self.params_by_module.values()) != self.params_total:
            raise ConfigError("params_by_module does not sum to params_total")
        if self.flops_by_module and sum(self.flops_by_module.values()) != self.flops_forward:
            raise ConfigError("flops_by_module does not sum to flops_forward")
        return self


def _linear_params(d_in: int, d_out: int) -> int:
    return d_in * d_out + d_out


def count_params(cfg: ModelConfig) -> CostReport:
    """Closed-form parameter count; equals the constructed model exactly."""
    D_, Dp, p, C = cfg.patch_dim, cfg.pixel_dim, cfg.patch_size, cfg.channels
    by = {}
    by["patch_embed"] = _linear_params(p * p * C, D_)
    by["conditioning"] = 2 * _linear_params(D_, D_) + (cfg.num_classes + 1) * D_ + D_
    per_dit = 4 * _linear_params(D_, D_) + _linear_params(D_, 4 * D_) \
        + _linear_params(4 * D_, D_) + _linear_params(D_, 6 * D_)
    by["patch_blocks"] = cfg.patch_depth * per_dit
    if cfg.variant == "vanilla_dit":
        by["patch_head"] = _linear_params(D_, p * p * C)
    else:
        by["pixel_embed"] = _linear_params(C, Dp)
        rows = p * p if cfg.variant in ("C_pixelwise", "no_pixel_attention") else 1
        per_pit = _linear_params(D_, rows * 6 * Dp) \
            + _linear_params(Dp, 4 * Dp) + _linear_params(4 * Dp, Dp)
        if cfg.variant != "no_pixel_attention":
            k = cfg.ptc_rate
            per_pit += _linear_params(p * p * Dp, k * D_) + _linear_params(k * D_, p * p * Dp)
            per_pit += 4 * _linear_params(D_, D_)
        by["pixel_blocks"] = cfg.pixel_depth * per_pit
        by["pixel_head"] = _linear_params(Dp, C)
    report = CostReport(params_total=sum(by.values()), params_by_module=by)
    return report.check()


def _linear_flops(tokens: int, d_in: int, d_out: int) -> int:
    # mult-add = 2 FLOPs; bias adds excluded
    return 2 * tokens * d_in * d_out


def attention_quadratic_flops(tokens: int, width: int) -> int:
    """Score and value contractions only: 2 * T^2 * D mult-adds = 4 T^2 D FLOPs."""
    return 4 * tokens * tokens * width


def estimate_flops(cfg: ModelConfig, resolution: Optional[tuple[int, int]] = None) -> CostReport:
    """Per-forward FLOPs for a single sample at the given resolution."""
    H, W = resolution or cfg.resolution
    p, D_, Dp, C = cfg.patch_size, cfg.patch_dim, cfg.pixel_dim, cfg.channels
    if H < 1 or W < 1:
        raise ConfigError(f"resolution {(H, W)} must be positive")
    if H % p or W % p:
        raise ConfigError(f"resolution {(H, W)} not divisible by patch {p}")
    L = (H // p) * (W // p)
    HW = H * W
    k = cfg.ptc_rate
    by = {}
    attn_flops = 0

    by["patch_embed"] = _linear_flops(L, p * p * C, D_)
    dit = 4 * _linear_flops(L, D_, D_) + _linear_flops(L, D_, 4 * D_) \
        + _linear_flops(4 * L, D_, D_)  # mlp second matmul: 4D -> D over L tokens
    dit += _linear_flops(1, D_, 6 * D_)  # modulation head on the single conditioning token
    dit_attn = attention_quadratic_flops(L, D_)
    by["patch_blocks"] = cfg.patch_depth * (dit + dit_attn)
    attn_flops += cfg.patch_depth * dit_attn
    by["conditioning"] = 2 * _linear_flops(1, D_, D_)

    if cfg.variant == "vanilla_dit":
        by["patch_head"] = _linear_flops(L, D_, p * p * C)
        tokens = 0
    else:
        by["pixel_embed"] = _linear_flops(HW, C, Dp)
        rows = p * p if cfg.variant in ("C_pixelwise", "no_pixel_attention") else 1
        pit = _linear_flops(L, D_, rows * 6 * Dp)
        pit += _linear_flops(HW, Dp, 4 * Dp) + _linear_flops(HW, 4 * Dp, Dp)
        pit_attn = 0
        if cfg.variant != "no_pixel_attention":
            pit += _linear_flops(L, p * p * Dp, k * D_)   # compact
            pit += _linear_flops(L, k * D_, p * p * Dp)   # expand
            pit += 4 * _linear_flops(k * L, D_, D_)       # qkv + output projection
            pit_attn = attention_quadratic_flops(k * L, D_)
        by["pixel_blocks"] = cfg.pixel_depth * (pit + pit_attn)
        attn_flops += cfg.pixel_depth * pit_attn
        by["pixel_head"] = _linear_flops(HW, Dp, C)
        tokens = k * L if cfg.variant != "no_pixel_attention" else 0

    report = CostReport(
        flops_forward=sum(by.values()), flops_by_module=by,
        attention_flops=attn_flops, attention_token_count=tokens,
    )
    return report.check()


def full_cost(cfg: ModelConfig, resolution=None) -> CostReport:
    params = count_params(cfg)
    flops = estimate_flops(cfg, resolution)
    return CostReport(
        params_total=params.params_total, params_by_module=params.params_by_module,
        flops_forward=flops.flops_forward, flops_by_module=flops.flops_by_module,
        attention_flops=flops.attention_flops,
        attention_token_count=flops.attention_token_count,
    )


def compaction_flops_ratio(patch_size: int, width: int = 1152, tokens_per_patch: int = 1,
                           resolution: tuple[int, int] = (256, 256)) -> float:
    """Quadratic-attention cost of raw pixel tokens over compacted tokens.

    Exactly p^4 / k^2: (HW)^2 / (k L)^2 with L = HW / p^2.
    """
    H, W = resolution
    HW = H * W
    L = (H // patch_size) * (W // patch_size)
    up = attention_quadratic_flops(HW, width)
    down = attention_quadratic_flops(tokens_per_patch * L, width)
    return up / down


# ---------------------------------------------------------------------------
# ablation sweeps
# ---------------------------------------------------------------------------

@dataclass
class AblationRow:
    name: str
    model: ModelConfig
    train: TR.TrainConfig
    dataset: D.ToyDatasetSpec
    sampler: Optional[S.SamplerConfig] = None
    samples_per_class: int = 32


SWEEP_HEADER = "name,variant,params,final_loss,sample_color_err,status"


def _final_loss(metrics: list[dict], window: int = 100) -> float:
    vals = [m["loss"] for m in metrics[-window:] if np.isfinite(m["loss"])]
    return float(np.mean(vals)) if vals else float("nan")


def _sample_color_error(model, row: AblationRow) -> float:
    """Mean over classes of |per-class sample mean - class mean image| (per channel)."""
    spec = row.dataset
    errs = []
    for k in range(spec.num_classes):
        cfg = row.sampler
        y = np.full(row.samples_per_class, k)
        imgs = S.sample(model, cfg, y)
        target = D._clean_image(spec, k)
        errs.append(np.abs(imgs.mean(axis=0) - target).mean())
    return float(np.mean(errs))


def run_ablation_sweep(rows: list[AblationRow]) -> tuple[str, list[dict]]:
    """Train each row under its own seed-identical budget; emit one CSV line per row.

    A row that raises is marked failed and poisons nothing else.
    """
    results = []
    lines = [SWEEP_HEADER]
    for row in rows:
        rec = {"name": row.name, "variant": row.model.variant, "status": "ok",
               "params": 0, "final_loss": float("nan"), "sample_color_err": float("nan")}
        try:
            dataset = D.make_dataset(row.dataset)
            model = DualLevelModel(row.model, seed=row.train.seed)
            rec["params"] = model.num_params()
            state = TR.train(model, dataset, row.train)
            rec["final_loss"] = _final_loss(state.metrics)
            if row.sampler is not None:
                # raw trained weights: desk-scale budgets are far shorter than
                # the EMA horizon, so the EMA is still init-dominated
                rec["sample_color_err"] = _sample_color_error(model, row)
        except Exception as e:  # noqa: BLE001 - a failed run must only poison its row
            rec["status"] = f"failed: {type(e).__name__}"
        results.append(rec)
        lines.append(
            f"{rec['name']},{rec['variant']},{rec['params']},"
            f"{rec['final_loss']!r},{rec['sample_color_err']!r},{rec['status']}"
        )
    return "\n".join(lines) + "\n", results


# ---------------------------------------------------------------------------
# SVG line charts (loss-vs-step curves and the like)
# ---------------------------------------------------------------------------

def emit_line_chart_svg(series: dict[str, list[tuple[float, float]]],
                        title: str = "", xlabel: str = "", ylabel: str = "",
                        width: int = 640, height: int = 400) -> str:
    """Static SVG with axes, tick labels, and one polyline per series."""
    pad_l, pad_r, pad_t, pad_b = 60, 16, 28, 44
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts if np.isfinite(y)]
    if not xs or not ys:
        raise ConfigError("cannot chart empty series")
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1

    def sx(x):
        return pad_l + (x - x0) / (x1 - x0) * (width - pad_l - pad_r)

    def sy(y):
        return height - pad_b - (y - y0) / (y1 - y0) * (height - pad_t - pad_b)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="16" text-anchor="middle" font-size="13">{title}</text>',
        f'<line x1="{pad_l}" y1="{height - pad_b}" x2="{width - pad_r}" y2="{height - pad_b}" stroke="black"/>',
        f'<line x1="{pad_l}" y1="{pad_t}" x2="{pad_l}" y2="{height - pad_b}" stroke="black"/>',
        f'<text x="{(pad_l + width - pad_r) / 2:.0f}" y="{height - 8}" text-anchor="middle">{xlabel}</text>',
        f'<text x="14" y="{(pad_t + height - pad_b) / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {(pad_t + height - pad_b) / 2:.0f})">{ylabel}</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x0 + frac * (x1 - x0)
        yv = y0 + frac * (y1 - y0)
        parts.append(f'<text x="{sx(xv):.1f}" y="{height - pad_b + 14}" text-anchor="middle">{xv:.3g}</text>')
        parts.append(f'<text x="{pad_l - 6}" y="{sy(yv):.1f}" text-anchor="end" dominant-baseline="middle">{yv:.3g}</text>')
    for i, (name, pts) in enumerate(series.items()):
        color = colors[i % len(colors)]
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts if np.isfinite(y))
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width - pad_r - 4}" y="{pad_t + 14 * (i + 1)}" '
                     f'text-anchor="end" fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
