"""The dual-level diffusion transformer.

A patch-level pathway (N blocks over coarse patch tokens) captures global
semantics; its output, summed with the timestep embedding, conditions a
pixel-level pathway (M blocks over one token per pixel) through per-pixel
AdaLN modulation. Inside each pixel block the p*p pixel tokens of a patch
are compacted to k learned tokens before global attention and expanded back
afterwards, so attention always runs over k*(H/p)*(W/p) tokens.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from . import blocks as B
from . import tensor as T
from .errors import ConfigError, InputError, ShapeError
from .tensor import Tensor

VARIANTS = ("C_pixelwise", "B_patchwise", "A_global", "no_pixel_attention", "vanilla_dit")


@dataclass
class ModelConfig:
    """Architecture hyperparameters; see ``PRESETS`` for the published sizes."""

    patch_depth: int          # blocks in the patch-level pathway
    pixel_depth: int          # blocks in the pixel-level pathway
    patch_dim: int            # hidden size of patch tokens
    pixel_dim: int            # hidden size of pixel tokens (much smaller)
    heads: int
    patch_size: int = 16
    num_classes: int = 1000   # real classes; id num_classes is the null class
    resolution: tuple[int, int] = (256, 256)
    channels: int = 3
    variant: str = "C_pixelwise"
    ptc_rate: int = 1         # tokens each patch compacts to (1, 2, or 4)
    rope_pixel_pathway: bool = True
    cond_uses_class: bool = False  # hand off s_N + c instead of s_N + t_embedding

    def __post_init__(self):
        H, W = self.resolution
        if self.patch_depth < 0 or self.pixel_depth < 0:
            raise ConfigError("pathway depths must be non-negative")
        for name in ("patch_dim", "pixel_dim", "heads", "patch_size", "channels", "num_classes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if H < 1 or W < 1:
            raise ConfigError(f"resolution entries must be positive, got {self.resolution}")
        if self.patch_dim % self.heads != 0:
            raise ConfigError(f"patch_dim {self.patch_dim} not divisible by heads {self.heads}")
        if H % self.patch_size or W % self.patch_size:
            raise ConfigError(f"resolution {self.resolution} not divisible by patch {self.patch_size}")
        if self.patch_dim % 2 != 0:
            raise ConfigError("patch_dim must be even for the sinusoidal featurization")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        if self.ptc_rate not in (1, 2, 4):
            raise ConfigError(f"ptc_rate must be 1, 2 or 4, got {self.ptc_rate}")
        head_dim = self.patch_dim // self.heads
        if head_dim % 4 != 0:
            raise ConfigError(f"head_dim {head_dim} must be divisible by 4 for 2D RoPE")

    @property
    def grid(self) -> tuple[int, int]:
        return (self.resolution[0] // self.patch_size, self.resolution[1] // self.patch_size)

    @property
    def num_patches(self) -> int:
        gh, gw = self.grid
        return gh * gw

    @property
    def null_class(self) -> int:
        return self.num_classes

    @property
    def pixels_per_patch(self) -> int:
        return self.patch_size * self.patch_size


# published configurations: (N, M, D, D_pix, heads) at p=16, 256x256x3, 1000 classes
PRESETS = {
    "B": ModelConfig(patch_depth=12, pixel_depth=2, patch_dim=768, pixel_dim=16, heads=12),
    "L": ModelConfig(patch_depth=22, pixel_depth=4, patch_dim=1024, pixel_dim=16, heads=16),
    "XL": ModelConfig(patch_depth=26, pixel_depth=4, patch_dim=1152, pixel_dim=16, heads=16),
}


def toy_config(**overrides) -> ModelConfig:
    """Small configuration for tests and demos; override any field."""
    base = dict(
        patch_depth=2, pixel_depth=2, patch_dim=16, pixel_dim=4, heads=2,
        patch_size=2, num_classes=3, resolution=(8, 8), channels=3,
    )
    base.update(overrides)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# patch / pixel token rearrangement
# ---------------------------------------------------------------------------

def patchify(x: Tensor, patch: int) -> Tensor:
    """(B, C, H, W) -> (B, L, p*p*C) with row-major patch ordering.

    The inner layout of each token is (p, p, C): pixels row-major, channels
    fastest, so pixel tokens are slices of the same flattening.
    """
    Bsz, C, H, W = x.shape
    if H % patch or W % patch:
        raise ShapeError(f"image {H}x{W} not divisible by patch {patch}")
    gh, gw = H // patch, W // patch
    x = x.reshape(Bsz, C, gh, patch, gw, patch)
    x = x.transpose(0, 2, 4, 3, 5, 1)  # (B, gh, gw, p, p, C)
    return x.reshape(Bsz, gh * gw, patch * patch * C)


def unpatchify(tokens: Tensor, patch: int, grid: tuple[int, int], channels: int) -> Tensor:
    """Inverse of patchify: (B, L, p*p*C) -> (B, C, H, W)."""
    Bsz, L, _ = tokens.shape
    gh, gw = grid
    if L != gh * gw:
        raise ShapeError(f"token count {L} != grid {gh}x{gw}")
    x = tokens.reshape(Bsz, gh, gw, patch, patch, channels)
    x = x.transpose(0, 5, 1, 3, 2, 4)  # (B, C, gh, p, gw, p)
    return x.reshape(Bsz, channels, gh * patch, gw * patch)


def sinusoidal_features(t: np.ndarray, dim: int, base: float = 10000.0,
                        time_scale: float = 1000.0) -> np.ndarray:
    """Standard sin/cos featurization of timesteps in [0, 1].

    Timesteps are scaled by 1000 so the frequency bank covers the unit
    interval; layout is [sin(w_i t) ... cos(w_i t) ...] with w_i = base^(-i/half).
    """
    if dim % 2:
        raise ConfigError(f"sinusoidal dim must be even, got {dim}")
    half = dim // 2
    freqs = base ** (-np.arange(half, dtype=np.float64) / half)
    args = np.asarray(t, dtype=np.float64).reshape(-1, 1) * time_scale * freqs
    return np.concatenate([np.sin(args), np.cos(args)], axis=1)


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

@dataclass
class PitBlockParams:
    mod: B.LinearParams                      # conditioning -> AdaLN groups
    mlp: B.MlpParams                         # per-pixel-token MLP
    compact: Optional[B.LinearParams] = None  # p*p*D_pix -> k*D
    expand: Optional[B.LinearParams] = None   # k*D -> p*p*D_pix
    attn: Optional[B.AttentionParams] = None


class DualLevelModel:
    """All learnable parameters plus the forward pass, for any variant."""

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32):
        self._build(config, B.ParamStore(np.random.default_rng(seed), dtype=dtype))

    @classmethod
    def from_records(cls, config: ModelConfig, arrays: dict[str, np.ndarray], prefix: str,
                     dtype=np.float32) -> "DualLevelModel":
        """The model whose parameter ``name`` is record ``prefix + name`` of ``arrays``.

        Nothing is drawn, and each parameter copies its record once. A missing
        record raises ``ConfigError`` and one of another shape ``ShapeError``
        (``checkpoint.get_record``).
        """
        model = cls.__new__(cls)
        model._build(config, B.ParamStore.of_records(arrays, prefix, dtype=dtype))
        return model

    def _build(self, config: ModelConfig, store: B.ParamStore):
        self.config = config
        self.dtype = store.dtype
        cfg = config
        D, Dp, p, C = cfg.patch_dim, cfg.pixel_dim, cfg.patch_size, cfg.channels

        self.patch_embed = store.linear("patch_embed", p * p * C, D)
        self.t_fc1 = store.linear("t_embed.fc1", D, D)
        self.t_fc2 = store.linear("t_embed.fc2", D, D)
        self.class_embed = store.tensor("class_embed", (cfg.num_classes + 1, D))
        self.cond_bias = store.tensor("cond_bias", (D,), init="zeros")

        self.patch_blocks = [
            B.make_dit_block_params(store, f"patch_blocks.{i}", D)
            for i in range(cfg.patch_depth)
        ]
        head_dim = D // cfg.heads
        self.patch_rope = B.rope_tables(B.grid_positions(*cfg.grid), cfg.heads, head_dim, self.dtype)

        self.pit_blocks: list[PitBlockParams] = []
        if cfg.variant == "vanilla_dit":
            self.patch_head = store.linear("patch_head", D, p * p * C, init="zeros")
        else:
            self.pixel_embed = store.linear("pixel_embed", C, Dp)
            has_attn = cfg.variant != "no_pixel_attention"
            for i in range(cfg.pixel_depth):
                blk = PitBlockParams(
                    mod=B.make_modulation_head(store, f"pit.{i}.mod", D, self._mod_group_count(), Dp),
                    mlp=B.make_mlp_params(store, f"pit.{i}.mlp", Dp),
                )
                if has_attn:
                    k = cfg.ptc_rate
                    blk.compact = store.linear(f"pit.{i}.compact", p * p * Dp, k * D)
                    blk.expand = store.linear(f"pit.{i}.expand", k * D, p * p * Dp)
                    blk.attn = B.make_attention_params(store, f"pit.{i}.attn", D)
                self.pit_blocks.append(blk)
            self.pixel_head = store.linear("pixel_head", Dp, C, init="zeros")
            # the k tokens each patch compacts to share its cell
            self.pixel_rope = None
            if cfg.rope_pixel_pathway:
                self.pixel_rope = B.rope_tables(B.grid_positions(*cfg.grid, cfg.ptc_rate),
                                                cfg.heads, head_dim, self.dtype)

        self.params = store.params
        self.arena = None  # the shared buffers of a train step (shards.Arena); only shards sets it

    def _mod_group_count(self) -> int:
        """Rows of AdaLN parameters the modulation head emits per conditioning token."""
        if self.config.variant in ("C_pixelwise", "no_pixel_attention"):
            return self.config.pixels_per_patch
        return 1  # patch-wise and global emit one row, broadcast over the pixel axis

    # -- conditioning ------------------------------------------------------

    def embed_condition(self, t: np.ndarray, y: np.ndarray) -> tuple[Tensor, Tensor]:
        """Return (c, t_embedding), each (B, 1, D).

        c = SiLU(t_embedding + class_table[y] + bias); the null class id is
        the unconditional branch of classifier-free guidance.
        """
        cfg = self.config
        y = np.asarray(y, dtype=np.int64)
        if np.any(y < 0) or np.any(y > cfg.null_class):
            raise InputError(
                f"class ids must lie in [0, {cfg.null_class}] (null id {cfg.null_class}), got {y}"
            )
        feats = Tensor(sinusoidal_features(t, cfg.patch_dim).astype(self.dtype))
        t_emb = B.linear(T.silu(B.linear(feats, self.t_fc1)), self.t_fc2)
        t_emb = t_emb.reshape(len(y), 1, cfg.patch_dim)
        cls = T.gather_rows(self.class_embed, y).reshape(len(y), 1, cfg.patch_dim)
        c = T.silu(t_emb + cls + self.cond_bias)
        return c, t_emb

    # -- pathways ----------------------------------------------------------

    def patch_pathway(self, s: Tensor, c: Tensor, outs: Optional[list] = None) -> Tensor:
        """Run the patch blocks; with ``outs`` given, append each block's output to it."""
        for blk in self.patch_blocks:
            s = B.dit_block(s, c, blk, self.config.heads, self.patch_rope)
            if outs is not None:
                outs.append(s)
        return s

    def pixel_adaln_params(self, cond_flat: Tensor, blk: PitBlockParams) -> B.ModulationParams:
        """Map conditioning rows through the block's head into the six groups, (BL, rows, D_pix) each.

        Pixel-wise heads emit p*p distinct rows per token; patch-wise/global
        heads emit one row that broadcasts over the pixel axis.
        """
        return B.split_modulation(cond_flat, blk.mod, self._mod_group_count(), self.config.pixel_dim)

    def pit_block(self, X: Tensor, cond_flat: Tensor, blk: PitBlockParams,
                  diag: Optional[dict] = None) -> Tensor:
        """compress-attend-expand with pixel-wise AdaLN; see class docstring."""
        cfg = self.config
        p2, Dp, D, k = cfg.pixels_per_patch, cfg.pixel_dim, cfg.patch_dim, cfg.ptc_rate
        BL = X.shape[0]
        Bsz = BL // cfg.num_patches
        mods = self.pixel_adaln_params(cond_flat, blk)
        if blk.attn is not None:
            h = T.modulated_rms_norm(X, mods.gamma1, mods.beta1)
            u = B.linear(h.reshape(BL, p2 * Dp), blk.compact)
            u = u.reshape(Bsz, cfg.num_patches * k, D)
            if diag is not None:
                diag["pixel_attention_tokens"] = u.shape[1]
            a = B.multi_head_attention(u, blk.attn, cfg.heads, self.pixel_rope)
            y = B.linear(a.reshape(BL, k * D), blk.expand).reshape(BL, p2, Dp)
            X = T.gated_residual(X, mods.alpha1, y)
        h = T.modulated_rms_norm(X, mods.gamma2, mods.beta2)
        return T.gated_residual(X, mods.alpha2, B.mlp(h, blk.mlp))

    # -- full forward ------------------------------------------------------

    def forward(self, x, t, y, diag: Optional[dict] = None,
                patch_outs: Optional[list] = None) -> Tensor:
        """Velocity prediction; output shape equals input shape.

        ``patch_outs``, when given, collects the patch tokens after each patch block.
        """
        cfg = self.config
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=self.dtype))
        Bsz, C, H, W = x.shape
        if (C, (H, W)) != (cfg.channels, tuple(cfg.resolution)):
            raise ShapeError(
                f"input {tuple(x.shape)} does not match config {cfg.channels}x{cfg.resolution}"
            )
        t, y = np.asarray(t), np.asarray(y)
        if t.shape != (Bsz,) or y.shape != (Bsz,):
            raise ShapeError(f"t {t.shape} and y {y.shape} must both be ({Bsz},) for a batch of {Bsz}")
        p, L = cfg.patch_size, cfg.num_patches
        c, t_emb = self.embed_condition(t, y)
        tokens = patchify(x, p)
        s = B.linear(tokens, self.patch_embed)
        s = self.patch_pathway(s, c, patch_outs)

        if cfg.variant == "vanilla_dit":
            out = B.linear(s, self.patch_head)
            return unpatchify(out, p, cfg.grid, C)

        s_cond = s + (c if cfg.cond_uses_class else t_emb)
        cond_flat = s_cond.reshape(Bsz * L, cfg.patch_dim)
        if cfg.variant == "A_global":
            # global variant conditions every pixel on c alone; broadcast over patches
            ones = Tensor(np.ones((Bsz, L, 1), dtype=self.dtype))
            cond_flat = (c * ones).reshape(Bsz * L, cfg.patch_dim)

        # pixel tokens are the patch tokens' (p, p, C) layout split per pixel
        X = B.linear(tokens.reshape(Bsz * L, p * p, C), self.pixel_embed)
        for blk in self.pit_blocks:
            X = self.pit_block(X, cond_flat, blk, diag)
        out = B.linear(X, self.pixel_head)
        return unpatchify(out.reshape(Bsz, L, p * p * C), p, cfg.grid, C)

    # -- parameter plumbing --------------------------------------------------

    def num_params(self) -> int:
        return sum(t.size for t in self.params.values())


def config_to_dict(cfg: ModelConfig) -> dict:
    return asdict(cfg)


def config_from_dict(d) -> ModelConfig:
    """The ``ModelConfig`` a checkpoint header's ``model_config`` holds.

    Anything that is not an object of ``ModelConfig`` fields, or whose
    values the config refuses, raises ``ConfigError`` naming the field.
    """
    field = "the header field 'model_config'"
    if not isinstance(d, dict):
        raise ConfigError(f"{field} is not an object of config fields: {d!r}")
    unknown = sorted(d.keys() - {f.name for f in fields(ModelConfig)})
    if unknown:
        raise ConfigError(f"{field} holds unknown fields {unknown}")
    try:
        if "resolution" in d:
            d = {**d, "resolution": tuple(d["resolution"])}
        return ModelConfig(**d)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{field} is malformed: {exc}") from None
