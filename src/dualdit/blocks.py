"""Reusable transformer pieces: attention with 2D RoPE, MLP, AdaLN modulation.

The arithmetic runs in the fused ``dualdit.tensor`` primitives. The model
decides ``heads`` and the RoPE tables once and passes them to each block.

Blocks are pure functions over parameter containers; the containers hold
named ``Tensor`` leaves registered in a ``ParamStore`` so every learnable
value has a stable checkpoint key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .tensor import Tensor


class ParamStore:
    """Flat name -> Tensor registry for all learnable parameters."""

    def __init__(self, rng: np.random.Generator, dtype=np.float32):
        self.rng = rng
        self.dtype = np.dtype(dtype)
        self.params: dict[str, Tensor] = {}

    def tensor(self, name: str, shape, init: str = "normal") -> Tensor:
        """A new leaf, all zeros or drawn from N(0, 0.02^2)."""
        if name in self.params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        if init == "zeros":
            data = np.zeros(shape, dtype=self.dtype)
        elif init == "normal":
            data = (self.rng.normal(scale=0.02, size=shape)).astype(self.dtype)
        else:
            raise ConfigError(f"unknown init {init!r}")
        t = Tensor(data, requires_grad=True)
        self.params[name] = t
        return t

    def linear(self, name: str, d_in: int, d_out: int, init: str = "normal") -> "LinearParams":
        w = self.tensor(f"{name}.w", (d_in, d_out), init=init)
        b = self.tensor(f"{name}.b", (d_out,), init="zeros")
        return LinearParams(w=w, b=b)


@dataclass
class LinearParams:
    w: Tensor
    b: Tensor


def linear(x: Tensor, p: LinearParams) -> Tensor:
    return T.linear(x, p.w, p.b)


ROPE_BASE = 10000.0  # wavelength base of the rotary frequency bank


def grid_positions(rows: int, cols: int, repeat: int = 1) -> np.ndarray:
    """(row, col) of every token of a rows x cols grid, row-major, shape (rows*cols*repeat, 2).

    Each cell appears ``repeat`` times in a row: the k tokens a patch compacts
    to share the patch's cell.
    """
    cells = np.stack([np.repeat(np.arange(rows), cols), np.tile(np.arange(cols), rows)], axis=1)
    return np.repeat(cells, repeat, axis=0)


def rope_tables(positions: np.ndarray, head_dim: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Axial 2D RoPE tables (C, S), each (T, 1, head_dim), broadcast over heads.

    Pair i of a head vector (lanes 2i, 2i+1) turns by angle theta_i: C holds
    cos(theta_i) in both lanes, S holds (-sin(theta_i), sin(theta_i)), as
    ``tensor._rotate`` takes them. The first half of the pairs turns by
    angles of the token's row, the second half by angles of its column.
    """
    if head_dim % 4 != 0:
        raise ConfigError(f"2D RoPE needs head_dim divisible by 4, got {head_dim}")
    r_idx = positions[:, 0].astype(dtype)
    c_idx = positions[:, 1].astype(dtype)
    quarter = head_dim // 4
    freqs = ROPE_BASE ** (-np.arange(quarter, dtype=dtype) / quarter)
    theta = np.concatenate(
        [r_idx[:, None] * freqs[None, :], c_idx[:, None] * freqs[None, :]], axis=1
    )  # (T, head_dim // 2)
    cos, sin = np.cos(theta), np.sin(theta)
    C = np.repeat(cos, 2, axis=1)
    S = np.stack([-sin, sin], axis=2).reshape(C.shape)
    return C[:, None, :], S[:, None, :]


@dataclass
class AttentionParams:
    q: LinearParams
    k: LinearParams
    v: LinearParams
    o: LinearParams


def make_attention_params(store: ParamStore, name: str, width: int) -> AttentionParams:
    return AttentionParams(
        q=store.linear(f"{name}.q", width, width),
        k=store.linear(f"{name}.k", width, width),
        v=store.linear(f"{name}.v", width, width),
        o=store.linear(f"{name}.o", width, width),
    )


def multi_head_attention(x: Tensor, params: AttentionParams, heads: int,
                         rope: Optional[tuple[np.ndarray, np.ndarray]] = None) -> Tensor:
    """Scaled dot-product attention over (B, T, D) with per-head softmax.

    ``rope``, the ``rope_tables`` of the token grid, rotates q and k; None: no RoPE.
    """
    a = T.attention(linear(x, params.q), linear(x, params.k), linear(x, params.v), heads, rope)
    return linear(a, params.o)


@dataclass
class MlpParams:
    fc1: LinearParams
    fc2: LinearParams


def make_mlp_params(store: ParamStore, name: str, width: int) -> MlpParams:
    """width -> 4 width -> width."""
    return MlpParams(
        fc1=store.linear(f"{name}.fc1", width, 4 * width),
        fc2=store.linear(f"{name}.fc2", 4 * width, width),
    )


def mlp(x: Tensor, params: MlpParams) -> Tensor:
    """linear -> GELU (tanh approximation) -> linear."""
    return linear(T.gelu_tanh(linear(x, params.fc1)), params.fc2)


@dataclass
class ModulationParams:
    """Six AdaLN groups; each broadcastable onto the normalized activations."""

    beta1: Tensor
    gamma1: Tensor
    alpha1: Tensor
    beta2: Tensor
    gamma2: Tensor
    alpha2: Tensor


MOD_GROUP_ORDER = ("beta1", "gamma1", "alpha1", "beta2", "gamma2", "alpha2")


def split_modulation(theta: Tensor, width: int) -> ModulationParams:
    """Partition the last axis of theta into the six fixed-order groups."""
    if theta.shape[-1] != 6 * width:
        raise ConfigError(
            f"modulation head output width {theta.shape[-1]} != 6*{width}"
        )
    return ModulationParams(*T.split_lastdim(theta, 6))


@dataclass
class DitBlockParams:
    attn: AttentionParams
    mlp: MlpParams
    ada: LinearParams  # conditioning -> six per-feature groups


def init_modulation_head(head: LinearParams, width: int):
    """Scale-one start: weights and gates/shifts zero, gamma groups one.

    Gates alone make a fresh block the identity; starting the gammas at one
    keeps the branch outputs (and hence the gate gradients) nonzero, without
    which a bare gamma*x+beta modulation never trains: alpha=0 zeroes every
    branch gradient while gamma=beta=0 zeroes the branch output that alpha's
    own gradient needs.
    """
    head.w.data[...] = 0.0
    bias = head.b.data.reshape(-1, 6, width)
    bias[...] = 0.0
    bias[:, MOD_GROUP_ORDER.index("gamma1"), :] = 1.0
    bias[:, MOD_GROUP_ORDER.index("gamma2"), :] = 1.0


def make_dit_block_params(store: ParamStore, name: str, width: int) -> DitBlockParams:
    params = DitBlockParams(
        attn=make_attention_params(store, f"{name}.attn", width),
        mlp=make_mlp_params(store, f"{name}.mlp", width),
        ada=store.linear(f"{name}.ada", width, 6 * width, init="zeros"),
    )
    init_modulation_head(params.ada, width)
    return params


def dit_block(s: Tensor, c: Tensor, params: DitBlockParams, heads: int,
              rope: Optional[tuple[np.ndarray, np.ndarray]] = None) -> Tensor:
    """One patch-pathway block with global AdaLN conditioning.

    s_bar = s + alpha1(c) * Attn(gamma1(c) * RMSNorm(s) + beta1(c); RoPE)
    s'    = s_bar + alpha2(c) * MLP(gamma2(c) * RMSNorm(s_bar) + beta2(c))

    RMSNorm and the gamma/beta modulation are one ``T.modulated_rms_norm``
    record, the gated sums one ``T.gated_residual`` record each.

    The six groups come from a linear head on SiLU(c), broadcast over the
    token axis. The head starts with zero weights and a scale-one bias
    (see init_modulation_head), so a fresh block is the identity map through
    its zero gates while still passing gradient to them.
    """
    D = s.shape[-1]
    mods = split_modulation(linear(T.silu(c), params.ada), D)
    h = T.modulated_rms_norm(s, mods.gamma1, mods.beta1)
    s = T.gated_residual(s, mods.alpha1, multi_head_attention(h, params.attn, heads, rope))
    h = T.modulated_rms_norm(s, mods.gamma2, mods.beta2)
    return T.gated_residual(s, mods.alpha2, mlp(h, params.mlp))
