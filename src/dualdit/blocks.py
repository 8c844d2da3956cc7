"""Reusable transformer pieces: attention with 2D RoPE, MLP, AdaLN modulation.

The arithmetic runs in the fused ``dualdit.tensor`` primitives. The model
decides ``heads`` and the RoPE tables, (T, heads, head_dim) each, once and
passes them to each block. A modulation head's six AdaLN groups come from
one ``T.modulation`` record, each group a view with a contiguous run per
conditioning row.

Blocks are pure functions over parameter containers; the containers hold
named ``Tensor`` leaves registered in a ``ParamStore`` so every learnable
value has a stable checkpoint key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import checkpoint as ckpt
from . import tensor as T
from .errors import ConfigError
from .tensor import Tensor


class ParamStore:
    """Flat name -> Tensor registry for all learnable parameters.

    A store starts each new leaf as its ``init`` says, drawing from ``rng``;
    one built by ``of_records`` takes each leaf from a checkpoint's records
    instead, and draws nothing.
    """

    def __init__(self, rng: Optional[np.random.Generator], dtype=np.float32):
        self.rng = rng
        self.dtype = np.dtype(dtype)
        self.params: dict[str, Tensor] = {}
        self.records: Optional[dict[str, np.ndarray]] = None
        self.prefix = ""

    @classmethod
    def of_records(cls, arrays: dict[str, np.ndarray], prefix: str, dtype=np.float32) -> "ParamStore":
        """A store whose leaf ``name`` is a copy of record ``prefix + name`` of ``arrays``, checked
        against its shape (``checkpoint.get_record``)."""
        store = cls(None, dtype)
        store.records, store.prefix = arrays, prefix
        return store

    def tensor(self, name: str, shape, init="normal") -> Tensor:
        """A new leaf: all zeros, drawn from N(0, 0.02^2), or the array ``init``; a record of a
        store ``of_records``."""
        if name in self.params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        if self.records is not None:
            data = np.array(ckpt.get_record(self.records, self.prefix + name, shape), self.dtype)
        elif isinstance(init, np.ndarray):
            data = init.astype(self.dtype).reshape(shape)
        elif init == "zeros":
            data = np.zeros(shape, dtype=self.dtype)
        elif init == "normal":
            data = (self.rng.normal(scale=0.02, size=shape)).astype(self.dtype)
        else:
            raise ConfigError(f"unknown init {init!r}")
        t = Tensor(data, requires_grad=True, dtype=self.dtype)
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


def rope_tables(positions: np.ndarray, heads: int, head_dim: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Axial 2D RoPE tables (C, S), each (T, heads, head_dim): every head turns alike.

    Pair i of a head vector (lanes 2i, 2i+1) turns by angle theta_i: C holds
    cos(theta_i) in both lanes, S holds (-sin(theta_i), sin(theta_i)), as
    ``tensor._rotate`` takes them. The first half of the pairs turns by
    angles of the token's row, the second half by angles of its column. The
    tables are tiled over the heads, so that the rotation of (B, T, heads,
    head_dim) queries and keys runs inner loops of heads * head_dim elements.
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
    return np.tile(C[:, None, :], (1, heads, 1)), np.tile(S[:, None, :], (1, heads, 1))


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
    """linear -> GELU (tanh approximation) -> linear, one ``T.mlp`` record."""
    return T.mlp(x, params.fc1.w, params.fc1.b, params.fc2.w, params.fc2.b)


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


def split_modulation(c: Tensor, head: LinearParams, rows: int, width: int) -> ModulationParams:
    """The six fixed-order AdaLN groups of modulation head ``head`` on conditioning ``c``.

    The head's columns are laid out (rows, 6, width). Each group is (M, rows,
    width), M the rows of c's leading axes, and all six are one
    ``T.modulation`` record.
    """
    if head.w.shape[-1] != rows * 6 * width:
        raise ConfigError(
            f"modulation head output width {head.w.shape[-1]} != {rows}*6*{width}"
        )
    return ModulationParams(*T.modulation(c, head.w, head.b, rows, len(MOD_GROUP_ORDER)))


@dataclass
class DitBlockParams:
    attn: AttentionParams
    mlp: MlpParams
    ada: LinearParams  # conditioning -> six per-feature groups


def make_modulation_head(store: ParamStore, name: str, d_in: int, rows: int, width: int) -> LinearParams:
    """A head of ``rows`` rows of the six groups of ``width`` per conditioning vector, laid out
    (rows, 6, width), with a scale-one start: weights and gates/shifts zero, gamma groups one.

    Gates alone make a fresh block the identity; starting the gammas at one
    keeps the branch outputs (and hence the gate gradients) nonzero, without
    which a bare gamma*x+beta modulation never trains: alpha=0 zeroes every
    branch gradient while gamma=beta=0 zeroes the branch output that alpha's
    own gradient needs.
    """
    bias = np.zeros((rows, 6, width))
    bias[:, MOD_GROUP_ORDER.index("gamma1"), :] = 1.0
    bias[:, MOD_GROUP_ORDER.index("gamma2"), :] = 1.0
    return LinearParams(w=store.tensor(f"{name}.w", (d_in, rows * 6 * width), init="zeros"),
                        b=store.tensor(f"{name}.b", (rows * 6 * width,), init=bias.reshape(-1)))


def make_dit_block_params(store: ParamStore, name: str, width: int) -> DitBlockParams:
    return DitBlockParams(
        attn=make_attention_params(store, f"{name}.attn", width),
        mlp=make_mlp_params(store, f"{name}.mlp", width),
        ada=make_modulation_head(store, f"{name}.ada", width, 1, width),
    )


def dit_block(s: Tensor, c: Tensor, params: DitBlockParams, heads: int,
              rope: Optional[tuple[np.ndarray, np.ndarray]] = None) -> Tensor:
    """One patch-pathway block with global AdaLN conditioning.

    s_bar = s + alpha1(c) * Attn(gamma1(c) * RMSNorm(s) + beta1(c); RoPE)
    s'    = s_bar + alpha2(c) * MLP(gamma2(c) * RMSNorm(s_bar) + beta2(c))

    RMSNorm and the gamma/beta modulation are one ``T.modulated_rms_norm``
    record, the gated sums one ``T.gated_residual`` record each.

    The six groups come from a one-row modulation head on SiLU(c), broadcast
    over the token axis. The head starts with zero weights and a scale-one
    bias (see make_modulation_head), so a fresh block is the identity map
    through its zero gates while still passing gradient to them.
    """
    D = s.shape[-1]
    mods = split_modulation(T.silu(c), params.ada, 1, D)
    h = T.modulated_rms_norm(s, mods.gamma1, mods.beta1)
    s = T.gated_residual(s, mods.alpha1, multi_head_attention(h, params.attn, heads, rope))
    h = T.modulated_rms_norm(s, mods.gamma2, mods.beta2)
    return T.gated_residual(s, mods.alpha2, mlp(h, params.mlp))
