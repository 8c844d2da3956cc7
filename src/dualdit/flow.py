"""Rectified-flow interpolation, timestep sampling, and training losses.

Convention throughout the package: t=0 is data, t=1 is noise. The interpolant
is x_t = (1-t)*x0 + t*eps and the regression target is the straight-line
velocity v = eps - x0, so integrating dx/dt = v from t=1 to t=0 transports
noise to data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import blocks as B
from . import tensor as T
from .errors import NumericError
from .model import patchify
from .tensor import Tensor


@dataclass
class FlowBatch:
    x0: Optional[np.ndarray]   # clean images in [-1, 1]
    eps: Optional[np.ndarray]  # standard normal noise, same shape
    t: np.ndarray              # per-sample timestep in (0, 1)
    x_t: np.ndarray            # interpolant
    v_t: np.ndarray            # target velocity eps - x0

    def rows(self, start: int, stop: int, with_x0: bool = False) -> "FlowBatch":
        """What a train-step shard reads of samples ``start`` to ``stop``.

        That is ``t``, ``x_t`` and ``v_t``, and ``x0`` (the alignment
        encoder's input) when ``with_x0``; the other fields are None, so a
        request to a shard worker pickles no more than it needs.
        """
        rows = slice(start, stop)
        return FlowBatch(self.x0[rows] if with_x0 else None, None, self.t[rows],
                         self.x_t[rows], self.v_t[rows])


def logit_normal_sampler(mean: float = 0.0, std: float = 1.0) -> Callable:
    """t = sigmoid(z), z ~ N(mean, std): weights mid-trajectory timesteps."""

    def sample(rng: np.random.Generator, n: int) -> np.ndarray:
        z = rng.normal(loc=mean, scale=std, size=n)
        return 1.0 / (1.0 + np.exp(-z))

    return sample


def make_flow_batch(x0: np.ndarray, rng: np.random.Generator,
                    t_sampler: Optional[Callable] = None,
                    t: Optional[np.ndarray] = None) -> FlowBatch:
    """Draw noise and timesteps and build the interpolant for one step.

    ``t`` overrides the sampler (used by tests to pin endpoints).
    """
    x0 = np.asarray(x0)
    n = x0.shape[0]
    eps = rng.standard_normal(size=x0.shape).astype(x0.dtype)
    if t is None:
        t_sampler = t_sampler or logit_normal_sampler()
        t = t_sampler(rng, n)
    t = np.asarray(t, dtype=x0.dtype).reshape(n)
    tb = t.reshape((n,) + (1,) * (x0.ndim - 1))
    x_t = (1.0 - tb) * x0 + tb * eps
    v_t = eps - x0
    return FlowBatch(x0=x0, eps=eps, t=t, x_t=x_t, v_t=v_t)


def loss_diffusion(model, batch: FlowBatch, y: np.ndarray,
                   patch_outs: Optional[list] = None) -> Tensor:
    """Velocity-matching loss: mean squared error over all elements.

    ``patch_outs`` is handed to ``model.forward`` to collect the patch tokens.
    """
    v = model.forward(batch.x_t, batch.t, y, patch_outs=patch_outs)
    err = v - Tensor(batch.v_t.astype(np.asarray(v.data).dtype))
    loss = (err * err).mean()
    if not np.isfinite(loss.data):
        raise NumericError(
            f"diffusion loss is non-finite (t range [{batch.t.min():.4f}, {batch.t.max():.4f}])"
        )
    return loss


# ---------------------------------------------------------------------------
# representation alignment
# ---------------------------------------------------------------------------

def loss_alignment(tokens: Tensor, features: np.ndarray,
                   projector: "AlignmentProjector") -> tuple[Tensor, int]:
    """mean over (B, L) of 1 - cosine(projector(tokens), features), in [0, 2].

    Zero-norm pairs are treated as similarity 0 (loss contribution 1); their
    count is returned beside the loss, and the train step logs it in its row
    of ``TrainState.metrics``.
    """
    proj = projector.apply(tokens)
    feat = Tensor(np.asarray(features, dtype=proj.data.dtype))
    tiny = 1e-20
    pnorm = T.tsqrt((proj * proj).sum(axis=-1, keepdims=True) + Tensor(np.full((1,), tiny, proj.data.dtype)))
    fnorm = np.sqrt((feat.data * feat.data).sum(axis=-1, keepdims=True) + tiny)
    mask = ((pnorm.data > 1e-8) & (fnorm > 1e-8)).astype(proj.data.dtype)
    sim = (proj * feat).sum(axis=-1, keepdims=True) / (pnorm * Tensor(fnorm))
    sim = sim * Tensor(mask)
    return (Tensor(np.ones_like(sim.data)) - sim).mean(), int(mask.size - mask.sum())


class AlignmentProjector:
    """Trainable 2-layer MLP mapping patch tokens to encoder feature width."""

    def __init__(self, patch_dim: int, feature_dim: int, seed: int = 0, dtype=np.float32):
        store = B.ParamStore(np.random.default_rng(seed), dtype=dtype)
        self.fc1 = store.linear("repa.fc1", patch_dim, patch_dim)
        self.fc2 = store.linear("repa.fc2", patch_dim, feature_dim)
        self.params = store.params

    @classmethod
    def of(cls, params: dict[str, Tensor]) -> "AlignmentProjector":
        """The projector whose tensors ``params`` holds by name, as a model's arena does."""
        projector = cls.__new__(cls)
        projector.params = {name: t for name, t in params.items() if name.startswith("repa.")}
        projector.fc1, projector.fc2 = (B.LinearParams(params[f"repa.{n}.w"], params[f"repa.{n}.b"])
                                        for n in ("fc1", "fc2"))
        return projector

    def apply(self, tokens: Tensor) -> Tensor:
        return B.linear(T.silu(B.linear(tokens, self.fc1)), self.fc2)


class ToyAlignmentEncoder:
    """Frozen stand-in for a pretrained feature extractor.

    Projects each p*p patch of the clean image through a fixed seeded random
    matrix and layer-normalizes the result per token. Deterministic and
    gradient-free by construction.
    """

    def __init__(self, patch_size: int, channels: int, feature_dim: int = 32, seed: int = 1234):
        self.patch_size = patch_size
        self.channels = channels
        self.patch_feature_dim = feature_dim
        rng = np.random.default_rng(seed)
        d_in = patch_size * patch_size * channels
        self.weight = rng.normal(scale=1.0 / np.sqrt(d_in), size=(d_in, feature_dim))

    def evaluate(self, images: np.ndarray) -> np.ndarray:
        """(B, C, H, W) clean images -> (B, L, F) per-patch features."""
        tok = patchify(Tensor(np.asarray(images, dtype=np.float64)), self.patch_size).data
        feats = tok @ self.weight
        mu = feats.mean(axis=-1, keepdims=True)
        sd = feats.std(axis=-1, keepdims=True) + 1e-8
        return (feats - mu) / sd
