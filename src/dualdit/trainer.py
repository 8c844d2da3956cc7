"""Optimization loop: AdamW with decoupled weight decay, EMA, gradient
clipping, CSV metrics, and checkpoints that resume bit-exactly.

Reproducibility contract: all stochastic draws of a run come from one
generator whose state is checkpointed, except the per-epoch shuffle, which is
re-derived from (seed, epoch) so a mid-epoch resume sees the same batches.
Each step draws its noise and timesteps, then its label dropout; a step that
raises puts the generator back, so calling ``train`` again redoes it exactly.

Each step splits its batch by ``model.shard_cuts`` and runs the shards'
losses and backwards data-parallel through ``model.run_shards``; the
gradients are summed in shard order. A run's bits therefore depend on the
number of usable cores, as they do on the BLAS build; with one shard the
step is the serial one.

``init_state`` builds every train state. With the representation-alignment
term on, the state holds the alignment projector; its tensors, like every
other trained tensor, are views of the model's arena, which the shard
workers read (``DualLevelModel.share``). Each shard's backward writes its
gradients into a buffer of the same layout. Before it steps a state,
``train`` moves the state's optimizer buffers (``FlatBuffers``) into shared
mappings of that layout on the model (``DualLevelModel.share_buffers``).
The step's tail runs over blocks of whole tensors (``tail_blocks``), each
process of the step over its own span of them (``tail_spans``), in two
phases: A sums the shards' gradients in shard order and returns each
tensor's sum of squares; the caller adds those in the arena's order to the
clip norm; B clips, then applies AdamW and the EMA in place. The elementwise ops round as per-tensor loops do, so
the bits do not depend on the blocks or the spans. A step whose phase B
fails leaves the state half-updated (``TrainState.torn``), and only
``restore_state`` makes it train again. A checkpoint's records are views
of those buffers (``TrainState.records``), so a save reads them and a
resume writes them in place. A shard keeps its heap between steps
(``model.keep_heap``), so that a step's time does not hinge on when its
temporaries are freed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import checkpoint as ckpt
from . import flow as F
from .errors import ConfigError, InputError, NumericError
from .model import (Arena, DualLevelModel, config_from_dict, config_to_dict, keep_heap,
                    shard_cuts, writable)
from .tensor import Tape, Tensor

METRICS_HEADER = "step,loss,loss_diff,loss_repa,grad_norm,lr"


@dataclass
class TrainConfig:
    lr: float = 1e-4
    lr_after_switch: float = 1e-5
    switch_step: Optional[int] = None    # None: never switch
    betas: tuple[float, float] = (0.9, 0.999)
    weight_decay: float = 0.0
    ema_decay: float = 0.9999
    clip_norm: float = 1.0
    clip_after_switch: float = 0.5
    batch_size: int = 64
    total_steps: int = 1000
    class_drop_prob: float = 0.1
    align_weight: float = 0.5            # weight of the representation-alignment loss
    align_tap: Optional[int] = None      # patch block to tap; default min(8, depth)
    align_feature_dim: int = 32
    adam_eps: float = 1e-8
    seed: int = 0
    checkpoint_every: int = 0            # 0: only on demand
    logit_normal_mean: float = 0.0
    logit_normal_std: float = 1.0

    def __post_init__(self):
        b1, b2 = self.betas
        # comparisons, so that NaN fails every one
        ranges = {
            "lr": (self.lr >= 0, ">= 0"),
            "lr_after_switch": (self.lr_after_switch >= 0, ">= 0"),
            "switch_step": (self.switch_step is None or self.switch_step >= 0, "None or >= 0"),
            "betas": (0 <= b1 < 1 and 0 <= b2 < 1, "two values in [0, 1)"),
            "weight_decay": (self.weight_decay >= 0, ">= 0"),
            "ema_decay": (0 <= self.ema_decay < 1, "in [0, 1)"),
            "clip_norm": (self.clip_norm > 0, "> 0"),
            "clip_after_switch": (self.clip_after_switch > 0, "> 0"),
            "batch_size": (self.batch_size >= 1, ">= 1"),
            "total_steps": (self.total_steps >= 0, ">= 0"),
            "class_drop_prob": (0 <= self.class_drop_prob <= 1, "in [0, 1]"),
            "align_weight": (self.align_weight >= 0, ">= 0"),
            "align_feature_dim": (self.align_feature_dim >= 1, ">= 1"),
            "adam_eps": (self.adam_eps > 0, "> 0"),
            "seed": (self.seed >= 0, ">= 0"),
            "checkpoint_every": (self.checkpoint_every >= 0, ">= 0"),
            "logit_normal_std": (self.logit_normal_std >= 0, ">= 0"),
        }
        for name, (ok, allowed) in ranges.items():
            if not ok:
                raise ConfigError(f"{name} must be {allowed}, got {getattr(self, name)!r}")


@dataclass
class FlatBuffers:
    """The optimizer's buffers, each laid out like ``arena``.

    ``grad`` receives each step's gradients; ``m`` and ``v`` are AdamW's
    moments and ``ema`` the parameters' moving average. ``sq`` (float64) and
    ``tmp`` are scratch.
    """
    arena: Arena
    grad: np.ndarray
    m: np.ndarray
    v: np.ndarray
    ema: np.ndarray
    sq: np.ndarray
    tmp: np.ndarray

    @classmethod
    def of(cls, model: DualLevelModel) -> FlatBuffers:
        """The buffers ``train`` shared on ``model`` for the last state it stepped, as this
        process sees them."""
        return cls(model.arena, model.shard_grads(1)[0], **model.buffers)


@dataclass
class TrainState:
    step: int
    rng: np.random.Generator
    flat: FlatBuffers
    projector: Optional[F.AlignmentProjector] = None  # set when the alignment term is on
    skipped_steps: int = 0
    consecutive_bad: int = 0
    metrics: list[dict] = field(default_factory=list)
    torn: bool = False  # a step's update failed part way; only restore_state mends it

    def records(self) -> dict[str, np.ndarray]:
        """The checkpoint records by name ("param.", "adam_m.", "adam_v.", "ema." + tensor):
        views of the arena and of the optimizer's buffers."""
        arena, flat = self.flat.arena, self.flat
        out = {}
        for kind, buf in (("param", arena.flat), ("adam_m", flat.m), ("adam_v", flat.v),
                          ("ema", flat.ema)):
            out.update({f"{kind}.{name}": view for name, view in arena.views(buf).items()})
        return out


# ---------------------------------------------------------------------------
# optimizer pieces: in place over flat buffers; each elementwise op rounds as
# the per-tensor expression in the comment beside it, in its order
# ---------------------------------------------------------------------------

def adamw_step(p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, tmp: np.ndarray,
               step: int, lr: float, betas=(0.9, 0.999), weight_decay: float = 0.0,
               eps: float = 1e-8):
    """Bias-corrected Adam with decoupled weight decay; step counts from 1.

    ``g`` is used up: it holds the step taken before the decay afterwards.
    ``tmp`` is scratch of the same size.
    """
    b1, b2 = betas
    bc1 = 1.0 - b1**step
    bc2 = 1.0 - b2**step
    np.multiply(g, 1.0 - b1, out=tmp)          # m = b1 * m + (1 - b1) * g
    np.multiply(m, b1, out=m)
    np.add(m, tmp, out=m)
    np.multiply(g, 1.0 - b2, out=tmp)          # v = b2 * v + (1 - b2) * g * g
    np.multiply(tmp, g, out=tmp)
    np.multiply(v, b2, out=v)
    np.add(v, tmp, out=v)
    np.divide(v, bc2, out=tmp)                 # p -= lr * ((m / bc1) / (sqrt(v / bc2) + eps))
    np.sqrt(tmp, out=tmp)
    np.add(tmp, eps, out=tmp)
    np.divide(m, bc1, out=g)
    np.divide(g, tmp, out=g)
    np.multiply(g, lr, out=g)
    np.subtract(p, g, out=p)
    if weight_decay:
        np.multiply(p, lr * weight_decay, out=tmp)  # p -= (lr * weight_decay) * p
        np.subtract(p, tmp, out=p)


def ema_update(ema: np.ndarray, p: np.ndarray, decay: float, tmp: np.ndarray):
    np.multiply(p, 1.0 - decay, out=tmp)  # ema = decay * ema + (1 - decay) * p
    np.multiply(ema, decay, out=ema)
    np.add(ema, tmp, out=ema)


# Elements a block of the optimizer tail holds at least. A block's slices of
# the buffers that phase B passes over (gradient, parameters, both moments,
# EMA, scratch: 768 KB at 32K float32 elements) stay in a core's 2 MB L2
# through its 17 passes; whole buffers would go out to memory on each, and
# smaller blocks pay more numpy calls. Desk train step on a 2-core Xeon,
# median ms from the end of the loss shards to the end of the step, 2 cores
# (150 steps) / 1 core (100 steps): 16K 1.30/1.87, 32K 1.26/1.77, 64K
# 1.36/1.65, 128K 1.21/1.74, one block (no split) 2.44/2.20. From 32K to
# 128K the differences are within the noise of repeated runs.
_TAIL_BLOCK = 32768

Block = tuple[slice, list[slice]]  # a block's elements, and the arena parts among them


def tail_blocks(arena: Arena) -> list[Block]:
    """The arena's parts in order, grouped into blocks of at least ``_TAIL_BLOCK`` elements.

    A block runs from its first part's start to the next block's, so the
    blocks cover every element once, alignment gaps included; only the last
    may hold fewer. A part is never split, so its sum of squares is the one
    a whole-tensor sum rounds to.
    """
    blocks, parts, start = [], [], 0
    for i, part in enumerate(arena.parts):
        parts.append(part)
        stop = arena.parts[i + 1].start if i + 1 < len(arena.parts) else arena.flat.size
        if stop - start >= _TAIL_BLOCK or i + 1 == len(arena.parts):
            blocks.append((slice(start, stop), parts))
            parts, start = [], stop
    return blocks


def tail_spans(blocks: list[Block], n: int) -> list[list[Block]]:
    """``blocks`` cut into at most ``n`` contiguous, non-empty spans of about equal size.

    Span i takes the blocks that start in the i-th of ``n`` equal element
    ranges, so a block across a cut goes to the earlier span: the caller's
    span starts first, a worker's after the request reaches it. A span
    left empty is dropped.
    """
    size = blocks[-1][0].stop
    spans = [[] for _ in range(n)]
    for block in blocks:
        spans[block[0].start * n // size].append(block)
    return [span for span in spans if span]


def sum_squares(flat: FlatBuffers, others: list[np.ndarray], blocks: list[Block]) -> list[float]:
    """Phase A of the tail over ``blocks``: each part's float64 sum of squared gradients.

    Adds the other shards' gradient buffers into ``flat.grad`` first, in
    shard order, so that a run's bits do not depend on timing.
    """
    sums = []
    for span, parts in blocks:
        g = writable(flat.grad, span)
        for other in others:
            np.add(g, other[span], out=g)
        np.square(g, out=writable(flat.sq, span), dtype=np.float64)
        sums += [float(flat.sq[part].sum()) for part in parts]
    return sums


def clip_scale(flat: FlatBuffers, sums: list[float],
               max_norm: float) -> tuple[float, Optional[float]]:
    """The gradients' global L2 norm from phase A's sums, and the scale phase B clips them by.

    The sums, one per tensor, add in the arena's order. If the norm is not
    finite, ``NumericError`` names the first tensor whose gradient is not
    (float32 squares cannot overflow a float64 sum). The scale is
    max_norm/norm when the norm exceeds max_norm, else None.
    """
    total = 0.0
    for part_sum in sums:  # not sum(), which compensates the rounding since Python 3.12
        total += part_sum
    if not np.isfinite(total):
        bad = [name for name, g in flat.arena.views(flat.grad).items() if not np.isfinite(g).all()]
        raise NumericError(f"gradient of {bad[0]} non-finite" if bad else "gradient norm overflows")
    norm = float(np.sqrt(total))
    return norm, (max_norm / norm if norm > max_norm else None)


def step_blocks(flat: FlatBuffers, blocks: list[Block], scale: Optional[float], step: int,
                lr: float, cfg: TrainConfig):
    """Phase B of the tail over ``blocks``: clip by ``scale``, then AdamW and the EMA, in place."""
    for span, _ in blocks:
        p, g, m, v, ema, tmp = (writable(buf, span) for buf in (
            flat.arena.flat, flat.grad, flat.m, flat.v, flat.ema, flat.tmp))
        if scale is not None:
            np.multiply(g, scale, out=g)
        adamw_step(p, g, m, v, tmp, step, lr, cfg.betas, cfg.weight_decay, cfg.adam_eps)
        ema_update(ema, p, cfg.ema_decay, tmp)


def _share(model: DualLevelModel, flat: FlatBuffers) -> FlatBuffers:
    """``flat``'s values in fresh buffers shared on ``model``, which every process of the tail
    steps; the workers forked before are stopped (``DualLevelModel.share_buffers``)."""
    model.share_buffers({"m": None, "v": None, "ema": None, "sq": np.float64, "tmp": None})
    shared = FlatBuffers.of(model)
    for name in ("m", "v", "ema"):
        # a zero buffer is left to the new mapping, whose pages then cost nothing until stepped
        if getattr(flat, name).any():
            getattr(shared, name)[...] = getattr(flat, name)
    return shared


def _sum_span(model: DualLevelModel, blocks: list[Block], shards: int) -> list[float]:
    """``sum_squares`` over the model's buffers and its ``shards`` gradient buffers."""
    return sum_squares(FlatBuffers.of(model), model.shard_grads(shards)[1:], blocks)


def _step_span(model: DualLevelModel, blocks: list[Block], *args):
    """``step_blocks`` over the model's buffers."""
    step_blocks(FlatBuffers.of(model), blocks, *args)


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

def _epoch_permutation(seed: int, epoch: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1, epoch)))
    return rng.permutation(n)


def _loss_shard(model: DualLevelModel, batch: F.FlowBatch, y: np.ndarray, weight: float,
                shard: int, align: Optional[tuple[int, float]] = None):
    """One shard of a train step: its (loss_diff, loss_repa, loss, zero_norm_pairs).

    ``batch`` holds the shard's rows as ``FlowBatch.rows`` cuts them. The
    backward of ``weight`` times its loss writes straight into the model's
    gradient buffer ``shard`` (``DualLevelModel.shard_grads``). ``weight``
    is the shard's share of the batch, so that the shards' gradients sum to
    those of the batch mean. ``align`` is (tap, align_weight) when the step
    has the alignment term, computed with the projector in ``model.arena``
    and an encoder of its width. A non-finite loss leaves the gradients
    unwritten.
    """
    keep_heap()
    arena = model.arena
    with Tape() as tape:
        patch_outs = [] if align is not None else None
        loss_diff = F.loss_diffusion(model, batch, y, patch_outs=patch_outs)
        loss, loss_repa, zero_pairs = loss_diff, 0.0, 0
        if align is not None:
            tap, align_weight = align
            projector = F.AlignmentProjector.of(arena.params)
            encoder = F.ToyAlignmentEncoder(model.config.patch_size, model.config.channels,
                                            feature_dim=projector.fc2.w.shape[1])
            feats = encoder.evaluate(batch.x0).astype(model.dtype)
            loss_align, zero_pairs = F.loss_alignment(patch_outs[tap - 1], feats, projector)
            loss = loss_diff + Tensor(np.asarray(align_weight, model.dtype)) * loss_align
            loss_repa = float(loss_align.data)
    losses = (float(loss_diff.data), loss_repa, float(loss.data), zero_pairs)
    if np.isfinite(losses[2]):
        grads = arena.views(model.shard_grads(shard + 1)[shard])
        tape.backward(loss, seed=weight, into=dict(zip(arena.params.values(), grads.values())))
    return losses


def init_state(model: DualLevelModel, cfg: TrainConfig) -> TrainState:
    """A fresh train state for ``model`` under ``cfg``; every train state is built here.

    With ``cfg.align_weight`` positive the state holds the alignment
    projector, seeded by ``cfg.seed``, whose tensors join the model's arena
    (``DualLevelModel.share``). To resume, pass the state to ``restore_state``.
    """
    projector = None
    if cfg.align_weight > 0.0:
        projector = F.AlignmentProjector(model.config.patch_dim, cfg.align_feature_dim,
                                         seed=cfg.seed, dtype=model.dtype)
    model.share({} if projector is None else projector.params)
    arena = model.arena
    # the gradients arrive in the buffer of shard 0, the caller's
    flat = FlatBuffers(arena, model.shard_grads(1)[0], m=arena.like(), v=arena.like(),
                       ema=arena.like(), sq=arena.like(dtype=np.float64), tmp=arena.like())
    flat.ema[...] = arena.flat
    return TrainState(step=0, rng=np.random.default_rng(np.random.PCG64(cfg.seed)), flat=flat,
                      projector=projector)


def _refuse_torn(state: TrainState):
    if state.torn:
        raise ConfigError(
            "the train state was left half-updated by a failed step; load a checkpoint into it "
            "with restore_state"
        )


def save_checkpoint(path, model: DualLevelModel, state: TrainState):
    _refuse_torn(state)
    header = {
        "kind": "train_state",
        "model_config": config_to_dict(model.config),
        "step": state.step,
        "rng_state": state.rng.bit_generator.state,
        "skipped_steps": state.skipped_steps,
        "consecutive_bad": state.consecutive_bad,
    }
    ckpt.save(path, header, state.records())


def load_model(path, dtype=np.float32, use_ema: bool = True) -> DualLevelModel:
    header, arrays = ckpt.load(path)
    model = DualLevelModel(config_from_dict(header["model_config"]), dtype=dtype)
    model.load_state(arrays, "ema." if use_ema else "param.")
    return model


def restore_state(model: DualLevelModel, state: TrainState, path):
    """Load checkpoint ``path`` into ``state``, built by ``init_state`` for ``model``.

    This is how a run resumes: the metric stream then continues exactly
    where the uninterrupted run's would be. Every record and header field
    is checked before any is written, so a bad checkpoint changes nothing.
    """
    header, arrays = ckpt.load(path)
    if header.get("kind") != "train_state":
        raise ConfigError(f"{path} is not a training checkpoint")
    records = state.records()
    checked = {name: ckpt.get_record(arrays, name, view.shape) for name, view in records.items()}
    # fields that change no shape (rope_pixel_pathway, cond_uses_class) pass the record
    # checks; the header holds the config as JSON, where tuples read back as lists
    saved = header.get("model_config", {})
    current = json.loads(json.dumps(config_to_dict(model.config)))
    differ = [k for k in sorted(current.keys() | saved.keys()) if saved.get(k) != current.get(k)]
    if differ:
        raise ConfigError(f"{path} holds another model configuration: " + ", ".join(
            f"{k} saved {saved.get(k)!r}, model {current.get(k)!r}" for k in differ))
    counters = {key: header.get(key) for key in ("step", "skipped_steps", "consecutive_bad")}
    for key, value in counters.items():
        if type(value) is not int or value < 0:
            raise ConfigError(f"{path} holds no count in its header field {key!r}: {value!r}")
    rng = np.random.default_rng(np.random.PCG64())
    try:
        rng.bit_generator.state = header.get("rng_state")
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise ConfigError(f"{path} holds a malformed header field 'rng_state': {exc!r}") from None
    for name, view in records.items():
        view[...] = checked[name]
    state.step, state.skipped_steps, state.consecutive_bad = counters.values()
    state.rng = rng
    state.torn = False
    return state


def _metrics_line(r: dict) -> str:
    return (f"{r['step']},{r['loss']!r},{r['loss_diff']!r},{r['loss_repa']!r},"
            f"{r['grad_norm']!r},{r['lr']!r}\n")


def metrics_to_csv(rows: list[dict]) -> str:
    return METRICS_HEADER + "\n" + "".join(_metrics_line(r) for r in rows)


def _drop_metrics_from(path, step: int):
    """Drop the rows of ``step`` and later from a metrics CSV a resume appends to.

    A run that stopped after its last checkpoint logged those steps already;
    the resumed run logs them again.
    """
    with open(path) as f:
        lines = f.readlines()
    kept = lines[:1] + [
        line for line in lines[1:] if line.endswith("\n") and int(line.split(",", 1)[0]) < step
    ]
    if len(kept) < len(lines):
        tmp = f"{path}.tmp"
        with open(tmp, "w") as f:
            f.writelines(kept)
            f.flush()
            os.fsync(f.fileno())
        ckpt.durable_replace(tmp, path)


def train(model: DualLevelModel, dataset, cfg: TrainConfig, state: Optional[TrainState] = None,
          metrics_path=None, checkpoint_dir=None) -> TrainState:
    """Run the optimization loop until cfg.total_steps.

    ``dataset`` provides .images (N, C, H, W in [-1, 1]) and .labels (N,).
    ``state`` comes from ``init_state`` under the same ``align_weight``, and
    through ``restore_state`` to resume; a fresh one is built when none is
    given. The alignment term compares the state's projector with a frozen
    ``flow.ToyAlignmentEncoder`` of its output width (``_loss_shard``).
    """
    mcfg = model.config
    if state is None:
        state = init_state(model, cfg)
    if state.flat.arena is not model.arena:
        raise ConfigError(
            "the train state's flat buffers no longer back the model's tensors: a later "
            "init_state rebuilt the model's arena; build the state again"
        )
    _refuse_torn(state)
    if (state.projector is not None) != (cfg.align_weight > 0.0):
        raise ConfigError(
            f"align_weight is {cfg.align_weight} but the train state was built "
            f"{'with' if state.projector is not None else 'without'} an alignment projector; "
            "build it with init_state under this config"
        )
    align = None
    if state.projector is not None:
        width = state.projector.fc2.w.shape[1]
        if width != cfg.align_feature_dim:
            raise ConfigError(
                f"align_feature_dim is {cfg.align_feature_dim} but the train state's alignment "
                f"projector outputs {width} features; build it with init_state under this config"
            )
        tap = cfg.align_tap if cfg.align_tap is not None else min(8, mcfg.patch_depth)
        if not 1 <= tap <= mcfg.patch_depth:
            raise ConfigError(
                f"align_tap {tap} outside the patch pathway (depth {mcfg.patch_depth})"
            )
        align = (tap, cfg.align_weight)
    H, W = mcfg.resolution
    blocks = tail_blocks(model.arena)

    images = np.asarray(dataset.images)
    labels = np.asarray(dataset.labels)
    n = images.shape[0]
    batches_per_epoch = n // cfg.batch_size
    if batches_per_epoch < 1:
        raise ConfigError(f"dataset of {n} samples is smaller than one batch ({cfg.batch_size})")
    # checked before the label dropout could hide a bad id behind the null class
    if np.any(labels < 0) or np.any(labels > mcfg.null_class):
        raise InputError(f"dataset labels must lie in [0, {mcfg.null_class}], got {np.unique(labels)}")
    t_sampler = F.logit_normal_sampler(cfg.logit_normal_mean, cfg.logit_normal_std)
    if state.flat.m is not model.buffers.get("m"):
        state.flat = _share(model, state.flat)

    metrics_file = None
    if metrics_path is not None:
        fresh = state.step == 0 or not os.path.exists(metrics_path)
        if not fresh:
            _drop_metrics_from(metrics_path, state.step)
        metrics_file = open(metrics_path, "w" if fresh else "a")
        if fresh:
            metrics_file.write(METRICS_HEADER + "\n")

    try:
        while state.step < cfg.total_steps:
            switched = cfg.switch_step is not None and state.step >= cfg.switch_step
            lr = cfg.lr_after_switch if switched else cfg.lr
            max_norm = cfg.clip_after_switch if switched else cfg.clip_norm

            epoch = state.step // batches_per_epoch
            slot = state.step % batches_per_epoch
            perm = _epoch_permutation(cfg.seed, epoch, n)
            idx = perm[slot * cfg.batch_size:(slot + 1) * cfg.batch_size]
            x0 = images[idx]
            y = labels[idx]

            bad = None
            # zero_norm_pairs: alignment pairs taken as similarity 0; not in the CSV
            row = {"step": state.step, "loss": float("nan"), "loss_diff": float("nan"),
                   "loss_repa": 0.0, "grad_norm": 0.0, "lr": lr, "zero_norm_pairs": 0}
            rng_state = state.rng.bit_generator.state
            try:
                batch = F.make_flow_batch(x0, state.rng, t_sampler)
                if cfg.class_drop_prob > 0.0:
                    # classifier-free guidance: some labels become the null class
                    y = np.where(state.rng.random(len(y)) < cfg.class_drop_prob, mcfg.null_class, y)
                cuts = shard_cuts(len(y), H * W)
                parts = [(batch.rows(a, b, with_x0=align is not None), y[a:b], (b - a) / len(y),
                          i, align)
                         for i, (a, b) in enumerate(cuts)]
                shard_losses = model.run_shards(_loss_shard, parts)
                for i, key in enumerate(("loss_diff", "loss_repa", "loss")):
                    row[key] = sum((b - a) / len(y) * losses[i]
                                   for (a, b), losses in zip(cuts, shard_losses))
                row["zero_norm_pairs"] = sum(losses[3] for losses in shard_losses)
                if not all(np.isfinite(losses[2]) for losses in shard_losses):
                    raise NumericError("loss non-finite")
                spans = tail_spans(blocks, len(parts))
                sums = model.run_shards(_sum_span, [(span, len(parts)) for span in spans])
                row["grad_norm"], scale = clip_scale(state.flat, sum(sums, []), max_norm)
            except NumericError as exc:
                bad = exc
            except BaseException:
                # the step did not happen, so a retry must redraw the same noise and dropout
                state.rng.bit_generator.state = rng_state
                raise

            if bad is not None:
                state.skipped_steps += 1
                state.consecutive_bad += 1
                if state.consecutive_bad >= 10:
                    raise NumericError(
                        f"{state.consecutive_bad} consecutive steps skipped (step {state.step}, "
                        f"lr {lr}, skipped {state.skipped_steps} total), the last for: {bad}"
                    ) from bad
            else:
                state.consecutive_bad = 0
                state.torn = True  # until every span has stepped
                model.run_shards(_step_span, [(span, scale, state.step + 1, lr, cfg)
                                              for span in spans])
                state.torn = False

            state.metrics.append(row)
            if metrics_file is not None:
                metrics_file.write(_metrics_line(row))
            state.step += 1
            if checkpoint_dir is not None and cfg.checkpoint_every > 0 \
                    and state.step % cfg.checkpoint_every == 0:
                if metrics_file is not None:
                    metrics_file.flush()  # the rows a resume from this checkpoint keeps
                save_checkpoint(os.path.join(checkpoint_dir, f"step{state.step:08d}.ckpt"),
                                model, state)
        if checkpoint_dir is not None:
            save_checkpoint(os.path.join(checkpoint_dir, "final.ckpt"), model, state)
    finally:
        if metrics_file is not None:
            metrics_file.close()
    return state
