"""Optimization loop: AdamW with decoupled weight decay, EMA, gradient
clipping, CSV metrics, and checkpoints that resume bit-exactly.

Reproducibility contract: all stochastic draws of a run come from one
generator whose state is checkpointed, except the per-epoch shuffle, which is
re-derived from (seed, epoch) so a mid-epoch resume sees the same batches.
Each step draws its noise and timesteps, then its label dropout; a step that
raises puts the generator back, so calling ``train`` again redoes it exactly.

Each step runs its shards' losses and backwards, then the optimizer tail,
through the data-parallel runtime (``shards``), whose docstring tells how
the work splits and what that does to the bits. ``init_state`` builds every
train state, and with it a new arena on the model (``shards.share``); a
state built before a later ``init_state`` on the same model is refused by
``train``, ``save_checkpoint`` and ``restore_state``. A step whose phase B
fails leaves the state half-updated (``TrainState.torn``), and only
``restore_state`` makes it train again. A checkpoint's records are views of
the arena's buffers (``TrainState.records``), so a save reads them and a
resume writes them in place.

``save_checkpoint`` returns once the file durably holds the new checkpoint.
Saving over an earlier one, as a run that keeps only its latest does, leaves
the freeing of the replaced file to a short-lived thread
(``checkpoint.durable_replace``), so the next step need not wait for the
filesystem to discard its blocks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import checkpoint as ckpt
from . import flow as F
from . import shards
from .errors import ConfigError, InputError, NumericError, ParseError
from .model import DualLevelModel, config_from_dict, config_to_dict
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
class TrainState:
    step: int
    rng: np.random.Generator
    arena: shards.Arena  # the model's when init_state built the state; holds the optimizer's buffers
    projector: Optional[F.AlignmentProjector] = None  # set when the alignment term is on
    skipped_steps: int = 0
    consecutive_bad: int = 0
    metrics: list[dict] = field(default_factory=list)
    torn: bool = False  # a step's update failed part way; only restore_state mends it

    def records(self) -> dict[str, np.ndarray]:
        """The checkpoint records by name ("param.", "adam_m.", "adam_v.", "ema." + tensor):
        views of the arena's buffers."""
        arena = self.arena
        out = {}
        for kind, buf in (("param", arena.flat), ("adam_m", arena.m), ("adam_v", arena.v),
                          ("ema", arena.ema)):
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


def clip_scale(arena: shards.Arena, sums: list[float],
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
        bad = [name for name, g in arena.views(arena.grads[0]).items() if not np.isfinite(g).all()]
        raise NumericError(f"gradient of {bad[0]} non-finite" if bad else "gradient norm overflows")
    norm = float(np.sqrt(total))
    return norm, (max_norm / norm if norm > max_norm else None)


def step_blocks(arena: shards.Arena, blocks: list[shards.Block], scale: Optional[float],
                step: int, lr: float, cfg: TrainConfig):
    """Phase B of the tail over ``blocks``: clip by ``scale``, then AdamW and the EMA, in place."""
    for span, _ in blocks:
        p, g, m, v, ema = (shards.writable(buf, span) for buf in (
            arena.flat, arena.grads[0], arena.m, arena.v, arena.ema))
        tmp = np.empty_like(g)
        if scale is not None:
            np.multiply(g, scale, out=g)
        adamw_step(p, g, m, v, tmp, step, lr, cfg.betas, cfg.weight_decay, cfg.adam_eps)
        ema_update(ema, p, cfg.ema_decay, tmp)


def _step_span(model: DualLevelModel, blocks: list[shards.Block], *args):
    """``step_blocks`` over the model's arena."""
    step_blocks(model.arena, blocks, *args)


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
    backward of ``weight`` times its loss writes straight into the arena's
    gradient buffer ``shard``, which ``shards.run`` made. ``weight``
    is the shard's share of the batch, so that the shards' gradients sum to
    those of the batch mean. ``align`` is (tap, align_weight) when the step
    has the alignment term, computed with the projector in ``model.arena``
    and an encoder of its width. A non-finite loss leaves the gradients
    unwritten.
    """
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
        grads = arena.views(arena.grads[shard])
        tape.backward(loss, seed=weight, into=dict(zip(arena.params.values(), grads.values())))
    return losses


def init_state(model: DualLevelModel, cfg: TrainConfig) -> TrainState:
    """A fresh train state for ``model`` under ``cfg``; every train state is built here.

    With ``cfg.align_weight`` positive the state holds the alignment
    projector, seeded by ``cfg.seed``. Each call builds the model a new
    arena over its parameters and the projector's (``shards.share``), whose
    buffers the state steps; a state built before is then refused. To
    resume, pass the state to ``restore_state``.
    """
    projector = None
    if cfg.align_weight > 0.0:
        projector = F.AlignmentProjector(model.config.patch_dim, cfg.align_feature_dim,
                                         seed=cfg.seed, dtype=model.dtype)
    arena = shards.share(model, {} if projector is None else projector.params)
    arena.ema[...] = arena.flat
    return TrainState(step=0, rng=np.random.default_rng(np.random.PCG64(cfg.seed)), arena=arena,
                      projector=projector)


def _refuse_stale(model: DualLevelModel, state: TrainState):
    if state.arena is not model.arena:
        raise ConfigError(
            "the train state's buffers no longer back the model's tensors: a later init_state "
            "built the model a new arena; build the state again"
        )


def _refuse_torn(state: TrainState):
    if state.torn:
        raise ConfigError(
            "the train state was left half-updated by a failed step; load a checkpoint into it "
            "with restore_state"
        )


def save_checkpoint(path, model: DualLevelModel, state: TrainState):
    _refuse_stale(model, state)
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


def load_model(checkpoint, dtype=np.float32, use_ema: bool = True) -> DualLevelModel:
    """The model a checkpoint holds: ``checkpoint`` is its path, or the bytes of its file."""
    header, arrays = ckpt.parse(checkpoint) if isinstance(checkpoint, bytes) else ckpt.load(checkpoint)
    return DualLevelModel.from_records(config_from_dict(header.get("model_config")), arrays,
                                       "ema." if use_ema else "param.", dtype=dtype)


def restore_state(model: DualLevelModel, state: TrainState, path):
    """Load checkpoint ``path`` into ``state``, built by ``init_state`` for ``model``.

    This is how a run resumes: the metric stream then continues exactly
    where the uninterrupted run's would be. Every record and header field
    is checked before any is written, so a bad checkpoint changes nothing.
    """
    _refuse_stale(model, state)
    header, arrays = ckpt.load(path)
    if header.get("kind") != "train_state":
        raise ConfigError(f"{path} is not a training checkpoint")
    records = state.records()
    checked = {name: ckpt.get_record(arrays, name, view.shape) for name, view in records.items()}
    # fields that change no shape (rope_pixel_pathway, cond_uses_class) pass the record checks
    saved = config_to_dict(config_from_dict(header.get("model_config")))
    current = config_to_dict(model.config)
    differ = [k for k in current if saved[k] != current[k]]
    if differ:
        raise ConfigError(f"{path} holds another model configuration: " + ", ".join(
            f"{k} saved {saved[k]!r}, model {current[k]!r}" for k in differ))
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
    kept = lines[:1]
    for number, line in enumerate(lines[1:], 2):
        if not line.endswith("\n"):
            continue  # a row cut short when the run stopped
        field = line.split(",", 1)[0]
        try:
            if int(field) < step:
                kept.append(line)
        except ValueError:
            raise ParseError(f"{path} line {number}: step {field!r} is not an integer") from None
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
    _refuse_stale(model, state)
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
    blocks = shards.tail_blocks(state.arena)

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
                cuts = shards.shard_cuts(len(y), H * W)
                parts = [(batch.rows(a, b, with_x0=align is not None), y[a:b], (b - a) / len(y),
                          i, align)
                         for i, (a, b) in enumerate(cuts)]
                shard_losses = shards.run(model, _loss_shard, parts)
                for i, key in enumerate(("loss_diff", "loss_repa", "loss")):
                    row[key] = sum((b - a) / len(y) * losses[i]
                                   for (a, b), losses in zip(cuts, shard_losses))
                row["zero_norm_pairs"] = sum(losses[3] for losses in shard_losses)
                if not all(np.isfinite(losses[2]) for losses in shard_losses):
                    raise NumericError("loss non-finite")
                spans = shards.tail_spans(blocks, len(parts))
                sums = shards.run(model, shards._sum_span, [(span, len(parts)) for span in spans])
                row["grad_norm"], scale = clip_scale(state.arena, sum(sums, []), max_norm)
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
                shards.run(model, _step_span, [(span, scale, state.step + 1, lr, cfg)
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
