"""The dual-level diffusion transformer.

A patch-level pathway (N blocks over coarse patch tokens) captures global
semantics; its output, summed with the timestep embedding, conditions a
pixel-level pathway (M blocks over one token per pixel) through per-pixel
AdaLN modulation. Inside each pixel block the p*p pixel tokens of a patch
are compacted to k learned tokens before global attention and expanded back
afterwards, so attention always runs over k*(H/p)*(W/p) tokens.
"""

from __future__ import annotations

import ctypes
import functools
import mmap
import multiprocessing
import os
import signal
import threading
import weakref
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from . import blocks as B
from . import checkpoint as ckpt
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
        self.config = config
        self.dtype = np.dtype(dtype)
        store = B.ParamStore(np.random.default_rng(seed), dtype=dtype)
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
        self.patch_rope = B.rope_tables(B.grid_positions(*cfg.grid), head_dim, self.dtype)

        self.pit_blocks: list[PitBlockParams] = []
        if cfg.variant == "vanilla_dit":
            self.patch_head = store.linear("patch_head", D, p * p * C, init="zeros")
        else:
            self.pixel_embed = store.linear("pixel_embed", C, Dp)
            mod_width = self._mod_group_count() * 6 * Dp
            has_attn = cfg.variant != "no_pixel_attention"
            for i in range(cfg.pixel_depth):
                blk = PitBlockParams(
                    mod=store.linear(f"pit.{i}.mod", D, mod_width, init="zeros"),
                    mlp=B.make_mlp_params(store, f"pit.{i}.mlp", Dp),
                )
                B.init_modulation_head(blk.mod, Dp)
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
                                                head_dim, self.dtype)

        self.params = store.params
        self._arena: Optional[Arena] = None
        # forked copies that run the other shards of run_shards, started by its first call
        self._shard_workers: list[_ShardWorker] = []

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
        """Map conditioning rows through the block's head into the six groups.

        Pixel-wise heads emit p*p distinct rows per token; patch-wise/global
        heads emit one row that broadcasts over the pixel axis.
        """
        cfg = self.config
        rows = self._mod_group_count()
        theta = B.linear(cond_flat, blk.mod)
        theta = theta.reshape(theta.shape[0], rows, 6 * cfg.pixel_dim)
        return B.split_modulation(theta, cfg.pixel_dim)

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

    def run_shards(self, fn, parts: list[tuple]) -> list:
        """``fn(self, *part)`` for each part, in parallel; the results in part order.

        A single part runs here, as a plain call. With more, this process
        runs the first part and forked copies of the model (kept on it,
        forked by the first call that needs them) the others, all with
        OpenBLAS on one thread. Sampling runs a shard's trajectories through
        it, the train step a shard's loss and backward. ``fn`` must be a
        module-level function, since it reaches a worker by reference. The
        BLAS thread count is process-wide, so one sharded call runs at a
        time: a call waits for another thread's shards. A part's exception
        is raised here, that of the first part in order when several raise.
        """
        if len(parts) == 1:
            return [fn(self, *parts[0])]
        with _SHARD_LOCK:
            get_threads, set_threads = _openblas_threads()
            threads = get_threads()
            workers = self._shard_workers
            others = len(parts) - 1
            replied = False
            try:
                if len(self.arena.grads) < len(parts):
                    # a worker sees only the mappings made before it is forked, and
                    # the optimizer tail reads every shard's gradient buffer
                    self._stop_workers()
                    self.shard_grads(len(parts))
                while len(workers) < others:
                    workers.append(_ShardWorker(self))
                # each shard's GEMMs on several BLAS threads would oversubscribe the cores
                set_threads(1)
                for worker, part in zip(workers, parts[1:]):
                    worker.submit(fn, part)
                try:
                    first = fn(self, *parts[0])
                finally:
                    # also when the first part raised, so that no reply is left unread
                    replies = [worker.reply() for worker in workers[:others]]
                    replied = True
            finally:
                set_threads(threads)
                if not replied:
                    # a worker died or the wait was interrupted: a later reply could
                    # answer the wrong request, so the next call forks fresh ones
                    self._stop_workers()
        for ok, value in replies:
            if not ok:
                raise value
        return [first] + [value for _, value in replies]

    # -- parameter plumbing --------------------------------------------------

    @property
    def arena(self) -> Arena:
        """Every trained tensor and every buffer of a train step, in shared mappings built by
        the first use, or by ``share``.

        A worker forked afterwards reads the current values from them with no
        copy. ``load_model`` never builds it, so loading stays cheap.
        """
        if self._arena is None:
            self.share({})
        return self._arena

    def share(self, tensors: dict[str, Tensor]):
        """Build a new arena over the parameters and ``tensors`` (say, the alignment projector's).

        A worker sees only the mappings made before it is forked, so the
        workers forked over the old arena are stopped, and the next sharded
        call forks fresh ones.
        """
        self._arena = Arena({**self.params, **tensors})
        self._stop_workers()

    def _stop_workers(self):
        for worker in self._shard_workers:
            worker.close()
        self._shard_workers.clear()

    def shard_grads(self, n: int) -> list[np.ndarray]:
        """The gradient buffers of shards 0 to n-1 of ``run_shards``: the arena's, grown to n.

        Shard i writes buffer i whichever process runs it; ``run_shards``
        grows them before it forks a worker.
        """
        grads = self.arena.grads
        while len(grads) < n:
            grads.append(self.arena.like())
        return grads[:n]

    def num_params(self) -> int:
        return sum(t.size for t in self.params.values())

    def load_state(self, arrays: dict[str, np.ndarray], prefix: str):
        """Copy record ``prefix + name`` of ``arrays`` into each parameter."""
        for name, t in self.params.items():
            t.data[...] = ckpt.get_record(arrays, prefix + name, t.shape)


# ---------------------------------------------------------------------------
# data parallelism
# ---------------------------------------------------------------------------

# Pixel tokens (batch x H x W) each shard must keep. Desk model
# (16x16, p=4, float32) on a 2-core Xeon, median ms of one forward run
# serially / split into two shards (one in a worker, a join per forward),
# blocks of 8 calls 0.3 s apart, two runs:
#   B=8  (1024 per shard)   8.1/5.6
#   B=16 (2048 per shard)  12.3/8.2   13.7/9.7
#   B=24 (3072 per shard)  17.3/10.8  20.0/12.8
#   B=32 (4096 per shard)  24.0/16.9  27.1/17.0
#   B=64 (8192 per shard)  42.0/28.2  51.6/31.6
# Sharding pays at every size tried, so the floor is set by the bits: smaller
# shards move some GEMMs under OpenBLAS's small-matrix kernel cut
# (M*N*K <= 1e6 on this Xeon), which rounds differently. Desk batches of 2,
# 3 and 16 to 31 split in two changed bits; every batch tried from 32 to 513
# kept them.
_MIN_SHARD_PIXELS = 4096

_SHARD_LOCK = threading.Lock()


def shard_cuts(batch: int, pixels: int) -> list[tuple[int, int]]:
    """Row ranges of the contiguous shards a batch of images of ``pixels`` pixels splits into.

    One shard per usable core as long as each keeps ``_MIN_SHARD_PIXELS``
    pixel tokens; shard i covers rows batch*i//n to batch*(i+1)//n. A single
    shard while a tape records (a taped call builds its graph in this
    process, and a worker forked then would copy the records) or when no
    OpenBLAS thread setter is found.
    """
    n = 1
    if T.active_tape() is None and _openblas_threads() is not None:
        per_shard = -(-_MIN_SHARD_PIXELS // pixels)
        n = max(1, min(len(os.sched_getaffinity(0)), batch // per_shard))
    return [(batch * i // n, batch * (i + 1) // n) for i in range(n)]


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy loaded; None if not found."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@functools.cache
def keep_heap():
    """Have glibc keep the heap a train step frees for the next step, not fault it in again."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD, its largest value
        mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD, above a B=64 shard's temporaries


class _ShardWorker:
    """A forked copy of a model that runs shards of its batches for it.

    Threads would run the shards under one GIL and hand it over some hundred
    times per forward, each hand-over a sleep and a wake of a core, whose
    cost moves with the load on the machine; a process meets its parent
    twice per shard. The copy's parameters are views of the model's arena,
    so it computes with the caller's current values. It may write them, and
    the arena's optimizer buffers, only through ``writable``: the optimizer
    tail steps its own span of them there.
    """

    def __init__(self, model: DualLevelModel):
        self._conn, child = multiprocessing.Pipe()
        self.pid = os.fork()
        if self.pid == 0:
            code = 1
            try:
                self._conn.close()
                # the parent's other workers are not this process's to stop
                for worker in list(_WORKERS):
                    worker._finalizer.detach()
                    worker._conn.close()
                self._serve(model, child)
                code = 0
            finally:
                os._exit(code)
        child.close()
        self._finalizer = weakref.finalize(self, _stop_worker, self._conn, self.pid)
        _WORKERS.add(self)

    def submit(self, fn, part: tuple):
        """Ask for ``fn(model, *part)``."""
        try:
            self._conn.send((fn, part))
        except OSError:
            raise self._exited() from None

    def reply(self) -> tuple[bool, object]:
        """(True, the shard's result) or (False, the exception it raised)."""
        try:
            return self._conn.recv()
        except (EOFError, OSError):
            raise self._exited() from None

    def _exited(self) -> RuntimeError:
        return RuntimeError(f"shard worker {self.pid} exited")

    def close(self):
        self._finalizer()

    @staticmethod
    def _serve(model: DualLevelModel, conn):
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupted parent closes the socket
        _openblas_threads()[1](1)
        # a shard that wrote a parameter or an optimizer buffer would change it
        # under every process
        arena = model.arena
        for buf in (arena.flat, arena.m, arena.v, arena.ema, arena.sq, arena.tmp):
            buf.flags.writeable = False
        for t in arena.params.values():
            t.data.flags.writeable = False
        while True:
            try:
                fn, part = conn.recv()
            except EOFError:
                return
            try:
                reply = (True, fn(model, *part))
            except Exception as exc:
                reply = (False, exc)
            try:
                conn.send(reply)
            except Exception as exc:  # an exception that does not pickle
                conn.send((False, RuntimeError(f"shard: {type(exc).__name__}: {exc}")))


_WORKERS: weakref.WeakSet[_ShardWorker] = weakref.WeakSet()


def writable(buf: np.ndarray, span: slice) -> np.ndarray:
    """``buf[span]`` as a view that may be written, also where ``buf`` is a worker's read-only
    view of a shared buffer: how a shard writes the arena's span it owns."""
    view = buf[span]
    view.flags.writeable = True
    return view


def _stop_worker(conn, pid: int):
    conn.close()
    try:
        os.kill(pid, signal.SIGTERM)
        os.waitpid(pid, 0)
    except (ProcessLookupError, ChildProcessError):
        pass


class Arena:
    """Every buffer of a train step, each laid out like ``flat``, which packs the tensors.

    Each tensor's ``data`` is a view of its part of ``flat``. ``grads``
    holds shard i's gradients in buffer i (one to start with; see
    ``DualLevelModel.shard_grads``), ``m`` and ``v`` AdamW's moments,
    ``ema`` the tensors' moving average, and ``tmp`` and ``sq`` (float64)
    the optimizer's scratch. One numpy call does elementwise work over all
    the tensors, and ``views`` gives each tensor's part. Each part starts on
    a 64-byte boundary: packed end to end, a desk forward at B=32 ran 3%
    slower, its SIMD loads split across cache lines. The gaps hold zeros,
    which the optimizer keeps zero.
    """

    def __init__(self, params: dict[str, Tensor]):
        self.params = dict(params)
        self.dtype = next(iter(self.params.values())).dtype
        line = 64 // self.dtype.itemsize
        starts = np.cumsum([0] + [-(-t.size // line) * line for t in self.params.values()]).tolist()
        self.parts = [slice(a, a + t.size) for t, a in zip(self.params.values(), starts)]
        self._size = starts[-1]
        self.flat = self.like()
        for t, view in zip(self.params.values(), self.views(self.flat).values()):
            view[...] = t.data
            t.data = view
        self.grads = [self.like()]
        self.m, self.v, self.ema, self.tmp = (self.like() for _ in range(4))
        self.sq = self.like(np.float64)

    def like(self, dtype=None) -> np.ndarray:
        """A zeroed buffer of this layout, of the tensors' dtype unless given.

        It is an anonymous shared mapping of its own: the processes forked
        after it is made read and write it in common. It stays out of the
        malloc heap, and its pages cost nothing until touched.
        """
        dtype = np.dtype(dtype or self.dtype)
        mapping = mmap.mmap(-1, max(self._size * dtype.itemsize, 1), flags=mmap.MAP_SHARED)
        return np.frombuffer(mapping, dtype, self._size)

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each tensor's part of ``flat``, by name, in the tensor's shape."""
        return {name: flat[part].reshape(t.shape)
                for (name, t), part in zip(self.params.items(), self.parts)}


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
