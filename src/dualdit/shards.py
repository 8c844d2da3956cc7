"""The data-parallel runtime: a batch's shards in forked workers, over one shared arena.

``run(model, fn, parts)`` calls ``fn(model, *part)`` for each part: this
process runs the first and forked copies of the model the others.
``shard_cuts`` splits a batch. Sampling makes one call per batch; a train
step makes three: the shards' losses and backwards, then phases A and B of
the optimizer tail. A run's bits therefore depend on the number of usable
cores, as they do on the BLAS build; with one shard a step is the serial one.

The arena (``Arena``) is a set of shared mappings: every trained tensor
(the alignment projector's too, when the term is on) and, in the same
layout, the shards' gradients, AdamW's moments and the EMA. The tail's
scratch is each process's own, taken per block from the heap that
``keep_heap`` keeps, where a shard's freed activations already hold the
pages. ``share`` builds a model a new
one; ``run`` builds one on the first sharded call of a model that has none
(``trainer.load_model`` builds none, so loading stays cheap). A worker sees
only the mappings made before its fork, so the workers belong to the arena
they were forked over: replacing an arena (``share``) or growing its
gradient buffers (``Arena.grow``) stops its workers, and the next sharded
call forks fresh ones.

The tail runs over blocks of whole tensors (``tail_blocks``), each process
of the step over its own span of them (``tail_spans``), and writes the
shared buffers only there (``writable``). Phase A (``sum_squares``) sums
the shards' gradients in shard order and returns each tensor's sum of
squares, which the caller adds in the arena's order to the clip norm; phase
B (``trainer.step_blocks``) clips, then applies AdamW and the EMA in place.
The elementwise ops round as per-tensor loops do, so the bits do not
depend on the blocks or the spans.
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

import numpy as np

from . import tensor as T
from .tensor import Tensor

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


def run(model, fn, parts: list[tuple]) -> list:
    """``fn(model, *part)`` for each part, in parallel; the results in part order.

    A single part runs here, as a plain call. With more, this process runs
    the first part and the workers of the model's arena the others, all
    with OpenBLAS on one thread; the arena is built first if the model has
    none, and grown to a gradient buffer per part, and the workers it lacks
    are forked. ``fn`` must be a module-level function, since it reaches a
    worker by reference. The BLAS thread count is process-wide, so one
    sharded call runs at a time: a call waits for another thread's shards.
    A part's exception is raised here, that of the first part in order when
    several raise. Every process that runs a shard keeps its heap
    (``keep_heap``): this one from its first call, a worker from its fork.
    """
    keep_heap()
    if len(parts) == 1:
        return [fn(model, *parts[0])]
    with _SHARD_LOCK:
        get_threads, set_threads = _openblas_threads()
        threads = get_threads()
        arena = model.arena if model.arena is not None else share(model, {})
        others = len(parts) - 1
        replied = False
        try:
            arena.grow(len(parts))  # the optimizer tail reads every shard's gradient buffer
            workers = arena.workers
            while len(workers) < others:
                workers.append(_ShardWorker(model))
            # each shard's GEMMs on several BLAS threads would oversubscribe the cores
            set_threads(1)
            for worker, part in zip(workers, parts[1:]):
                worker.submit(fn, part)
            try:
                first = fn(model, *parts[0])
            finally:
                # also when the first part raised, so that no reply is left unread
                replies = [worker.reply() for worker in workers[:others]]
                replied = True
        finally:
            set_threads(threads)
            if not replied:
                # a worker died or the wait was interrupted: a later reply could
                # answer the wrong request, so the next call forks fresh ones
                arena.stop_workers()
    for ok, value in replies:
        if not ok:
            raise value
    return [first] + [value for _, value in replies]


def share(model, tensors: dict[str, Tensor]) -> Arena:
    """Build ``model`` a new arena over its parameters and ``tensors`` (say, the alignment
    projector's), and return it; the old arena's workers, which do not see it, are stopped."""
    old = model.arena
    model.arena = Arena({**model.params, **tensors})
    if old is not None:
        old.stop_workers()
    return model.arena


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
    """Have glibc keep the heap a shard frees for the next shard, not fault it in again."""
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

    def __init__(self, model):
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
    def _serve(model, conn):
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupted parent closes the socket
        _openblas_threads()[1](1)
        # a shard that wrote a parameter or an optimizer buffer would change it
        # under every process
        arena = model.arena
        for buf in (arena.flat, arena.m, arena.v, arena.ema):
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
    """The shared buffers of a train step, each laid out like ``flat``, which packs the tensors.

    Each tensor's ``data`` is a view of its part of ``flat``. ``grads``
    holds shard i's gradients in buffer i (one to start with; see
    ``grow``), ``m`` and ``v`` AdamW's moments and ``ema`` the tensors'
    moving average; the optimizer's scratch is not shared. One numpy call
    does elementwise work over all the tensors, and ``views`` gives each
    tensor's part. Each part starts on a 64-byte boundary: packed end to
    end, a desk forward at B=32 ran 3% slower, its SIMD loads split across
    cache lines. The gaps hold zeros, which the optimizer keeps zero.
    ``workers``, forked over these buffers, run the shards of ``run`` after
    the first; a worker exits when its arena stops it or is collected.
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
        self.m, self.v, self.ema = (self.like() for _ in range(3))
        self.workers: list[_ShardWorker] = []

    def like(self) -> np.ndarray:
        """A zeroed buffer of this layout, of the tensors' dtype.

        It is an anonymous shared mapping of its own: the processes forked
        after it is made read and write it in common. It stays out of the
        malloc heap, and its pages cost nothing until touched.
        """
        mapping = mmap.mmap(-1, max(self._size * self.dtype.itemsize, 1), flags=mmap.MAP_SHARED)
        return np.frombuffer(mapping, self.dtype, self._size)

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each tensor's part of ``flat``, by name, in the tensor's shape."""
        return {name: flat[part].reshape(t.shape)
                for (name, t), part in zip(self.params.items(), self.parts)}

    def grow(self, n: int):
        """At least ``n`` gradient buffers; adding any stops the workers, which would not see it."""
        if len(self.grads) < n:
            self.stop_workers()
            self.grads += [self.like() for _ in range(n - len(self.grads))]

    def stop_workers(self):
        for worker in self.workers:
            worker.close()
        self.workers.clear()


# ---------------------------------------------------------------------------
# the optimizer tail's partition of the arena
# ---------------------------------------------------------------------------

# Elements a block of the optimizer tail holds at least. A block's slices of
# the buffers that phase B passes over (gradient, parameters, both moments,
# EMA, and the block's own scratch: 768 KB at 32K float32 elements; phase A's
# float64 squares take 256 KB beside the gradient) stay in a core's 2 MB L2
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


def sum_squares(arena: Arena, shards: int, blocks: list[Block]) -> list[float]:
    """Phase A of the tail over ``blocks``: each part's float64 sum of squared gradients.

    Adds the gradient buffers of shards 1 to ``shards`` - 1 into that of
    shard 0 first, in shard order, so that a run's bits do not depend on
    timing.
    """
    sums = []
    for span, parts in blocks:
        g = writable(arena.grads[0], span)
        for other in arena.grads[1:shards]:
            np.add(g, other[span], out=g)
        sq = np.square(g, dtype=np.float64)
        sums += [float(sq[part.start - span.start:part.stop - span.start].sum()) for part in parts]
    return sums


def _sum_span(model, blocks: list[Block], shards: int) -> list[float]:
    """``sum_squares`` over the model's arena."""
    return sum_squares(model.arena, shards, blocks)
