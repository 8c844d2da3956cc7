"""Dense tensors with reverse-mode differentiation on an explicit tape.

Storage is a row-major numpy array (float32 or float64). Operations record
themselves on the innermost active ``Tape``; ``Tape.backward`` replays the
records in reverse and *accumulates* into ``.grad`` buffers, which the caller
zeroes explicitly. Verification helpers (``grad_check``) compare analytic
gradients against central finite differences and are only meaningful in
double precision.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NumericError, ShapeError

_TLS = threading.local()


def _tape_stack():
    stack = getattr(_TLS, "tapes", None)
    if stack is None:
        stack = []
        _TLS.tapes = stack
    return stack


def active_tape():
    """Innermost active tape of the current thread, or None."""
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tensor:
    """A dense N-d array, optionally participating in gradient recording.

    The data buffer is treated as immutable once the tensor has entered a
    taped computation; only ``grad`` (and optimizer-driven parameter updates
    between steps) are mutated in place.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g: np.ndarray):
        if self.grad is None:
            # copy: backward closures may hand the same buffer to several inputs
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    def check_finite(self, what: str = "tensor"):
        """Explicit NaN/Inf detection; raises NumericError on failure."""
        if not np.all(np.isfinite(self.data)):
            bad = int(np.count_nonzero(~np.isfinite(self.data)))
            raise NumericError(f"{what} contains {bad} non-finite value(s)")
        return self

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype}{flag})"

    # operator sugar; the named functions below do the work
    def __add__(self, other):
        return add(self, _as_tensor(other, self.dtype))

    def __radd__(self, other):
        return add(_as_tensor(other, self.dtype), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other, self.dtype))

    def __rsub__(self, other):
        return sub(_as_tensor(other, self.dtype), self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, other)
        return mul(self, _as_tensor(other, self.dtype))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, 1.0 / other)
        return div(self, _as_tensor(other, self.dtype))

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other, self.dtype))

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 or isinstance(shape[0], int) else shape[0])

    def transpose(self, *axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


class Tape:
    """Ordered record of primitive applications for one logical thread.

    Each record is ``(output, inputs, backward_fn)`` where ``backward_fn``
    maps the output gradient to a tuple of input gradients (None for
    non-differentiable slots). Records are appended in execution order, so
    every input of a record precedes it; ``backward`` visits each record
    exactly once in reverse.
    """

    def __init__(self):
        self.records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc):
        popped = _tape_stack().pop()
        assert popped is self, "tape stack corrupted"
        return False

    def __len__(self):
        return len(self.records)

    def backward(self, output: Tensor, seed: Optional[np.ndarray] = None):
        """Accumulate d(output)/d(leaf) into .grad of every recorded tensor."""
        if seed is None:
            if output.size != 1:
                raise ShapeError(
                    f"backward without a seed requires a scalar output, got shape {tuple(output.shape)}"
                )
            seed = np.ones_like(output.data)
        output.accumulate_grad(np.asarray(seed, dtype=output.data.dtype))
        for out, inputs, backward_fn in reversed(self.records):
            g = out.grad
            if g is None:
                continue
            grads = backward_fn(g)
            for inp, gi in zip(inputs, grads):
                if gi is None or not inp.requires_grad:
                    continue
                inp.accumulate_grad(gi)


def _record(out: Tensor, inputs: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    tape = active_tape()
    if any(t.requires_grad for t in inputs):
        out.requires_grad = True
        if tape is not None:
            tape.records.append((out, tuple(inputs), backward_fn))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over axes that were broadcast in the forward op."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    axes = tuple(i for i, (gs, ts) in enumerate(zip(g.shape, shape)) if ts == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _check_broadcastable(a: Tensor, b: Tensor, op: str):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {tuple(a.shape)} and {tuple(b.shape)} are not broadcastable") from None


# ---------------------------------------------------------------------------
# pointwise primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcastable(a, b, "add")
    out = Tensor(a.data + b.data)

    def bw(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _record(out, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcastable(a, b, "sub")
    out = Tensor(a.data - b.data)

    def bw(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _record(out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcastable(a, b, "mul")
    out = Tensor(a.data * b.data)

    def bw(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return _record(out, (a, b), bw)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcastable(a, b, "div")
    out = Tensor(a.data / b.data)

    def bw(g):
        ga = _unbroadcast(g / b.data, a.data.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)
        return ga, gb

    return _record(out, (a, b), bw)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    out = Tensor(a.data * s)
    return _record(out, (a,), lambda g: (g * s,))


def texp(a: Tensor) -> Tensor:
    out = Tensor(np.exp(a.data))
    return _record(out, (a,), lambda g: (g * out.data,))


def tsqrt(a: Tensor) -> Tensor:
    out = Tensor(np.sqrt(a.data))
    return _record(out, (a,), lambda g: (g * (0.5 / out.data),))


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x)."""
    sig = 1.0 / (1.0 + np.exp(-a.data))
    out = Tensor(a.data * sig)

    def bw(g):
        return (g * (sig * (1.0 + a.data * (1.0 - sig))),)

    return _record(out, (a,), bw)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu_tanh(a: Tensor) -> Tensor:
    """Tanh-approximated GELU."""
    x = a.data
    inner = _GELU_C * (x + _GELU_A * (x * x * x))
    t = np.tanh(inner)
    out = Tensor(0.5 * x * (1.0 + t))

    def bw(g):
        dinner = _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner),)

    return _record(out, (a,), bw)


# ---------------------------------------------------------------------------
# contractions, reductions, shape ops
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul requires ndim >= 2, got {tuple(a.shape)} @ {tuple(b.shape)}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner extents differ for {tuple(a.shape)} @ {tuple(b.shape)}")
    if a.ndim > 2 and b.ndim > 2:
        try:
            np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        except ValueError:
            raise ShapeError(
                f"matmul: batch extents not broadcastable for {tuple(a.shape)} @ {tuple(b.shape)}"
            ) from None
    out = Tensor(np.matmul(a.data, b.data))

    def bw(g):
        ga = gb = None
        if a.requires_grad:
            if b.ndim == 2:
                ga = np.matmul(g, b.data.T)
            else:
                ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape)
        if b.requires_grad:
            if b.ndim == 2:
                # collapse every batch axis of a into rows
                a2 = a.data.reshape(-1, a.data.shape[-1])
                g2 = g.reshape(-1, g.shape[-1])
                gb = np.matmul(a2.T, g2)
            else:
                gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape)
        return ga, gb

    return _record(out, (a, b), bw)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _record(out, (a,), bw)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.size
    elif isinstance(axis, tuple):
        count = int(np.prod([a.data.shape[ax] for ax in axis]))
    else:
        count = a.data.shape[axis]
    out = Tensor(a.data.mean(axis=axis, keepdims=keepdims))

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g / count, a.data.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg / count, a.data.shape).copy(),)

    return _record(out, (a,), bw)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = Tensor(a.data.reshape(shape))
    return _record(out, (a,), lambda g: (g.reshape(a.data.shape),))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    # materialize: desk scale favors contiguous buffers over views
    out = Tensor(np.ascontiguousarray(a.data.transpose(axes)))
    return _record(out, (a,), lambda g: (np.ascontiguousarray(g.transpose(inv)),))


def slice_lastdim(a: Tensor, start: int, stop: int) -> Tensor:
    d = a.data.shape[-1]
    if not (0 <= start < stop <= d):
        raise ShapeError(f"slice_lastdim [{start}:{stop}] out of range for last extent {d}")
    out = Tensor(np.ascontiguousarray(a.data[..., start:stop]))

    def bw(g):
        full = np.zeros_like(a.data)
        full[..., start:stop] = g
        return (full,)

    return _record(out, (a,), bw)


def gather_rows(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup table[indices]; gradients scatter-add back into the table."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.min(initial=0) < 0 or (idx.size and idx.max() >= table.shape[0]):
        raise ShapeError(f"gather_rows: index out of range for table with {table.shape[0]} rows")
    out = Tensor(table.data[idx])

    def bw(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return (gt,)

    return _record(out, (table,), bw)


def softmax_lastdim(a: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis (max subtraction)."""
    if a.data.shape[-1] < 1:
        raise ShapeError("softmax_lastdim requires last extent >= 1")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def bw(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _record(out, (a,), bw)


RMS_EPS = 1e-6


def rms_norm(x: Tensor, gain: Optional[Tensor] = None) -> Tensor:
    """y = gain * x / sqrt(mean(x^2, last) + eps)."""
    ms = (x.data * x.data).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(ms + RMS_EPS)
    normed = x.data * inv
    d = x.data.shape[-1]
    if gain is None:
        out = Tensor(normed)

        def bw(g):
            dot = (g * x.data).sum(axis=-1, keepdims=True)
            return (g * inv - x.data * (inv**3) * dot / d,)

        return _record(out, (x,), bw)

    out = Tensor(normed * gain.data)

    def bw(g):
        gg = g * gain.data
        dot = (gg * x.data).sum(axis=-1, keepdims=True)
        gx = gg * inv - x.data * (inv**3) * dot / d
        ggain = _unbroadcast(g * normed, gain.data.shape)
        return gx, ggain

    return _record(out, (x, gain), bw)


def rope_2d(x: Tensor, grid: tuple[int, int], positions: Optional[np.ndarray] = None,
            base: float = 10000.0) -> Tensor:
    """Axial 2D rotary embedding over the last axis of (..., T, heads, head_dim).

    The head_dim is split into interleaved (even, odd) pairs; the first half
    of the pairs rotates by angles derived from the token's row index, the
    second half from its column index. ``positions`` overrides the default
    row-major grid enumeration (needed when several tokens share a cell).
    """
    rows, cols = grid
    T = x.data.shape[-3]
    hd = x.data.shape[-1]
    if hd % 4 != 0:
        raise ShapeError(f"rope_2d requires head_dim divisible by 4, got {hd}")
    if positions is None:
        if T != rows * cols:
            raise ShapeError(f"rope_2d: sequence length {T} != rows*cols = {rows}*{cols}")
        r_idx = np.repeat(np.arange(rows), cols).astype(x.data.dtype)
        c_idx = np.tile(np.arange(cols), rows).astype(x.data.dtype)
    else:
        pos = np.asarray(positions)
        if pos.shape != (T, 2):
            raise ShapeError(f"rope_2d: positions must have shape ({T}, 2), got {pos.shape}")
        r_idx = pos[:, 0].astype(x.data.dtype)
        c_idx = pos[:, 1].astype(x.data.dtype)

    quarter = hd // 4
    freqs = base ** (-np.arange(quarter, dtype=x.data.dtype) / quarter)
    theta = np.concatenate(
        [r_idx[:, None] * freqs[None, :], c_idx[:, None] * freqs[None, :]], axis=1
    )  # (T, hd//2)
    cos = np.cos(theta)[:, None, :]  # broadcast over heads
    sin = np.sin(theta)[:, None, :]

    xe = x.data[..., 0::2]
    xo = x.data[..., 1::2]
    y = np.empty_like(x.data)
    y[..., 0::2] = xe * cos - xo * sin
    y[..., 1::2] = xe * sin + xo * cos
    out = Tensor(y)

    def bw(g):
        ge = g[..., 0::2]
        go = g[..., 1::2]
        gx = np.empty_like(g)
        gx[..., 0::2] = ge * cos + go * sin
        gx[..., 1::2] = -ge * sin + go * cos
        return (gx,)

    return _record(out, (x,), bw)


# ---------------------------------------------------------------------------
# finite-difference verification oracle
# ---------------------------------------------------------------------------

GRAD_CHECK_ABS_EPS = 1e-8


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must map ``x`` to a scalar Tensor and be re-evaluable. Returns
    max over coordinates of |analytic - fd| / (|fd| + 1e-8). Only meaningful
    in double precision.
    """
    if step <= 0:
        raise ValueError("grad_check requires step > 0")
    x.zero_grad()
    was = x.requires_grad
    x.requires_grad = True
    try:
        with Tape() as tape:
            out = f(x)
        tape.backward(out)
    finally:
        x.requires_grad = was
    if x.grad is None:
        analytic = np.zeros_like(x.data)
    else:
        analytic = x.grad.copy()
    if not np.all(np.isfinite(analytic)):
        raise NumericError("grad_check: analytic gradient is non-finite")
    x.zero_grad()

    fd = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    fd_flat = fd.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f(x).item()
        flat[i] = orig - step
        fm = f(x).item()
        flat[i] = orig
        fd_flat[i] = (fp - fm) / (2.0 * step)

    rel = np.abs(analytic - fd) / (np.abs(fd) + GRAD_CHECK_ABS_EPS)
    return float(rel.max())

