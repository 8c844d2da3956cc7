"""Dense tensors with reverse-mode differentiation on an explicit tape.

Storage is a row-major numpy array (float32 or float64). Operations record
themselves on the innermost active ``Tape``; ``Tape.backward`` replays the
records in reverse once and *accumulates* into leaves' ``.grad`` buffers,
which the caller zeroes, or into arrays it hands over. Verification helpers
(``grad_check``) compare analytic gradients against central differences.

A record keeps an array only if its backward reads it and recomputing it
from what the record already holds would take more than one elementwise
pass: ``mlp`` keeps its pre-activation and gate, not their product, and
``modulated_rms_norm`` its inverse scale, not the normalized input.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NumericError, ShapeError, TapeError

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
        """Add ``g`` into ``.grad``; the first gradient is copied, never adopted."""
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

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
        return mul(self, _as_tensor(other, self.dtype))

    def __rmul__(self, other):
        return mul(_as_tensor(other, self.dtype), self)

    def __truediv__(self, other):
        return div(self, _as_tensor(other, self.dtype))

    def __neg__(self):
        return mul(self, _as_tensor(-1.0, self.dtype))

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
    non-differentiable slots); a multi-output record holds a tuple of outputs
    and passes the list of their gradients (None where there is none).
    Records are appended in execution order, so every input of a record
    precedes it; ``backward`` visits each record once in reverse and frees it.
    """

    def __init__(self):
        self.records: list[tuple[Tensor | tuple[Tensor, ...], tuple[Tensor, ...], Callable] | None] = []
        self.spent = False

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc):
        popped = _tape_stack().pop()
        assert popped is self, "tape stack corrupted"
        return False

    def __len__(self):
        return len(self.records)

    def backward(self, output: Tensor, seed: Optional[np.ndarray] = None,
                 into: Optional[dict[Tensor, np.ndarray]] = None):
        """Accumulate d(output)/d(leaf) into .grad of every leaf, or into the array ``into``
        maps it to: there the first contribution is copied, and none is zeros.

        A leaf is a tensor no record of this tape produced; ``into`` maps leaves only. Each
        record and its outputs' gradients are released as the pass leaves them; the spent tape
        keeps its length.
        """
        if self.spent:
            raise TapeError("backward: the tape is spent; record the computation on a new tape")
        into = into or {}
        if into:
            for out, _, _ in self.records:
                for o in out if isinstance(out, tuple) else (out,):
                    if o in into:
                        raise TapeError(
                            f"backward: into holds a tensor of shape {tuple(o.shape)} that a record "
                            "of this tape produced; only leaves take their gradient into a buffer"
                        )
        fresh = dict(into)  # the arrays that no contribution has reached yet
        if seed is None:
            if output.size != 1:
                raise ShapeError(
                    f"backward without a seed requires a scalar output, got shape {tuple(output.shape)}"
                )
            seed = np.ones_like(output.data)
        self.spent = True
        if output in fresh:
            np.copyto(fresh.pop(output), seed)
        output.accumulate_grad(np.asarray(seed, dtype=output.data.dtype))
        records = self.records
        for i in range(len(records) - 1, -1, -1):
            out, inputs, backward_fn = records[i]
            records[i] = None  # the closure goes with it, and the forward arrays it saved
            outs = out if isinstance(out, tuple) else (out,)
            g = [o.grad for o in outs]
            for o in outs:
                o.grad = None
            if any(gi is not None for gi in g):
                _hand_out(inputs, backward_fn(g if outs is out else g[0]), fresh, into)
        for buf in fresh.values():
            buf[...] = 0


def _hand_out(inputs: tuple, grads: tuple, fresh: dict, into: dict):
    """Give each input of a record its gradient (None: none); what none adopts is freed on return."""
    taken = []
    for inp, gi in zip(inputs, grads):
        if gi is None or not inp.requires_grad:
            continue
        if inp in fresh:
            np.copyto(fresh.pop(inp), gi)
        elif inp in into:
            into[inp] += gi
        elif inp.grad is None and _owned(gi, inp, taken):
            inp.grad = gi
        else:
            inp.accumulate_grad(gi)
        taken.append(gi)


def _owned(gi: np.ndarray, inp: Tensor, taken: list) -> bool:
    """Whether a closure's gradient ``gi`` for ``inp`` can become ``inp.grad`` as is.

    A buffer the closure allocated qualifies, and so does a passthrough or
    view of an output gradient, which ``backward`` has released by then. A
    buffer that may share memory with another input's gradient of the same
    record (``taken``) does not, since ``.grad`` is later updated in place.
    """
    return (gi.dtype == inp.data.dtype and gi.shape == inp.data.shape
            and gi.flags.writeable and not any(np.may_share_memory(gi, h) for h in taken))


def _record(out, inputs: Sequence[Tensor], backward_fn: Callable):
    for t in inputs:
        if t.requires_grad:
            for o in out if isinstance(out, tuple) else (out,):
                o.requires_grad = True
            tape = active_tape()
            if tape is not None:
                tape.records.append((out, tuple(inputs), backward_fn))
            break
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


def _check_onto(t: Tensor, shape: tuple, op: str):
    """Require ``t`` to broadcast onto ``shape`` without enlarging it."""
    try:
        ok = np.broadcast_shapes(t.shape, shape) == tuple(shape)
    except ValueError:
        ok = False
    if not ok:
        raise ShapeError(f"{op}: {tuple(t.shape)} does not broadcast onto {tuple(shape)}")


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, keeping it with extent one.

    einsum is several times faster than multiply-then-sum over the short
    rows (8 to 64 elements) of this model's activations.
    """
    return np.einsum("...i,...i->...", a, b)[..., None]


def _rowmax(a: np.ndarray) -> np.ndarray:
    """The maximum along the last axis, keeping it with extent one.

    numpy reduces a short last axis row by row, slowly. Here one
    ``np.maximum`` of the rows' two halves halves them (an odd row folds
    its last element into the first), and a contiguous transposed copy of
    the halves reduces down long columns. Over the desk model's 16-wide
    score rows that is six times as fast as ``np.max``, with its result,
    since a maximum does not depend on the order it is taken in (NaN wins
    either way). Transposing the whole rows was faster still, but its
    copy raised the peak RSS of guided sampling by 5.5 MB.
    """
    if a.shape[-1] > 1:
        half = a.shape[-1] // 2
        m = np.maximum(a[..., :half], a[..., half:2 * half])
        if a.shape[-1] % 2:
            np.maximum(m[..., :1], a[..., -1:], out=m[..., :1])
        a = m
    rows = a.reshape(-1, a.shape[-1])
    return np.maximum.reduce(np.ascontiguousarray(rows.T), axis=0).reshape(a.shape[:-1] + (1,))


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
        ga = _unbroadcast(g, a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(g, b.data.shape) if b.requires_grad else None
        return ga, gb

    return _record(out, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcastable(a, b, "sub")
    out = Tensor(a.data - b.data)

    def bw(g):
        ga = _unbroadcast(g, a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(-g, b.data.shape) if b.requires_grad else None
        return ga, gb

    return _record(out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcastable(a, b, "mul")
    out = Tensor(a.data * b.data)

    def bw(g):
        ga = _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None
        return ga, gb

    return _record(out, (a, b), bw)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcastable(a, b, "div")
    out = Tensor(a.data / b.data)

    def bw(g):
        ga = _unbroadcast(g / b.data, a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape) if b.requires_grad else None
        return ga, gb

    return _record(out, (a, b), bw)


def gated_residual(x: Tensor, alpha: Tensor, y: Tensor) -> Tensor:
    """x + alpha * y: a residual branch y scaled by a gate broadcast onto it."""
    if x.shape != y.shape:
        raise ShapeError(f"gated_residual: stream {tuple(x.shape)} and branch {tuple(y.shape)} differ")
    _check_onto(alpha, x.shape, "gated_residual")
    o = alpha.data * y.data
    o += x.data
    out = Tensor(o)

    def bw(g):
        galpha = _unbroadcast(g * y.data, alpha.data.shape) if alpha.requires_grad else None
        gy = g * alpha.data if y.requires_grad else None
        return g, galpha, gy

    return _record(out, (x, alpha, y), bw)


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


def _forward_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a fused primitive's forward, through ``matmul`` on constants.

    Constants record nothing, and every forward GEMM of the model stays one
    ``matmul`` call, which is where a profiler that wraps the public
    primitives counts the model's matmul FLOPs.
    """
    return matmul(Tensor(a), Tensor(b)).data


# Output rows shorter than _BIAS_ROW_MIN elements get their bias added over
# _BIAS_ROWS rows at a time, through the bias tiled _BIAS_ROWS times: numpy
# runs one inner loop per row of a broadcast add. Best us of the float32 bias
# add at the shapes of a desk B=32 shard (2-core Xeon), row by row vs 16 rows
# at a time: 8192 rows of 3: 23.5 vs 5.8; of 8: 25.8 vs 9.4; of 32: 38.3 vs
# 26.3; 512 rows of 64: 4.1 vs 4.8. Each element's sum is the same either way.
_BIAS_ROW_MIN = 64
_BIAS_ROWS = 16


def _add_bias(y: np.ndarray, b: np.ndarray):
    """y += b over the rows of a GEMM's contiguous 2-D output y; a short row ``_BIAS_ROWS`` at a time."""
    d_out = y.shape[1]
    if d_out < _BIAS_ROW_MIN and y.shape[0] % _BIAS_ROWS == 0:
        wide = y.reshape(-1, _BIAS_ROWS * d_out)  # a view, since y is contiguous
        wide += np.tile(b, _BIAS_ROWS)
    else:
        y += b


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b over the last axis of x: one 2-D GEMM over all leading axes.

    A short output row gets its bias over 16 rows at a time (``_BIAS_ROWS``).
    """
    if w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(
            f"linear: input {tuple(x.shape)}, weight {tuple(w.shape)}, bias {tuple(b.shape)} disagree"
        )
    d_in, d_out = w.shape
    x2 = x.data.reshape(-1, d_in)
    y = _forward_gemm(x2, w.data)
    _add_bias(y, b.data)
    out = Tensor(y.reshape(x.shape[:-1] + (d_out,)))

    def bw(g):
        g2 = g.reshape(-1, d_out)
        gx = (g2 @ w.data.T).reshape(x.data.shape) if x.requires_grad else None
        gw = x2.T @ g2 if w.requires_grad else None
        gb = g2.sum(axis=0) if b.requires_grad else None
        return gx, gw, gb

    return _record(out, (x, w, b), bw)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """GELU(x @ w1 + b1) @ w2 + b2 over the last axis of x, GELU the tanh approximation.

    With h = x @ w1 + b1, GELU(h) = u h for the gate u = (1 + tanh(c (h + a h^3))) / 2.
    One record keeps x, h and u; the activation u h is freed once the second
    GEMM has read it, and recomputed, in one pass, for w2's gradient. With
    no tape active the gate is turned into the activation in place. Each
    GEMM adds its bias as ``linear`` does.
    """
    if (w1.ndim != 2 or w2.ndim != 2 or x.shape[-1] != w1.shape[0] or b1.shape != w1.shape[1:]
            or w2.shape[0] != w1.shape[1] or b2.shape != w2.shape[1:]):
        raise ShapeError(
            f"mlp: input {tuple(x.shape)}, weights {tuple(w1.shape)} and {tuple(w2.shape)}, "
            f"biases {tuple(b1.shape)} and {tuple(b2.shape)} disagree"
        )
    d_in, d_out = w1.shape[0], w2.shape[1]
    x2 = x.data.reshape(-1, d_in)
    h = _forward_gemm(x2, w1.data)
    _add_bias(h, b1.data)
    u = h * h
    u *= _GELU_A
    u += 1.0
    u *= h
    u *= _GELU_C
    np.tanh(u, out=u)
    u += 1.0
    u *= 0.5
    if active_tape() is None:
        # no record will keep h and u: the gate becomes the activation, and h goes first
        u *= h
        del h
        y = _forward_gemm(u, w2.data)
    else:
        y = _forward_gemm(u * h, w2.data)
    _add_bias(y, b2.data)
    out = Tensor(y.reshape(x.shape[:-1] + (d_out,)))

    def bw(g):
        g2 = g.reshape(-1, d_out)
        gw2 = (u * h).T @ g2 if w2.requires_grad else None
        gb2 = g2.sum(axis=0) if b2.requires_grad else None
        gx = gw1 = gb1 = None
        if x.requires_grad or w1.requires_grad or b1.requires_grad:
            # d GELU/dh = u + h (1 - tanh^2) c (1 + 3 a h^2) / 2, and (1 - tanh^2) / 2 = 2 u (1 - u)
            w = h * h
            w *= 6.0 * _GELU_A * _GELU_C
            w += 2.0 * _GELU_C
            w *= h
            gh = 1.0 - u
            gh *= u
            gh *= w
            del w
            gh += u
            gh *= g2 @ w2.data.T
            gx = (gh @ w1.data.T).reshape(x.data.shape) if x.requires_grad else None
            gw1 = x2.T @ gh if w1.requires_grad else None
            gb1 = gh.sum(axis=0) if b1.requires_grad else None
        return gx, gw1, gb1, gw2, gb2

    return _record(out, (x, w1, b1, w2, b2), bw)


def modulation(x: Tensor, w: Tensor, b: Tensor, rows: int, groups: int) -> tuple[Tensor, ...]:
    """The ``groups`` outputs of a head x @ w + b whose columns are laid out (rows, groups, width).

    Output i is (M, rows, width), M the rows of x's leading axes, and holds
    the head's columns (r, i, :) for every r. All of them are one record.
    The product is computed group-major, through copies of w and b whose
    columns are permuted to (groups, rows, width): each output is then a view
    whose rows * width elements per conditioning row are contiguous, so the
    AdaLN operands it feeds broadcast onto pixel tokens in long inner loops.
    A permutation of w's columns leaves every product's bits as they are; the
    input gradient of the permuted product would not, so the backward
    gathers the outputs' gradients in the head's own column order (zeros
    where none) and computes from them as ``linear`` does.
    """
    if (w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:] or rows < 1
            or groups < 1 or w.shape[1] % (rows * groups)):
        raise ShapeError(
            f"modulation: input {tuple(x.shape)}, weight {tuple(w.shape)}, bias {tuple(b.shape)} "
            f"do not make a head of {rows} rows of {groups} groups"
        )
    d_in, d_out = w.shape
    width = d_out // (rows * groups)
    x2 = x.data.reshape(-1, d_in)
    # no copy for one row, where the permutation is the identity
    wp = w.data.reshape(d_in, rows, groups, width).transpose(0, 2, 1, 3).reshape(d_in, d_out)
    y = _forward_gemm(x2, wp)
    y += b.data.reshape(rows, groups, width).transpose(1, 0, 2).reshape(d_out)
    y = y.reshape(-1, groups, rows, width)
    outs = tuple(Tensor(y[:, i]) for i in range(groups))

    def bw(gs):
        full = np.empty((x2.shape[0], rows, groups, width), y.dtype)
        for i, g in enumerate(gs):
            full[:, :, i] = 0.0 if g is None else g
        g2 = full.reshape(-1, d_out)
        gx = (g2 @ w.data.T).reshape(x.data.shape) if x.requires_grad else None
        gw = x2.T @ g2 if w.requires_grad else None
        gb = g2.sum(axis=0) if b.requires_grad else None
        return gx, gw, gb

    return _record(outs, (x, w, b), bw)


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


def _swap_pairs(x: np.ndarray) -> np.ndarray:
    """A new array: ``x`` with the two lanes of each pair of its last axis exchanged."""
    if x.dtype.itemsize == 4:
        # a float32 pair is one 64-bit word; turning it by 32 bits swaps the lanes
        u = x.view(np.uint64)
        w = u << 32
        w |= u >> 32
        return w.view(x.dtype)
    return x.reshape(x.shape[:-1] + (-1, 2))[..., ::-1].reshape(x.shape)


def _rotate(x: np.ndarray, C: np.ndarray, S: np.ndarray, inverse: bool = False) -> np.ndarray:
    """RoPE on the interleaved pairs of the last axis: x C + swap(x) S; ``inverse`` undoes it.

    (C, S) are the tables of ``blocks.rope_tables``. Each lane rounds as the
    pair rotation (x_e cos - x_o sin, x_e sin + x_o cos) does, since a - b is
    a + (-b) and a sum commutes; in float32 no lane is read with a stride.
    The result is C-contiguous whatever the layout of ``x``.
    """
    y = np.multiply(x, C, out=np.empty(x.shape, x.dtype))
    t = _swap_pairs(x)
    t *= S
    return np.subtract(y, t, out=y) if inverse else np.add(y, t, out=y)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
              rope: Optional[tuple[np.ndarray, np.ndarray]] = None) -> Tensor:
    """softmax(q k^T / sqrt(head_dim)) v per head on (B, T, D) projections, returned as (B, T, D).

    ``rope``, the (T, heads, head_dim) tables of ``blocks.rope_tables``,
    rotates q and k first; tiled over the heads, they run the rotation's
    inner loops over heads * head_dim elements. Head split and merge,
    rotation, scores, softmax and context are one record; the probabilities
    are kept for the backward.
    """
    if heads < 1 or q.ndim != 3 or q.shape != k.shape or q.shape != v.shape or q.shape[-1] % heads:
        raise ShapeError(
            f"attention needs equal (B, T, D) shapes with D divisible by {heads} heads, got "
            f"{tuple(q.shape)}, {tuple(k.shape)}, {tuple(v.shape)}"
        )
    B, T, D = q.shape
    hd = D // heads
    split = (B, T, heads, hd)
    qh, kh = q.data.reshape(split), k.data.reshape(split)
    if rope is not None:
        C, S = rope
        if hd % 2 or C.shape != (T, heads, hd) or S.shape != C.shape:
            raise ShapeError(f"attention: RoPE tables {C.shape}/{S.shape} do not fit {split}")
        qh, kh = _rotate(qh, C, S), _rotate(kh, C, S)
    sc = 1.0 / math.sqrt(hd)
    qt = qh.transpose(0, 2, 1, 3)  # (B, heads, T, head_dim) views
    kt = kh.transpose(0, 2, 1, 3)
    vt = v.data.reshape(split).transpose(0, 2, 1, 3)
    p = _forward_gemm(qt, kt.swapaxes(-1, -2))
    p *= sc
    p -= _rowmax(p)
    np.exp(p, out=p)
    p /= _rowdot(p, np.ones(p.shape[-1], dtype=p.dtype))
    out = Tensor(np.ascontiguousarray(_forward_gemm(p, vt).transpose(0, 2, 1, 3)).reshape(B, T, D))

    def bw(g):
        gt = g.reshape(split).transpose(0, 2, 1, 3)
        gv = np.matmul(p.swapaxes(-1, -2), gt)
        ds = np.matmul(gt, vt.swapaxes(-1, -2))
        ds -= _rowdot(ds, p)
        ds *= p
        ds *= sc

        if rope is not None:
            # one head's (T, head_dim) tables, contiguous: a strided slice of the tiled
            # ones would cut the rotation's inner loops to head_dim elements
            C0, S0 = np.ascontiguousarray(C[:, 0]), np.ascontiguousarray(S[:, 0])

        def merge(a):  # (B, heads, T, head_dim) -> contiguous (B, T, heads, head_dim)
            if rope is not None:
                # before the transposing copy, so that the rotation reads a in order
                a = _rotate(a, C0, S0, inverse=True)
            return np.ascontiguousarray(a.transpose(0, 2, 1, 3))

        gq = merge(np.matmul(ds, kt))
        gk = merge(np.matmul(ds.swapaxes(-1, -2), qt))
        gv = np.ascontiguousarray(gv.transpose(0, 2, 1, 3))
        return gq.reshape(q.shape), gk.reshape(q.shape), gv.reshape(q.shape)

    return _record(out, (q, k, v), bw)


RMS_EPS = 1e-6


def modulated_rms_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """AdaLN: gamma * x / sqrt(mean(x^2, last) + eps) + beta.

    ``gamma`` and ``beta`` broadcast onto ``x`` (one row per batch element,
    patch or pixel). The record keeps the inverse scale; the backward
    recomputes the normalized x from it.
    """
    _check_onto(gamma, x.shape, "modulated_rms_norm")
    _check_onto(beta, x.shape, "modulated_rms_norm")
    d = x.data.shape[-1]
    inv = 1.0 / np.sqrt(_rowdot(x.data, x.data) / d + RMS_EPS)
    y = x.data * inv
    y *= gamma.data
    y += beta.data
    out = Tensor(y)

    def bw(g):
        gx = ggamma = gbeta = None
        if x.requires_grad or gamma.requires_grad:
            normed = x.data * inv
        if x.requires_grad:
            gx = g * gamma.data
            gx -= normed * (_rowdot(gx, normed) / d)
            gx *= inv
        if gamma.requires_grad:
            ggamma = _unbroadcast(g * normed, gamma.data.shape)
        if beta.requires_grad:
            gbeta = _unbroadcast(g, beta.data.shape)
        return gx, ggamma, gbeta

    return _record(out, (x, gamma, beta), bw)


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
    analytic = np.empty_like(x.data)
    was = x.requires_grad
    x.requires_grad = True
    try:
        with Tape() as tape:
            out = f(x)
        tape.backward(out, into={x: analytic})
    finally:
        x.requires_grad = was
    if not np.all(np.isfinite(analytic)):
        raise NumericError("grad_check: analytic gradient is non-finite")

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

