"""Finite-difference verification suite.

Checks every registered tensor primitive, each block type, and the
end-to-end toy model against central differences in double precision.
Shared by the `grad-check` command and the acceptance tests.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from . import blocks as B
from . import model as M
from . import tensor as T
from .tensor import Tensor, grad_check

TOLERANCE = 1e-4

# the end-to-end sweep is noise-limited below and truncation-limited above
# this step; 5e-4 sits in the measured sweet spot for double precision
MODEL_STEP = 5e-4


def _rand(shape, seed, requires_grad=True):
    return Tensor(np.random.default_rng(seed).normal(size=shape), requires_grad=requires_grad)


def primitive_checks() -> list[tuple[str, Callable[[], float]]]:
    """One scalar-valued probe per registered primitive, random small shapes."""
    w43 = _rand((4, 3), 100, requires_grad=False)
    w34 = _rand((3, 4), 101, requires_grad=False)
    w26 = _rand((2, 6), 102, requires_grad=False)
    # two heads of width 4: the tables are tiled over them
    rope = B.rope_tables(B.grid_positions(2, 2), 2, 4, np.float64)
    # three tokens: rows of three scores, whose maximum folds the odd one in
    rope_odd = B.rope_tables(B.grid_positions(3, 1), 2, 4, np.float64)

    def check(fn, shape=(4, 3), seed=1, step=1e-5):
        return lambda: grad_check(fn, _rand(shape, seed), step=step)

    def check_each(fn, shapes, seed, step=1e-5):
        """Probe every input of a multi-input primitive in turn; the worst error counts."""
        def run():
            args = [_rand(shape, seed + i) for i, shape in enumerate(shapes)]
            return max(
                grad_check(lambda t, i=i: fn(*args[:i], t, *args[i + 1:]), args[i], step=step)
                for i in range(len(args))
            )
        return run

    def modulation_loss(rows, used):
        """Weighted outputs ``used`` of a head of ``rows`` rows of six 2-wide groups on 3 inputs;
        the others stay unused."""
        ws = [_rand((2, rows, 2), 120 + 10 * rows + i, requires_grad=False) for i in range(6)]

        def f(x, w, b):
            outs = T.modulation(x, w, b, rows, 6)
            return sum(((outs[i] * ws[i]).sum() for i in used), Tensor(0.0))
        return f

    def modulation_check():
        """Every input, with each output used alone and all six together, at 1 and 4 rows."""
        return max(check_each(modulation_loss(rows, used), [(2, 3), (3, rows * 12), (rows * 12,)],
                              seed=5)()
                   for rows in (1, 4) for used in ((0,), (1,), (2,), (3,), (4,), (5,), range(6)))

    w235 = _rand((2, 3, 5), 107, requires_grad=False)
    w234 = _rand((2, 3, 4), 108, requires_grad=False)
    w148 = _rand((1, 4, 8), 109, requires_grad=False)
    w138 = _rand((1, 3, 8), 110, requires_grad=False)

    return [
        ("add", check(lambda x: (T.add(x, w43) * w43).sum())),
        ("sub", check(lambda x: (T.sub(x, w43) * w43).sum())),
        ("mul", check(lambda x: (T.mul(x, w43) * w43).sum())),
        ("div", check(lambda x: (T.div(x, Tensor(np.full((4, 3), 2.0))) * w43).sum())),
        ("sqrt", check(lambda x: (T.tsqrt(x * x + Tensor(np.ones((4, 3)))) * w43).sum())),
        ("silu", check(lambda x: (T.silu(x) * w43).sum())),
        ("matmul", check(lambda x: (T.matmul(x, w34) * Tensor(np.ones((4, 4)))).sum())),
        ("reshape", check(lambda x: (x.reshape(2, 6) * w26).sum())),
        ("transpose", check(lambda x: (x.transpose(1, 0) * w34).sum())),
        ("gather_rows", check(lambda x: (T.gather_rows(x, np.array([0, 2, 2, 1])) * w43).sum(), shape=(3, 3), seed=3)),
        ("sum", check(lambda x: (x.sum(axis=0) * _rand((3,), 105, False)).sum())),
        ("mean", check(lambda x: x.mean())),
        ("linear", check_each(lambda x, w, b: (T.linear(x, w, b) * w235).sum(),
                              [(2, 3, 4), (4, 5), (5,)], seed=4)),
        ("mlp", check_each(lambda x, w1, b1, w2, b2: (T.mlp(x, w1, b1, w2, b2) * w235).sum(),
                           [(2, 3, 4), (4, 6), (6,), (6, 5), (5,)], seed=22)),
        ("modulation", modulation_check),
        ("modulated_rms_norm", check_each(
            lambda x, gamma, beta: (T.modulated_rms_norm(x, gamma, beta) * w234).sum(),
            [(2, 3, 4), (2, 1, 4), (2, 1, 4)], seed=7)),
        ("gated_residual", check_each(lambda x, alpha, y: (T.gated_residual(x, alpha, y) * w234).sum(),
                                      [(2, 3, 4), (2, 1, 4), (2, 3, 4)], seed=10)),
        ("attention", check_each(lambda q, k, v: (T.attention(q, k, v, 2) * w148).sum(),
                                 [(1, 4, 8)] * 3, seed=13)),
        ("attention_rope", check_each(lambda q, k, v: (T.attention(q, k, v, 2, rope) * w148).sum(),
                                      [(1, 4, 8)] * 3, seed=16)),
        ("attention_rope_odd", check_each(
            lambda q, k, v: (T.attention(q, k, v, 2, rope_odd) * w138).sum(),
            [(1, 3, 8)] * 3, seed=19)),
    ]


def block_checks() -> list[tuple[str, Callable[[], float]]]:
    def dit():
        store = B.ParamStore(np.random.default_rng(0), dtype=np.float64)
        params = B.make_dit_block_params(store, "blk", 8)
        rng = np.random.default_rng(1)
        for t in store.params.values():
            t.data[...] = rng.normal(scale=0.2, size=t.shape)
        s = Tensor(rng.normal(size=(1, 4, 8)))
        c = Tensor(rng.normal(size=(1, 1, 8)))
        rope = B.rope_tables(B.grid_positions(2, 2), 2, 4, np.float64)
        worst = 0.0
        for t in store.params.values():
            worst = max(worst, grad_check(
                lambda _t: B.dit_block(s, c, params, 2, rope).sum(), t, step=1e-4))
        return worst

    def pit():
        model = M.DualLevelModel(M.toy_config(), seed=2, dtype=np.float64)
        rng = np.random.default_rng(3)
        for t in model.params.values():
            t.data[...] = rng.normal(scale=0.2, size=t.shape)
        X = Tensor(rng.normal(size=(16, 4, 4)))
        cond = Tensor(rng.normal(size=(16, 16)))
        blk = model.pit_blocks[0]
        names = [n for n in model.params if n.startswith("pit.0.")]
        worst = grad_check(lambda t: model.pit_block(t, cond, blk).sum(),
                           Tensor(X.data.copy(), requires_grad=True), step=1e-4)
        for n in names:
            worst = max(worst, grad_check(
                lambda _t: model.pit_block(X, cond, blk).sum(), model.params[n], step=1e-4))
        return worst

    return [("dit_block (all params)", dit), ("pit_block (all params)", pit)]


def model_check(progress: Callable[[str], None] | None = None) -> float:
    """End-to-end sweep over every parameter of the frozen toy model."""
    model = M.DualLevelModel(M.toy_config(), seed=30, dtype=np.float64)
    rng = np.random.default_rng(31)
    for t in model.params.values():
        t.data[...] = rng.normal(scale=0.15, size=t.shape)
    x = rng.normal(size=(1, 3, 8, 8))
    tt, y = np.array([0.4]), np.array([2])
    w = Tensor(rng.normal(size=(1, 3, 8, 8)))

    def loss():
        return (model.forward(x, tt, y) * w).sum()

    worst = 0.0
    for name, p in model.params.items():
        err = grad_check(lambda _t: loss(), p, step=MODEL_STEP)
        if err > worst:
            worst = err
        if progress is not None:
            progress(f"  {name}: {err:.2e}")
    return worst


def run_suite(include_model: bool = True, log: Callable[[str], None] = print):
    """Run everything; returns (rows, all_passed, elapsed_seconds)."""
    rows = []
    start = time.time()
    for name, fn in primitive_checks():
        err = fn()
        rows.append((f"primitive/{name}", err, err <= TOLERANCE))
    for name, fn in block_checks():
        err = fn()
        rows.append((f"block/{name}", err, err <= TOLERANCE))
    if include_model:
        err = model_check()
        rows.append(("model/end-to-end toy (all params)", err, err <= TOLERANCE))
    elapsed = time.time() - start
    for name, err, ok in rows:
        log(f"{'PASS' if ok else 'FAIL'}  {name:40s} max_rel_error={err:.3e}")
    log(f"{'all passed' if all(r[2] for r in rows) else 'FAILURES PRESENT'} "
        f"in {elapsed:.1f}s (tolerance {TOLERANCE:g})")
    return rows, all(r[2] for r in rows), elapsed
