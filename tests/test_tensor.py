"""Tensor-core: forward oracles, gradient checks, tape semantics."""

import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualdit import blocks as B
from dualdit import flow as F
from dualdit import model as M
from dualdit import shards as SH
from dualdit import tensor as T
from dualdit import trainer as TR
from dualdit.errors import ShapeError, TapeError
from dualdit.tensor import Tape, Tensor, grad_check
from dualdit.verification import TOLERANCE, primitive_checks


# the criterion-8 desk model
DESK = M.ModelConfig(patch_depth=4, pixel_depth=2, patch_dim=64, pixel_dim=8, heads=4,
                     patch_size=4, num_classes=3, resolution=(16, 16), channels=3)


def rand(shape, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=shape), requires_grad=True)


class TestForwardOracles:
    def test_matmul_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor(np.eye(2))
        np.testing.assert_array_equal(T.matmul(eye, a).data, a.data)

    def test_matmul_hand_computed(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(rand((2, 3)), rand((2, 2)))

    def test_silu_at_zero_and_one(self):
        assert T.silu(Tensor([0.0])).item() == 0.0
        # scalar oracle: x * 1/(1+e^-x)
        expected = 1.0 * (1.0 / (1.0 + math.exp(-1.0)))
        assert T.silu(Tensor([1.0])).item() == pytest.approx(expected, abs=1e-15)

    def test_add_vectors(self):
        np.testing.assert_array_equal((Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])).data, [4.0, 6.0])

    # attention's softmax, seen through its output: one-hot values read the
    # probabilities back, constant scores average the values

    def test_softmax_symmetry(self):
        # q = 0 scores every key equally, so each token gets the mean value
        rng = np.random.default_rng(0)
        k, v = Tensor(rng.normal(size=(2, 3, 4))), Tensor(rng.normal(size=(2, 3, 4)))
        out = T.attention(Tensor(np.zeros((2, 3, 4))), k, v, 2)
        np.testing.assert_allclose(out.data, np.broadcast_to(v.data.mean(axis=1, keepdims=True), v.shape),
                                   atol=1e-15)

    def test_softmax_no_overflow(self):
        # one head of width one: q = +-1000 against keys +-1 scores +-1000
        q = Tensor(np.array([1000.0, -1000.0]).reshape(1, 2, 1))
        v = Tensor(np.array([1.0, 3.0]).reshape(1, 2, 1))
        equal = T.attention(q, Tensor(np.ones((1, 2, 1))), v, 1)
        np.testing.assert_allclose(equal.data.ravel(), [2.0, 2.0])
        split = T.attention(q, Tensor(np.array([1.0, -1.0]).reshape(1, 2, 1)), v, 1)
        np.testing.assert_array_equal(split.data.ravel(), [1.0, 3.0])
        assert np.all(np.isfinite(equal.data)) and np.all(np.isfinite(split.data))

    def test_softmax_brute_force_oracle(self):
        # scores (1, 2, 3) for every query (head_dim 4, so the 1/2 scale is exact),
        # one-hot values; brute-force exp/sum oracle in extended precision
        x = np.array([1.0, 2.0, 3.0])
        q = np.zeros((1, 3, 4))
        q[..., 0] = 2.0
        k = np.zeros((1, 3, 4))
        k[0, :, 0] = x
        e = np.exp(x.astype(np.longdouble))
        expected = (e / e.sum()).astype(np.float64)
        out = T.attention(Tensor(q), Tensor(k), Tensor(np.eye(3, 4)[None]), 1)
        for row in out.data[0]:
            np.testing.assert_allclose(row, [*expected, 0.0], rtol=1e-14)


class TestGradChecks:
    def test_closed_form_quadratic(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        err = grad_check(lambda t: (t * t).sum(), x, step=1e-5)
        assert err <= 1e-7
        # analytic gradient is 2x
        with Tape() as tape:
            out = (x * x).sum()
        x.zero_grad()
        tape.backward(out)
        np.testing.assert_allclose(x.grad, [2.0, 4.0], atol=1e-12)

    def test_linear_function_error_is_rounding(self):
        x = rand((3, 2), seed=1)
        assert grad_check(lambda t: t.sum(), x, step=1e-5) <= 1e-10

    def test_matmul_grad_vs_central_differences(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        err_a = grad_check(lambda t: T.matmul(t, b).sum(), a, step=1e-4)
        assert err_a <= 1e-6
        err_b = grad_check(lambda t: T.matmul(a, t).sum(), b, step=1e-4)
        assert err_b <= 1e-6

    @pytest.mark.parametrize("name,check", primitive_checks())
    def test_primitive_small_shapes(self, name, check):
        assert check() <= TOLERANCE, name

    def test_python_scalars_are_constant_operands(self):
        # -x, 2.0 * (.), (.) / 4.0 and (.) * 1.5: one mul or div record each
        x = rand((4, 3), seed=3)
        with Tape() as tape:
            y = 2.0 * -x / 4.0 * 1.5
        assert len(tape) == 4
        np.testing.assert_allclose(y.data, -0.75 * x.data, rtol=1e-15)
        assert grad_check(lambda t: (2.0 * -t / 4.0 * 1.5).sum(), x) <= 1e-7

    def test_broadcast_add_grad(self):
        b = Tensor(np.random.default_rng(2).normal(size=(1, 3)), requires_grad=True)
        a = rand((4, 3), seed=4)
        assert grad_check(lambda t: ((a + t) * rand((4, 3), 6)).sum(), b, step=1e-5) <= 1e-6

    def test_rms_norm_with_gain_grads(self):
        # the AdaLN norm with a shared gain and no shift
        x = rand((2, 5), seed=21)
        gain = Tensor(np.random.default_rng(22).normal(size=(5,)), requires_grad=True)
        zero = Tensor(np.zeros(5))
        w = rand((2, 5), 23)
        assert grad_check(lambda t: (T.modulated_rms_norm(t, gain, zero) * w).sum(), x) <= 1e-6
        assert grad_check(lambda t: (T.modulated_rms_norm(x, t, zero) * w).sum(), gain) <= 1e-6

    def test_gather_rows_grad(self):
        table = rand((5, 3), seed=31)
        idx = np.array([0, 2, 2, 4])
        assert grad_check(lambda t: (T.gather_rows(t, idx) * rand((4, 3), 32)).sum(), table) <= 1e-6

    def test_batched_matmul_grad(self):
        a = rand((2, 3, 4), seed=41)
        b = rand((2, 4, 2), seed=42)
        assert grad_check(lambda t: T.matmul(t, b).sum(), a) <= 1e-6
        assert grad_check(lambda t: T.matmul(a, t).sum(), b) <= 1e-6

    def test_rope_grad(self):
        # the rotation's backward runs inside attention's; q and k pass through it
        q, k, v = (rand((2, 4, 16), seed=51 + i) for i in range(3))  # (B, T, 2 heads x 8), 2x2 grid
        rope = B.rope_tables(B.grid_positions(2, 2), 2, 8, np.float64)
        w = rand((2, 4, 16), 54)
        assert grad_check(lambda t: (T.attention(t, k, v, 2, rope) * w).sum(), q) <= 1e-6
        assert grad_check(lambda t: (T.attention(q, t, v, 2, rope) * w).sum(), k) <= 1e-6


def interleaved_rotation(x, C, S, inverse=False):
    """The pair rotation written out lane by lane: (x_e cos - x_o sin, x_e sin + x_o cos)."""
    cos, sin = C[..., 0::2], S[..., 1::2]
    if inverse:
        sin = -sin
    xe, xo = x[..., 0::2], x[..., 1::2]
    y = np.empty(x.shape, x.dtype)
    y[..., 0::2] = xe * cos - xo * sin
    y[..., 1::2] = xe * sin + xo * cos
    return y


class TestExactRotationAndRowMax:
    """The attention record's RoPE and softmax row maximum round as the textbook formulas do."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("layout", ["contiguous", "transposed", "head_major"])
    def test_rotation_is_the_interleaved_formula_bit_for_bit(self, dtype, inverse, layout):
        C, S = B.rope_tables(B.grid_positions(3, 3), 3, 8, dtype)  # 9 tokens, 3 heads
        x = np.random.default_rng(5).normal(size=(2, 9, 3, 8)).astype(dtype)
        if layout == "transposed":
            # the (B, T, heads, head_dim) view of a (B, heads, T, head_dim) array
            x = np.ascontiguousarray(x.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3)
        elif layout == "head_major":
            # attention's backward turns (B, heads, T, head_dim) gradients back
            x, C, S = x.transpose(0, 2, 1, 3).copy(), C[:, 0], S[:, 0]
        y = T._rotate(x, C, S, inverse=inverse)
        want = interleaved_rotation(x, C, S, inverse=inverse)
        assert y.dtype == dtype and y.flags.c_contiguous
        assert y.tobytes() == want.tobytes()

    def test_inverse_undoes_the_rotation(self):
        C, S = B.rope_tables(B.grid_positions(3, 3), 3, 8, np.float64)
        x = np.random.default_rng(6).normal(size=(2, 9, 3, 8))
        np.testing.assert_allclose(T._rotate(T._rotate(x, C, S), C, S, inverse=True), x,
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 9, 16])
    def test_row_max_is_numpys(self, dtype, n):
        a = np.random.default_rng(n).normal(size=(2, 3, 5, n)).astype(dtype)
        a[0, 0, 0] = -np.inf                  # a row of -inf alone
        a[0, 0, 1, n // 2] = -np.inf
        a[0, 1, 0, n - 1] = np.nan            # NaN last, where an odd row folds it in
        a[0, 1, 1, 0] = np.nan
        a[1, 2, 3, :] = np.nan
        got = T._rowmax(a)
        want = a.max(axis=-1, keepdims=True)
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)  # NaN where numpy has NaN, and only there
        assert np.isnan(got[0, 1, :2]).all() and got[0, 0, 0, 0] == -np.inf


class TestTapeSemantics:
    def test_shared_subexpression_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            out = (x + x).sum()
        tape.backward(out)
        np.testing.assert_allclose(x.grad, [2.0])

    def test_grad_zeroed_by_caller_not_tape(self):
        x = Tensor([1.0], requires_grad=True)
        for _ in range(2):
            with Tape() as tape:
                out = (x * x).sum()
            tape.backward(out)
        np.testing.assert_allclose(x.grad, [4.0])  # two accumulations of 2x

    def test_no_tape_means_no_recording(self):
        x = Tensor([1.0], requires_grad=True)
        y = x * x
        assert y.requires_grad
        with Tape() as tape:
            pass
        assert len(tape) == 0

    def test_backward_requires_scalar(self):
        x = rand((2, 2))
        with Tape() as tape:
            y = x * x
        with pytest.raises(ShapeError):
            tape.backward(y)

    def test_records_topologically_ordered(self):
        x = Tensor([1.0, 2.0, 3.0, 4.0], requires_grad=True)
        with Tape() as tape:
            y = x * x
            a, b = T.modulation(y + x, Tensor(np.ones((4, 4))), Tensor(np.zeros(4)), 1, 2)  # two outputs
            z = (a * b + a).sum()
        assert any(isinstance(rec[0], tuple) for rec in tape.records)
        made_by = {}
        for i, (out, _, _) in enumerate(tape.records):
            for o in out if isinstance(out, tuple) else (out,):
                made_by[id(o)] = i
        for i, (_, inputs, _) in enumerate(tape.records):
            for inp in inputs:
                if inp.requires_grad and id(inp) in made_by:
                    assert made_by[id(inp)] < i
        del z

    def test_a_spent_tape_keeps_its_length_and_refuses_a_second_backward(self):
        x, w = rand((3, 4), 11), Tensor(np.arange(12.0).reshape(3, 4))
        with Tape() as tape:
            out = (T.silu(x) * w).sum()
        assert len(tape) == 3
        tape.backward(out)
        assert len(tape) == 3  # what a profiler reads after the pass
        first, before = x.grad, x.grad.copy()
        with pytest.raises(TapeError, match="spent"):
            tape.backward(out)
        assert x.grad is first and x.grad.tobytes() == before.tobytes()
        with Tape() as fresh:
            out = (T.silu(x) * w).sum()
        fresh.backward(out)
        assert x.grad is first  # the leaf's gradient survived, and took the new pass in place
        assert x.grad.tobytes() == (2.0 * before).tobytes()


def fd_grad(loss, x, step=1e-6):
    """Central differences of the scalar ``loss()`` with respect to ``x.data``."""
    fd = np.zeros_like(x.data)
    flat, fd_flat = x.data.reshape(-1), fd.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = loss().item()
        flat[i] = orig - step
        fm = loss().item()
        flat[i] = orig
        fd_flat[i] = (fp - fm) / (2.0 * step)
    return fd


def backward(loss):
    with Tape() as tape:
        out = loss()
    tape.backward(out)


class TestGradOwnership:
    """Tape.backward adopts buffers that closures allocate, but never shares one."""

    def test_add_same_leaf_twice(self):
        x = rand((3, 4), 1)
        w = rand((3, 4), 2)
        loss = lambda: (T.add(x, x) * w).sum()
        backward(loss)
        np.testing.assert_allclose(x.grad, fd_grad(loss, x), rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(x.grad, 2.0 * w.data, rtol=1e-15)

    def test_add_two_same_shape_leaves(self):
        a, b = rand((3, 4), 3), rand((3, 4), 4)
        outs = []

        def loss():
            outs.append(T.add(a, b))
            return outs[-1].sum()

        backward(loss)
        assert outs[0].grad is None  # released: only leaves keep a gradient
        assert not np.may_share_memory(a.grad, b.grad)  # one of them adopted the passthrough
        np.testing.assert_allclose(a.grad, fd_grad(loss, a), rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(b.grad, fd_grad(loss, b), rtol=1e-7, atol=1e-9)
        b_grad = b.grad.copy()
        backward(lambda: (a * a).sum())  # accumulates into a.grad in place
        np.testing.assert_allclose(a.grad, 1.0 + 2.0 * a.data, rtol=1e-15)
        np.testing.assert_array_equal(b.grad, b_grad)

    def test_reshape_chain_into_leaf(self):
        x = rand((2, 6), 5)
        w = rand((4, 3), 6)
        mids = []

        def loss():
            mids.append(x.reshape(3, 4))
            mids.append(mids[-1].reshape(12))
            mids.append(mids[-1].reshape(4, 3))
            mids.append(mids[-1] * w)
            return mids[-1].sum()

        backward(loss)
        assert all(t.grad is None for t in mids)
        assert x.grad.shape == x.shape and not np.may_share_memory(x.grad, w.grad)
        np.testing.assert_allclose(x.grad, fd_grad(loss, x), rtol=1e-7, atol=1e-9)
        w_grad = w.grad.copy()
        backward(lambda: (x * x).sum())  # accumulates into x.grad, the adopted view, in place
        np.testing.assert_allclose(x.grad, w.data.reshape(2, 6) + 2.0 * x.data, rtol=1e-15)
        np.testing.assert_array_equal(w.grad, w_grad)

    def test_two_backward_passes_accumulate(self):
        x = rand((3, 4), 7)
        w = rand((3, 4), 8)
        loss = lambda: (T.silu(x) * w).sum()
        backward(loss)
        backward(loss)
        np.testing.assert_allclose(x.grad, 2.0 * fd_grad(loss, x), rtol=1e-6, atol=1e-9)

    def test_buffer_handed_to_two_inputs_is_adopted_once(self):
        a, b = rand((2, 2), 9), rand((2, 2), 10)
        shared = np.ones((2, 2))
        with Tape() as tape:
            out = T._record(Tensor(a.data + b.data), (a, b), lambda g: (shared, shared)).sum()
        tape.backward(out)
        a.grad += 1.0
        np.testing.assert_array_equal(b.grad, np.ones((2, 2)))


class TestBackwardInto:
    """Tape.backward(into=...) writes chosen tensors' gradients into arrays the caller owns."""

    @staticmethod
    def leaves(dtype=np.float32):
        rng = np.random.default_rng(40)
        return [Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
                for shape in ((4, 3), (3, 5), (5,), (2, 2))]

    @staticmethod
    def loss(x, w, b, unused):
        h = T.linear(x, w, b)
        return (T.silu(h) * h).sum() + (x * x).mean()  # x takes three contributions

    def test_same_bits_as_grad(self):
        leaves = self.leaves()
        with Tape() as tape:
            out = self.loss(*leaves)
        tape.backward(out)
        want = [t.grad for t in leaves]
        for t in leaves:
            t.zero_grad()
        bufs = [np.full(t.shape, 7.0, np.float32) for t in leaves]
        with Tape() as tape:
            out = self.loss(*leaves)
        tape.backward(out, into=dict(zip(leaves, bufs)))
        for t, buf, g in zip(leaves[:3], bufs, want):
            assert t.grad is None
            assert buf.tobytes() == g.tobytes()
        np.testing.assert_array_equal(bufs[3], 0.0)  # no gradient: zeroed, not left as it was
        assert want[3] is None

    def test_first_contribution_is_copied_not_added_to_zero(self):
        # 0.0 + -0.0 is 0.0: an added first contribution would lose the sign
        x = Tensor(np.ones(3), requires_grad=True)
        w = Tensor(np.array([-0.0, 2.0, -0.0]))
        buf = np.full(3, np.nan)
        with Tape() as tape:
            out = (x * w).sum()
        tape.backward(out, into={x: buf})
        assert buf.tobytes() == np.array([-0.0, 2.0, -0.0]).tobytes()

    def test_a_tensor_a_record_produced_is_refused(self):
        # its gradient would go to the buffer and stop there: x would get none
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        with Tape() as tape:
            h = x * 2.0
            out = (h * h).sum()
        buf = np.full(3, 7.0)
        with pytest.raises(TapeError, match=r"shape \(3,\)"):
            tape.backward(out, into={h: buf})
        np.testing.assert_array_equal(buf, 7.0)
        assert x.grad is None
        tape.backward(out)  # the tape is not spent
        np.testing.assert_array_equal(x.grad, 8.0 * x.data)

    def test_later_contributions_add_in_tape_order(self):
        x = Tensor(np.float32([1.0]), requires_grad=True)
        ws = [np.float32(v) for v in (1.0, 1e8, -1e8)]
        with Tape() as tape:
            out = sum((x * Tensor(w) for w in ws), Tensor(np.float32([0.0])))
        buf = np.empty(1, np.float32)
        tape.backward(out, into={x: buf})
        # the last record's contribution comes first: (-1e8 + 1e8) + 1, where
        # (1 + 1e8) - 1e8 would round to 0
        assert buf[0] == 1.0


class TestMultiOutputRecords:
    """One record with several outputs: T.modulation and Tape.backward around it."""

    def test_views_in_order(self):
        x, w, b = rand((2, 3), 20), rand((3, 24), 21), rand((24,), 22)
        with Tape() as tape:
            parts = T.modulation(x, w, b, 2, 3)
        assert len(tape) == 1
        want = (x.data @ w.data + b.data).reshape(2, 2, 3, 4)  # columns (rows, groups, width)
        for i, part in enumerate(parts):
            assert part.requires_grad and np.may_share_memory(part.data, parts[0].data)  # views of one product
            assert part.shape == (2, 2, 4) and part.data[1].flags.c_contiguous
            np.testing.assert_allclose(part.data, want[:, :, i], rtol=1e-12)
        with pytest.raises(ShapeError, match="do not make a head"):
            T.modulation(x, w, b, 5, 3)

    def test_two_of_six_outputs_match_central_differences(self):
        x, w, b = rand((3, 4), 21), rand((4, 24), 22), rand((24,), 23)
        w1, w4 = rand((3, 2, 2), 24), rand((3, 2, 2), 25)

        def loss():
            parts = T.modulation(x, w, b, 2, 6)
            return (parts[1] * w1).sum() + (T.silu(parts[4]) * w4).sum()

        backward(loss)
        for t in (x, w, b):
            np.testing.assert_allclose(t.grad, fd_grad(loss, t), rtol=1e-7, atol=1e-9)
        unused = np.ones((2, 6, 2), dtype=bool)
        unused[:, [1, 4]] = False
        np.testing.assert_array_equal(w.grad[:, unused.reshape(-1)], 0.0)
        np.testing.assert_array_equal(b.grad[unused.reshape(-1)], 0.0)

    def test_two_backward_passes_accumulate(self):
        x, w, b = rand((2, 3), 24), rand((3, 6), 26), rand((6,), 27)
        v = rand((2, 1, 2), 25)

        def loss():
            p, q, r = T.modulation(x, w, b, 1, 3)
            return (p * v + T.silu(r) * q).sum()

        backward(loss)
        first = x.grad.copy()
        backward(loss)
        np.testing.assert_allclose(x.grad, 2.0 * fd_grad(loss, x), rtol=1e-6, atol=1e-9)
        np.testing.assert_array_equal(x.grad, 2.0 * first)

    @pytest.mark.parametrize("passed", [0, 1])
    def test_output_gradient_is_never_adopted(self, passed):
        # a closure that passes one output's gradient through as its input's: the input
        # adopts it only once the output has let go of it, so no two tensors share it
        x = rand((2, 3), 26)
        w = rand((2, 3), 27)
        outs = (Tensor(x.data.copy()), Tensor(x.data.copy()))
        with Tape() as tape:
            T._record(outs, (x,), lambda gs: (gs[passed],))
            loss = (outs[0] * w + outs[1] * outs[1]).sum()
        tape.backward(loss)
        assert outs[0].grad is None and outs[1].grad is None
        np.testing.assert_array_equal(x.grad, (w.data, 2.0 * outs[1].data)[passed])
        assert not np.may_share_memory(x.grad, w.grad)
        w_grad = w.grad.copy()
        x.grad += 1.0  # .grad is updated in place later; the other leaf's must not move
        np.testing.assert_array_equal(w.grad, w_grad)


def composed_modulation(x, w, b, rows, groups):
    """A modulation head as linear, reshape to (M, rows, groups * width), and one record that
    cuts the last axis into the groups (zeros for a group without a gradient)."""
    theta = T.linear(x, w, b)
    theta = theta.reshape(-1, rows, theta.shape[-1] // rows)
    width = theta.shape[-1] // groups
    outs = tuple(Tensor(theta.data[..., i * width:(i + 1) * width]) for i in range(groups))

    def bw(gs):
        full = np.empty_like(theta.data)
        for i, g in enumerate(gs):
            full[..., i * width:(i + 1) * width] = 0.0 if g is None else g
        return (full,)

    return T._record(outs, (theta,), bw)


class TestLongRunsKeepTheBits:
    """The group-major modulation head, the tiled RoPE tables and the wide bias add compute the
    bytes of the plain computations they replace, in float32."""

    @pytest.mark.parametrize("x_shape, rows, width", [
        ((512, 64), 16, 8),    # desk pixel head: 512 patch tokens -> 16 pixels x 6 x 8
        ((32, 1, 64), 1, 64),  # desk patch head: B x 1 x 384
    ])
    def test_modulation_is_the_composed_head(self, x_shape, rows, width):
        rng = np.random.default_rng(60)
        d_in = x_shape[-1]
        data = [rng.normal(size=shape).astype(np.float32)
                for shape in (x_shape, (d_in, rows * 6 * width), (rows * 6 * width,))]
        weights = [Tensor(rng.normal(size=(int(np.prod(x_shape[:-1])), rows, width)).astype(np.float32))
                   for _ in range(6)]
        results = []
        for head in (T.modulation, composed_modulation):
            x, w, b = (Tensor(a.copy(), requires_grad=True) for a in data)
            with Tape() as tape:
                outs = head(x, w, b, rows, 6)
                loss = sum(((o * v).sum() for o, v in zip(outs, weights)), Tensor(np.float32(0.0)))
            tape.backward(loss)
            results.append([o.data.tobytes() for o in outs] + [t.grad.tobytes() for t in (x, w, b)])
        assert results[0] == results[1]

    def test_attention_rotates_as_untiled_tables_do(self):
        rng = np.random.default_rng(61)
        batch, heads, hd = 4, 4, 16
        positions = B.grid_positions(4, 4, 2)  # a desk pixel block at ptc_rate 2
        tokens, D = len(positions), heads * hd
        C, S = B.rope_tables(positions, heads, hd, np.float32)
        C1, S1 = B.rope_tables(positions, 1, hd, np.float32)
        q, k, v, w = (rng.normal(size=(batch, tokens, D)).astype(np.float32) for _ in range(4))
        split = (batch, tokens, heads, hd)

        def rot(a, inverse=False):
            return T._rotate(a.reshape(split), C1, S1, inverse=inverse).reshape(a.shape)

        got = [Tensor(a.copy(), requires_grad=True) for a in (q, k, v)]
        with Tape() as tape:
            out = T.attention(*got, heads, (C, S))
            loss = (out * Tensor(w)).sum()
        tape.backward(loss)
        ref = [Tensor(a, requires_grad=True) for a in (rot(q), rot(k), v)]
        with Tape() as tape:
            out_ref = T.attention(*ref, heads)
            loss = (out_ref * Tensor(w)).sum()
        tape.backward(loss)
        assert out.data.tobytes() == out_ref.data.tobytes()
        for a, r, inverse in zip(got, ref, (True, True, None)):
            want = r.grad if inverse is None else rot(r.grad, inverse=True)
            assert a.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d_out", [3, 8, 32])
    @pytest.mark.parametrize("rows", [512, 100])  # 100: not a multiple of 16, row by row
    def test_linear_bias_add_is_the_plain_sum(self, d_out, rows):
        rng = np.random.default_rng(d_out)
        x, w, b = (rng.normal(size=shape).astype(np.float32)
                   for shape in ((rows, 8), (8, d_out), (d_out,)))
        y = T.linear(Tensor(x), Tensor(w), Tensor(b)).data
        assert y.tobytes() == (np.matmul(x, w) + b).tobytes()


def composed_mlp(x, w1, b1, w2, b2, g):
    """linear -> GELU (tanh) -> linear on 2-D x as separate numpy steps: the output, and the
    gradients of x, w1, b1, w2 and b2 for the output gradient g."""
    h = np.matmul(x, w1) + b1
    u = h * h
    u *= 0.044715
    u += 1.0
    u *= h
    u *= math.sqrt(2.0 / math.pi)
    np.tanh(u, out=u)
    u += 1.0
    u *= 0.5
    a = u * h
    y = np.matmul(a, w2) + b2
    ga = g @ w2.T
    w = h * h
    w *= 6.0 * 0.044715 * math.sqrt(2.0 / math.pi)
    w += 2.0 * math.sqrt(2.0 / math.pi)
    w *= h
    d = 1.0 - u
    d *= u
    d *= w
    d += u
    d *= ga
    return y, d @ w1.T, x.T @ d, d.sum(axis=0), a.T @ g, g.sum(axis=0)


class TestMlp:
    @pytest.mark.parametrize("x_shape, d_hid", [
        ((32, 16, 8), 32),  # desk pixel MLP: short rows, their bias 16 rows at a time
        ((64, 64), 256),    # desk patch MLP: plain bias adds
    ])
    def test_same_bytes_as_the_composed_mlp(self, x_shape, d_hid):
        rng = np.random.default_rng(d_hid)
        d = x_shape[-1]
        data = [rng.normal(size=shape).astype(np.float32)
                for shape in (x_shape, (d, d_hid), (d_hid,), (d_hid, d), (d,))]
        g = rng.normal(size=x_shape).astype(np.float32)
        got = [Tensor(a.copy(), requires_grad=True) for a in data]
        with Tape() as tape:
            out = T.mlp(*got)
            loss = (out * Tensor(g)).sum()
        assert len(tape) == 3
        tape.backward(loss)
        want = composed_mlp(data[0].reshape(-1, d), *data[1:], g.reshape(-1, d))
        assert out.data.tobytes() == want[0].tobytes()
        assert T.mlp(*(Tensor(a) for a in data)).data.tobytes() == want[0].tobytes()  # no tape
        for t, w in zip(got, want[1:]):
            assert t.grad.tobytes() == w.tobytes()

    def test_disagreeing_shapes_are_refused(self):
        x, w1, b1, w2 = rand((2, 4)), rand((4, 6)), rand((6,)), rand((5, 4))
        with pytest.raises(ShapeError, match="mlp"):
            T.mlp(x, w1, b1, w2, rand((4,)))


class TestTapeSize:
    def test_desk_loss_step_records(self):
        # every primitive the loss of one criterion-8 train step records; a later
        # unfused op shows up here
        model = M.DualLevelModel(DESK, seed=0)
        rng = np.random.default_rng(0)
        x0 = rng.uniform(-1.0, 1.0, size=(64, 3, 16, 16)).astype(np.float32)
        batch = F.make_flow_batch(x0, rng, F.logit_normal_sampler())
        with Tape() as tape:
            F.loss_diffusion(model, batch, rng.integers(0, 4, 64))
        assert len(tape) == 103


class TestBackwardReleases:
    """Tape.backward frees each record and each intermediate gradient once it has passed them."""

    def test_a_desk_shard_backward_stays_near_its_forward(self, monkeypatch):
        model = M.DualLevelModel(DESK, seed=11)
        rng = np.random.default_rng(12)
        batch = F.make_flow_batch(rng.uniform(-1.0, 1.0, (32, 3, 16, 16)).astype(np.float32), rng)
        y = np.arange(32) % 3
        arena = SH.share(model, {})
        TR._loss_shard(model, batch, y, 1.0, 0)  # warm-up
        into = dict(zip(arena.params.values(), arena.views(arena.grads[0]).values()))
        copies = []  # first contributions that accumulate_grad copies
        accumulate = Tensor.accumulate_grad

        def counting(t, g):
            copies.append(t.grad is None)
            accumulate(t, g)

        monkeypatch.setattr(Tensor, "accumulate_grad", counting)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                loss = F.loss_diffusion(model, batch, y)
            held = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            tape.backward(loss, seed=1.0, into=into)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # keeping every record and gradient to the end peaked at 1.79x, and held all of it;
        # keeping the MLP activation and the normalized inputs held 31.85 MB and peaked at 34.5
        assert 20e6 < held < 27e6 and peak - base < min(1.2 * held, 31e6)
        assert after - base < 1e6 and len(tape) == 103
        assert sum(copies) <= 2  # the seed, and one gradient that two inputs share


class TestPrimitiveRegistry:
    # public functions of dualdit.tensor that are not taped primitives
    NOT_PRIMITIVES = {"active_tape", "grad_check"}
    # check names that drop the t- prefix of a primitive's function name
    CHECK_NAMES = {"tsqrt": "sqrt", "tsum": "sum", "tmean": "mean"}

    def test_every_public_primitive_has_a_check(self):
        primitives = {
            name for name, fn in vars(T).items()
            if inspect.isfunction(fn) and fn.__module__ == T.__name__
            and not name.startswith("_") and name not in self.NOT_PRIMITIVES
        }
        checked = {name for name, _ in primitive_checks()}
        missing = sorted(p for p in primitives if self.CHECK_NAMES.get(p, p) not in checked)
        assert not missing, f"primitives without a verification.primitive_checks entry: {missing}"


class TestInvariantProperties:
    @given(st.lists(st.integers(1, 5), min_size=4, max_size=4), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_softmax_rows_sum_to_one(self, dims, seed):
        # probability rows that sum to one leave a value constant over tokens as it is
        batch, tokens, heads, head_dim = dims
        rng = np.random.default_rng(seed)
        shape = (batch, tokens, heads * head_dim)
        q, k = (Tensor(rng.normal(scale=5.0, size=shape)) for _ in range(2))
        v = np.broadcast_to(rng.normal(size=(batch, 1, shape[-1])), shape)
        out = T.attention(q, k, Tensor(v), heads).data
        np.testing.assert_allclose(out, v, rtol=1e-12, atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_reshape_permute_bijection(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 3, 4))
        perm = tuple(rng.permutation(3))
        inv = tuple(np.argsort(perm))
        t = Tensor(x)
        roundtrip = T.transpose(T.transpose(t, perm), inv)
        np.testing.assert_array_equal(roundtrip.data, x)
        np.testing.assert_array_equal(t.reshape(4, 6).reshape(2, 3, 4).data, x)

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_random_primitive_grad_small_shapes(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(1, 6, size=2))
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        w = Tensor(rng.normal(size=shape))
        err = grad_check(lambda t: (T.silu(t) * w + T.silu(t * t)).sum(), x, step=1e-5)
        assert err <= 1e-4

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_random_shapes_matmul_softmax_norm(self, seed):
        # extents >= 2: one token makes the softmax constant, and one-element
        # rows put the norm in its eps-regularized transition zone, where the
        # probe is nearly flat or pathologically curved and finite differences
        # say nothing about the gradient
        rng = np.random.default_rng(seed)
        m, k, n = rng.integers(2, 6, size=3)
        a = Tensor(rng.normal(size=(m, k)), requires_grad=True)
        b = Tensor(rng.normal(size=(k, n)))
        w = Tensor(rng.normal(size=(m, n)))
        one, zero = Tensor(np.ones(n)), Tensor(np.zeros(n))

        def f(t):
            h = T.matmul(t, b)
            h3 = h.reshape(1, m, n)
            return (T.attention(h3, h3, h3, 1).reshape(m, n) * w
                    + T.modulated_rms_norm(h, one, zero) * w).sum()

        assert grad_check(f, a, step=1e-5) <= 1e-4
