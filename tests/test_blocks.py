"""nn blocks: the AdaLN norm, 2D RoPE, attention vs naive oracle, MLP, DiT block."""

import math

import numpy as np
import pytest

from dualdit import blocks as B
from dualdit import tensor as T
from dualdit.errors import ConfigError, ShapeError
from dualdit.tensor import Tape, Tensor, grad_check


def store(seed=0, dtype=np.float64):
    return B.ParamStore(np.random.default_rng(seed), dtype=dtype)


def randomize(params_dict, rng, scale=0.3):
    """Overwrite every parameter (including zero-init heads) with noise."""
    for t in params_dict.values():
        t.data[...] = rng.normal(scale=scale, size=t.shape)


def normalized(x):
    """The AdaLN norm with gamma one and beta zero: plain RMS normalization."""
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[-1]
    return T.modulated_rms_norm(Tensor(x), Tensor(np.ones(d)), Tensor(np.zeros(d))).data


class TestRmsNorm:
    def test_unit_vector_fixed_point(self):
        np.testing.assert_allclose(normalized([1.0, 1.0, 1.0, 1.0]), np.ones(4), atol=1e-6)

    def test_scale_invariant_direction(self):
        np.testing.assert_allclose(normalized([2.0, 2.0]), [1.0, 1.0], atol=1e-6)

    def test_scalar_oracle(self):
        x = np.array([1.0, 2.0, 3.0])
        expected = x / math.sqrt((1 + 4 + 9) / 3 + 1e-6)
        np.testing.assert_allclose(normalized(x), expected, rtol=1e-12)


def grid_rope(rows, cols, head_dim=8):
    return B.rope_tables(B.grid_positions(rows, cols), head_dim, np.float64)


class TestGridPositions:
    def test_row_major_with_repeated_cells(self):
        expected = [[0, 0], [0, 0], [0, 1], [0, 1], [0, 2], [0, 2],
                    [1, 0], [1, 0], [1, 1], [1, 1], [1, 2], [1, 2]]
        np.testing.assert_array_equal(B.grid_positions(2, 3, repeat=2), expected)

    def test_tables_shape_and_dtype(self):
        C, S = B.rope_tables(B.grid_positions(2, 3, repeat=2), 8, np.float32)
        assert C.shape == S.shape == (12, 1, 8)
        assert C.dtype == S.dtype == np.float32
        # cos in both lanes of a pair, (-sin, sin) across it
        np.testing.assert_array_equal(C[..., 0::2], C[..., 1::2])
        np.testing.assert_array_equal(S[..., 0::2], -S[..., 1::2])
        np.testing.assert_allclose(C * C + S * S, 1.0, rtol=1e-6)


class TestRope2d:
    """The rotation helper attention applies to q and k, and its table checks."""

    def test_origin_token_unchanged(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 4, 1, 8))
        y = T._rotate(x, *grid_rope(2, 2))
        np.testing.assert_allclose(y[0, 0], x[0, 0], atol=1e-15)

    def test_isometry_per_token(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 9, 3, 8))
        y = T._rotate(x, *grid_rope(3, 3))
        np.testing.assert_allclose(np.linalg.norm(y, axis=-1), np.linalg.norm(x, axis=-1), atol=1e-12)

    def test_inner_product_depends_on_offset_only(self):
        # brute force over a 3x3 grid: translate both tokens by one cell
        rng = np.random.default_rng(2)
        q = rng.normal(size=8)
        k = rng.normal(size=8)
        rope = grid_rope(3, 3)

        def rotated(v, r, c):
            grid = np.zeros((1, 9, 1, 8))
            grid[0, r * 3 + c, 0] = v
            return T._rotate(grid, *rope)[0, r * 3 + c, 0]

        base = rotated(q, 0, 1) @ rotated(k, 1, 0)
        shifted = rotated(q, 1, 2) @ rotated(k, 2, 1)
        np.testing.assert_allclose(base, shifted, rtol=1e-10)
        # a different offset must generally disagree
        other = rotated(q, 1, 0) @ rotated(k, 0, 1)
        assert abs(base - other) > 1e-6

    def test_attention_rotates_q_and_k(self):
        rng = np.random.default_rng(3)
        q, k, v = (rng.normal(size=(2, 4, 16)) for _ in range(3))
        rope = grid_rope(2, 2)

        def rot(a):
            return Tensor(T._rotate(a.reshape(2, 4, 2, 8), *rope).reshape(2, 4, 16))

        out = T.attention(Tensor(q), Tensor(k), Tensor(v), 2, rope)
        np.testing.assert_array_equal(out.data, T.attention(rot(q), rot(k), Tensor(v), 2).data)
        assert out.data.flags.c_contiguous and out.shape == (2, 4, 16)

    def test_bad_sequence_length(self):
        x = Tensor(np.zeros((1, 5, 8)))
        with pytest.raises(ShapeError, match="do not fit"):
            T.attention(x, x, x, 1, grid_rope(2, 2))

    def test_tables_of_another_head_dim_raise(self):
        x = Tensor(np.zeros((1, 4, 8)))
        with pytest.raises(ShapeError, match="do not fit"):
            T.attention(x, x, x, 1, grid_rope(2, 2, head_dim=4))


def naive_attention(x, p, heads):
    """Per-head loop oracle in plain numpy (no RoPE)."""
    Bsz, Tlen, D = x.shape
    hd = D // heads
    q = x @ p.q.w.data + p.q.b.data
    k = x @ p.k.w.data + p.k.b.data
    v = x @ p.v.w.data + p.v.b.data
    out = np.zeros_like(x)
    for b in range(Bsz):
        for h in range(heads):
            sl = slice(h * hd, (h + 1) * hd)
            qi, ki, vi = q[b, :, sl], k[b, :, sl], v[b, :, sl]
            logits = qi @ ki.T / math.sqrt(hd)
            w = np.exp(logits - logits.max(axis=-1, keepdims=True))
            w /= w.sum(axis=-1, keepdims=True)
            out[b, :, sl] = w @ vi
    return out @ p.o.w.data + p.o.b.data


class TestAttention:
    def test_single_token_reduces_to_value_path(self):
        st = store(3)
        p = B.make_attention_params(st, "attn", 4)
        rng = np.random.default_rng(4)
        randomize(st.params, rng)
        x = Tensor(rng.normal(size=(2, 1, 4)))
        out = B.multi_head_attention(x, p, 1)
        v = x.data @ p.v.w.data + p.v.b.data
        expected = v @ p.o.w.data + p.o.b.data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_zero_values_zero_context(self):
        st = store(5)
        p = B.make_attention_params(st, "attn", 4)
        rng = np.random.default_rng(6)
        randomize(st.params, rng)
        p.v.w.data[...] = 0.0
        p.v.b.data[...] = 0.0
        p.o.b.data[...] = 0.0
        x = Tensor(rng.normal(size=(1, 3, 4)))
        out = B.multi_head_attention(x, p, 2)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-15)

    def test_matches_naive_loop_oracle(self):
        st = store(7)
        p = B.make_attention_params(st, "attn", 4)
        rng = np.random.default_rng(8)
        randomize(st.params, rng)
        x = Tensor(rng.normal(size=(1, 3, 4)))
        out = B.multi_head_attention(x, p, 2)
        np.testing.assert_allclose(out.data, naive_attention(x.data, p, 2), atol=1e-10)

    def test_bad_width_or_heads_raise(self):
        # the width check is linear's, the heads check attention's
        p = B.make_attention_params(store(15), "attn", 8)
        with pytest.raises(ShapeError, match="disagree"):
            B.multi_head_attention(Tensor(np.zeros((1, 3, 6))), p, 2)
        for heads in (0, 3):
            with pytest.raises(ShapeError, match="divisible"):
                B.multi_head_attention(Tensor(np.zeros((1, 3, 8))), p, heads)

    def test_rope_requires_divisible_head_dim(self):
        with pytest.raises(ConfigError, match="divisible by 4"):
            grid_rope(2, 2, head_dim=2)

    def test_attention_grad(self):
        st = store(9)
        p = B.make_attention_params(st, "attn", 8)
        rng = np.random.default_rng(10)
        randomize(st.params, rng)
        rope = grid_rope(1, 3, head_dim=4)  # 2 heads of width 4
        x0 = rng.normal(size=(1, 3, 8))

        def f(t):
            return B.multi_head_attention(t, p, 2, rope).sum()

        assert grad_check(f, Tensor(x0, requires_grad=True), step=1e-5) <= 1e-4
        # parameter gradients too
        for leaf in (p.q.w, p.o.w, p.v.b):
            err = grad_check(
                lambda t: B.multi_head_attention(Tensor(x0), p, 2, rope).sum(), leaf, step=1e-5
            )
            assert err <= 1e-4


class TestMlp:
    def test_zero_weights_bias_only(self):
        st = store(11)
        p = B.make_mlp_params(st, "mlp", 3)
        p.fc1.w.data[...] = 0.0
        p.fc2.w.data[...] = 0.0
        p.fc2.b.data[...] = 0.5
        out = B.mlp(Tensor(np.random.default_rng(0).normal(size=(2, 3))), p)
        np.testing.assert_allclose(out.data, 0.5, atol=1e-15)

    def test_hidden_width_arithmetic(self):
        st = store(12)
        p = B.make_mlp_params(st, "mlp", 3)
        assert p.fc1.w.shape == (3, 12) and p.fc2.w.shape == (12, 3)

    def test_two_matmul_oracle(self):
        st = store(13)
        p = B.make_mlp_params(st, "mlp", 4)
        rng = np.random.default_rng(14)
        randomize(st.params, rng)
        x = rng.normal(size=(2, 4))
        h = x @ p.fc1.w.data + p.fc1.b.data
        gelu = 0.5 * h * (1 + np.tanh(math.sqrt(2 / math.pi) * (h + 0.044715 * h**3)))
        expected = gelu @ p.fc2.w.data + p.fc2.b.data
        np.testing.assert_allclose(B.mlp(Tensor(x), p).data, expected, atol=1e-12)


class TestAdaln:
    def test_identity_when_gamma_one_beta_zero(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4)))
        out = T.modulated_rms_norm(x, Tensor(np.ones((2, 1, 4))), Tensor(np.zeros((2, 1, 4))))
        expected = x.data / np.sqrt((x.data ** 2).mean(axis=-1, keepdims=True) + 1e-6)
        np.testing.assert_allclose(out.data, expected, rtol=1e-14)

    def test_gamma_zero_broadcasts_beta(self):
        x = Tensor(np.random.default_rng(1).normal(size=(2, 3, 4)))
        beta = Tensor(np.random.default_rng(2).normal(size=(2, 1, 4)))
        out = T.modulated_rms_norm(x, Tensor(np.zeros((2, 1, 4))), beta)
        np.testing.assert_allclose(out.data, np.broadcast_to(beta.data, x.shape), atol=1e-15)

    def test_pixelwise_differs_from_patchwise_unless_rows_equal(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 4, 3)))  # p^2 = 4 pixel axis
        per_pixel = Tensor(rng.normal(size=(2, 4, 3)))
        per_patch = Tensor(per_pixel.data[:, :1, :].copy())
        zero = Tensor(np.zeros((2, 1, 3)))
        a = T.modulated_rms_norm(x, per_pixel, Tensor(np.zeros((2, 4, 3))))
        b = T.modulated_rms_norm(x, per_patch, zero)
        assert np.abs(a.data - b.data).max() > 1e-3
        # forcing the pixel rows equal recovers the patch-wise result
        per_pixel.data[...] = per_pixel.data[:, :1, :]
        a2 = T.modulated_rms_norm(x, per_pixel, Tensor(np.zeros((2, 4, 3))))
        np.testing.assert_array_equal(a2.data, b.data)

    def test_split_modulation_order_and_width(self):
        theta = Tensor(np.arange(12, dtype=np.float64).reshape(1, 12))
        mods = B.split_modulation(theta, 2)
        np.testing.assert_array_equal(mods.beta1.data, [[0, 1]])
        np.testing.assert_array_equal(mods.gamma1.data, [[2, 3]])
        np.testing.assert_array_equal(mods.alpha1.data, [[4, 5]])
        np.testing.assert_array_equal(mods.alpha2.data, [[10, 11]])
        with pytest.raises(ConfigError, match="6"):
            B.split_modulation(theta, 3)


class TestDitBlock:
    # width 8 on a 2x2 grid: 2 heads of width 4
    ROPE = grid_rope(2, 2, head_dim=4)

    def test_zero_gates_identity(self):
        st = store(20)
        p = B.make_dit_block_params(st, "blk", 8)
        rng = np.random.default_rng(21)
        # randomize everything except the modulation head (stays zero-init)
        for name, t in st.params.items():
            if ".ada." not in name:
                t.data[...] = rng.normal(scale=0.5, size=t.shape)
        s = Tensor(rng.normal(size=(2, 4, 8)))
        c = Tensor(rng.normal(size=(2, 1, 8)))
        out = B.dit_block(s, c, p, 2, self.ROPE)
        np.testing.assert_array_equal(out.data, s.data)

    def test_stack_of_fresh_blocks_is_identity(self):
        st = store(22)
        blocks = [B.make_dit_block_params(st, f"blk{i}", 8) for i in range(3)]
        rng = np.random.default_rng(23)
        for name, t in st.params.items():
            if ".ada." not in name:
                t.data[...] = rng.normal(scale=0.5, size=t.shape)
        s = Tensor(rng.normal(size=(1, 4, 8)))
        c = Tensor(rng.normal(size=(1, 1, 8)))
        out = s
        for p in blocks:
            out = B.dit_block(out, c, p, 2, self.ROPE)
        np.testing.assert_array_equal(out.data, s.data)

    def test_determinism(self):
        st = store(24)
        p = B.make_dit_block_params(st, "blk", 8)
        randomize(st.params, np.random.default_rng(25))
        rng = np.random.default_rng(26)
        s = rng.normal(size=(1, 4, 8))
        c = rng.normal(size=(1, 1, 8))
        x2 = np.concatenate([s, s])
        c2 = np.concatenate([c, c])
        out = B.dit_block(Tensor(x2), Tensor(c2), p, 2, self.ROPE)
        np.testing.assert_array_equal(out.data[0], out.data[1])

    def test_block_grad_check(self):
        st = store(27)
        p = B.make_dit_block_params(st, "blk", 8)
        rng = np.random.default_rng(28)
        randomize(st.params, rng, scale=0.2)
        s = Tensor(rng.normal(size=(1, 4, 8)))
        c = Tensor(rng.normal(size=(1, 1, 8)))

        worst = 0.0
        for t in st.params.values():
            err = grad_check(lambda _t: B.dit_block(s, c, p, 2, self.ROPE).sum(), t, step=1e-4)
            worst = max(worst, err)
        assert worst <= 1e-4
