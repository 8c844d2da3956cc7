"""Rectified-flow interpolation, timestep distribution, losses, toy encoder."""

import numpy as np
import pytest
from scipy import stats

from dualdit import flow as F
from dualdit import model as M
from dualdit.errors import NumericError
from dualdit.tensor import Tensor, grad_check


class TestFlowBatch:
    def test_endpoints(self):
        rng = np.random.default_rng(0)
        x0 = rng.uniform(-1, 1, size=(4, 3, 8, 8))
        b0 = F.make_flow_batch(x0, rng, t=np.zeros(4))
        np.testing.assert_array_equal(b0.x_t, x0)
        np.testing.assert_array_equal(b0.v_t, b0.eps - x0)
        b1 = F.make_flow_batch(x0, rng, t=np.ones(4))
        np.testing.assert_array_equal(b1.x_t, b1.eps)

    def test_linearity_in_t(self):
        rng = np.random.default_rng(1)
        x0 = rng.uniform(-1, 1, size=(2, 3, 4, 4))
        t = np.array([0.25, 0.75])
        b = F.make_flow_batch(x0, rng, t=t)
        tb = t.reshape(2, 1, 1, 1)
        np.testing.assert_allclose(b.x_t, (1 - tb) * x0 + tb * b.eps, atol=1e-12)

    def test_logit_normal_never_leaves_unit_interval(self):
        rng = np.random.default_rng(2)
        t = F.logit_normal_sampler()(rng, 100_000)
        assert np.all(t > 0.0) and np.all(t < 1.0)

    def test_logit_normal_matches_sigmoid_normal_oracle(self):
        # two-sample KS test against sigmoid(z), z ~ N(0,1), alpha = 0.01
        n = 100_000
        sample = F.logit_normal_sampler()(np.random.default_rng(3), n)
        z = np.random.default_rng(4).standard_normal(n)
        oracle = 1.0 / (1.0 + np.exp(-z))
        result = stats.ks_2samp(sample, oracle)
        assert result.pvalue > 0.01


class TestLossDiffusion:
    def setup_method(self):
        self.model = M.DualLevelModel(M.toy_config(), seed=0, dtype=np.float64)
        self.rng = np.random.default_rng(5)
        self.x0 = self.rng.uniform(-1, 1, size=(2, 3, 8, 8))
        self.y = np.array([0, 1])

    def test_zero_model_loss_is_target_power(self):
        # fresh model has zero-init pixel head, so its output is identically 0
        batch = F.make_flow_batch(self.x0, self.rng)
        loss = F.loss_diffusion(self.model, batch, self.y)
        np.testing.assert_allclose(loss.data, (batch.v_t**2).mean(), rtol=1e-12)

    def test_perfect_model_zero_loss(self):
        batch = F.make_flow_batch(self.x0, self.rng)

        class Oracle:
            def forward(self, x_t, t, y, **kw):
                return Tensor(batch.v_t)

        assert F.loss_diffusion(Oracle(), batch, self.y).data == 0.0

    def test_zero_model_expected_loss_on_unit_variance_data(self):
        # E||eps - x0||^2 per element = 1 + Var(x0) = 2 for unit-variance data
        rng = np.random.default_rng(6)
        x0 = rng.standard_normal(size=(10_000,))
        eps = rng.standard_normal(size=(10_000,))
        emp = ((eps - x0) ** 2).mean()
        assert abs(emp - 2.0) / 2.0 < 0.05

    def test_non_finite_loss_raises(self):
        batch = F.make_flow_batch(self.x0, self.rng)
        batch.v_t = batch.v_t.copy()
        batch.v_t[0, 0, 0, 0] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            F.loss_diffusion(self.model, batch, self.y)

    def test_loss_gradient_vs_finite_differences(self):
        batch = F.make_flow_batch(self.x0, self.rng)
        for name in ("pixel_head.w", "pit.0.compact.w", "patch_blocks.0.mlp.fc1.w"):
            p = self.model.params[name]
            p.data[...] = self.rng.normal(scale=0.1, size=p.shape)
        err = grad_check(
            lambda _t: F.loss_diffusion(self.model, batch, self.y),
            self.model.params["pixel_head.w"], step=1e-4,
        )
        assert err <= 1e-4


class TestAlignment:
    def test_projector_output_equal_features_gives_zero(self):
        proj = F.AlignmentProjector(4, 3, seed=0, dtype=np.float64)
        tokens = Tensor(np.random.default_rng(0).normal(size=(2, 5, 4)))
        feats = proj.apply(tokens).data
        loss, _ = F.loss_alignment(tokens, feats, proj)
        assert loss.data == pytest.approx(0.0, abs=1e-9)

    def test_orthogonal_gives_one_antiparallel_two(self):
        class IdentityProjector:
            def apply(self, tokens):
                return tokens

        a = Tensor(np.array([[[1.0, 0.0]]]))
        assert F.loss_alignment(a, np.array([[[0.0, 1.0]]]), IdentityProjector())[0].data == pytest.approx(1.0, abs=1e-9)
        assert F.loss_alignment(a, np.array([[[-1.0, 0.0]]]), IdentityProjector())[0].data == pytest.approx(2.0, abs=1e-9)

    def test_bounded_in_zero_two(self):
        rng = np.random.default_rng(7)
        proj = F.AlignmentProjector(4, 3, seed=1, dtype=np.float64)
        for _ in range(10):
            tokens = Tensor(rng.normal(size=(2, 6, 4)) * rng.uniform(0.1, 10))
            feats = rng.normal(size=(2, 6, 3))
            loss = F.loss_alignment(tokens, feats, proj)[0].data
            assert 0.0 <= loss <= 2.0

    def test_zero_norm_counted_and_treated_as_zero_similarity(self):
        class IdentityProjector:
            def apply(self, tokens):
                return tokens

        tokens = Tensor(np.array([[[0.0, 0.0], [1.0, 0.0]]]))
        feats = np.array([[[1.0, 0.0], [1.0, 0.0]]])
        loss, zero_pairs = F.loss_alignment(tokens, feats, IdentityProjector())
        assert zero_pairs == 1
        assert loss.data == pytest.approx(0.5, abs=1e-6)  # (1 - 0)/2 + (1 - 1)/2

    def test_alignment_gradients(self):
        proj = F.AlignmentProjector(4, 3, seed=2, dtype=np.float64)
        rng = np.random.default_rng(8)
        tokens0 = rng.normal(size=(1, 4, 4))
        feats = rng.normal(size=(1, 4, 3))
        err = grad_check(
            lambda t: F.loss_alignment(t, feats, proj)[0], Tensor(tokens0, requires_grad=True), step=1e-5
        )
        assert err <= 1e-5
        err_w = grad_check(
            lambda _t: F.loss_alignment(Tensor(tokens0), feats, proj)[0], proj.fc2.w, step=1e-5
        )
        assert err_w <= 1e-5


class TestToyEncoder:
    def setup_method(self):
        self.enc = F.ToyAlignmentEncoder(patch_size=2, channels=3, feature_dim=8)

    def test_frozen_deterministic(self):
        img = np.random.default_rng(9).uniform(-1, 1, size=(2, 3, 8, 8))
        np.testing.assert_array_equal(self.enc.evaluate(img), self.enc.evaluate(img))

    def test_feature_shape(self):
        img = np.zeros((3, 3, 8, 8))
        assert self.enc.evaluate(img).shape == (3, 16, 8)

    def test_patch_permutation_permutes_rows(self):
        rng = np.random.default_rng(10)
        img = rng.uniform(-1, 1, size=(1, 3, 8, 8))
        swapped = img.copy()
        # swap patch (0,0) with patch (1,1): p=2 blocks
        swapped[:, :, 0:2, 0:2], swapped[:, :, 2:4, 2:4] = (
            img[:, :, 2:4, 2:4].copy(), img[:, :, 0:2, 0:2].copy(),
        )
        f_a = self.enc.evaluate(img)
        f_b = self.enc.evaluate(swapped)
        # patch grid is 4x4; patch (0,0) -> row 0, patch (1,1) -> row 5
        np.testing.assert_allclose(f_b[0, 0], f_a[0, 5], atol=1e-12)
        np.testing.assert_allclose(f_b[0, 5], f_a[0, 0], atol=1e-12)
        untouched = [i for i in range(16) if i not in (0, 5)]
        np.testing.assert_allclose(f_b[0, untouched], f_a[0, untouched], atol=1e-12)
