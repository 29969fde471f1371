"""Contrastive loss closed forms, invariants, and gradient checks."""

import numpy as np
import pytest

from amimv import loss as L
from amimv import tensor as T
from amimv.errors import ContractError, DimensionError, ValidationError

from _gradcheck import check_gradients


def t(x, **kw):
    return T.Tensor(np.asarray(x, dtype=np.float64), **kw)


class TestFuse:
    def test_mean_norm_symmetry(self):
        out = L.fuse(t([[1.0, 0.0]]), t([[0.0, 1.0]]), "mean_norm")
        np.testing.assert_allclose(out.data, [[np.sqrt(2) / 2, np.sqrt(2) / 2]])

    def test_mean_norm_idempotent_on_equal_unit(self):
        u = t([[0.6, 0.8]])
        np.testing.assert_allclose(L.fuse(u, u, "mean_norm").data, u.data, atol=1e-12)

    def test_hadamard_hand_case(self):
        out = L.fuse(t([[2.0, 0.0]]), t([[3.0, 0.0]]), "hadamard_norm")
        np.testing.assert_allclose(out.data, [[1.0, 0.0]])

    def test_concat_doubles_dim(self):
        out = L.fuse(t([[1.0, 0.0]]), t([[0.0, 1.0]]), "concat")
        assert out.shape == (1, 4)
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            L.fuse(t([[1.0, 0.0]]), t([[1.0, 0.0, 0.0]]))

    def test_differentiable_through_both(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        for kind in L.FUSION_KINDS:
            check_gradients(lambda x, y: T.sum_(T.exp(L.fuse(x, y, kind))), [a, b])


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", ["random", "unit"])
    def test_mean_norm_bitwise_equals_normalized_mean(self, dtype, rows):
        """l2_normalize cancels the mean's 1/2 exactly: output and both gradients are the bytes of
        l2_normalize(scale(add(za, zb), 0.5)), the form mean_norm had, with one record fewer."""
        rng = np.random.default_rng(7)
        za, zb, weights = (rng.normal(size=(16, 128)).astype(dtype) for _ in range(3))
        if rows == "unit":
            za, zb = (z / np.linalg.norm(z, axis=1, keepdims=True) for z in (za, zb))
        results = []
        for fuse in (
            lambda a, b: L.fuse(a, b, "mean_norm"),
            lambda a, b: T.l2_normalize(T.scale(T.add(a, b), 0.5)),
        ):
            a, b = T.Tensor(za, requires_grad=True), T.Tensor(zb, requires_grad=True)
            with T.Tape() as tape:
                out = fuse(a, b)
                loss = T.sum_(T.mul(out, T.Tensor(weights)))
            T.backward(loss, tape)
            results.append((out.data, a.grad, b.grad, len(tape.records)))
        new, old = results
        for x, y in zip(new[:3], old[:3]):
            assert x.dtype == y.dtype == dtype
            np.testing.assert_array_equal(x, y)
        assert new[3] == old[3] - 1


class TestNtXentClosedForms:
    def test_n1_is_zero(self):
        assert L.nt_xent(t([[1.0, 0.0]]), t([[0.0, 1.0]]), tau=0.5).item() == 0.0
        # the positive is the only term of each denominator, so the gradients are zero too
        z_left, z_right = t([[0.3, -1.2, 0.5]], requires_grad=True), t([[2.0, 0.1, -0.7]], requires_grad=True)
        with T.Tape() as tape:
            loss = L.nt_xent(z_left, z_right, tau=0.2)
        T.backward(loss, tape)
        assert loss.item() == 0.0
        assert not z_left.grad.any() and not z_right.grad.any()

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_identical_embeddings_ln_2n_minus_1(self, n):
        z = t(np.tile([1.0, 0.0, 0.0], (n, 1)))
        loss = L.nt_xent(z, z, tau=0.2).item()
        assert loss == pytest.approx(np.log(2 * n - 1), abs=1e-6)

    def test_orthogonal_two_instance_tau_one(self):
        z = t([[1.0, 0.0], [0.0, 1.0]])
        loss = L.nt_xent(z, z, tau=1.0).item()
        assert loss == pytest.approx(np.log(1 + 2 * np.exp(-1.0)), abs=1e-4)

    def test_empty_batch(self):
        with pytest.raises(ValidationError):
            L.nt_xent(t(np.zeros((0, 4))), t(np.zeros((0, 4))))


class TestNtXentProperties:
    def test_non_negative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n, d = rng.integers(2, 9), rng.integers(2, 17)
            loss = L.nt_xent(t(rng.normal(size=(n, d))), t(rng.normal(size=(n, d))), tau=0.3)
            assert loss.item() >= 0.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        zl, zr = rng.normal(size=(6, 8)), rng.normal(size=(6, 8))
        perm = rng.permutation(6)
        a = L.nt_xent(t(zl), t(zr), tau=0.4).item()
        b = L.nt_xent(t(zl[perm]), t(zr[perm]), tau=0.4).item()
        assert a == pytest.approx(b, rel=1e-9)

    @pytest.mark.parametrize("tau", [0.05, 0.2, 1.0, 5.0])
    def test_temperature_cancels_when_identical(self, tau):
        z = t(np.tile([0.0, 1.0], (4, 1)))
        assert L.nt_xent(z, z, tau=tau).item() == pytest.approx(np.log(7), abs=1e-6)

    def test_internal_normalization(self):
        rng = np.random.default_rng(3)
        zl, zr = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
        a = L.nt_xent(t(zl), t(zr), tau=0.3).item()
        b = L.nt_xent(t(3.7 * zl), t(0.2 * zr), tau=0.3).item()
        assert a == pytest.approx(b, rel=1e-9)


class TestAmimvLoss:
    def _inputs(self, n=4, d=8, seed=0):
        rng = np.random.default_rng(seed)
        z1n = t(rng.normal(size=(n, d)), requires_grad=True)
        z2a = t(rng.normal(size=(n, d)), requires_grad=True)
        z1a = t(rng.normal(size=(n, d)))
        z2n = t(rng.normal(size=(n, d)))
        return z1n, z2a, z1a, z2n

    def test_identical_units_n2(self):
        u = np.tile([1.0, 0.0], (2, 1))
        loss = L.amimv_loss(t(u, requires_grad=True), t(u, requires_grad=True), t(u), t(u))
        assert loss.item() == pytest.approx(np.log(3), abs=1e-6)

    def test_equals_compositional_form_bitwise(self):
        cfg = L.LossConfig(tau=0.37, fusion="mean_norm")
        z1n, z2a, z1a, z2n = self._inputs(seed=5)
        direct = L.amimv_loss(z1n, z2a, z1a, z2n, cfg).item()
        composed = L.nt_xent(
            L.fuse(z1n, z2a, cfg.fusion), L.fuse(z1a, z2n, cfg.fusion), cfg.tau
        ).item()
        assert direct == composed

    def test_swapped_branches_rejected(self):
        z1n, z2a, z1a, z2n = self._inputs()
        with pytest.raises(ContractError):
            L.amimv_loss(z1n.detach(), z2a.detach(), t(z1a.data, requires_grad=True), z2n)

    def test_stop_gradient_contract(self):
        z1n, z2a, z1a, z2n = self._inputs(seed=7)
        with T.Tape() as tape:
            loss = L.amimv_loss(z1n, z2a, z1a, z2n)
        T.backward(loss, tape)
        assert z1n.grad is not None and np.any(z1n.grad != 0)
        assert z2a.grad is not None and np.any(z2a.grad != 0)
        assert z1a.grad is None
        assert z2n.grad is None

    @pytest.mark.parametrize("fusion", L.FUSION_KINDS)
    def test_gradcheck_end_to_end(self, fusion):
        rng = np.random.default_rng(11)
        n, d = 4, 6
        fixed_a = rng.normal(size=(n, d))
        fixed_n = rng.normal(size=(n, d))
        cfg = L.LossConfig(tau=0.5, fusion=fusion)

        def build(z1n, z2a):
            return L.amimv_loss(z1n, z2a, T.Tensor(fixed_a, dtype=np.float64),
                                T.Tensor(fixed_n, dtype=np.float64), cfg)

        check_gradients(build, [rng.normal(size=(n, d)), rng.normal(size=(n, d))])

    def test_nt_xent_gradcheck_random_batches(self):
        rng = np.random.default_rng(13)
        for trial in range(3):
            n, d = 4, 5
            check_gradients(
                lambda a, b: L.nt_xent(a, b, tau=0.6),
                [rng.normal(size=(n, d)), rng.normal(size=(n, d))],
            )


class TestLossConfig:
    def test_bad_tau(self):
        with pytest.raises(ValidationError):
            L.LossConfig(tau=0.0)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_tau(self, tau):
        with pytest.raises(ValidationError, match="temperature"):
            L.LossConfig(tau=tau)

    def test_bad_fusion(self):
        with pytest.raises(ValidationError):
            L.LossConfig(fusion="sum")
