import math

import numpy as np
import pytest

from entbound.linalg import (
    DensityMatrix,
    density_matrix,
    product_state,
    pure_state,
    random_density_matrix,
)
from entbound.modular import ModularError, relative_entropy
from oracles import (
    apply_kraus,
    araki_relative_entropy,
    cocycle_derivative,
    connes_cocycle,
    gns_rep,
    kms_check,
    natural_cone_rep,
    powers_stormer_gap,
    random_kraus_family,
)


def faithful(dim, seed):
    return random_density_matrix(dim, rank=dim, seed=seed)


class TestRelativeEntropy:
    def test_equal_states_zero(self):
        rho = faithful(3, 0)
        assert abs(relative_entropy(rho, rho)) <= 1e-12

    def test_pure_vs_maximally_mixed(self):
        rho = pure_state(np.array([1.0, 0.0]), 2)
        mixed = density_matrix(np.eye(2, dtype=complex) / 2, 2)
        assert abs(relative_entropy(rho, mixed) - math.log(2)) <= 1e-12

    def test_support_violation_infinite(self):
        rho = density_matrix(np.eye(2, dtype=complex) / 2, 2)
        rank_deficient = pure_state(np.array([1.0, 0.0]), 2)
        assert relative_entropy(rho, rank_deficient) == float("inf")

    def test_dimension_mismatch(self):
        with pytest.raises(ModularError):
            relative_entropy(faithful(2, 0), faithful(3, 0))

    def test_positive_and_faithful_on_zero(self):
        rng_pairs = [(faithful(3, s), faithful(3, s + 100)) for s in range(20)]
        for rho, rho2 in rng_pairs:
            h = relative_entropy(rho, rho2)
            assert h >= -1e-12
            # distinguishes distinct states
            dist = np.linalg.norm(rho.matrix - rho2.matrix)
            if dist > 1e-3:
                assert h > 1e-8


class TestArakiForm:
    def test_equal_states(self):
        rho = faithful(3, 1)
        assert abs(araki_relative_entropy(rho, rho)) <= 1e-10

    def test_matches_trace_formula(self):
        for seed in range(10):
            rho, rho2 = faithful(3, seed), faithful(3, seed + 50)
            a = araki_relative_entropy(rho, rho2)
            b = relative_entropy(rho, rho2)
            assert abs(a - b) <= 1e-8

    def test_scalar_example(self):
        rho = density_matrix(np.diag([0.7, 0.3]).astype(complex), 2)
        rho2 = density_matrix(np.diag([0.5, 0.5]).astype(complex), 2)
        want = 0.7 * math.log(0.7 / 0.5) + 0.3 * math.log(0.3 / 0.5)
        assert abs(araki_relative_entropy(rho, rho2) - want) <= 1e-12

    def test_rejects_non_faithful(self):
        rho = pure_state(np.array([1.0, 0.0]), 2)
        with pytest.raises(ModularError, match="relative_entropy"):
            araki_relative_entropy(rho, faithful(2, 0))


class TestConnesCocycle:
    def test_t_zero_identity(self):
        rho, rho2 = faithful(3, 2), faithful(3, 3)
        assert np.allclose(connes_cocycle(rho, rho2, 0.0), np.eye(3))

    def test_equal_states_identity(self):
        rho = faithful(3, 4)
        for t in (0.3, -1.2, 5.0):
            assert np.allclose(connes_cocycle(rho, rho, t), np.eye(3), atol=1e-12)

    def test_unitarity(self):
        rho, rho2 = faithful(4, 5), faithful(4, 6)
        u = connes_cocycle(rho, rho2, 0.7)
        assert np.linalg.norm(u @ u.conj().T - np.eye(4)) <= 1e-10

    def test_chain_rule(self):
        rho, rho2, rho3 = faithful(3, 7), faithful(3, 8), faithful(3, 9)
        for t in (0.11, -0.43):
            lhs = connes_cocycle(rho, rho3, t)
            rhs = connes_cocycle(rho, rho2, t) @ connes_cocycle(rho2, rho3, t)
            assert np.linalg.norm(lhs - rhs) <= 1e-9

    def test_derivative_gives_relative_entropy(self):
        for seed in range(10):
            rho, rho2 = faithful(3, seed + 10), faithful(3, seed + 60)
            d = cocycle_derivative(rho, rho2, t=1e-5)
            assert abs(d - relative_entropy(rho, rho2)) <= 1e-3


class TestKms:
    def test_trivial_observables(self):
        rho = faithful(3, 1)
        assert kms_check(rho, np.eye(3, dtype=complex), np.eye(3, dtype=complex)) <= 1e-12

    def test_random_dim2(self):
        rng = np.random.default_rng(2)
        rho = faithful(2, 2)
        for _ in range(5):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            dev = kms_check(rho, 0.5 * (a + a.conj().T), 0.5 * (b + b.conj().T))
            assert dev <= 1e-9

    def test_maximally_mixed_trivial_flow(self):
        rho = density_matrix(np.eye(3, dtype=complex) / 3, 3)
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 3))
        dev = kms_check(rho, 0.5 * (a + a.T).astype(complex), np.eye(3, dtype=complex))
        assert dev <= 1e-10


class TestNaturalCone:
    def test_pure_projector(self):
        rho = pure_state(np.array([0.6, 0.8]), 2)
        assert np.linalg.norm(natural_cone_rep(rho) - rho.matrix) <= 1e-12

    def test_diagonal(self):
        rho = density_matrix(np.diag([0.25, 0.75]).astype(complex), 2)
        assert np.allclose(natural_cone_rep(rho), np.diag([0.5, math.sqrt(3) / 2]))

    def test_unit_norm(self):
        rho = faithful(4, 11)
        rep = natural_cone_rep(rho)
        assert abs(np.linalg.norm(rep) - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(rep).min() >= -1e-12

    def test_gns_rep_requires_faithful(self):
        with pytest.raises(ModularError):
            gns_rep(pure_state(np.array([1.0, 0.0]), 2))


class TestPowersStormer:
    def test_equal(self):
        rho = faithful(3, 1)
        lhs, rhs = powers_stormer_gap(rho, rho)
        assert lhs <= 1e-12 and rhs <= 1e-12

    def test_orthogonal_pure(self):
        rho = pure_state(np.array([1.0, 0.0]), 2)
        rho2 = pure_state(np.array([0.0, 1.0]), 2)
        lhs, rhs = powers_stormer_gap(rho, rho2)
        assert abs(lhs - 2.0) <= 1e-12
        assert abs(rhs - 2.0) <= 1e-12

    def test_random_sweep(self):
        for seed in range(200):
            rho = random_density_matrix(4, seed=seed)
            rho2 = random_density_matrix(4, seed=seed + 1000)
            lhs, rhs = powers_stormer_gap(rho, rho2)
            assert lhs >= rhs - 1e-10


class TestEntropyProperties:
    def test_h3_joint_convexity(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            rhos = [faithful(3, seed * 3 + k) for k in range(3)]
            sigs = [faithful(3, seed * 3 + k + 500) for k in range(3)]
            lam = rng.dirichlet(np.ones(3))
            mix_r = density_matrix(sum(l * r.matrix for l, r in zip(lam, rhos)), 3)
            mix_s = density_matrix(sum(l * s.matrix for l, s in zip(lam, sigs)), 3)
            lhs = relative_entropy(mix_r, mix_s)
            rhs = sum(l * relative_entropy(r, s) for l, r, s in zip(lam, rhos, sigs))
            assert lhs <= rhs + 1e-9

    def test_h5_dominated_comparison(self):
        # rho2 >= c * rho forces H(rho, rho2) <= -log c
        for seed in range(10):
            rho = faithful(3, seed)
            other = faithful(3, seed + 40)
            c = 0.3
            rho2 = density_matrix(c * rho.matrix + (1 - c) * other.matrix, 3)
            assert relative_entropy(rho, rho2) <= -math.log(c) + 1e-9

    def test_h6_uhlmann_monotonicity(self):
        for seed in range(10):
            rho, rho2 = faithful(3, seed), faithful(3, seed + 70)
            kraus = random_kraus_family(3, n_ops=2, seed=seed)
            fr, fr2 = apply_kraus(rho, kraus), apply_kraus(rho2, kraus)
            assert relative_entropy(fr, fr2) <= relative_entropy(rho, rho2) + 1e-9

    def test_h7_tensor_identity(self):
        for seed in range(5):
            omega = random_density_matrix(2, 2, seed=seed)
            w1 = DensityMatrix(2, 1, _marginal(omega, "A"))
            w2 = DensityMatrix(2, 1, _marginal(omega, "B"))
            w1p, w2p = faithful(2, seed + 11), faithful(2, seed + 21)
            lhs = relative_entropy(omega, product_dm(w1p, w2p))
            rhs = (
                relative_entropy(omega, product_dm(w1, w2))
                + relative_entropy(w1, w1p)
                + relative_entropy(w2, w2p)
            )
            assert abs(lhs - rhs) <= 1e-8

    def test_three_way_equivalence(self):
        for seed in range(5):
            rho, rho2 = faithful(3, seed + 30), faithful(3, seed + 90)
            h_trace = relative_entropy(rho, rho2)
            h_araki = araki_relative_entropy(rho, rho2)
            h_cocycle = cocycle_derivative(rho, rho2)
            assert abs(h_trace - h_araki) <= 1e-8
            assert abs(h_trace - h_cocycle) <= 1e-3


def _marginal(rho, keep):
    from entbound.linalg import partial_trace

    return partial_trace(rho, keep).matrix


def product_dm(r1, r2):
    return product_state(r1.matrix, r2.matrix)
