import math

import numpy as np
import pytest

from entbound.linalg import (
    DensityMatrix,
    LinalgError,
    density_matrix,
    eigh,
    from_json_dict,
    matrix_power_psd,
    maximally_entangled,
    partial_trace,
    partial_transpose,
    product_state,
    pure_state,
    random_density_matrix,
    swap_sides,
    to_json_dict,
    trace_norm,
)
from oracles import jacobi_eigh, jacobi_singular_values, partial_trace_indexsum


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


class TestEigh:
    def test_identity(self):
        w, _ = eigh(np.eye(3, dtype=complex))
        assert np.allclose(w, [1, 1, 1])

    def test_already_diagonal(self):
        w, v = eigh(np.diag([0.2, 0.8]).astype(complex))
        assert np.allclose(w, [0.2, 0.8])
        assert np.allclose(np.abs(v), np.eye(2))

    def test_reconstruction_residual(self):
        m = random_hermitian(6, seed=3)
        w, v = eigh(m)
        recon = (v * w) @ v.conj().T
        assert np.linalg.norm(recon - m) <= 1e-10 * np.linalg.norm(m)
        assert np.linalg.norm(v.conj().T @ v - np.eye(6)) <= 1e-10

    def test_matches_jacobi_oracle(self):
        m = random_hermitian(5, seed=11)
        w, _ = eigh(m)
        w_oracle, _ = jacobi_eigh(m)
        assert np.allclose(w, w_oracle, atol=1e-9)

    def test_rejects_non_hermitian(self):
        with pytest.raises(LinalgError):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestMatrixFunction:
    def test_quarter_power_trace(self):
        m = np.diag([0.5, 0.5]).astype(complex)
        out = matrix_power_psd(m, 0.25)
        assert abs(np.trace(out).real - 2 * 0.5**0.25) < 1e-12

    def test_sqrt_then_square(self):
        rho = random_density_matrix(4, seed=5).matrix
        sq = matrix_power_psd(rho, 0.5)
        assert np.linalg.norm(sq @ sq - rho) <= 1e-9

    def test_log_domain_error_names_eigenvalue(self):
        m = np.diag([1.0, -0.5]).astype(complex)
        with pytest.raises(LinalgError, match="-0.5"):
            matrix_power_psd(m, 0.5)

    @pytest.mark.parametrize("p", [0.25, 0.5])
    def test_clip_floor_tolerates_round_off(self, p):
        # -5e-11 is within psd_slack and 5e-13 within SUPPORT_CUT: both are
        # round-off on the support's edge and map to zero
        m = np.diag([1.0, -5e-11, 5e-13]).astype(complex)
        out = matrix_power_psd(m, p)
        assert np.allclose(out, np.diag([1.0, 0.0, 0.0]), rtol=0.0, atol=1e-15)


class TestPartialTrace:
    def test_product_recovers_factor(self):
        ra = random_density_matrix(2, seed=1).matrix
        rb = random_density_matrix(3, seed=2).matrix
        rho = product_state(ra, rb)
        assert np.linalg.norm(partial_trace(rho, "A").matrix - ra) <= 1e-12
        assert np.linalg.norm(partial_trace(rho, "B").matrix - rb) <= 1e-12

    def test_maximally_entangled_marginal(self):
        red = partial_trace(maximally_entangled(2), "A")
        assert np.allclose(red.matrix, np.eye(2) / 2)

    def test_random_2x3_against_indexsum(self):
        rho = random_density_matrix(2, 3, seed=7)
        for keep in ("A", "B"):
            got = partial_trace(rho, keep).matrix
            want = partial_trace_indexsum(rho.matrix, 2, 3, keep)
            assert np.linalg.norm(got - want) <= 1e-12
            assert abs(np.trace(got).real - 1.0) <= 1e-10

    def test_monopartite_rejected(self):
        with pytest.raises(LinalgError):
            partial_trace(random_density_matrix(3, seed=0), "B")


class TestPartialTranspose:
    def test_diagonal_state_spectrum_unchanged(self):
        rho = DensityMatrix(2, 2, np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
        pt = partial_transpose(rho, "B")
        assert np.allclose(np.sort(np.linalg.eigvalsh(pt)), np.sort(rho.eigenvalues()))

    def test_maximally_entangled_negativity(self):
        # explicit 4x4 oracle: PT of |Phi+><Phi+| is the swap/2 with spectrum
        # {1/2, 1/2, 1/2, -1/2}
        pt = partial_transpose(maximally_entangled(2), "B")
        w = np.linalg.eigvalsh(pt)
        assert abs(w.min() + 0.5) <= 1e-12
        assert abs(np.trace(pt).real - 1.0) <= 1e-12

    def test_involution(self):
        from entbound.linalg import partial_transpose_matrix

        rho = random_density_matrix(2, 3, seed=3)
        twice = partial_transpose_matrix(partial_transpose(rho, "B"), 2, 3, "B")
        assert np.linalg.norm(twice - rho.matrix) <= 1e-14


class TestTraceNorm:
    def test_diagonal(self):
        assert abs(trace_norm(np.diag([1.0, -2.0])) - 3.0) < 1e-12

    def test_rank_one(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        assert abs(trace_norm(np.outer(u, v.conj())) - 1.0) < 1e-12

    def test_against_jacobi_svd(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert abs(trace_norm(m) - np.sum(jacobi_singular_values(m))) < 1e-9

    def test_triangle_and_unitary_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10
            qu, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            qv, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            assert abs(trace_norm(qu @ a @ qv) - trace_norm(a)) < 1e-10


class TestRandomDensityMatrix:
    def test_rank_one_is_pure(self):
        rho = random_density_matrix(2, 2, rank=1, seed=0)
        assert abs(rho.purity() - 1.0) <= 1e-10

    def test_deterministic(self):
        a = random_density_matrix(3, 2, rank=4, seed=42)
        b = random_density_matrix(3, 2, rank=4, seed=42)
        assert np.array_equal(a.matrix, b.matrix)

    def test_full_rank_positive(self):
        rho = random_density_matrix(2, 2, rank=4, seed=1)
        assert rho.eigenvalues().min() > 0

    def test_rank_out_of_range(self):
        with pytest.raises(LinalgError):
            random_density_matrix(2, 2, rank=5, seed=0)


class TestDensityMatrixInvariants:
    def test_trace_enforced(self):
        with pytest.raises(LinalgError):
            density_matrix(np.eye(2, dtype=complex), 2)

    def test_positivity_enforced(self):
        with pytest.raises(LinalgError):
            density_matrix(np.diag([1.5, -0.5]).astype(complex), 2)

    def test_dim_consistency(self):
        with pytest.raises(LinalgError):
            DensityMatrix(2, 2, np.eye(3) / 3)

    def test_random_states_valid(self):
        for seed in range(10):
            rho = random_density_matrix(2, 3, seed=seed)
            assert abs(np.trace(rho.matrix).real - 1) <= 1e-10
            assert rho.eigenvalues().min() >= -1e-10


class TestSwapAndJson:
    def test_swap_involution(self):
        rho = random_density_matrix(2, 3, seed=6)
        back = swap_sides(swap_sides(rho))
        assert np.linalg.norm(back.matrix - rho.matrix) <= 1e-14

    def test_swap_marginals(self):
        rho = random_density_matrix(2, 3, seed=8)
        sw = swap_sides(rho)
        assert np.allclose(partial_trace(sw, "A").matrix, partial_trace(rho, "B").matrix)

    def test_json_round_trip(self):
        rho = random_density_matrix(2, 2, seed=12)
        back = from_json_dict(to_json_dict(rho))
        assert np.array_equal(back.matrix, rho.matrix)
        assert (back.dimA, back.dimB) == (2, 2)

    def test_malformed_json(self):
        with pytest.raises(LinalgError):
            from_json_dict({"dimA": 2, "re": [[1, 0], [0, 0]]})

    def test_string_and_bool_entries_rejected(self):
        # np.asarray(..., dtype=float) would read this as diag(0.5, 0.5)
        with pytest.raises(LinalgError, match="JSON numbers"):
            from_json_dict({"dimA": 1, "dimB": 2, "re": [["0.5", False], [False, "0.5"]],
                            "im": [[0, 0], [0, 0]]})


def test_pure_state_norm_check():
    with pytest.raises(LinalgError):
        pure_state(np.array([1.0, 1.0]), 2)


def test_schmidt_marginal_entropy_scalar():
    p = (0.9, 0.1)
    psi = math.sqrt(p[0]) * np.kron([1, 0], [1, 0]) + math.sqrt(p[1]) * np.kron([0, 1], [0, 1])
    rho = pure_state(psi.astype(complex), 2, 2)
    red = partial_trace(rho, "A")
    w = np.sort(red.eigenvalues())
    assert np.allclose(w, sorted(p))
