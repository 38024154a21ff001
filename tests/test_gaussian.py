import math

import numpy as np
import pytest

from entbound.gaussian import (
    GaussianError,
    LatticeGeometry,
    RegionSpec,
    build_state,
    correlator_lower_bound,
    decay_sweep,
    kg_upper_bound,
    laplacian,
    log_linear_fit,
    principal_candidates,
    region_projectors,
    weyl_expectation,
    weyl_two_point,
)
from oracles import correlator_lower_bound_loop, principal_candidates_loop, region_data_map


def small_state(sites=16, mass=1.0, spacing=1.0, boundary="dirichlet"):
    return build_state(LatticeGeometry(sites, spacing, mass, boundary))


class TestBuildState:
    def test_dirichlet_matches_dense_inverse(self):
        geom = LatticeGeometry(8, 1.0, 1.0, "dirichlet")
        state = build_state(geom)
        # oracle: explicit tridiagonal, dense inverse
        k = np.zeros((8, 8))
        for i in range(8):
            k[i, i] = 2.0 + 1.0
            if i + 1 < 8:
                k[i, i + 1] = -1.0
                k[i + 1, i] = -1.0
        want = np.linalg.inv(k)
        assert np.linalg.norm(state.c_matrix - want) <= 1e-10

    def test_large_mass_limit(self):
        with pytest.warns(UserWarning, match="mass-dominated"):
            geom = LatticeGeometry(12, 1.0, 50.0, "dirichlet")
        state = build_state(geom)
        scale = np.linalg.norm(np.eye(12) / 50.0**2)
        assert np.linalg.norm(state.c_matrix - np.eye(12) / 50.0**2) <= 0.01 * scale

    def test_periodic_circulant_eigenvalues(self):
        n, a, m = 16, 0.5, 1.0
        state = build_state(LatticeGeometry(n, a, m, "periodic"))
        w = np.sort(np.linalg.eigvalsh(state.c_matrix))
        want = np.sort([1.0 / (m**2 + 4.0 * math.sin(math.pi * k / n) ** 2 / a**2) for k in range(n)])
        assert np.allclose(w, want, atol=1e-12)

    def test_purity_surrogate(self):
        state = small_state()
        n = state.geometry.sites
        assert np.linalg.norm(state.c_power(0.5) @ state.c_power(-0.5) - np.eye(n)) <= 1e-9 * n

    def test_capacity_norm_bounded_by_mass(self):
        state = small_state(mass=0.7)
        top = np.linalg.eigvalsh(state.c_matrix).max()
        assert top <= 1.0 / 0.7**2 + 1e-9

    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
    def test_laplacian_matches_site_loop(self, boundary):
        geom = LatticeGeometry(11, 0.3, 1.0, boundary)
        n = geom.sites
        want = np.zeros((n, n))
        for i in range(n):
            want[i, i] = -2.0
            if i + 1 < n:
                want[i, i + 1] = 1.0
                want[i + 1, i] = 1.0
        if boundary == "periodic":
            want[0, n - 1] = 1.0
            want[n - 1, 0] = 1.0
        got = laplacian(geom)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == (want / geom.spacing**2).tobytes()

    def test_geometry_validation(self):
        with pytest.raises(GaussianError):
            LatticeGeometry(4, 1.0, 1.0)
        with pytest.warns(UserWarning):
            LatticeGeometry(16, 1.0, 3.0)  # m*a >= 2 only warns


class TestRegionProjectors:
    def test_full_region_identity(self):
        state = small_state()
        n = state.geometry.sites
        qp, qm = region_projectors(state, range(n))
        assert np.linalg.norm(qp - np.eye(n)) <= 1e-8
        assert np.linalg.norm(qm - np.eye(n)) <= 1e-8

    def test_single_site_rank_one(self):
        state = small_state()
        qp, qm = region_projectors(state, [5])
        for q, p in ((qp, -0.25), (qm, 0.25)):
            assert abs(np.trace(q).real - 1.0) <= 1e-10
            col = state.c_power(p)[:, 5]
            col = col / np.linalg.norm(col)
            assert np.linalg.norm(q @ col - col) <= 1e-10

    def test_projector_properties_and_svd_oracle(self):
        state = small_state()
        idx = [2, 3, 4, 9]
        qp, qm = region_projectors(state, idx)
        for q in (qp, qm):
            assert np.linalg.norm(q @ q - q) <= 1e-9
            assert np.linalg.norm(q - q.T) <= 1e-12
        # SVD oracle for the span: stack columns and compare projectors
        cols = state.c_power(-0.25)[:, idx]
        u, s, _ = np.linalg.svd(cols, full_matrices=False)
        want = u @ u.T
        assert np.linalg.norm(qp - want) <= 1e-9


class TestKgUpperBound:
    def test_bprime_everything_gives_zero(self):
        state = small_state()
        n = state.geometry.sites
        # B empty complement edge case is modeled by B' = all sites: build it
        # directly from the projector identity (1 - Q_everything) = 0
        qa_p, qa_m = region_projectors(state, [1, 2])
        qb_p, qb_m = region_projectors(state, range(n))
        for qa, qb in ((qa_p, qb_m), (qa_m, qb_p)):
            x = (np.eye(n) - qb) @ qa
            assert np.linalg.norm(x) <= 1e-7

    def test_monotone_in_gap(self):
        geom = LatticeGeometry(64, 0.25, 1.0, "dirichlet")
        rows = decay_sweep(geom, tuple(range(4, 12)), gaps=range(8, 25, 4))
        uppers = [r[2] for r in rows]
        assert all(u1 > u2 for u1, u2 in zip(uppers, uppers[1:]))

    def test_monotone_in_region_a(self):
        state = build_state(LatticeGeometry(48, 0.25, 1.0, "dirichlet"))
        b = tuple(range(30, 48))
        vals = []
        for a_end in (8, 10, 12):
            vals.append(kg_upper_bound(state, RegionSpec(tuple(range(4, a_end)), b)))
        assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12

    def test_decay_slope(self):
        geom = LatticeGeometry(64, 0.25, 1.0, "dirichlet")
        rows = decay_sweep(geom, tuple(range(4, 12)), gaps=range(8, 25, 2))
        rs = [r[1] for r in rows]
        ups = [r[2] for r in rows]
        slope, _, r2 = log_linear_fit(rs, ups)
        assert r2 >= 0.98
        assert slope <= -0.5 * 1.0 * 0.75


class TestWeylCorrelators:
    def test_inverse_data_cancels(self):
        state = small_state()
        rng = np.random.default_rng(0)
        f = rng.standard_normal(2 * state.geometry.sites)
        assert abs(weyl_two_point(state, f, -f) - 1.0) <= 1e-12

    def test_single_operator_bound(self):
        state = small_state()
        rng = np.random.default_rng(1)
        g = rng.standard_normal(2 * state.geometry.sites)
        val = weyl_two_point(state, np.zeros_like(g), g)
        assert 0.0 < abs(val) <= 1.0

    def test_modulus_bounded(self):
        state = small_state()
        rng = np.random.default_rng(2)
        for _ in range(50):
            f = rng.standard_normal(2 * state.geometry.sites)
            g = rng.standard_normal(2 * state.geometry.sites)
            assert abs(weyl_two_point(state, f, g)) <= 1.0 + 1e-12

    def test_weyl_relation_consistency(self):
        # omega(W(f)W(g)) against the exchanged order: differs by the phase
        # of the symplectic form only
        state = small_state()
        rng = np.random.default_rng(3)
        f = rng.standard_normal(2 * state.geometry.sites)
        g = rng.standard_normal(2 * state.geometry.sites)
        v1 = weyl_two_point(state, f, g)
        v2 = weyl_two_point(state, g, f)
        assert abs(abs(v1) - abs(v2)) <= 1e-12
        from entbound.gaussian import symplectic_form

        phase = np.exp(-1j * symplectic_form(state, f, g))
        assert abs(v1 - v2 * phase) <= 1e-12


class TestCorrelatorLowerBound:
    def test_far_regions_tiny(self):
        state = build_state(LatticeGeometry(48, 1.0, 1.0, "dirichlet"))
        regions = RegionSpec((0, 1, 2), (45, 46, 47))
        val = correlator_lower_bound(state, regions, trials=64, seed=0)
        assert val <= 1e-6

    def test_adjacent_regions_visible(self):
        state = build_state(LatticeGeometry(32, 1.0, 0.5, "dirichlet"))
        regions = RegionSpec(tuple(range(4, 15)), tuple(range(16, 28)))
        val = correlator_lower_bound(state, regions, trials=256, seed=0)
        assert val > 1e-4

    def test_zero_data_contributes_zero(self):
        state = small_state()
        zero = np.zeros(2 * state.geometry.sites)
        rng = np.random.default_rng(4)
        g = rng.standard_normal(2 * state.geometry.sites)
        corr = weyl_two_point(state, zero, g) - weyl_expectation(state, zero) * weyl_expectation(state, g)
        assert abs(corr) <= 1e-14

    def test_nonnegative(self):
        state = small_state()
        regions = RegionSpec((1, 2), (8, 9))
        assert correlator_lower_bound(state, regions, trials=16, seed=1) >= 0.0


class TestCorrelatorClosedForm:
    """The closed-form bound against the candidate-by-candidate loop."""

    @pytest.fixture(scope="class")
    def lattice_state(self):
        return build_state(LatticeGeometry(256, 0.25, 0.8, "dirichlet"))

    @pytest.mark.parametrize("gap", [6, 14, 22])
    def test_matches_loop_on_lattice_sweep(self, lattice_state, gap):
        regions = RegionSpec(tuple(range(24, 40)), tuple(range(40 + gap, 256)))
        want = correlator_lower_bound_loop(lattice_state, regions, trials=48, seed=0)
        got = correlator_lower_bound(lattice_state, regions, trials=48, seed=0)
        assert want > 0.0
        assert abs(got - want) <= 1e-10 * want

    def test_matches_loop_adjacent_regions(self):
        state = build_state(LatticeGeometry(32, 1.0, 0.5, "dirichlet"))
        regions = RegionSpec(tuple(range(4, 15)), tuple(range(16, 28)))
        want = correlator_lower_bound_loop(state, regions, trials=256, seed=0)
        got = correlator_lower_bound(state, regions, trials=256, seed=0)
        assert abs(got - want) <= 1e-10 * want

    def test_matches_loop_periodic_chain(self):
        # region B wraps around the end of the ring, next to region A
        state = build_state(LatticeGeometry(24, 0.5, 1.0, "periodic"))
        regions = RegionSpec((3, 4, 5, 6), (9, 10, 20, 21, 22, 23, 0))
        want = correlator_lower_bound_loop(state, regions, trials=64, seed=2)
        got = correlator_lower_bound(state, regions, trials=64, seed=2)
        assert want > 1e-6
        assert abs(got - want) <= 1e-10 * want

    def test_far_regions_at_round_off_floor(self):
        state = build_state(LatticeGeometry(48, 1.0, 1.0, "dirichlet"))
        regions = RegionSpec((0, 1, 2), (45, 46, 47))
        want = correlator_lower_bound_loop(state, regions, trials=64, seed=0)
        got = correlator_lower_bound(state, regions, trials=64, seed=0)
        assert abs(got - want) <= 1e-20

    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
    def test_region_data_map_is_block_structured(self, boundary):
        state = build_state(LatticeGeometry(20, 0.5, 1.0, boundary))
        idx = [2, 3, 7, 15]
        zero = np.zeros((20, len(idx)))
        block = np.block([[zero, state.c_power(0.25)[:, idx]],
                          [-state.c_power(-0.25)[:, idx], zero]])
        assert np.array_equal(region_data_map(state, idx), block)

    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
    def test_principal_candidates_match_loop(self, boundary):
        # coefficient columns (q, then p on the region's sites), one pair per
        # column, each fixed up to a common sign.  The loop's last two pairs
        # come from the J-rotated Gram matrix, the symplectic form between the
        # regions, which vanishes for disjoint regions, so they are singular
        # vectors of round-off and have no counterpart
        state = build_state(LatticeGeometry(40, 0.5, 0.8, boundary))
        regions = RegionSpec(tuple(range(6, 14)), tuple(range(17, 30)))
        coef_a, coef_b = principal_candidates(state, regions)
        assert coef_a.shape == (16, 2) and coef_b.shape == (26, 2)
        n = state.geometry.sites
        ia, ib = np.array(regions.indices_a), np.array(regions.indices_b)
        for k, (f, g) in enumerate(principal_candidates_loop(state, regions)[:2]):
            want = np.concatenate([f[ia], f[ia + n], g[ib], g[ib + n]])
            got = np.concatenate([coef_a[:, k], coef_b[:, k]])
            if got @ want < 0:
                got = -got
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


class TestRegionSpecValidation:
    def test_overlap_rejected(self):
        with pytest.raises(GaussianError):
            RegionSpec((1, 2, 3), (3, 4))

    def test_empty_rejected(self):
        with pytest.raises(GaussianError):
            RegionSpec((), (1,))
