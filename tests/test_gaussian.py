import math
import re

import numpy as np
import pytest

from entbound import config, gaussian
from entbound.bounds import gap_s
from entbound.gaussian import (
    GaussianError,
    LatticeGeometry,
    RegionSpec,
    build_state,
    correlator_lower_bound,
    decay_row,
    kg_upper_bound,
    laplacian,
    principal_cosines,
    region_projectors,
)
from oracles import (
    correlator_lower_bound_loop,
    covariance_form,
    decay_sweep,
    kg_upper_bound_projectors,
    log_linear_fit,
    principal_candidates,
    principal_candidates_loop,
    principal_gram,
    region_data_map,
    symplectic_form,
    weyl_expectation,
    weyl_two_point,
)


def small_state(sites=16, mass=1.0, spacing=1.0, boundary="dirichlet"):
    return build_state(LatticeGeometry(sites, spacing, mass, boundary))


def upper_of(state, regions):
    return kg_upper_bound(principal_cosines(state, regions)[0])


def lower_of(state, regions):
    return correlator_lower_bound(*principal_cosines(state, regions), state.geometry.sites)


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
        assert np.linalg.norm(state.c_power(1.0) - want) <= 1e-10

    def test_large_mass_limit(self):
        with pytest.warns(UserWarning, match="mass-dominated"):
            geom = LatticeGeometry(12, 1.0, 50.0, "dirichlet")
        state = build_state(geom)
        scale = np.linalg.norm(np.eye(12) / 50.0**2)
        assert np.linalg.norm(state.c_power(1.0) - np.eye(12) / 50.0**2) <= 0.01 * scale

    def test_periodic_circulant_eigenvalues(self):
        n, a, m = 16, 0.5, 1.0
        state = build_state(LatticeGeometry(n, a, m, "periodic"))
        w = np.sort(np.linalg.eigvalsh(state.c_power(1.0)))
        want = np.sort([1.0 / (m**2 + 4.0 * math.sin(math.pi * k / n) ** 2 / a**2) for k in range(n)])
        assert np.allclose(w, want, atol=1e-12)

    def test_purity_surrogate(self):
        state = small_state()
        n = state.geometry.sites
        assert np.linalg.norm(state.c_power(0.5) @ state.c_power(-0.5) - np.eye(n)) <= 1e-9 * n

    def test_capacity_norm_bounded_by_mass(self):
        state = small_state(mass=0.7)
        top = np.linalg.eigvalsh(state.c_power(1.0)).max()
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
    """region_projectors returns orthonormal bases U; the projectors are U U^T."""

    def test_full_region_identity(self):
        state = small_state()
        n = state.geometry.sites
        for u in region_projectors(state, range(n)):
            assert u.shape == (n, n)
            assert np.linalg.norm(u.T @ u - np.eye(n)) <= 1e-10
            assert np.linalg.norm(u @ u.T - np.eye(n)) <= 1e-8

    def test_single_site_rank_one(self):
        state = small_state()
        up, um = region_projectors(state, [5])
        for u, p in ((up, -0.25), (um, 0.25)):
            assert u.shape == (state.geometry.sites, 1)
            q = u @ u.T
            assert abs(np.trace(q).real - 1.0) <= 1e-10
            col = state.c_power(p)[:, 5]
            col = col / np.linalg.norm(col)
            assert np.linalg.norm(q @ col - col) <= 1e-10

    def test_projector_properties_and_svd_oracle(self):
        state = small_state()
        idx = [2, 3, 4, 9]
        up, um = region_projectors(state, idx)
        for u in (up, um):
            assert np.linalg.norm(u.T @ u - np.eye(len(idx))) <= 1e-12
            q = u @ u.T
            assert np.linalg.norm(q @ q - q) <= 1e-9
            assert np.linalg.norm(q - q.T) <= 1e-12
        # SVD oracle for the span: stack columns and compare projectors
        cols = state.c_power(-0.25)[:, idx]
        v, s, _ = np.linalg.svd(cols, full_matrices=False)
        want = v @ v.T
        assert np.linalg.norm(up @ up.T - want) <= 1e-9


class TestKgUpperBound:
    def test_bprime_everything_gives_zero(self):
        state = small_state()
        n = state.geometry.sites
        # B empty complement edge case is modeled by B' = all sites: build it
        # directly from the projector identity (1 - Q_everything) = 0
        ua_p, ua_m = region_projectors(state, [1, 2])
        ub_p, ub_m = region_projectors(state, range(n))
        for ua, ub in ((ua_p, ub_m), (ua_m, ub_p)):
            x = (np.eye(n) - ub @ ub.T) @ (ua @ ua.T)
            assert np.linalg.norm(x) <= 1e-7
            assert np.linalg.norm(ua - ub @ (ub.T @ ua)) <= 1e-7

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
            vals.append(upper_of(state, RegionSpec(tuple(range(4, a_end)), b)))
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
        phase = np.exp(-1j * symplectic_form(state, f, g))
        assert abs(v1 - v2 * phase) <= 1e-12


def optimal_x(c: float) -> float:
    """(c/2)(1 - c)^{(1-c)/c}, the peak over u of (1/2)(e^{-u(1-c)} - e^{-u})."""
    return 0.5 * c * (1.0 - c) ** ((1.0 - c) / c)


def sweep_regions(gap):
    return RegionSpec(tuple(range(24, 40)), tuple(range(40 + gap, 256)))


# (geometry, regions): the adjacent and the periodic configurations of the
# loop comparisons below; B wraps around the end of the ring in the second
SMALL_CONFIGS = {
    "adjacent": ((32, 1.0, 0.5, "dirichlet"), RegionSpec(tuple(range(4, 15)), tuple(range(16, 28)))),
    "periodic": ((24, 0.5, 1.0, "periodic"), RegionSpec((3, 4, 5, 6), (9, 10, 20, 21, 22, 23, 0))),
}


@pytest.fixture(scope="module")
def lattice_state():
    return build_state(LatticeGeometry(256, 0.25, 0.8, "dirichlet"))


def config_case(name, lattice_state):
    if name.startswith("gap"):
        return lattice_state, sweep_regions(int(name[3:]))
    geom, regions = SMALL_CONFIGS[name]
    return build_state(LatticeGeometry(*geom)), regions


CASES = ["gap6", "gap14", "gap22", "adjacent", "periodic"]


class TestCorrelatorLowerBound:
    def test_far_regions_tiny(self):
        state = build_state(LatticeGeometry(48, 1.0, 1.0, "dirichlet"))
        regions = RegionSpec((0, 1, 2), (45, 46, 47))
        val = lower_of(state, regions)
        assert val <= 1e-6

    def test_adjacent_regions_visible(self):
        state = build_state(LatticeGeometry(32, 1.0, 0.5, "dirichlet"))
        regions = RegionSpec(tuple(range(4, 15)), tuple(range(16, 28)))
        val = lower_of(state, regions)
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
        assert lower_of(state, regions) >= 0.0

    def test_lower_switches_the_bound_on(self, lattice_state):
        rows = [decay_row(lattice_state, tuple(range(24, 40)), 10, lower) for lower in (False, True)]
        assert rows[0][3] == 0.0
        assert rows[1][3] == lower_of(lattice_state, sweep_regions(10)) and rows[1][3] > 0.0
        assert rows[0][:3] == rows[1][:3]
        assert rows[0][2] == upper_of(lattice_state, sweep_regions(10))

    @pytest.mark.parametrize("lower", [False, True])
    def test_row_computes_its_cosines_once(self, lattice_state, monkeypatch, lower):
        # both bounds share one set of cosines, so each row builds two bases:
        # region A (16 sites) and the complement of B, sites 0 .. 40 + gap - 1
        calls = []

        def counted(state, indices):
            calls.append(len(indices))
            return region_projectors(state, indices)

        monkeypatch.setattr(gaussian, "region_projectors", counted)
        for gap in (6, 14):
            decay_row(lattice_state, tuple(range(24, 40)), gap, lower)
        assert calls == [16, 46, 16, 54]


class TestPrincipalCosines:
    """Thin cosines against the QR Gram matrix and the n x n projector form."""

    @pytest.mark.parametrize("case", CASES)
    def test_cosines_match_gram_singular_values(self, lattice_state, case):
        state, regions = config_case(case, lattice_state)
        cosines, full = principal_cosines(state, regions)
        assert full
        assert [c.size for c in cosines] == [len(regions.indices_a)] * 2
        want = np.linalg.svd(principal_gram(state, regions)[0], compute_uv=False)
        got = np.sort(np.concatenate(cosines))[::-1]
        assert abs(got[0] - want[0]) <= 1e-12 * want[0]
        assert np.max(np.abs(got - want[: got.size])) <= 1e-14

    @pytest.mark.parametrize("case", CASES)
    def test_upper_bound_matches_projector_oracle(self, lattice_state, case):
        # the n x n SVD also sums sqrt of its round-off singular values, which
        # moves the bound by up to 6.7e-7 relative on the lattice sweep
        state, regions = config_case(case, lattice_state)
        want = kg_upper_bound_projectors(state, regions)
        assert abs(upper_of(state, regions) - want) <= 2e-6 * want

    def test_rank_truncated_region_gives_zero(self, lattice_state, monkeypatch):
        regions = sweep_regions(6)
        monkeypatch.setattr(config, "RANK_CUT", 0.34)
        with pytest.warns(UserWarning, match="numerically dependent"):
            cosines, full = principal_cosines(lattice_state, regions)
        with pytest.warns(UserWarning, match="numerically dependent"):
            lower = lower_of(lattice_state, regions)
        monkeypatch.undo()
        assert not full and lower == 0.0
        # the truncated complement no longer matches region B's span, and its
        # top cosine overshoots the true one
        true_c1 = np.linalg.svd(principal_gram(lattice_state, regions)[0], compute_uv=False)[0]
        assert max(c[0] for c in cosines) > true_c1


class TestCorrelatorClosedForm:
    """The closed-form bound s(x*(c_1)) against the candidate-by-candidate
    loop, which it must dominate, and against the row's upper bound."""

    @pytest.mark.parametrize("gap", [6, 14, 22])
    def test_matches_loop_on_lattice_sweep(self, lattice_state, gap):
        regions = sweep_regions(gap)
        want = correlator_lower_bound_loop(lattice_state, regions, trials=48, seed=0)
        got = lower_of(lattice_state, regions)
        assert 0.0 < want <= got <= upper_of(lattice_state, regions)

    def test_matches_loop_adjacent_regions(self, lattice_state):
        state, regions = config_case("adjacent", lattice_state)
        want = correlator_lower_bound_loop(state, regions, trials=256, seed=0)
        got = lower_of(state, regions)
        assert 0.0 < want <= got <= upper_of(state, regions)

    def test_matches_loop_periodic_chain(self, lattice_state):
        state, regions = config_case("periodic", lattice_state)
        want = correlator_lower_bound_loop(state, regions, trials=64, seed=2)
        got = lower_of(state, regions)
        assert 1e-6 < want <= got <= upper_of(state, regions)

    def test_far_regions_at_round_off_floor(self):
        # every cosine here is round-off (the Gram matrix's top singular value
        # is 3e-16), so the bound is 0 and the loop is at the same floor
        state = build_state(LatticeGeometry(48, 1.0, 1.0, "dirichlet"))
        regions = RegionSpec((0, 1, 2), (45, 46, 47))
        want = correlator_lower_bound_loop(state, regions, trials=64, seed=0)
        got = lower_of(state, regions)
        assert got == 0.0
        assert abs(got - want) <= 1e-20

    @pytest.mark.parametrize("case", CASES)
    def test_equals_gap_function_at_gram_optimum(self, lattice_state, case):
        state, regions = config_case(case, lattice_state)
        c1 = np.linalg.svd(principal_gram(state, regions)[0], compute_uv=False)[0]
        want = gap_s(optimal_x(c1))
        assert abs(lower_of(state, regions) - want) <= 1e-10 * want

    @pytest.mark.parametrize("c", [1e-4, 0.01, 0.0785, 0.3, 0.7, 0.95])
    def test_optimum_maximises_pair_correlator(self, c):
        u = np.linspace(1e-3, 80.0, 400_001)
        x = 0.5 * (np.exp(-u * (1.0 - c)) - np.exp(-u))
        u_star = -math.log1p(-c) / c
        assert np.max(x) <= optimal_x(c) * (1 + 1e-12)
        assert np.max(x) >= optimal_x(c) * (1 - 1e-8)
        assert abs(0.5 * (math.exp(-u_star * (1 - c)) - math.exp(-u_star)) - optimal_x(c)) <= 1e-14
        # the pair (f, g) has half correlator (1/2) e^{-u}(1 - e^{-uc}), never more
        assert np.all(0.5 * np.exp(-u) * -np.expm1(-u * c) <= x)

    @pytest.mark.parametrize("case", CASES)
    def test_principal_pair_realises_the_bound(self, lattice_state, case):
        # W(sqrt(u*) f) and W(-sqrt(u*) g), f and g the top principal pair at
        # unit covariance: their half connected correlator is x*(c_1)
        state, regions = config_case(case, lattice_state)
        n = state.geometry.sites
        coef_a, coef_b = principal_candidates(state, regions)
        f, g = np.zeros(2 * n), np.zeros(2 * n)
        ia, ib = np.array(regions.indices_a), np.array(regions.indices_b)
        f[np.r_[ia, ia + n]] = coef_a[:, 0]
        g[np.r_[ib, ib + n]] = coef_b[:, 0]
        f /= math.sqrt(covariance_form(state, f, f))
        g /= math.sqrt(covariance_form(state, g, g))
        c = abs(covariance_form(state, f, g))
        g *= -math.copysign(1.0, covariance_form(state, f, g))
        u_star = -math.log1p(-c) / c
        fs, gs = math.sqrt(u_star) * f, math.sqrt(u_star) * g
        corr = weyl_two_point(state, fs, gs) - weyl_expectation(state, fs) * weyl_expectation(state, gs)
        got = lower_of(state, regions)
        assert abs(0.5 * abs(corr) - optimal_x(c)) <= 1e-10 * optimal_x(c)
        assert abs(gap_s(0.5 * abs(corr)) - got) <= 1e-9 * got

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
        # the oracle's QR form against its loop form: coefficient columns (q, then p on the region's sites), one pair per
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

    @pytest.mark.parametrize("a, b", [((-3, -2), (5, 6)), ((1, 2), (15, 16)), ((1, 2), (-1,))])
    def test_sites_outside_the_chain_rejected(self, a, b):
        # numpy would wrap a negative index round to the far end of the chain
        state = small_state()
        with pytest.raises(GaussianError, match="0..15"):
            principal_cosines(state, RegionSpec(a, b))
        with pytest.raises(GaussianError, match="0..15"):
            region_projectors(state, a + b)

    @pytest.mark.parametrize("spacing, mass", [(1.0, math.nan), (math.nan, 1.0),
                                               (math.inf, 1.0), (1.0, math.inf), (1.0, -1.0)])
    def test_geometry_rejects_non_finite_or_non_positive(self, spacing, mass):
        with pytest.raises(GaussianError, match="positive and finite"):
            LatticeGeometry(16, spacing, mass)

    @pytest.mark.parametrize("spacing, mass, match", [
        (0.25, 1e200, "mass 1e+200 is too large"),
        (1e-160, 1.0, "spacing 1e-160 is too small"),
        (1e-154, 1.0, "spacing 1e-154 is too small"),
        (2.1e-154, 1.3e154, "spacing 2.1e-154 is too small for mass 1.3e+154"),
    ])
    def test_geometry_rejects_an_overflowing_kinetic_operator(self, spacing, mass, match):
        with pytest.raises(GaussianError, match=re.escape(match)):
            LatticeGeometry(16, spacing, mass)

    def test_kinetic_operator_at_the_edge_of_the_float_range(self):
        # mass**2 + 4/spacing**2 ~ 1.8e308 stays finite, and the state builds
        state = build_state(LatticeGeometry(16, 1.5e-154, 1.0))
        assert np.all(np.isfinite(state.c_power(0.25)))
