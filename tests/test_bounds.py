import math

import numpy as np
import pytest

from entbound.bounds import (
    BoundsError,
    GapFunctionTable,
    PackingConfig,
    area_law_lower,
    gap_s,
    gap_s_series,
    gap_table,
)
from entbound.linalg import (
    density_matrix,
    maximally_entangled,
    product_state,
    pure_state,
    random_density_matrix,
)
from entbound.measures import mutual_info_correlator_bound, mutual_information
from oracles import (
    correlator_bound_random_trials,
    entropy_gap_check,
    fidelity_lower_bound_check,
    gap_s_mp,
    gap_s_scalar,
)

# where the two geometric halves of the gap table's grid meet
GRID_SEAM = 0.5235


class TestGapFunction:
    def test_small_x_series(self):
        x = 0.05
        want = 2 * x**2 + (4.0 / 9.0) * x**4
        assert abs(gap_s(x) - want) <= 1e-6

    def test_series_window(self):
        for x in np.linspace(0.01, 0.1, 10):
            assert abs(gap_s(float(x)) - gap_s_series(float(x))) <= 1e-5

    def test_near_one(self):
        x = 0.999
        assert abs(gap_s(x) - (-math.log(1 - x))) <= 0.02 * abs(math.log(1 - x))

    def test_pinsker_refinement_on_grid(self):
        for x in np.linspace(0.005, 0.995, 100):
            assert gap_s(float(x)) >= 2 * float(x) ** 2 - 1e-12

    def test_monotone_convex(self):
        xs = np.linspace(0.004, 0.996, 200)
        vals = np.array([gap_s(float(x)) for x in xs])
        assert np.all(np.diff(vals) > 0)
        second = np.diff(vals, 2)
        assert second.min() >= -1e-9

    def test_domain(self):
        for bad in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(BoundsError):
                gap_s(bad)
        with pytest.raises(BoundsError):
            gap_s(np.array([0.2, 1.0]))

    @pytest.mark.parametrize("x", [1e-6, 1e-4, 0.05, GRID_SEAM, 0.9, 0.999, 1 - 1e-6, 1 - 1e-12])
    def test_mpmath_anchor(self, x):
        want = float(gap_s_mp(x))
        assert abs(gap_s(x) - want) <= 1e-9 * want

    @pytest.mark.parametrize("x", [1e-6, 1e-5, 1e-4, 1e-3])
    def test_small_gap_to_round_off(self, x):
        # D is summed from two nonnegative terms, so it keeps full relative
        # precision while s(x) ~ 2x^2 is far below x
        want = float(gap_s_mp(x))
        assert abs(gap_s(x) - want) <= 1e-13 * want

    def test_agrees_with_scalar_oracle(self):
        xs = np.concatenate([np.geomspace(1e-3, 0.97, 150), np.linspace(0.97, 0.999, 30)[1:]])
        new = gap_s(xs)
        old = np.array([gap_s_scalar(float(x)) for x in xs])
        rel = (old - new) / old
        # past x = 0.97 the oracle's bracket (1-x)(1 - 1e-12) cuts off the
        # minimiser, so it sits above s there (by up to 2.4e-9; the anchors
        # at 0.999 and 1 - 1e-6 pin the new values to mpmath)
        cut = xs > 0.97
        assert np.all(np.abs(rel[~cut]) <= 1e-9)
        assert np.all((rel[cut] >= -1e-12) & (rel[cut] <= 3e-9))

    def test_array_matches_floats(self):
        xs = np.concatenate([np.geomspace(1e-6, 0.5, 40), 1 - np.geomspace(1e-6, 0.5, 40)])
        got = gap_s(xs)
        assert isinstance(got, np.ndarray) and got.shape == xs.shape
        floats = [gap_s(float(x)) for x in xs]
        assert all(type(v) is float for v in floats)
        assert np.array_equal(got, np.array(floats))

    def test_table_matches_direct(self):
        table = gap_table()
        for x in (0.01, 0.2, 0.5, 0.9, 0.99):
            assert abs(table(x) - gap_s(x)) <= 2e-4 * max(gap_s(x), 1e-3)

    def test_table_grid_is_strictly_increasing(self):
        grid = GapFunctionTable.build().grid
        left = np.geomspace(1e-6, 0.5, 200)
        right = 1.0 - np.geomspace(1e-6, 0.5, 200)[::-1]
        assert grid.size == 399 and np.all(np.diff(grid) > 0.0)
        assert np.array_equal(grid, np.unique(np.concatenate([left, right])))

    def test_table_is_lower_envelope(self):
        table = gap_table()
        xs = np.unique(np.concatenate([
            np.geomspace(1e-7, 0.45, 30),
            np.linspace(0.45, 0.6, 61),
            [GRID_SEAM],
            1 - np.geomspace(1e-7, 0.4, 30),
        ]))
        got = table(xs)
        for x, v in zip(xs, got):
            assert v <= float(gap_s_mp(float(x))) * (1 + 1e-9), x


class TestEntropyGap:
    def test_equal_states(self):
        rho = random_density_matrix(3, seed=0)
        h, s, ok = entropy_gap_check(rho, rho)
        assert ok and abs(h) <= 1e-10 and s <= 1e-10

    def test_orthogonal_pure(self):
        rho = pure_state(np.array([1.0, 0.0]), 2)
        rho2 = pure_state(np.array([0.0, 1.0]), 2)
        h, _, ok = entropy_gap_check(rho, rho2)
        assert math.isinf(h) and ok

    def test_random_sweep(self):
        for seed in range(300):
            rho = random_density_matrix(3, rank=3, seed=seed)
            rho2 = random_density_matrix(3, rank=3, seed=seed + 5000)
            _, _, ok = entropy_gap_check(rho, rho2)
            assert ok


class TestFidelityBound:
    def test_equal_states(self):
        rho = random_density_matrix(3, rank=3, seed=1)
        h, s, ok = fidelity_lower_bound_check(rho, rho)
        assert ok and abs(h) <= 1e-10 and s <= 1e-8

    def test_scalar_example(self):
        rho = density_matrix(np.diag([0.9, 0.1]).astype(complex), 2)
        rho2 = density_matrix(np.diag([0.1, 0.9]).astype(complex), 2)
        h, s, ok = fidelity_lower_bound_check(rho, rho2)
        overlap = 2 * math.sqrt(0.9 * 0.1)
        want_h = 0.8 * math.log(9)
        assert abs(h - want_h) <= 1e-12
        assert abs(s - gap_s(1 - overlap)) <= 1e-12
        assert ok

    def test_random_sweep(self):
        for seed in range(300):
            rho = random_density_matrix(4, rank=4, seed=seed)
            rho2 = random_density_matrix(4, rank=4, seed=seed + 9000)
            _, _, ok = fidelity_lower_bound_check(rho, rho2)
            assert ok


class TestCorrelatorBound:
    def test_product_state_zero(self):
        rho = product_state(random_density_matrix(2, seed=2).matrix,
                            random_density_matrix(2, seed=3).matrix)
        assert mutual_info_correlator_bound(rho) <= 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_phi_plus_exact(self, n):
        # cov(a, b) <= sqrt(var a var b) and var a <= 1 - (Tr a / n)^2, with
        # |Tr a| >= 1 for odd n; diagonal +-1 observables of least |trace|
        # reach it
        want = gap_s(0.5 * (1.0 - (n % 2) / n**2))
        assert abs(mutual_info_correlator_bound(maximally_entangled(n)) - want) <= 1e-12

    def test_never_exceeds_mutual_information(self):
        for seed in range(100):
            rho = random_density_matrix(2, 2, seed=seed)
            val = mutual_info_correlator_bound(rho)
            assert val <= mutual_information(rho).value + 1e-8

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_dominates_random_trials(self, d):
        for seed in range(100, 120):
            rank = int(np.random.default_rng(seed).integers(1, d * d + 1))
            rho = random_density_matrix(d, d, rank=rank, seed=seed)
            val = mutual_info_correlator_bound(rho)
            assert val >= correlator_bound_random_trials(rho, 64, 0) - 1e-12, seed
            assert mutual_info_correlator_bound(rho) == val


class TestAreaLaw:
    def test_zero_distillable(self):
        n, bound = area_law_lower(PackingConfig(eps=0.01, d=2, d2=0.0, boundary_area=10.0))
        assert bound == 0.0

    def test_d1_count(self):
        n, bound = area_law_lower(PackingConfig(eps=3.0**-10, d=1, d2=0.5))
        assert n == 9
        assert abs(bound - 9 * 0.5) <= 1e-12

    def test_scaling_laws(self):
        cfg = lambda eps, d: PackingConfig(eps=eps, d=d, d2=1.0, boundary_area=4000.0)
        n2a, _ = area_law_lower(cfg(0.01, 2))
        n2b, _ = area_law_lower(cfg(0.005, 2))
        assert abs(n2b / n2a - 2.0) <= 0.01
        n3a, _ = area_law_lower(cfg(0.05, 3))
        n3b, _ = area_law_lower(cfg(0.025, 3))
        assert abs(n3b / n3a - 4.0) <= 0.01

    def test_monotone_in_eps(self):
        bounds = [area_law_lower(PackingConfig(eps=e, d=2, d2=1.0, boundary_area=10.0))[1]
                  for e in (0.01, 0.02, 0.05, 0.1)]
        assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))

    def test_invalid_config(self):
        with pytest.raises(BoundsError):
            PackingConfig(eps=-1.0, d=2)

    @pytest.mark.parametrize("field", ["eps", "d2", "boundary_area", "length_a", "length_b"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(BoundsError, match=f"{field} must be"):
            PackingConfig(**{"eps": 0.01, "d": 2, field: value})
