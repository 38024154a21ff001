import math

import numpy as np
import pytest

from entbound.cft import (
    FREE_SCALAR_4D,
    CftError,
    DiamondConfig,
    SpectrumRow,
    SpectrumTable,
    bw_massive_series,
    bw_short_distance,
    cardy_degeneracies,
    chiral_bound,
    chiral_cross_ratio,
    concentric_bound,
    concentric_config,
    cross_ratios,
    free_scalar_character_log,
    free_scalar_spectrum_4d,
    general_bound_3p1,
    kms_power_law,
    massless_free_scalar_power,
    minkowski_square,
    quantum_integer,
    tau_theta,
)


def random_boost(rng):
    """Proper orthochronous Lorentz boost along a random spatial axis."""
    chi = rng.uniform(-1.5, 1.5)
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    lam = np.eye(4)
    c, s = math.cosh(chi), math.sinh(chi)
    lam[0, 0] = c
    lam[0, 1:] = -s * axis
    lam[1:, 0] = -s * axis
    lam[1:, 1:] = np.eye(3) + (c - 1.0) * np.outer(axis, axis)
    return lam


class TestCrossRatios:
    def test_concentric_symbolic(self):
        # r=1, R=2: u = 16 r^2 R^2/(R-r)^4 = 64, v = 16 r^2 R^2/(R+r)^4 = 64/81
        u, v = cross_ratios(concentric_config(1.0, 2.0))
        assert abs(u - 64.0) <= 1e-12
        assert abs(v - 64.0 / 81.0) <= 1e-12

    def test_time_reflection_invariance(self):
        cfg = concentric_config(1.0, 2.0)
        flipped = DiamondConfig(
            x_a_plus=-cfg.x_a_minus, x_a_minus=-cfg.x_a_plus,
            x_b_plus=cfg.x_b_plus, x_b_minus=cfg.x_b_minus,
        )
        assert np.allclose(cross_ratios(cfg), cross_ratios(flipped))

    def test_lorentz_invariance(self):
        rng = np.random.default_rng(3)
        cfg = concentric_config(0.7, 2.3)
        u0, v0 = cross_ratios(cfg)
        for _ in range(10):
            lam = random_boost(rng)
            boosted = DiamondConfig(
                x_a_plus=lam @ cfg.x_a_plus, x_a_minus=lam @ cfg.x_a_minus,
                x_b_plus=lam @ cfg.x_b_plus, x_b_minus=lam @ cfg.x_b_minus,
            )
            u, v = cross_ratios(boosted)
            assert abs(u - u0) <= 1e-9 * u0
            assert abs(v - v0) <= 1e-9 * v0

    def test_metric_signature(self):
        assert minkowski_square(np.array([1.0, 0, 0, 0])) == -1.0
        assert minkowski_square(np.array([0.0, 1, 2, 2])) == 9.0

    def test_invalid_diamond(self):
        with pytest.raises(CftError):
            DiamondConfig(
                x_a_plus=np.array([0.0, 1.0, 0, 0]), x_a_minus=np.zeros(4),
                x_b_plus=np.array([2.0, 0, 0, 0]), x_b_minus=np.array([-2.0, 0, 0, 0]),
            )


class TestTauTheta:
    def test_concentric_values(self):
        for r, big_r in ((1.0, 2.0), (0.3, 1.1), (2.0, 9.0)):
            u, v = cross_ratios(concentric_config(r, big_r))
            tau, theta = tau_theta(u, v)
            assert abs(tau - math.log(big_r / r)) <= 1e-9
            assert abs(theta) <= 1e-9

    def test_small_theta_continuity(self):
        # slightly boosted A diamond: theta grows continuously from zero
        thetas = []
        for shift in (0.0, 0.01, 0.02):
            cfg = DiamondConfig(
                x_a_plus=np.array([1.0, shift, 0, 0]),
                x_a_minus=np.array([-1.0, -shift, 0, 0]),
                x_b_plus=np.array([4.0, 0, 0, 0]),
                x_b_minus=np.array([-4.0, 0, 0, 0]),
            )
            _, theta = tau_theta(*cross_ratios(cfg))
            thetas.append(theta)
        assert thetas[0] <= 1e-9
        assert thetas[0] < thetas[1] < thetas[2] < 0.1

    def test_dilation_invariance(self):
        cfg = concentric_config(1.0, 3.0)
        scaled = DiamondConfig(
            x_a_plus=5.0 * cfg.x_a_plus, x_a_minus=5.0 * cfg.x_a_minus,
            x_b_plus=5.0 * cfg.x_b_plus, x_b_minus=5.0 * cfg.x_b_minus,
        )
        t1 = tau_theta(*cross_ratios(cfg))
        t2 = tau_theta(*cross_ratios(scaled))
        assert abs(t1[0] - t2[0]) <= 1e-9

    def test_domain_error(self):
        with pytest.raises(CftError, match="admissible"):
            tau_theta(4.0, 4.0)  # 1/sqrt(v) - 1/sqrt(u) = 0 < 1


class TestQuantumInteger:
    def test_unit(self):
        for theta in (0.0, 1.0, 3.0):
            assert quantum_integer(1, theta) == 1.0

    def test_theta_zero_counts(self):
        for n in (1, 2, 5, 9):
            assert abs(quantum_integer(n, 0.0) - n) <= 1e-12

    def test_scalar_value(self):
        want = math.e + 1.0 + 1.0 / math.e
        assert abs(quantum_integer(3, 1.0) - want) <= 1e-12

    def test_geometric_identity_and_symmetry(self):
        for n in (2, 3, 6):
            for theta in (0.3, 1.7):
                closed = (math.exp(n * theta / 2) - math.exp(-n * theta / 2)) / (
                    math.exp(theta / 2) - math.exp(-theta / 2)
                )
                assert abs(quantum_integer(n, theta) - closed) <= 1e-12 * closed
                assert abs(quantum_integer(n, theta) - quantum_integer(n, -theta)) <= 1e-12
                assert quantum_integer(n, theta) > 0


class TestFreeScalarSpectrum:
    def test_low_levels(self):
        table = free_scalar_spectrum_4d(3)
        by_delta = {r.delta: r.mult for r in table.rows}
        assert by_delta[0.0] == 1
        assert by_delta[1.0] == 1

    def test_brute_force_through_level_10(self):
        table = free_scalar_spectrum_4d(10)
        by_delta = {int(r.delta): r.mult for r in table.rows}
        for level in range(11):
            assert by_delta.get(level, 0) == _brute_force_colored_partitions(level)

    def test_level_cap(self):
        with pytest.raises(CftError):
            free_scalar_spectrum_4d(61)


def _brute_force_colored_partitions(total: int) -> int:
    """Multisets of parts n (each carrying n^2 colors) summing to total."""

    def count(remaining: int, part: int) -> int:
        if remaining == 0:
            return 1
        if part > remaining:
            return 0
        out = 0
        colors = part * part
        m = 0
        while part * m <= remaining:
            ways = math.comb(colors + m - 1, m) if m else 1
            out += ways * count(remaining - part * m, part + 1)
            m += 1
        return out

    return count(total, 1)


class TestConcentricBound:
    def test_identity_only(self):
        table = SpectrumTable.scalar([(0.0, 1)])
        assert abs(concentric_bound(table, 0.3)) <= 1e-12

    def test_single_operator_small_ratio(self):
        table = SpectrumTable.scalar([(0.0, 1), (2.0, 3)])
        ratio = 0.05
        val = concentric_bound(table, ratio)
        approx = 3 * ratio**2
        assert abs(val - math.log1p(approx)) <= 1e-12
        assert abs(val - approx) <= approx * 0.01

    def test_free_scalar_near_critical(self):
        tau = 0.05
        val = concentric_bound(FREE_SCALAR_4D, math.exp(-tau))
        want = math.pi**4 / 45.0 / tau**3
        assert abs(val - want) <= 0.05 * want

    def test_product_form_matches_truncation_when_converged(self):
        table = free_scalar_spectrum_4d(40)
        ratio = 0.2
        assert abs(concentric_bound(table, ratio) - free_scalar_character_log(ratio)) <= 1e-8

    def test_truncation_rejected_near_one(self):
        table = free_scalar_spectrum_4d(30)
        with pytest.raises(CftError, match="truncated|converging"):
            concentric_bound(table, math.exp(-0.05))

    def test_monotone_in_ratio(self):
        table = free_scalar_spectrum_4d(25)
        vals = [concentric_bound(table, r) for r in (0.02, 0.05, 0.1, 0.15)]
        assert all(v1 < v2 for v1, v2 in zip(vals, vals[1:]))

    def test_missing_identity_rejected(self):
        with pytest.raises(CftError, match="identity"):
            concentric_bound(SpectrumTable.scalar([(1.0, 1)]), 0.3)


class TestGeneralBound:
    def test_reduces_to_concentric_at_zero_theta(self):
        table = free_scalar_spectrum_4d(20)
        tau = 2.0
        got = general_bound_3p1(table, tau, 0.0)
        want = concentric_bound(table, math.exp(-tau))
        assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)

    def test_single_spinning_multiplet(self):
        table = SpectrumTable(
            (SpectrumRow(0.0, 0.0, 0.0, 1), SpectrumRow(2.0, 0.5, 0.5, 1))
        )
        tau, theta = 1.0, 0.4
        got = general_bound_3p1(table, tau, theta)
        term = math.exp(-2 * tau) * quantum_integer(2, theta) ** 2
        assert abs(got - math.log1p(term)) <= 1e-12

    def test_twist_controls_slope(self):
        # one operator of twist delta - s: log-value slope in tau approaches
        # -(delta - s) when tau ~ theta both large
        delta, spin = 3.0, 1.0
        table = SpectrumTable(
            (SpectrumRow(0.0, 0.0, 0.0, 1), SpectrumRow(delta, spin / 2, spin / 2, 1))
        )
        vals = []
        taus = (14.0, 16.0, 18.0)
        for tau in taus:
            theta = tau / 1.01
            vals.append(general_bound_3p1(table, tau, theta))
        slope = np.polyfit(taus, np.log(vals), 1)[0]
        twist = delta - spin
        assert abs(slope + twist) <= 0.05 * twist

    def test_domain(self):
        table = SpectrumTable.scalar([(0.0, 1)])
        with pytest.raises(CftError):
            general_bound_3p1(table, 0.5, 0.7)


class TestChiralBound:
    def test_vacuum_only(self):
        assert abs(chiral_bound([(0, 1)], (-2.0, -1.0, 1.0, 2.0))) <= 1e-12

    def test_far_regime(self):
        # xi = 100: value within 10% of n1 / (4 * 100)
        n1 = 3
        a1, a2 = -1.0, 0.0
        # symmetric intervals |A| = |B| = 1, distance d: xi = d(2+d)
        d = (-2 + math.sqrt(4 + 4 * 100.0)) / 2  # solve d(2+d) = 100
        intervals = (a1, a2, a2 + d, a2 + d + 1.0)
        xi = chiral_cross_ratio(*intervals)
        assert abs(xi - 100.0) <= 1e-9
        val = chiral_bound([(0, 1), (1, n1)], intervals)
        assert abs(val - n1 / (4 * 100.0)) <= 0.1 * n1 / 400.0

    def test_far_regime_xi_1e4(self):
        n1 = 2
        d = (-2 + math.sqrt(4 + 4e4)) / 2
        intervals = (-1.0, 0.0, d, d + 1.0)
        val = chiral_bound([(0, 1), (1, n1)], intervals)
        want = n1 / (4.0 * 1e4)
        assert abs(val - want) <= 0.1 * want

    def test_cardy_regime(self):
        # synthetic Cardy spectrum: the bound saturates the character value
        # c pi^2 / (6 beta) at beta = 2 asinh(sqrt(xi))
        c = 1.0
        rows = cardy_degeneracies(c, 4000)
        intervals = (-1.0, 0.0, 0.001, 1.001)
        xi = chiral_cross_ratio(*intervals)
        beta = 2.0 * math.asinh(math.sqrt(xi))
        val = chiral_bound(rows, intervals)
        want = c * math.pi**2 / (6.0 * beta)
        assert abs(val - want) <= 0.1 * want

    def test_interval_order_enforced(self):
        with pytest.raises(CftError):
            chiral_bound([(0, 1)], (0.0, -1.0, 1.0, 2.0))


class TestNuclearityShapes:
    def test_massive_series_finite_and_sane(self):
        val = bw_massive_series(c=1.0, n=3, k=0.8, m_r=10.0)
        assert 0.0 < val < 10.0
        # log(1+x) <= x with x the bare series
        series = math.expm1(val)
        assert val <= series + 1e-12

    def test_massive_series_parameter_guard(self):
        with pytest.raises(CftError, match="n/"):
            bw_massive_series(c=1.0, n=3, k=0.7, m_r=10.0)

    def test_short_distance_limit(self):
        vals = [bw_short_distance(1.0, 2, r) for r in (1.0, 10.0, 100.0, 1e6)]
        assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))
        assert abs(vals[-1] - math.log(2.0)) <= 1e-5

    def test_kms_power_law_doubling(self):
        alpha = 2.7
        v1 = kms_power_law(3.0, alpha, 5.0)
        v2 = kms_power_law(3.0, alpha, 10.0)
        assert abs(v2 / v1 - 2.0 ** (1 - alpha)) <= 1e-12
        assert abs(kms_power_law(1.0, 2.0, 4.0) - 0.25) <= 1e-12

    def test_massless_scalar_dimension_guard(self):
        with pytest.raises(CftError):
            massless_free_scalar_power(1.0, 2, 3.0)
        assert abs(massless_free_scalar_power(1.0, 4, 2.0) - 0.25) <= 1e-12
