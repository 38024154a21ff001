import csv
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad

import entbound.integrable as integrable
from entbound.cli import main as cli_main
from entbound.integrable import (
    IntegrableError,
    SMatrix,
    bessel_k0,
    dirac_halfline_bound,
    legendre_rule,
    sinh_gordon,
    strip_sup_norm,
    t_kernel_trace_norm,
    theta_cutoff,
    vacuum_bound,
)
from oracles import (
    _elementary_symmetric,
    a_kernel,
    a_kernel_value,
    bessel_k0_numpy,
    dirac_halfline_bound_fixed,
    hadamard_bound_check,
    s2_eval,
    strip_sup_norm_scalar,
    t_kernel_matrix_complex,
    t_kernel_trace_norm_fixed,
    vacuum_series_exact,
    vacuum_series_partial_sum,
    wedge_trace,
)


def k0_quadrature(x: float) -> float:
    """Oracle: adaptive quadrature of the defining integral."""
    val, _ = quad(lambda th: math.exp(-x * math.cosh(th)), 0, 40, limit=400, epsabs=1e-15, epsrel=1e-13)
    return val


class TestSMatrix:
    def test_zero_rapidity(self):
        for s in (sinh_gordon(0.5), SMatrix((0.3, 0.7, 1.1))):
            assert abs(s2_eval(s, 0.0) + 1.0) <= 1e-12

    def test_unit_modulus_on_reals(self):
        s = sinh_gordon(0.5)
        for th in (-3.0, 0.37, 1.3, 8.0):
            assert abs(abs(s2_eval(s, th)) - 1.0) <= 1e-12

    def test_crossing(self):
        s = SMatrix((0.4, 0.9, 1.2))
        th = 0.7
        assert abs(s2_eval(s, th + 1j * math.pi) * s2_eval(s, th) - 1.0) <= 1e-10

    def test_pct(self):
        s = sinh_gordon(0.7)
        for th in (0.3, 1.9):
            assert abs(s2_eval(s, -th) * s2_eval(s, th) - 1.0) <= 1e-10

    def test_property_grid(self):
        s = SMatrix((0.25, 0.8, 1.3))
        for th in np.linspace(-4, 4, 41):
            th = float(th)
            assert abs(abs(s2_eval(s, th)) - 1.0) <= 1e-10
            assert abs(s2_eval(s, -th) * s2_eval(s, th) - 1.0) <= 1e-10
            assert abs(s2_eval(s, th + 1j * math.pi) * s2_eval(s, th) - 1.0) <= 1e-10

    def test_pole_proximity_error(self):
        s = sinh_gordon(0.5)
        b = s.poles[0]
        with pytest.raises(IntegrableError, match="pole"):
            s2_eval(s, -1j * b)

    def test_even_pole_count_rejected(self):
        with pytest.raises(IntegrableError):
            SMatrix((0.3, 0.5))


class TestSinhGordon:
    def test_quarter_pole(self):
        s = sinh_gordon(1.0 / math.sqrt(3.0))
        assert abs(s.poles[0] - math.pi / 4) <= 1e-12

    def test_fifth_pole(self):
        assert abs(sinh_gordon(0.5).poles[0] - math.pi / 5) <= 1e-12

    def test_small_coupling_limit(self):
        assert sinh_gordon(1e-4).poles[0] <= 1e-7

    def test_strong_coupling_rejected(self):
        with pytest.raises(IntegrableError, match="pi/2"):
            sinh_gordon(1.5)


def strip_cases(seed: int = 8, per_count: int = 4) -> list:
    """The fixed (S-matrix, kappa) cases, then seeded ones with 1, 3 and 5
    poles in (0, pi/2) and kappa up to 0.999 min b; the last case of each
    pole count sits at 0.999."""
    fixed = (sinh_gordon(0.5), SMatrix((0.6, 1.0, 1.4)), SMatrix((0.4, 0.8, 1.2)))
    cases = [pytest.param(s, kappa, id=f"{kappa}-s{i}")
             for kappa in (0.05, 0.3) for i, s in enumerate(fixed)]
    rng = np.random.default_rng(seed)
    for count in (1, 3, 5):
        for k in range(per_count):
            poles = tuple(float(b) for b in rng.uniform(0.05, math.pi / 2 - 0.01, count))
            frac = 0.999 if k == per_count - 1 else float(rng.uniform(0.01, 0.999))
            cases.append(pytest.param(SMatrix(poles), frac * min(poles), id=f"random-{count}poles-{k}"))
    return cases


class TestStripNorm:
    def test_small_kappa_limit(self):
        s = sinh_gordon(0.5)
        assert abs(strip_sup_norm(s, 1e-4) - 1.0) <= 1e-3

    def test_single_pole_closed_form(self):
        # the maximum sits at theta = 0 on the boundary line Im z = -kappa,
        # where |S_2| = (sin b + sin k)/(sin b - sin k)
        b = math.pi / 4
        s = SMatrix((b,))
        for kappa in (0.05, 0.1, 0.3):
            want = (math.sin(b) + math.sin(kappa)) / (math.sin(b) - math.sin(kappa))
            assert abs(strip_sup_norm(s, kappa) - want) <= 1e-9 * want

    def test_exceeds_one(self):
        assert strip_sup_norm(SMatrix((math.pi / 4,)), 0.1) > 1.0

    def test_monotone_in_kappa(self):
        s = SMatrix((0.5, 0.9, 1.4))
        vals = [strip_sup_norm(s, k) for k in (0.05, 0.15, 0.3, 0.45)]
        assert all(v1 <= v2 + 1e-12 for v1, v2 in zip(vals, vals[1:]))

    def test_kappa_at_pole_rejected(self):
        with pytest.raises(IntegrableError):
            strip_sup_norm(sinh_gordon(0.5), math.pi / 5)

    @pytest.mark.parametrize("s, kappa", strip_cases())
    def test_matches_scalar_scan(self, s, kappa):
        want = strip_sup_norm_scalar(s, kappa)
        assert abs(strip_sup_norm(s, kappa) - want) <= 1e-12 * want

    def test_near_the_first_pole_matches_mpmath(self):
        # at kappa = 0.99999 min b, sin b - sin kappa loses five digits to
        # cancellation; the value must stay at double precision
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        with mpmath.workdps(40):
            for _ in range(10):
                s = SMatrix(tuple(float(b) for b in rng.uniform(0.05, math.pi / 2 - 0.01, 3)))
                kappa = 0.99999 * s.min_pole
                sk = mpmath.sin(mpmath.mpf(kappa))
                want = mpmath.fprod(
                    (mpmath.sin(mpmath.mpf(b)) + sk) / (mpmath.sin(mpmath.mpf(b)) - sk)
                    for b in s.poles
                )
                got = strip_sup_norm(s, kappa)
                assert abs(got - want) <= 1e-14 * want

    @pytest.mark.parametrize("poles", [(0.5,), (0.5, 0.9, 1.3)])
    def test_pole_on_boundary_raises(self, poles):
        # kappa passes the kappa < min b_k check, yet the factor for b = 0.5
        # vanishes to ~1e-11 at theta = 0 on both boundary lines
        s = SMatrix(poles)
        for scan in (strip_sup_norm, strip_sup_norm_scalar):
            with pytest.raises(IntegrableError, match="pole on the strip boundary"):
                scan(s, 0.5 - 1e-11)


class TestBesselK0:
    def test_matches_quadrature(self):
        for x in (0.5, 1.0, 5.0):
            assert abs(bessel_k0(x) - k0_quadrature(x)) <= 1e-10 * k0_quadrature(x)

    def test_large_argument_asymptote(self):
        x = 20.0
        want = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
        assert abs(bessel_k0(x) - want) <= 0.01 * want

    def test_small_argument_log(self):
        x = 1e-4
        assert abs(bessel_k0(x) + math.log(x)) < 1.0

    def test_domain(self):
        with pytest.raises(IntegrableError):
            bessel_k0(0.0)

    def test_matches_scipy(self):
        from scipy.special import k0

        xs = np.geomspace(1e-6, 700.0, 2000)
        got = np.array([bessel_k0(float(x)) for x in xs])
        assert np.all(np.abs(got - k0(xs)) <= 1e-14 * k0(xs))

    def test_fsum_matches_the_numpy_sum(self):
        # the same trapezoid summed by numpy: within 4 ulps, and both within
        # 1e-14 relative of scipy
        from scipy.special import k0

        for x in np.geomspace(1e-3, 200.0, 400):
            got, old, want = bessel_k0(float(x)), bessel_k0_numpy(float(x)), float(k0(x))
            assert abs(got - old) <= 4 * math.ulp(old), x
            assert abs(got - want) <= 1e-14 * want, x


class TestTKernel:
    def test_exponential_regime(self):
        ratios = []
        for s in (8.0, 10.0, 12.0):
            val = t_kernel_trace_norm(math.pi, s)
            ratios.append(val / math.exp(-s / 2))
        top, bottom = max(ratios), min(ratios)
        assert top / bottom <= 3.0

    def test_kappa_parity(self):
        for s in (0.5, 3.0):
            a = t_kernel_trace_norm(math.pi / 2, s)
            b = t_kernel_trace_norm(-math.pi / 2, s)
            assert abs(a - b) <= 1e-9 * max(a, 1.0)

    def test_log_regime(self):
        ratios = []
        for s in (1e-3, 1e-4):
            val = t_kernel_trace_norm(math.pi, s)
            ratios.append(val / abs(math.log(s)))
        assert max(ratios) / min(ratios) <= 2.0

    def test_nonconvergent_grid_rejected(self, monkeypatch):
        monkeypatch.setattr(integrable, "NODE_COUNTS", (4, 8))
        with pytest.raises(IntegrableError, match="converged"):
            t_kernel_trace_norm(math.pi, 1e-4)


class TestAdaptiveTraceNorm:
    @staticmethod
    def svd_sizes(monkeypatch):
        """Record the node count of every matrix the trace norm decomposes,
        one entry per matrix of a stacked SVD."""
        sizes = []
        real = np.linalg.svd

        def counting(a, *args, **kwargs):
            n = a.shape[-1]
            sizes.extend([n] * (a.size // (n * n)))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        return sizes

    @pytest.mark.parametrize("kappa", [math.pi, math.pi / 2, -math.pi / 2, 0.3],
                             ids=["pi", "pi/2", "-pi/2", "0.3"])
    def test_matches_fixed_two_grid_oracle(self, kappa):
        for s in np.geomspace(1e-3, 400, 60):
            want = t_kernel_trace_norm_fixed(kappa, float(s), 96)
            got = t_kernel_trace_norm(kappa, float(s))
            assert abs(got - want) <= 1e-13 * abs(want), s

    def test_large_decay_stops_early(self, monkeypatch):
        sizes = self.svd_sizes(monkeypatch)
        t_kernel_trace_norm(math.pi, 20.0)
        assert sizes == [16, 24, 36, 48]

    def test_atol_stops_a_small_value_early(self, monkeypatch):
        # a value far below atol settles on the two cheapest rungs
        sizes = self.svd_sizes(monkeypatch)
        val = t_kernel_trace_norm(math.pi, 20.0, atol=1e-6)
        assert sizes == [16, 24]
        assert abs(val - t_kernel_trace_norm(math.pi, 20.0)) <= 1e-6

    def test_small_decay_reaches_the_cap(self, monkeypatch):
        sizes = self.svd_sizes(monkeypatch)
        t_kernel_trace_norm(math.pi, 1e-3)
        assert sizes == list(integrable.NODE_COUNTS)
        assert integrable.NODE_COUNTS[-2:] == (96, 192)

    def test_gate_message_names_both_node_counts(self, monkeypatch):
        monkeypatch.setattr(integrable, "NODE_COUNTS", (4, 8))
        with pytest.raises(IntegrableError, match="at 4 nodes .* at 8 nodes"):
            t_kernel_trace_norm(math.pi, 1e-4)

    def test_gate_compares_192_with_96_nodes(self, monkeypatch):
        # a 144-node value would nearly agree with 192, but the gate checks
        # 192 against 96 nodes, 1% apart
        sums = {96: 1.0, 144: 1.0099, 192: 1.01}
        monkeypatch.setattr(np.linalg, "svd", lambda a, compute_uv: np.full(
            a.shape[:-2] + (1,), float(sums.get(a.shape[-1], a.shape[-1]))))
        with pytest.raises(IntegrableError, match="1.0 at 96 nodes vs 1.01 at 192 nodes"):
            t_kernel_trace_norm(math.pi, 1.0)

    def test_few_corridor_trace_norms_reach_96_nodes(self, monkeypatch):
        # SVD work counted per matrix, not timed: a 96-node SVD costs about
        # 7x a 48-node one
        sizes = self.svd_sizes(monkeypatch)
        modes = []
        real = integrable.t_kernel_trace_norm
        monkeypatch.setattr(integrable, "t_kernel_trace_norm",
                            lambda kappa, s, atol=0.0: modes.append(np.size(s)) or real(kappa, s, atol))
        dirac_halfline_bound(1.0, 0.1, 1.0)
        assert sum(modes) > 200
        assert len(modes) <= sum(modes) / integrable.MODE_BLOCK
        assert sizes.count(96) <= 0.05 * sum(modes)

    def test_no_stacked_svd_exceeds_the_element_cap(self, monkeypatch):
        # a stack of several matrices holds at most 96^2 entries; a 192-node
        # matrix, past that size on its own, is decomposed alone
        shapes = []
        real = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda a, compute_uv: shapes.append(a.shape) or real(a, compute_uv=compute_uv))
        dirac_halfline_bound(1.0, 0.1, 1.0)
        stacked = [s for s in shapes if s[0] > 1]
        assert stacked and all(math.prod(s) <= 96 * 96 for s in stacked), stacked
        # the cap splits the 36-node rung of a 16-mode block into stacks of 7
        assert (7, 36, 36) in shapes

    @pytest.mark.parametrize("kappa", [math.pi, 0.3, -math.pi / 2], ids=["pi", "0.3", "-pi/2"])
    @pytest.mark.parametrize("atol", [0.0, 1e-13, 1e-9])
    def test_array_call_equals_scalar_calls_bit_for_bit(self, kappa, atol):
        decays = np.geomspace(1e-3, 400, 77)
        got = t_kernel_trace_norm(kappa, decays, atol=atol)
        want = [t_kernel_trace_norm(kappa, float(s), atol=atol) for s in decays]
        assert isinstance(want[0], float) and got.shape == decays.shape
        assert got.tobytes() == np.array(want).tobytes()

    def test_array_gate_names_the_first_failing_decay(self, monkeypatch):
        # on this coarse ladder s = 3 and 1 pass the 0.5% gate, 1e-4 and 20 do not
        monkeypatch.setattr(integrable, "NODE_COUNTS", (12, 24))
        with pytest.raises(IntegrableError) as scalar:
            t_kernel_trace_norm(math.pi, 1e-4)
        with pytest.raises(IntegrableError) as stacked:
            t_kernel_trace_norm(math.pi, np.array([3.0, 1.0, 1e-4, 20.0]))
        assert str(stacked.value) == str(scalar.value)


class TestRealNystromForm:
    @pytest.mark.parametrize("n", [7, 24, 96, 192])
    @pytest.mark.parametrize("kappa", [math.pi, math.pi / 2, -math.pi / 2, 0.3],
                             ids=["pi", "pi/2", "-pi/2", "0.3"])
    def test_matches_complex_matrix(self, kappa, n):
        for s in np.geomspace(1e-4, 40, 20):
            theta_max = theta_cutoff(float(s))
            real = integrable.t_kernel_matrix(kappa, float(s), n, theta_max)
            assert real.dtype == np.float64
            got = np.linalg.svd(real, compute_uv=False)
            want = np.linalg.svd(t_kernel_matrix_complex(kappa, float(s), n, theta_max),
                                 compute_uv=False)
            assert np.max(np.abs(got - want)) <= 1e-13 * want[0], s
            assert abs(np.sum(got) - np.sum(want)) <= 1e-13 * np.sum(want), s

    def test_every_svd_is_real_with_unchanged_sizes(self, monkeypatch):
        seen = []
        real = np.linalg.svd

        def counting(a, *args, **kwargs):
            seen.append((a.dtype, a.shape))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        t_kernel_trace_norm(math.pi, 1e-3)
        assert [shape for _, shape in seen] == [(1, n, n) for n in integrable.NODE_COUNTS]
        assert all(dtype == np.float64 for dtype, _ in seen)


class TestKernelGridSymmetry:
    @pytest.mark.parametrize("theta_max", [1.0, 3.7, 5.123456789, 17.25])
    def test_every_legendre_grid_passes(self, theta_max):
        # scaling the rule by theta_max keeps its symmetry exactly
        for n in list(range(1, 65)) + [96, 192, 384]:
            x, w = legendre_rule(n)
            nodes, weights = x * theta_max, w * theta_max
            assert np.array_equal(nodes, -nodes[::-1])
            assert np.array_equal(weights, weights[::-1])

    @staticmethod
    def rule_from(monkeypatch, fake):
        real = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: fake(*real(n)))
        legendre_rule.cache_clear()
        try:
            return legendre_rule(24)
        finally:
            legendre_rule.cache_clear()

    def test_skewed_grid_rejected(self, monkeypatch):
        for fake in (lambda x, w: (x + 0.1, w), lambda x, w: (np.where(x > 0, 1.5 * x, x), w)):
            with pytest.raises(IntegrableError, match="antisymmetric"):
                self.rule_from(monkeypatch, fake)

    def test_asymmetric_weights_rejected(self, monkeypatch):
        def fake(x, w):
            w = w.copy()
            w[0] = np.nextafter(w[0], 1.0)
            return x, w

        with pytest.raises(IntegrableError, match="symmetric weights"):
            self.rule_from(monkeypatch, fake)


class TestLegendreRule:
    @pytest.mark.parametrize("n", [96, 192, 7])
    def test_grid_is_scaled_leggauss_bytes(self, n):
        # the matrix is built on leggauss scaled by theta_max, byte for byte
        x, w = np.polynomial.legendre.leggauss(n)
        for theta_max in (3.7, 5.123456789):
            th, sw = x * theta_max, np.sqrt(w * theta_max)
            a = 0.5 * math.pi
            kern = (a / (a * a + (th[None, :] - th[:, None]) ** 2)
                    + (th[None, :] + th[:, None]) / (a * a + (th[None, :] + th[:, None]) ** 2))
            want = (sw * np.exp(-0.5 * np.cosh(th)) / (2.0 * math.pi))[:, None] * kern * sw[None, :]
            got = integrable.t_kernel_matrix(math.pi, 1.0, n, theta_max)
            assert got.tobytes() == want.tobytes()

    def test_doubled_grid_uses_the_doubled_rule(self, monkeypatch):
        # every grid of one trace norm is on theta_cutoff(s), at the scheduled sizes
        seen = []
        real = integrable.t_kernel_matrix
        monkeypatch.setattr(integrable, "t_kernel_matrix",
                            lambda kappa, s, n, theta_max: seen.append((n, theta_max))
                            or real(kappa, s, n, theta_max))
        t_kernel_trace_norm(math.pi, 0.4)
        assert [n for n, _ in seen] == list(integrable.NODE_COUNTS[:len(seen)])
        assert len(seen) >= 2 and {float(t) for _, ts in seen for t in ts} == {theta_cutoff(0.4)}

    def test_cache_holds_every_rung(self):
        # a longer ladder than the cache would evict rules and re-run leggauss
        assert len(integrable.NODE_COUNTS) <= legendre_rule.cache_parameters()["maxsize"]

    def test_rule_built_once_and_read_only(self):
        x, w = legendre_rule(96)
        assert legendre_rule(96)[0] is x
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert x.tobytes() == np.polynomial.legendre.leggauss(96)[0].tobytes()

    def test_concurrent_first_calls_agree(self):
        sizes = (5, 11, 24, 96)
        want = {n: np.polynomial.legendre.leggauss(n) for n in sizes}
        legendre_rule.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(legendre_rule, n) for n in sizes * 8]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for n, (x, w) in zip(sizes * 8, got):
            assert x.tobytes() == want[n][0].tobytes()
            assert w.tobytes() == want[n][1].tobytes()
            assert not x.flags.writeable and not w.flags.writeable


class TestAKernel:
    def test_diagonal_scalar(self):
        kappa, s = 0.7, 2.0
        want = abs(kappa) * math.exp(-s) / (math.pi * kappa**2)
        assert abs(a_kernel_value(kappa, s, 0.0, 0.0) - want) <= 1e-14

    def test_psd(self):
        ak = a_kernel(math.pi, 2.0)
        assert ak.eigenvalues().min() >= -1e-10

    def test_reconstruction_from_t_factors(self):
        # A(x, y) = (T_+ T_+^* + T_- T_-^*)(x, y): the middle integral runs
        # over the whole line with only Cauchy-tail decay, so it needs a wide
        # trapezoid grid independent of the damped outer grid
        kappa, s = math.pi, 2.0
        outer = np.linspace(-3.0, 3.0, 13)
        eta = np.linspace(-1000.0, 1000.0, 80001)
        h = eta[1] - eta[0]

        def t_val(kap, x, y):
            return -np.sign(kap) * math.exp(-0.5 * s * math.cosh(x)) / (
                2j * math.pi * (y - x + 0.5j * kap)
            )

        max_rel = 0.0
        for x in outer:
            for y in outer:
                middle = sum(
                    t_val(kap, x, eta) * np.conj(t_val(kap, y, eta))
                    for kap in (kappa, -kappa)
                )
                recon = float(np.sum(middle).real) * h
                want = a_kernel_value(kappa, s, float(x), float(y))
                max_rel = max(max_rel, abs(recon - want) / want)
        assert max_rel <= 0.01


class TestWedgeTrace:
    def test_n1_is_trace(self):
        ak = a_kernel(math.pi, 2.0)
        primary, alt = wedge_trace(ak, 1)
        assert abs(primary - np.trace(ak.matrix)) <= 1e-12 * abs(primary)
        assert abs(primary - alt) <= 0.01 * abs(primary)

    def test_rank_one_second_power_vanishes(self):
        v = np.array([1.0, 2.0, 0.5])
        eigs = np.linalg.eigvalsh(np.outer(v, v))
        assert abs(_elementary_symmetric(np.clip(eigs, 0, None), 2)) <= 1e-12

    def test_dual_methods_agree(self):
        ak = a_kernel(math.pi, 2.0)
        primary, alt = wedge_trace(ak, 2)
        assert abs(primary - alt) <= 0.01 * max(abs(primary), abs(alt))

    def test_cost_guard(self):
        ak = a_kernel(math.pi, 2.0)
        with pytest.raises(IntegrableError):
            wedge_trace(ak, 7)


class TestHadamard:
    def test_n1_trace_bound(self):
        lhs, rhs, ok = hadamard_bound_check(math.pi, 2.0, 1)
        assert ok and lhs <= rhs * (1 + 1e-6)

    def test_n3(self):
        lhs, rhs, ok = hadamard_bound_check(math.pi / 2, 3.0, 3)
        assert ok

    def test_large_s_both_tiny(self):
        lhs, rhs, ok = hadamard_bound_check(math.pi, 15.0, 1)
        assert ok and lhs < 1e-5 and rhs < 1e-5

    def test_grid_of_parameters(self):
        for kappa in (math.pi, math.pi / 2):
            for s in (1.0, 2.0, 5.0):
                for n in (1, 2, 3):
                    _, _, ok = hadamard_bound_check(kappa, s, n)
                    assert ok, (kappa, s, n)


class TestVacuumBound:
    def test_converges_and_matches_asymptotic(self):
        s = sinh_gordon(0.5)
        res = vacuum_bound(s, mr=20.0, kappa=0.3, delta=0.1)
        assert res.converged
        assert res.log_value <= res.asymptotic * 1.5

    def test_divergence_flag_small_mr(self):
        s = sinh_gordon(0.5)
        res = vacuum_bound(s, mr=1.0, kappa=0.3, delta=0.1)
        assert not res.converged
        assert res.nu is None and res.log_value is None

    def test_monotone_decreasing(self):
        s = sinh_gordon(0.5)
        vals = [vacuum_bound(s, r, 0.3, 0.1).log_value for r in (10, 15, 20, 30, 40)]
        assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))

    def test_series_at_least_first_term(self):
        s = sinh_gordon(0.5)
        res = vacuum_bound(s, 20.0, 0.3, 0.1)
        assert res.nu >= 1.0

    def test_log_slope_window(self):
        s = sinh_gordon(0.5)
        rs = np.arange(15.0, 41.0, 5.0)
        logs = [vacuum_bound(s, float(r), 0.3, 0.1).log_value for r in rs]
        slope = np.polyfit(rs, np.log(logs), 1)[0]
        want = -(1 - 0.1) * 1.0
        assert abs(slope - want) <= 0.15 * abs(want)

    def test_finite_just_past_divergence_threshold(self):
        # c^n alone overflows here while q^n underflows; the sum must stay finite
        s = SMatrix((0.4, 0.8, 1.2))
        res = vacuum_bound(s, 6.0, 0.3, 0.1)
        assert res.converged
        assert math.isfinite(res.nu)
        assert res.log_value == math.log(res.nu)
        assert res.n_terms < 10_000
        # oracle: the same series with every term formed in log space
        c = math.sqrt(res.strip_norm)
        log_q = math.log(4.0 * math.e * c / (0.3 * math.pi) * bessel_k0(0.9 * 6.0))
        log_kf = 0.5 * math.log(bessel_k0(6.0 * 0.1 * math.sin(0.3)))
        terms = [math.exp(max(n * log_q, n * (log_q + math.log(c)) + log_kf))
                 for n in range(1, 2000)]
        assert abs(res.nu - (1.0 + math.fsum(terms))) <= 1e-12 * res.nu

    @pytest.mark.parametrize("mr", [5.9253, 5.92517, 6.0, 8.0])
    def test_series_bound_has_rounding_slack(self, mr):
        # q c is within 2e-4 of 1 at the first two points, so the 10^4 terms run out
        # first; the 10^4-term partial sums are 7,511 and 13,184 against
        # series of 10,123 and 172,892.  The last two stop at the 1e-16 term cut.  The
        # closed form evaluates the same float ratios at 40 digits, so the
        # bound must be at or above it with no slack, and at most its own
        # 2 (n + 2)-ulp raise above the rounding of the sum it raises.
        s = SMatrix((0.4, 0.8, 1.2))
        res = vacuum_bound(s, mr, 0.3, 0.1)
        exact, _ = vacuum_series_exact(s, mr, 0.3, 0.1)
        assert res.converged
        assert (res.n_terms == 10_000) == (mr < 5.93)
        u = 2.0**-53
        assert exact <= res.nu <= exact * (1 + 4 * (res.n_terms + 2) * u)
        assert res.log_value == math.log(res.nu)

    @pytest.mark.parametrize("mr", [5.9253, 5.92517])
    def test_truncated_series_stays_an_upper_bound(self, mr):
        # nu must be at or above the 40-digit closed form, with no slack.  The
        # log-space partial sum (3e6 terms) cross-checks that closed form: it
        # forms q c as exp(log q + log c), a few ulps off, which moves a series
        # this close to its radius of convergence by up to 8u / (1 - q c)
        # relative (6.6e-12 and 1.1e-10 here; 5.9e-11 seen at mR 5.92517)
        s = SMatrix((0.4, 0.8, 1.2))
        res = vacuum_bound(s, mr, 0.3, 0.1)
        exact, qc = vacuum_series_exact(s, mr, 0.3, 0.1)
        assert res.converged and res.n_terms == 10_000
        assert res.nu >= exact
        partial = vacuum_series_partial_sum(s, mr, 0.3, 0.1, 3_000_000)
        assert abs(partial - float(exact)) <= 8.0 * 2.0**-53 / (1.0 - qc) * partial
        assert res.log_value == math.log(res.nu)

    @pytest.mark.parametrize("model", [
        ["--model", "sinh-gordon", "--g", "0.5", "--mR", "0.5..40..0.5"],
        ["--model", "custom", "--poles", "0.6,1.0,1.4", "--mR", "3..40..0.5"],
    ], ids=["sinh-gordon", "custom-3pole"])
    def test_sweep_matches_scipy_k0(self, model, tmp_path, monkeypatch):
        from scipy.special import k0

        argv = ["integrable"] + model + ["--kappa", "0.3", "--delta", "0.1"]

        def sweep(name):
            out = tmp_path / name
            assert cli_main(argv + ["--out", str(out)]) == 0
            with open(out, newline="") as fh:
                return list(csv.DictReader(fh))

        rows = sweep("trapezoid.csv")
        monkeypatch.setattr(integrable, "bessel_k0", lambda x: float(k0(x)))
        want = sweep("scipy.csv")
        assert len(rows) == len(want)
        assert {r["converged"] for r in want} == {"0", "1"}
        for got, ref in zip(rows, want):
            for key in ("mR", "converged", "asymptotic", "error"):
                assert got[key] == ref[key]
            for key in ("nu", "log_bound"):
                if ref[key] == "":
                    assert got[key] == ""
                else:
                    assert abs(float(got[key]) - float(ref[key])) <= 2e-15 * abs(float(ref[key]))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_inputs_rejected(self, value):
        s = sinh_gordon(0.5)
        with pytest.raises(IntegrableError, match="kappa must be positive and finite"):
            strip_sup_norm(s, value)
        with pytest.raises(IntegrableError, match="argument must be positive and finite"):
            bessel_k0(value)
        with pytest.raises(IntegrableError, match="mR must be positive and finite"):
            vacuum_bound(s, value, 0.3, 0.1)

    def test_parameter_validation(self):
        s = sinh_gordon(0.5)
        with pytest.raises(IntegrableError):
            vacuum_bound(s, 10.0, 0.3, 1.5)
        with pytest.raises(IntegrableError):
            vacuum_bound(s, 10.0, 0.7, 0.1)  # kappa above the pole


class TestDiracBound:
    def test_single_mode_matches_kernel(self):
        lam = 2.0
        m, eps = 1.0, 0.01
        got = dirac_halfline_bound(math.hypot(m, lam), eps)
        want = 4.0 * t_kernel_trace_norm(math.pi, 2.0 * eps * math.sqrt(m * m + lam * lam))
        assert abs(got - want) <= 1e-9 * want

    def test_d1_log_scaling(self):
        ratios = []
        for eps in (1e-1, 1e-2, 1e-3):
            val = dirac_halfline_bound(1.0, eps)
            ratios.append(val / abs(math.log(2.0 * eps)))
        assert max(ratios) / min(ratios) <= 2.0

    def test_d2_area_scaling(self):
        totals = {}
        for eps in (0.2, 0.1, 0.05):
            totals[eps] = dirac_halfline_bound(1.0, eps, 1.0)
        # compare against the (1/eps) |log(m eps)| profile across halvings
        ratios = [totals[e] / ((1.0 / e) * abs(math.log(e))) for e in (0.2, 0.1, 0.05)]
        assert max(ratios) / min(ratios) <= 2.0

    @pytest.mark.parametrize("m, eps, radius", [(1.0, 1.0, 1.0), (2.0, 3.0, 3.0)])
    def test_sum_stops_only_on_its_contribution_rule(self, m, eps, radius):
        # the modes (j + 1/2)/radius in ascending order, up to the first
        # contribution below 1e-14 of the running total; each block of
        # MODE_BLOCK modes converges to atol = 1e-12 of the total before it, / 4
        total, j = 0.0, 0
        while True:
            if j % integrable.MODE_BLOCK == 0:
                atol = 1e-12 * total / 4
            lam = (j + 0.5) / radius
            contrib = 4.0 * t_kernel_trace_norm(math.pi, 2.0 * math.sqrt(m * m + lam * lam) * eps,
                                                atol=atol)
            total += contrib
            if contrib < 1e-14 * max(total, 1.0):
                break
            j += 1
        assert dirac_halfline_bound(m, eps, radius) == total

    @pytest.mark.parametrize("radius", [1.0, 3.0])
    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
    @pytest.mark.parametrize("m", [1.0, 2.0])
    def test_matches_the_fixed_grid_sum(self, m, eps, radius):
        want = dirac_halfline_bound_fixed(m, eps, radius)
        assert abs(dirac_halfline_bound(m, eps, radius) - want) <= 1e-12 * want

    @staticmethod
    def corridor_values(tmp_path, extra):
        out = tmp_path / "dirac.csv"
        assert cli_main(["dirac", "--m", "1", "--eps", "0.2", "--out", str(out)] + extra) in (0, 2)
        with open(out, newline="") as fh:
            return list(csv.DictReader(fh))

    def test_value_does_not_rise_as_the_circle_shrinks(self, tmp_path):
        values = []
        for radius in (1, 0.01, 0.004, 0.001):
            values.append(dirac_halfline_bound(1.0, 0.2, radius))
            (row,) = self.corridor_values(tmp_path, ["--circle-radius", str(radius)])
            assert float(row["value"]) == values[-1]
        assert all(b <= a for a, b in zip(values, values[1:])), values
        # the first mode alone, at mass sqrt(1 + 500^2), is all but zero
        assert 0 < values[-1] < 1e-40

    def test_no_circle_is_none(self, tmp_path):
        (row,) = self.corridor_values(tmp_path, [])
        assert float(row["value"]) == dirac_halfline_bound(1.0, 0.2)
        assert dirac_halfline_bound(1.0, 0.2) == dirac_halfline_bound(1.0, 0.2, None) > 1.0

    def test_bound_takes_no_delta(self):
        with pytest.raises(TypeError):
            dirac_halfline_bound(1.0, 0.2, None, delta=0.1)
        # an old manifest's `dirac --delta` no longer parses
        with pytest.raises(SystemExit) as exc:
            cli_main(["dirac", "--eps", "0.2", "--circle-radius", "1", "--delta", "0.1"])
        assert exc.value.code == 2

    # an infinite radius is rejected by the same check; it is not run here
    # because without it the mode sum would not stop
    @pytest.mark.parametrize("args, match", [
        ((1.0, 0.2, math.nan), "radius"), ((1.0, math.inf, 1.0), "eps"),
    ])
    def test_circle_spectrum_rejects_non_finite_input(self, args, match):
        with pytest.raises(IntegrableError, match=match):
            dirac_halfline_bound(*args)

    @pytest.mark.parametrize("m, eps", [(math.nan, 0.1), (math.inf, 0.1), (1.0, math.nan)])
    def test_bound_rejects_non_finite_input(self, m, eps):
        with pytest.raises(IntegrableError, match="must be positive and finite"):
            dirac_halfline_bound(m, eps)
