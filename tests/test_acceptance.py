"""Acceptance suite: one test per criterion, one printed verdict line each.

Criterion 1 checks the Bell seesaw on the maximally entangled pair at both
n = 2 and n = 3.  At n = 2 the value is Tsirelson's sqrt(2); at n = 3 it is
(1 + 2*sqrt(2))/3, because an odd local dimension leaves one 1-dim Jordan
block of the observable pair, which contributes no more than a classical
correlation.  The qutrit check has its own test and takes its expected value
from the closed form in ``oracles.bell_phi_plus_value``.
"""

import json
import math
import time

import numpy as np

from entbound.bounds import (
    PackingConfig,
    area_law_lower,
    gap_s,
    gap_s_series,
)
from entbound.cft import (
    FREE_SCALAR_4D,
    chiral_bound,
    chiral_cross_ratio,
    concentric_bound,
    concentric_config,
    cross_ratios,
    free_scalar_spectrum_4d,
    quantum_integer,
    tau_theta,
)
from entbound.cli import main as cli_main
from entbound.gaussian import LatticeGeometry
from entbound.integrable import (
    bessel_k0,
    sinh_gordon,
    transverse_circle_spectrum,
    dirac_halfline_bound,
    vacuum_bound,
)
from entbound.linalg import (
    maximally_entangled,
    random_density_matrix,
    save_state,
)
from entbound.measures import (
    bell_correlation,
    log_dominance_upper,
    modular_nuclearity_upper,
    mutual_information,
    ordering_audit,
    relative_entanglement_entropy_upper,
    verify_certificate,
)
from entbound.modular import relative_entropy
from entbound.sectors import (
    Sector,
    SectorList,
    YoungDiagram,
    charged_delta_bounds,
    minimal_model_dim,
    young_dim,
)
from oracles import (
    a_kernel,
    apply_kraus,
    araki_relative_entropy,
    bell_phi_plus_value,
    cocycle_derivative,
    decay_sweep,
    entropy_gap_check,
    fidelity_lower_bound_check,
    hadamard_bound_check,
    log_linear_fit,
    random_kraus_family,
    wedge_trace,
)
from scipy.integrate import quad


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_maximally_entangled_benchmarks():
    t0 = time.time()
    checks = []
    for n in (2, 3):
        rho = maximally_entangled(n)
        checks.append(abs(mutual_information(rho).value - 2 * math.log(n)) <= 1e-9)
        er = relative_entanglement_entropy_upper(rho, restarts=3, seed=1).value
        checks.append(abs(er - math.log(n)) <= 5e-3)
        checks.append(abs(log_dominance_upper(rho).value - math.log(n)) <= 1e-9)
        checks.append(abs(modular_nuclearity_upper(rho).value - 1.5 * math.log(n)) <= 1e-8)
    eb2 = bell_correlation(maximally_entangled(2), restarts=6, seed=0).value
    checks.append(abs(eb2 - math.sqrt(2)) <= 1e-4)
    elapsed = time.time() - t0
    checks.append(elapsed < 10.0)
    verdict(1, all(checks),
            f"benchmark values for n=2,3 (E_B at n=2) in {elapsed:.1f}s "
            "(E_B at n=3 split into its own test)")


def test_criterion_1_bell_qutrit_spec_value():
    """E_B(phi+_3) = (1 + 2 sqrt 2)/3 +- 1e-4, with a certificate.

    Tsirelson's sqrt(2) is reached on phi+_n only for even n: for odd n one
    1-dim Jordan block of the observable pair is left over, so the exact
    qutrit value is (1 + 2 sqrt 2)/3 ~= 1.27614 (``bell_phi_plus_value``).
    The seesaw is a lower bound and must not exceed that value.
    """
    assert abs(bell_phi_plus_value(2) - math.sqrt(2)) <= 1e-15
    expected = bell_phi_plus_value(3)
    rho = maximally_entangled(3)
    res = bell_correlation(rho, restarts=16, seed=0)
    verify_certificate(rho, res)
    eb3 = res.value
    ok = abs(eb3 - expected) <= 1e-4 and eb3 <= expected + 1e-9
    verdict(1, ok,
            f"E_B(phi+_3) = {eb3:.7f}; exact qutrit value (1+2*sqrt2)/3 = {expected:.7f} "
            "(odd n leaves one 1-dim Jordan block)")


def test_criterion_2_three_way_equivalence_and_properties():
    t0 = time.time()
    worst = 0.0
    for seed in range(100):
        rho = random_density_matrix(3, rank=3, seed=seed)
        rho2 = random_density_matrix(3, rank=3, seed=seed + 5000)
        h = relative_entropy(rho, rho2)
        worst = max(worst,
                    abs(h - araki_relative_entropy(rho, rho2)),
                    abs(h - cocycle_derivative(rho, rho2)))
    ok = worst <= 1e-3

    rng = np.random.default_rng(0)
    from entbound.linalg import density_matrix, partial_trace, product_state

    for seed in range(20):
        # (h3) joint convexity
        rhos = [random_density_matrix(3, rank=3, seed=seed * 7 + k) for k in range(2)]
        sigs = [random_density_matrix(3, rank=3, seed=seed * 7 + k + 900) for k in range(2)]
        lam = rng.dirichlet(np.ones(2))
        mix_r = density_matrix(sum(l * r.matrix for l, r in zip(lam, rhos)), 3)
        mix_s = density_matrix(sum(l * s.matrix for l, s in zip(lam, sigs)), 3)
        ok &= relative_entropy(mix_r, mix_s) <= sum(
            l * relative_entropy(r, s) for l, r, s in zip(lam, rhos, sigs)
        ) + 1e-8
        # (h6) monotonicity under CPTP maps
        kraus = random_kraus_family(3, n_ops=2, seed=seed)
        ok &= relative_entropy(apply_kraus(rhos[0], kraus), apply_kraus(sigs[0], kraus)) <= (
            relative_entropy(rhos[0], sigs[0]) + 1e-8
        )
        # (h7) tensor identity
        omega = random_density_matrix(2, 2, seed=seed)
        w1 = partial_trace(omega, "A")
        w2 = partial_trace(omega, "B")
        w1p = random_density_matrix(2, rank=2, seed=seed + 31)
        w2p = random_density_matrix(2, rank=2, seed=seed + 61)
        lhs = relative_entropy(omega, product_state(w1p.matrix, w2p.matrix))
        rhs = (relative_entropy(omega, product_state(w1.matrix, w2.matrix))
               + relative_entropy(w1, w1p) + relative_entropy(w2, w2p))
        ok &= abs(lhs - rhs) <= 1e-8
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    verdict(2, bool(ok), f"three-way worst dev {worst:.2e}, h3/h6/h7 suites, {elapsed:.1f}s")


def test_criterion_3_certified_ordering_chain():
    violations = []
    for seed in range(50):
        rho = random_density_matrix(2, 2, rank=4, seed=seed)
        rep = ordering_audit(rho, include_er=False, include_eb=False, slack=1e-8)
        if not rep.ok:
            violations.append((seed, rep.broken()))
    verdict(3, not violations, f"50 random faithful 2x2 states, violations: {violations}")


def test_criterion_4_gaussian_decay():
    t0 = time.time()
    geom = LatticeGeometry(96, 0.25, 1.0, "dirichlet")
    gaps = range(8, 25, 2)  # m*r = 0.25 * gap in [2, 6]
    rows = decay_sweep(geom, tuple(range(8, 16)), gaps=gaps)
    uppers = [r[2] for r in rows]
    monotone = all(u1 > u2 for u1, u2 in zip(uppers, uppers[1:]))
    slope, _, r2 = log_linear_fit([r[1] for r in rows], uppers)
    elapsed = time.time() - t0
    ok = monotone and r2 >= 0.98 and slope <= -0.5 * 1.0 * 0.75 and elapsed < 120.0
    verdict(4, ok, f"monotone={monotone}, slope={slope:.3f} (cap -0.375), R2={r2:.4f}, {elapsed:.1f}s")


def test_criterion_5_integrable_bounds():
    ok = True
    for kappa in (math.pi, math.pi / 2):
        for s in (1.0, 2.0, 5.0):
            for n in (1, 2, 3):
                _, _, passed = hadamard_bound_check(kappa, s, n)
                ok &= passed
    primary, alt = wedge_trace(a_kernel(math.pi, 2.0), 2)
    ok &= abs(primary - alt) <= 0.01 * max(primary, alt)
    s_matrix = sinh_gordon(0.5)
    rs = np.arange(15.0, 41.0, 5.0)
    results = [vacuum_bound(s_matrix, 1.0, float(r), 0.3, 0.1) for r in rs]
    ok &= all(res.converged for res in results)
    slope = np.polyfit(rs, np.log([res.log_value for res in results]), 1)[0]
    ok &= abs(slope - (-0.9)) <= 0.15 * 0.9
    for x in (0.5, 1.0, 5.0):
        oracle = quad(lambda th: math.exp(-x * math.cosh(th)), 0, 40, limit=400,
                      epsabs=1e-15, epsrel=1e-13)[0]
        ok &= abs(bessel_k0(x) - oracle) <= 1e-10 * oracle
    verdict(5, bool(ok), f"hadamard grid, wedge dual methods, vacuum slope {slope:.3f} vs -0.9, K0 vs quadrature")


def test_criterion_6_dirac_scaling():
    vals_d1 = {}
    for eps in (1e-1, 1e-2, 1e-3):
        vals_d1[eps] = dirac_halfline_bound(1.0, eps)
    ratios_d1 = [v / abs(math.log(2 * e)) for e, v in vals_d1.items()]
    ok = max(ratios_d1) / min(ratios_d1) <= 2.0
    ratios_d2 = []
    for eps in (0.2, 0.1, 0.05):
        spec = transverse_circle_spectrum(1.0, eps, 0.1)
        total = dirac_halfline_bound(1.0, eps, spec)
        ratios_d2.append(total / ((1.0 / eps) * abs(math.log(eps))))
    ok &= max(ratios_d2) / min(ratios_d2) <= 2.0
    verdict(6, bool(ok), f"d=1 ratio spread {max(ratios_d1)/min(ratios_d1):.2f}, "
                         f"d=2 ratio spread {max(ratios_d2)/min(ratios_d2):.2f} (caps 2.0)")


def test_criterion_7_cft_values():
    table = free_scalar_spectrum_4d(10)
    by_delta = {int(r.delta): r.mult for r in table.rows}
    from test_cft import _brute_force_colored_partitions

    ok = all(by_delta.get(k, 0) == _brute_force_colored_partitions(k) for k in range(11))
    tau = 0.05
    val = concentric_bound(FREE_SCALAR_4D, math.exp(-tau))
    want = math.pi**4 / 45.0 / tau**3
    ok &= abs(val - want) <= 0.05 * want
    for r, big_r in ((1.0, 2.0), (0.5, 3.0)):
        t, th = tau_theta(*cross_ratios(concentric_config(r, big_r)))
        ok &= abs(t - math.log(big_r / r)) <= 1e-9 and abs(th) <= 1e-9
    for n in (1, 3, 5):
        for theta in (0.0, 0.7):
            closed = n if theta == 0 else (
                (math.exp(n * theta / 2) - math.exp(-n * theta / 2))
                / (math.exp(theta / 2) - math.exp(-theta / 2))
            )
            ok &= abs(quantum_integer(n, theta) - closed) <= 1e-12 * max(closed, 1.0)
    n1 = 2
    d = (-2 + math.sqrt(4 + 4e4)) / 2
    intervals = (-1.0, 0.0, d, d + 1.0)
    assert abs(chiral_cross_ratio(*intervals) - 1e4) <= 1e-6
    far = chiral_bound([(0, 1), (1, n1)], intervals)
    ok &= abs(far - n1 / 4e4) <= 0.1 * n1 / 4e4
    verdict(7, bool(ok), f"free-scalar levels 0..10 exact, concentric tau=0.05 within 5%, "
                         f"tau/theta exact, quantum integers, chiral far regime")


def test_criterion_8_sectors():
    ok = young_dim(YoungDiagram((6, 4, 1)), 10) == 5_945_940
    ok &= abs(minimal_model_dim(3, 1, 1) - 1.0) <= 1e-12
    for p in (3, 4, 5):
        for m in range(1, p):
            for n in range(1, p + 1):
                ok &= abs(minimal_model_dim(p, m, n) - minimal_model_dim(p, p - m, p + 1 - n)) <= 1e-12
    er, em = charged_delta_bounds(SectorList((Sector("t", 5_945_940.0, 1),)))
    ok &= er == 2.0 * math.log(5_945_940.0) and em == 2.5 * math.log(5_945_940.0)
    verdict(8, bool(ok), "young golden value exact, vacuum dim 1, Kac symmetry, delta arithmetic")


def test_criterion_9_lower_bounds():
    ok = True
    for x in np.linspace(0.01, 0.1, 10):
        ok &= abs(gap_s(float(x)) - gap_s_series(float(x))) <= 1e-5
    ok &= abs(gap_s(0.999) - (-math.log(0.001))) <= 0.02 * abs(math.log(0.001))
    for x in np.linspace(0.005, 0.995, 100):
        ok &= gap_s(float(x)) >= 2 * float(x) ** 2 - 1e-12
    for seed in range(300):
        rho = random_density_matrix(3, rank=3, seed=seed)
        rho2 = random_density_matrix(3, rank=3, seed=seed + 7000)
        ok &= entropy_gap_check(rho, rho2)[2]
        ok &= fidelity_lower_bound_check(rho, rho2)[2]
    n, _ = area_law_lower(PackingConfig(eps=3.0**-10, d=1, d2=1.0))
    ok &= n == 9
    verdict(9, bool(ok), "series window, endpoint, Pinsker refinement, 300-pair sweeps, d=1 count")


def test_criterion_10_cli_determinism(tmp_path):
    save_state(maximally_entangled(2), tmp_path / "state.json")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["gaussian", "--sites", "48", "--spacing", "0.25", "--regionA", "4..9",
            "--gap", "6..12..3", "--trials", "16", "--seed", "5"]
    assert cli_main(argv + ["--out", str(out1)]) == 0
    assert cli_main(argv + ["--out", str(out2)]) == 0
    ok = out1.read_bytes() == out2.read_bytes()
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    margv = ["measures", "--state", str(tmp_path / "state.json"), "--measures", "ER,EB",
             "--seed", "3", "--er-restarts", "2"]
    cli_main(margv + ["--out", str(r1)])
    cli_main(margv + ["--out", str(r2)])
    ok &= json.loads(r1.read_text()) == json.loads(r2.read_text())
    out3 = tmp_path / "c.csv"
    assert cli_main(["replay", str(out1) + ".manifest.json", "--out", str(out3)]) == 0
    ok &= out1.read_bytes() == out3.read_bytes()
    verdict(10, bool(ok), "byte-identical CSV, value-identical seeded reports, manifest replay")
