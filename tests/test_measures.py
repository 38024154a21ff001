import math

import numpy as np
import pytest

from entbound import config, measures
from entbound.linalg import (
    DensityMatrix,
    density_matrix,
    maximally_entangled,
    partial_trace,
    product_state,
    pure_state,
    random_density_matrix,
    swap_sides,
)
from entbound.measures import (
    UPPER,
    MeasureError,
    MeasureResult,
    SeparableAnsatz,
    SeparableDecomposition,
    bell_correlation,
    bell_functional,
    dominating_separable,
    log_dominance_upper,
    matrix_unit_decomposition,
    modular_nuclearity_pure,
    modular_nuclearity_upper,
    mutual_information,
    ordering_audit,
    relative_entanglement_entropy_upper,
    schmidt_entropy,
    verify_certificate,
)
from oracles import (
    bell_correlation_functional,
    descend_sequential,
    descend_weighted,
    local_unitary_conjugate,
    modular_nuclearity_kron,
    modular_nuclearity_omega_matrix,
    operator_schmidt_decomposition,
    tensor_bipartite,
    tensor_decompositions,
    vn_entropy_scalar,
)


def faithful_2x2(seed):
    return random_density_matrix(2, 2, rank=4, seed=seed)


def random_separable(seed, k=6, da=2, db=2):
    rng = np.random.default_rng(seed)
    sigma = np.zeros((da * db, da * db), dtype=complex)
    for _ in range(k):
        a = rng.standard_normal(da) + 1j * rng.standard_normal(da)
        b = rng.standard_normal(db) + 1j * rng.standard_normal(db)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        v = np.kron(a, b)
        sigma += rng.random() * np.outer(v, v.conj())
    sigma /= np.trace(sigma).real
    return DensityMatrix(da, db, sigma)


class TestMutualInformation:
    def test_product_state_zero(self):
        rho = product_state(random_density_matrix(2, seed=0).matrix,
                            random_density_matrix(2, seed=1).matrix)
        assert abs(mutual_information(rho).value) <= 1e-10

    def test_maximally_entangled(self):
        for n in (2, 3):
            res = mutual_information(maximally_entangled(n))
            assert abs(res.value - 2 * math.log(n)) <= 1e-9

    def test_dual_formulas_agree(self):
        res = mutual_information(faithful_2x2(3))
        assert abs(res.value - res.meta["via_relative_entropy"]) <= 1e-9

    def test_state_loaded_under_lattice_passes(self):
        # trace off by 5e-9: inside LATTICE's 1e-8, while rho_A (x) rho_B alone
        # is off by 1e-8 + 2.5e-17
        m = np.diag([0.4 + 5e-9, 0.3, 0.2, 0.1])
        token = config.PROFILE.set(config.LATTICE)
        try:
            res = mutual_information(density_matrix(m, 2, 2))
        finally:
            config.PROFILE.reset(token)
        p = np.diag(m)
        pa, pb = p.reshape(2, 2).sum(axis=1), p.reshape(2, 2).sum(axis=0)
        want = vn_entropy_scalar(pa) + vn_entropy_scalar(pb) - vn_entropy_scalar(p)
        assert abs(res.value - want) <= 1e-12
        assert abs(res.value - res.meta["via_relative_entropy"]) <= 1e-9

    def test_pure_state_doubles_schmidt(self):
        p = (0.7, 0.3)
        psi = _schmidt_vector(p)
        rho = pure_state(psi, 2, 2)
        ei = mutual_information(rho).value
        er = schmidt_entropy(psi, 2, 2).value
        assert abs(ei - 2 * er) <= 1e-9


def _schmidt_vector(p):
    v = np.zeros(4, dtype=complex)
    v[0] = math.sqrt(p[0])
    v[3] = math.sqrt(p[1])
    return v


class TestSchmidtEntropy:
    def test_product_vector_zero(self):
        psi = np.kron([1.0, 0.0], [0.0, 1.0]).astype(complex)
        assert abs(schmidt_entropy(psi, 2, 2).value) <= 1e-12

    def test_phi_plus(self):
        psi = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
        assert abs(schmidt_entropy(psi, 2, 2).value - math.log(2)) <= 1e-12

    def test_scalar_weights(self):
        p = (0.9, 0.1)
        got = schmidt_entropy(_schmidt_vector(p), 2, 2).value
        assert abs(got - vn_entropy_scalar(p)) <= 1e-12

    def test_non_unit_vector_rejected(self):
        with pytest.raises(MeasureError):
            schmidt_entropy(np.array([1.0, 1.0, 0, 0]), 2, 2)


class TestRelativeEntanglementUpper:
    def test_separable_input_near_zero(self):
        rho = random_separable(7)
        res = relative_entanglement_entropy_upper(rho, restarts=6, seed=1)
        assert res.value <= 1e-3

    def test_phi_plus(self):
        res = relative_entanglement_entropy_upper(maximally_entangled(2), restarts=3, seed=1)
        assert abs(res.value - math.log(2)) <= 5e-3

    def test_pure_schmidt_oracle(self):
        p = (0.8, 0.2)
        psi = _schmidt_vector(p)
        rho = pure_state(psi, 2, 2)
        res = relative_entanglement_entropy_upper(rho, restarts=3, seed=1)
        assert abs(res.value - schmidt_entropy(psi, 2, 2).value) <= 5e-3

    def test_certificate_reverifies(self):
        rho = faithful_2x2(5)
        res = relative_entanglement_entropy_upper(rho, restarts=4, seed=2)
        verify_certificate(rho, res)

    def test_always_nonnegative_with_run_metadata(self):
        # any output is a genuine value of H(rho, sigma): nonnegative
        res = relative_entanglement_entropy_upper(faithful_2x2(9), restarts=2, seed=0)
        assert res.value >= -1e-12
        assert "stagnated" in res.meta and "iterations" in res.meta

    @pytest.mark.parametrize("n", [2, 3])
    def test_phi_plus_every_restart_converges(self, n):
        # phi+ is found to 1e-9, so no restart may be reported as stagnated
        res = relative_entanglement_entropy_upper(maximally_entangled(n), restarts=3)
        assert res.meta["stagnated"] is False
        assert res.meta["stop"] == "rel_tol"
        assert abs(res.value - math.log(n)) <= 1e-9

    @pytest.mark.parametrize("db", [2, 3])
    def test_product_state_stops_at_round_off(self, db):
        rho = product_state(random_density_matrix(2, seed=0).matrix,
                            random_density_matrix(db, seed=1).matrix)
        res = relative_entanglement_entropy_upper(rho, restarts=3)
        verify_certificate(rho, res)
        assert res.value <= 1e-12
        # the best restart ends at round-off, not at the iteration cap
        assert res.meta["stop"] in ("zero", "no_descent")
        assert res.meta["iterations"] < 3 * 1500

    def test_iteration_cap_is_reported(self):
        res = relative_entanglement_entropy_upper(faithful_2x2(9), restarts=2, max_iter=5)
        assert res.meta["stop"] == "max_iter" and res.meta["stagnated"] is True
        assert res.meta["iterations"] == 10

    def test_zero_value_stops_before_a_step(self):
        # a start that already reproduces a product state has nothing to descend
        ra, rb = random_density_matrix(2, seed=0).matrix, random_density_matrix(2, seed=1).matrix
        wa, va = np.linalg.eigh(ra)
        wb, vb = np.linalg.eigh(rb)
        p = np.outer(wa, wb).ravel()
        av, bv = np.repeat(va, 2, axis=1), np.tile(vb, 2)
        rho = product_state(ra, rb)
        [(val, _, iters, stop)] = measures._descend(rho.matrix, p[None], av[None], bv[None], 1500)
        assert (iters, stop) == (0, "zero") and val <= 1e-14

    @pytest.mark.parametrize("rho", [
        maximally_entangled(2),
        maximally_entangled(3),
        random_density_matrix(2, 2, seed=0),
        random_density_matrix(3, 3, seed=0),
    ], ids=["phi_plus_2", "phi_plus_3", "ginibre_2x2", "ginibre_3x3"])
    def test_no_worse_than_the_weighted_descent(self, rho):
        # from the same starts as the weighted projected-gradient oracle; both
        # stop once a step gains less than 1e-10 relative, so that is the slack
        ref = min(descend_weighted(rho.matrix, rho.dimA, rho.dimB, p, av, bv, 1500)[0]
                  for p, av, bv in zip(*measures._er_starts(rho, 2 * rho.dim, 3, 0)))
        res = relative_entanglement_entropy_upper(rho, restarts=3, seed=0)
        verify_certificate(rho, res)
        assert res.value <= ref + 1e-10 * ref


def _case(rho, restarts, max_iter=1500, rel_tol=1e-10, k=None):
    starts = measures._er_starts(rho, 2 * rho.dim if k is None else k, restarts, 0)
    return rho, starts, max_iter, rel_tol


def _infeasible_first():
    # phi+ against sigma = |00><00| leaves half of rho's weight off sigma's
    # support, so the first start is infeasible; the second is a random start
    rho, (p, av, bv), max_iter, rel_tol = _case(maximally_entangled(2), 2)
    av[0], bv[0] = 0.0, 0.0
    av[0, 0], bv[0, 0] = 1.0, 1.0
    return rho, (p, av, bv), max_iter, rel_tol


_MIXED_PRODUCT = product_state(random_density_matrix(2, seed=0).matrix,
                               random_density_matrix(2, seed=1).matrix)

# (state, stacked starts, max_iter, rel_tol)
LOCKSTEP_CASES = {
    "phi_plus_2": _case(maximally_entangled(2), 3),
    "phi_plus_3": _case(maximally_entangled(3), 3),
    "ginibre_2x2_r3": _case(random_density_matrix(2, 2, seed=0), 3),
    "ginibre_2x2_r8": _case(random_density_matrix(2, 2, seed=0), 8),
    "ginibre_2x3_r3": _case(random_density_matrix(2, 3, seed=1), 3),
    "ginibre_2x3_r8": _case(random_density_matrix(2, 3, seed=1), 8),
    "ginibre_3x3_r3": _case(random_density_matrix(3, 3, seed=0), 3),
    "ginibre_3x3_r8": _case(random_density_matrix(3, 3, seed=0), 8),
    # restarts stop at rounds 63 (zero), 474 (no_descent) and 1500 (max_iter)
    "mixed_product_r8": _case(_MIXED_PRODUCT, 8),
    # rounds 56 (rel_tol), 63 (zero) and 474 (no_descent); at the default
    # rel_tol no restart on a product state stops on rel_tol, since its
    # value reaches round-off first
    "mixed_product_rel_tol": _case(_MIXED_PRODUCT, 3, rel_tol=1e-5),
    # the first restart's gain is below rel_tol by its 11th step, and it
    # stops after its 12th, the earliest the stop test allows
    "mixed_product_loose_rel_tol": _case(_MIXED_PRODUCT, 3, rel_tol=1e-2),
    "max_iter_5": _case(random_density_matrix(2, 2, seed=3), 3, max_iter=5),
    "one_restart": _case(random_density_matrix(2, 3, seed=2), 1),
    # sigma is rank two, so the off-support branch runs on feasible sigmas
    "rank_deficient_sigma": _case(maximally_entangled(2), 1, k=2),
    "infeasible_start": _infeasible_first(),
}


class TestLockstepDescent:
    @pytest.mark.parametrize("name", list(LOCKSTEP_CASES))
    def test_matches_the_sequential_oracle(self, name):
        rho, starts, max_iter, rel_tol = LOCKSTEP_CASES[name]
        given = [part.copy() for part in starts]
        runs = measures._descend(rho.matrix, *starts, max_iter, rel_tol=rel_tol)
        assert len(runs) == len(starts[0])
        assert all(np.array_equal(a, b) for a, b in zip(given, starts))
        for r, (p, av, bv) in enumerate(zip(*starts)):
            want = descend_sequential(rho.matrix, rho.dimA, rho.dimB, p, av, bv, max_iter, rel_tol)
            val, mix, iters, stop = runs[r]
            assert type(val) is float and type(iters) is int and type(stop) is str
            assert (iters, stop) == (want[2], want[3]), r
            if math.isinf(want[0]):
                assert math.isinf(val)
            else:
                assert abs(val - want[0]) <= 1e-13 * max(abs(want[0]), 1e-300), r
                for got, ref in zip(mix, want[1]):
                    assert np.allclose(got, ref, rtol=0.0, atol=1e-12)

    def test_the_cases_cover_every_stop_reason(self):
        names = ("mixed_product_rel_tol", "max_iter_5")
        stops = set()
        for name in names:
            rho, starts, max_iter, rel_tol = LOCKSTEP_CASES[name]
            stops |= {run[3] for run in measures._descend(rho.matrix, *starts, max_iter, rel_tol=rel_tol)}
        assert stops == {"rel_tol", "no_descent", "max_iter", "zero"}

    def test_one_eigh_per_round(self, monkeypatch):
        # lockstep: the stack costs as many eigh calls as its longest
        # restart alone, not the sum over restarts
        rho = random_density_matrix(2, 2, seed=0)
        starts = measures._er_starts(rho, 2 * rho.dim, 3, 0)
        calls = [0]
        eigh = np.linalg.eigh

        def counting(*args, **kwargs):
            calls[0] += 1
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        single = []
        for p, av, bv in zip(*starts):
            calls[0] = 0
            descend_sequential(rho.matrix, rho.dimA, rho.dimB, p, av, bv, 200)
            single.append(calls[0])
        calls[0] = 0
        measures._descend(rho.matrix, *starts, 200)
        assert len(set(single)) > 1
        assert calls[0] == max(single) < sum(single)

    def test_best_restart_and_meta(self):
        rho = random_density_matrix(2, 2, seed=0)
        runs = measures._descend(rho.matrix, *measures._er_starts(rho, 8, 3, 0), 1500)
        res = relative_entanglement_entropy_upper(rho, restarts=3, seed=0)
        best = min(range(3), key=lambda r: runs[r][0])
        assert res.value == runs[best][0] and res.meta["stop"] == runs[best][3]
        assert res.meta["iterations"] == sum(run[2] for run in runs)
        assert type(res.meta["iterations"]) is int and type(res.meta["stagnated"]) is bool
        assert np.array_equal(res.certificate.weights, runs[best][1][0])


class TestDominatingSeparable:
    def test_product_single_pair(self):
        ra = random_density_matrix(2, seed=0).matrix
        rb = random_density_matrix(2, seed=1).matrix
        rho = product_state(ra, rb)
        dec = SeparableDecomposition(pairs=[(ra, rb)])
        sigma, mu = dominating_separable(dec)
        assert abs(mu - 1.0) <= 1e-10
        assert np.linalg.norm(sigma - rho.matrix) <= 1e-10

    def test_phi_plus_matrix_units(self):
        n = 2
        rho = maximally_entangled(n)
        pairs = []
        for i in range(n):
            for j in range(n):
                e = np.zeros((n, n), dtype=complex)
                e[i, j] = 1.0 / math.sqrt(n)
                pairs.append((e, e.copy()))
        dec = SeparableDecomposition(pairs=pairs)
        dec.check_reconstructs(rho)
        sigma, mu = dominating_separable(dec)
        assert abs(mu - 2.0) <= 1e-12
        assert np.linalg.eigvalsh(sigma - rho.matrix).min() >= -1e-9

    def test_random_operator_schmidt_dominates(self):
        rho = faithful_2x2(11)
        dec = operator_schmidt_decomposition(rho)
        dec.check_reconstructs(rho)
        sigma, _ = dominating_separable(dec)
        assert np.linalg.eigvalsh(sigma - rho.matrix).min() >= -1e-9


class TestLogDominance:
    def test_product_zero(self):
        rho = product_state(random_density_matrix(2, seed=2).matrix,
                            random_density_matrix(3, seed=3).matrix)
        assert abs(log_dominance_upper(rho).value) <= 1e-10

    def test_phi_plus_n3(self):
        res = log_dominance_upper(maximally_entangled(3))
        assert abs(res.value - math.log(3)) <= 1e-9

    def test_er_chain_inequality(self):
        rho = faithful_2x2(13)
        res = log_dominance_upper(rho)
        assert res.meta["h_to_normalized_sigma"] <= res.value + 1e-8

    def test_dominates_er_optimizer(self):
        rho = faithful_2x2(17)
        en = log_dominance_upper(rho).value
        er = relative_entanglement_entropy_upper(rho, restarts=6, seed=3).value
        assert en >= er - 5e-3

    def test_certificate_reverifies(self):
        rho = faithful_2x2(19)
        verify_certificate(rho, log_dominance_upper(rho))
        # an independent decomposition re-verifies as an EN certificate too
        dec = operator_schmidt_decomposition(rho)
        _, mu = dominating_separable(dec)
        verify_certificate(rho, MeasureResult("EN", float(np.log(mu)), UPPER, certificate=dec))


class TestModularNuclearity:
    def test_pure_value_single_weight(self):
        assert abs(modular_nuclearity_pure([1.0]).value) <= 1e-12

    def test_pure_uniform(self):
        res = modular_nuclearity_pure([0.5, 0.5])
        assert abs(res.value - 1.5 * math.log(2)) <= 1e-12

    def test_pure_scalar(self):
        res = modular_nuclearity_pure([0.9, 0.1])
        want = 2 * math.log(0.9**0.25 + 0.1**0.25)
        assert abs(res.value - want) <= 1e-12

    def test_pure_zero_weight_rejected(self):
        with pytest.raises(MeasureError):
            modular_nuclearity_pure([1.0, 0.0])

    def test_product_faithful_zero(self):
        rho = product_state(random_density_matrix(2, seed=4).matrix,
                            random_density_matrix(2, seed=5).matrix)
        assert abs(modular_nuclearity_upper(rho).value) <= 1e-8

    def test_purified_phi_plus(self):
        res = modular_nuclearity_upper(maximally_entangled(2))
        assert abs(res.value - 1.5 * math.log(2)) <= 1e-8

    def test_agrees_with_pure_formula(self):
        p = (0.6, 0.3, 0.1)
        psi = np.zeros(9, dtype=complex)
        for k in range(3):
            psi[k * 3 + k] = math.sqrt(p[k])
        rho = pure_state(psi, 3, 3)
        got = modular_nuclearity_upper(rho).value
        want = modular_nuclearity_pure(p).value
        assert abs(got - want) <= 1e-8

    def test_dominates_log_dominance(self):
        for seed in range(10):
            rho = faithful_2x2(seed)
            em = modular_nuclearity_upper(rho).value
            en = log_dominance_upper(rho).value
            assert em >= en - 1e-8

    def test_rejects_unsupported_state(self):
        # neither faithful nor pure with full Schmidt rank: rank 2 mixed
        rho = random_density_matrix(2, 2, rank=2, seed=3)
        with pytest.raises(MeasureError):
            modular_nuclearity_upper(rho)

    def test_accepts_pure_full_schmidt_rank(self):
        rho = random_density_matrix(2, 2, rank=1, seed=3)
        weights = np.linalg.eigvalsh(partial_trace(rho, "A").matrix)
        got = modular_nuclearity_upper(rho).value
        assert abs(got - modular_nuclearity_pure(weights).value) <= 1e-8

    @pytest.mark.parametrize("rho", [
        pytest.param(maximally_entangled(2), id="phi_plus"),
        *(pytest.param(faithful_2x2(seed), id=f"faithful_2x2-{seed}") for seed in (0, 23)),
        pytest.param(random_density_matrix(2, 3, rank=6, seed=1), id="2x3"),
        pytest.param(random_density_matrix(3, 2, rank=6, seed=2), id="3x2"),
        pytest.param(random_density_matrix(3, 3, rank=9, seed=3), id="3x3"),
        *(pytest.param(random_density_matrix(4, 4, rank=16, seed=seed), id=f"4x4-{seed}")
          for seed in range(4)),
        pytest.param(random_density_matrix(4, 4, rank=1, seed=5), id="pure-4x4"),
    ])
    def test_matches_kronecker_oracle(self, rho):
        # against the dense Kronecker operators and against the d^4 x d^4
        # Tomita solve on the Omega matrix
        res = modular_nuclearity_upper(rho)
        for oracle in (modular_nuclearity_kron, modular_nuclearity_omega_matrix):
            nu_a, nu_b = oracle(rho)
            assert abs(res.meta["nu_A"] - nu_a) <= 1e-8 * nu_a, oracle.__name__
            assert abs(res.meta["nu_B"] - nu_b) <= 1e-8 * nu_b, oracle.__name__

    @pytest.mark.parametrize("d", [5, 6])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dominates_log_dominance_past_dimension_16(self, d, seed):
        rho = random_density_matrix(d, d, rank=d * d, seed=seed)
        em = modular_nuclearity_upper(rho).value
        en = log_dominance_upper(rho).value
        assert em >= en - 1e-8

    def test_phi_plus_8(self):
        res = modular_nuclearity_upper(maximally_entangled(8))
        assert abs(res.value - 1.5 * math.log(8)) <= 1e-8

    def test_pure_full_schmidt_rank_8x8(self):
        rho = random_density_matrix(8, 8, rank=1, seed=4)
        weights = np.linalg.eigvalsh(partial_trace(rho, "A").matrix)
        assert weights.min() > 1e-6
        got = modular_nuclearity_upper(rho).value
        assert abs(got - modular_nuclearity_pure(weights).value) <= 1e-8

    def test_rejects_total_dimension_above_64(self):
        rho = random_density_matrix(8, 9, rank=72, seed=0)
        with pytest.raises(MeasureError, match="dimension 64"):
            modular_nuclearity_upper(rho)

    def test_swap_exchanges_sides(self):
        # side B works on the transposed Omega matrix; swapping the parties
        # must hand side A's value to side B
        rho = random_density_matrix(2, 3, rank=6, seed=7)
        nu_a = modular_nuclearity_upper(rho).meta["nu_A"]
        nu_b_swapped = modular_nuclearity_upper(swap_sides(rho)).meta["nu_B"]
        assert abs(nu_a - nu_b_swapped) <= 1e-10 * nu_a

    def test_certificate_reverifies(self):
        rho = faithful_2x2(23)
        res = modular_nuclearity_upper(rho)
        verify_certificate(rho, res)


class TestBellCorrelation:
    def test_product_state(self):
        rho = product_state(random_density_matrix(2, seed=6).matrix,
                            random_density_matrix(2, seed=7).matrix)
        res = bell_correlation(rho, restarts=4, seed=0)
        assert abs(res.value - 1.0) <= 1e-6

    def test_phi_plus_tsirelson(self):
        res = bell_correlation(maximally_entangled(2), restarts=6, seed=0)
        assert abs(res.value - math.sqrt(2)) <= 1e-4
        assert res.value <= math.sqrt(2) + 1e-9

    def test_maximally_mixed(self):
        rho = density_matrix(np.eye(4, dtype=complex) / 4, 2, 2)
        res = bell_correlation(rho, restarts=4, seed=1)
        assert abs(res.value - 1.0) <= 1e-6

    def test_certificate_reverifies(self):
        rho = faithful_2x2(29)
        res = bell_correlation(rho, restarts=4, seed=2)
        verify_certificate(rho, res)
        a1, a2, b1, b2 = res.certificate
        assert abs(bell_functional(rho, a1, a2, b1, b2) - res.value) <= 1e-9


def ginibre_state(key: int, index: int, d: int, pure: bool = False):
    """The seeded d x d states of the benchmark's input families."""
    rng = np.random.default_rng([key, index, d, d])
    if pure:
        v = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
        v /= np.linalg.norm(v)
        m = np.outer(v, v.conj())
    else:
        g = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
        m = g @ g.conj().T
    return density_matrix(m / np.trace(m).real, d, d)


class TestBellSeesawValue:
    """Each round's value is the B-side conditional operators' trace norms;
    the loop that re-evaluates bell_functional every round is the oracle."""

    @pytest.mark.parametrize("rho", [
        maximally_entangled(2),
        ginibre_state(1, 0, 2),
        ginibre_state(1, 0, 3),
        ginibre_state(2, 0, 4),
        ginibre_state(3, 0, 4, pure=True),
    ], ids=["phi_plus", "audit-2x2-0", "audit-3x3-0", "nuclear-4x4-0", "pure-4x4-0"])
    def test_matches_functional_loop(self, rho):
        want, iters = bell_correlation_functional(rho)
        res = bell_correlation(rho)
        assert res.meta["iterations"] == iters
        assert abs(res.value - want) <= 1e-12
        verify_certificate(rho, res)


class TestOrderingAudit:
    def test_phi_plus_values(self):
        rho = maximally_entangled(2)
        rep = ordering_audit(rho, seed=1, er_restarts=3)
        assert abs(rep.values["EI"] - 2 * math.log(2)) <= 5e-3
        assert abs(rep.values["ER_upper"] - math.log(2)) <= 5e-3
        assert abs(rep.values["EN_upper"] - math.log(2)) <= 5e-3
        assert abs(rep.values["EM_upper"] - 1.5 * math.log(2)) <= 5e-3
        assert rep.ok

    def test_product_all_zero(self):
        rho = product_state(random_density_matrix(2, seed=8).matrix,
                            random_density_matrix(2, seed=9).matrix)
        rep = ordering_audit(rho, seed=1, er_restarts=2)
        for key in ("EI", "ER_upper", "EN_upper", "EM_upper"):
            assert abs(rep.values[key]) <= 5e-3
        assert abs(rep.values["EB"] - 1.0) <= 1e-4
        assert rep.ok

    def test_chain_on_random_states(self):
        for seed in range(50):
            rho = faithful_2x2(seed)
            rep = ordering_audit(rho, include_er=False, include_eb=False)
            assert rep.ok, f"seed {seed}: broken {rep.broken()}"


class TestSymmetriesAndTensoring:
    def test_e0_swap_symmetry(self):
        rho = random_density_matrix(2, 3, rank=6, seed=31)
        sw = swap_sides(rho)
        assert abs(mutual_information(rho).value - mutual_information(sw).value) <= 1e-8
        assert abs(log_dominance_upper(rho).value - log_dominance_upper(sw).value) <= 1e-8
        assert abs(modular_nuclearity_upper(rho).value - modular_nuclearity_upper(sw).value) <= 1e-8

    def test_e0_swap_symmetry_bell(self):
        rho = maximally_entangled(2)
        v1 = bell_correlation(rho, restarts=4, seed=0).value
        v2 = bell_correlation(swap_sides(rho), restarts=4, seed=0).value
        assert abs(v1 - v2) <= 1e-8

    def test_e4_local_unitary_invariance(self):
        rng = np.random.default_rng(0)
        rho = faithful_2x2(37)
        ua, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        ub, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        rot = local_unitary_conjugate(rho, ua, ub)
        v1 = relative_entanglement_entropy_upper(rho, restarts=6, seed=1).value
        v2 = relative_entanglement_entropy_upper(rot, restarts=6, seed=1).value
        assert abs(v1 - v2) <= 5e-3

    def test_e5_subadditivity_via_tensored_certificates(self):
        rho1 = faithful_2x2(41)
        rho2 = faithful_2x2(43)
        combined = tensor_bipartite(rho1, rho2)
        res1 = log_dominance_upper(rho1)
        res2 = log_dominance_upper(rho2)
        dec12 = tensor_decompositions(res1.certificate, res2.certificate)
        dec12.check_reconstructs(combined)
        sigma, mu = dominating_separable(dec12)
        assert np.linalg.eigvalsh(sigma - combined.matrix).min() >= -1e-9
        # the tensored certificate realizes the subadditive bound exactly
        assert math.log(mu) <= res1.value + res2.value + 1e-8

    def test_e5_modular(self):
        # keep total dim at the 16 cap: 2x2 (x) 2x2
        rho1 = faithful_2x2(47)
        rho2 = faithful_2x2(53)
        combined = tensor_bipartite(rho1, rho2)
        em12 = modular_nuclearity_upper(combined).value
        em1 = modular_nuclearity_upper(rho1).value
        em2 = modular_nuclearity_upper(rho2).value
        assert em12 <= em1 + em2 + 1e-8


class TestAnsatzValidation:
    def test_weight_validation(self):
        with pytest.raises(MeasureError):
            SeparableAnsatz(np.array([0.5, 0.6]), np.eye(2, dtype=complex), np.eye(2, dtype=complex))

    def test_materialize_valid_state(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        b = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        a /= np.linalg.norm(a, axis=0)
        b /= np.linalg.norm(b, axis=0)
        ans = SeparableAnsatz(np.array([0.2, 0.3, 0.5]), a, b)
        sig = ans.materialize()
        assert abs(np.trace(sig.matrix).real - 1) <= 1e-10

    def test_matrix_unit_reconstructs(self):
        rho = random_density_matrix(3, 2, rank=6, seed=59)
        matrix_unit_decomposition(rho).check_reconstructs(rho)
