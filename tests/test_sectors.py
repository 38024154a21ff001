import math

import pytest

from entbound.sectors import (
    Sector,
    SectorError,
    SectorList,
    YoungDiagram,
    charged_delta_bounds,
    minimal_model_dim,
    minimal_model_mu_index,
    minimal_model_sectors,
    young_dim,
)


class TestYoungDiagram:
    def test_hook_lengths_golden_diagram(self):
        # hooks of (6,4,1) printed row by row
        d = YoungDiagram((6, 4, 1))
        hooks = [[d.hook_length(i, j) for j in range(r)] for i, r in enumerate(d.rows)]
        assert hooks == [[8, 6, 5, 4, 2, 1], [5, 3, 2, 1], [1]]

    def test_shape_validation(self):
        with pytest.raises(SectorError):
            YoungDiagram((2, 3))
        with pytest.raises(SectorError):
            YoungDiagram((2, 0))

    def test_single_box_gives_rank(self):
        for n in (2, 5, 11):
            assert young_dim(YoungDiagram((1,)), n) == n

    def test_golden_value(self):
        assert young_dim(YoungDiagram((6, 4, 1)), 10) == 5_945_940

    def test_antisymmetric_square_rank3(self):
        # hand evaluation: (3+0-0)/2 * (3+0-1)/1 = 3/2 * 2 = 3
        assert young_dim(YoungDiagram((1, 1)), 3) == 3

    def test_columns_give_binomials(self):
        for k in (1, 2, 3, 4):
            for n in range(k, 9):
                got = young_dim(YoungDiagram((1,) * k), n)
                assert got == math.comb(n, k)

    def test_nonexistent_representation(self):
        with pytest.raises(SectorError, match="does not exist"):
            young_dim(YoungDiagram((1, 1, 1)), 2)


class TestMinimalModel:
    def test_vacuum_sector(self):
        assert abs(minimal_model_dim(3, 1, 1) - 1.0) <= 1e-12

    def test_ising_sigma(self):
        assert abs(minimal_model_dim(3, 1, 2) - math.sqrt(2)) <= 1e-12

    def test_all_dims_at_least_one(self):
        for p in (3, 4):
            for m in range(1, p):
                for n in range(1, p + 1):
                    assert minimal_model_dim(p, m, n) >= 1.0 - 1e-9

    def test_kac_symmetry(self):
        for p in (3, 4, 5):
            for m in range(1, p):
                for n in range(1, p + 1):
                    a = minimal_model_dim(p, m, n)
                    b = minimal_model_dim(p, p - m, p + 1 - n)
                    assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)

    def test_label_validation(self):
        with pytest.raises(SectorError):
            minimal_model_dim(3, 0, 1)
        with pytest.raises(SectorError):
            minimal_model_dim(3, 1, 4)

    def test_ising_sector_list(self):
        sectors = minimal_model_sectors(3)
        dims = sorted(round(d, 10) for _, d in sectors)
        assert dims == [1.0, 1.0, round(math.sqrt(2), 10)]


class TestChargedDeltas:
    def test_empty(self):
        assert charged_delta_bounds(SectorList(())) == (0.0, 0.0)

    def test_fundamental_charge(self):
        sl = SectorList((Sector("fund", 10.0, 1),))
        er, em = charged_delta_bounds(sl)
        assert abs(er - 2 * math.log(10)) <= 1e-12
        assert abs(em - 2.5 * math.log(10)) <= 1e-12
        assert em >= er

    def test_golden_young_charge(self):
        dim = young_dim(YoungDiagram((6, 4, 1)), 10)
        er, _ = charged_delta_bounds(SectorList((Sector("tensor", float(dim), 1),)))
        assert abs(er - 2 * math.log(5_945_940)) <= 1e-12

    def test_additive_over_concatenation(self):
        s1 = SectorList((Sector("a", 2.0, 1),))
        s2 = SectorList((Sector("b", 3.0, 2),))
        both = SectorList(s1.sectors + s2.sectors)
        er1, em1 = charged_delta_bounds(s1)
        er2, em2 = charged_delta_bounds(s2)
        er, em = charged_delta_bounds(both)
        assert abs(er - er1 - er2) <= 1e-12
        assert abs(em - em1 - em2) <= 1e-12


class TestMuIndex:
    def test_ising_from_minimal_model(self):
        assert abs(minimal_model_mu_index(3) - 4.0) <= 1e-12
