import ast
import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entbound.cli as cli
import entbound.integrable as integrable
import entbound.measures as measures
from entbound import config
from entbound.cli import main, parse_points
from entbound.linalg import (
    LinalgError,
    density_matrix,
    load_state,
    maximally_entangled,
    product_state,
    random_density_matrix,
    save_state,
)


@pytest.fixture
def phi_plus_file(tmp_path):
    path = tmp_path / "phi_plus.json"
    save_state(maximally_entangled(2), path)
    return str(path)


@pytest.fixture
def product_file(tmp_path):
    rho = product_state(random_density_matrix(2, seed=0).matrix,
                        random_density_matrix(2, seed=1).matrix)
    path = tmp_path / "product.json"
    save_state(rho, path)
    return str(path)


class TestParsePoints:
    def test_range(self):
        assert parse_points("8..12..2", integer=True) == [8, 10, 12]

    def test_default_step(self):
        assert parse_points("3..6", integer=True) == [3, 4, 5, 6]

    def test_comma_list(self):
        assert parse_points("0.1,0.01") == [0.1, 0.01]

    @pytest.mark.parametrize("argv", [
        ["integrable", "--mR", "1..inf"],
        ["integrable", "--mR", "nan"],
        ["dirac", "--eps", "1..inf"],
        ["dirac", "--eps", "nan"],
        ["gaussian", "--gap", "8..inf"],
        ["gaussian", "--gap", "8..12..nan"],
        ["integrable", "--mR", "1,-inf"],
    ])
    def test_non_finite_spec_exits_1(self, argv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["0..1..1e-320", "0..1e12", "-1e308..1e308..1e-10",
                                      f"0..{cli.MAX_SWEEP_POINTS}"])
    def test_range_over_the_point_cap_raises(self, spec):
        # counted before any point is built: the first spec's count overflows
        # to inf, the second would hold 10^12 + 1 points
        with pytest.raises(ValueError, match="more than 100000 points"):
            parse_points(spec)

    def test_range_at_the_point_cap(self):
        pts = parse_points(f"1..{cli.MAX_SWEEP_POINTS}", integer=True)
        assert len(pts) == cli.MAX_SWEEP_POINTS and pts[-1] == cli.MAX_SWEEP_POINTS

    def test_extreme_range_exits_1(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(["integrable", "--mR", "0..1..1e-320", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: range '0..1..1e-320' holds more than")
        assert not out.exists()


class TestMeasuresCommand:
    def test_phi_plus_full_report(self, phi_plus_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(["measures", "--state", phi_plus_file, "--out", str(out),
                     "--er-restarts", "3"])
        assert code == 0
        report = json.loads(out.read_text())
        values = {r["measure"]: r["value"] for r in report["results"]}
        assert abs(values["EI"] - 2 * math.log(2)) <= 1e-9
        assert abs(values["ER"] - math.log(2)) <= 5e-3
        assert abs(values["EN"] - math.log(2)) <= 1e-9
        assert abs(values["EM"] - 1.5 * math.log(2)) <= 1e-8
        assert abs(values["EB"] - math.sqrt(2)) <= 1e-4
        assert report["ordering_audit"]["ok"]
        assert Path(str(out) + ".manifest.json").exists()

    def test_modular_bound_on_a_5x5_state(self, tmp_path):
        # total dimension 25: E_M runs past 16 and keeps EN <= EM
        state = tmp_path / "faithful_5x5.json"
        save_state(random_density_matrix(5, 5, rank=25, seed=0), state)
        out = tmp_path / "report.json"
        code = main(["measures", "--state", str(state), "--measures", "EI,EN,EM",
                     "--out", str(out)])
        assert code == 0
        values = {r["measure"]: r["value"] for r in json.loads(out.read_text())["results"]}
        assert math.isfinite(values["EM"])
        assert values["EM"] >= values["EN"] - 1e-8

    def test_product_state_zeros(self, product_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(["measures", "--state", product_file, "--measures", "EI,EN,EB",
                     "--out", str(out)])
        assert code == 0
        values = {r["measure"]: r["value"] for r in json.loads(out.read_text())["results"]}
        assert abs(values["EI"]) <= 5e-3
        assert abs(values["EN"]) <= 5e-3
        assert abs(values["EB"] - 1.0) <= 1e-4

    def test_numpy_scalar_meta_reaches_the_json(self, product_file, tmp_path, monkeypatch):
        # numpy scalars in meta are written as plain JSON values; lists and
        # arrays stay out of the record
        meta = {"count": np.int64(3), "flag": np.bool_(True), "ratio": np.float32(0.5),
                "listed": [1, 2], "array": np.zeros(2)}
        monkeypatch.setattr(measures, "mutual_information",
                            lambda rho: measures.MeasureResult("EI", 0.0, measures.EXACT, meta=meta))
        out = tmp_path / "report.json"
        assert main(["measures", "--state", product_file, "--measures", "EI", "--out", str(out)]) == 0
        text = out.read_text()
        [rec] = json.loads(text)["results"]
        assert rec["count"] == 3 and type(rec["count"]) is int
        assert rec["flag"] is True and '"flag": true' in text
        assert rec["ratio"] == 0.5
        assert "listed" not in rec and "array" not in rec

    @pytest.mark.parametrize("key", ["dimA", "dimB"])
    @pytest.mark.parametrize("dim", [2.9, True, "2"])
    def test_non_integer_dimension_exits_1(self, dim, key, phi_plus_file, tmp_path, capsys):
        state = tmp_path / "state.json"
        record = json.loads(Path(phi_plus_file).read_text())
        state.write_text(json.dumps(dict(record, **{key: dim})))
        out = tmp_path / "report.json"
        assert main(["measures", "--state", str(state), "--measures", "EI",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key} must be a JSON integer")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["re", "im"])
    @pytest.mark.parametrize("entry", ["0.5", False, True, None])
    def test_non_number_entry_exits_1(self, entry, key, phi_plus_file, tmp_path, capsys):
        # a float conversion would parse "0.5", take a bool as 0 or 1 and
        # null as nan; none of them is a JSON number
        state = tmp_path / "state.json"
        record = json.loads(Path(phi_plus_file).read_text())
        record[key][1][2] = entry
        state.write_text(json.dumps(record))
        out = tmp_path / "report.json"
        assert main(["measures", "--state", str(state), "--measures", "EI",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: re/im entries must be JSON numbers")
        assert not out.exists()

    def test_malformed_state_nonzero_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "report.json"
        code = main(["measures", "--state", str(bad), "--out", str(out)])
        assert code != 0
        assert not out.exists()


class TestSweepCommands:
    def test_gaussian_monotone_csv(self, tmp_path):
        out = tmp_path / "decay.csv"
        code = main(["gaussian", "--sites", "64", "--spacing", "0.25", "--mass", "1.0",
                     "--regionA", "4..11", "--gap", "8..16..4", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "gap_sites,r,upper_bound,lower_bound,error"
        uppers = [float(l.split(",")[2]) for l in lines[1:]]
        assert all(u1 > u2 for u1, u2 in zip(uppers, uppers[1:]))

    def test_gaussian_sweep_builds_region_a_once(self, tmp_path, monkeypatch):
        # region A (8 sites) stays in place, so its bases are built once per
        # sweep; each row builds the complement of its B, 12 + gap sites
        from entbound import gaussian

        calls = []
        build = gaussian.region_projectors

        def counted(state, indices):
            calls.append(len(indices))
            return build(state, indices)

        monkeypatch.setattr(gaussian, "region_projectors", counted)
        code = main(["gaussian", "--sites", "64", "--spacing", "0.25", "--mass", "1.0",
                     "--regionA", "4..11", "--gap", "8..16..4", "--out", str(tmp_path / "d.csv")])
        assert code == 0
        assert calls[0] == 8 and sorted(calls[1:]) == [20, 24, 28]

    def test_integrable_sweep_with_divergent_rows(self, tmp_path):
        out = tmp_path / "bound.csv"
        code = main(["integrable", "--g", "0.5", "--mR", "1,20,30",
                     "--kappa", "0.3", "--delta", "0.1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[1] == "0"  # diverged
        assert "diverges" in first[-1]
        ok_rows = [l for l in lines[2:]]
        assert all(l.split(",")[1] == "1" for l in ok_rows)

    def test_all_rows_failing_exit_2(self, tmp_path):
        out = tmp_path / "bound.csv"
        code = main(["integrable", "--g", "0.5", "--mR", "0.5,1.0",
                     "--kappa", "0.3", "--delta", "0.1", "--out", str(out)])
        assert code == 2
        assert out.exists()

    def test_kappa_past_the_pole_names_it(self, tmp_path):
        # g = 0.3 puts the only pole at b = 0.2594 < kappa = 0.3
        out = tmp_path / "bound.csv"
        code = main(["integrable", "--g", "0.3", "--mR", "10,20",
                     "--kappa", "0.3", "--delta", "0.1", "--out", str(out)])
        assert code == 2
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 2
        assert all("kappa=0.3 reaches the first pole b=0.259" in r for r in rows)

    @pytest.mark.parametrize("argv, match", [
        (["dirac", "--m", "1", "--eps", "0.1", "--circle-radius", "nan"], "radius"),
        (["dirac", "--m", "inf", "--eps", "0.1"], "mass m"),
        (["dirac", "--m", "nan", "--eps", "0.1"], "mass m"),
        (["integrable", "--kappa", "nan", "--mR", "10"], "kappa"),
    ], ids=["circle-radius-nan", "m-inf", "m-nan", "kappa-nan"])
    def test_non_finite_input_is_a_row_error(self, argv, match, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(argv + ["--out", str(out)]) == 2
        (row,) = out.read_text().strip().splitlines()[1:]
        assert f"{match} must be" in row and "finite" in row


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, tmp_path, phi_plus_file):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = ["gaussian", "--sites", "48", "--spacing", "0.25", "--regionA", "4..9",
                "--gap", "6..12..3", "--trials", "32", "--seed", "7"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_manifest_replay_identical(self, tmp_path):
        out1 = tmp_path / "a.csv"
        argv = ["dirac", "--m", "1.0", "--eps", "0.1,0.05", "--out", str(out1)]
        assert main(argv) == 0
        out2 = tmp_path / "b.csv"
        code = main(["replay", str(out1) + ".manifest.json", "--out", str(out2)])
        assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_dirac_corridor_same_bytes_in_process_threaded_and_fresh(self, tmp_path,
                                                                     monkeypatch):
        # the second in-process call of each command reuses the first one's
        # cached quadrature rules, gap table and strip norms from two worker
        # threads; (argv, data rows) per command
        commands = (
            (["dirac", "--m", "1", "--eps", "0.2,0.1", "--circle-radius", "1"], 2),
            (["gaussian", "--sites", "48", "--spacing", "0.25", "--regionA", "4..9",
              "--gap", "6..12..3", "--trials", "32", "--seed", "7"], 3),
            (["integrable", "--model", "sinh-gordon", "--g", "0.5", "--mR", "0.5..40..0.5",
              "--kappa", "0.3", "--delta", "0.1"], 80),
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        env.pop("ENTBOUND_THREADS", None)
        for argv, rows in commands:
            outs = []
            for threads in ("1", "2"):
                monkeypatch.setenv("ENTBOUND_THREADS", threads)
                out = tmp_path / f"{argv[0]}-threads{threads}.csv"
                assert main(argv + ["--out", str(out)]) == 0
                outs.append(out.read_bytes())
            monkeypatch.delenv("ENTBOUND_THREADS")
            fresh = subprocess.run([sys.executable, "-m", "entbound.cli"] + argv,
                                   env=env, capture_output=True, check=True)
            outs.append(fresh.stdout)
            assert outs[0].count(b"\n") == rows + 1, argv[0]
            assert outs[1:] == [outs[0]] * 2, argv[0]

    def test_measures_same_bytes_in_process_and_fresh(self, tmp_path):
        _assert_measures_same_bytes(random_density_matrix(2, 2, seed=4), tmp_path)

    def test_measures_same_bytes_where_the_restarts_set_er(self, tmp_path):
        # on this 3x3 state a random restart, not the Schmidt-channel start,
        # gives E_R at --er-restarts 3
        _assert_measures_same_bytes(random_density_matrix(3, 3, seed=0), tmp_path)

    def test_measures_seeded_values_reproduce(self, tmp_path, phi_plus_file):
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            main(["measures", "--state", phi_plus_file, "--measures", "ER,EB",
                  "--seed", "3", "--er-restarts", "2", "--out", str(out)])
            outs.append(json.loads(out.read_text()))
        assert outs[0] == outs[1]


def _assert_measures_same_bytes(rho, tmp_path):
    state = tmp_path / "rho.json"
    save_state(rho, state)
    argv = ["measures", "--state", str(state), "--er-restarts", "3"]
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0
        outs.append(out.read_bytes())
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    env.pop("ENTBOUND_THREADS", None)
    fresh = subprocess.run([sys.executable, "-m", "entbound.cli"] + argv,
                           env=env, capture_output=True, check=True)
    outs.append(fresh.stdout)
    assert b'"stop":' in outs[0]
    assert outs[1:] == [outs[0]] * 2


def _modules_after(code: str) -> set[str]:
    """Names in sys.modules after a fresh interpreter runs ``code``."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    env.pop("ENTBOUND_THREADS", None)
    script = code + "\nimport sys; print(' '.join(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return set(done.stdout.split())


def _modules_after_cli(argv: list[str]) -> set[str]:
    return _modules_after("import io, contextlib\nfrom entbound.cli import main\n"
                          "with contextlib.redirect_stdout(io.StringIO()):\n"
                          f"    assert main({argv!r}) == 0")


class TestImportCost:
    """Each subcommand loads only the modules it runs, in a fresh process."""

    def test_cli_import_loads_no_numpy(self):
        loaded = _modules_after("import entbound.cli")
        assert not loaded & {"numpy", "dataclasses", "inspect", "hashlib", "_hashlib", "datetime"}
        assert {"entbound.cli", "entbound.config"} <= loaded

    def test_measures_manifest_digests_its_state_file(self, phi_plus_file, tmp_path):
        import datetime
        import hashlib

        out = tmp_path / "report.json"
        assert main(["measures", "--state", phi_plus_file, "--measures", "EI",
                     "--out", str(out)]) == 0
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        digest = hashlib.sha256(Path(phi_plus_file).read_bytes()).hexdigest()
        assert manifest["inputs"] == {phi_plus_file: digest}
        stamp = datetime.datetime.fromisoformat(manifest["timestamp"])
        assert stamp.utcoffset() == datetime.timedelta(0)

    # the sweeps below write a manifest, but only a manifest that digests an
    # input file imports hashlib (and maps OpenSSL's libcrypto)

    def test_integrable_sweep_runs_without_numpy(self, tmp_path):
        loaded = _modules_after_cli(["integrable", "--model", "custom", "--poles", "0.6,1.0,1.4",
                                     "--mR", "3..8..0.5", "--out", str(tmp_path / "sweep.csv")])
        assert (tmp_path / "sweep.csv.manifest.json").exists()
        assert "entbound.integrable" in loaded
        assert not loaded & {"numpy", "dataclasses", "hashlib"}

    def test_dirac_skips_the_density_matrix_stack(self, tmp_path):
        loaded = _modules_after_cli(["dirac", "--eps", "0.2", "--out", str(tmp_path / "d.csv")])
        assert (tmp_path / "d.csv.manifest.json").exists()
        assert "entbound.integrable" in loaded
        assert not loaded & {"entbound.measures", "entbound.modular", "entbound.linalg",
                             "_hashlib"}

    def test_gaussian_skips_the_measures(self, tmp_path):
        loaded = _modules_after_cli(["gaussian", "--sites", "32", "--regionA", "4..7",
                                     "--gap", "4", "--trials", "1", "--out", str(tmp_path / "g.csv")])
        assert (tmp_path / "g.csv.manifest.json").exists()
        assert {"entbound.gaussian", "entbound.bounds"} <= loaded
        assert not loaded & {"entbound.measures", "entbound.modular", "_hashlib"}

    def test_measures_skips_the_field_theory_modules(self, phi_plus_file):
        loaded = _modules_after_cli(["measures", "--state", phi_plus_file, "--measures", "EI,EN"])
        assert "entbound.measures" in loaded
        assert not loaded & {"entbound.gaussian", "entbound.integrable", "entbound.cft",
                             "entbound.sectors", "entbound.bounds"}

    # the random starts of E_R, E_B and the correlator bound come from the
    # standard library, so no measures path loads numpy.random
    @pytest.mark.parametrize("argv", [
        ["measures", "--er-restarts", "3"],
        ["measures", "--measures", "EI,EN,EM,EB"],
        ["lower"],
    ], ids=["audit", "nuclear", "lower"])
    def test_measures_paths_leave_numpy_random_unloaded(self, argv, phi_plus_file, tmp_path):
        out = tmp_path / "out.json"
        loaded = _modules_after_cli(argv + ["--state", phi_plus_file, "--out", str(out)])
        assert out.exists() and "entbound.measures" in loaded
        assert "numpy.random" not in loaded

    def test_dirac_and_measures_leave_scipy_unloaded(self, tmp_path, phi_plus_file):
        # scipy is imported inside the few functions that use it, so neither
        # command pays for it at start-up
        script = (
            "import sys\n"
            "import entbound.cli\n"
            "argvs = [\n"
            "    ['dirac', '--m', '1', '--eps', '0.1', '--out', sys.argv[1]],\n"
            "    ['measures', '--state', sys.argv[2], '--measures', 'EI,EN,EM,EB',\n"
            "     '--out', sys.argv[3]],\n"
            "]\n"
            "for argv in argvs:\n"
            "    assert entbound.cli.main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        fresh = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "dirac.csv"), phi_plus_file,
             str(tmp_path / "measures.json")],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        assert fresh.stdout.strip() == "[]"
        assert (tmp_path / "dirac.csv").exists() and (tmp_path / "measures.json").exists()

    def test_integrable_sweep_leaves_scipy_optimize_unloaded(self, tmp_path):
        # the strip norm is a closed-form product and K0 a trapezoid sum, so
        # the sweep imports no solver (nor any other part of scipy)
        script = (
            "import sys\n"
            "import entbound.cli\n"
            "argv = ['integrable', '--model', 'custom', '--poles', '0.6,1.0,1.4',\n"
            "        '--mR', '3..12..0.5', '--kappa', '0.3', '--out', sys.argv[1]]\n"
            "assert entbound.cli.main(argv) == 0\n"
            "print('scipy.optimize' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        fresh = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "integrable.csv")],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        assert fresh.stdout.strip() == "False"
        assert "log_bound" in (tmp_path / "integrable.csv").read_text()

    def test_lattice_commands_leave_scipy_unloaded(self, tmp_path):
        # the gap function is a vectorized bisection and K0 a trapezoid sum,
        # so the gaussian sweep with Weyl trials and both integrable sweeps
        # run without scipy
        script = (
            "import sys\n"
            "import entbound.cli\n"
            "out = sys.argv[1]\n"
            "argvs = [\n"
            "    ['gaussian', '--sites', '256', '--mass', '0.8', '--spacing', '0.25',\n"
            "     '--regionA', '24..39', '--gap', '6..22..2', '--trials', '48', '--seed', '1',\n"
            "     '--out', out + '/gaussian.csv'],\n"
            "    ['integrable', '--model', 'sinh-gordon', '--g', '0.5', '--mR', '0.5..40..0.5',\n"
            "     '--kappa', '0.3', '--delta', '0.1', '--out', out + '/sinh-gordon.csv'],\n"
            "    ['integrable', '--model', 'custom', '--poles', '0.6,1.0,1.4', '--mR', '3..40..0.5',\n"
            "     '--kappa', '0.3', '--delta', '0.1', '--out', out + '/custom.csv'],\n"
            "]\n"
            "for argv in argvs:\n"
            "    assert entbound.cli.main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        fresh = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                               env=env, capture_output=True, text=True, timeout=120, check=True)
        assert fresh.stdout.strip() == "[]"
        lower = [float(line.split(",")[3])
                 for line in (tmp_path / "gaussian.csv").read_text().splitlines()[1:]]
        assert len(lower) == 9 and min(lower) > 0.0
        for name in ("sinh-gordon.csv", "custom.csv"):
            assert "log_bound" in (tmp_path / name).read_text()


class TestOtherCommands:
    def test_cft_free_scalar(self, tmp_path, capsys):
        code = main(["cft", "--spectrum", "free-scalar-4d", "--ratio", "0.5"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["bound"] > 0

    def test_cft_diamonds(self, tmp_path):
        cfg = {
            "x_a_plus": [1.0, 0, 0, 0], "x_a_minus": [-1.0, 0, 0, 0],
            "x_b_plus": [2.0, 0, 0, 0], "x_b_minus": [-2.0, 0, 0, 0],
        }
        path = tmp_path / "diamonds.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "cft.json"
        code = main(["cft", "--diamonds", str(path), "--out", str(out)])
        assert code == 0
        rec = json.loads(out.read_text())
        assert abs(rec["u"] - 64.0) <= 1e-9
        assert abs(rec["tau"] - math.log(2)) <= 1e-9

    def test_sectors_young(self, capsys):
        code = main(["sectors", "--young", "6,4,1", "--N", "10"])
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["dim"] == 5945940

    def test_sectors_minimal_model(self, capsys):
        code = main(["sectors", "--minimal-model", "3,1,2"])
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert abs(rec["dim"] - math.sqrt(2)) <= 1e-12

    def test_lower_s_of(self, capsys):
        code = main(["lower", "--s-of", "0.3"])
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["s"] > 2 * 0.3**2

    def test_lower_area(self, capsys):
        code = main(["lower", "--area", "1", "--eps", str(3.0**-10), "--d2", "0.5"])
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["pair_count"] == 9

    def test_lower_area_rejects_a_nan_width(self, capsys):
        assert main(["lower", "--area", "2", "--eps", "nan"]) == 1
        assert capsys.readouterr().err == "error: eps must be positive and finite, got nan\n"

    def test_chiral_spectrum_file(self, tmp_path):
        spec = tmp_path / "spec.csv"
        spec.write_text("l0,degeneracy\n0,1\n1,2\n")
        out = tmp_path / "chiral.json"
        code = main(["cft", "--chiral=-1,0,5,6", "--spectrum-file", str(spec),
                     "--out", str(out)])
        assert code == 0
        rec = json.loads(out.read_text())
        assert rec["xi"] > 0 and rec["bound"] > 0

    @pytest.mark.parametrize("last", ["4x", "inf"])
    def test_malformed_spectrum_row_is_an_error(self, last, tmp_path, capsys):
        # only the first line may be a header; a later bad row must not be
        # skipped, which would bound a truncated spectrum
        spec = tmp_path / "spec.csv"
        spec.write_text(f"0,0,0,1\n1.0,0,0,1\n2.0,0,0,{last}\n")
        assert main(["cft", "--spectrum-file", str(spec), "--ratio", "0.01"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {spec}, line 3: ")

    @pytest.mark.parametrize("rows, option, bad", [
        ("0,0,0,1\n1.0,0,0,1.7\n", "--ratio=0.001", "'1.7'"),
        ("0,1\n1,2.5\n", "--chiral=-1,0,5,6", "'2.5'"),
    ])
    def test_fractional_multiplicity_is_an_error(self, rows, option, bad, tmp_path, capsys):
        # int() would truncate it and bound a different spectrum
        spec = tmp_path / "spec.csv"
        spec.write_text(rows)
        assert main(["cft", option, "--spectrum-file", str(spec)]) == 1
        assert capsys.readouterr().err == (
            f"error: {spec}, line 2: multiplicity {bad} is not an integer\n")

    def test_spectrum_header_is_skipped(self, tmp_path, capsys):
        spec = tmp_path / "spec.csv"
        spec.write_text("delta,sL,sR,mult\n\n0,0,0,1\n1.0,0,0,1\n")
        assert main(["cft", "--spectrum-file", str(spec), "--ratio", "0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["bound"] > 0

    def test_thread_env_preserves_order(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ENTBOUND_THREADS", "4")
        out1 = tmp_path / "p.csv"
        argv = ["dirac", "--m", "1.0", "--eps", "0.1,0.05,0.025", "--out", str(out1)]
        assert main(argv) == 0
        monkeypatch.setenv("ENTBOUND_THREADS", "1")
        out2 = tmp_path / "s.csv"
        assert main(["dirac", "--m", "1.0", "--eps", "0.1,0.05,0.025", "--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()


class TestToleranceScope:
    def test_profile_applies_to_one_call_only(self, tmp_path, capsys):
        # trace off by 2e-9: inside STRICT's 1e-10, outside LATTICE's 1e-8
        m = np.diag([0.4 + 2e-9, 0.3, 0.2, 0.1])
        path = tmp_path / "off_trace.json"
        path.write_text(json.dumps({"dimA": 2, "dimB": 2, "re": m.tolist(),
                                    "im": np.zeros((4, 4)).tolist()}))
        argv = ["lower", "--state", str(path)]
        assert main(["--tol-profile", "lattice"] + argv) == 0
        assert main(argv) == 1
        assert main(["--tol-profile", "lattice"] + argv) == 0
        assert "trace is" in capsys.readouterr().err
        with pytest.raises(LinalgError):
            density_matrix(np.diag([0.5 + 5e-9, 0.5]), 2)
        assert config.current() is config.STRICT

    def test_worker_threads_see_the_callers_profile(self, tmp_path, monkeypatch):
        seen = []
        real = integrable.vacuum_bound

        def recording(*args, **kwargs):
            seen.append(config.current())
            return real(*args, **kwargs)

        monkeypatch.setattr(integrable, "vacuum_bound", recording)
        argv = ["--tol-profile", "lattice", "integrable", "--g", "0.5",
                "--mR", "10,15,20,25,30,35"]
        outs = []
        for threads in ("4", "1"):
            monkeypatch.setenv("ENTBOUND_THREADS", threads)
            out = tmp_path / f"threads{threads}.csv"
            assert main(argv + ["--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert seen == [config.LATTICE] * 12
        assert outs[0] == outs[1]

    def test_mutual_information_of_a_lattice_state(self, tmp_path):
        # trace off by 5e-9 loads under LATTICE; the marginal product must too
        m = np.diag([0.4 + 5e-9, 0.3, 0.2, 0.1])
        path = tmp_path / "off_trace.json"
        path.write_text(json.dumps({"dimA": 2, "dimB": 2, "re": m.tolist(),
                                    "im": np.zeros((4, 4)).tolist()}))
        out = tmp_path / "ei.json"
        assert main(["--tol-profile", "lattice", "measures", "--state", str(path),
                     "--measures", "EI", "--out", str(out)]) == 0
        rec = json.loads(out.read_text())["results"][0]
        assert abs(rec["value"] - rec["via_relative_entropy"]) <= 1e-9


# each measure name and the measures function that evaluates it
MEASURE_FUNCTIONS = {
    "EI": "mutual_information",
    "ER": "relative_entanglement_entropy_upper",
    "EN": "log_dominance_upper",
    "EM": "modular_nuclearity_upper",
    "EB": "bell_correlation",
}


class TestMeasuresEvaluatedOnce:
    @pytest.mark.parametrize("names", ["EI,EN,EM,EB", None], ids=["nuclear", "default"])
    def test_each_measure_runs_once(self, names, phi_plus_file, tmp_path, monkeypatch):
        calls = dict.fromkeys(("ordering_audit", *MEASURE_FUNCTIONS.values()), 0)
        for name in calls:
            real = getattr(measures, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(measures, name, counting)
        out = tmp_path / "report.json"
        argv = ["measures", "--state", phi_plus_file, "--er-restarts", "2", "--seed", "1",
                "--out", str(out)]
        assert main(argv + (["--measures", names] if names else [])) == 0
        wanted = (names or "EI,ER,EN,EM,EB").split(",")
        assert calls == {"ordering_audit": 1, **{
            fn: int(m in wanted) for m, fn in MEASURE_FUNCTIONS.items()}}
        monkeypatch.undo()
        rho = load_state(phi_plus_file)
        direct = {
            "EI": measures.mutual_information(rho),
            "ER": measures.relative_entanglement_entropy_upper(rho, restarts=2, seed=1),
            "EN": measures.log_dominance_upper(rho),
            "EM": measures.modular_nuclearity_upper(rho),
            "EB": measures.bell_correlation(rho, seed=1),
        }
        report = json.loads(out.read_text())
        assert [(r["measure"], r["value"]) for r in report["results"]] == [
            (m, direct[m].value) for m in wanted]
        assert ("ordering_audit" in report) == (names is None)
        if names is None:
            assert report["ordering_audit"]["values"]["ER_upper"] == direct["ER"].value

    def test_cmd_measures_calls_only_ordering_audit(self):
        # every measure runs through ordering_audit's one loop, so no other
        # code in the CLI (a name table, a second branch) reaches a measure
        own = {name for name, obj in vars(measures).items()
               if inspect.isfunction(obj) and obj.__module__ == measures.__name__}
        called: dict = {}
        for top in ast.parse(Path(cli.__file__).read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                fn = node.func
                if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name) \
                        and fn.value.id == "measures":
                    fn = ast.Name(fn.attr)
                if isinstance(fn, ast.Name) and fn.id in own:
                    called.setdefault(getattr(top, "name", type(top).__name__), set()).add(fn.id)
        assert called == {"cmd_measures": {"ordering_audit"},
                          "cmd_lower": {"mutual_info_correlator_bound"}}

    def test_audit_without_eb_skips_the_bell_seesaw(self, phi_plus_file, tmp_path, monkeypatch):
        calls = []
        real = measures.bell_correlation
        monkeypatch.setattr(measures, "bell_correlation",
                            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
        out = tmp_path / "report.json"
        assert main(["measures", "--state", phi_plus_file, "--measures", "EI,ER,EN,EM",
                     "--er-restarts", "2", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert calls == []
        assert [r["measure"] for r in report["results"]] == ["EI", "ER", "EN", "EM"]
        assert not any(k.startswith("EB") for k in report["ordering_audit"]["values"])


class TestErrorExit:
    @pytest.mark.parametrize("restarts", ["0", "-3"])
    def test_er_without_a_restart_exits_1(self, restarts, phi_plus_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["measures", "--state", phi_plus_file, "--measures", "ER",
                     "--er-restarts", restarts, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_negative_seed_exits_1(self, phi_plus_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["measures", "--state", phi_plus_file, "--seed", "-1",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: seed must be a non-negative integer")
        assert not out.exists()
        assert not Path(str(out) + ".manifest.json").exists()

    @pytest.mark.parametrize("argv", [
        ["gaussian", "--sites", "3", "--regionA", "0..1", "--gap", "1"],
        ["integrable", "--model", "custom", "--poles", "abc"],
        ["measures", "--state", "missing.json"],
    ])
    def test_whole_command_failure_exits_1_without_output(self, argv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()
        assert not Path(str(out) + ".manifest.json").exists()

    @pytest.mark.parametrize("option, match", [
        (["--mass", "nan"], "positive and finite"),
        (["--spacing", "inf"], "positive and finite"),
        (["--regionA=-3..2"], "--regionA -3..2 must be a range within sites 0..63"),
        (["--regionA", "60..64"], "must be a range within sites 0..63"),
        (["--regionA", "9..4"], "must be a range within sites 0..63"),
        (["--trials", "1", "--mass", "1e200"], "mass 1e+200 is too large: mass**2 overflows"),
        (["--trials", "1", "--spacing", "1e-160"], "spacing 1e-160 is too small for mass 1.0"),
        (["--gap", "2..4..0.75"], "sweep spec '2..4..0.75' holds 2.75, which is not an integer"),
        (["--regionA", "4..9..2"], "--regionA 4..9..2 must have the form lo..hi"),
    ])
    def test_bad_gaussian_input_exits_1(self, option, match, tmp_path, capsys):
        out = tmp_path / "out.csv"
        argv = ["gaussian", "--sites", "64", "--regionA", "4..9", "--gap", "2..4"]
        assert main(argv + option + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and match in err
        assert not out.exists()

    @pytest.mark.parametrize("p", ["-4", "0", "1", "2"])
    def test_mu_index_below_3_exits_1(self, p, capsys):
        assert main(["sectors", f"--mu-index={p}"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "need p >= 3" in captured.err
        assert captured.out == ""

    def test_unknown_measure_rejected_before_computing(self, phi_plus_file, tmp_path,
                                                       monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("a measure was evaluated")

        monkeypatch.setattr(measures, "mutual_information", fail)
        out = tmp_path / "report.json"
        assert main(["measures", "--state", phi_plus_file, "--measures", "EI,XX",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: unknown measure 'XX'\n"
        assert not out.exists()


class TestPackageSurface:
    def test_every_public_name_is_its_modules_object(self):
        import importlib

        import entbound

        for name in entbound.__all__:
            module = importlib.import_module(f"entbound.{entbound._SOURCES[name]}")
            assert getattr(entbound, name) is getattr(module, name), name
        assert set(entbound.__all__) <= set(dir(entbound))

    def test_star_import(self):
        namespace: dict = {}
        exec("from entbound import *", namespace)
        import entbound

        assert {k for k in namespace if not k.startswith("__")} == set(entbound.__all__)
        assert namespace["mutual_information"] is measures.mutual_information

    def test_unknown_attribute(self):
        import entbound

        with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
            entbound.not_a_name


def _module_level_imports(tree: ast.Module):
    """``from ... import`` statements outside every function and class body."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.ImportFrom):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


class TestTracedNamesImportedByModule:
    """The benchmark tracer rebinds each traced function in the entbound
    modules loaded before its own imports; a domain module that binds one by
    name at import time keeps the unwrapped function, and its calls go
    unrecorded.  Such modules must call through the defining module."""

    def test_no_module_imports_a_traced_function_by_name(self):
        root = Path(cli.__file__).resolve().parents[2]
        tracer = ast.parse((root / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
        targets = next(node.value for node in tracer.body if isinstance(node, ast.Assign)
                       and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"])
        traced = {(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts}
        assert ("entbound.bounds", "gap_s") in traced
        bad = []
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            for node in _module_level_imports(ast.parse(path.read_text(encoding="utf-8"))):
                source = ".".join(filter(None, ["entbound" if node.level else "", node.module]))
                bad += [f"{path.name}:{node.lineno} {a.name}" for a in node.names
                        if (source, a.name) in traced]
        assert not bad


class TestNoPrivateNamesImportedAcrossModules:
    """A module uses another entbound module's public names only, in its
    functions too, so each private helper has one module that owns it."""

    def test_no_module_imports_a_private_name(self):
        bad = []
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and (
                        node.level or (node.module or "").split(".")[0] == "entbound"):
                    bad += [f"{path.name}:{node.lineno} {a.name}" for a in node.names
                            if a.name.startswith("_") and not _is_dunder(a.name)]
        assert not bad


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreached_definitions(package: Path, roots) -> list[str]:
    """Keys ``module.name`` and ``module.Class.method`` of the definitions in
    ``package`` that no root reaches.

    Module-level statements and module dunders are reached.  A reached body
    reaches the top-level definitions of its own module that it names, the
    definitions that its relative imports name, and every top-level
    definition or method whose name it accesses as an attribute; string
    constants reach nothing.  A reached class reaches its bases, decorators,
    field statements and dunder methods; a method is reported only when its
    class is reached.
    """
    defs, by_name, todo = {}, {}, []
    for path in sorted(package.glob("*.py")):
        mod = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
                todo.append((mod, node))
                continue
            key = f"{mod}.{node.name}"
            members = node.body if isinstance(node, ast.ClassDef) else []
            for k, sub in [(key, node), *((f"{key}.{m.name}", m) for m in members
                                          if isinstance(m, _FUNCTIONS))]:
                defs[k] = (mod, sub)
                by_name.setdefault(sub.name, []).append(k)
    reached = set()

    def reach(key):
        if key not in defs or key in reached:
            return
        reached.add(key)
        mod, node = defs[key]
        if not isinstance(node, ast.ClassDef):
            todo.append((mod, node))
            return
        todo.extend((mod, part) for part in (
            *node.decorator_list, *node.bases, *node.keywords,
            *(s for s in node.body if not isinstance(s, _FUNCTIONS))))
        for s in node.body:
            if isinstance(s, _FUNCTIONS) and _is_dunder(s.name):
                reach(f"{key}.{s.name}")

    for key in [*roots, *(k for k in defs if k.count(".") == 1 and _is_dunder(k.split(".")[1]))]:
        reach(key)
    while todo:
        mod, node = todo.pop()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                reach(f"{mod}.{sub.id}")
            elif isinstance(sub, ast.Attribute):
                for key in by_name.get(sub.attr, ()):
                    reach(key)
            elif isinstance(sub, ast.ImportFrom) and sub.level and sub.module:
                for alias in sub.names:
                    reach(f"{sub.module}.{alias.name}")
    return sorted(k for k in defs if k not in reached
                  and (k.count(".") == 1 or k.rsplit(".", 1)[0] in reached))


# public helpers that no CLI path runs but README names
REACHABILITY_ALLOW = ("measures.verify_certificate",)


def reachability_roots() -> list[str]:
    """The console script, ``entbound.__all__`` with the members of its
    classes, and ``REACHABILITY_ALLOW``."""
    import entbound

    roots = ["cli.main", *REACHABILITY_ALLOW]
    for name in entbound.__all__:
        obj = getattr(entbound, name)
        key = f"{obj.__module__.removeprefix('entbound.')}.{name}"
        roots.append(key)
        if isinstance(obj, type):
            roots += [f"{key}.{member}" for member in vars(obj)]
    return roots


class TestReachability:
    """Every function, class and method in ``src/entbound`` is reached from
    the ``entbound`` command or the public API; code that only tests run
    belongs in ``tests/oracles.py``."""

    def test_roots_name_the_console_script(self):
        root = Path(cli.__file__).resolve().parents[2]
        assert 'entbound = "entbound.cli:main"' in (root / "pyproject.toml").read_text()

    def test_every_definition_is_reached(self):
        package = Path(cli.__file__).resolve().parent
        assert unreached_definitions(package, reachability_roots()) == []

    def test_an_unreferenced_helper_in_any_module_is_flagged(self, tmp_path):
        package = Path(cli.__file__).resolve().parent
        helpers = []
        for path in sorted(package.glob("*.py")):
            name = f"_unreferenced_{path.stem.strip('_')}"
            helpers.append(f"{path.stem}.{name}")
            # a string naming the helper does not reach it
            text = path.read_text(encoding="utf-8") + f"\n\n_NAME = {name!r}\n\n\ndef {name}():\n    return _NAME\n"
            (tmp_path / path.name).write_text(text, encoding="utf-8")
        assert len(helpers) == 11
        assert unreached_definitions(tmp_path, reachability_roots()) == sorted(helpers)


def _resolve(dotted: str):
    """The object a dotted name such as ``entbound.linalg.trace_norm`` names."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for part in parts[i:]:
            obj = getattr(obj, part)
        return obj
    raise ImportError(dotted)


class TestReadmeNames:
    """README's inline code names only what exists: each dotted name that
    starts with ``entbound.`` or a module name resolves, and each call form
    in a module-table row matches that module's signature."""

    @staticmethod
    def _readme():
        root = Path(cli.__file__).resolve().parents[2]
        text = (root / "README.md").read_text(encoding="utf-8")
        return re.sub(r"```.*?```", "", text, flags=re.S)

    def test_dotted_names_resolve(self):
        modules = {p.stem for p in Path(cli.__file__).parent.glob("*.py")} - {"__init__"}
        checked, missing = 0, []
        for span in re.findall(r"`([^`\n]+)`", self._readme()):
            name = span.removesuffix("()")
            if not re.fullmatch(r"\w+(\.\w+)+", name) or name.split(".")[0] not in (
                    modules | {"entbound"}):
                continue
            dotted = name if name.startswith("entbound.") else f"entbound.{name}"
            checked += 1
            try:
                _resolve(dotted)
            except (ImportError, AttributeError):
                missing.append(span)
        assert checked >= 12
        assert missing == []

    def test_module_table_call_forms_match_signatures(self):
        checked, wrong = 0, []
        for row in re.findall(r"^\| `(entbound\.\w+)` \|(.*)$", self._readme(), flags=re.M):
            module = importlib.import_module(row[0])
            for name, args in re.findall(r"`(\w+)\(([^`]*)\)`", row[1]):
                checked += 1
                written = [a.strip() for a in args.split(",") if a.strip()]
                fn = getattr(module, name, None)
                if fn is None:
                    wrong.append(f"{row[0]}.{name}: missing")
                    continue
                actual = [p.name if p.default is inspect.Parameter.empty
                          else f"{p.name}={p.default!r}"
                          for p in inspect.signature(fn).parameters.values()]
                if written != actual:
                    wrong.append(f"{row[0]}.{name}({', '.join(actual)})")
        assert checked >= 4
        assert wrong == []
