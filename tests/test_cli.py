import json
import math
import os
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

    def test_sweep_alias(self, tmp_path):
        out = tmp_path / "alias.csv"
        code = main(["sweep", "dirac", "--m", "1.0", "--eps", "0.1,0.05",
                     "--out", str(out)])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 3


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
        state = tmp_path / "rho.json"
        save_state(random_density_matrix(2, 2, seed=4), state)
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

    def test_measures_seeded_values_reproduce(self, tmp_path, phi_plus_file):
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            main(["measures", "--state", phi_plus_file, "--measures", "ER,EB",
                  "--seed", "3", "--er-restarts", "2", "--out", str(out)])
            outs.append(json.loads(out.read_text()))
        assert outs[0] == outs[1]


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
        assert "numpy" not in loaded
        assert {"entbound.cli", "entbound.config"} <= loaded

    def test_integrable_sweep_runs_without_numpy(self):
        loaded = _modules_after_cli(["integrable", "--model", "custom", "--poles", "0.6,1.0,1.4",
                                     "--mR", "3..8..0.5"])
        assert "entbound.integrable" in loaded
        assert "numpy" not in loaded

    def test_dirac_skips_the_density_matrix_stack(self):
        loaded = _modules_after_cli(["dirac", "--eps", "0.2"])
        assert "entbound.integrable" in loaded
        assert not loaded & {"entbound.measures", "entbound.modular", "entbound.linalg"}

    def test_gaussian_skips_the_measures(self):
        loaded = _modules_after_cli(["gaussian", "--sites", "32", "--regionA", "4..7",
                                     "--gap", "4", "--trials", "1"])
        assert {"entbound.gaussian", "entbound.bounds"} <= loaded
        assert not loaded & {"entbound.measures", "entbound.modular"}

    def test_measures_skips_the_field_theory_modules(self, phi_plus_file):
        loaded = _modules_after_cli(["measures", "--state", phi_plus_file, "--measures", "EI,EN"])
        assert "entbound.measures" in loaded
        assert not loaded & {"entbound.gaussian", "entbound.integrable", "entbound.cft",
                             "entbound.sectors", "entbound.bounds"}

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
        argv = ["lower", "--state", str(path), "--trials", "4"]
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

    def test_sweep_alias_keeps_the_profile(self, tmp_path, monkeypatch):
        seen = []
        real = integrable.vacuum_bound

        def recording(*args, **kwargs):
            seen.append(config.current() is config.LATTICE)
            return real(*args, **kwargs)

        monkeypatch.setattr(integrable, "vacuum_bound", recording)
        out = tmp_path / "alias.csv"
        assert main(["--tol-profile", "lattice", "sweep", "integrable", "--g", "0.5",
                     "--mR", "10,15,20", "--out", str(out)]) == 0
        assert seen == [True] * 3
        assert config.current() is config.STRICT

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


class TestMeasuresEvaluatedOnce:
    def test_full_report_evaluates_each_measure_once(self, phi_plus_file, tmp_path, monkeypatch):
        calls = {}
        for name in ("relative_entanglement_entropy_upper", "bell_correlation"):
            real = getattr(measures, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(measures, name, counting)
        out = tmp_path / "report.json"
        assert main(["measures", "--state", phi_plus_file, "--er-restarts", "2",
                     "--seed", "1", "--out", str(out)]) == 0
        assert calls == {"relative_entanglement_entropy_upper": 1, "bell_correlation": 1}
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
        assert {r["measure"]: r["value"] for r in report["results"]} == {
            k: v.value for k, v in direct.items()}
        assert report["ordering_audit"]["values"]["ER_upper"] == direct["ER"].value

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
