"""Command-line front end: state ingestion, measure reports, bound sweeps,
CSV/JSON emission and reproducibility manifests.

Each subcommand imports the domain module it runs, so a process loads only
what its one command needs: the integrable sweep runs without numpy, and
only ``measures`` (and ``lower --state``) load the density-matrix stack.
Only a manifest that digests an input file loads hashlib (and OpenSSL).
"""

from __future__ import annotations

import argparse
import contextvars
import json
import math
import os
import sys
import time
from pathlib import Path

from . import __version__, config


def _fmt(x) -> str:
    """CSV cell: floats round-trip, commas in messages become semicolons."""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x).replace(",", ";")


# the most points a 'lo..hi..step' sweep range may hold
MAX_SWEEP_POINTS = 100_000


def parse_points(spec: str, integer: bool = False):
    """Parse a sweep spec: 'lo..hi', 'lo..hi..step', or a comma list.

    A nan or infinite bound, step or point, a range of more than
    ``MAX_SWEEP_POINTS`` points, or with ``integer`` a point that is not an
    integer, raises ``ValueError``.
    """
    if ".." in spec:
        values = [float(p) for p in spec.split("..")]
        if len(values) not in (2, 3):
            raise ValueError(f"bad range spec {spec!r}")
    else:
        values = [float(p) for p in spec.split(",") if p.strip()]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"sweep spec {spec!r} holds a value that is not finite")
    if ".." in spec:
        lo, hi, step = values if len(values) == 3 else (*values, 1.0)
        if step <= 0:
            raise ValueError("range step must be positive")
        span = (hi - lo) / step + 1e-9
        if not span < MAX_SWEEP_POINTS:  # an infinite count fails too
            raise ValueError(f"range {spec!r} holds more than {MAX_SWEEP_POINTS} points")
        n = int(math.floor(span)) + 1
        pts = [lo + k * step for k in range(n)]
    else:
        pts = values
    if integer:
        bad = next((p for p in pts if not p.is_integer()), None)
        if bad is not None:
            raise ValueError(f"sweep spec {spec!r} holds {bad!r}, which is not an integer")
        return [int(p) for p in pts]
    return pts


def _sha256(path: Path) -> str:
    import hashlib

    return hashlib.sha256(path.read_bytes()).hexdigest()


# options that name input files; the manifest records their digests
_INPUT_OPTIONS = ("state", "diamonds", "spectrum_file")


def write_manifest(out_path: Path, args: argparse.Namespace) -> None:
    inputs = [p for p in (getattr(args, k, None) for k in _INPUT_OPTIONS) if p]
    manifest = {
        "command": ["entbound"] + getattr(args, "_raw_argv", []),
        "params": {k: v for k, v in vars(args).items()
                   if not k.startswith("_") and k != "func" and _jsonable(v)},
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
        "inputs": {p: _sha256(Path(p)) for p in inputs if Path(p).exists()},
    }
    Path(str(out_path) + ".manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
    )


def _jsonable(v) -> bool:
    return isinstance(v, (int, float, str, bool, list, tuple, type(None)))


def _emit(args, text: str) -> None:
    """Write ``text`` to ``--out`` plus its manifest, or to stdout."""
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        write_manifest(Path(args.out), args)
    else:
        sys.stdout.write(text)


def emit_json(args, record: dict) -> int:
    _emit(args, json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


def emit_rows(args, header: list[str], rows: list[dict]) -> int:
    """Write sweep rows as CSV; exit code 2 only when every row failed."""
    lines = [",".join(header)]
    lines += [",".join(_fmt(row.get(col, "")) for col in header) for row in rows]
    _emit(args, "\n".join(lines) + "\n")
    return 2 if rows and all(row.get("error") for row in rows) else 0


def _map_rows(fn, points):
    """Rows in parameter order; each worker row runs in a copy of the
    caller's context, so it sees the caller's tolerance profile."""
    threads = int(os.environ.get("ENTBOUND_THREADS", "1"))
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(contextvars.copy_context().run, fn, p) for p in points]
            return [f.result() for f in futures]
    return [fn(p) for p in points]


# ---------------------------------------------------------------------------
# subcommands

def cmd_measures(args) -> int:
    from . import linalg, measures

    rho = linalg.load_state(args.state)
    wanted = [m.strip().upper() for m in args.measures.split(",") if m.strip()]
    audit = measures.ordering_audit(rho, wanted, seed=args.seed, er_restarts=args.er_restarts)
    report: dict = {"state": args.state}
    if {"EI", "ER", "EN", "EM"} <= set(wanted):
        report["ordering_audit"] = {"values": audit.values, "links": audit.links, "ok": audit.ok}
    report["results"] = [dict(audit.results[name].to_record(), seed=args.seed)
                         for name in wanted]
    return emit_json(args, report)


def cmd_gaussian(args) -> int:
    from . import gaussian as gaussian_mod

    geom = gaussian_mod.LatticeGeometry(args.sites, args.spacing, args.mass, args.boundary)
    try:
        a_lo, a_hi = (int(x) for x in args.region_a.split(".."))
    except ValueError:
        raise ValueError(f"--regionA {args.region_a} must have the form lo..hi, "
                         "two integer sites") from None
    if not 0 <= a_lo <= a_hi < geom.sites:
        raise ValueError(f"--regionA {args.region_a} must be a range within sites "
                         f"0..{geom.sites - 1}")
    region_a = tuple(range(a_lo, a_hi + 1))
    gaps = parse_points(args.gap, integer=True)
    state = gaussian_mod.build_state(geom)
    # region A stays in place, so its bases serve every row
    bases_a = gaussian_mod.region_projectors(state, region_a)
    header = ["gap_sites", "r", "upper_bound", "lower_bound", "error"]

    def one(gap):
        try:
            row = gaussian_mod.decay_row(state, region_a, gap, args.trials > 0, bases_a)
        except ValueError as exc:
            return {"gap_sites": gap, "r": gap * geom.spacing, "error": str(exc)}
        return dict(zip(header, row), error="")

    return emit_rows(args, header, _map_rows(one, gaps))


def _build_smatrix(args):
    from . import integrable as integrable_mod

    if args.model == "sinh-gordon":
        return integrable_mod.sinh_gordon(args.g)
    return integrable_mod.SMatrix(tuple(float(b) for b in args.poles.split(",")))


def cmd_integrable(args) -> int:
    from . import integrable as integrable_mod

    s_matrix = _build_smatrix(args)
    points = parse_points(args.mR)

    def one(mr):
        row = {"mR": mr, "error": ""}
        try:
            res = integrable_mod.vacuum_bound(s_matrix, mr, args.kappa, args.delta)
            row["converged"] = int(res.converged)
            if res.converged:
                row["nu"] = res.nu
                row["log_bound"] = res.log_value
            else:
                row["error"] = "series diverges at this separation"
            row["asymptotic"] = res.asymptotic
        except integrable_mod.IntegrableError as exc:
            row["error"] = str(exc)
        return row

    rows = _map_rows(one, points)
    return emit_rows(args, ["mR", "converged", "nu", "log_bound", "asymptotic", "error"], rows)


def cmd_dirac(args) -> int:
    from . import integrable as integrable_mod

    points = parse_points(args.eps)

    def one(eps):
        row = {"eps": eps, "error": ""}
        try:
            row["value"] = integrable_mod.dirac_halfline_bound(args.m, eps, args.circle_radius)
            row["log_ref"] = abs(math.log(2 * args.m * eps))
        except integrable_mod.IntegrableError as exc:
            row["error"] = str(exc)
        return row

    rows = _map_rows(one, points)
    return emit_rows(args, ["eps", "value", "log_ref", "error"], rows)


def _load_spectrum(path: str):
    from . import cft as cft_mod

    rows_scalar = []
    rows_chiral = []
    lines = [(n, line.strip()) for n, line in
             enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1)
             if line.strip()]
    for k, (lineno, line) in enumerate(lines):
        parts = [p.strip() for p in line.split(",")]
        try:
            nums = [float(p) for p in parts]
        except ValueError:
            if k == 0:
                continue  # header line
            raise ValueError(f"{path}, line {lineno}: non-numeric spectrum row {line!r}") from None
        if not all(math.isfinite(x) for x in nums):
            raise ValueError(f"{path}, line {lineno}: non-finite spectrum row {line!r}")
        if len(nums) in (2, 4) and not nums[-1].is_integer():
            raise ValueError(f"{path}, line {lineno}: multiplicity {parts[-1]!r} is not an integer")
        if len(nums) == 4:
            rows_scalar.append(cft_mod.SpectrumRow(nums[0], nums[1], nums[2], int(nums[3])))
        elif len(nums) == 2:
            rows_chiral.append((nums[0], int(nums[1])))
        else:
            raise ValueError(f"bad spectrum row {line!r}")
    if rows_scalar and rows_chiral:
        raise ValueError("spectrum file mixes 4-column and 2-column rows")
    if rows_scalar:
        return cft_mod.SpectrumTable(tuple(rows_scalar))
    return rows_chiral


def cmd_cft(args) -> int:
    import numpy as np

    from . import cft as cft_mod

    out: dict = {}
    if args.diamonds:
        cfg_raw = json.loads(Path(args.diamonds).read_text(encoding="utf-8"))
        cfg = cft_mod.DiamondConfig(
            x_a_plus=np.array(cfg_raw["x_a_plus"], dtype=float),
            x_a_minus=np.array(cfg_raw["x_a_minus"], dtype=float),
            x_b_plus=np.array(cfg_raw["x_b_plus"], dtype=float),
            x_b_minus=np.array(cfg_raw["x_b_minus"], dtype=float),
        )
        u, v = cft_mod.cross_ratios(cfg)
        tau, theta = cft_mod.tau_theta(u, v)
        out.update({"u": u, "v": v, "tau": tau, "theta": theta})
        if args.spectrum or args.spectrum_file:
            spec = args.spectrum or _load_spectrum(args.spectrum_file)
            if isinstance(spec, str):
                if abs(theta) > 1e-12:
                    raise cft_mod.CftError("named spectra support only theta = 0")
                out["bound"] = cft_mod.concentric_bound(spec, math.exp(-tau))
            else:
                out["bound"] = cft_mod.general_bound_3p1(spec, tau, theta)
    elif args.chiral:
        if not args.spectrum_file:
            raise ValueError("--chiral needs --spectrum-file with l0,degeneracy rows")
        intervals = tuple(float(x) for x in args.chiral.split(","))
        spec = _load_spectrum(args.spectrum_file)
        out["xi"] = cft_mod.chiral_cross_ratio(*intervals)
        out["bound"] = cft_mod.chiral_bound(spec, intervals)
    else:
        spec = args.spectrum or _load_spectrum(args.spectrum_file)
        out["ratio"] = args.ratio
        out["bound"] = cft_mod.concentric_bound(spec, args.ratio)
    return emit_json(args, out)


def cmd_sectors(args) -> int:
    from . import sectors as sectors_mod

    out: dict = {}
    if args.young:
        rows = tuple(int(x) for x in args.young.split(","))
        dim = sectors_mod.young_dim(sectors_mod.YoungDiagram(rows), args.N)
        out["young"] = list(rows)
        out["N"] = args.N
        out["dim"] = int(dim) if isinstance(dim, int) else float(dim)
        out["er_delta_max"], out["em_delta_max"] = sectors_mod.charged_delta_bounds(
            sectors_mod.SectorList((sectors_mod.Sector("young", float(dim)),)))
    elif args.minimal_model:
        p, m, n = (int(x) for x in args.minimal_model.split(","))
        out["labels"] = [p, m, n]
        out["dim"] = sectors_mod.minimal_model_dim(p, m, n)
    elif args.mu_index_p is not None:
        out["p"] = args.mu_index_p
        out["mu_index"] = sectors_mod.minimal_model_mu_index(args.mu_index_p)
    else:
        raise ValueError("choose --young, --minimal-model or --mu-index")
    return emit_json(args, out)


def cmd_lower(args) -> int:
    from . import bounds

    out: dict = {}
    if args.s_of is not None:
        out["x"] = args.s_of
        out["s"] = bounds.gap_s(args.s_of)
    elif args.area:
        cfg = bounds.PackingConfig(
            eps=args.eps,
            d=args.area,
            d2=args.d2,
            boundary_area=args.boundary,
            length_a=args.len_a,
            length_b=args.len_b,
        )
        n, bound = bounds.area_law_lower(cfg)
        out.update({"pair_count": n, "bound": bound})
        if n == 0:
            out["warning"] = "corridor too wide: no pairs fit"
    elif args.state:
        from .linalg import load_state
        from .measures import mutual_info_correlator_bound

        out["correlator_bound"] = mutual_info_correlator_bound(load_state(args.state))
    else:
        raise ValueError("choose --s-of, --area or --state")
    return emit_json(args, out)


def cmd_replay(args) -> int:
    manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    argv = list(manifest["command"][1:])
    if args.out:
        if "--out" in argv:
            argv[argv.index("--out") + 1] = args.out
        else:
            argv += ["--out", args.out]
    return main(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="entbound",
                                     description="entanglement measures and bounds")
    parser.add_argument("--tol-profile", choices=sorted(config.PROFILES), default="strict")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("measures", help="measures of a bipartite state file")
    p.add_argument("--state", required=True)
    p.add_argument("--measures", default="EI,ER,EN,EM,EB")
    p.add_argument("--er-restarts", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_measures)

    p = sub.add_parser("gaussian", help="lattice scalar decay sweep")
    p.add_argument("--sites", type=int, default=96)
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--spacing", type=float, default=0.25)
    p.add_argument("--boundary", choices=["dirichlet", "periodic"], default="dirichlet")
    p.add_argument("--regionA", dest="region_a", default="8..15")
    p.add_argument("--gap", default="8..24..2")
    p.add_argument("--trials", type=int, default=0,
                   help="N > 0 adds the Weyl-correlator lower bound (closed form: every N gives "
                        "the same value)")
    p.add_argument("--seed", type=int, default=0, help="accepted for old command lines; no effect")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gaussian)

    p = sub.add_parser("integrable", help="wedge vacuum bound sweep")
    p.add_argument("--model", choices=["sinh-gordon", "custom"], default="sinh-gordon")
    p.add_argument("--g", type=float, default=0.5)
    p.add_argument("--poles", default="")
    p.add_argument("--mR", default="10..40..5")
    p.add_argument("--kappa", type=float, default=0.3)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_integrable)

    p = sub.add_parser("dirac", help="half-line corridor bound sweep")
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--eps", default="0.1,0.01,0.001")
    p.add_argument("--circle-radius", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_dirac)

    p = sub.add_parser("cft", help="conformal bound evaluators")
    p.add_argument("--spectrum", choices=[config.FREE_SCALAR_4D], default=None)
    p.add_argument("--spectrum-file")
    p.add_argument("--ratio", type=float, default=0.5)
    p.add_argument("--diamonds")
    p.add_argument("--chiral")
    p.add_argument("--out")
    p.set_defaults(func=cmd_cft)

    p = sub.add_parser("sectors", help="sector dimensions and deltas")
    p.add_argument("--young")
    p.add_argument("--N", type=int, default=10)
    p.add_argument("--minimal-model")
    p.add_argument("--mu-index", dest="mu_index_p", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sectors)

    p = sub.add_parser("lower", help="lower-bound toolkit")
    p.add_argument("--s-of", type=float, default=None)
    p.add_argument("--area", type=int, default=0)
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--boundary", type=float, default=1.0)
    p.add_argument("--d2", type=float, default=0.0)
    p.add_argument("--lenA", dest="len_a", type=float, default=1.0)
    p.add_argument("--lenB", dest="len_b", type=float, default=1.0)
    p.add_argument("--state")
    p.add_argument("--out")
    p.set_defaults(func=cmd_lower)

    p = sub.add_parser("replay", help="re-run a manifest")
    p.add_argument("manifest")
    p.add_argument("--out")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; its tolerance profile applies to this call only.

    A command that fails as a whole (bad input, unreadable file) prints
    ``error: ...`` to stderr and returns 1; a failing sweep row is reported
    in its own row instead.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._raw_argv = argv
    token = config.PROFILE.set(config.PROFILES[args.tol_profile])
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        config.PROFILE.reset(token)


if __name__ == "__main__":
    raise SystemExit(main())
