"""Command-line front end.

JSON reports go to stdout with sorted keys and 12-significant-digit floats,
so identical inputs produce byte-identical output; human diagnostics
(timing, warnings) go to stderr.  Exit codes: 0 Stable, 10 Neutral,
20 Unstable, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from . import closed, geometry, multiphase, oracle, spectrum
from .spectrum import NEUTRAL, STABLE, UNSTABLE

EXIT_CODES = {STABLE: 0, NEUTRAL: 10, UNSTABLE: 20}
DEFAULT_GRID = 2001
_parser = functools.cache(lambda: build_parser())  # parse_args leaves the parser unchanged


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _round_floats(obj):
    """Round all floats to 12 significant digits for deterministic JSON."""
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, np.floating):
        return float(_fmt(float(obj)))
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _emit_json(report: dict) -> None:
    print(json.dumps(_round_floats(report), sort_keys=True, indent=2))


def _mode_dict(mode) -> dict | None:
    if mode is None:
        return None
    return {"case": mode.case_tag, "k": mode.k, "mu": mode.mu,
            "coeffs": list(mode.coeffs)}


def _verdict_dict(v) -> dict:
    out = {"classification": v.classification, "mu1": v.mu1,
           "evidence": v.evidence, "witness": _mode_dict(v.witness)}
    if v.parts:
        out["parts"] = [_verdict_dict(p) for p in v.parts]
    return out


def _default_tol(args) -> float:
    if args.tol is not None:
        return args.tol
    env = os.environ.get("PARTSTAB_TOL")
    return float(env) if env else spectrum.DEFAULT_TOL


def _add_arc_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--length", type=float, required=True)
    p.add_argument("--sigma1", type=float, required=True)
    p.add_argument("--sigma2", type=float, required=True)
    p.add_argument("--gamma", type=float, default=1.0)


def _add_scan_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=None,
                   help="tolerance (default: PARTSTAB_TOL env var or 1e-8)")
    p.add_argument("--x-max", type=float, default=None,
                   help="root-scan window upper end")
    p.add_argument("--n-grid", type=int, default=spectrum.DEFAULT_N_GRID,
                   help="root-scan grid size")


def cmd_classify(args) -> int:
    tol = _default_tol(args)
    arc = geometry.make_arc(args.kappa, args.length, args.sigma1, args.sigma2,
                            args.gamma)
    verdict = spectrum.classify(arc, tol=tol, x_max=args.x_max, n_grid=args.n_grid)
    report = {
        "command": "classify",
        "inputs": {"kappa": args.kappa, "length": args.length,
                   "sigma1": args.sigma1, "sigma2": args.sigma2,
                   "gamma": args.gamma, "tol": tol},
        "verdict": _verdict_dict(verdict),
    }
    if args.oracle:
        op = oracle.discretize(arc, args.grid)
        mu1, _ = oracle.smallest_constrained_eigenpair(op)
        entry = {"grid": args.grid, "mu1": mu1}
        if verdict.mu1 is not None:
            entry["abs_err"] = abs(mu1 - verdict.mu1)
        report["oracle"] = entry
    _emit_json(report)
    return EXIT_CODES[verdict.classification]


def cmd_sweep(args) -> int:
    tol = _default_tol(args)
    if args.steps < 1:
        raise ValueError(f"steps must be >= 1, got {args.steps}")
    if not (0 < args.l_min <= args.l_max):
        raise ValueError(f"need 0 < l-min <= l-max, got [{args.l_min}, {args.l_max}]")
    print("L,mu1,class,evidence")
    for L in np.linspace(args.l_min, args.l_max, args.steps):
        arc = geometry.ArcInterface(args.kappa, float(L), args.sigma1, args.sigma2)
        v = spectrum.classify(arc, tol=tol, x_max=args.x_max, n_grid=args.n_grid)
        mu1 = _fmt(v.mu1) if v.mu1 is not None else ""
        print(f"{_fmt(L)},{mu1},{v.classification},{v.evidence}")
    return 0


def cmd_det_curve(args) -> int:
    if args.x_max <= 0:
        raise ValueError(f"x-max must be positive, got {args.x_max}")
    if args.steps < 2:
        raise ValueError(f"steps must be >= 2, got {args.steps}")
    arc = geometry.ArcInterface(args.kappa, args.length, args.sigma1, args.sigma2)
    xs = np.linspace(args.x_max / args.steps, args.x_max, args.steps)
    if args.case == "I":
        vals = spectrum.case1_det(xs, arc.kappa, arc.length, arc.sigma1, arc.sigma2)
    else:
        a, b = arc.sigma1 * arc.length, arc.sigma2 * arc.length
        if a > 0 and b > 0:
            vals = spectrum.case2_det(xs, a, b)
        else:
            vals = spectrum._case2_sys_det(xs, arc.length, arc.sigma1, arc.sigma2)
    print("x,D,sign_change")
    prev = None
    for x, d in zip(xs, np.atleast_1d(vals)):
        flip = int(prev is not None and prev * d < 0)
        print(f"{_fmt(x)},{_fmt(d)},{flip}")
        prev = d
    return 0


def cmd_sphere(args) -> int:
    iface = geometry.ClosedInterface(args.dim, args.radius)
    spec = closed.sphere_spectrum(args.dim, args.radius, args.max_l)
    verdict = closed.classify_closed(iface)
    _emit_json({
        "command": "sphere",
        "inputs": {"dim": args.dim, "radius": args.radius, "max_l": args.max_l},
        "spectrum": [{"l": l, "mu": mu, "translation": tr} for l, mu, tr in spec],
        "verdict": _verdict_dict(verdict),
    })
    return EXIT_CODES[verdict.classification]


def cmd_circle(args) -> int:
    iface = geometry.ClosedInterface(2, args.radius)
    spec = closed.circle_spectrum(args.radius, args.max_n)
    verdict = closed.classify_closed(iface)
    report = {
        "command": "circle",
        "inputs": {"radius": args.radius, "max_n": args.max_n},
        "spectrum": [{"n": n, "mu": mu, "translation": tr} for n, mu, tr in spec],
        "verdict": _verdict_dict(verdict),
    }
    if args.oracle:
        arc = geometry.ArcInterface(1.0 / args.radius, 2 * np.pi * args.radius, 0.0, 0.0)
        op = oracle.discretize(arc, args.grid, periodic=True)
        k = min(2 * args.max_n, args.grid - 2)
        vals, _ = oracle.constrained_eigenpairs(op, k=k)
        report["oracle"] = {"grid": args.grid, "eigenvalues": [float(v) for v in vals]}
    _emit_json(report)
    return EXIT_CODES[verdict.classification]


def cmd_multiphase(args) -> int:
    tol = _default_tol(args)
    config = multiphase.load_config(args.config)
    verdict = multiphase.classify_config(config, tol=tol)
    report = {
        "command": "multiphase",
        "inputs": {"config": str(args.config), "tol": tol},
        "connected": config.connected,
        "mean_curvature_residual": multiphase.mean_curvature_residual(config),
        "verdict": _verdict_dict(verdict),
    }
    if not config.connected:
        value, desc = multiphase.disconnected_witness(config)
        report["witness"] = {"delta2A": value, "description": desc}
    _emit_json(report)
    return EXIT_CODES[verdict.classification]


def cmd_oracle_compare(args) -> int:
    arc = geometry.ArcInterface(args.kappa, args.length, args.sigma1, args.sigma2)
    table = oracle.spectrum_compare(arc, args.grid, args.eigs, x_max=args.x_max)
    _emit_json({
        "command": "oracle-compare",
        "inputs": {"kappa": args.kappa, "length": args.length,
                   "sigma1": args.sigma1, "sigma2": args.sigma2,
                   "grid": args.grid, "eigs": args.eigs},
        "comparison": table,
    })
    return 0


def cmd_ellipse(args) -> int:
    spec = geometry.EllipseSpec(args.a, args.b)
    family = geometry.ellipse_partition_family(spec, args.samples)
    print("x0,R")
    for x0, r in family:
        print(f"{_fmt(x0)},{_fmt(r)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partstab",
        description="Linear stability of volume-constrained minimal partitionings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a single arc interface")
    _add_arc_flags(p)
    _add_scan_flags(p)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check mu1 against the discretized operator")
    p.add_argument("--grid", type=int, default=DEFAULT_GRID)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sweep", help="stability diagram over interface length (CSV)")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--sigma1", type=float, required=True)
    p.add_argument("--sigma2", type=float, required=True)
    p.add_argument("--l-min", type=float, required=True)
    p.add_argument("--l-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    _add_scan_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("det-curve", help="determinant curve for plotting (CSV)")
    p.add_argument("--case", choices=["I", "II"], required=True)
    _add_arc_flags(p)
    p.add_argument("--x-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=cmd_det_curve)

    p = sub.add_parser("sphere", help="sphere spectrum and classification")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--max-l", type=int, default=5)
    p.set_defaults(func=cmd_sphere)

    p = sub.add_parser("circle", help="circle spectrum and classification")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--max-n", type=int, default=5)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--grid", type=int, default=DEFAULT_GRID)
    p.set_defaults(func=cmd_circle)

    p = sub.add_parser("multiphase", help="classify a multiphase configuration")
    p.add_argument("--config", required=True, help="path to MultiphaseConfig JSON")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_multiphase)

    p = sub.add_parser("oracle-compare", help="analytic vs discretized spectrum")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--length", type=float, required=True)
    p.add_argument("--sigma1", type=float, required=True)
    p.add_argument("--sigma2", type=float, required=True)
    p.add_argument("--grid", type=int, default=DEFAULT_GRID)
    p.add_argument("--eigs", type=int, default=3)
    p.add_argument("--x-max", type=float, default=None)
    p.set_defaults(func=cmd_oracle_compare)

    p = sub.add_parser("ellipse", help="orthogonal arc family of an ellipse (CSV)")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=cmd_ellipse)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad flags already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    t0 = time.perf_counter()
    try:
        code = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"elapsed {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
