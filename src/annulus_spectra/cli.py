"""Command line front end: solves, verification suites, sweeps, reports.

Subcommands: `shell` (radial solver), `fem` (2D solver), `verify`
(property suites with a JSON report bundle) and `sweep` (parameter sweeps
with CSV tables and SVG line plots).  A flat key=value config file can
seed any subcommand's options; explicit flags override it.  Exit codes:
0 success, 1 numerical or assertion failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, fem, geometry, radial, webfunc
from .errors import AnnulusError, GeometryError, UsageError

# ---------------------------------------------------------------------------
# tiny SVG plotting (deterministic, no timestamps)
# ---------------------------------------------------------------------------

_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def write_svg_plot(path, xs, series, labels, title, logx=False, logy=False):
    """Minimal polyline plot of one or more series over common x values."""
    width, height, margin = 640, 440, 60
    xs = np.asarray(xs, dtype=float)
    if logx:
        xs = np.log10(xs)
    cooked = []
    for ys in series:
        ys = np.asarray(ys, dtype=float)
        cooked.append(np.log10(ys) if logy else ys)
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo = min(float(y.min()) for y in cooked)
    y_hi = max(float(y.max()) for y in cooked)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def px(x):
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def py(y):
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" font-size="15">{title}</text>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="black"/>',
    ]
    for ys, label, color in zip(cooked, labels, _SVG_COLORS):
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        lines.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
    for i, label in enumerate(labels):
        lines.append(
            f'<text x="{margin + 8}" y="{margin + 18 + 16 * i}" font-size="12" '
            f'fill="{_SVG_COLORS[i % len(_SVG_COLORS)]}">{label}</text>'
        )
    lines.append(
        f'<text x="{margin}" y="{height - margin + 28}" font-size="11">'
        f"x: {x_lo:.6g} .. {x_hi:.6g}{' (log10)' if logx else ''}</text>"
    )
    lines.append(
        f'<text x="{margin}" y="{height - margin + 44}" font-size="11">'
        f"y: {y_lo:.6g} .. {y_hi:.6g}{' (log10)' if logy else ''}</text>"
    )
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _read_config_tokens(path: str, command: str) -> list:
    """Turn key=value lines into CLI tokens injected before user flags."""
    tokens = []
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise UsageError(f"cannot read config {path}: {err}") from err
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "command":
            if value != command:
                raise UsageError(f"{path}: config is for command {value!r}, not {command!r}")
            continue
        flag = "--" + key.replace("_", "-")
        if value.lower() in ("true", "false"):
            if value.lower() == "true":
                tokens.append(flag)
        else:
            tokens.extend([flag, value])
    return tokens


def _parse_res(text: str):
    try:
        n_r, n_a = (int(p) for p in text.lower().split("x"))
    except ValueError as err:
        raise UsageError(f"resolution must look like 64x256, got {text!r}") from err
    if n_r < 2 or n_a < 8:
        raise UsageError(f"resolution needs at least 2 radial layers and 8 rays, got {text!r}")
    return n_r, n_a


def _parse_beta(text: str) -> float:
    value = float(text)
    if not value >= 0.0:  # also rejects nan
        raise UsageError("beta must be nonnegative (use inf for Dirichlet)")
    return value


def _int_at_least(flag: str, low: int):
    """Argument type for a flag that takes an integer no smaller than low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise UsageError(f"{flag} must be at least {low}, got {text!r}")
        return value

    return parse


def _positive(flag: str):
    """Argument type for a flag that takes a positive finite float."""

    def parse(text: str) -> float:
        value = float(text)
        if not (value > 0.0 and math.isfinite(value)):  # also rejects nan
            raise UsageError(f"{flag} must be positive and finite, got {text!r}")
        return value

    return parse


def _require_below(low: float, high: float, low_flag: str, high_flag: str) -> None:
    """Usage error unless the value of low_flag is below that of high_flag."""
    if not low < high:
        raise UsageError(f"{low_flag} must be below {high_flag}, got {low:g} >= {high:g}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_shell(args) -> int:
    _require_below(args.r1, args.r2, "--r1", "--r2")
    out = args.out and Path(args.out)
    if args.method == "closed3d":
        if args.n != 3:
            raise UsageError("--method closed3d requires --n 3")
        lam = radial.closed_form_3d(args.r1, args.r2, args.beta)
        report = {
            "lambda": lam,
            "method": "closed-form-3d",
            "resolution": "analytic",
        }
        print(f"lambda = {lam:.12g}  (closed-form-3d)")
    elif args.method == "fd":
        lam = radial.solve_shell_fd(args.n, args.r1, args.r2, args.beta, args.fd_points)
        report = {
            "lambda": lam,
            "method": "finite-difference",
            "resolution": f"{args.fd_points} points",
        }
        print(f"lambda = {lam:.12g}  (finite-difference, m={args.fd_points})")
    else:
        result = radial.solve_shell(args.n, args.r1, args.r2, args.beta)
        report = result.report()
        report["resolution"] = (
            f"{len(result.r)} knots uniform in log r, profile rtol {radial.PROFILE_RTOL:g}"
        )
        print(
            f"lambda = {result.lam:.12g}  r_bar = {result.r_bar:.12g}  "
            f"v_m = {result.v_m:.12g}  v_M = {result.v_M:.12g}"
        )
        if out:
            out.mkdir(parents=True, exist_ok=True)
            rows = zip(result.r, result.phi, result.dphi)
            _write_csv(out / "profile.csv", ["r", "phi", "dphi"], rows)
    if out:
        out.mkdir(parents=True, exist_ok=True)
        _dump_json(report, out / "shell_report.json")
    return 0


def cmd_fem(args) -> int:
    try:
        outer = geometry.BoundaryCurve.parse(args.outer)
        inner = geometry.BoundaryCurve.parse(args.inner)
        domain = geometry.AnnularDomain(outer, inner)
    except GeometryError as err:
        raise UsageError(str(err)) from err
    n_r, n_a = _parse_res(args.res)
    result = fem.solve_domain(domain, args.beta, n_r, n_a)
    stats = result.stats
    print(f"lambda_h = {result.lam:.12g}  ({n_r}x{n_a} mesh, beta={args.beta})")
    print(
        f"certificate: {stats['negative_pivots']} negative pivot(s) at sigma = "
        f"{stats['sigma']:.12g}, {stats['factorizations']} factorization(s), "
        f"{stats['outer_iterations']} LU solves"
    )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        fem.write_mesh(result.mesh, out / "mesh.txt")
        rows = ((i, x, y, u) for i, ((x, y), u) in enumerate(zip(result.mesh.nodes, result.u)))
        _write_csv(out / "eigenvector.csv", ["node", "x", "y", "u"], rows)
        _dump_json(result.report(), out / "fem_report.json")
    return 0


def _dump_json(payload, path):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _print_check(check: analysis.InequalityReport) -> None:
    context = "".join(f" {key}={value}" for key, value in (check.context or {}).items())
    print(
        f"[{'PASS' if check.passed else 'FAIL'}] {check.name}: margin {check.margin:+.3e} "
        f"tolerance {check.tolerance:.3e} lhs {check.lhs:.12g} rhs {check.rhs:.12g}{context}"
    )


# -- verification suites ----------------------------------------------------
#
# Each suite takes the parsed arguments and the --res resolution and returns
# (payload, checks): the JSON report body and its InequalityReport rows.

Check = analysis.InequalityReport


def _suite_geometry(args, resolution):
    rng = np.random.default_rng(args.seed)
    count = 30 if args.quick else 100
    pmi, af = [], []
    for _ in range(count):
        poly = geometry.random_convex_polygon(
            rng, int(rng.integers(3, 24)), scale=float(rng.uniform(0.5, 3.0))
        )
        rho = geometry.inradius(poly)
        ratio = poly.area / poly.perimeter
        pmi.append(Check.between("pmi_bounds", rho / 2.0, ratio, rho, 1e-12))
        af.append(Check("aleksandrov_fenchel", 0.0, geometry.aleksandrov_fenchel_check(poly), 1e-9))
    # the margin of a regular n-gon decays like pi^2 / (6 n^2), so the
    # 4096-gon sits well below 1e-6 while 1024 straddles it
    af_disk = geometry.aleksandrov_fenchel_check(geometry.ConvexPolygon.regular(4096, 1.0))
    res = geometry.class_s_data(
        geometry.AnnularDomain(geometry.Circle((0, 0), 2.0), geometry.Circle((0.5, 0), 1.0))
    )[2]
    checks = [
        min(pmi, key=lambda check: check.margin),
        min(af, key=lambda check: check.margin),
        Check("af_disk_equality", af_disk, 0.0, np.nextafter(1e-6, 0.0), {"sides": 4096}),
        Check("class_s_circle_pair", abs(res), 0.0, np.nextafter(1e-12, 0.0)),
    ]
    return {"seed": args.seed, "polygons": count}, checks


def _suite_radial(args, resolution):
    rng = np.random.default_rng(args.seed)
    cases = 5 if args.quick else 12
    worst = 0.0
    worst3d = 0.0
    for _ in range(cases):
        n = int(rng.integers(2, 5))
        r1 = float(rng.uniform(0.4, 1.5))
        r2 = r1 + float(rng.uniform(0.4, 2.0))
        beta = float(10.0 ** rng.uniform(-1.5, 1.5))
        lam = radial.solve_shell(n, r1, r2, beta).lam
        lam_fd = radial.solve_shell_fd(n, r1, r2, beta, 20000)
        worst = max(worst, abs(lam - lam_fd) / lam)
        if n == 3:
            worst3d = max(worst3d, abs(lam - radial.closed_form_3d(r1, r2, beta)) / lam)
    mono = radial.radii_monotonicity(2, 1.0, 1.0, 2.0, 5 if args.quick else 9)
    base = radial.solve_shell(3, 1.0, 2.0, 2.0).lam
    scaled = radial.solve_shell(3, 2.0, 4.0, 1.0).lam
    scaling_err = abs(base - 4.0 * scaled) / base
    checks = [
        Check("cross_method_agreement", worst, 0.0, 1e-6),
        Check("closed_form_3d_agreement", worst3d, 0.0, 1e-9),
        Check("radii_monotonicity", mono, 0.0, 0.0),
        Check("scaling_law", scaling_err, 0.0, 1e-9),
    ]
    return {"seed": args.seed, "cases": cases}, checks


def _suite_theorem(args, resolution):
    family = analysis.standard_family()
    betas = (1.0,) if args.quick else (0.1, 1.0, 10.0)
    res = (24, 96) if args.quick else resolution
    checks = []
    for beta in betas:
        checks.extend(analysis.main_theorem_sweep(family, beta, resolution=res))
    return {}, checks


def _suite_bounds(args, resolution):
    checks = []
    for beta in (0.1, 1.0, 1e3):
        checks.extend(analysis.kuttler_bounds(geometry.ShellSpec(2, 1.0, 2.0), beta))
    checks.extend(analysis.kuttler_bounds(geometry.ShellSpec(3, 1.0, 2.0), 1.0))
    # the FEM route on the limits suite's member, the hole offset by half the free span
    res = (24, 96) if args.quick else resolution
    checks.extend(analysis.kuttler_bounds(analysis.standard_family()[3], 1.0, resolution=res))
    return {}, checks


def _suite_shape_derivative(args, resolution):
    res = (32, 128) if args.quick else resolution
    dom = geometry.AnnularDomain(geometry.Circle((0, 0), 2.0), geometry.Circle((0.5, 0), 1.0))
    fem_res = fem.solve_domain(dom, 1.0, *res)
    field = analysis.PerturbationField(kind="translation", target="inner", vector=(1.0, 0.0))
    formula = analysis.shape_derivative_formula(dom, 1.0, field, fem_res)
    fd_val, noise = analysis.shape_derivative_fd_with_noise(dom, 1.0, field, 1e-3, res)
    shell_dom = geometry.AnnularDomain(geometry.Circle((0, 0), 2.0), geometry.Circle((0, 0), 1.0))
    fem_shell = fem.solve_domain(shell_dom, 1.0, *res)
    mode2 = analysis.PerturbationField(kind="normal_fourier", target="outer", mode=2, amplitude=1.0)
    stat_formula = analysis.shape_derivative_formula(shell_dom, 1.0, mode2, fem_shell)
    _, stat_noise = analysis.shape_derivative_fd_with_noise(shell_dom, 1.0, mode2, 5e-3, res)
    checks = [
        Check(
            "translation_formula_vs_fd", abs(formula - fd_val) / abs(fd_val), 0.0, 5e-2,
            {"formula": formula, "fd": fd_val, "noise": noise},
        ),
        Check(
            "shell_mode2_stationarity", abs(stat_formula), 0.0, 10.0 * stat_noise,
            {"formula": stat_formula, "noise_floor": stat_noise},
        ),
    ]
    return {"resolution": f"{res[0]}x{res[1]}", "method": "fem+fd"}, checks


def _suite_web(args, resolution):
    res = (24, 96) if args.quick else resolution
    shell_dom = geometry.AnnularDomain(geometry.Circle((0, 0), 2.0), geometry.Circle((0, 0), 1.0))
    web = webfunc.build_web(shell_dom, 1.0)
    rad = web.radial
    _, value = webfunc.rayleigh_quotient(web, 1.0)
    identity = abs(value - rad.lam) / rad.lam
    error = webfunc.rayleigh_error(web, 1.0, value)
    checks = [
        Check("shell_identity", identity, 0.0, 1e-12, {"rayleigh_error": error}),
        *web.checks,
    ]
    members = analysis.standard_family()[1:] if not args.quick else analysis.standard_family()[1:3]
    reports = []
    for i, dom in enumerate(members):
        rep = webfunc.chain_certificate(dom, 1.0, n_r=res[0], n_a=res[1])
        reports.append(rep)
        checks.extend(webfunc.chain_checks(rep, f"chain[{i}]"))
    return {"chains": reports}, checks


def _suite_limits(args, resolution):
    res = (24, 96) if args.quick else resolution
    shell = analysis.beta_limits_check(geometry.ShellSpec(2, 1.0, 2.0))
    # the hole offset by half the free span
    member = analysis.standard_family()[3]
    fem_rep = analysis.beta_limits_check(member, resolution=res)
    payload = {
        "radial": {"shell": {"n": 2, "r1": 1.0, "r2": 2.0}, **shell.as_dict()},
        "fem": {
            "outer": member.outer.spec_string(),
            "inner": member.inner.spec_string(),
            "resolution": f"{res[0]}x{res[1]}",
            **fem_rep.as_dict(),
        },
    }
    return payload, shell.checks + fem_rep.checks


# the only list of suite names: --suite takes a key or "all", which runs
# every suite once in this order
SUITES = {
    "geometry": _suite_geometry,
    "radial": _suite_radial,
    "theorem": _suite_theorem,
    "bounds": _suite_bounds,
    "shape-derivative": _suite_shape_derivative,
    "web": _suite_web,
    "limits": _suite_limits,
}


def cmd_verify(args) -> int:
    resolution = _parse_res(args.res)
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    index = {}
    for suite in SUITES if args.suite == "all" else [args.suite]:
        print(f"-- suite {suite}")
        payload, checks = SUITES[suite](args, resolution)
        for check in checks:
            _print_check(check)
        index[suite] = all(check.passed for check in checks)
        if out:
            payload = {**payload, "checks": [check.as_dict() for check in checks]}
            _dump_json(payload, out / f"{suite.replace('-', '_')}_report.json")
    if out:
        _dump_json(index, out / "index.json")
    all_ok = all(index.values())
    print("verify:", "PASS" if all_ok else "FAIL")
    return 0 if all_ok else 1


# -- sweeps -------------------------------------------------------------------

# step k of a resolution sweep solves 8*2^k x 32*2^k, so 5 steps end at
# 128x512.  On 2 cores the whole sweep took 1.5 s and 300 MB peak RSS at 5
# steps and 3.0 s and 1.0 GB at 6; each step has 4x the nodes of the last
MAX_RESOLUTION_STEPS = 5


def cmd_sweep(args) -> int:
    _require_below(args.r1, args.r2, "--r1", "--r2")
    if args.kind == "beta":
        _require_below(args.beta_min, args.beta_max, "--beta-min", "--beta-max")
    if args.kind == "offset":
        _require_below(args.gap, args.r2 - args.r1, "--gap", "--r2 - --r1")
        n_r, n_a = _parse_res(args.res)
    steps = args.steps or (4 if args.kind == "resolution" else 8)
    if args.kind == "resolution" and steps < 3:
        raise UsageError("a resolution sweep needs --steps of at least 3")
    if args.kind == "resolution" and steps > MAX_RESOLUTION_STEPS:
        raise UsageError(
            f"a resolution sweep takes --steps of at most {MAX_RESOLUTION_STEPS}, got {steps}"
        )
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    if args.kind == "beta":
        betas = np.logspace(math.log10(args.beta_min), math.log10(args.beta_max), steps)
        # a plain loop: the radial solves hold the GIL, so threads only add overhead
        lams = [radial.solve_shell(args.n, args.r1, args.r2, b).lam for b in betas]
        rows = list(zip(betas, lams))
        _write_csv(out / "beta_sweep.csv", ["beta", "lambda"], rows)
        write_svg_plot(
            out / "beta_sweep.svg", betas, [lams], ["lambda(beta)"],
            f"shell n={args.n} ({args.r1},{args.r2})", logx=True,
        )
        # violations of strict increase
        check = Check("beta_sweep_monotone", np.sum(np.diff(lams) <= 0.0), 0.0, 0.0)
    elif args.kind == "offset":
        span = args.r2 - args.r1
        offsets = np.linspace(0.0, 0.9 * (span - args.gap), steps)
        lam_shell = radial.solve_shell(2, args.r1, args.r2, args.beta).lam
        lams = []
        for off in offsets:
            dom = geometry.AnnularDomain(
                geometry.Circle((0, 0), args.r2), geometry.Circle((off, 0), args.r1)
            )
            lams.append(fem.solve_domain(dom, args.beta, n_r, n_a).lam)
        margins = [lam_shell - l for l in lams]
        rows = list(zip(offsets, lams, [lam_shell] * len(lams), margins))
        _write_csv(out / "offset_sweep.csv", ["offset", "lambda_fem", "lambda_shell", "margin"], rows)
        write_svg_plot(
            out / "offset_sweep.svg", offsets, [lams, [lam_shell] * len(lams)],
            ["lambda_fem", "lambda_shell"], f"offset sweep beta={args.beta}",
        )
        # the concentric point measures the discretization error directly
        tol = 2.0 * max(abs(margins[0]), 1e-9)
        check = Check("offset_margins_nonnegative", max(lams), lam_shell, tol)
    else:
        dom = geometry.AnnularDomain(
            geometry.Circle((0, 0), args.r2), geometry.Circle((0, 0), args.r1)
        )
        lam_ref = radial.solve_shell(2, args.r1, args.r2, args.beta).lam
        resolutions = [(8 * 2**k, 32 * 2**k) for k in range(steps)]
        study = fem.convergence_study(dom, args.beta, resolutions, lam_ref=lam_ref)
        rows = [
            (f"{r[0]}x{r[1]}", h, lam, abs(lam - lam_ref))
            for r, h, lam in zip(study.resolutions, study.h, study.lam_h)
        ]
        _write_csv(out / "resolution_sweep.csv", ["resolution", "h", "lambda", "error"], rows)
        write_svg_plot(
            out / "resolution_sweep.svg", study.h, [np.abs(study.lam_h - lam_ref)],
            ["|lambda_h - lambda|"], f"convergence, order ~ {study.order:.2f}",
            logx=True, logy=True,
        )
        check = Check.between("convergence_order", 1.5, study.order, 2.5, 0.0)
    _print_check(check)
    return 0 if check.passed else 1


def _write_csv(path, header, rows):
    """Every CSV of the CLI: a header row, then rows with strings kept and
    numbers written as %.17g."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else f"{v:.17g}" for v in row])


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="annulus-spectra",
        description="Robin-Dirichlet eigenvalues on annular domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_shell = sub.add_parser("shell", help="radial solve on a concentric shell")
    p_shell.add_argument("--n", type=_int_at_least("--n", 2), required=True, help="space dimension")
    p_shell.add_argument("--r1", type=_positive("--r1"), required=True)
    p_shell.add_argument("--r2", type=_positive("--r2"), required=True)
    p_shell.add_argument("--beta", type=_parse_beta, required=True, help="Robin parameter (inf ok)")
    p_shell.add_argument("--method", choices=("bessel", "fd", "closed3d"), default="bessel")
    p_shell.add_argument("--fd-points", type=_int_at_least("--fd-points", 100), default=20000)
    p_shell.add_argument("--out", default=None, help="directory for profile.csv and report JSON")
    p_shell.set_defaults(func=cmd_shell)

    p_fem = sub.add_parser("fem", help="2D P1 solve on an annular domain")
    p_fem.add_argument("--outer", required=True, help='e.g. "circle 0 0 2"')
    p_fem.add_argument("--inner", required=True, help='e.g. "circle 0.5 0 1"')
    p_fem.add_argument("--beta", type=_parse_beta, required=True)
    p_fem.add_argument("--res", default="64x256", help="n_r x n_a mesh resolution")
    p_fem.add_argument("--out", default=None)
    p_fem.set_defaults(func=cmd_fem)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument(
        "--suite",
        choices=(*SUITES, "all"),
        default="all",
    )
    p_verify.add_argument("--seed", type=_int_at_least("--seed", 0), default=7)
    p_verify.add_argument("--res", default="48x192")
    p_verify.add_argument("--quick", action="store_true", help="smaller suites for smoke tests")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="parameter sweeps with CSV + SVG output")
    p_sweep.add_argument("--kind", choices=("beta", "offset", "resolution"), required=True)
    p_sweep.add_argument("--n", type=_int_at_least("--n", 2), default=2)
    p_sweep.add_argument("--r1", type=_positive("--r1"), default=1.0)
    p_sweep.add_argument("--r2", type=_positive("--r2"), default=2.0)
    p_sweep.add_argument("--beta", type=_parse_beta, default=1.0)
    p_sweep.add_argument("--beta-min", type=_positive("--beta-min"), default=1e-3)
    p_sweep.add_argument("--beta-max", type=_positive("--beta-max"), default=1e4)
    p_sweep.add_argument("--gap", type=_positive("--gap"), default=0.08)
    p_sweep.add_argument(
        "--steps", type=_int_at_least("--steps", 2), default=None,
        help="grid points (default 8; 4 for --kind resolution)",
    )
    p_sweep.add_argument("--res", default="32x128")
    p_sweep.add_argument("--out", default=".")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # config seeds defaults; explicit flags override because they come later
    if "--config" in argv:
        idx = argv.index("--config")
        if idx + 1 >= len(argv):
            print("error: --config needs a path", file=sys.stderr)
            return 2
        if idx == 0:
            print("error: --config must follow a subcommand", file=sys.stderr)
            return 2
        path = argv[idx + 1]
        command = argv[0]
        rest = argv[:idx] + argv[idx + 2 :]
        try:
            injected = _read_config_tokens(path, command)
        except UsageError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        argv = [command] + injected + rest[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except AnnulusError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
