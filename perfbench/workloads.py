"""The four seeded workloads: inputs, one operation, and its checks.

Each workload makes a fixed batch of operations from a generator seeded
by (seed, workload, batch index), so batch b of a seed is the same on
every run and no input repeats across batches.  An operation calls the
package only through module attributes (`radial.solve_shell`, ...), so
the tracer's rebinding sees every call.  check() returns the clauses
as three lists: disagreements with an independent oracle (a wrong
number), inequality clauses not met (no certified answer), and clauses
red by design, which are recorded but not counted as failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import brentq
from scipy.sparse.linalg import eigsh
from scipy.special import jv, yv

from annulus_spectra import analysis, fem, geometry, radial, webfunc
from annulus_spectra.errors import ContainmentError, InfeasibleError
from annulus_spectra.geometry import AnnularDomain, Circle, ConvexPolygon, Ellipse, PolygonCurve

EPS = float(np.finfo(float).eps)
THEOREM_BETAS = (0.1, 1.0, 10.0)
THEOREM_RES = (48, 192)
WEB_RES = (48, 192)
SHAPE_RES = (64, 256)
FD_POINTS = 20000
GAP = 0.08  # hole-to-outer clearance of the standard eccentric family


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# independent radial oracles
# ---------------------------------------------------------------------------


def bessel_eigenvalue(n: int, r1: float, r2: float, beta: float) -> float:
    """First eigenvalue from the Bessel cross-product characteristic equation.

    With nu = n/2 - 1 and Z_mu(x) = J_mu(x) Y_nu(k R1) - Y_mu(x) J_nu(k R1)
    the profile is r^-nu Z_nu(k r), which vanishes at R1, and the Robin
    condition reads beta Z_nu(k R2) - k Z_(nu+1)(k R2) = 0 (DLMF 10.6).
    The first root is bracketed by a scan on the scale pi / (R2 - R1)
    starting near zero, so thin shells and tiny holes are not skipped.
    """
    nu = 0.5 * n - 1.0

    def g(k):
        ja, ya = jv(nu, k * r1), yv(nu, k * r1)
        z0 = jv(nu, k * r2) * ya - yv(nu, k * r2) * ja
        if math.isinf(beta):
            return z0
        z1 = jv(nu + 1.0, k * r2) * ya - yv(nu + 1.0, k * r2) * ja
        return beta * z0 - k * z1

    step = math.pi / (r2 - r1) / 64.0
    k_max = 4.0 * math.sqrt(8.0 * ((math.pi / (r2 - r1)) ** 2 + n * n / (r1 * r1)))
    k_lo = step / 16.0
    g_lo = g(k_lo)
    while k_lo < k_max:
        k_hi = k_lo + step
        g_hi = g(k_hi)
        if g_hi == 0.0:
            return k_hi * k_hi
        if math.copysign(1.0, g_hi) != math.copysign(1.0, g_lo):
            k = brentq(g, k_lo, k_hi, xtol=1e-15 * k_hi, rtol=8.9e-16, maxiter=200)
            return k * k
        k_lo, g_lo = k_hi, g_hi
    raise ArithmeticError(f"no Bessel root below k = {k_max:.6g}")


def fd_eigenvalue(n: int, r1: float, r2: float, beta: float):
    """solve_shell_fd at FD_POINTS with a computed bound on its own error.

    The bound adds the O(h^2) term, estimated by halving the grid, and the
    Sturm bisection resolution 8 eps ||T|| of the standard-form matrix,
    ||T|| <= 4/h^2 + 2 beta/h; at large beta the latter dominates, which
    is why the pencil alone cannot certify 1e-6 there.
    """
    fine = radial.solve_shell_fd(n, r1, r2, beta, FD_POINTS)
    coarse = radial.solve_shell_fd(n, r1, r2, beta, FD_POINTS // 2)
    h = (r2 - r1) / FD_POINTS
    norm_t = 4.0 / h**2 + (0.0 if math.isinf(beta) else 2.0 * beta / h)
    return fine, abs(fine - coarse) + 8.0 * EPS * norm_t


# ---------------------------------------------------------------------------
# seeded class-S members
# ---------------------------------------------------------------------------


def eccentric_pair(rng) -> AnnularDomain:
    """Outer circle of radius 2, hole of radius in [0.8, 1.2] at a random
    direction and offset fraction in [0.1, 0.9] of the free span."""
    r1 = float(rng.uniform(0.8, 1.2))
    offset = float(rng.uniform(0.1, 0.9)) * (2.0 - r1 - GAP)
    phi = float(rng.uniform(0.0, 2.0 * math.pi))
    hole = Circle((offset * math.cos(phi), offset * math.sin(phi)), r1)
    return AnnularDomain(Circle((0.0, 0.0), 2.0), hole)


def ellipse_member(rng) -> AnnularDomain:
    """Ellipse (2, b) with a rectangular hole scaled into class S.

    The ranges bracket the two members of analysis.ellipse_members; a
    draw whose scaled hole does not fit is drawn again.
    """
    while True:
        outer = Ellipse((0.0, 0.0), 2.0, float(rng.uniform(1.3, 1.8)))
        hole = PolygonCurve(
            ConvexPolygon.rectangle(float(rng.uniform(1.0, 1.6)), float(rng.uniform(0.8, 1.3)))
        )
        try:
            scale = geometry.scale_hole_to_class_s(outer, hole)
            return AnnularDomain(outer, hole.scaled(scale))
        except (ContainmentError, InfeasibleError):
            continue


def concentric_shell(rng) -> AnnularDomain:
    return AnnularDomain(Circle((0.0, 0.0), 2.0), Circle((0.0, 0.0), float(rng.uniform(0.8, 1.2))))


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    batch: Callable  # rng -> list of operation inputs
    run: Callable  # input -> output
    check: Callable  # (input, output) -> (wrong numbers, unmet clauses, red by design)
    eigenvalues: Callable  # output -> eigenvalues kept in the reference file


def _stratified(rng, lo: float, hi: float, k: int) -> list:
    """One uniform draw from each of k equal slices of [lo, hi), shuffled."""
    edges = np.linspace(lo, hi, k + 1)
    return [float(rng.uniform(edges[i], edges[i + 1])) for i in rng.permutation(k)]


def _shell_batch(rng):
    """16 shells: each dimension 2..8 two or three times; beta = 0,
    beta = inf and one log-uniform draw from each of 14 equal slices of
    log10 beta in [-3, 12]; R1 and R2 - R1 one draw from each of 16 equal
    slices of their ranges.  Stratifying keeps the mix of cheap and
    costly solves, and of large-beta failures, alike across batches and
    seeds."""
    dims = np.concatenate([rng.permutation(7), rng.permutation(7), rng.permutation(7)[:2]]) + 2
    betas = [0.0, math.inf] + [10.0**e for e in _stratified(rng, -3.0, 12.0, 14)]
    r1s, widths = _stratified(rng, 0.4, 1.5, 16), _stratified(rng, 0.4, 2.0, 16)
    return [(int(n), r1, r1 + w, beta) for n, beta, r1, w in zip(dims, betas, r1s, widths)]


def _shell_run(op):
    return radial.solve_shell(*op)


def _shell_check(op, result):
    n, r1, r2, beta = op
    lam = result.lam
    wrong = []
    exact = bessel_eigenvalue(n, r1, r2, beta)
    if _rel(lam, exact) > 1e-9:
        wrong.append(f"bessel rel {_rel(lam, exact):.2e} > 1e-9")
    fd, fd_err = fd_eigenvalue(n, r1, r2, beta)
    if abs(lam - fd) > 1e-6 * lam + fd_err:
        wrong.append(f"fd rel {_rel(lam, fd):.2e} > 1e-6 + own error {fd_err / lam:.1e}")
    if n == 3:
        cf = radial.closed_form_3d(r1, r2, beta)
        if _rel(lam, cf) > 1e-9:
            wrong.append(f"closed_form_3d rel {_rel(lam, cf):.2e} > 1e-9")
    return wrong, [], []


def _theorem_batch(rng):
    members = [eccentric_pair(rng), ellipse_member(rng)]
    return [(dom, beta) for dom in members for beta in THEOREM_BETAS]


def _theorem_run(op):
    domain, beta = op
    return analysis.main_theorem_sweep([domain], beta, resolution=THEOREM_RES)[0]


def _theorem_check(op, report):
    if report.passed:
        return [], [], []
    margin = f"shell maximality margin {report.margin:+.3e} < -tol {report.tolerance:.3e}"
    return [], [margin], []


def _split_contained(domain: AnnularDomain, beta: float) -> bool:
    """Whether the hole's parallel body at the split distance stays inside
    the outer curve, where the split area law is Steiner-exact."""
    r1, r2, _ = geometry.class_s_data(domain)
    r_bar = radial.solve_shell(2, r1, r2, beta).r_bar
    s_free = float(np.min(domain.outer.distance(domain.inner.sample(webfunc.CLIP_SAMPLES))))
    perim = domain.inner.perimeter()
    return math.pi * (r_bar**2 - r1 * r1) <= perim * s_free + math.pi * s_free**2


def _web_batch(rng):
    ops = [
        ("shell", concentric_shell(rng), _log_uniform(rng, 0.1, 10.0)),
        ("eccentric", eccentric_pair(rng), _log_uniform(rng, 0.1, 10.0)),
    ]
    # About one uniform draw in five has a split past the free distance;
    # find_split then bisects over polygon clippings for 7-10 s, which
    # would more than double the batch's time.  Those draws are redrawn here.
    while True:
        member, beta = ellipse_member(rng), _log_uniform(rng, 0.1, 10.0)
        if _split_contained(member, beta):
            return ops + [("ellipse", member, beta)]


def _web_run(op):
    _, domain, beta = op
    return webfunc.chain_certificate(domain, beta, n_r=WEB_RES[0], n_a=WEB_RES[1])


def _web_check(op, rep):
    unmet, noted = [], []
    if not rep["chain_ok"]:
        unmet.append(
            f"chain fem {rep['lambda_fem']:.6g} <= R(w) {rep['rayleigh']:.6g} "
            f"<= 1.02 shell {rep['lambda_shell']:.6g} fails"
        )
    if op[0] == "shell":
        ident = _rel(rep["rayleigh"], rep["lambda_shell"])
        if not rep["certified"] or ident > 1e-6:
            unmet.append(f"shell web certified={rep['certified']} identity rel {ident:.2e}")
    elif not rep["certified"]:
        noted.append("criterion 5: web uncertified off the shell")
    return [], unmet, noted


def _shape_batch(rng):
    offset = float(rng.uniform(0.3, 0.7))
    phi = float(rng.uniform(0.0, 2.0 * math.pi))
    u = (math.cos(phi), math.sin(phi))
    ecc = AnnularDomain(Circle((0.0, 0.0), 2.0), Circle((offset * u[0], offset * u[1]), 1.0))
    pull = analysis.PerturbationField(kind="translation", target="inner", vector=u)
    shell = AnnularDomain(Circle((0.0, 0.0), 2.0), Circle((0.0, 0.0), 1.0))
    mode = analysis.PerturbationField(
        kind="normal_fourier", target="outer", mode=int(rng.integers(2, 7)), amplitude=1.0
    )
    return [("translation", ecc, pull, 1e-3), ("stationarity", shell, mode, 5e-3)]


def _shape_run(op):
    _, domain, field, t_step = op
    base = fem.solve_domain(domain, 1.0, *SHAPE_RES)
    formula = analysis.shape_derivative_formula(domain, 1.0, field, base)
    fd, noise = analysis.shape_derivative_fd_with_noise(domain, 1.0, field, t_step, SHAPE_RES)
    return {"formula": formula, "fd": fd, "noise": noise, "lam": base.lam}


def _shape_check(op, out):
    if op[0] == "translation":
        rel = _rel(out["formula"], out["fd"])
        return [], ([] if rel <= 5e-2 else [f"translation rel {rel:.2e} > 5e-2"]), []
    if abs(out["formula"]) <= 10.0 * out["noise"]:
        return [], [], []
    floor = 10.0 * out["noise"]
    return [], [f"stationarity {abs(out['formula']):.2e} > 10x floor {floor:.2e}"], []


WORKLOADS = {
    w.name: w
    for w in (
        Workload("shell_sweep", _shell_batch, _shell_run, _shell_check, lambda res: [res.lam]),
        Workload(
            "theorem_sweep", _theorem_batch, _theorem_run, _theorem_check,
            lambda rep: [rep.lhs, rep.rhs],
        ),
        Workload(
            "web_chain", _web_batch, _web_run, _web_check,
            lambda rep: [rep["lambda_fem"], rep["lambda_shell"]],
        ),
        Workload(
            "shape_derivative", _shape_batch, _shape_run, _shape_check,
            lambda out: [out["lam"]],
        ),
    )
}


def batch_rng(seed: int, workload: str, index: int):
    return np.random.default_rng([seed, list(WORKLOADS).index(workload), index])


def warm_up() -> None:
    """One small call per layer, so lazy imports and first-call costs land
    in set-up rather than in the first timed operation."""
    rng = np.random.default_rng(0)
    member = ellipse_member(rng)
    radial.solve_shell(2, 1.0, 2.0, 1.0)
    bessel_eigenvalue(3, 1.0, 2.0, 1.0)
    radial.closed_form_3d(1.0, 2.0, 1.0)
    radial.solve_shell_fd(2, 1.0, 2.0, 1.0, 200)
    analysis.main_theorem_sweep([eccentric_pair(rng)], 1.0, resolution=(6, 24))
    webfunc.chain_certificate(member, 1.0, n_r=6, n_a=24, quad_level=(16, 64))
    shell = concentric_shell(rng)
    mode = analysis.PerturbationField(kind="normal_fourier", target="outer", mode=2, amplitude=1.0)
    base = fem.solve_domain(shell, 1.0, 6, 24)
    fem_eigenvalue_problems([(base.mesh, 1.0, base.lam)])
    analysis.shape_derivative_formula(shell, 1.0, mode, base)
    analysis.shape_derivative_fd_with_noise(shell, 1.0, mode, 5e-3, (6, 24))


def fem_eigenvalue_problems(solves) -> list:
    """Cross-check FEM eigenvalues against eigsh(sigma=0) to 1e-10 relative.

    Each (mesh, beta, lambda) is re-assembled with fem.assemble and the
    smallest eigenvalue of the same pencil is taken by shift-invert
    Lanczos, an eigensolver independent of fem.smallest_eigenpair.
    """
    problems = []
    for mesh, beta, lam in solves:
        dirichlet = math.isinf(beta)
        a, m, _ = fem.assemble(mesh, 0.0 if dirichlet else beta, dirichlet)
        a, m = getattr(a, "mat", a), getattr(m, "mat", m)
        ref = eigsh(a.tocsc(), k=1, M=m.tocsc(), sigma=0.0, which="LM", return_eigenvectors=False)
        if _rel(lam, float(ref[0])) > 1e-10:
            problems.append(f"fem lambda {lam!r} vs eigsh {float(ref[0])!r}")
    return problems
