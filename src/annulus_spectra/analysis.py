"""Cross-cutting certificates: shape derivatives, spectral bounds, sweeps.

Everything here compares two independent routes to the same quantity: the
boundary-integral eigenvalue derivative against centered differences of
matched-mesh FEM solves, the Robin eigenvalue against its Dirichlet
ceiling and reciprocal-gap bounds, the FEM eigenvalue of each class-S
domain against the matched shell's radial eigenvalue, and the small- and
large-beta limits against the Neumann and Dirichlet closures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CurvatureUnavailableError, InfeasibleError, RangeError
from .fem import FemEigenResult, beta_form_value, boundary_residual, coarse_resolution, solve_domain
from .geometry import (
    CLASS_S_RTOL,
    AnnularDomain,
    Circle,
    ConvexPolygon,
    Ellipse,
    PolygonCurve,
    ShellSpec,
    class_s_data,
    inradius,
    scale_hole_to_class_s,
)
from .radial import EPS, LAMBDA_RTOL, _dphi, _phi, solve_shell


@dataclass(frozen=True)
class PerturbationField:
    """Boundary velocity field for domain perturbations.

    kind 'translation' moves the target curve rigidly by `vector`; kind
    'normal_fourier' displaces it along its own outward normal with
    amplitude cos(mode * angle) where the angle is measured around the
    domain center.  velocity_normal_component gives <V, nu> against the
    annulus's outward normal nu, which on the hole is minus the hole's own:
    a hole that grows where cos(mode * angle) > 0 has <V, nu> < 0 there.
    The perturbed curve is the polygon through the moved mesh-ray
    crossings, so its vertices stay on the mesh rays only where the normal
    is radial, as on a circle about the domain center; on the eccentric
    pair at t = 5e-3 the outer ring nodes sit up to 1.3e-3 from them.
    """

    kind: str
    target: str
    vector: tuple = None
    mode: int = 0
    amplitude: float = 0.0

    def __post_init__(self):
        if self.kind not in ("translation", "normal_fourier"):
            raise RangeError(f"unknown perturbation kind {self.kind!r}")
        if self.kind == "translation":
            if self.target not in ("outer", "inner", "both"):
                raise RangeError("translation target must be outer, inner or both")
            if self.vector is None:
                raise RangeError("translation needs a vector")
            object.__setattr__(self, "vector", tuple(map(float, self.vector)))
        else:
            if self.target not in ("outer", "inner"):
                raise RangeError("normal perturbation target must be outer or inner")
            # cos(mode * angle) is 2 pi-periodic only for whole modes
            mode = self.mode
            if isinstance(mode, bool) or not isinstance(mode, (int, np.integer)) or mode < 1:
                raise RangeError(f"Fourier mode must be an integer >= 1, got {mode!r}")

    def applies_to(self, which: str) -> bool:
        return self.target == which or self.target == "both"

    def velocity_normal_component(self, domain: AnnularDomain, points, which: str) -> np.ndarray:
        """<V, nu> at boundary points of the named curve."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if not self.applies_to(which):
            return np.zeros(len(pts))
        curve = domain.outer if which == "outer" else domain.inner
        normal = curve.outward_normal(pts)
        # outward normal of the annulus points into the hole
        nu = -normal if which == "inner" else normal
        if self.kind == "translation":
            return nu @ np.asarray(self.vector)
        rel = pts - domain.center
        theta = np.arctan2(rel[:, 1], rel[:, 0])
        return self.amplitude * np.cos(self.mode * theta) * np.sum(normal * nu, axis=1)

    def perturbed(self, domain: AnnularDomain, t: float, n_poly: int) -> AnnularDomain:
        """Domain moved by t V, polygonized on the mesh rays when needed."""
        outer, inner = domain.outer, domain.inner
        if self.kind == "translation":
            shift = t * np.asarray(self.vector)
            if self.applies_to("outer"):
                outer = outer.translated(shift)
            if self.applies_to("inner"):
                inner = inner.translated(shift)
            center = domain.center + shift if self.applies_to("inner") else domain.center
            return AnnularDomain(outer, inner, center=center)
        curve = outer if self.target == "outer" else inner
        theta = 2.0 * np.pi * np.arange(n_poly) / n_poly
        dirs = np.column_stack([np.cos(theta), np.sin(theta)])
        base = domain.center + curve.ray_length(domain.center, dirs)[:, None] * dirs
        nu = curve.outward_normal(base)
        moved = base + t * self.amplitude * np.cos(self.mode * theta)[:, None] * nu
        poly = PolygonCurve(ConvexPolygon(moved))
        if self.target == "outer":
            return AnnularDomain(poly, inner, center=domain.center)
        return AnnularDomain(outer, poly, center=domain.center)


def _ring_arclength_weights(points: np.ndarray):
    """Trapezoid weights and neighbor spans on a closed polyline."""
    nxt = np.roll(points, -1, axis=0)
    ds = np.hypot(*(nxt - points).T)
    weights = 0.5 * (ds + np.roll(ds, 1))
    return weights, ds


def shape_derivative_formula(
    domain: AnnularDomain, beta: float, field: PerturbationField, fem: FemEigenResult
) -> float:
    """Boundary-integral first derivative of the eigenvalue along the field.

    Each curve adds the integral of its integrand times <V, nu>, with nu
    the annulus's outward normal (into the hole on the inner curve).  On a
    Dirichlet ring, the hole always and the outer curve at beta = inf, only
    the squared flux survives, with a negative sign; the flux is recovered
    variationally from the ring's row of boundary_residual, which is exact
    for the discrete eigenpair.  On the Robin outer ring the integrand is
    |grad u|^2 + beta kappa u^2 - (lambda + 2 beta^2) u^2 with the
    tangential derivative recovered along the ring and the normal one from
    the boundary condition.
    """
    for curve in (domain.outer, domain.inner):
        if isinstance(curve, PolygonCurve):
            raise CurvatureUnavailableError("shape derivative needs smooth boundary curves")
    mesh = fem.mesh
    lam, u = fem.lam, fem.u
    n_r, n_a = mesh.resolution
    hole, outer = boundary_residual(fem)

    total = 0.0
    for which, ring, residual in (("outer", slice(n_r * n_a, None), outer), ("inner", slice(n_a), hole)):
        if not field.applies_to(which):
            continue
        pts = mesh.nodes[ring]
        weights, ds = _ring_arclength_weights(pts)
        vn = field.velocity_normal_component(domain, pts, which)
        if which == "inner" or beta == np.inf:
            flux = residual / weights
            total -= float(np.sum(weights * flux**2 * vn))
        else:
            ub = u[ring]
            du_t = (np.roll(ub, -1) - np.roll(ub, 1)) / (ds + np.roll(ds, 1))
            kappa = domain.outer.curvature_at(pts)
            grad2 = du_t**2 + (beta * ub) ** 2
            integrand = grad2 + beta * kappa * ub**2 - (lam + 2.0 * beta**2) * ub**2
            total += float(np.sum(weights * integrand * vn))
    return total


def shape_derivative_fd(
    domain: AnnularDomain,
    beta: float,
    field: PerturbationField,
    t_step: float,
    resolution,
):
    """(centered difference, (lambda(+t_step), lambda(-t_step))) of the
    eigenvalue over matched meshes.  Both perturbed solves are seeded with
    the base eigenpair, which lies on the same rings x rays grid."""
    if not (t_step > 0.0 and np.isfinite(t_step)):  # also rejects nan
        raise RangeError(f"finite-difference step must be positive and finite, got {t_step!r}")
    n_r, n_a = resolution
    base = solve_domain(domain, beta, n_r, n_a)
    lams = tuple(
        solve_domain(field.perturbed(domain, t, n_a), beta, n_r, n_a, seed=base).lam
        for t in (t_step, -t_step)
    )
    return (lams[0] - lams[1]) / (2.0 * t_step), lams


def shape_derivative_fd_with_noise(
    domain: AnnularDomain,
    beta: float,
    field: PerturbationField,
    t_step: float,
    resolution,
):
    """(Richardson value, noise floor) from step halving.

    The floor is the larger of the Richardson correction and the round-off
    of a centered difference, 1e-11 lambda / t_step, with lambda the
    smallest of the four perturbed eigenvalues being differenced.
    """
    coarse, lams = shape_derivative_fd(domain, beta, field, t_step, resolution)
    fine, lams_fine = shape_derivative_fd(domain, beta, field, t_step / 2.0, resolution)
    value = (4.0 * fine - coarse) / 3.0
    lam_scale = min(lams + lams_fine)
    noise = max(abs(fine - coarse) / 3.0, 1e-11 * lam_scale / t_step)
    return value, noise


# ---------------------------------------------------------------------------
# inequality reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InequalityReport:
    """One checked inequality lhs <= rhs, passed when margin = rhs - lhs
    is at least -tolerance.  A strict inequality moves its bound to the
    next float toward 0 (np.nextafter); a count of violations is the record
    (count, 0, 0).  Numbers are stored as Python floats, for plain JSON."""

    name: str
    lhs: float
    rhs: float
    tolerance: float
    context: dict = None

    def __post_init__(self):
        for attr in ("lhs", "rhs", "tolerance"):
            object.__setattr__(self, attr, float(getattr(self, attr)))

    @classmethod
    def between(cls, name, lo, value, hi, tolerance, context=None):
        """lo <= value <= hi, recorded by its side with the smaller margin."""
        return min(
            cls(name, lo, value, tolerance, context),
            cls(name, value, hi, tolerance, context),
            key=lambda rep: rep.margin,
        )

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.margin >= -self.tolerance

    def as_dict(self) -> dict:
        data = {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }
        if self.context:
            data["context"] = self.context
        return data


def _outer_inradius(domain: AnnularDomain) -> float:
    curve = domain.outer
    if isinstance(curve, Ellipse):
        return min(curve.a, curve.b)
    return inradius(curve.polygon)


def kuttler_bounds(target, beta: float, resolution=(48, 192)) -> list:
    """Dirichlet ceiling and reciprocal-gap bounds at one beta.

    Checks lambda(beta) <= lambda_DD and the two upper bounds for
    1/lambda(beta) - 1/lambda_DD: |Omega| / (beta P(Omega0)) from the
    constant test function and its inradius relaxation, which are stated
    for beta > 0.
    """
    if not beta > 0.0:  # also rejects nan
        raise RangeError(f"reciprocal-gap bounds need beta > 0, got {beta!r}")
    if isinstance(target, ShellSpec):
        lam = solve_shell(target.dim, target.r_inner, target.r_outer, beta).lam
        lam_dd = solve_shell(target.dim, target.r_inner, target.r_outer, float("inf")).lam
        volume, perimeter, rho = target.volume, target.outer_area, target.r_outer
        context = {
            "method": "radial", "dim": int(target.dim), "r1": target.r_inner, "r2": target.r_outer
        }
        disc = 1e-9 * lam
    else:
        n_r, n_a = resolution
        lam = solve_domain(target, beta, n_r, n_a).lam
        lam_dd = solve_domain(target, float("inf"), n_r, n_a).lam
        lam_c = solve_domain(target, beta, *coarse_resolution(n_r, n_a)).lam
        volume, perimeter, rho = target.area, target.outer.perimeter(), _outer_inradius(target)
        context = {"method": "fem", "resolution": f"{n_r}x{n_a}"}
        disc = abs(lam - lam_c)
    context["beta"] = beta
    tol = max(1e-8, 2.0 * disc)
    gap = 1.0 / lam - 1.0 / lam_dd
    return [
        InequalityReport("robin_below_dirichlet", lam, lam_dd, tol, context),
        InequalityReport(
            "reciprocal_gap_volume_bound", gap, volume / (beta * perimeter),
            tol / lam**2, context,
        ),
        InequalityReport(
            "reciprocal_gap_inradius_bound", gap, rho / beta, tol / lam**2, context
        ),
    ]


def main_theorem_sweep(family, beta: float, resolution=(48, 192)) -> list:
    """Shell maximality check over a family of class-S domains.

    Each domain's FEM eigenvalue must not exceed the matched shell's
    radial eigenvalue beyond twice the discretization-error estimate,
    itself taken conservatively as the full coarse-to-fine difference.
    """
    n_r, n_a = resolution
    reports = []
    for idx, domain in enumerate(family):
        r1, r2, residual = class_s_data(domain)
        if abs(residual) > CLASS_S_RTOL * domain.area:
            raise InfeasibleError(
                f"family member {idx} is not in class S "
                f"(relative residual {residual / domain.area:.3e})"
            )
        lam_fine = solve_domain(domain, beta, n_r, n_a).lam
        lam_coarse = solve_domain(domain, beta, *coarse_resolution(n_r, n_a)).lam
        err_est = abs(lam_fine - lam_coarse)
        lam_shell = solve_shell(2, r1, r2, beta).lam
        reports.append(
            InequalityReport(
                f"shell_maximality[{idx}]",
                lam_fine,
                lam_shell,
                2.0 * err_est,
                {
                    "beta": beta,
                    "shell": (r1, r2),
                    "resolution": f"{n_r}x{n_a}",
                    "fem_error_estimate": err_est,
                },
            )
        )
    return reports


@dataclass(frozen=True)
class BetaLimitsReport:
    """Beta table with its limit clauses: clauses maps each flag below
    (nd_bracket_ok, dd_gap_ok, monotone, strictly_monotone) to its record."""

    betas: np.ndarray
    lams: np.ndarray
    lam_nd: float
    lam_dd: float
    nd_gap_rel: float
    nd_slope: float
    nd_bracket_lo: float
    nd_bracket_hi: float
    method: str
    clauses: dict

    monotone = property(lambda self: self.clauses["monotone"].passed)
    strictly_monotone = property(lambda self: self.clauses["strictly_monotone"].passed)
    nd_bracket_ok = property(lambda self: self.clauses["nd_bracket_ok"].passed)
    dd_gap_ok = property(lambda self: self.clauses["dd_gap_ok"].passed)
    nd_bracket_allowance = property(lambda self: self.clauses["nd_bracket_ok"].tolerance)
    dd_gap = property(lambda self: self.clauses["dd_gap_ok"].lhs)
    dd_gap_bound = property(lambda self: self.clauses["dd_gap_ok"].rhs)

    @property
    def checks(self) -> list:
        """Both limits, and a table that rises strictly (radial) or never falls (FEM)."""
        order = "strictly_monotone" if self.method == "radial" else "monotone"
        return [self.clauses[name] for name in ("nd_bracket_ok", "dd_gap_ok", order)]

    def as_dict(self) -> dict:
        return {
            "betas": self.betas.tolist(),
            "lambdas": self.lams.tolist(),
            "lambda_nd": self.lam_nd,
            "lambda_dd": self.lam_dd,
            "nd_gap_rel": self.nd_gap_rel,
            "nd_slope": self.nd_slope,
            "nd_bracket_lo": self.nd_bracket_lo,
            "nd_bracket_hi": self.nd_bracket_hi,
            "nd_bracket_allowance": self.nd_bracket_allowance,
            "dd_gap": self.dd_gap,
            "dd_gap_bound": self.dd_gap_bound,
            "method": self.method,
            **{name: rep.passed for name, rep in self.clauses.items()},
        }


def _radial_boundary_ratio(result):
    """(s, error of s) for s = R2^(n-1) phi(R2)^2 / int phi^2 r^(n-1) dr, beta finite.

    The mass is F(R2) - F(R1) by Lommel's integral (DLMF 10.22.5): F(r) =
    (r^n / 2) [phi^2 + (phi'^2 + (n-2) phi phi' / r) / lambda], with F(R1) =
    R1^n / (2 lambda) and phi'(R2) = -beta v_m.  The error is the largest
    change of s in closed form at lambda (1 -+ LAMBDA_RTOL), plus 32 eps per
    unit of the cancellation (F(R2) + F(R1)) / (F(R2) - F(R1)), which
    amplifies the rounding of v_m (at most 14 units against 60-digit quadrature).
    """
    n, r1, r2 = result.shell.dim, result.shell.r_inner, result.shell.r_outer

    def ratio(lam, v, dv):
        head, tail = r2**n * (v * v + (dv * dv + (n - 2.0) * v * dv / r2) / lam), r1**n / lam
        return 2.0 * r2 ** (n - 1) * v * v / (head - tail), (head + tail) / (head - tail)

    s, cancel = ratio(result.lam, result.v_m, -result.beta * result.v_m)
    lam = result.lam * np.array([1.0 - LAMBDA_RTOL, 1.0 + LAMBDA_RTOL])
    nu, k = 0.5 * n - 1.0, np.sqrt(lam)
    shifted = ratio(lam, _phi(nu, k, r1, r2), _dphi(nu, k, r1, r2))[0]
    return float(s), float(np.max(np.abs(shifted - s)) + 32.0 * EPS * cancel * s)


def beta_limits_check(target, resolution=(48, 192), betas=None) -> BetaLimitsReport:
    """Eigenvalue table over an increasing grid of beta with endpoint limits.

    The table must be nondecreasing (strictly so for the radial route).
    The smallest beta b0 is compared with the Neumann closure lambda_ND
    through the small-beta bracket (nd_bracket_ok; nd_gap_rel only reports
    their relative gap)

        lambda_ND + (b0 / b1) (lambda(b1) - lambda_ND) <= lambda(b0)
                                                       <= lambda_ND + b0 s,

    with b1 the next grid point and s = int_Gout u_ND^2 / int u_ND^2 the
    boundary-to-volume ratio of the Neumann eigenfunction (its slope
    dlambda/dbeta at 0+).  The upper end is the min-max principle with u_ND
    as test function; the lower end is concavity of lambda in beta, a
    minimum of functions affine in beta, and is lambda_ND for a single
    beta.  On the FEM route s is beta_form_value of the beta = 0 solve on
    the same mesh, so both ends hold exactly for the discrete pencil.  The
    bracket is widened by an allowance summed from the solvers' stated
    tolerances (LAMBDA_RTOL radially, the eigensolver's residual bound for
    FEM) and the error of s, which the radial route takes in closed form
    (_radial_boundary_ratio).  The largest beta is compared with the
    Dirichlet closure through the constant-test-function gap bound.
    """
    if betas is None:
        betas = np.logspace(-3, 4, 8)
    betas = np.asarray(betas, dtype=float)
    if (
        betas.ndim != 1
        or len(betas) == 0
        or not np.all(np.isfinite(betas))
        or betas[0] <= 0.0
        or np.any(np.diff(betas) <= 0.0)
    ):
        raise RangeError("betas must be a nonempty increasing grid of positive finite values")
    if isinstance(target, ShellSpec):
        method = "radial"
        solve = lambda b: solve_shell(target.dim, target.r_inner, target.r_outer, b)
        lam_tol = lambda res: LAMBDA_RTOL * res.lam
        slope_of = _radial_boundary_ratio
        volume = target.volume
        perimeter = target.outer_area
    else:
        method = "fem"
        solve = lambda b: solve_domain(target, b, *resolution)
        lam_tol = lambda res: res.stats["error_bound"]
        slope_of = lambda res: (beta_form_value(res), 0.0)
        volume = target.area
        perimeter = target.outer.perimeter()
    results = [solve(b) for b in betas]
    lams = np.array([res.lam for res in results])
    nd = solve(0.0)
    lam_nd = nd.lam
    lam_dd = solve(float("inf")).lam
    nd_gap_rel = abs(lams[0] - lam_nd) / lam_nd

    slope, slope_err = slope_of(nd)
    b0 = betas[0]
    bracket_hi = lam_nd + b0 * slope
    allowance = lam_tol(results[0]) + lam_tol(nd) + b0 * slope_err
    if len(betas) > 1:
        weight = b0 / betas[1]
        bracket_lo = lam_nd + weight * (lams[1] - lam_nd)
        allowance += weight * lam_tol(results[1])
    else:
        bracket_lo = lam_nd

    dd_gap = 1.0 / lams[-1] - 1.0 / lam_dd
    dd_bound = volume / (betas[-1] * perimeter)
    diffs = np.diff(lams)
    # violation counts: falls beyond round-off, and steps that do not rise
    falls, flat = np.sum(diffs < -1e-12 * lams[:-1]), np.sum(diffs <= 0.0)
    clauses = {
        "nd_bracket_ok": InequalityReport.between(
            f"{method}.nd_bracket_ok", bracket_lo, lams[0], bracket_hi, allowance, {"beta": b0}
        ),
        "dd_gap_ok": InequalityReport(
            f"{method}.dd_gap_ok", dd_gap, dd_bound, 1e-9 * dd_bound, {"beta": betas[-1]}
        ),
        "monotone": InequalityReport(f"{method}.monotone", falls, 0, 0),
        "strictly_monotone": InequalityReport(f"{method}.strictly_monotone", flat, 0, 0),
    }
    return BetaLimitsReport(
        betas=betas,
        lams=lams,
        lam_nd=lam_nd,
        lam_dd=lam_dd,
        nd_gap_rel=float(nd_gap_rel),
        nd_slope=float(slope),
        nd_bracket_lo=float(bracket_lo),
        nd_bracket_hi=float(bracket_hi),
        method=method,
        clauses=clauses,
    )


# ---------------------------------------------------------------------------
# the standard class-S verification family
# ---------------------------------------------------------------------------


def eccentric_family(gap=0.08):
    """The (1, 2) shell plus eccentric annuli, hole offsets f (1 - gap)."""
    domains = [AnnularDomain(Circle((0, 0), 2.0), Circle((0, 0), 1.0))]
    for f in (0.1, 0.3, 0.5, 0.7, 0.9):
        domains.append(AnnularDomain(Circle((0, 0), 2.0), Circle((f * (1.0 - gap), 0), 1.0)))
    return domains


def ellipse_members():
    """Two class-S members with elliptic outer body and rectangular hole."""
    members = []
    for (a, b), (w, h) in (((2.0, 1.6), (1.5, 1.0)), ((2.0, 1.4), (1.2, 1.2))):
        outer = Ellipse((0, 0), a, b)
        hole = PolygonCurve(ConvexPolygon.rectangle(w, h))
        s = scale_hole_to_class_s(outer, hole)
        members.append(AnnularDomain(outer, hole.scaled(s)))
    return members


def standard_family(gap=0.08):
    return eccentric_family(gap=gap) + ellipse_members()

