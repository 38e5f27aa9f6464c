import functools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from annulus_spectra.analysis import standard_family
from annulus_spectra.fem import solve_domain
from annulus_spectra.geometry import AnnularDomain, Circle, ConvexPolygon, Ellipse, PolygonCurve
from annulus_spectra.webfunc import build_web, rayleigh_quotient

EPS = float(np.finfo(float).eps)
FAMILY = standard_family()
# (x, y) -> (-y, x) and (x, y) -> (-x, y); each maps the mesh's rays, at
# angles 2 pi k / n_a with 4 | n_a, onto rays
TRANSFORMS = {"quarter_turn": np.array([[0.0, -1.0], [1.0, 0.0]]), "mirror": np.diag([-1.0, 1.0])}
# The transformed domain is the same domain in exact arithmetic, but the
# turned rays' cos and sin, the foot points and the nested-dissection order
# of the turned grid round differently: over the family lambda_h at 16x64
# moved by at most 23 roundings, and R(w) by at most 4
ROUNDINGS = 32


def _transformed(dom: AnnularDomain, name: str) -> AnnularDomain:
    """dom under the orthogonal map TRANSFORMS[name], which swaps an
    ellipse's axes on a quarter turn and reverses a mirrored polygon's
    vertices to keep them counterclockwise."""
    q = TRANSFORMS[name]
    curves = []
    for curve in (dom.outer, dom.inner):
        if isinstance(curve, PolygonCurve):
            vertices = curve.polygon.vertices @ q.T
            if name == "mirror":
                vertices = vertices[::-1]
            curves.append(PolygonCurve(ConvexPolygon(vertices)))
        else:
            center = tuple(q @ np.asarray(curve.center))
            if isinstance(curve, Circle):
                curves.append(Circle(center, curve.radius))
            else:
                axes = (curve.b, curve.a) if name == "quarter_turn" else (curve.a, curve.b)
                curves.append(Ellipse(center, *axes))
    return AnnularDomain(*curves, q @ dom.center)


@functools.lru_cache(maxsize=None)
def _fem_lam(member, beta):
    return solve_domain(FAMILY[member], beta, 16, 64).lam


@functools.lru_cache(maxsize=None)
def _web_value(member, beta):
    return rayleigh_quotient(build_web(FAMILY[member], beta), allow_uncertified=True)[1]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    member=st.integers(0, len(FAMILY) - 1),
    beta=st.sampled_from([0.0, 0.1, 1.0, 10.0, math.inf]),
    name=st.sampled_from(sorted(TRANSFORMS)),
)
def test_fem_eigenvalue_is_invariant_under_rotation_and_reflection(member, beta, name):
    lam = solve_domain(_transformed(FAMILY[member], name), beta, 16, 64).lam
    expected = _fem_lam(member, beta)
    assert abs(lam - expected) <= ROUNDINGS * EPS * expected


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    member=st.integers(0, len(FAMILY) - 1),
    beta=st.sampled_from([0.1, 1.0, 10.0]),
    name=st.sampled_from(sorted(TRANSFORMS)),
)
def test_web_quotient_is_invariant_under_rotation_and_reflection(member, beta, name):
    web = build_web(_transformed(FAMILY[member], name), beta)
    value = rayleigh_quotient(web, allow_uncertified=True)[1]
    expected = _web_value(member, beta)
    assert abs(value - expected) <= ROUNDINGS * EPS * expected
