"""Projective points, model spaces, lines, the absolute and distances.

A model space is the projective quotient of a pseudo-sphere b^{-1}(+1) or
b^{-1}(-1).  Distances between points on a common line are computed two
ways: through the cross-ratio with the line's intersection with the
absolute (the projective route), and through arccos/arccosh inversion of
the ambient form evaluated on pseudo-sphere lifts (the closed-form route).
Both are exposed; they must agree and the tests hold them to that.

The projective route is |1/2 log r| for the cross-ratio r = [x, y, I, J] =
(h + s) / (h - s), in real arithmetic: a, h, c = b(x, x), b(x, y), b(y, y),
s = sqrt|h^2 - ac| (imaginary on elliptic lines), and no h - s is formed.

    elliptic, h^2 < ac      |r| = 1, d = atan2(s, |h|): half the angle of r
    hyperbolic, ac > 0      d = |log|r|| / 2, log|r| = 2 log(|h| + s) - log|ac|
    hyperbolic, ac < 0      r < 0, the points straddle the absolute:
                            d = hypot(log|r|, pi) / 2
    hyperbolic, ac = 0      a point on the absolute: d = inf
    parabolic               d = 0

The registry names the base chart of each co-space (S2 or H2).  ``chart_jet``
is that chart's one implementation, points and parameter derivatives, and
every chart-built patch, direction grid and sample set reads it.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from ._numerics import central_difference
from .forms import BilinearForm, bpq, co_euclidean_form, co_minkowski_form, affine_chart_form

__all__ = [
    "ProjPoint",
    "ModelSpace",
    "ProjLine",
    "AbsolutePair",
    "SPACES",
    "SpaceFamily",
    "space_family",
    "related",
    "transitions",
    "model_space",
    "chart_space",
    "base_form",
    "chart_jet",
    "line_through",
    "classify_line",
    "absolute_points",
    "cross_ratio",
    "projective_distance",
    "projective_distance_batch",
    "closed_form_distance",
    "pseudo_distance_lift",
    "pseudo_distance_quadrature",
    "geodesic_on_pseudosphere",
]

PARALLEL_ANGLE_TOL = 1e-10
DISC_RTOL = 1e-9


def _pow2_scaled(vec):
    """``vec`` times the exact power of two that brings its largest entry
    into [0.5, 1), so the squares in its norm stay in range."""
    return np.ldexp(vec, -np.frexp(np.max(np.abs(vec), initial=0.0))[1])


def _normalize_rep(vec):
    vec = _pow2_scaled(np.asarray(vec, dtype=float))
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise ValueError("projective point needs a nonzero representative")
    return _sign_fix(vec / norm)


class ProjPoint:
    """A point of RP^n: a homogeneous representative, normalized.

    The representative has unit Euclidean norm and positive last nonzero
    coordinate.  Equality is projective, up to angular tolerance 1e-10.
    """

    def __init__(self, rep):
        self.rep = _normalize_rep(rep)
        self.dim = self.rep.shape[0]

    def same_point(self, other, tol=PARALLEL_ANGLE_TOL):
        cross = 1.0 - abs(float(np.dot(self.rep, other.rep)))
        return cross <= tol

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.same_point(other)

    def __repr__(self):
        coords = ":".join(f"{c:.6g}" for c in self.rep)
        return f"[{coords}]"

    def to_dict(self):
        return {"rep": self.rep.tolist()}

    @classmethod
    def from_dict(cls, data):
        return cls(np.asarray(data["rep"], dtype=float))


class ModelSpace:
    """A bilinear form together with a sign selecting b^{-1}(+1) or b^{-1}(-1)."""

    def __init__(self, name, form, sign, chart_form=None):
        self.name = name
        self.form = form
        self.sign = int(sign)
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        # For Euc/Min the rank-one defining form carries no metric; the chart
        # metric on {x_{n+1}=1} is recorded separately, and they are not
        # degenerate spaces.
        self.chart_form = chart_form
        self.degenerate = chart_form is None and form.degenerate
        self.dim = form.dim  # ambient dimension n+1

    @property
    def n(self):
        return self.dim - 1

    def __repr__(self):
        return f"ModelSpace({self.name}, dim={self.n})"

    def contains(self, point):
        """Membership: some representative x has b(x, x) = sign.

        Rescaling the representative fixes the magnitude, so this amounts
        to sign * b(rep, rep) > 0 (for degenerate forms as well).
        """
        value = float(self.form(point.rep, point.rep))
        return self.sign * value > 0

    def lift(self, point):
        """Scale the normalized representative onto the pseudo-sphere
        b(x,x) = sign; the lift keeps its positive last nonzero coordinate."""
        x = point.rep if isinstance(point, ProjPoint) else _normalize_rep(point)
        q = float(self.form(x, x))
        if not self.sign * q > 0:  # the test of ``contains``; a NaN fails it
            raise ValueError(f"point {x} is not in {self.name}")
        return x / np.sqrt(abs(q))

    def random_points(self, rng, count):
        """Random points of the space, uniform-ish on the pseudo-sphere.

        Gaussian candidates are drawn in blocks; the block that completes
        the request is redrawn up to its last kept row, so ``rng`` advances
        exactly as if candidates were drawn one at a time.
        """
        blocks, need = [np.empty((0, self.dim))], count
        while need > 0:
            state = rng.bit_generator.state
            v = rng.standard_normal((2 * need + 16, self.dim))
            q = self.form.quad(v)
            kept = np.flatnonzero(self.sign * q > 1e-6 * np.einsum("ij,ij->i", v, v))[:need]
            if len(kept) == need:
                rng.bit_generator.state = state
                rng.standard_normal((kept[-1] + 1, self.dim))
            blocks.append(v[kept] / np.sqrt(np.abs(q[kept]))[:, None])
            need -= len(kept)
        return np.concatenate(blocks)

    def sample_points(self, rng, count, radius=1.2):
        """Well-conditioned pseudo-sphere points with bounded coordinates.

        Noncompact directions (hyperboloid sheets, degenerate fibers) are
        sampled within ``radius``, which keeps finite-difference work on
        the locus accurate.
        """
        form = base_form(self.name) if self.degenerate else self.form
        p, q, _ = form.signature
        pos, neg = np.diagonal(form.matrix) > 0, np.diagonal(form.matrix) < 0
        pts = np.empty((count, self.dim))
        for i in range(count):
            if (self.sign > 0 and q == 0) or (self.sign < 0 and p == 0):
                v = rng.standard_normal(form.dim)
                v = v / np.sqrt(abs(float(form.quad(v))))
            else:
                # split into the positive and negative eigenspaces of the
                # diagonal form and put cosh on the side matching the sign
                rho = rng.uniform(0, radius)
                u = rng.standard_normal(int(pos.sum()))
                u /= np.linalg.norm(u)
                w = rng.standard_normal(int(neg.sum()))
                w /= np.linalg.norm(w)
                ch, sh = np.cosh(rho), np.sinh(rho)
                v = np.zeros(form.dim)
                v[pos], v[neg] = (ch * u, sh * w) if self.sign > 0 else (sh * u, ch * w)
            pts[i, :form.dim] = v
            if self.degenerate:
                pts[i, -1] = rng.uniform(-radius, radius)
        return pts


class SpaceFamily(NamedTuple):
    """A model space in every dimension n, and its relations to the others.

    ``form(n)`` and ``sign`` give the pseudo-sphere b^{-1}(sign) in R^{n+1};
    ``curvature`` is +1, -1 or 0 (a co-space's is that of its base).  ``dual``
    is the space of the dual hyperplanes; a point (plane) blow-up along
    ``point_axis`` (``plane_axis``) lands in ``point_limit`` (``plane_limit``).
    Co-spaces name their base ``chart`` (S2/H2); flat spaces carry the
    metric ``chart_form(n)`` of their affine chart.
    """

    form: Callable[[int], BilinearForm]
    sign: int
    curvature: int
    dual: str
    point_limit: str | None = None
    plane_limit: str | None = None
    point_axis: int = -1
    plane_axis: int = -1
    chart: str | None = None
    chart_form: Callable[[int], BilinearForm] | None = None


SPACES = {
    "Ell": SpaceFamily(lambda n: bpq(n + 1, 0), +1, +1, "Ell", "Euc", "coEuc"),
    # the blown-up plane must meet Hyp: transverse to a space-like axis
    "Hyp": SpaceFamily(lambda n: bpq(n, 1), -1, -1, "dS", "Euc", "coMin", plane_axis=-2),
    # the blown-up point must lie in dS: a space-like axis
    "dS": SpaceFamily(lambda n: bpq(n, 1), +1, +1, "Hyp", "Min", "coEuc", point_axis=0),
    "AdS": SpaceFamily(lambda n: bpq(n - 1, 2), -1, -1, "AdS", "Min", "coMin"),
    "Euc": SpaceFamily(affine_chart_form, +1, 0, "coEuc", chart_form=lambda n: bpq(n, 0)),
    "Min": SpaceFamily(affine_chart_form, +1, 0, "coMin", chart_form=lambda n: bpq(n - 1, 1)),
    "coEuc": SpaceFamily(co_euclidean_form, +1, +1, "Euc", chart="S2"),
    "coMin": SpaceFamily(co_minkowski_form, -1, -1, "Min", chart="H2"),
}


def _split(name):
    base = name.rstrip("0123456789")
    if base not in SPACES:
        raise ValueError(f"unknown model space '{base}'")
    return base, name[len(base):]


def space_family(name):
    """The registry entry of a space name: space_family('Hyp3') is SPACES['Hyp']."""
    return SPACES[_split(name)[0]]


def related(name, relation):
    """The space a relation of the registry leads to, in the same
    dimension: related('Hyp3', 'dual') == 'dS3'."""
    base, digits = _split(name)
    target = getattr(SPACES[base], relation)
    if target is None:
        raise ValueError(f"{name} has no {relation.replace('_', ' ')}")
    return target + digits


def transitions(kind, n):
    """(source, target) names of every canonical ``kind`` blow-up ('point'
    or 'plane') in dimension n, grouped by target in registry order."""
    return [(f"{b}{n}", f"{t}{n}") for t in SPACES for b, spec in SPACES.items()
            if getattr(spec, f"{kind}_limit") == t]


def model_space(name):
    """Named model spaces: a registry name and its dimension n, like 'Ell2',
    'Hyp3', 'dS2', 'AdS3', 'coEuc3', 'coMin3', 'Euc3', 'Min3'."""
    base, digits = _split(name)
    if not digits:
        raise ValueError("dimension missing: use e.g. 'Ell2'")
    n = int(digits)
    spec = SPACES[base]
    chart_form = spec.chart_form and spec.chart_form(n)
    return ModelSpace(f"{base}{n}", spec.form(n), spec.sign, chart_form)


def chart_space(chart):
    """The co-space in dimension 3 whose base is ``chart``, S2 or H2."""
    return {spec.chart: f"{base}3" for base, spec in SPACES.items() if spec.chart}[chart]


def base_form(name):
    """The form of a co-space's base, the chart form of its dual: a point of
    coEuc3 is a plane of Euc3, its base point the plane's unit normal."""
    flat, digits = _split(related(name, "dual"))
    return SPACES[flat].chart_form(int(digits))


def chart_jet(base, U, V, order=0):
    """Points of a base chart and their parameter derivatives up to ``order``.

    ``base`` is a registry ``chart``, S2 (polar angle, azimuth) or H2
    (rapidity, azimuth), or "flat", the identity chart of the plane.
    Returns ``[points (..., k), jacobian (..., k, 2), hessian (..., k, 2, 2)]``
    cut after ``order`` derivatives, k = 3 (2 for the plane).  S2 and H2
    differ only in (s, c) = (sin, cos) or (sinh, cosh) of U, with c' = -kappa s
    for the base curvature kappa = +1 or -1.
    """
    if base == "flat":
        U, V = np.broadcast_arrays(np.asarray(U, dtype=float), np.asarray(V, dtype=float))
        return [np.stack([U, V], axis=-1), np.broadcast_to(np.eye(2), U.shape + (2, 2)),
                np.zeros(U.shape + (2, 2, 2))][:order + 1]
    kappa = space_family(chart_space(base)).curvature
    s, c = (np.sin(U), np.cos(U)) if kappa > 0 else (np.sinh(U), np.cosh(U))
    sp, cp = np.sin(V), np.cos(V)
    points = np.stack([s * cp, s * sp, c], axis=-1)
    jet = [points]
    if order >= 1:
        zero = np.zeros_like(s)
        d_u = np.stack([c * cp, c * sp, -kappa * s], axis=-1)
        d_v = np.stack([-s * sp, s * cp, zero], axis=-1)
        jet.append(np.stack([d_u, d_v], axis=-1))
    if order >= 2:
        hess = np.empty(points.shape + (2, 2))
        hess[..., 0, 0] = -kappa * points
        hess[..., 0, 1] = hess[..., 1, 0] = np.stack([-c * sp, c * cp, zero], axis=-1)
        hess[..., 1, 1] = np.stack([-s * cp, -s * sp, zero], axis=-1)
        jet.append(hess)
    return jet


class ProjLine:
    """A projective line: the span of two independent ambient vectors.

    The stored generators are orthonormalized (Euclidean) for determinism.
    """

    def __init__(self, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        basis = _orthonormalize(u, v)
        if basis is None:
            raise ValueError("line generators are dependent")
        self.span = basis

    @property
    def u(self):
        return self.span[0]

    @property
    def v(self):
        return self.span[1]

    def coordinates_of(self, x):
        """Homogeneous coordinates [alpha:beta] of x = alpha*u + beta*v."""
        x = np.asarray(x, dtype=float)
        coeff, res, _, _ = np.linalg.lstsq(self.span.T, x, rcond=None)
        residual = np.linalg.norm(self.span.T @ coeff - x)
        if residual > 1e-8 * max(1.0, np.linalg.norm(x)):
            raise ValueError("point does not lie on the line")
        return coeff

    def to_dict(self):
        return {"span": self.span.tolist()}

    @classmethod
    def from_dict(cls, data):
        span = np.asarray(data["span"], dtype=float)
        return cls(span[0], span[1])


def _orthonormalize(u, v):
    u, v = _pow2_scaled(u), _pow2_scaled(v)
    nu = np.linalg.norm(u)
    if nu == 0:
        return None
    e1 = u / nu
    w = v - np.dot(v, e1) * e1
    nw = np.linalg.norm(w)
    if nw <= 1e-12 * np.linalg.norm(v):
        return None
    e2 = w / nw
    return np.array([_normalize_rep(e1), _sign_fix(e2)])


def _sign_fix(vec):
    nz = np.nonzero(np.abs(vec) > 1e-14)[0]
    return -vec if vec[nz[-1]] < 0 else vec


def line_through(x, y):
    """The projective line through two distinct points.

    Refused only when ``ProjLine``'s independence test fails: two points
    that ``same_point`` calls equal may still span a line.
    """
    try:
        return ProjLine(x.rep, y.rep)
    except ValueError:
        raise ValueError("coincident points do not span a line") from None


def _gram(form, X, Y):
    """Gram entries and line type of the lines through two (..., d) stacks.

    Returns a = b(X, X), h = b(X, Y), c = b(Y, Y), the discriminant
    h*h - a*c of the restricted form (positive on hyperbolic lines,
    negative on elliptic ones) and the parabolic mask
    |disc| <= (DISC_RTOL * max(|a|, |h|, |c|))^2.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    a, h, c = form.gram(X, X), form.gram(X, Y), form.gram(Y, Y)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(h)), np.abs(c))
    disc = h * h - a * c
    tau = DISC_RTOL * scale
    return a, h, c, disc, np.abs(disc) <= tau * tau


_LINE_TYPES = np.array(["elliptic", "hyperbolic", "parabolic"])


def _line_type(disc, parabolic):
    return _LINE_TYPES[np.where(parabolic, 2, disc > 0)]


def classify_line(space, line):
    """'elliptic', 'parabolic' or 'hyperbolic' against the space's absolute.

    Equivalently: the restricted form on the span is definite, degenerate,
    or of signature (1,1).  The test is ``_gram``'s, so a parabolic line
    is one whose ``absolute_points`` coincide, or lie in the absolute.
    """
    _, _, _, disc, parabolic = _gram(space.form, line.u, line.v)
    return str(_line_type(disc, parabolic))


class AbsolutePair:
    """The two intersection points of a line with the absolute.

    Roots are homogeneous pairs [alpha:beta] over C for the basis stored in
    the line; they are complex conjugate for elliptic lines, real distinct
    for hyperbolic ones, and coincident (multiplicity two) for parabolic
    ones.  ``degenerate`` flags a line contained in the absolute.
    """

    def __init__(self, roots, coincident, degenerate=False):
        self.roots = np.asarray(roots, dtype=complex)
        self.coincident = bool(coincident)
        self.degenerate = bool(degenerate)


def _absolute_roots(a, h, c, disc):
    """The roots I, J of a*alpha^2 + 2h*alpha*beta + c*beta^2 = 0 on one line,
    as the rows of a complex (2, 2) array of pairs [alpha:beta], from the
    formula that divides by the larger of |a| and |c|."""
    sq = np.sqrt(complex(disc))
    if abs(a) < abs(c):
        return np.array([[c, -h - sq], [c, -h + sq]])
    return np.array([[-h + sq, a], [-h - sq, a]])


def absolute_points(space, line):
    """Solve b(alpha*u + beta*v, alpha*u + beta*v) = 0 on the line."""
    a, h, c, disc, parabolic = _gram(space.form, line.u, line.v)
    if max(abs(a), abs(h), abs(c)) == 0.0:
        return AbsolutePair(np.eye(2), coincident=False, degenerate=True)
    if max(abs(a), abs(c)) <= 1e-13 * abs(h):
        # both basis vectors isotropic: the roots are the basis directions
        return AbsolutePair(np.eye(2), coincident=False)
    roots = _absolute_roots(a, h, c, disc)
    return AbsolutePair(roots / np.linalg.norm(roots, axis=-1, keepdims=True), coincident=parabolic)


def _as_hom_pair(z):
    """A point of CP^1 as a homogeneous 2-vector; accepts inf and pairs."""
    if isinstance(z, (list, tuple, np.ndarray)) and np.shape(z) == (2,):
        return np.asarray(z, dtype=complex)
    if z == np.inf:
        return np.array([1.0, 0.0], dtype=complex)
    return np.array([complex(z), 1.0], dtype=complex)


def _det2_batch(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def cross_ratio(x, y, q, p):
    """Cross-ratio [x, y, q, p] on CP^1.

    Defined by the unique homography sending (x, y, q) to (inf, 0, 1);
    the value is then the image of p.  Accepts complex numbers, ``np.inf``
    or homogeneous 2-vectors.  The patterns p = x, p = y, p = q give
    inf, 0, 1 respectively; coincidences among x, y, q are an error.
    """
    xh, yh, qh, ph = (_as_hom_pair(t) for t in (x, y, q, p))
    for a, b_ in ((xh, yh), (xh, qh), (yh, qh)):
        if abs(_det2_batch(a, b_)) <= 1e-14 * np.linalg.norm(a) * np.linalg.norm(b_):
            raise ValueError("cross-ratio undefined: coincidence among x, y, q")
    num = _det2_batch(xh, qh) * _det2_batch(yh, ph)
    den = _det2_batch(yh, qh) * _det2_batch(xh, ph)
    if den == 0:
        return np.inf
    return num / den


def projective_distance(space, x, y, return_line_type=False):
    """Distance |1/2 ln[x, y, I, J]| along the line through x and y.

    I, J are the line's absolute points and ln is the principal branch, so
    elliptic lines give values in [0, pi/2] (the module docstring has the
    case table).  The line type of a point with itself is None.  One-pair
    call of ``projective_distance_batch`` on the pseudo-sphere lifts, whose
    refusal names the point that is not in the space.
    """
    lifts = []
    for which, point in (("first", x), ("second", y)):
        try:
            lifts.append(space.lift(point)[None])
        except ValueError:
            raise ValueError(f"{which} point is not in {space.name}") from None
    d, kinds = projective_distance_batch(space, *lifts)
    kind = str(kinds[0])
    if kind == "parabolic" and x.same_point(y):
        kind = None
    return (float(d[0]), kind) if return_line_type else float(d[0])


def projective_distance_batch(space, X, Y):
    """Vectorized cross-ratio distance for stacks of lifted representatives.

    X, Y: arrays (N, d) of representatives, of any scale and sign.  Returns
    (distances, kinds) with kinds in {'elliptic', 'parabolic', 'hyperbolic'},
    the distances from the module docstring's case table.
    """
    a, h, c, disc, parabolic = _gram(space.form, X, Y)
    ac, habs, s = a * c, np.abs(h), np.sqrt(np.abs(disc))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_r = 2.0 * np.log(habs + s) - np.log(np.abs(ac))
        hyperbolic = np.where(ac < 0, 0.5 * np.hypot(log_r, np.pi), 0.5 * np.abs(log_r))
        d = np.where(disc > 0, hyperbolic, np.arctan2(s, habs))
    d[parabolic] = 0.0
    return d, _line_type(disc, parabolic)


def closed_form_distance(space, X, Y):
    """arccos / arccosh inversion of b on pseudo-sphere lifts (vectorized).

    Case table: definite restriction with sign +1 (or -1) gives
    cos d = |b(x,y)|; signature (1,1) gives cosh d = |b(x,y)| for lift
    pairs on a common branch, which exist iff |b(x,y)| >= 1.  Straddling
    hyperbolic pairs and degenerate (parabolic) lines give NaN and 0.
    """
    _, h, _, disc, parabolic = _gram(space.form, X, Y)
    ch = np.abs(h)
    hyperbolic = np.where(ch >= 1.0 - 1e-12, np.arccosh(np.maximum(ch, 1.0)), np.nan)
    out = np.where(disc < 0, np.arccos(np.minimum(ch, 1.0)), hyperbolic)
    out[parabolic] = 0.0
    return out


def pseudo_distance_lift(space, x_lift, y_lift):
    """Pseudo-distance between two pseudo-sphere lifts (scalar).

    Inverts b(x,y) through the circle/hyperbola case table on ``_gram``'s
    line type (0 on a parabolic line).  On a hyperbola-type geodesic the
    lifts must sit on a common branch, b(x,y) >= 1 for b^{-1}(+1) and
    b(x,y) <= -1 for b^{-1}(-1), or this raises and the caller must flip a
    lift.  Antipodal lifts (y = -x) raise too.
    """
    x = np.asarray(x_lift, dtype=float)
    y = np.asarray(y_lift, dtype=float)
    a, h, c, disc, parabolic = _gram(space.form, x, y)
    if max(abs(a - space.sign), abs(c - space.sign)) > 1e-8:
        raise ValueError("lift is not on the pseudo-sphere")
    if np.linalg.norm(x + y) <= 1e-8 * np.linalg.norm(x):
        raise ValueError("antipodal lifts span no geodesic")
    if parabolic:
        return 0.0
    if disc > 0:
        # hyperbola: b.3 needs b(x,y) >= 1, b.4 needs b(x,y) <= -1
        if space.sign * h < 1.0 - 1e-9:
            raise ValueError("lifts lie on different hyperbola branches")
        return float(np.arccosh(max(abs(h), 1.0)))
    # circle: b.1 has cos(d) = b(x,y), b.2 has cos(d) = -b(x,y)
    return float(np.arccos(np.clip(space.sign * h, -1.0, 1.0)))


def geodesic_on_pseudosphere(space, x_lift, y_lift):
    """Parametrized geodesic arc from x to y on the pseudo-sphere.

    Returns (gamma, T) with gamma(t) the arc and T the parameter of y, so
    that gamma(0) = x, gamma(T) = y.  Circle case: cos/sin combination;
    hyperbola case: cosh/sinh (same branch required).
    """
    b = space.form
    eps = space.sign
    x = np.asarray(x_lift, dtype=float)
    y = np.asarray(y_lift, dtype=float)
    w = y - (float(b(x, y)) / eps) * x
    q = float(b(w, w))
    if abs(q) < 1e-14 * float(np.dot(w, w)):
        raise ValueError("lightlike or degenerate direction")
    e2 = w / np.sqrt(abs(q))
    eta = 1.0 if q > 0 else -1.0
    cx = float(b(x, y)) / eps
    cy = float(b(e2, y)) / eta
    if eta == eps:
        # definite restriction, circle: y = cos(T) x + sin(T) e2
        T = float(np.arctan2(cy, cx))

        def gamma(t):
            t = np.asarray(t, dtype=float)
            return np.cos(t)[..., None] * x + np.sin(t)[..., None] * e2
    else:
        # signature (1,1), hyperbola: y = cosh(T) x + sinh(T) e2
        if cx < 1.0 - 1e-9:
            raise ValueError("lifts lie on different hyperbola branches")
        T = float(np.arcsinh(cy))

        def gamma(t):
            t = np.asarray(t, dtype=float)
            return np.cosh(t)[..., None] * x + np.sinh(t)[..., None] * e2
    return gamma, T


def pseudo_distance_quadrature(space, x_lift, y_lift):
    """Arc length of the connecting geodesic by 64-point Gauss-Legendre quadrature.

    Independent check of the arccos/arccosh inversion: integrates
    sqrt(|b(gamma', gamma')|) along the parametrized arc.
    """
    gamma, T = geodesic_on_pseudosphere(space, x_lift, y_lift)
    nodes, weights = np.polynomial.legendre.leggauss(64)
    t = 0.5 * T * (nodes + 1.0)
    dgamma = central_difference(gamma, t, base_step=1e-6, levels=1)
    speeds = np.sqrt(np.abs(space.form.quad(dgamma)))
    return float(abs(0.5 * T) * np.dot(weights, speeds))
