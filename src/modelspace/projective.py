"""Projective points, model spaces, lines, the absolute and distances.

A model space is the projective quotient of a pseudo-sphere b^{-1}(+1) or
b^{-1}(-1).  Distances between points on a common line are computed two
ways: through the cross-ratio with the line's intersection with the
absolute (the projective route), and through arccos/arccosh inversion of
the ambient form evaluated on pseudo-sphere lifts (the closed-form route).
Both are exposed; they must agree and the tests hold them to that.

The registry names the base chart of each co-space (S2 or H2).  ``chart_jet``
is that chart's one implementation, points and parameter derivatives, and
every chart-built patch, direction grid and sample set reads it.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from . import forms
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


def _normalize_rep(vec):
    vec = np.asarray(vec, dtype=float)
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise ValueError("projective point needs a nonzero representative")
    vec = vec / norm
    nz = np.nonzero(np.abs(vec) > 1e-14)[0]
    if vec[nz[-1]] < 0:
        vec = -vec
    return vec


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
        if self.sign * q <= 0:
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
        p, q, z = self.form.signature
        pts = np.empty((count, self.dim))
        for i in range(count):
            if self.degenerate:
                base_dim = self.dim - 1
                sub = ModelSpace("base", BilinearForm(self.form.matrix[:base_dim, :base_dim]), self.sign)
                base = sub.sample_points(rng, 1, radius)[0]
                pts[i] = np.append(base, rng.uniform(-radius, radius))
            elif (self.sign > 0 and q == 0) or (self.sign < 0 and p == 0):
                v = rng.standard_normal(self.dim)
                pts[i] = v / np.sqrt(abs(float(self.form.quad(v))))
            else:
                # split into the positive and negative eigenspaces of the
                # diagonal form and put cosh on the side matching the sign
                diag = np.diag(self.form.matrix)
                pos, neg = diag > 0, diag < 0
                rho = rng.uniform(0, radius)
                u = rng.standard_normal(int(pos.sum()))
                u /= np.linalg.norm(u)
                w = rng.standard_normal(int(neg.sum()))
                w /= np.linalg.norm(w)
                v = np.zeros(self.dim)
                if self.sign > 0:
                    v[pos], v[neg] = np.cosh(rho) * u, np.sinh(rho) * w
                else:
                    v[pos], v[neg] = np.sinh(rho) * u, np.cosh(rho) * w
                pts[i] = v
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
    kappa = {"S2": 1, "H2": -1}[base]
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
    nu = np.linalg.norm(u)
    if nu == 0:
        return None
    e1 = u / nu
    w = v - np.dot(v, e1) * e1
    nw = np.linalg.norm(w)
    if nw <= 1e-12 * max(1.0, np.linalg.norm(v)):
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
    b = form.matrix
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    a = np.einsum("...i,ij,...j->...", X, b, X)
    h = np.einsum("...i,ij,...j->...", X, b, Y)
    c = np.einsum("...i,ij,...j->...", Y, b, Y)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(h)), np.abs(c))
    disc = h * h - a * c
    tau = DISC_RTOL * scale
    return a, h, c, disc, np.abs(disc) <= tau * tau


def _line_type(disc, parabolic):
    return np.where(parabolic, "parabolic", np.where(disc > 0, "hyperbolic", "elliptic"))


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
    """The roots I, J of a*alpha^2 + 2h*alpha*beta + c*beta^2 = 0.

    Each is a (..., 2) complex pair [alpha:beta], from the formula that
    divides by the larger of |a| and |c|: alpha/beta = (-h +- sqrt(disc))/a,
    else beta/alpha = (-h -+ sqrt(disc))/c.
    """
    sq = np.sqrt(np.asarray(disc, dtype=complex))
    swap = (np.abs(a) < np.abs(c))[..., None]
    a, c = np.asarray(a, dtype=complex), np.asarray(c, dtype=complex)
    I = np.where(swap, np.stack([c, -h - sq], axis=-1), np.stack([-h + sq, a], axis=-1))
    J = np.where(swap, np.stack([c, -h + sq], axis=-1), np.stack([-h - sq, a], axis=-1))
    return I, J


def absolute_points(space, line):
    """Solve b(alpha*u + beta*v, alpha*u + beta*v) = 0 on the line."""
    a, h, c, disc, parabolic = _gram(space.form, line.u, line.v)
    if max(abs(a), abs(h), abs(c)) == 0.0:
        return AbsolutePair(np.eye(2), coincident=False, degenerate=True)
    if max(abs(a), abs(c)) <= 1e-13 * abs(h):
        # both basis vectors isotropic: the roots are the basis directions
        return AbsolutePair(np.eye(2), coincident=False)
    roots = np.stack(_absolute_roots(a, h, c, disc))
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

    I, J are the line's absolute points and ln is the principal branch.
    Parabolic lines give 0, and the line type of a point with itself is
    None.  On elliptic lines the value lies in [0, pi/2]; on hyperbolic
    lines with both points in one component it is the arccosh-type
    distance of same-branch lifts.  One-pair call of
    ``projective_distance_batch`` on the pseudo-sphere lifts.
    """
    if not space.contains(x):
        raise ValueError(f"first point is not in {space.name}")
    if not space.contains(y):
        raise ValueError(f"second point is not in {space.name}")
    d, kinds = projective_distance_batch(space, space.lift(x)[None], space.lift(y)[None])
    kind = str(kinds[0])
    if kind == "parabolic" and x.same_point(y):
        kind = None
    return (float(d[0]), kind) if return_line_type else float(d[0])


def projective_distance_batch(space, X, Y):
    """Vectorized cross-ratio distance for stacks of lifted representatives.

    X, Y: arrays (N, d) of pseudo-sphere points (not necessarily normalized
    projectively).  Returns (distances, kinds) with kinds in
    {'elliptic', 'parabolic', 'hyperbolic'}.  Straddling pairs on
    hyperbolic lines get the modulus of the complex logarithm, as the
    cross-ratio formula prescribes.
    """
    a, h, c, disc, parabolic = _gram(space.form, X, Y)
    with np.errstate(divide="ignore", invalid="ignore"):
        I, J = _absolute_roots(a, h, c, disc)
        # [x, y, I, J] in the (X, Y) basis, where x = (1, 0) and y = (0, 1)
        r = I[..., 1] * J[..., 0] / (I[..., 0] * J[..., 1])
        d = np.abs(0.5 * np.log(r))
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
    out = np.full(h.shape, np.nan)
    out[parabolic] = 0.0
    ch = np.abs(h)
    el = (disc < 0) & ~parabolic
    out[el] = np.arccos(np.clip(ch[el], 0.0, 1.0))
    hy = (disc > 0) & ~parabolic
    same_branch = hy & (ch >= 1.0 - 1e-12)
    out[same_branch] = np.arccosh(np.maximum(ch[same_branch], 1.0))
    return out


def pseudo_distance_lift(space, x_lift, y_lift):
    """Pseudo-distance between two pseudo-sphere lifts (scalar).

    Inverts b(x,y) through the circle/hyperbola case table.  On a
    hyperbola-type geodesic the lifts must sit on a common branch:
    b(x,y) >= 1 for b^{-1}(+1), b(x,y) <= -1 for b^{-1}(-1); otherwise
    this raises, and the caller must flip a lift.
    """
    b = space.form
    x = np.asarray(x_lift, dtype=float)
    y = np.asarray(y_lift, dtype=float)
    for v in (x, y):
        if abs(float(b(v, v)) - space.sign) > 1e-8:
            raise ValueError("lift is not on the pseudo-sphere")
    c = float(b(x, y))
    if np.allclose(x, y):
        return 0.0
    restriction = forms.restrict(b, np.array([x, y]))
    p, q, z = restriction.signature
    if z >= 1:
        # lightlike geodesic
        return 0.0
    if (p, q) == (1, 1):
        # hyperbola: b.3 needs b(x,y) >= 1, b.4 needs b(x,y) <= -1
        if space.sign > 0 and c < 1.0 - 1e-9:
            raise ValueError("lifts lie on different hyperbola branches")
        if space.sign < 0 and c > -1.0 + 1e-9:
            raise ValueError("lifts lie on different hyperbola branches")
        return float(np.arccosh(max(abs(c), 1.0)))
    # circle: b.1 has cos(d) = b(x,y), b.2 has cos(d) = -b(x,y)
    return float(np.arccos(np.clip(space.sign * c, -1.0, 1.0)))


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
    speeds = np.sqrt(np.abs(np.einsum("ti,ij,tj->t", dgamma, space.form.matrix, dgamma)))
    return float(abs(0.5 * T) * np.dot(weights, speeds))
