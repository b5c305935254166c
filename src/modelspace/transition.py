"""Conjugacy limits: rescaling families, limits of points and isometries.

A rescaling family g_t stretches the directions transverse to a fixed
point (or fixed hyperplane) by 1/t.  As t -> 0 the images g_t M of a model
space converge to a degenerate model space, and conjugates g_t h g_t^{-1}
of isometries converge to isometries of the limit geometry (Cooper,
Danciger and Wienhard, "Limits of geometries", Trans. AMS 370, 2018).

A family is what the registry of model spaces states: a kind, 'point' or
'plane', and the axis it blows up.  The slot order that moves the axis last
is derived from it and is part of the family's matrix, so every limit lands
in the canonical coordinates of its target space in every dimension (the
blown-up point of dS^n must be space-like, the blown-up plane of Hyp^n sits
transverse to a space-like axis).  Limit groups are named by their registry
space, 'Euc3' or 'coMin3'.
"""

from __future__ import annotations

import numpy as np

from . import forms
from ._numerics import DEFAULT_SCHEDULE, central_difference, richardson
from .projective import ProjPoint, model_space, space_family

__all__ = [
    "RescalingFamily",
    "transition_family",
    "fixed_locus_point",
    "dual_family",
    "PointPath",
    "IsometryPath",
    "rescaled_point_images",
    "rescaled_point_limit",
    "rescaled_point_limit_sequence",
    "conjugate_isometry",
    "conjugate_limit",
    "limit_group_membership",
    "duality_transition_check",
    "random_isometry_path",
    "stabilizer_isometry",
    "rotation_1d",
    "boost_1d",
    "translation_1d",
    "scaling_1d",
    "one_d_limit",
]


class RescalingFamily:
    """t -> P D(t), D(t) diagonal with 1/t entries, P the slot order moving ``axis`` last.

    ``kind`` is 'point' (every slot but ``axis`` stretched: the fixed locus
    is the axis point) or 'plane' (only ``axis`` stretched: the fixed locus
    is the hyperplane x_axis = 0).  P lands the limit in the canonical
    coordinates of the target space; it is the identity when ``axis`` is
    the last slot, its default.
    """

    def __init__(self, kind, dim, axis=None):
        if kind not in ("point", "plane"):
            raise ValueError("kind must be 'point' or 'plane'")
        self.kind = kind
        self.dim = dim
        self.axis = (dim - 1) if axis is None else int(axis) % dim
        self.order = np.append(np.delete(np.arange(dim), self.axis), self.axis)
        self.perm = np.eye(dim)[self.order]

    def diag(self, t):
        """The diagonal at t; a t-array of shape (T,) gives (T, d)."""
        t = np.asarray(t, dtype=float)
        stretched = (np.arange(self.dim) == self.axis) == (self.kind == "plane")
        return np.where(stretched, 1.0 / t[..., None], 1.0)

    def matrix(self, t):
        return self.perm * self.diag(t)[..., None, :]

    def inverse(self, t):
        return (1.0 / self.diag(t))[..., :, None] * self.perm.T

    def base_condition(self, x0):
        """Whether g_t x(t) can converge: x(0) on the fixed locus to 1e-9, row by row."""
        x0 = np.asarray(x0, dtype=float)
        scale = np.linalg.norm(x0, axis=-1)
        if self.kind == "point":
            return np.linalg.norm(np.delete(x0, self.axis, axis=-1), axis=-1) <= 1e-9 * scale
        return np.abs(x0[..., self.axis]) <= 1e-9 * scale

    def assemble_limit(self, x0, dx0):
        """Limit of g_t x(t) from x(0) and x'(0), row by row: fixed-slot
        coordinates stay, stretched slots pick up the first derivative."""
        x0 = np.asarray(x0, dtype=float)
        dx0 = np.asarray(dx0, dtype=float)
        out, at_axis = (x0.copy(), dx0) if self.kind == "plane" else (dx0.copy(), x0)
        out[..., self.axis] = at_axis[..., self.axis]
        # C order: the duality check rounds a strided limit differently, by an ulp
        return np.ascontiguousarray(out[..., self.order])


def transition_family(space_name, kind):
    """Canonical family degenerating a model space of any dimension n >= 2.

    kind='point' lands a space in its registry point limit (Euc or Min),
    kind='plane' in its plane limit (coEuc or coMin), by blowing up the
    registry's axis for that kind.
    """
    spec = space_family(space_name)
    if getattr(spec, f"{kind}_limit", None) is None:
        raise ValueError(f"no canonical {kind} transition from {space_name}")
    return RescalingFamily(kind, model_space(space_name).dim, axis=getattr(spec, f"{kind}_axis"))


def dual_family(fam, form):
    """The compatible family on the dual side: b(g_t x, g*_t y) ~ b(x, y).

    Returns the matrix-valued callable t -> G^-1 g_t^-T G, projectively
    rescaled so the largest diagonal entry is 1 at t = 1; a t-array of
    shape (T,) gives (T, d, d), each matrix rescaled on its own.
    """
    g = form.matrix
    ginv = np.linalg.inv(g)

    def normalized(t):
        m = ginv @ np.swapaxes(fam.inverse(t), -1, -2) @ g
        mag = np.abs(m)
        big = mag.max(axis=(-2, -1), keepdims=True)
        return m / np.where(mag > 1e-14 * big, mag, np.inf).min(axis=(-2, -1), keepdims=True)

    return normalized


class PointPath:
    """A differentiable path t -> x(t) in a space's ambient cone.

    ``evaluator`` maps a t-array of shape (T,) to points (T, ..., d) and a
    scalar t to (..., d), so one PointPath may hold a stack of paths.  It
    must be defined in a neighborhood of t = 0: central differences probe
    both sides.
    """

    def __init__(self, evaluator):
        self.evaluator = evaluator

    def __call__(self, t):
        return np.asarray(self.evaluator(t), dtype=float)


def _unit(v):
    """The rows of a (..., d) stack scaled to unit length.  np.vecdot rounds
    each row as the 1-d np.linalg.norm does, whatever the stack's shape."""
    return v / np.sqrt(np.vecdot(v, v))[..., None]


def _point_limit(path, fam):
    """lim g_t x(t), unnormalized, for each path of a stack: (..., d)."""
    x0 = path(0.0)
    if not np.all(fam.base_condition(x0)):
        raise ValueError("path violates the base condition; limit diverges")
    return fam.assemble_limit(x0, central_difference(path, 0.0))


def rescaled_point_limit(path, fam):
    """lim g_t x(t) of one path: zeroth order on the fixed locus, first
    order across.

    Raises when the base condition x(0) on-the-fixed-locus fails (the
    limit diverges in that case).
    """
    return ProjPoint(_point_limit(path, fam))


def rescaled_point_images(path, fam):
    """The normalized images g_t x(t) / |g_t x(t)| over DEFAULT_SCHEDULE, (T, ..., d)."""
    return _unit(np.einsum("tij,t...j->t...i", fam.matrix(DEFAULT_SCHEDULE),
                           path(DEFAULT_SCHEDULE)))


def _signed_like_first(rows):
    """The rows of a (T, ..., d) stack, each negated if it points away
    from the same path's row at the first t."""
    return np.where((np.vecdot(rows, rows[0]) < 0)[..., None], -rows, rows)


def rescaled_point_limit_sequence(path, fam):
    """Independent route: extrapolate the normalized images g_t x(t)."""
    seq = _signed_like_first(rescaled_point_images(path, fam))
    limit, err = richardson(seq, return_error=True)
    return ProjPoint(limit), err


def conjugate_isometry(h, fam, t):
    """g_t h g_t^{-1}, exactly: entry (i, j) scaled by diag_i / diag_j, then
    rows and columns in the family's slot order.  A t-array (T,) conjugates
    a stack (T, ..., d, d)."""
    h = np.asarray(h, dtype=float)
    diag = fam.diag(t).reshape(np.shape(t) + (1,) * (h.ndim - np.ndim(t) - 2) + (fam.dim,))
    m = diag[..., :, None] * h * (1.0 / diag)[..., None, :]
    return m[..., fam.order[:, None], fam.order]


def _matrix_normalize(m):
    """Scale each of a (T, ..., d, d) sequence by its corner entry (its
    largest when the corner is tiny), signed to agree with the first."""
    mag = np.abs(m).reshape(m.shape[:-2] + (-1,))
    largest = np.take_along_axis(m.reshape(mag.shape), mag.argmax(-1)[..., None], -1)[..., 0]
    corner = m[..., -1, -1]
    scale = np.where(np.abs(corner) < 1e-8 * mag.max(-1), largest, corner)
    m = m / scale[..., None, None]
    return np.where((np.sum(m * m[0], axis=(-2, -1)) < 0)[..., None, None], -m, m)


def conjugate_limit(h_path, fam):
    """Extrapolated limit of g_t h(t) g_t^{-1} over DEFAULT_SCHEDULE.

    ``h_path`` maps a t-array of shape (T,) to isometries of the source,
    (T, ..., d, d), as an IsometryPath does.  The result is the normalized
    limit stack (..., d, d) and the largest extrapolation error estimate
    over it.
    """
    seq = _matrix_normalize(conjugate_isometry(h_path(DEFAULT_SCHEDULE), fam, DEFAULT_SCHEDULE))
    return richardson(seq, return_error=True)


def limit_group_membership(m, target, tol=1e-8):
    """Block-pattern test for the limit isometry groups, on (..., d, d).

    ``target`` is a registry name of a flat limit space with its dimension
    n = d - 1, 'Euc3' or 'coMin3' for 4x4 matrices; any other name raises.
    Affine targets look like [[A, t], [0, 1]] with A in O(n) or O(n-1,1);
    co-space targets look like [[A, 0], [t, 1]].
    Each representative is normalized by its corner entry first (so
    homotheties fail).  Returns a bool array over the leading axes; a
    matrix with a NaN fails.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[-1] - 1
    space = model_space(target)
    if space.chart_form is None and not space.degenerate:
        raise ValueError(f"{target} is not a flat limit space")
    if space.n != n:
        raise ValueError(f"{target} acts by {space.dim}x{space.dim} matrices, not {n + 1}x{n + 1}")
    # the block form: the flat chart's metric, or the co-space's base form
    flat = space.chart_form is not None
    g = space.chart_form.matrix if flat else space.form.matrix[:n, :n]
    corner = m[..., n, n]
    ok = np.abs(corner) >= tol * np.max(np.abs(m), axis=(-2, -1))
    with np.errstate(divide="ignore", invalid="ignore"):
        m = m / corner[..., None, None]
        a = m[..., :n, :n]
        ok &= np.max(np.abs(np.swapaxes(a, -1, -2) @ g @ a - g), axis=(-2, -1)) <= tol
    zero_block = m[..., n, :n] if flat else m[..., :n, n]
    return ok & (np.max(np.abs(zero_block), axis=-1) <= tol)


def duality_transition_check(path, fam, form):
    """Commutation of rescaled limits with the ambient duality.

    Side A assembles the limit of g_t x(t) from derivatives and dualizes
    it (the dual hyperplane's Euclidean normal is G x).  Side B pushes the
    dual hyperplanes x(t)* through the compatible dual family and
    extrapolates their normals over DEFAULT_SCHEDULE.  Returns the angular gap between the two,
    a float for one path and an array over a stack of paths; the
    commuting-diagram property makes it vanish.
    """
    g = form.matrix
    side_a = _unit(np.einsum("ij,...j->...i", g, _unit(_point_limit(path, fam))))
    # x(t)*'s normal G x(t) moves by the dual family's inverse transpose
    dual_inv = np.linalg.inv(dual_family(fam, form)(DEFAULT_SCHEDULE))
    gx = np.einsum("ij,t...j->t...i", g, path(DEFAULT_SCHEDULE))
    normals = _unit(np.einsum("tji,t...j->t...i", dual_inv, gx))
    side_b = _unit(richardson(_signed_like_first(normals)))
    gap = 1.0 - np.abs(np.vecdot(side_a, side_b))
    return float(gap) if gap.ndim == 0 else gap


def fixed_locus_point(space, fam, rng):
    """A point of ``space`` on the family's fixed locus: the axis point of a
    point blow-up; for a plane blow-up, a standard normal draw with its axis
    slot zeroed, redrawn until sign q > 0.1, then scaled to |q| = 1."""
    if fam.kind == "point":
        return np.eye(space.dim)[fam.axis]
    while True:
        y = rng.standard_normal(space.dim)
        y[fam.axis] = 0.0
        q = float(space.form.quad(y))
        if space.sign * q > 0.1:
            return y / np.sqrt(abs(q))


def stabilizer_isometry(form, fam, draw):
    """Isometries of a non-degenerate ``form`` fixing the family's axis line
    (for the diagonal forms here, the stabilizer of the fixed point and of
    the fixed plane), one per standard normal block (d-1, d-1) of ``draw``,
    the Cayley images of generators drawn at scale 0.5."""
    rest = [i for i in range(form.dim) if i != fam.axis]
    keep = np.ix_(rest, rest)
    a = np.zeros(draw.shape[:-2] + form.matrix.shape)
    a[(Ellipsis, *keep)] = forms.antisymmetric_from_draw(form.matrix[keep], draw, 0.5)
    return forms.cayley(a)


class IsometryPath:
    """t -> cayley(t gen) h0 for ``h0``, ``gen`` of shape (*size, d, d); a
    t-array of shape (T,) gives (T, *size, d, d) from one stacked solve.

    The path is rational in t, with h(0) = h0 and h'(0) = gen h0, and stays
    in O(b) when h0 does and gen is in so(b)."""

    def __init__(self, h0, gen):
        self.h0 = h0
        self.gen = gen

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return forms.cayley(t.reshape(t.shape + (1,) * self.gen.ndim) * self.gen) @ self.h0


def random_isometry_path(space, fam, rng, size=None):
    """h(t) = cayley(t gen) h(0) in O(form), rational in t, with h(0) the
    Cayley image of a stabilizer generator and so fixing the fixed locus;
    both generators are drawn at scale 0.5.

    ``size`` (numpy's convention) stacks independent paths from the stream
    of that many size=None draws: per path the stabilizer's normals, then
    the generator's.  The form must be non-degenerate.
    """
    d = space.dim
    shape = () if size is None else tuple(np.atleast_1d(size))
    stab, gen = np.split(rng.standard_normal(shape + ((d - 1) ** 2 + d * d,)), [(d - 1) ** 2], -1)
    h0 = stabilizer_isometry(space.form, fam, stab.reshape(shape + (d - 1, d - 1)))
    return IsometryPath(h0, forms.antisymmetric_from_draw(space.form.matrix,
                                                          gen.reshape(shape + (d, d)), 0.5))


# ---------------------------------------------------------------------------
# the 1-dimensional toy model


def rotation_1d(theta):
    """Stabilizer of an elliptic line.  Oriented so that conjugation by
    diag(k, 1) sends R_{a/k} to the translation T_a as k grows."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def boost_1d(phi):
    """Stabilizer of a hyperbolic line (an O(1,1) boost)."""
    c, s = np.cosh(phi), np.sinh(phi)
    return np.array([[c, s], [s, c]])


def translation_1d(a):
    """Stabilizer of the parabolic line: the limit shape of both."""
    return np.array([[1.0, a], [0.0, 1.0]])


def scaling_1d(k):
    return np.array([[float(k), 0.0], [0.0, 1.0]])


def one_d_limit(kind, a):
    """Extrapolated limit of g_k X_{a/k} g_k^{-1} for X = R or S, where
    g_k = diag(k, 1) is the line's point blow-up at t = 1/k, over
    k = 2^3, ..., 2^12."""
    ks = 2.0 ** np.arange(3, 13)
    x = np.moveaxis((rotation_1d if kind == "rotation" else boost_1d)(a / ks), -1, 0)
    return richardson(conjugate_isometry(x, RescalingFamily("point", 2), 1.0 / ks), ratio=2.0,
                      return_error=True)
