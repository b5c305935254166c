"""Conjugacy limits: rescaling families, limits of points and isometries.

A rescaling family g_t stretches the directions transverse to a fixed
point (or fixed hyperplane) by 1/t.  As t -> 0 the images g_t M of a model
space converge to a degenerate model space, and conjugates g_t h g_t^{-1}
of isometries converge to isometries of the limit geometry.

The built-in families, read from the registry of model spaces, land each
limit in the canonical coordinates of the target space in every dimension.
Where that needs a slot permutation (the blown-up point of dS^n must be
space-like, the blown-up plane of Hyp^n sits transverse to a space-like
axis) the permutation is part of the family's matrix.
"""

from __future__ import annotations

import numpy as np

from . import forms
from ._numerics import DEFAULT_SCHEDULE, central_difference, richardson
from .projective import SPACES, ProjPoint, model_space, space_family

__all__ = [
    "RescalingFamily",
    "blow_up_point",
    "blow_up_hyperplane",
    "transition_family",
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
    """t -> P . diag(...) with 1/t entries; g_1 need not include P.

    ``kind`` is 'blow_up_point' (every slot but ``axis`` stretched) or
    'blow_up_hyperplane' (only ``axis`` stretched).  ``perm`` is an
    optional slot permutation, applied after the diagonal so the limit
    lands in the canonical coordinates of the target space.
    """

    def __init__(self, kind, dim, axis=None, perm=None):
        if kind not in ("blow_up_point", "blow_up_hyperplane"):
            raise ValueError("unknown rescaling kind")
        self.kind = kind
        self.dim = dim
        self.axis = (dim - 1) if axis is None else int(axis) % dim
        self.perm = None if perm is None else np.asarray(perm, dtype=float)

    def diag(self, t):
        """The diagonal at t; a t-array of shape (T,) gives (T, d)."""
        t = np.asarray(t, dtype=float)
        stretched = (np.arange(self.dim) == self.axis) == (self.kind == "blow_up_hyperplane")
        return np.where(stretched, 1.0 / t[..., None], 1.0)

    def matrix(self, t):
        m = np.where(np.eye(self.dim, dtype=bool), self.diag(t)[..., None], 0.0)
        return m if self.perm is None else self.perm @ m

    def inverse(self, t):
        m = np.where(np.eye(self.dim, dtype=bool), 1.0 / self.diag(t)[..., None], 0.0)
        return m if self.perm is None else m @ self.perm.T

    def base_condition(self, x0, tol=1e-9):
        """Whether g_t x(t) can converge: x(0) on the fixed locus, row by row."""
        x0 = np.asarray(x0, dtype=float)
        scale = np.linalg.norm(x0, axis=-1)
        if self.kind == "blow_up_point":
            return np.linalg.norm(np.delete(x0, self.axis, axis=-1), axis=-1) <= tol * scale
        return np.abs(x0[..., self.axis]) <= tol * scale

    def assemble_limit(self, x0, dx0):
        """Limit of g_t x(t) from x(0) and x'(0), row by row: fixed-slot
        coordinates stay, stretched slots pick up the first derivative."""
        x0 = np.asarray(x0, dtype=float)
        dx0 = np.asarray(dx0, dtype=float)
        out, at_axis = (x0.copy(), dx0) if self.kind == "blow_up_hyperplane" else (dx0.copy(), x0)
        out[..., self.axis] = at_axis[..., self.axis]
        return out if self.perm is None else np.einsum("ij,...j->...i", self.perm, out)


def blow_up_point(dim, axis=None, perm=None):
    return RescalingFamily("blow_up_point", dim, axis=axis, perm=perm)


def blow_up_hyperplane(dim, axis=None, perm=None):
    return RescalingFamily("blow_up_hyperplane", dim, axis=axis, perm=perm)


def transition_family(space_name, kind):
    """Canonical family degenerating a model space of any dimension n >= 2.

    kind='point' lands a space in its registry point limit (Euc or Min),
    kind='plane' in its plane limit (coEuc or coMin).  The family blows up
    the registry's axis for that kind; when it is not the last one, the
    slot permutation moves it last, so the limit lands in the target's
    canonical coordinates.
    """
    kinds = {"point": "blow_up_point", "plane": "blow_up_hyperplane"}
    if kind not in kinds:
        raise ValueError("kind must be 'point' or 'plane'")
    spec = space_family(space_name)
    if getattr(spec, f"{kind}_limit") is None:
        raise ValueError(f"no canonical {kind} transition from {space_name}")
    d = model_space(space_name).dim
    axis = getattr(spec, f"{kind}_axis") % d
    order = [i for i in range(d) if i != axis] + [axis]
    perm = None if axis == d - 1 else np.eye(d)[order]
    return RescalingFamily(kinds[kind], d, axis=axis, perm=perm)


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


def rescaled_point_images(path, fam, schedule=DEFAULT_SCHEDULE):
    """The normalized images g_t x(t) / |g_t x(t)| over the schedule, (T, ..., d)."""
    return _unit(np.einsum("tij,t...j->t...i", fam.matrix(schedule), path(schedule)))


def _signed_like_first(rows):
    """The rows of a (T, ..., d) stack, each negated if it points away
    from the same path's row at the first t."""
    return np.where((np.vecdot(rows, rows[0]) < 0)[..., None], -rows, rows)


def rescaled_point_limit_sequence(path, fam, schedule=DEFAULT_SCHEDULE):
    """Independent route: extrapolate the normalized images g_t x(t)."""
    seq = _signed_like_first(rescaled_point_images(path, fam, schedule))
    limit, err = richardson(seq, return_error=True)
    return ProjPoint(limit), err


def conjugate_isometry(h, fam, t):
    """g_t h g_t^{-1}, exactly: entry (i, j) scaled by diag_i / diag_j, then
    the slot permutation.  A t-array (T,) conjugates a stack (T, ..., d, d)."""
    h = np.asarray(h, dtype=float)
    diag = fam.diag(t).reshape(np.shape(t) + (1,) * (h.ndim - np.ndim(t) - 2) + (fam.dim,))
    m = diag[..., :, None] * h * (1.0 / diag)[..., None, :]
    return m if fam.perm is None else fam.perm @ m @ fam.perm.T


def _matrix_normalize(m):
    """Scale each of a (T, ..., d, d) sequence by its corner entry (its
    largest when the corner is tiny), signed to agree with the first."""
    mag = np.abs(m).reshape(m.shape[:-2] + (-1,))
    largest = np.take_along_axis(m.reshape(mag.shape), mag.argmax(-1)[..., None], -1)[..., 0]
    corner = m[..., -1, -1]
    scale = np.where(np.abs(corner) < 1e-8 * mag.max(-1), largest, corner)
    m = m / scale[..., None, None]
    return np.where((np.sum(m * m[0], axis=(-2, -1)) < 0)[..., None, None], -m, m)


def conjugate_limit(h_path, fam, schedule=DEFAULT_SCHEDULE):
    """Extrapolated limit of g_t h(t) g_t^{-1} over the t-schedule.

    ``h_path`` maps a t-array of shape (T,) to isometries of the source,
    (T, ..., d, d), as an IsometryPath does.  The result is the normalized
    limit stack (..., d, d) and the largest extrapolation error estimate
    over it.
    """
    seq = _matrix_normalize(conjugate_isometry(h_path(schedule), fam, schedule))
    return richardson(seq, return_error=True)


def limit_group_membership(m, target, tol=1e-8):
    """Block-pattern test for the limit isometry groups, on (..., d, d).

    ``target`` names a flat limit space or its group: 'Euc3' or 'IsomEuc',
    'coMin' or 'IsomCoMin'.  Affine targets look like [[A, t], [0, 1]]
    with A in O(n) or O(n-1,1); co-space targets look like [[A, 0], [t, 1]].
    Each representative is normalized by its corner entry first (so
    homotheties fail).  Returns a bool array over the leading axes; a
    matrix with a NaN fails.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[-1] - 1
    base = target.removeprefix("Isom").rstrip("0123456789").lower()
    spec = next((s for b, s in SPACES.items() if b.lower() == base), None)
    if spec is None or (spec.chart_form is None and spec.chart is None):
        raise ValueError(f"unknown target group {target}")
    # the block form: the flat chart's metric, or the co-space's base form
    g = spec.chart_form(n).matrix if spec.chart_form else spec.form(n).matrix[:n, :n]
    corner = m[..., n, n]
    ok = np.abs(corner) >= tol * np.max(np.abs(m), axis=(-2, -1))
    with np.errstate(divide="ignore", invalid="ignore"):
        m = m / corner[..., None, None]
        a = m[..., :n, :n]
        ok &= np.max(np.abs(np.swapaxes(a, -1, -2) @ g @ a - g), axis=(-2, -1)) <= tol
    zero_block = m[..., n, :n] if spec.chart_form else m[..., :n, n]
    return ok & (np.max(np.abs(zero_block), axis=-1) <= tol)


def duality_transition_check(path, fam, form, schedule=DEFAULT_SCHEDULE):
    """Commutation of rescaled limits with the ambient duality.

    Side A assembles the limit of g_t x(t) from derivatives and dualizes
    it (the dual hyperplane's Euclidean normal is G x).  Side B pushes the
    dual hyperplanes x(t)* through the compatible dual family and
    extrapolates their normals.  Returns the angular gap between the two,
    a float for one path and an array over a stack of paths; the
    commuting-diagram property makes it vanish.
    """
    g = form.matrix
    side_a = _unit(np.einsum("ij,...j->...i", g, _unit(_point_limit(path, fam))))
    # x(t)*'s normal G x(t) moves by the dual family's inverse transpose
    dual_inv = np.linalg.inv(dual_family(fam, form)(schedule))
    gx = np.einsum("ij,t...j->t...i", g, path(schedule))
    normals = _unit(np.einsum("tji,t...j->t...i", dual_inv, gx))
    side_b = _unit(richardson(_signed_like_first(normals)))
    gap = 1.0 - np.abs(np.vecdot(side_a, side_b))
    return float(gap) if gap.ndim == 0 else gap


def stabilizer_isometry(form, fam, draw, scale=0.5):
    """Isometries of a non-degenerate ``form`` fixing the family's axis line
    (for the diagonal forms here, the stabilizer of the fixed point and of
    the fixed plane), one per standard normal block (d-1, d-1) of ``draw``."""
    rest = [i for i in range(form.dim) if i != fam.axis]
    keep = np.ix_(rest, rest)
    a = np.zeros(draw.shape[:-2] + form.matrix.shape)
    a[(Ellipsis, *keep)] = forms.antisymmetric_from_draw(form.matrix[keep], draw, scale)
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


def random_isometry_path(space, fam, rng, scale=0.5, size=None):
    """h(t) = cayley(t gen) h(0) in O(form), rational in t, with h(0) the
    Cayley image of a stabilizer generator and so fixing the fixed locus.

    ``size`` (numpy's convention) stacks independent paths from the stream
    of that many size=None draws: per path the stabilizer's normals, then
    the generator's.  The form must be non-degenerate.
    """
    d = space.dim
    shape = () if size is None else tuple(np.atleast_1d(size))
    stab, gen = np.split(rng.standard_normal(shape + ((d - 1) ** 2 + d * d,)), [(d - 1) ** 2], -1)
    h0 = stabilizer_isometry(space.form, fam, stab.reshape(shape + (d - 1, d - 1)), scale)
    return IsometryPath(h0, forms.antisymmetric_from_draw(space.form.matrix,
                                                          gen.reshape(shape + (d, d)), scale))


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


def one_d_limit(kind, a, ks=None):
    """Extrapolated limit of g_k X_{a/k} g_k^{-1} for X = R or S, where
    g_k = diag(k, 1) is the line's point blow-up at t = 1/k."""
    ks = 2.0 ** np.arange(3, 13) if ks is None else np.asarray(ks, dtype=float)
    x = np.moveaxis((rotation_1d if kind == "rotation" else boost_1d)(a / ks), -1, 0)
    return richardson(conjugate_isometry(x, blow_up_point(2), 1.0 / ks), ratio=2.0,
                      return_error=True)
