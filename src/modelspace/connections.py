"""Connections and volume forms on pseudo-spheres and their degenerate limits.

Every space here is a level set b(x, x) = +-1 in R^4 with the position
vector as transverse direction N_x = x.  One projection formula covers the
nondegenerate Levi-Civita connections and the degenerate co-Euclidean and
co-Minkowski connections alike:

    nabla_v w (x) = Dw(v) - (b(x, Dw(v)) / b(x, x)) x,

where D is componentwise differentiation.  For nondegenerate b this is the
tangential part of the ambient derivative; for the degenerate forms it
removes the N-component in the splitting T_x = T_x(locus) + <N>, which is
exactly the unique symmetric connection compatible with the degenerate
metric that preserves space-like planes and the vertical field T.

Vector fields are ambient callables; tangency is enforced by projection at
evaluation points on the locus.  Everything here takes point stacks: a
field maps an ``(..., d)`` stack of points to an ``(..., d)`` stack of
vectors, and a transition family ``f(t, x)`` does the same with t shaped
to broadcast against x, so a whole t-schedule is one call; the
transition checks give one gap per target point of a stack, and a stack
of families is one family whose coefficients carry the stack's axes.  A
single point is a stack of one, and a curve maps a t-array (...) to
points (..., d).  Each derivative is one field or curve call on a
stencil stack, and each residual is the max over its sample points.
Matrices act on stacks through einsum rather than ``x @ m.T``: einsum
rounds each row the same way whatever the stack's shape, so a row of a
stack evaluates bit for bit as the lone point does.
"""

from __future__ import annotations

import numpy as np

from ._numerics import DEFAULT_SCHEDULE, central_difference, richardson

__all__ = [
    "tangent_project",
    "project_to_locus",
    "VectorField",
    "random_tangent_field",
    "plane_tangent_field",
    "ambient_derivative",
    "ConnectionEval",
    "levi_civita",
    "co_connection",
    "geodesic_residual",
    "VolumeFormEval",
    "volume_form",
    "symmetry_residual",
    "metric_compatibility_residual",
    "t_parallel_residual",
    "plane_preservation_residual",
    "parallel_volume_residual",
    "parallel_transport",
    "holonomy_angle",
    "connection_transition_check",
    "volume_transition_check",
]

# the t-schedule of the connection and volume transition checks
_SCHEDULE = DEFAULT_SCHEDULE[:7]


def tangent_project(space, x, v):
    """Remove the N_x = x component of v, as measured by the space's form."""
    b = space.form
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return v - (b(x, v) / b.quad(x))[..., None] * x


def project_to_locus(space, y):
    """Rescale each row of y onto the pseudo-sphere b(y, y) = sign."""
    y = np.asarray(y, dtype=float)
    q = space.form.quad(y)
    if np.any(space.sign * q <= 0):
        raise ValueError(f"point cannot be scaled onto {space.name}")
    return y / np.sqrt(np.abs(q))[..., None]


class VectorField:
    """An ambient field (..., d) -> (..., d), tangent to the space's locus.

    Evaluation projects out the transverse component, so a raw field need
    not be tangent; ``project=False`` evaluates the raw field.
    """

    def __init__(self, space, fn, name=None, project=True):
        self.space = space
        self.fn = fn
        self.name = name or "field"
        self.project = project

    def raw(self, x):
        x = np.asarray(x, dtype=float)
        v = np.asarray(self.fn(x), dtype=float)
        if v.shape != x.shape:
            raise ValueError(
                f"field {self.name} maps points of shape {x.shape} to shape {v.shape}; "
                f"it must return one vector per point"
            )
        return v

    def __call__(self, x):
        v = self.raw(x)
        if not self.project:
            return v
        return tangent_project(self.space, x, v)


def _poly_field(rng, dim, scale=1.0):
    c0 = rng.standard_normal(dim) * scale
    c1 = rng.standard_normal((dim, dim)) * scale
    c2 = rng.standard_normal((dim, dim, dim)) * (scale / 2.0)

    def fn(x):
        lin = np.einsum("ij,...j->...i", c1, x)
        return c0 + lin + np.einsum("ijk,...j,...k->...i", c2, x, x)

    return fn


def random_tangent_field(space, rng, scale=1.0):
    """A random polynomial field, tangentialized to the space's locus."""
    return VectorField(space, _poly_field(rng, space.dim, scale))


def plane_tangent_field(space, normal, rng):
    """A random field tangent both to the locus and to the linear-plane
    section {<normal, x> = 0} at points of that section."""
    normal = np.asarray(normal, dtype=float)
    base = _poly_field(rng, space.dim)

    def fn(x):
        v = tangent_project(space, x, base(x))
        n_tan = tangent_project(space, x, normal)
        denom = n_tan @ normal
        coef = np.divide(v @ normal, denom, out=np.zeros_like(denom),
                         where=np.abs(denom) >= 1e-12)
        return v - coef[..., None] * n_tan

    return VectorField(space, fn, project=False)


def ambient_derivative(field, v, x):
    """Componentwise directional derivative of a field along v at each row of x.

    For a VectorField this differentiates the projected (tangent)
    extension; the projection is a smooth ambient extension of the
    on-locus field, so the tangential derivative is extension-independent.
    The field is called once, on the (6, ..., d) stencil x +- h_k v with
    h_k = 1e-3 (1 + |x|) / 2^k; two Richardson levels keep the truncation
    error near roundoff.
    """
    scale = 1.0 + np.linalg.norm(x, axis=-1, keepdims=True)
    return central_difference(field, x, v, base_step=1e-3 * scale, levels=3)


class ConnectionEval:
    """A connection as an evaluation rule (V, W, x) -> ambient vector."""

    def __init__(self, space):
        self.space = space

    def __call__(self, V, W, x):
        """nabla_V W at each row of x; V is a field or a vector stack."""
        x = np.asarray(x, dtype=float)
        v = V(x) if callable(V) else np.asarray(V, dtype=float)
        return tangent_project(self.space, x, ambient_derivative(W, v, x))

    def along_curve(self, curve, t):
        """nabla_{gamma'} gamma' at curve(t): the projected acceleration, from
        one call of the t-array curve on the (3, ...) stack t, t +- 1e-4."""
        t, h = np.asarray(t, dtype=float), 1e-4
        x, plus, minus = np.asarray(curve(np.stack([t, t + h, t - h])), dtype=float)
        return tangent_project(self.space, x, (plus - 2 * x + minus) / h**2)


def levi_civita(space):
    """Levi-Civita connection of a nondegenerate model space."""
    if space.degenerate:
        raise ValueError("space is degenerate: use co_connection")
    return ConnectionEval(space)


def co_connection(space):
    """The canonical connection of co-Euclidean / co-Minkowski space.

    Unique symmetric connection compatible with the degenerate metric
    that preserves space-like planes and has the vertical field parallel;
    its restriction to any space-like plane is that plane's Levi-Civita
    connection and its geodesics are the lines of the space.
    """
    if not space.degenerate:
        raise ValueError("space is nondegenerate: use levi_civita")
    return ConnectionEval(space)


def geodesic_residual(conn, curve):
    """sup over 19 parameter samples in [0.05, 0.95] of |nabla_{gamma'} gamma'|,
    from one call of the t-array curve; a NaN sample makes it NaN."""
    acc = conn.along_curve(curve, np.linspace(0.05, 0.95, 19))
    return float(np.max(np.sqrt(np.vecdot(acc, acc))))


class VolumeFormEval:
    """The volume form omega(x; v_1, ..., v_n) = det[N_x, v_1, ..., v_n], row
    by row, on a space of dimension n (ambient dimension n + 1)."""

    def __init__(self, space):
        self.space = space

    def __call__(self, x, *vectors):
        if len(vectors) != self.space.dim - 1:
            raise ValueError(f"the volume form of {self.space.name} takes "
                             f"{self.space.dim - 1} vectors, not {len(vectors)}")
        cols = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (x, *vectors)))
        return np.linalg.det(np.stack(cols, axis=-1))


def volume_form(space):
    return VolumeFormEval(space)


def symmetry_residual(conn, X, Y, points):
    """sup |nabla_X Y - nabla_Y X - [X, Y]| over sample points."""
    x = np.asarray(points, dtype=float)
    lhs = conn(X, Y, x) - conn(Y, X, x)
    bracket = ambient_derivative(Y, X(x), x) - ambient_derivative(X, Y(x), x)
    bracket = tangent_project(conn.space, x, bracket)
    return float(np.max(np.linalg.norm(lhs - bracket, axis=-1)))


def metric_compatibility_residual(conn, X, Y, Z, points):
    """sup |Z.g(X,Y) - g(nabla_Z X, Y) - g(X, nabla_Z Y)|.

    g is the (possibly degenerate) metric induced by the ambient form.
    """
    b = conn.space.form
    x = np.asarray(points, dtype=float)

    def g_xy(p):  # at the locus point of p
        q = project_to_locus(conn.space, p)
        return b(X(q), Y(q))

    deriv = central_difference(g_xy, x, Z(x))
    rhs = b(conn(Z, X, x), Y(x)) + b(X(x), conn(Z, Y, x))
    return float(np.max(np.abs(deriv - rhs)))


def t_parallel_residual(conn, points):
    """sup |nabla_v T| for the vertical field T = e_last (co-spaces), with
    v a random tangent vector at each point."""
    space = conn.space
    x = np.asarray(points, dtype=float)
    e_last = np.eye(space.dim)[-1]
    t_field = VectorField(space, lambda p: np.broadcast_to(e_last, p.shape), project=False)
    v = tangent_project(space, x, np.random.default_rng(7).standard_normal(x.shape))
    return float(np.max(np.linalg.norm(conn(v, t_field, x), axis=-1)))


def plane_preservation_residual(space, normal, rng):
    """sup over 6 samples of the off-plane component of nabla_V W.

    V, W are random fields tangent to the plane section {<normal,x> = 0};
    the co-space connection must keep their derivative in the plane.
    Samples that cannot be scaled onto the locus are dropped; with none
    left the residual is 0.
    """
    conn = co_connection(space) if space.degenerate else levi_civita(space)
    normal = np.asarray(normal, dtype=float) / np.linalg.norm(normal)
    V = plane_tangent_field(space, normal, rng)
    W = plane_tangent_field(space, normal, rng)
    raw = rng.standard_normal((6, space.dim))
    raw -= (raw @ normal)[:, None] * normal
    keep = space.sign * space.form.quad(raw) > 0
    if not keep.any():
        return 0.0
    val = conn(V, W, project_to_locus(space, raw[keep]))
    return float(np.max(np.abs(val @ normal)))


def parallel_volume_residual(conn, omega, Z, frame, points):
    """sup |Z.omega(X1,X2,X3) - sum omega(..., nabla_Z Xi, ...)|."""
    x = np.asarray(points, dtype=float)

    def scalar(p):
        q = project_to_locus(conn.space, p)
        return omega(q, *(f(q) for f in frame))

    deriv = central_difference(scalar, x, Z(x))
    vals = [f(x) for f in frame]
    rhs = sum(omega(x, *vals[:i], conn(Z, f, x), *vals[i + 1:]) for i, f in enumerate(frame))
    return float(np.max(np.abs(deriv - rhs)))


def parallel_transport(space, curve, t0, t1, X0):
    """Parallel transport along a curve on a nondegenerate pseudo-sphere.

    Integrates X' = -(b(gamma', X) / sign) gamma with 200 RK4 steps; the
    right-hand side keeps b(gamma, X) = 0 and the norm of X constant.  The
    t-array curve and its velocity are called once on all stage times, and
    the covectors b(gamma', .) / sign are formed once for all stages.
    """
    ts = np.linspace(t0, t1, 201)
    dts = ts[1:] - ts[:-1]
    stages = np.stack([ts[:-1], ts[:-1] + dts / 2, ts[:-1] + dts])
    xs = np.asarray(curve(stages), dtype=float)
    dxs = central_difference(curve, stages, base_step=1e-6, levels=1)
    covs = np.einsum("...i,ij->...j", dxs, space.form.matrix) / float(space.sign)

    def rhs(stage, i, X):
        return -(covs[stage, i] @ X) * xs[stage, i]

    X = np.asarray(X0, dtype=float)
    for i, dt in enumerate(dts):
        k1 = rhs(0, i, X)
        k2 = rhs(1, i, X + dt / 2 * k1)
        k3 = rhs(1, i, X + dt / 2 * k2)
        k4 = rhs(2, i, X + dt * k3)
        X = X + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return X


def holonomy_angle(space, corner_loop, X0):
    """Rotation angle of a frame vector transported around a closed loop.

    ``corner_loop`` is a list of curve callables, each parametrized on
    [0, 1], whose concatenation is a closed loop starting at the corner.
    """
    X = np.asarray(X0, dtype=float)
    for leg in corner_loop:
        X = parallel_transport(space, leg, 0.0, 1.0, X)
    b = space.form
    cosang = float(b(X, X0)) / np.sqrt(float(b(X0, X0)) * float(b(X, X)))
    return float(np.arccos(np.clip(cosang, -1.0, 1.0)))


# ---------------------------------------------------------------------------
# transition of connections and volume forms


def _source_points(src_space, fam, eta, ts=_SCHEDULE):
    """g_t^-1 eta scaled onto the source locus, (T, ..., d) for a target
    stack eta (..., d), and t shaped (T, 1, ..., 1) to broadcast against it."""
    x = project_to_locus(src_space, np.einsum("tij,...j->t...i", fam.inverse(ts), eta))
    return x, ts.reshape((-1,) + (1,) * (x.ndim - 1))


def _limit_field(src_space, fam, family_fn):
    """Pushforward limit of a t-family of source fields, as a co-field.

    family_fn(t, x) is an ambient field on the source for each t; the
    returned callable evaluates lim_t g_t family_fn(t, x_t(eta)) by
    Richardson extrapolation at each row of a target point stack eta,
    with one family call over the whole schedule.
    """
    def hat(eta):
        x, t = _source_points(src_space, fam, eta)
        v = tangent_project(src_space, x, family_fn(t, x))
        return richardson(np.einsum("tij,t...j->t...i", fam.matrix(_SCHEDULE), v))

    return hat


def connection_transition_check(src_space, co_space, fam, X_family, Y_family, xi):
    """Gap between the rescaled source connection and the co-connection.

    X_family, Y_family: (t, (T, ..., d) points) -> vectors, smooth families
    whose t = 0 fields are tangent to the blown-up plane.  t reaches them
    as (T, 1, ..., 1), one 1 per axis of xi.  Returns
    |lim g_t nabla^src_{X_t} Y_t  -  nabla^co_{hatX} hatY| at each row of
    the target stack xi (..., d): a float for one point.
    """
    xi = np.asarray(xi, dtype=float)
    x0 = _source_points(src_space, fam, xi, np.array([1e-14]))[0][0]
    # the t = 0 fields must be tangent to the blown-up plane at every row,
    # otherwise the pushforward limits diverge
    for fx in (X_family, Y_family):
        v0 = tangent_project(src_space, x0, fx(0.0, x0))
        if np.any(np.abs(v0[..., fam.axis]) > 1e-6 * (1.0 + np.linalg.norm(v0, axis=-1))):
            raise ValueError("family is not tangent to the blown-up plane at t=0")
    (x, t), gt = _source_points(src_space, fam, xi), fam.matrix(_SCHEDULE)
    Xf = VectorField(src_space, lambda p: X_family(t, p))
    Yf = VectorField(src_space, lambda p: Y_family(t, p))
    v = Xf(x)
    lhs = richardson(np.einsum("tij,t...j->t...i", gt, levi_civita(src_space)(v, Yf, x)))
    # hatX at xi is the limit of the pushed-forward vectors X_t(x_t) themselves
    hatX = richardson(np.einsum("tij,t...j->t...i", gt, v))
    diff = lhs - co_connection(co_space)(hatX, _limit_field(src_space, fam, Y_family), xi)
    gap = np.sqrt(np.vecdot(diff, diff))
    return float(gap) if gap.ndim == 0 else gap


def volume_transition_check(src_space, co_space, fam, families, xi):
    """Gap between lim (1/t) omega^src(X_t, Y_t, Z_t) and omega^co of the
    pushforward limits, per row of xi as in connection_transition_check.

    The 1/t factor is the volume-form face of the transverse stretching:
    the family multiplies volumes by det g_t = 1/t, and the limit of the
    rescaled volumes is the degenerate space's parallel volume form.
    """
    xi = np.asarray(xi, dtype=float)
    (x, t), gt = _source_points(src_space, fam, xi), fam.matrix(_SCHEDULE)
    vals = [tangent_project(src_space, x, f(t, x)) for f in families]
    # det(g_t) ~ 1/t is the volume face of the transverse stretch:
    # det[g_t N, g_t X, g_t Y, g_t Z] = det(g_t) det[N, X, Y, Z]
    lhs = richardson(np.linalg.det(gt).reshape(t.shape[:-1]) * volume_form(src_space)(x, *vals))
    # the limit fields at xi are the limits of the same pushed-forward vectors
    hats = [richardson(np.einsum("tij,t...j->t...i", gt, v)) for v in vals]
    gap = np.abs(lhs - volume_form(co_space)(xi, *hats))
    return float(gap) if gap.ndim == 0 else gap
