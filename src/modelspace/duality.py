"""Dual cones, point/hyperplane duality, convex bodies and support functions.

Everything here runs through one exact primitive: facet enumeration of a
pointed full-dimensional polyhedral cone, ``cone_facet_normals``.  It
hulls (Qhull) the cone's section by an affine hyperplane e . x = 1, a
polytope one dimension down whose facets are exactly the cone's facets,
so no apex fan and no cap on the unit sphere get triangulated.  The
functional e is the normalized sum of the unit generators when every
generator makes a cosine of at least 0.1 with it, and otherwise the
functional of largest margin min e . g (a linear program); a cone where
that margin is not positive is not pointed.  Convex bodies are
polyhedral, encoded by the cone over them in one dimension up:

* a Euclidean body K (compact, origin interior) lifts to the cone over
  K x {1}, dualized with the ambient positive form.  Its homogenizing
  axis is such an e and its section is K, so the polar vertices -n / c
  come straight from the facets n . x + c <= 0 of K's own hull;
* a Minkowski body K (future convex, inside the future cone) lifts to the
  cone over {-1} x K, dualized with the ambient Lorentzian form.  Its
  recession cone is stored explicitly as a finite set of future rays, so
  the double dual is an exact polyhedral involution.

A sampled support function h, a graph over the base of the co-space, cuts
out the dual of the body spanned by its polar points v / (sign h(v)), so
``body_from_support`` runs one of the two ``dual`` methods above.

Smooth bodies (balls, hyperboloids) live as sampled support functions on
direction grids; their duals come from the one-homogeneous polar formula
evaluated on the grid, which is exact at grid directions for bodies of
revolution about grid points.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import ConvexHull, cKDTree
from scipy.spatial import QhullError

from .forms import bpq
from .projective import SPACES, ProjPoint, base_form, chart_jet

__all__ = [
    "PolyCone",
    "cone_facet_normals",
    "same_ray_set",
    "EuclideanBody",
    "MinkowskiBody",
    "lightlike_rays",
    "SupportFunctionE",
    "SupportFunctionMin",
    "sphere_grid",
    "circle_grid",
    "hyperboloid_grid",
    "support_from_body",
    "body_from_support",
    "dual_support",
    "Hyperplane",
    "dual_point",
    "dual_hyperplane",
    "truncation_dual",
    "cylinder_to_chart",
    "cylinder_from_chart",
    "cylinder_map_2d",
    "cylinder_map_2d_inverse",
]


# ---------------------------------------------------------------------------
# polyhedral cones


def _unit_rows(rows):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms < 1e-14):
        raise ValueError("zero ray")
    return rows / norms[:, None]


# the normalized generator sum serves as e when it makes at least this
# cosine with every generator, so the section stays within 1/_MARGIN of e
_MARGIN = 0.1


def _interior_functional(g):
    """A unit e with g . e > 0 for every unit row g, or None.

    The normalized generator sum when its least cosine with a generator
    is at least ``_MARGIN``.  Otherwise the functional of largest margin,
    max t subject to g . e >= t and -1 <= e_i <= 1 (a linear program),
    so the section's scale is the cone's own and not an artifact of how
    e was found.  None means that margin is not positive (up to 1e-9):
    the cone is not pointed.
    """
    e = g.sum(axis=0)
    norm = np.linalg.norm(e)
    if norm > 0 and np.min(g @ e) >= _MARGIN * norm:
        return e / norm
    from scipy.optimize import linprog

    n, d = g.shape
    res = linprog(np.r_[np.zeros(d), -1.0], A_ub=np.hstack([-g, np.ones((n, 1))]),
                  b_ub=np.zeros(n), bounds=[(-1.0, 1.0)] * d + [(None, None)])
    if res.status != 0:
        raise ValueError(f"no interior functional found: {res.message}")
    e = res.x[:d]
    norm = np.linalg.norm(e)
    if not np.min(g @ e) > 1e-9 * norm:
        return None
    return e / norm


def cone_facet_normals(rays):
    """Outward facet normals of the cone generated by ``rays``.

    The cone must be pointed and full-dimensional.  Each returned unit
    normal n satisfies n . g <= 0 for every generator g, and the cone is
    exactly the intersection of those halfspaces.  Equivalently this
    enumerates the extreme rays of the polar cone.

    The cone is cut by the hyperplane e . x = 1, for a functional e
    positive on every generator (see ``_interior_functional``).  The
    section is a polytope one dimension down, hulled in the coordinates
    y = Q^T g / (e . g) of an orthonormal basis Q of e-perp; its facet
    n . y + c <= 0 is the cone's facet with normal Q n + c e.
    """
    g = _unit_rows(rays)
    d = g.shape[1]
    e = _interior_functional(g)
    if e is None:
        raise ValueError("cone contains a line (not pointed)")
    # the Householder reflection taking e to a coordinate axis k: its
    # other columns are an orthonormal basis of e-perp
    k = int(np.argmax(np.abs(e)))
    w = e.copy()
    w[k] += np.copysign(1.0, e[k])
    Q = np.delete(np.eye(d) - np.outer(w, w) * (2.0 / (w @ w)), k, axis=1)
    y = (g @ Q) / (g @ e)[:, None]
    if d == 2:
        # a segment [lo, hi]: the facets y <= hi and -y <= -lo
        lo, hi = y.min(), y.max()
        if not hi - lo > 1e-12:
            raise ValueError("cone is not full-dimensional (facet enumeration failed)")
        eqs = np.array([[1.0, -hi], [-1.0, lo]])
    else:
        try:
            eqs = ConvexHull(y).equations  # n . y + c <= 0 inside
        except QhullError as exc:
            raise ValueError(
                "cone is not full-dimensional (facet enumeration failed)"
            ) from exc
    return _dedupe_rays(_unit_rows(eqs[:, :-1] @ Q.T + eqs[:, -1:] * e))


def _dedupe_rays(rows):
    """Drop each unit row within distance 1e-9 of an earlier one."""
    pairs = cKDTree(rows).query_pairs(1e-9, output_type="ndarray")
    keep = np.ones(len(rows), dtype=bool)
    keep[pairs[:, 1]] = False
    return rows[keep]


def same_ray_set(a, b):
    """Whether two generator sets agree up to positive scale and order, to 1e-8."""
    a = _dedupe_rays(_unit_rows(a))
    b = _dedupe_rays(_unit_rows(b))
    if len(a) != len(b):
        return False
    dist, _ = cKDTree(b).query(a)
    return bool(np.all(dist < 1e-8))


def _cone_vertices(gens, axis, message, compact=False):
    """Vertices of a dual body from the generators of the dual cone over it.

    The vertices are the generators whose homogenizing coordinate
    t = -gens[:, axis] exceeds 1e-10, divided by t and with that
    coordinate dropped; the other generators are recession rays.  Raises
    ``message`` when no generator is a vertex or, for a ``compact`` body,
    when one is not.
    """
    t = -gens[:, axis]
    vertex = t > 1e-10
    if not (vertex.all() if compact else vertex.any()):
        raise ValueError(message)
    return np.delete(gens[vertex], axis, axis=1) / t[vertex][:, None]


class PolyCone:
    """A closed convex polyhedral cone, by generators or by halfspaces.

    Halfspaces are stored as functional rows f meaning {x : f . x <= 0}.
    Conversions between the two representations are exact facet/ray
    enumerations and are cached.
    """

    def __init__(self, generators=None, halfspaces=None):
        if (generators is None) == (halfspaces is None):
            raise ValueError("give exactly one of generators or halfspaces")
        self._generators = None if generators is None else _unit_rows(generators)
        self._halfspaces = None if halfspaces is None else _unit_rows(halfspaces)
        if self._generators is not None and len(self._generators) == 0:
            raise ValueError("empty generator set")

    @property
    def dim(self):
        rows = self._generators if self._generators is not None else self._halfspaces
        return rows.shape[1]

    @property
    def generators(self):
        if self._generators is None:
            self._generators = cone_facet_normals(self._halfspaces)
        return self._generators

    @property
    def halfspaces(self):
        if self._halfspaces is None:
            self._halfspaces = cone_facet_normals(self._generators)
        return self._halfspaces

    def dual(self, form):
        """The cone {y : b(g, y) <= 0 for all generators g}, as generators.

        The b-identification turns each generator into a halfspace
        functional; vertex enumeration converts back to generators.
        """
        funcs = self.generators @ form.matrix
        return PolyCone(generators=cone_facet_normals(funcs))

    def __repr__(self):
        k = "generators" if self._generators is not None else "halfspaces"
        rows = self._generators if self._generators is not None else self._halfspaces
        return f"PolyCone({k}={len(rows)}, dim={self.dim})"


# ---------------------------------------------------------------------------
# bodies


class EuclideanBody:
    """A compact convex polytope in E^n with the origin in its interior."""

    def __init__(self, vertices, check=True):
        self.vertices = np.atleast_2d(np.asarray(vertices, dtype=float))
        self.n = self.vertices.shape[1]
        self._facets = None
        if check:
            hull = self._hull()
            if np.any(self._facets[:, -1] >= -1e-12):
                raise ValueError("body is not admissible: origin not interior")
            # keep only extreme points, in hull order
            self.vertices = self.vertices[hull.vertices]

    def _hull(self):
        """Qhull's hull of the vertices; keeps its facet equations."""
        try:
            hull = ConvexHull(self.vertices)
        except QhullError as exc:
            raise ValueError("body is not full-dimensional (hull enumeration failed)") from exc
        self._facets = hull.equations  # n . x + c <= 0 inside
        return hull

    def support(self, dirs):
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        return np.max(self.vertices @ dirs.T, axis=0)

    def dual(self):
        """Polar body {y : <x, y> <= 1 for all x in K}, exactly.

        The cone over K x {1} is cut by its homogenizing axis in K itself,
        so its facet normals are the rows (n, c) of K's hull equations
        (see ``cone_facet_normals``), and each gives the polar vertex
        -n / c.
        """
        if self._facets is None:
            self._hull()
        gens = _dedupe_rays(_unit_rows(self._facets))
        return EuclideanBody(_cone_vertices(
            gens, -1, "dual body is unbounded (origin not interior?)", compact=True))

    def minkowski_sum(self, other):
        sums = (self.vertices[:, None, :] + other.vertices[None, :, :]).reshape(-1, self.n)
        return EuclideanBody(sums)


def lightlike_rays(n=3):
    """Future lightlike directions spanning the boundary of the cone F of
    Min^n: (u, 1)/sqrt 2 for 64 unit directions u on S^(n-2), or both of S^0."""
    if n == 2:
        # boundary of the 2d future cone
        return np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
    if n == 3:
        phi = 2 * np.pi * np.arange(64) / 64
        u = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    else:
        # a fixed normal draw: deterministic, and isotropic on S^(n-2) in
        # every dimension
        u = np.random.default_rng(n).standard_normal((64, n - 1))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
    return np.hstack([u, np.ones((64, 1))]) / np.sqrt(2.0)


class MinkowskiBody:
    """A polyhedral future convex set inside the future cone of Min^n.

    Encoded as conv(vertices) + cone(rays): the vertices are strictly
    timelike future points, the recession rays future causal directions
    (by default a polygonal sampling of the light cone, so the set is a
    polyhedral stand-in for an admissible convex set; its support planes
    are space-like away from an O(delta^2) fringe set by the ray count).
    """

    def __init__(self, vertices, rays=None, check=True):
        self.vertices = np.atleast_2d(np.asarray(vertices, dtype=float))
        self.n = self.vertices.shape[1]
        self.form = bpq(self.n - 1, 1)
        if rays is None:
            rays = lightlike_rays(self.n)
        self.rays = _unit_rows(rays)
        if self.rays.shape[1] != self.n:
            raise ValueError(f"recession rays have {self.rays.shape[1]} coordinates, "
                             f"vertices have {self.n}")
        if check:
            q = self.form.quad(self.vertices)
            if np.any(q >= 0) or np.any(self.vertices[:, -1] <= 0):
                raise ValueError(
                    "body is not admissible: vertices must be future time-like"
                )
            qr = self.form.quad(self.rays)
            if np.any(qr > 1e-9) or np.any(self.rays[:, -1] <= 0):
                raise ValueError(
                    "body is not admissible: recession rays must be future causal"
                )

    def support(self, dirs):
        """sup over the body of b(x, v): +inf where a recession ray r has
        b(r, v) > 1e-9, finite for directions in the dual of the recession cone."""
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        unbounded = np.any(self.rays @ self.form.matrix @ dirs.T > 1e-9, axis=0)
        return np.where(unbounded, np.inf, np.max(self.vertices @ self.form.matrix @ dirs.T, axis=0))

    def dual(self):
        """The set {y : b(x, y) <= -1 for all x in K}, exactly.

        Extreme points come from the dual of the cone over {-1} x K; the
        recession rays of the dual (which need not appear among the 4-d
        extreme rays, e.g. when the extreme points are coplanar) are the
        3-d cone dual {y : b(x, y) <= 0 for x in the body}.
        """
        v, r = self.vertices, self.rays
        lifted = np.vstack([
            np.hstack([-np.ones((len(v), 1)), v]),
            np.hstack([np.zeros((len(r), 1)), r]),
        ])
        gens = PolyCone(generators=lifted).dual(bpq(self.n, 1)).generators
        verts = _cone_vertices(gens, 0, "dual has no vertices; body was not admissible")
        rays = cone_facet_normals(np.vstack([v, r]) @ self.form.matrix)
        return MinkowskiBody(verts, rays=rays, check=False)

    def minkowski_sum(self, other):
        sums = (self.vertices[:, None, :] + other.vertices[None, :, :]).reshape(-1, self.n)
        rays = np.vstack([self.rays, other.rays])
        return MinkowskiBody(sums, rays=_dedupe_rays(rays), check=False)


# ---------------------------------------------------------------------------
# support functions on direction grids


def circle_grid(m=64):
    phi = 2 * np.pi * np.arange(m) / m
    return np.stack([np.cos(phi), np.sin(phi)], axis=1)


def sphere_grid(m=64):
    """Product grid on S^2 avoiding the poles; shape (m*m, 3)."""
    theta = (np.arange(m) + 0.5) * np.pi / m
    phi = 2 * np.pi * np.arange(m) / m
    T, P = np.meshgrid(theta, phi, indexing="ij")
    return chart_jet("S2", T, P)[0].reshape(-1, 3)


def hyperboloid_grid(m=64, radius=2.0):
    """Grid on the upper unit hyperboloid H^2_+ out to rapidity ``radius``."""
    rho = (np.arange(m) + 0.5) * radius / m
    phi = 2 * np.pi * np.arange(m) / m
    R, P = np.meshgrid(rho, phi, indexing="ij")
    return chart_jet("H2", R, P)[0].reshape(-1, 3)


def rapidity_grid(m=64):
    rho = (np.arange(m) - (m - 1) / 2) * (4.0 / m)
    return np.stack([np.sinh(rho), np.cosh(rho)], axis=1)


class SupportFunction:
    """Sampled support function of an admissible body, a graph over the base
    of its co-space: ``values`` h(v) at ``dirs`` v with b(v, v) = ``sign``
    for the base form b, and sign * h > 0.  A subclass is one co-space: its
    ``sign``, base ``form`` (None for the dot product), default ``grid`` and
    convexity test."""

    def __init__(self, dirs, values, grid_shape=None):
        self.dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        self.values = np.asarray(values, dtype=float)
        self.grid_shape = grid_shape
        if np.any(self.sign * self.values <= 0):
            raise ValueError("support function of an admissible body is "
                             + ("positive" if self.sign > 0 else "negative"))

    @property
    def n(self):
        return self.dirs.shape[1]

    def polar_points(self):
        """The polar points p_v = G v / (sign h(v)) as columns, G the matrix of
        the base form: the dual body's support is h*(w) = max_v <w, p_v>."""
        form = self.form
        gv = self.dirs.T if form is None else form.matrix @ self.dirs.T
        return gv / (self.sign * self.values)


class SupportFunctionE(SupportFunction):
    """Support function of a Euclidean body on unit directions, a graph over
    the S^(n-1) base of co-Euclidean space; its one-homogeneous extension is
    H(x) = |x| h(x/|x|)."""

    sign = SPACES["coEuc"].sign
    form = None

    @staticmethod
    def grid(n, m):
        return circle_grid(m) if n == 2 else sphere_grid(m)

    def convexity_violation(self):
        """Max violation of subadditivity H(a) + H(b) >= H(a + b) on grid
        triples taken along meridians (where a + b is again a grid ray)."""
        if self.grid_shape is None:
            return 0.0
        h = self.values
        if self.n == 2:
            mid = 2 * np.cos(2 * np.pi / len(h)) * h
            return float(np.max(mid - (np.roll(h, 1) + np.roll(h, -1))))
        h = h.reshape(self.grid_shape)
        viol = 2 * np.cos(np.pi / len(h)) * h[1:-1] - h[:-2] - h[2:]
        return float(np.max(viol)) if viol.size else 0.0


class SupportFunctionMin(SupportFunction):
    """Support function of a Minkowski body on the future unit hyperboloid
    H^(n-1)_+, the base of co-Minkowski space; the values are negative."""

    sign = SPACES["coMin"].sign

    @property
    def form(self):
        return base_form(f"coMin{self.n}")

    @staticmethod
    def grid(n, m):
        return rapidity_grid(m) if n == 2 else hyperboloid_grid(m)

    def convexity_violation(self):
        """Max violation of convexity along radial grid lines of the
        restriction hbar(y) = H((y, 1)) to the cylinder model's disc points
        y = x'/x_n (the 2-d grid is one line, ordered by y)."""
        if self.grid_shape is None:
            return 0.0
        disc = self.dirs[:, :-1] / self.dirs[:, -1:]
        hbar = self.values / self.dirs[:, -1]
        if self.n == 2:
            order = np.argsort(disc[:, 0])
            r, h = disc[order], hbar[order, None]
        else:
            r = np.linalg.norm(disc, axis=1).reshape(self.grid_shape)
            h = hbar.reshape(self.grid_shape)
        s = (r[1:-1] - r[:-2]) / (r[2:] - r[:-2])
        viol = h[1:-1] - ((1 - s) * h[:-2] + s * h[2:])
        return float(np.max(viol)) if viol.size else 0.0


# the support function class each body samples to
EuclideanBody.support_class = SupportFunctionE
MinkowskiBody.support_class = SupportFunctionMin


def support_from_body(body, dirs=None, grid=64):
    """Sample the support function of a EuclideanBody or MinkowskiBody on
    ``dirs``, by default its class's grid of size ``grid``.

    Euclidean: h(v) = max <x, v>; Minkowski: h(v) = max b(x, v) over the
    vertices, for v on H^(n-1)_+.
    """
    cls = body.support_class
    if dirs is None:
        dirs = cls.grid(body.n, grid)
    # a 3-d grid is (polar, azimuth) when it has a square number of directions
    m = len(dirs)
    root = int(round(np.sqrt(m)))
    shape = (m,) if body.n == 2 else (root, root) if root * root == m else None
    return cls(dirs, body.support(dirs), grid_shape=shape)


def body_from_support(sf):
    """The body cut out by the sampled support halfspaces, exactly: the dual
    of the body spanned by the polar points v / (sign h(v)).

    Euclidean: {y : <y, v_i> <= h_i} is the polar of conv(v_i / h_i).
    Minkowski: {y : b(y, v_i) <= h_i}, h_i < 0, is the dual of
    conv(v_i / -h_i) + cone(v_i).  Raises if the sampled values do not
    bound a body of the right kind.
    """
    points = sf.dirs / (sf.sign * sf.values)[:, None]
    try:
        if isinstance(sf, SupportFunctionE):
            return EuclideanBody(points).dual()
        return MinkowskiBody(points, rays=sf.dirs, check=False).dual()
    except ValueError as exc:
        raise ValueError(f"support samples do not bound an admissible body: {exc}") from exc


def dual_support(sf):
    """Support function of the dual body, from the grid polar formula.

    h*(w) = max_v <w, p_v> over the polar points p_v = G v / (sign h(v)) of
    the grid (``SupportFunction.polar_points``): max_v <v, w> / h(v) for a
    Euclidean body, max_v b(v, w) / (-h(v)) for a Minkowski one.  Exact at
    grid directions whenever the maximizing direction lies on the grid
    (e.g. any body of revolution sampled on its own axis grid: balls and
    hyperboloids give B_r -> B_{1/r} and H_r -> H_{1/r} exactly).

    The maximum inner product is answered by branch and bound over cells
    (the cone-tree bound of Ram & Gray, KDD 2012).  The directions are
    grouped into the voxels of a lattice over their bounding box.  For
    directions w in cell s and points p in cell t, with centroids and radii
    (W_s, r_Ws) and (P_t, r_Pt),

        <w, p> <= U[s, t] = <W_s, P_t> + |W_s| r_Pt + r_Ws (|P_t| + r_Pt),

    and each w is a grid direction with its own point, so
    h*(w) >= <w, p_w> >= L_s, the least own product in cell s.  Cell t is
    dropped for cell s only when U[s, t] < L_s - 1e-12 max|U|: a dropped
    point's exact product then lies below the direction's own product by
    more than the rounding of an n-term dot product, so it can never be the
    floating-point maximum.  The result equals the all-pairs maximum up to
    the rounding of the same dot products.
    """
    dirs = sf.dirs
    n_dirs, n = dirs.shape
    if n_dirs == 0:
        raise ValueError("dual_support needs at least one direction")
    right = sf.polar_points()
    # the directions fill an (n-1)-dimensional sphere or hyperboloid sheet,
    # which meets about 4 k^(n-1) of the k^n voxels: about 64 per cell
    k = max(1, round((n_dirs / 256) ** (1 / max(n - 1, 1))))
    lo, hi = dirs.min(axis=0), dirs.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    voxel = np.clip(((dirs - lo) / span * k).astype(np.intp), 0, k - 1)
    key = np.ravel_multi_index(voxel.T, (k,) * n)
    order = np.argsort(key, kind="stable")
    W, R = dirs[order], right[:, order]
    _, starts, counts = np.unique(key[order], return_index=True, return_counts=True)
    cell = np.repeat(np.arange(len(starts)), counts)

    def centroid_radius(X):
        c = np.add.reduceat(X, starts) / counts[:, None]
        return c, np.maximum.reduceat(np.linalg.norm(X - c[cell], axis=1), starts)

    # the bound is homogeneous in the points: an exact power-of-two scale keeps its norms in range
    Rs = np.ldexp(R, -np.frexp(np.max(np.abs(R)))[1])
    cw, rw = centroid_radius(W)
    cp, rp = centroid_radius(Rs.T)
    low = np.minimum.reduceat(np.einsum("ij,ji->i", W, Rs), starts)
    U = (cw @ cp.T + np.linalg.norm(cw, axis=1)[:, None] * rp
         + rw[:, None] * (np.linalg.norm(cp, axis=1) + rp))
    # written as "not provably below", so a NaN keeps every cell, as the
    # all-pairs maximum would
    keep = ~(U < (low - 1e-12 * np.max(np.abs(U)))[:, None])
    out = np.empty(n_dirs)
    for s, (a, b) in enumerate(zip(starts, starts + counts)):
        cols = R[:, keep[s][cell]]
        # blocks of about 2^17 products, whose 1 MiB output stays in cache
        rows = max(1, 2**17 // cols.shape[1])
        for i in range(a, b, rows):
            j = min(i + rows, b)
            out[order[i:j]] = np.max(W[i:j] @ cols, axis=1)
    return type(sf)(dirs, out, grid_shape=sf.grid_shape)


# ---------------------------------------------------------------------------
# point / hyperplane duality


class Hyperplane:
    """A projective hyperplane, carried by its b-orthogonal direction."""

    def __init__(self, normal, form):
        self.normal = np.asarray(normal, dtype=float)
        if np.linalg.norm(self.normal) == 0:
            raise ValueError("hyperplane normal must be nonzero")
        self.normal = self.normal / np.linalg.norm(self.normal)
        self.form = form

    def basis(self):
        """An orthonormal basis (Euclidean) of the b-orthogonal complement."""
        a = self.form.matrix @ self.normal
        _, _, vt = np.linalg.svd(a[None, :])
        return vt[1:]


def dual_point(space, x):
    """The hyperplane dual to a point: b-orthogonal complement of x.

    In the elliptic and anti-de Sitter cases this is the set of points at
    distance pi/2 from x; a hyperbolic point gives a de Sitter hyperplane
    and vice versa.
    """
    if not space.contains(x):
        raise ValueError(f"point is not in {space.name}")
    return Hyperplane(x.rep, space.form)


def dual_hyperplane(space, plane):
    """Inverse of dual_point: the point b-orthogonal to the hyperplane."""
    return ProjPoint(plane.normal)


def truncation_dual(v, r):
    """Apex of the cone dual to the admissible truncation at distance r.

    The truncation is the part of the future cone F of Min^len(v) on the
    future side of the space-like plane with unit normal v at Lorentzian
    distance r from the origin; its dual is the future cone with apex v / r.
    """
    v = np.asarray(v, dtype=float)
    q = float(bpq(len(v) - 1, 1).quad(v))
    if q >= 0 or v[-1] <= 0:
        raise ValueError("truncation normal must be future time-like")
    v = v / np.sqrt(-q)
    if r <= 0:
        raise ValueError("truncation distance must be positive")
    return v / r


# ---------------------------------------------------------------------------
# cylinder model of co-Minkowski space


def cylinder_to_chart(points):
    """Renormalize co-Minkowski points (v, t), v on H^2_+, to the affine
    chart where the hyperboloid becomes the unit disc: (v'/v3, t/v3)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    v3 = points[:, -2]
    if np.any(np.abs(v3) < 1e-12):
        raise ValueError("sample on the chart boundary (vanishing slice coordinate)")
    disc = points[:, :-2] / v3[:, None]
    height = points[:, -1] / v3
    return np.hstack([disc, height[:, None]])


def cylinder_from_chart(chart_points):
    """Inverse of cylinder_to_chart, back to (v, t) with v on H^2_+."""
    chart_points = np.atleast_2d(np.asarray(chart_points, dtype=float))
    disc = chart_points[:, :-1]
    r2 = np.sum(disc * disc, axis=1)
    if np.any(r2 >= 1.0):
        raise ValueError("chart point outside the unit disc")
    scale = 1.0 / np.sqrt(1.0 - r2)
    v = np.hstack([disc * scale[:, None], scale[:, None]])
    t = chart_points[:, -1] * scale
    return np.hstack([v, t[:, None]])


def cylinder_map_2d(points):
    """The planar projective normalization (x, y) -> (x/y, -1/y)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    x, y = points[:, 0], points[:, 1]
    if np.any(np.abs(y) < 1e-12):
        raise ValueError("sample with y = 0")
    return np.stack([x / y, -1.0 / y], axis=1)


def cylinder_map_2d_inverse(points):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    u, s = points[:, 0], points[:, 1]
    if np.any(np.abs(s) < 1e-12):
        raise ValueError("sample with vanishing second coordinate")
    return np.stack([-u / s, -1.0 / s], axis=1)
