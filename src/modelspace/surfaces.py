"""Embedding data of surface patches and its verification machinery.

A patch is an immersion of a parameter rectangle into one of the six
nondegenerate 3-spaces (Euclidean and Minkowski charts in R^3, the four
pseudo-spheres in R^4) or into a co-space (graphs over S^2 or H^2).
The embedding data consist of the first fundamental form I, the second
fundamental form II (the transverse component of the ambient derivative:
the normal component in the nondegenerate cases, the vertical component
in the degenerate ones), the shape operator B = I^{-1} II and the third
fundamental form III = B^T I B.  All eight spaces take II by one route,
Cramer's rule on the transverse covector c, the signed maximal minors of
(sigma_u, sigma_v) in a flat chart and of (sigma_u, sigma_v, sigma) in R^4:
II_ij = (c . d_ij sigma) / (c . nu), with nu the oriented unit b-normal,
or the vertical e_last in a co-space.

Gauss-Codazzi residuals are measured with grid finite differences: the
intrinsic curvature comes from the Brioschi formula, the Codazzi tensor
from the I-Levi-Civita covariant derivative of B.  Both residuals take the
sup over the inner grid, and every grid-step extrapolation is one
``richardson`` call with ratio 4 (the stencils' error is in h^2).
embedding_data takes stacks: an immersion that returns (T, m, m, d) over
the grid gives (T, m, m, 2, 2) fields, so a surface transition is one call.

The base charts of S^2 and H^2 (and the identity chart of a flat graph)
come from ``projective.chart_jet``; the chart patches and the default
support-function grid share one parameter domain per chart.
"""

from __future__ import annotations

import numpy as np

from ._numerics import central_jet, det_small, inv_small, richardson, solve_small
from .projective import base_form, chart_jet, chart_space, model_space, related, space_family
from .transition import transition_family

__all__ = [
    "SurfacePatch",
    "graph_patch",
    "sphere_patch",
    "hyperboloid_patch",
    "EmbeddingData",
    "embedding_data",
    "embedding_data_co",
    "gauss_curvature",
    "gauss_codazzi_residual",
    "dual_embedding_data",
    "shape_from_support",
    "recover_support_from_shape",
    "immersion_from_data_co_euclidean",
    "surface_transition",
    "sphere_chart",
    "hyperboloid_chart",
    "transition_surface_family",
]


def _gauss_relation(name):
    """(offset, factor) of K_I = offset + factor * det B in a space.

    The offset is the curvature; the factor is b(N, N) of a unit normal to
    a space-like surface: +1 in a Riemannian space, -1 in a Lorentzian one
    (one time-like tangent direction) and 0 in a co-space.
    """
    space = model_space(name)
    curvature = float(space_family(name).curvature)
    if space.degenerate:
        return curvature, 0.0
    form = space.chart_form or space.form
    timelike = form.signature[1] - (space.chart_form is None and space.sign < 0)
    return curvature, 1.0 - 2.0 * timelike


def sphere_chart(theta, phi):
    return chart_jet("S2", theta, phi)[0]


def hyperboloid_chart(rho, phi):
    return chart_jet("H2", rho, phi)[0]


# parameter domain of each chart's patch: (polar angle or rapidity, azimuth)
_CHART_DOMAINS = {"S2": ((0.35, np.pi - 0.35), (0.2, 2 * np.pi - 0.2)),
                  "H2": ((0.1, 1.2), (0.2, 2 * np.pi - 0.2))}


class SurfacePatch:
    """A parametrized surface patch.

    ``immersion(u, v)`` must broadcast over array parameters and return
    points with a trailing coordinate axis.  Optional ``jacobian`` /
    ``hessian`` evaluators (shapes (..., d, 2) and (..., d, 2, 2)) make
    the data exact; otherwise ``_numerics.central_jet`` differences the
    immersion with step 3e-4.  ``normal_hint`` orients the unit normal of
    embedding_data.
    """

    def __init__(self, space, immersion, domain, jacobian=None, hessian=None,
                 normal_hint=None):
        self.space = space
        self.immersion = immersion
        self.domain = domain  # ((u0, u1), (v0, v1))
        self.jacobian = jacobian
        self.hessian = hessian
        self.normal_hint = normal_hint

    def grid(self, m):
        (u0, u1), (v0, v1) = self.domain
        u = np.linspace(u0, u1, m)
        v = np.linspace(v0, v1, m)
        U, V = np.meshgrid(u, v, indexing="ij")
        return U, V, u[1] - u[0], v[1] - v[0]

    def frames(self, U, V):
        """(sigma, J, H) on the grid: points, first and second parameter
        derivatives, shapes (..., d), (..., d, 2), (..., d, 2, 2).  A missing
        evaluator is replaced by ``_numerics.central_jet`` at step 3e-4."""
        f = self.immersion
        if self.jacobian is None or self.hessian is None:
            sigma, jac, hess = central_jet(lambda p: f(p[..., 0], p[..., 1]),
                                           np.stack([U, V], axis=-1), [3e-4])
        else:
            sigma = np.asarray(f(U, V), dtype=float)
        if self.jacobian is not None:
            jac = np.asarray(self.jacobian(U, V), dtype=float)
        if self.hessian is not None:
            hess = np.asarray(self.hessian(U, V), dtype=float)
        return sigma, jac, hess


def sphere_patch(radius=1.0):
    """Round sphere in the Euclidean chart, with analytic derivatives."""
    return _chart_patch("S2", radius)


def hyperboloid_patch(radius=1.0):
    """Future unit hyperboloid (times ``radius``) in the Minkowski chart."""
    return _chart_patch("H2", radius)


def _chart_patch(base, radius):
    """The chart scaled by ``radius``, in the dual of its co-space (Euc3 for S2)."""
    space = model_space(related(chart_space(base), "dual"))
    return SurfacePatch(space, lambda U, V: radius * chart_jet(base, U, V)[0],
                        _CHART_DOMAINS[base],
                        jacobian=lambda U, V: radius * chart_jet(base, U, V, 1)[1],
                        hessian=lambda U, V: radius * chart_jet(base, U, V, 2)[2])


def graph_patch(space, f, domain, df=None, d2f=None):
    """Graph patch: over (x, y) for the flat charts, over S^2 / H^2 for
    the co-spaces (then the parameters are the base chart parameters).

    Optional ``df(U, V) -> (..., 2)`` and ``d2f(U, V) -> (..., 2, 2)``
    give analytic parameter derivatives of the height, in which case the
    whole patch carries exact derivative evaluators (the chart factors
    are closed-form).  A flat graph's normal points up the height axis.
    """
    base = space_family(space.name).chart or "flat"

    def immersion(U, V):
        height = np.asarray(f(U, V), dtype=float)
        return np.concatenate([chart_jet(base, U, V)[0], height[..., None]], axis=-1)

    jacobian = hessian = None
    if df is not None and d2f is not None:
        def jacobian(U, V):
            g = np.asarray(df(U, V), dtype=float)
            return np.concatenate([chart_jet(base, U, V, 1)[1], g[..., None, :]], axis=-2)

        def hessian(U, V):
            h2 = np.asarray(d2f(U, V), dtype=float)
            return np.concatenate([chart_jet(base, U, V, 2)[2], h2[..., None, :, :]], axis=-3)

    hint = (0.0, 0.0, 1.0) if base == "flat" else None
    return SurfacePatch(space, immersion, domain, jacobian=jacobian, hessian=hessian,
                        normal_hint=hint)


class EmbeddingData:
    """Fields (I, II, B, III) over a parameter grid.

    Invariants: II symmetric, II = I B, III = B^T I B, all pointwise.
    """

    def __init__(self, space_name, U, V, du, dv, I, II, B, III):
        self.space_name = space_name
        self.U, self.V = U, V
        self.du, self.dv = du, dv
        self.I, self.II, self.B, self.III = I, II, B, III

    def consistency(self):
        sym = np.max(np.abs(self.II - np.swapaxes(self.II, -1, -2)))
        ib = np.max(np.abs(self.II - self.I @ self.B))
        third = np.max(np.abs(self.III - np.swapaxes(self.B, -1, -2) @ self.I @ self.B))
        return {"II_symmetry": float(sym), "II_equals_IB": float(ib), "III_consistency": float(third)}

    @property
    def det_B(self):
        return det_small(self.B)

    @property
    def mean_curvature(self):
        return np.trace(self.B, axis1=-2, axis2=-1)


def _default_hint(space, sigma):
    name = space.name
    if name == "Euc3":
        hint = -sigma
        degenerate = (hint * hint).sum(-1) < 1e-16
        if np.any(degenerate):
            hint = hint.copy()
            hint[degenerate] = np.array([0.0, 0.0, 1.0])
        return hint
    return np.eye(sigma.shape[-1])[-1]


def _transverse_covector(cols):
    """The covector c vanishing on the d - 1 columns of a stack (..., d, d - 1):
    its entries are the signed maximal minors (-1)^k det(cols without row k)."""
    return np.stack([(-1) ** k * det_small(np.delete(cols, k, axis=-2))
                     for k in range(cols.shape[-2])], axis=-1)


def _embedding(patch, m):
    """EmbeddingData of a space-like patch in any of the eight 3-spaces.

    I is the pullback of the ambient form g (the chart metric of a flat
    space).  II_ij = (c . d_ij sigma) / (c . nu), with c the covector that
    vanishes on sigma_u, sigma_v and, in the spaces that are level sets in
    R^4, on sigma; nu is the unit b-normal g^{-1} c / sqrt|c^T g^{-1} c|
    oriented by the normal hint, or the vertical T = e_last in a co-space.
    This is Cramer's rule for the nu-coefficient of the Hessian in the
    basis (sigma_u, sigma_v, nu[, sigma]).  B = I^{-1} II, III = B^T I B.
    """
    space = patch.space
    U, V, du, dv = patch.grid(m)
    sigma, jac, hess = patch.frames(U, V)
    g = (space.chart_form or space.form).matrix
    I = np.einsum("...ai,...aj->...ij", jac, g @ jac)
    # I positive definite; a NaN passes on, to fail the residual checks
    bad = (det_small(I) <= 1e-12) | (I[..., 0, 0] <= 0)
    if np.any(bad):
        what = "patch is not space-like" if space.degenerate else "induced metric degenerate"
        raise ValueError(f"{what} at grid node {tuple(np.argwhere(bad)[0].tolist())}")
    cols = jac if space.chart_form is not None else np.concatenate([jac, sigma[..., None]], -1)
    c = _transverse_covector(cols)
    if space.degenerate:
        c_nu = c[..., -1]
    else:
        nu = c / np.diag(g)  # g^{-1} c: the registry's forms are diagonal
        nu /= np.sqrt(np.abs((nu * c).sum(-1)))[..., None]
        hint = _default_hint(space, sigma) if patch.normal_hint is None else patch.normal_hint
        nu[(nu * np.asarray(hint, float)).sum(-1) < 0] *= -1.0
        c_nu = (c * nu).sum(-1)
    II = np.einsum("...aij,...a->...ij", hess, c) / c_nu[..., None, None]
    B = solve_small(I, II)
    III = np.swapaxes(B, -1, -2) @ I @ B
    return EmbeddingData(space.name, U, V, du, dv, I, II, B, III)


def embedding_data(patch, m=64):
    """Embedding data of a space-like patch in a 3-space.

    The unit normal is fixed by b-orthogonality; its sign follows the
    patch's ``normal_hint`` (Euclidean dot product), defaulting to the
    inward direction in the Euclidean chart (unit sphere gets B = +Id) and
    to the future/vertical axis elsewhere.  II is the normal coefficient of
    the Hessian by Cramer's rule on the transverse covector, one route
    with ``embedding_data_co``, which serves the co-spaces.  An induced
    metric that is not positive definite raises, reporting the first
    offending grid node.
    """
    if patch.space.degenerate:
        return embedding_data_co(patch, m=m)
    return _embedding(patch, m)


def embedding_data_co(patch, m=64):
    """Embedding data of a space-like graph in a co-space.

    I is the base metric pullback; II is the vertical (T) coefficient of
    the Hessian in the basis (sigma_u, sigma_v, T, sigma), by the same
    Cramer route as ``embedding_data``: the covector that vanishes on
    sigma drops the position component that the degenerate connection
    removes.
    """
    if not patch.space.degenerate:
        raise ValueError("use embedding_data for nondegenerate spaces")
    return _embedding(patch, m)


# ---------------------------------------------------------------------------
# intrinsic curvature and Gauss-Codazzi residuals


def _grid_gradient(F, du, dv):
    return np.gradient(F, du, axis=0), np.gradient(F, dv, axis=1)


def gauss_curvature(I, du, dv):
    """Intrinsic curvature of a 2x2 metric field, by the Brioschi formula."""
    E, F, G = I[..., 0, 0], I[..., 0, 1], I[..., 1, 1]
    E_u, E_v = _grid_gradient(E, du, dv)
    F_u, F_v = _grid_gradient(F, du, dv)
    G_u, G_v = _grid_gradient(G, du, dv)
    E_vv = np.gradient(E_v, dv, axis=1)
    G_uu = np.gradient(G_u, du, axis=0)
    F_uv = np.gradient(F_u, dv, axis=1)
    m1 = np.stack([
        np.stack([-0.5 * E_vv + F_uv - 0.5 * G_uu, 0.5 * E_u, F_u - 0.5 * E_v], axis=-1),
        np.stack([F_v - 0.5 * G_u, E, F], axis=-1),
        np.stack([0.5 * G_v, F, G], axis=-1),
    ], axis=-2)
    m2 = np.stack([
        np.stack([np.zeros_like(E), 0.5 * E_v, 0.5 * G_u], axis=-1),
        np.stack([0.5 * E_v, E, F], axis=-1),
        np.stack([0.5 * G_u, F, G], axis=-1),
    ], axis=-2)
    den = (E * G - F * F) ** 2
    return (det_small(m1) - det_small(m2)) / den


def _christoffel_of_I(I, du, dv, order=2):
    if order == 4:
        dI = np.stack([_grad4(I, du, 0), _grad4(I, dv, 1)], axis=-3)
    else:
        dI = np.stack(_grid_gradient(I, du, dv), axis=-3)  # (..., deriv, i, j)
    Iinv = inv_small(I)
    # d_i I_jl + d_j I_il - d_l I_ij, contracted with I^{kl}
    t1 = dI
    t2 = np.einsum("...jil->...ijl", dI)
    t3 = np.einsum("...lij->...ijl", dI)
    return 0.5 * np.einsum("...kl,...ijl->...kij", Iinv, t1 + t2 - t3)


def _grad4(F, h, axis):
    """Fourth-order central gradient in the deep interior, np.gradient
    (second order) on the 2-cell margin."""
    out = np.gradient(F, h, axis=axis)
    Fm = np.moveaxis(F, axis, 0)
    interior = (
        Fm[:-4] - 8 * Fm[1:-3] + 8 * Fm[3:-1] - Fm[4:]
    ) / (12 * h)
    om = np.moveaxis(out, axis, 0)
    om[2:-2] = interior
    return out


def codazzi_residual_field(data):
    """(nabla_u B)(d_v) - (nabla_v B)(d_u) over the grid, as 2-vectors."""
    B, du, dv = data.B, data.du, data.dv
    gamma = _christoffel_of_I(data.I, du, dv)
    dB = np.stack(_grid_gradient(B, du, dv), axis=-3)  # (..., deriv, k, j)
    # (nabla_i B)^k_j = d_i B^k_j + Gamma^k_{il} B^l_j - Gamma^l_{ij} B^k_l
    cov = dB + np.einsum("...kil,...lj->...ikj", gamma, B) \
        - np.einsum("...lij,...kl->...ikj", gamma, B)
    return cov[..., 0, :, 1] - cov[..., 1, :, 0]


def inner_grid(field):
    """The field on the inner grid: a boundary fraction 0.12 (at least two
    cells) is dropped, where one-sided grid differences lose an order."""
    k = max(2, int(0.12 * field.shape[0]))
    return field[k:-k, k:-k]


def _interior_max(field):
    """sup |field| over the inner grid."""
    return float(np.max(np.abs(inner_grid(field))))


def _residuals(space_name, K, det_B, codazzi):
    """(gauss, codazzi) sup residuals: K_I against offset + factor det B in
    the ambient space, and the Codazzi field."""
    offset, factor = _gauss_relation(space_name)
    return _interior_max(K - (offset + factor * det_B)), _interior_max(codazzi)


def gauss_codazzi_residual(data):
    """Sup-norm residuals (gauss, codazzi) of the data on the inner grid.

    gauss: |K_I - (offset + factor det B)| per the ambient space;
    codazzi: |d^{nabla_I} B|.
    """
    return _residuals(data.space_name, gauss_curvature(data.I, data.du, data.dv),
                      det_small(data.B), codazzi_residual_field(data))


def gauss_codazzi_residual_refined(build_data, m=33):
    """Step-refined residuals: Richardson over grids m and 2m-1.

    ``build_data(m)`` must return the EmbeddingData at resolution m; the
    coarse and fine grids share every other node, where the h^2 term of
    the grid differencing is eliminated.  det B is pointwise (no grid
    differencing), so only K_I and the Codazzi field are extrapolated.
    """
    coarse = build_data(m)
    fine = build_data(2 * m - 1)
    K = richardson([gauss_curvature(coarse.I, coarse.du, coarse.dv),
                    gauss_curvature(fine.I, fine.du, fine.dv)[::2, ::2]], ratio=4.0)
    codazzi = richardson([codazzi_residual_field(coarse),
                          codazzi_residual_field(fine)[::2, ::2]], ratio=4.0)
    return _residuals(coarse.space_name, K, det_small(coarse.B), codazzi)


def _smaller_eigenvalue(B):
    """The smaller eigenvalue of the symmetric part of each 2x2 matrix in B."""
    a, d = B[..., 0, 0], B[..., 1, 1]
    b = 0.5 * (B[..., 0, 1] + B[..., 1, 0])
    return 0.5 * (a + d) - np.hypot(0.5 * (a - d), b)


def dual_embedding_data(data):
    """Data of the dual surface: (I, B) -> (III, B^{-1}).

    Requires B positive definite everywhere; the involution property and
    the curvature dictionary K_III = K_I / det B come with it.
    """
    low = _smaller_eigenvalue(data.B)
    if np.any(low <= 1e-12):
        idx = np.argwhere(~(low > 1e-12))[0]
        raise ValueError(f"shape operator not positive definite at node {tuple(idx.tolist())}")
    Binv = inv_small(data.B)
    I2 = data.III
    II2 = I2 @ Binv
    III2 = np.swapaxes(Binv, -1, -2) @ I2 @ Binv
    return EmbeddingData(related(data.space_name, "dual"), data.U, data.V, data.du, data.dv,
                         I2, II2, Binv, III2)


# ---------------------------------------------------------------------------
# support functions and shape operators on the co-space side

# central stencils on the offsets -2..2 (first and second derivative):
# fourth order for the deep interior, second order (zero-padded) for the
# 1-ring; the support recovery and its forward map share them
_OFFS = np.arange(-2, 3)
_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
_D1_RING = np.array([0.0, -0.5, 0.0, 0.5, 0.0])
_D2_RING = np.array([0.0, 1.0, -2.0, 1.0, 0.0])


def _ambient_extension_hessian(u_fn, points, g):
    """Hessian of the one-homogeneous extension of u at base points.

    U(y) = |y|_g u(y/|y|_g), with g the base form: Euclidean for S^2,
    Lorentzian for H^2; points shape (..., 3).  One ``_numerics.central_jet``
    call, the stencil of ``SurfacePatch.frames``, at steps 2e-4 and 1e-4
    with one Richardson level: each offset costs one evaluation of U, on
    both steps at once, with u_fn seeing the points in their own row layout.
    """
    def U(y):
        q = (y @ g * y).sum(-1)
        s = np.sqrt(np.abs(q))
        return s * np.asarray(u_fn(y / s[..., None]))

    return central_jet(U, points, [2e-4, 1e-4])[2]


def shape_from_support(u_fn, base="S2", domain=None, m=64):
    """Shape operator field from a support function on S^2 or H^2.

    Computed through the ambient Hessian of the one-homogeneous
    extension: its restriction to the tangent plane is Hess u + u Id on
    the sphere and Hess u - u Id on the hyperboloid, which is exactly the
    shape operator of the graph of u in the matching co-space.  Returns
    (B, I) in the chart coordinate frame, on an m x m grid over ``domain``
    (by default the chart patch's).
    """
    (u0, u1), (v0, v1) = _CHART_DOMAINS[base] if domain is None else domain
    Ug, Vg = np.meshgrid(np.linspace(u0, u1, m), np.linspace(v0, v1, m), indexing="ij")
    points, jac = chart_jet(base, Ug, Vg, 1)
    g = base_form(chart_space(base)).matrix
    H = _ambient_extension_hessian(u_fn, points, g)
    hform = np.einsum("...ai,...ab,...bj->...ij", jac, H, jac)
    gj = np.einsum("ab,...bi->...ai", g, jac)
    I = np.einsum("...ai,...aj->...ij", jac, gj)
    B = solve_small(I, hform)
    return B, I


def _stencil_kernels(d1, d2, du, dv):
    """Kernels of d_uu, d_uv, d_vv, d_u, d_v and the identity on the 5x5
    offsets (-2..2)^2, from one first- and one second-derivative stencil."""
    k = np.zeros((6, 5, 5))
    k[0, :, 2] = d2 / du**2
    k[1] = np.outer(d1 / du, d1 / dv)
    k[2, 2, :] = d2 / dv**2
    k[3, :, 2] = d1 / du
    k[4, 2, :] = d1 / dv
    k[5, 2, 2] = 1.0
    return k


def _support_operator(I, du, dv):
    """The discrete support operator u -> Hess_I(u) + u I and its row weights.

    One row per 1-ring-interior node and component ab in (00, 01, 11),
    node by node, with Hess(u)_ab = d_a d_b u - Gamma^k_ab d_k u: fourth
    order and weight 1 in the deep interior, second order and weight 0.05
    on the 1-ring.  Returns (S, weights): S a CSR matrix of shape
    (3 (m1 - 2)(m2 - 2), m1 m2) on the unknowns numbered row by row, and
    the least-squares weight of each of its rows.  The recovery solves
    with it and its forward map applies it.
    """
    import scipy.sparse as sp

    m1, m2 = I.shape[:2]
    gamma = _christoffel_of_I(I, du, dv, order=4)
    a, b = np.array([0, 0, 1]), np.array([0, 1, 1])
    inner = np.s_[1:-1, 1:-1]
    gam = gamma[inner][..., a, b].reshape(-1, 2, 3)
    Iab = I[inner][..., a, b].reshape(-1, 3)
    ii, jj = (g.ravel() for g in np.meshgrid(np.arange(1, m1 - 1), np.arange(1, m2 - 1),
                                             indexing="ij"))
    deep = (ii >= 2) & (ii < m1 - 2) & (jj >= 2) & (jj < m2 - 2)
    eq = np.arange(3 * len(ii)).reshape(-1, 3)
    # the 1-ring rows only pin the outermost unknowns; a weight of 0.05
    # keeps their h^2 truncation error from leaking into the interior fit
    levels = ((deep, _D1, _D2, 1.0), (~deep, _D1_RING, _D2_RING, 0.05))
    rows, cols, vals, weights = [], [], [], np.empty(eq.size)
    for mask, d1, d2, weight in levels:
        kern = _stencil_kernels(d1, d2, du, dv)
        coef = kern[:3] - np.einsum("nkc,kxy->ncxy", gam[mask], kern[3:5]) \
            + Iab[mask][..., None, None] * kern[5]
        used = np.broadcast_to(np.any(kern[3:] != 0, axis=0) | (kern[:3] != 0), coef.shape)
        col = (ii[mask, None, None, None] + _OFFS[:, None]) * m2 + jj[mask, None, None, None] + _OFFS
        rows.append(np.broadcast_to(eq[mask][..., None, None], coef.shape)[used])
        cols.append(np.broadcast_to(col, coef.shape)[used])
        vals.append(coef[used])
        weights[eq[mask]] = weight
    S = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(eq.size, m1 * m2))
    return S, weights


def recover_support_from_shape(B, I, du, dv, points):
    """Least-squares solve of Hess_I(u) + u I = I B for the support u.

    ``B`` must be symmetric with respect to I and satisfy the Codazzi
    equation (checked first; no solution exists otherwise).  The equations
    are the weighted rows of ``_support_operator``, the operator that
    ``apply_shape_operator`` applies.  The kernel of the operator, spanned
    by restrictions of ambient linear functions, is fixed by forcing the
    discrete projections of u onto <x, e_a> to vanish.  Returns the grid
    of u values.
    """
    m1, m2 = B.shape[:2]
    # Codazzi precondition; the discrete estimator of a true Codazzi
    # tensor is itself O(h^2), so the threshold floors at the grid error
    IB = I @ B
    data = EmbeddingData("coEuc3", None, None, du, dv, I, IB, B, np.swapaxes(B, -1, -2) @ IB)
    h2 = max(du, dv) ** 2
    threshold = max(1e-5, h2 * (1.0 + float(np.max(np.abs(B)))))
    if _interior_max(codazzi_residual_field(data)) > threshold:
        raise ValueError("shape operator violates the Codazzi equation; no support function exists")
    import scipy.sparse as sp
    from scipy.sparse.linalg import spsolve

    S, weights = _support_operator(I, du, dv)
    S.data *= np.repeat(weights, np.diff(S.indptr))
    rhs = weights * IB[1:-1, 1:-1][..., [0, 0, 1], [0, 1, 1]].ravel()
    # gauge: discrete projections of u onto the linear functions vanish.
    # The least-squares normal equations S^T S u + L^T L u = S^T r keep
    # the three dense gauge rows L in a border, z = L u, so the matrix
    # stays as sparse as the stencils.  Unknowns are numbered row by row,
    # so S^T S is banded (half-width 4 m2 + 4) with the border last, and
    # the natural order keeps the LU fill inside the band
    L = sp.csr_matrix(du * dv * points.reshape(-1, 3).T)
    border = sp.bmat([[S.T @ S, L.T], [L, -sp.identity(3)]], format="csc")
    sol = spsolve(border, np.concatenate([S.T @ rhs, np.zeros(3)]), permc_spec="NATURAL")
    return sol[:-3].reshape(m1, m2)


def apply_shape_operator(u_grid, I, du, dv):
    """Discrete Hess_I(u) + u I -> B, the forward map of the recovery.

    The deep-interior rows of ``_support_operator``, the recovery's own
    operator, applied to u and solved against I; the two-cell margin
    replicates its nearest interior value.
    """
    m1, m2 = u_grid.shape
    S, _ = _support_operator(I, du, dv)
    form = (S @ u_grid.ravel()).reshape(m1 - 2, m2 - 2, 3)[1:-1, 1:-1]
    c = np.s_[2:-2]
    B = np.empty(u_grid.shape + (2, 2))
    B[c, c] = solve_small(I[c, c], form[..., [[0, 1], [1, 2]]])
    # replicate the two-cell margin from the nearest interior values
    B[:2, :] = B[2, :]
    B[-2:, :] = B[-3, :]
    B[:, :2] = B[:, 2][:, None]
    B[:, -2:] = B[:, -3][:, None]
    return B


def immersion_from_data_co_euclidean(dev, u_fn, domain):
    """Immersion (dev, u) into co-Euclidean space from its data.

    ``dev`` maps parameters into S^2 (checked to 1e-6); the embedding
    data of the returned patch are (round pullback, Hess u + u Id).  Two
    immersions built from u and u + <dev, p0> have identical data: they
    differ by the vertical shear isometry.
    """
    (u0, u1), (v0, v1) = domain
    Ug, Vg = np.meshgrid(np.linspace(u0, u1, 7), np.linspace(v0, v1, 7), indexing="ij")
    pts = np.asarray(dev(Ug, Vg), dtype=float)
    norms = np.sqrt((pts * pts).sum(-1))
    if np.max(np.abs(norms - 1.0)) > 1e-6:
        raise ValueError("developing map does not land on the unit sphere")

    space = model_space("coEuc3")

    def immersion(U, V):
        base = np.asarray(dev(U, V), dtype=float)
        return np.concatenate(
            [base, np.asarray(u_fn(base), dtype=float)[..., None]], axis=-1
        )

    return SurfacePatch(space, immersion, domain)


# ---------------------------------------------------------------------------
# geometric transition of surfaces


def transition_surface_family(src_name, height):
    """Surfaces in a 3-space that flatten into its plane-limit co-space.

    ``height(t, m, U, V)`` is the coordinate across the blown-up plane above
    the point m = chart(U, V) of the co-space's base (S^2 or H^2) and must
    vanish at t = 0.  Returns ``family(t, U, V)``: m with the height
    inserted in the blown-up slot, scaled onto b(x, x) = sign; a t-array
    (T, 1, 1) gives points (T, m, m, 4).
    """
    space = model_space(src_name)
    axis = transition_family(src_name, "plane").axis
    base = space_family(related(src_name, "plane_limit")).chart
    g = space.form.matrix[axis, axis]

    def family(t, U, V):
        m = chart_jet(base, U, V)[0]
        h = height(t, m, U, V)
        vec = np.insert(np.broadcast_to(m, h.shape + m.shape[-1:]), axis, h, axis=-1)
        return vec / np.sqrt(np.abs(space.sign + g * h**2))[..., None]

    return family


def surface_transition(family, src_name, m=17, ts=None):
    """Rescaled limit of the embedding data of a degenerating family.

    ``family(t, U, V)`` immerses the patch into Ell3/dS3 (limit coEuc3)
    or Hyp3/AdS3 (limit coMin3) with the t = 0 surface inside the blown-up
    plane; it takes a scalar t and the schedule as a t-array (T, 1, 1),
    returning (T, m, m, 4).  Returns a dict with the limit data (I, II/t,
    B/t, K_ext/t^2 extrapolated) from one embedding_data call on the
    (T, m, m) stack, the EmbeddingData of the rescaled limit graph computed
    independently in the co-space, their sup gaps, and the linearity
    diagnostics of the convergence rate.
    """
    co_name = related(src_name, "plane_limit")
    src = model_space(src_name)
    cosp = model_space(co_name)
    fam = transition_family(src_name, "plane")
    ts = 0.5 ** np.arange(3, 10) if ts is None else np.asarray(ts, dtype=float)
    # the S2 chart patch's domain; on H2 the rapidity stops at 1.0
    domain = _CHART_DOMAINS["S2"] if space_family(co_name).chart == "S2" \
        else ((0.1, 1.0), (0.2, 2 * np.pi - 0.2))

    # t = 0 check: the base surface must be planar (in the blown-up plane)
    (u0, u1), (v0, v1) = domain
    Up, Vp = np.meshgrid(np.linspace(u0, u1, 5), np.linspace(v0, v1, 5), indexing="ij")
    base0 = np.asarray(family(0.0, Up, Vp), dtype=float)
    if np.max(np.abs(base0[..., fam.axis])) > 1e-8:
        raise ValueError("the t=0 surface is not contained in the blown-up plane")

    # the schedule is the leading axis of one (T, m, m) patch
    t = ts[:, None, None]
    patch = SurfacePatch(src, lambda U, V: family(t, U, V), domain,
                         normal_hint=np.eye(4)[fam.axis])
    data = embedding_data(patch, m=m)
    seq_II = data.II / t[..., None, None]
    I_lim = richardson(data.I)
    II_lim = richardson(seq_II)
    B_lim = richardson(data.B / t[..., None, None])
    K_lim = richardson(det_small(data.B) / t**2)

    # independent side: the limit graph in the co-space
    def limit_immersion(U, V):
        x = np.asarray(family(t, U, V), dtype=float)
        return richardson(np.einsum("tab,t...b->t...a", fam.matrix(ts), x))

    co_patch = SurfacePatch(cosp, limit_immersion, domain)
    co_data = embedding_data_co(co_patch, m=m)

    gaps = {
        "I": float(np.max(np.abs(I_lim - co_data.I))),
        "II": float(np.max(np.abs(II_lim - co_data.II))),
        "B": float(np.max(np.abs(B_lim - co_data.B))),
        "K_ext": float(np.max(np.abs(K_lim - det_small(co_data.B)))),
    }
    # linear-in-t convergence of II_t/t towards the independent co-route,
    # fitted on the asymptotic (small-t) end of the schedule where the
    # quadratic remainder is negligible
    errs = np.max(np.abs(seq_II - co_data.II), axis=(1, 2, 3, 4))
    tail = min(5, len(ts))
    # the R^2 of the least-squares line is the squared correlation of (t, err)
    dt, de = ts[-tail:] - ts[-tail:].mean(), errs[-tail:] - errs[-tail:].mean()
    ss_tot = float(de @ de)
    r2 = float((dt @ de) ** 2 / ((dt @ dt) * ss_tot)) if ss_tot > 0 else 1.0
    limit_data = EmbeddingData(co_name, data.U, data.V, data.du, data.dv, I_lim, II_lim, B_lim,
                               np.swapaxes(B_lim, -1, -2) @ I_lim @ B_lim)
    return {
        "limit": limit_data,
        "co_data": co_data,
        "gaps": gaps,
        "K_ext_limit": K_lim,
        "rate_r2": r2,
        "rate_errors": errs,
        "ts": ts,
    }
