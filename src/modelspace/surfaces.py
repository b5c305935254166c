"""Embedding data of surface patches and its verification machinery.

A patch is an immersion of a parameter rectangle into one of the six
nondegenerate 3-spaces (Euclidean and Minkowski charts in R^3, the four
pseudo-spheres in R^4) or into a co-space (graphs over S^2 or H^2).
The embedding data consist of the first fundamental form I, the second
fundamental form II (the transverse component of the ambient derivative:
the normal component in the nondegenerate cases, the vertical component
in the degenerate ones), the shape operator B = I^{-1} II and the third
fundamental form III = B^T I B.

Gauss-Codazzi residuals are measured with grid finite differences: the
intrinsic curvature comes from the Brioschi formula, the Codazzi tensor
from the I-Levi-Civita covariant derivative of B.
"""

from __future__ import annotations

import numpy as np

from ._numerics import richardson
from .projective import model_space, related, space_family
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
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    return np.stack([st * cp, st * sp, ct], axis=-1)


def hyperboloid_chart(rho, phi):
    sr, cr = np.sinh(rho), np.cosh(rho)
    sp, cp = np.sin(phi), np.cos(phi)
    return np.stack([sr * cp, sr * sp, cr], axis=-1)


_CHARTS = {"S2": sphere_chart, "H2": hyperboloid_chart}


class SurfacePatch:
    """A parametrized surface patch.

    ``immersion(u, v)`` must broadcast over array parameters and return
    points with a trailing coordinate axis.  Optional ``jacobian`` /
    ``hessian`` evaluators (shapes (..., d, 2) and (..., d, 2, 2)) make
    the data exact; otherwise central differences with one refinement
    level are used.
    """

    def __init__(self, space, immersion, domain, jacobian=None, hessian=None,
                 normal_hint=None, flip_normal=False):
        self.space = space
        self.immersion = immersion
        self.domain = domain  # ((u0, u1), (v0, v1))
        self.jacobian = jacobian
        self.hessian = hessian
        self.normal_hint = normal_hint
        self.flip_normal = flip_normal

    def grid(self, m):
        (u0, u1), (v0, v1) = self.domain
        u = np.linspace(u0, u1, m)
        v = np.linspace(v0, v1, m)
        U, V = np.meshgrid(u, v, indexing="ij")
        return U, V, u[1] - u[0], v[1] - v[0]

    def frames(self, U, V, h=3e-4):
        """(sigma, J, H) on the grid: points, first and second parameter
        derivatives, shapes (..., d), (..., d, 2), (..., d, 2, 2)."""
        sigma = np.asarray(self.immersion(U, V), dtype=float)
        if self.jacobian is not None:
            jac = np.asarray(self.jacobian(U, V), dtype=float)
        else:
            du = (np.asarray(self.immersion(U + h, V)) - np.asarray(self.immersion(U - h, V))) / (2 * h)
            dv = (np.asarray(self.immersion(U, V + h)) - np.asarray(self.immersion(U, V - h))) / (2 * h)
            jac = np.stack([du, dv], axis=-1)
        if self.hessian is not None:
            hess = np.asarray(self.hessian(U, V), dtype=float)
        else:
            f = self.immersion
            duu = (np.asarray(f(U + h, V)) - 2 * sigma + np.asarray(f(U - h, V))) / h**2
            dvv = (np.asarray(f(U, V + h)) - 2 * sigma + np.asarray(f(U, V - h))) / h**2
            duv = (
                np.asarray(f(U + h, V + h))
                - np.asarray(f(U + h, V - h))
                - np.asarray(f(U - h, V + h))
                + np.asarray(f(U - h, V - h))
            ) / (4 * h**2)
            hess = np.stack(
                [np.stack([duu, duv], axis=-1), np.stack([duv, dvv], axis=-1)],
                axis=-1,
            )
        return sigma, jac, hess


def sphere_patch(radius=1.0, domain=((0.35, np.pi - 0.35), (0.2, 2 * np.pi - 0.2))):
    """Round sphere in the Euclidean chart, with analytic derivatives."""
    return _chart_patch(model_space("Euc3"), "S2", radius, domain)


def hyperboloid_patch(radius=1.0, domain=((0.1, 1.2), (0.2, 2 * np.pi - 0.2))):
    """Future unit hyperboloid (times ``radius``) in the Minkowski chart."""
    return _chart_patch(model_space("Min3"), "H2", radius, domain)


def _chart_patch(space, base, radius, domain):
    chart = _CHARTS[base]
    return SurfacePatch(space, lambda U, V: radius * chart(U, V), domain,
                        jacobian=lambda U, V: radius * _chart_jacobian(base, U, V),
                        hessian=lambda U, V: radius * _chart_hessian(base, U, V))


def _chart_jacobian(base, U, V):
    """Parameter derivatives of the S2/H2 chart, shape (..., 3, 2)."""
    if base == "S2":
        st, ct = np.sin(U), np.cos(U)
        sp, cp = np.sin(V), np.cos(V)
        du = np.stack([ct * cp, ct * sp, -st], axis=-1)
        dv = np.stack([-st * sp, st * cp, np.zeros_like(st)], axis=-1)
    else:
        sr, cr = np.sinh(U), np.cosh(U)
        sp, cp = np.sin(V), np.cos(V)
        du = np.stack([cr * cp, cr * sp, sr], axis=-1)
        dv = np.stack([-sr * sp, sr * cp, np.zeros_like(sr)], axis=-1)
    return np.stack([du, dv], axis=-1)


def _chart_hessian(base, U, V):
    """Second parameter derivatives of the S2/H2 chart, shape (..., 3, 2, 2)."""
    if base == "S2":
        st, ct = np.sin(U), np.cos(U)
        sp, cp = np.sin(V), np.cos(V)
        m_uu = -np.stack([st * cp, st * sp, ct], axis=-1)
        m_uv = np.stack([-ct * sp, ct * cp, np.zeros_like(st)], axis=-1)
        m_vv = np.stack([-st * cp, -st * sp, np.zeros_like(st)], axis=-1)
    else:
        sr, cr = np.sinh(U), np.cosh(U)
        sp, cp = np.sin(V), np.cos(V)
        m_uu = np.stack([sr * cp, sr * sp, cr], axis=-1)
        m_uv = np.stack([-cr * sp, cr * cp, np.zeros_like(sr)], axis=-1)
        m_vv = np.stack([-sr * cp, -sr * sp, np.zeros_like(sr)], axis=-1)
    h = np.empty(m_uu.shape + (2, 2))
    h[..., 0, 0], h[..., 0, 1] = m_uu, m_uv
    h[..., 1, 0], h[..., 1, 1] = m_uv, m_vv
    return h


def graph_patch(space, f, domain, base="auto", df=None, d2f=None):
    """Graph patch: over (x, y) for the flat charts, over S^2 / H^2 for
    the co-spaces (then the parameters are the base chart parameters).

    Optional ``df(U, V) -> (..., 2)`` and ``d2f(U, V) -> (..., 2, 2)``
    give analytic parameter derivatives of the height, in which case the
    whole patch carries exact derivative evaluators (the chart factors
    are closed-form).
    """
    if base == "auto":
        base = space_family(space.name).chart or "flat"
    if base == "flat":
        def immersion(U, V):
            return np.stack([U, V, np.asarray(f(U, V), dtype=float)], axis=-1)

        return SurfacePatch(space, immersion, domain)

    chart = _CHARTS[base]

    def immersion(U, V):
        m = chart(U, V)
        return np.concatenate([m, np.asarray(f(U, V), dtype=float)[..., None]], axis=-1)

    jacobian = hessian = None
    if df is not None and d2f is not None:
        def jacobian(U, V):
            jm = _chart_jacobian(base, U, V)
            g = np.asarray(df(U, V), dtype=float)
            return np.concatenate([jm, g[..., None, :]], axis=-2)

        def hessian(U, V):
            hm = _chart_hessian(base, U, V)
            h2 = np.asarray(d2f(U, V), dtype=float)
            return np.concatenate([hm, h2[..., None, :, :]], axis=-3)

    return SurfacePatch(space, immersion, domain, jacobian=jacobian, hessian=hessian)


class EmbeddingData:
    """Fields (I, II, B, III) over a parameter grid.

    Invariants: II symmetric, II = I B, III = B^T I B, all pointwise.
    """

    def __init__(self, space_name, U, V, du, dv, I, II, B, III, meta=None):
        self.space_name = space_name
        self.U, self.V = U, V
        self.du, self.dv = du, dv
        self.I, self.II, self.B, self.III = I, II, B, III
        self.meta = meta or {}

    def consistency(self):
        sym = np.max(np.abs(self.II - np.swapaxes(self.II, -1, -2)))
        ib = np.max(np.abs(self.II - self.I @ self.B))
        third = np.max(np.abs(self.III - np.swapaxes(self.B, -1, -2) @ self.I @ self.B))
        return {"II_symmetry": float(sym), "II_equals_IB": float(ib), "III_consistency": float(third)}

    @property
    def det_B(self):
        return np.linalg.det(self.B)

    @property
    def mean_curvature(self):
        return np.trace(self.B, axis1=-2, axis2=-1)


def _default_hint(space, sigma):
    name = space.name
    if name == "Euc3":
        hint = -sigma
        degenerate = np.linalg.norm(hint, axis=-1) < 1e-8
        if np.any(degenerate):
            hint = hint.copy()
            hint[degenerate] = np.array([0.0, 0.0, 1.0])
        return hint
    e = np.zeros(sigma.shape[-1])
    e[-1] = 1.0
    return np.broadcast_to(e, sigma.shape)


def embedding_data(patch, m=64, normal_hint=None):
    """Embedding data of a space-like patch in a nondegenerate 3-space.

    The unit normal is fixed by b-orthogonality; its sign follows
    ``normal_hint`` (Euclidean dot product), defaulting to the inward
    direction in the Euclidean chart (unit sphere gets B = +Id) and to
    the future/vertical axis elsewhere.  Degenerate induced metrics
    raise, reporting the offending grid node.
    """
    space = patch.space
    if space.degenerate:
        return embedding_data_co(patch, m=m)
    U, V, du, dv = patch.grid(m)
    sigma, jac, hess = patch.frames(U, V)
    d = sigma.shape[-1]
    if d == 3:
        g = space.chart_form.matrix
        gj = np.einsum("ab,...bi->...ai", g, jac)
        I = np.einsum("...ai,...aj->...ij", jac, gj)
        cross = np.cross(jac[..., 0], jac[..., 1])
        normal = np.einsum("ab,...b->...a", np.linalg.inv(g), cross)
    else:
        g = space.form.matrix
        gj = np.einsum("ab,...bi->...ai", g, jac)
        I = np.einsum("...ai,...aj->...ij", jac, gj)
        # normal: b-orthogonal to sigma_u, sigma_v and to the position
        rows = np.concatenate(
            [np.swapaxes(gj, -1, -2), np.einsum("ab,...b->...a", g, sigma)[..., None, :]],
            axis=-2,
        )
        _, _, vt = np.linalg.svd(rows)
        normal = vt[..., -1, :]
    qn = np.einsum("...a,ab,...b->...", normal, g, normal)
    bad = np.abs(qn) < 1e-12
    if np.any(bad):
        idx = np.argwhere(bad)[0]
        raise ValueError(f"degenerate normal direction at grid node {tuple(idx)}")
    normal = normal / np.sqrt(np.abs(qn))[..., None]
    qn = np.sign(qn)
    hint = normal_hint if normal_hint is not None else patch.normal_hint
    hint = _default_hint(space, sigma) if hint is None else np.broadcast_to(np.asarray(hint, float), sigma.shape)
    flip = np.sum(normal * hint, axis=-1) < 0
    normal[flip] *= -1.0
    if patch.flip_normal:
        normal = -normal
    detI = np.linalg.det(I)
    if np.any(detI <= 1e-12) or np.any(I[..., 0, 0] <= 0):
        idx = np.argwhere(~(detI > 1e-12))[0]
        raise ValueError(f"induced metric degenerate at grid node {tuple(idx)}")
    II = np.einsum("...aij,ab,...b->...ij", hess, g, normal) / qn[..., None, None]
    B = np.linalg.solve(I, II)
    III = np.swapaxes(B, -1, -2) @ I @ B
    meta = {"normal_orientation": "hint-aligned", "grid": m}
    return EmbeddingData(space.name, U, V, du, dv, I, II, B, III, meta=meta)


def embedding_data_co(patch, m=64):
    """Embedding data of a space-like graph in a co-space.

    I is the base metric pullback; II is the vertical (T) component of
    the degenerate-connection derivative in the splitting
    tangent(surface) + <T>.
    """
    space = patch.space
    if not space.degenerate:
        raise ValueError("use embedding_data for nondegenerate spaces")
    U, V, du, dv = patch.grid(m)
    sigma, jac, hess = patch.frames(U, V)
    b = space.form.matrix
    gj = np.einsum("ab,...bi->...ai", b, jac)
    I = np.einsum("...ai,...aj->...ij", jac, gj)
    detI = np.linalg.det(I)
    if np.any(detI <= 1e-12):
        idx = np.argwhere(~(detI > 1e-12))[0]
        raise ValueError(f"patch is not space-like at grid node {tuple(idx)}")
    # co-connection value: remove the N = x component as measured by b
    qx = np.einsum("...a,ab,...b->...", sigma, b, sigma)
    bx_h = np.einsum("...a,ab,...bij->...ij", sigma, b, hess)
    nabla = hess - (bx_h / qx[..., None, None])[..., None, :, :] * sigma[..., :, None, None]
    # vertical coefficient in the basis (sigma_u, sigma_v, T)
    t_vec = np.zeros(sigma.shape[-1])
    t_vec[-1] = 1.0
    basis = np.concatenate(
        [jac, np.broadcast_to(t_vec, sigma.shape)[..., None]], axis=-1
    )
    II = _batched_solve(basis, nabla)
    B = np.linalg.solve(I, II)
    III = np.swapaxes(B, -1, -2) @ I @ B
    meta = {"vertical": "T = e_last", "grid": m}
    return EmbeddingData(space.name, U, V, du, dv, I, II, B, III, meta=meta)


def _batched_solve(basis, nabla):
    """Vertical coefficient of nabla in the (sigma_u, sigma_v, T) basis."""
    shape = nabla.shape[:-3]
    d = basis.shape[-2]
    bas = basis.reshape(-1, d, 3)
    nab = nabla.reshape(-1, d, 2, 2)
    rhs = nab.transpose(0, 2, 3, 1).reshape(-1, d)
    bas_rep = np.repeat(bas, 4, axis=0)
    # least squares via normal equations (basis is full rank: surface
    # tangents plus the vertical direction)
    bt = np.swapaxes(bas_rep, -1, -2)
    gram = bt @ bas_rep
    proj = (bt @ rhs[..., None])[..., 0]
    sol = np.linalg.solve(gram, proj[..., None])[..., 0]
    out = sol[..., 2].reshape(-1, 2, 2)
    return out.reshape(shape + (2, 2))


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
    return (np.linalg.det(m1) - np.linalg.det(m2)) / den


def _christoffel_of_I(I, du, dv, order=2):
    if order == 4:
        dI = np.stack([_grad4(I, du, 0), _grad4(I, dv, 1)], axis=-3)
    else:
        dI = np.stack(_grid_gradient(I, du, dv), axis=-3)  # (..., deriv, i, j)
    Iinv = np.linalg.inv(I)
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


def gauss_codazzi_residual(data, space_name=None, trim=0.12):
    """Sup-norm residuals (gauss, codazzi) of the data on the inner grid.

    gauss: |K_I - (offset + factor det B)| per the ambient space;
    codazzi: |d^{nabla_I} B|.  A boundary fraction ``trim`` is dropped,
    where one-sided grid differences lose an order.
    """
    offset, factor = _gauss_relation(space_name or data.space_name)
    K = gauss_curvature(data.I, data.du, data.dv)
    gauss = np.abs(K - (offset + factor * np.linalg.det(data.B)))
    cod = np.abs(codazzi_residual_field(data))
    k = max(2, int(trim * gauss.shape[0]))
    inner = np.s_[k:-k, k:-k]
    return float(np.max(gauss[inner])), float(np.max(cod[inner]))


def gauss_codazzi_residual_refined(build_data, m=33, trim=0.12):
    """Step-refined residuals: Richardson over grids m and 2m-1.

    ``build_data(m)`` must return the EmbeddingData at resolution m; the
    coarse and fine grids share every other node, where the h^2 term of
    the grid differencing is eliminated.  det B is pointwise (no grid
    differencing), so only K_I and the Codazzi field are extrapolated.
    """
    coarse = build_data(m)
    fine = build_data(2 * m - 1)
    offset, factor = _gauss_relation(coarse.space_name)
    kc = gauss_curvature(coarse.I, coarse.du, coarse.dv)
    kf = gauss_curvature(fine.I, fine.du, fine.dv)[::2, ::2]
    k_ref = (4.0 * kf - kc) / 3.0
    gauss = np.abs(k_ref - (offset + factor * np.linalg.det(coarse.B)))
    cc = codazzi_residual_field(coarse)
    cf = codazzi_residual_field(fine)[::2, ::2]
    cod = np.abs((4.0 * cf - cc) / 3.0)
    k = max(2, int(trim * gauss.shape[0]))
    inner = np.s_[k:-k, k:-k]
    return float(np.max(gauss[inner])), float(np.max(cod[inner]))


def dual_embedding_data(data):
    """Data of the dual surface: (I, B) -> (III, B^{-1}).

    Requires B positive definite everywhere; the involution property and
    the curvature dictionary K_III = K_I / det B come with it.
    """
    eig = np.linalg.eigvalsh(0.5 * (data.B + np.swapaxes(data.B, -1, -2)))
    if np.any(eig <= 1e-12):
        idx = np.argwhere(~(np.min(eig, axis=-1) > 1e-12))[0]
        raise ValueError(f"shape operator not positive definite at node {tuple(idx)}")
    Binv = np.linalg.inv(data.B)
    I2 = data.III
    II2 = I2 @ Binv
    III2 = np.swapaxes(Binv, -1, -2) @ I2 @ Binv
    return EmbeddingData(related(data.space_name, "dual"), data.U, data.V, data.du, data.dv,
                         I2, II2, Binv, III2,
                         meta={"dual_of": data.space_name})


# ---------------------------------------------------------------------------
# support functions and shape operators on the co-space side


def _ambient_extension_hessian(u_fn, points, g, h=2e-4):
    """Hessian of the one-homogeneous extension of u at base points.

    U(y) = |y|_g u(y/|y|_g), with g the base form: Euclidean for S^2,
    Lorentzian for H^2.  Central differences with one Richardson level;
    points shape (..., 3).
    """
    def U(y):
        q = np.einsum("...i,ij,...j->...", y, g, y)
        s = np.sqrt(np.abs(q))
        return s * np.asarray(u_fn(y / s[..., None]))

    pts = np.asarray(points, dtype=float)
    n = 3
    out = np.empty(pts.shape[:-1] + (3, 3))

    def hess_at(step):
        hmat = np.empty(pts.shape[:-1] + (3, 3))
        u0 = U(pts)
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = step
            hmat[..., i, i] = (U(pts + ei) - 2 * u0 + U(pts - ei)) / step**2
            for j in range(i + 1, n):
                ej = np.zeros(n)
                ej[j] = step
                val = (
                    U(pts + ei + ej) - U(pts + ei - ej)
                    - U(pts - ei + ej) + U(pts - ei - ej)
                ) / (4 * step**2)
                hmat[..., i, j] = val
                hmat[..., j, i] = val
        return hmat

    coarse = hess_at(h)
    fine = hess_at(h / 2)
    return (4.0 * fine - coarse) / 3.0


def shape_from_support(u_fn, base="S2", domain=None, m=64, points=None, jac=None):
    """Shape operator field from a support function on S^2 or H^2.

    Computed through the ambient Hessian of the one-homogeneous
    extension: its restriction to the tangent plane is Hess u + u Id on
    the sphere and Hess u - u Id on the hyperboloid, which is exactly the
    shape operator of the graph of u in the matching co-space.  Returns
    (B, I) in the chart coordinate frame.
    """
    if points is None:
        if domain is None:
            domain = ((0.35, np.pi - 0.35), (0.2, 2 * np.pi - 0.2)) if base == "S2" \
                else ((0.1, 1.2), (0.2, 2 * np.pi - 0.2))
        (u0, u1), (v0, v1) = domain
        Ug, Vg = np.meshgrid(np.linspace(u0, u1, m), np.linspace(v0, v1, m), indexing="ij")
        points = _CHARTS[base](Ug, Vg)
        jac = _chart_jacobian(base, Ug, Vg)
    g = np.eye(3) if base == "S2" else np.diag([1.0, 1.0, -1.0])
    H = _ambient_extension_hessian(u_fn, points, g)
    hform = np.einsum("...ai,...ab,...bj->...ij", jac, H, jac)
    gj = np.einsum("ab,...bi->...ai", g, jac)
    I = np.einsum("...ai,...aj->...ij", jac, gj)
    B = np.linalg.solve(I, hform)
    return B, I


def recover_support_from_shape(B, I, du, dv, points, codazzi_tol=1e-5):
    """Least-squares solve of Hess_I(u) + u I = I B for the support u.

    ``B`` must be symmetric with respect to I and satisfy the Codazzi
    equation (checked first; no solution exists otherwise).  The kernel
    of the operator, spanned by restrictions of ambient linear functions,
    is fixed by forcing the discrete projections of u onto <x, e_a> to
    vanish.  Returns the grid of u values.
    """
    m1, m2 = B.shape[:2]
    gamma = _christoffel_of_I(I, du, dv, order=4)
    # Codazzi precondition; the discrete estimator of a true Codazzi
    # tensor is itself O(h^2), so the threshold floors at the grid error
    data = EmbeddingData("coEuc3", None, None, du, dv, I, I @ B, B,
                         np.swapaxes(B, -1, -2) @ I @ B)
    cod = np.abs(codazzi_residual_field(data))
    k = max(2, int(0.12 * m1))
    h2 = max(du, dv) ** 2
    threshold = max(codazzi_tol, h2 * (1.0 + float(np.max(np.abs(B)))))
    if float(np.max(cod[k:-k, k:-k])) > threshold:
        raise ValueError("shape operator violates the Codazzi equation; no support function exists")
    target = I @ B  # the Hessian form plus u I
    n_pts = m1 * m2
    import scipy.sparse as sp

    rows, cols, vals = [], [], []
    rhs = []
    eq = 0

    # fourth-order interior stencils (offsets -2..2)
    d1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
    d2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
    offs = np.arange(-2, 3)

    def idx(i, j):
        return i * m2 + j

    weight = 1.0

    def add(i, j, c):
        rows.append(eq)
        cols.append(idx(i, j))
        vals.append(weight * c)

    for i in range(1, m1 - 1):
        for j in range(1, m2 - 1):
            g = gamma[i, j]
            deep = 2 <= i < m1 - 2 and 2 <= j < m2 - 2
            # the 1-ring rows only pin the outermost unknowns; keep their
            # h^2 truncation error from leaking into the interior fit
            weight = 1.0 if deep else 0.05
            for (a, b_) in ((0, 0), (0, 1), (1, 1)):
                # Hess(u)_{ab} = d_a d_b u - Gamma^k_{ab} d_k u; fourth
                # order in the deep interior, second order on the 1-ring
                # (which also pins the outermost unknowns)
                if deep:
                    if (a, b_) == (0, 0):
                        for o, c in zip(offs, d2 / du**2):
                            add(i + o, j, c)
                    elif (a, b_) == (1, 1):
                        for o, c in zip(offs, d2 / dv**2):
                            add(i, j + o, c)
                    else:
                        for oi, ci in zip(offs, d1 / du):
                            if ci == 0.0:
                                continue
                            for oj, cj in zip(offs, d1 / dv):
                                if cj == 0.0:
                                    continue
                                add(i + oi, j + oj, ci * cj)
                    gu = [(o, c / du) for o, c in zip(offs, d1) if c != 0.0]
                    gv = [(o, c / dv) for o, c in zip(offs, d1) if c != 0.0]
                else:
                    if (a, b_) == (0, 0):
                        add(i + 1, j, 1.0 / du**2)
                        add(i - 1, j, 1.0 / du**2)
                        add(i, j, -2.0 / du**2)
                    elif (a, b_) == (1, 1):
                        add(i, j + 1, 1.0 / dv**2)
                        add(i, j - 1, 1.0 / dv**2)
                        add(i, j, -2.0 / dv**2)
                    else:
                        add(i + 1, j + 1, 0.25 / (du * dv))
                        add(i - 1, j - 1, 0.25 / (du * dv))
                        add(i + 1, j - 1, -0.25 / (du * dv))
                        add(i - 1, j + 1, -0.25 / (du * dv))
                    gu = [(-1, -0.5 / du), (1, 0.5 / du)]
                    gv = [(-1, -0.5 / dv), (1, 0.5 / dv)]
                c0, c1 = g[0, a, b_], g[1, a, b_]
                for o, c in gu:
                    add(i + o, j, -c0 * c)
                for o, c in gv:
                    add(i, j + o, -c1 * c)
                # + u * I_ab
                add(i, j, I[i, j, a, b_])
                rhs.append(weight * target[i, j, a, b_])
                eq += 1
    # gauge: discrete projections of u onto the linear functions vanish
    weight = 1.0
    w = du * dv
    for axis in range(3):
        ell = points[..., axis]
        for i in range(m1):
            for j in range(m2):
                add(i, j, w * ell[i, j])
        rhs.append(0.0)
        eq += 1
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(eq, n_pts))
    from scipy.sparse.linalg import spsolve

    # least squares via the (sparse, well-posed thanks to the gauge rows)
    # normal equations
    ata = (mat.T @ mat).tocsc()
    atb = mat.T @ np.array(rhs)
    sol = spsolve(ata, atb)
    return sol.reshape(m1, m2)


def apply_shape_operator(u_grid, I, du, dv, sign=+1.0):
    """Discrete Hess_I(u) +- u I -> B, the forward map of the recovery.

    Uses the same interior stencils as recover_support_from_shape (plain
    3-point second differences, 4-point cross term, central gradients);
    boundary cells replicate their nearest interior value.
    """
    gamma = _christoffel_of_I(I, du, dv, order=4)
    d1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
    d2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
    offs = np.arange(-2, 3)
    c = np.s_[2:-2]

    def shift(o_i, o_j):
        m1, m2 = u_grid.shape
        return u_grid[2 + o_i:m1 - 2 + o_i, 2 + o_j:m2 - 2 + o_j]

    h_uu = sum(co * shift(o, 0) for o, co in zip(offs, d2)) / du**2
    h_vv = sum(co * shift(0, o) for o, co in zip(offs, d2)) / dv**2
    h_uv = sum(
        ci * cj * shift(oi, oj)
        for oi, ci in zip(offs, d1)
        for oj, cj in zip(offs, d1)
        if ci != 0.0 and cj != 0.0
    ) / (du * dv)
    g_u = sum(co * shift(o, 0) for o, co in zip(offs, d1)) / du
    g_v = sum(co * shift(0, o) for o, co in zip(offs, d1)) / dv
    grad = np.stack([g_u, g_v], axis=-1)
    hess = np.empty(h_uu.shape + (2, 2))
    hess[..., 0, 0], hess[..., 1, 1] = h_uu, h_vv
    hess[..., 0, 1] = hess[..., 1, 0] = h_uv
    hess = hess - np.einsum("...kij,...k->...ij", gamma[c, c], grad)
    form = hess + sign * u_grid[c, c][..., None, None] * I[c, c]
    B = np.empty(u_grid.shape + (2, 2))
    B[c, c] = np.linalg.solve(I[c, c], form)
    # replicate the two-cell margin from the nearest interior values
    B[:2, :] = B[2, :]
    B[-2:, :] = B[-3, :]
    B[:, :2] = B[:, 2][:, None]
    B[:, -2:] = B[:, -3][:, None]
    return B


def immersion_from_data_co_euclidean(dev, u_fn, domain, m=33, tol=1e-6):
    """Immersion (dev, u) into co-Euclidean space from its data.

    ``dev`` maps parameters into S^2 (checked to ``tol``); the embedding
    data of the returned patch are (round pullback, Hess u + u Id).  Two
    immersions built from u and u + <dev, p0> have identical data: they
    differ by the vertical shear isometry.
    """
    (u0, u1), (v0, v1) = domain
    Ug, Vg = np.meshgrid(np.linspace(u0, u1, 7), np.linspace(v0, v1, 7), indexing="ij")
    pts = np.asarray(dev(Ug, Vg), dtype=float)
    norms = np.linalg.norm(pts, axis=-1)
    if np.max(np.abs(norms - 1.0)) > tol:
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
    inserted in the blown-up slot, scaled onto b(x, x) = sign.
    """
    space = model_space(src_name)
    axis = transition_family(src_name, "plane").axis
    chart = _CHARTS[space_family(related(src_name, "plane_limit")).chart]
    g = space.form.matrix[axis, axis]

    def family(t, U, V):
        m = chart(U, V)
        h = height(t, m, U, V)
        vec = np.insert(m, axis, h, axis=-1)
        return vec / np.sqrt(np.abs(space.sign + g * h**2))[..., None]

    return family


def surface_transition(family, src_name, m=17, ts=None, domain=None):
    """Rescaled limit of the embedding data of a degenerating family.

    ``family(t, U, V)`` immerses the patch into Ell3/dS3 (limit coEuc3)
    or Hyp3/AdS3 (limit coMin3) with the t = 0 surface inside the blown-up
    plane.  Returns a dict with the limit data (I, II/t, B/t, K_ext/t^2
    extrapolated), the EmbeddingData of the rescaled limit graph computed
    independently in the co-space, their sup gaps, and the linearity
    diagnostics of the convergence rate.
    """
    co_name = related(src_name, "plane_limit")
    src = model_space(src_name)
    cosp = model_space(co_name)
    fam = transition_family(src_name, "plane")
    if ts is None:
        ts = 0.5 ** np.arange(3, 10)
    if domain is None:
        domain = ((0.35, np.pi - 0.35), (0.2, 2 * np.pi - 0.2)) \
            if space_family(co_name).chart == "S2" else ((0.1, 1.0), (0.2, 2 * np.pi - 0.2))

    # t = 0 check: the base surface must be planar (in the blown-up plane)
    (u0, u1), (v0, v1) = domain
    Up, Vp = np.meshgrid(np.linspace(u0, u1, 5), np.linspace(v0, v1, 5), indexing="ij")
    base0 = np.asarray(family(0.0, Up, Vp), dtype=float)
    if np.max(np.abs(base0[..., fam.axis])) > 1e-8:
        raise ValueError("the t=0 surface is not contained in the blown-up plane")

    hint = np.zeros(4)
    hint[fam.axis] = 1.0
    seq_I, seq_II, seq_B, seq_K = [], [], [], []
    grids = None
    for t in ts:
        patch = SurfacePatch(src, lambda U, V, t=t: family(t, U, V), domain,
                             normal_hint=hint)
        data = embedding_data(patch, m=m)
        grids = (data.U, data.V, data.du, data.dv)
        seq_I.append(data.I)
        seq_II.append(data.II / t)
        seq_B.append(data.B / t)
        seq_K.append(np.linalg.det(data.B) / t**2)
    I_lim = richardson(seq_I)
    II_lim = richardson(seq_II)
    B_lim = richardson(seq_B)
    K_lim = richardson(seq_K)

    # independent side: the limit graph in the co-space
    def limit_immersion(U, V):
        seq = []
        for t in ts:
            seq.append(np.einsum("ab,...b->...a", fam.matrix(t),
                                 np.asarray(family(t, U, V), dtype=float)))
        return richardson(seq)

    co_patch = SurfacePatch(cosp, limit_immersion, domain)
    co_data = embedding_data_co(co_patch, m=m)

    gaps = {
        "I": float(np.max(np.abs(I_lim - co_data.I))),
        "II": float(np.max(np.abs(II_lim - co_data.II))),
        "B": float(np.max(np.abs(B_lim - co_data.B))),
        "K_ext": float(np.max(np.abs(K_lim - np.linalg.det(co_data.B)))),
    }
    # linear-in-t convergence of II_t/t towards the independent co-route,
    # fitted on the asymptotic (small-t) end of the schedule where the
    # quadratic remainder is negligible
    errs = np.array([float(np.max(np.abs(s - co_data.II))) for s in seq_II])
    tail = min(5, len(ts))
    tf, ef = np.asarray(ts[-tail:]), errs[-tail:]
    A = np.vstack([tf, np.ones_like(tf)]).T
    coef, *_ = np.linalg.lstsq(A, ef, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((ef - pred) ** 2))
    ss_tot = float(np.sum((ef - ef.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    U, V, du, dv = grids
    limit_data = EmbeddingData(co_name, U, V, du, dv, I_lim, II_lim, B_lim,
                               np.swapaxes(B_lim, -1, -2) @ I_lim @ B_lim,
                               meta={"source": src_name})
    return {
        "limit": limit_data,
        "co_data": co_data,
        "gaps": gaps,
        "K_ext_limit": K_lim,
        "rate_r2": r2,
        "rate_errors": errs,
        "ts": ts,
    }
