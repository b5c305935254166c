"""Affine-chart metrics, the operator L, and the infinitesimal Pogorelov map.

In the projective (Klein-type) chart the curved metric reads

    g_x(X, Y) = rho(x)^2 b(X, Y) + rho(x)^4 b(x, X) b(x, Y),
    rho(x)   = 1 / sqrt(1 - b(x, x)),

with b the flat Euclidean form (hyperbolic chart) or the flat Minkowski
form (anti-de Sitter chart).  Both share their unparametrized geodesics
(straight chords) with the flat metric, which makes the Weyl machinery
applicable: the connections differ by d(ln lambda^{1/(n+1)}) terms, with
lambda the ratio of the volume densities.

The infinitesimal Pogorelov map P(X) = lambda^{2/(n+1)} L(X), with L the
metric-comparison operator g(X, Y) = g_flat(L X, Y), carries Killing
fields of the curved metric to flat Killing fields, and infinitesimal
isometric deformations of a surface to deformations in the flat metric.

Every pointwise quantity takes a stack of points of shape (..., n) and
returns one value per point (a single point is a stack of one).  A chart
field likewise maps a (..., n) stack to a (..., n) stack of vectors.
"""

from __future__ import annotations

import numpy as np

from ._numerics import central_difference
from .forms import bpq, random_antisymmetric
from .projective import chart_jet

__all__ = [
    "ChartMetric",
    "chart_pair",
    "halton_cloud",
    "operator_l",
    "lambda_closed_form",
    "lambda_from_volumes",
    "infinitesimal_pogorelov",
    "chart_killing_field",
    "random_killing_generator",
    "killing_residual",
    "weyl_gap",
    "contraction_gap",
    "SurfaceSamples",
    "sphere_surface_samples",
    "deformation_residual",
    "rigidity_transport",
    "fit_flat_killing",
]

_FLAT = {"HypKlein": False, "AdSChart": False, "EucFlat": True, "MinFlat": True}


class ChartMetric:
    """One of the four chart metrics on a domain of R^n."""

    def __init__(self, kind, n=3):
        if kind not in _FLAT:
            raise ValueError(f"unknown chart metric {kind}")
        self.kind = kind
        self.n = n
        lorentz = kind in ("AdSChart", "MinFlat")
        self.base = bpq(n - 1, 1) if lorentz else bpq(n, 0)
        self.flat = _FLAT[kind]

    def in_domain(self, x):
        x = np.asarray(x, dtype=float)
        if self.flat:
            return np.full(x.shape[:-1], True)
        return self.base.quad(x) < 1.0

    def rho(self, x):
        q = self.base.quad(x)
        if np.any(q >= 1.0):
            raise ValueError("point outside the chart domain")
        return 1.0 / np.sqrt(1.0 - q)

    def metric(self, x):
        x = np.asarray(x, dtype=float)
        g0 = self.base.matrix
        if self.flat:
            return np.broadcast_to(g0, x.shape[:-1] + g0.shape).copy()
        r = self.rho(x)[..., None, None]
        gx = x @ g0
        return r**2 * g0 + r**4 * (gx[..., :, None] * gx[..., None, :])

    def __call__(self, x, X, Y):
        return np.einsum("...i,...ij,...j->...", np.asarray(X, dtype=float),
                         self.metric(x), np.asarray(Y, dtype=float))

    def christoffel(self, x):
        """Closed-form symbols Gamma[..., k, i, j]: zero for the flat charts;
        for the curved ones Gamma^k_ij = psi_i delta^k_j + psi_j delta^k_i
        with psi = d(ln rho), the Weyl shift from the flat connection."""
        x = np.asarray(x, dtype=float)
        n = self.n
        if self.flat:
            return np.zeros(x.shape[:-1] + (n, n, n))
        psi = self.rho(x)[..., None] ** 2 * (x @ self.base.matrix)
        eye = np.eye(n)
        return np.einsum("...i,kj->...kij", psi, eye) + np.einsum("...j,ki->...kij", psi, eye)

    def christoffel_fd(self, x):
        """Symbols from finite differences of the metric (independent
        route, used to keep the Weyl-formula check honest)."""
        x = np.asarray(x, dtype=float)
        # dg[..., i, j, l] = d_i g_jl, from the stencil x +- h_k e_i
        dg = central_difference(self.metric, x[..., None, :], np.eye(self.n),
                                base_step=2e-4, levels=2)
        ginv = np.linalg.inv(self.metric(x))
        # Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
        return 0.5 * (
            np.einsum("...kl,...ijl->...kij", ginv, dg)
            + np.einsum("...kl,...jil->...kij", ginv, dg)
            - np.einsum("...kl,...lij->...kij", ginv, dg)
        )

    def field_gradient(self, field, x):
        """The (1,1)-tensor (nabla K)^k_j = d_j K^k + Gamma^k_{jl} K^l."""
        x = np.asarray(x, dtype=float)
        return _jacobian(field, x) + np.einsum(
            "...kjl,...l->...kj", self.christoffel(x), _evaluate(field, x))


def _evaluate(field, x):
    """K(x) for a chart field, which must map (..., n) stacks to (..., n)."""
    out = np.asarray(field(x), dtype=float)
    if out.shape != x.shape:
        raise ValueError(
            f"chart field returned shape {out.shape} for points of shape {x.shape}")
    return out


def _jacobian(field, x):
    """Central differences jac[..., k, j] = d_j K^k, step 1e-6, one field call."""
    values = central_difference(lambda p: _evaluate(field, p), x[..., None, :],
                                np.eye(x.shape[-1]), base_step=1e-6, levels=1)
    return np.swapaxes(values, -1, -2)


def chart_pair(name, n=3):
    """The built-in chart pairs: 'hyp-euc' and 'ads-min'."""
    if name == "hyp-euc":
        return ChartMetric("HypKlein", n), ChartMetric("EucFlat", n)
    if name == "ads-min":
        return ChartMetric("AdSChart", n), ChartMetric("MinFlat", n)
    raise ValueError("pair must be 'hyp-euc' or 'ads-min'")


def halton_cloud(n_points=512, n=3, seed=0):
    """Deterministic quasi-random cloud in the ball of radius 0.9.

    The Halton sequence in the first n primes (Halton, Numer. Math. 2,
    1960), shifted modulo 1 by a uniform draw of ``default_rng(seed)`` (a
    Cranley-Patterson rotation, so each seed gives its own cloud), scaled
    to the cube [-0.9, 0.9]^n and kept where it falls in the ball.
    """
    primes, p = [], 2
    while len(primes) < n:
        if all(p % q for q in primes):
            primes.append(p)
        p += 1
    shift = np.random.default_rng(seed).random(n)
    count = 2 * n_points
    while True:
        u = np.zeros((count, n))
        for j, base in enumerate(primes):
            # radical inverse: the digits of k mirrored about the radix point
            k, scale = np.arange(count), 1.0 / base
            while np.any(k):
                u[:, j] += scale * (k % base)
                k, scale = k // base, scale / base
        pts = 2 * 0.9 * ((u + shift) % 1.0 - 0.5)
        pts = pts[np.linalg.norm(pts, axis=1) <= 0.9]
        if len(pts) >= n_points:
            return pts[:n_points]
        count *= 2


def operator_l(m_src, m_dst, x, X=None):
    """The comparison operator: g_src(X, Y) = g_dst(L X, Y) for all Y.

    Returns the matrices L_x, shape (..., n, n) (or L_x X, shape (..., n),
    when X is given), from a stacked linear solve against the target
    metric.  Raises if the target metric is singular at any point.
    """
    g_src = m_src.metric(x)
    g_dst = m_dst.metric(x)
    if np.any(np.abs(np.linalg.det(g_dst)) < 1e-14):
        raise ValueError("target metric degenerate at the sample point")
    L = np.linalg.solve(g_dst, g_src)
    return L if X is None else (L @ np.asarray(X, dtype=float)[..., None])[..., 0]


def lambda_closed_form(m_src, m_dst, x):
    """Volume-density ratio omega_dst = lambda omega_src: rho powers."""
    curved = m_src if not m_src.flat else m_dst
    r = curved.rho(x)
    power = curved.n + 1
    return r**-power if not m_src.flat else r**power


def lambda_from_volumes(m_src, m_dst, x):
    """The same ratio recomputed from metric determinants (cross-check)."""
    det_src = np.abs(np.linalg.det(m_src.metric(x)))
    det_dst = np.abs(np.linalg.det(m_dst.metric(x)))
    return np.sqrt(det_dst / det_src)


def infinitesimal_pogorelov(K, m_src, m_dst):
    """P(K)(x) = lambda^{2/(n+1)} L_x(K(x)).

    For the built-in pairs this reduces to K + rho^2 b(x, K) x, and it
    sends Killing fields of the source chart metric to Killing fields of
    the target one.
    """
    n = m_src.n

    def mapped(x):
        x = np.asarray(x, dtype=float)
        lam = lambda_closed_form(m_src, m_dst, x)
        if np.any(lam <= 0):
            raise ValueError("volume ratio must be positive")
        return lam[..., None] ** (2.0 / (n + 1)) * operator_l(m_src, m_dst, x, _evaluate(K, x))

    return mapped


def random_killing_generator(pair_name, rng, n=3):
    """A random generator of the ambient isometry group of the curved chart."""
    form = bpq(n, 1) if pair_name == "hyp-euc" else bpq(n - 1, 2)
    return random_antisymmetric(form, rng)


def chart_killing_field(generator):
    """The chart field of the projective flow exp(sA): for x in the chart,
    K(x) = (A (x,1))_head - x (A (x,1))_tail."""
    a = np.asarray(generator, dtype=float)
    n = a.shape[0] - 1

    def K(x):
        x = np.asarray(x, dtype=float)
        v = x @ a[:, :n].T + a[:, n]
        return v[..., :n] - x * v[..., n:]

    return K


def _killing_form(metric, K, x):
    """G (nabla K) + (nabla K)^T G at each point of x, shape (..., n, n);
    it vanishes exactly for Killing fields."""
    lowered = metric.metric(x) @ metric.field_gradient(K, x)
    return lowered + np.swapaxes(lowered, -1, -2)


def killing_residual(metric, K, points):
    """sup |g(nabla_X K, Y) + g(X, nabla_Y K)| over a point cloud.

    Measured as the sup-norm of the symmetrized lowered gradient
    G (nabla K) + (nabla K)^T G, which vanishes exactly for Killing
    fields.
    """
    sym = _killing_form(metric, K, np.asarray(points, dtype=float))
    return float(np.max(np.abs(sym), initial=0.0))


def weyl_gap(m_a, m_b, x, X, Y):
    """|(nabla^a - nabla^b)(X,Y) - X.(f) Y - Y.(f) X|, f = ln lambda^{1/(n+1)}.

    Both connections enter through finite differences of their metrics,
    and lambda through the determinant ratio, so the check is independent
    of the closed forms used elsewhere.  One gap per point of the stack x.
    """
    x = np.asarray(x, dtype=float)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    d_ab = m_a.christoffel_fd(x) - m_b.christoffel_fd(x)
    diff = np.einsum("...kij,...i,...j->...k", d_ab, X, Y)
    df = _log_volume_gradient(m_b, m_a, x) / (m_a.n + 1)
    rhs = np.sum(df * X, axis=-1)[..., None] * Y + np.sum(df * Y, axis=-1)[..., None] * X
    return np.linalg.norm(diff - rhs, axis=-1)


def contraction_gap(m_a, m_b, x):
    """|trace(D) - d ln lambda| at each point of x, both sides numerical."""
    x = np.asarray(x, dtype=float)
    d_ab = m_a.christoffel_fd(x) - m_b.christoffel_fd(x)
    trace = np.einsum("...kkj->...j", d_ab)
    return np.max(np.abs(trace - _log_volume_gradient(m_b, m_a, x)), axis=-1)


def _log_volume_gradient(m_src, m_dst, x):
    """d ln lambda from central differences of the determinant ratio, step 1e-5."""
    return central_difference(lambda p: np.log(lambda_from_volumes(m_src, m_dst, p)),
                              x[..., None, :], np.eye(m_src.n), base_step=1e-5, levels=1)


# ---------------------------------------------------------------------------
# infinitesimal rigidity transport


class SurfaceSamples:
    """A sampled surface in a chart: points with tangent-plane bases."""

    def __init__(self, points, tangents):
        self.points = np.asarray(points, dtype=float)
        self.tangents = np.asarray(tangents, dtype=float)  # (N, 2, n)


def sphere_surface_samples(radius=0.55, center=(0.0, 0.0, 0.1), m=8):
    """A sphere patch inside the unit ball, with coordinate tangents."""
    theta = (np.arange(1, m + 1)) * np.pi / (m + 2)
    phi = 2 * np.pi * np.arange(m) / m
    T, P = np.meshgrid(theta, phi, indexing="ij")
    pts, jac = chart_jet("S2", T, P, 1)
    pts = (radius * pts + np.asarray(center)).reshape(-1, 3)
    tangents = np.swapaxes(radius * jac, -1, -2).reshape(-1, 2, 3)
    return SurfaceSamples(pts, tangents)


def _deformation_values(metric, Z, surface):
    """max |g(nabla_X Z, Y) + g(X, nabla_Y Z)| / 2 over the tangent frame,
    one value per surface sample."""
    frames = surface.tangents
    m2 = frames @ _killing_form(metric, Z, surface.points) @ np.swapaxes(frames, -1, -2)
    return np.max(np.abs(m2), axis=(-2, -1)) / 2.0


def deformation_residual(metric, Z, surface):
    """sup |g(nabla_X Z, X)| over surface samples and tangent directions.

    Zero means Z preserves the induced metric to first order (an
    infinitesimal isometric deformation).
    """
    return float(np.max(_deformation_values(metric, Z, surface), initial=0.0))


def rigidity_transport(Z, m_src, m_dst, surface):
    """Map an infinitesimal isometric deformation through P.

    Raises (reporting the worst sample) when Z's source deformation
    residual exceeds 1e-7; returns (P(Z), target residual).
    """
    values = _deformation_values(m_src, Z, surface)
    if np.max(values, initial=0.0) > 1e-7:
        worst = int(np.argmax(values))
        raise ValueError(
            f"not an isometric deformation: residual {values[worst]:.3e} "
            f"at {surface.points[worst]}"
        )
    PZ = infinitesimal_pogorelov(Z, m_src, m_dst)
    return PZ, deformation_residual(m_dst, PZ, surface)


def fit_flat_killing(metric, field, points):
    """Best-fit flat Killing field K(x) = A x + c, A^T G + G A = 0.

    Returns the sup-norm misfit over the sample points; a tiny value
    certifies the field as trivial (the restriction of a global flat
    Killing field).
    """
    points = np.asarray(points, dtype=float)
    n = metric.n
    # skew parameter basis: A = G^{-1} S with S skew-symmetric
    i, j = np.triu_indices(n, 1)
    skew = np.zeros((len(i), n, n))
    skew[np.arange(len(i)), i, j] = 1.0
    skew[np.arange(len(i)), j, i] = -1.0
    basis = np.linalg.solve(metric.base.matrix, skew)
    # rows of point p: [basis_c @ p for each c | Id]
    cols = np.einsum("ckl,pl->pkc", basis, points)
    translations = np.broadcast_to(np.eye(n), (len(points), n, n))
    A = np.concatenate([cols, translations], axis=-1).reshape(-1, len(i) + n)
    b = _evaluate(field, points).reshape(-1)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    return float(np.max(np.abs(A @ sol - b)))
