"""The acceptance suite: one property-based check per shipped guarantee.

Each criterion returns its residuals as ``check`` records, a value and
the closed interval [lo, hi] it must lie in, and the ``_criterion``
decorator turns them into a timed verdict: a dict with ``name``,
``passed`` (every check passed), ``detail`` (the check texts),
``seconds`` and ``checks``.  run_all executes them in order and prints
one pass/fail line each.  Tolerances are fixed here, not configurable:
they are the package's contract.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from . import connections as cn
from . import duality as du
from . import pogorelov as pg
from . import projective as pj
from . import surfaces as sf
from . import transition as tr
from ._numerics import check, richardson
from .forms import bpq

__all__ = ["run_all", "CRITERIA"]


def _criterion(name):
    """Run a criterion that returns its checks, timed, as a verdict dict."""
    def decorate(fn):
        @functools.wraps(fn)
        def run(seed=0):
            t0 = time.perf_counter()
            checks = fn(seed=seed)
            return {"name": name, "passed": all(c["passed"] for c in checks),
                    "detail": ", ".join(c["text"] for c in checks),
                    "seconds": time.perf_counter() - t0, "checks": checks}

        return run

    return decorate


@_criterion("1 cross-ratio distance vs closed forms")
def criterion_1_distance_consistency(seed=0):
    """Cross-ratio distance equals the arccos/arccosh inversion, 1e-9."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    counts = []
    for name in ("Ell2", "Hyp2", "dS2", "AdS3"):
        space = pj.model_space(name)
        X = space.random_points(rng, 10_000)
        Y = space.random_points(rng, 10_000)
        d_cross, _ = pj.projective_distance_batch(space, X, Y)
        d_closed = pj.closed_form_distance(space, X, Y)
        mask = ~np.isnan(d_closed)
        counts.append(int(mask.sum()))
        worst = np.maximum(worst, np.max(np.abs(d_cross[mask] - d_closed[mask])))
    return [check(f"sup |d_cr - d_closed| = {{:.2e}} over {counts} comparable pairs", worst, hi=1e-9),
            check("{:.2f}s", time.perf_counter() - t0, hi=5.0)]


@_criterion("2 duality round trips")
def criterion_2_duality_round_trips(seed=0):
    """(K*)* = K at grid 64; ball and hyperboloid duals and the
    truncation apex exact to 1e-9."""
    rng = np.random.default_rng(seed)
    grid_e = du.sphere_grid(64)
    grid_m = du.hyperboloid_grid(64)
    worst_rt = 0.0
    octa = 0.4 * np.vstack([np.eye(3), -np.eye(3)])
    for _ in range(50):
        n_v = rng.integers(8, 24)
        verts = rng.standard_normal((n_v, 3))
        verts /= np.linalg.norm(verts, axis=1, keepdims=True)
        verts *= rng.uniform(0.5, 2.0, (n_v, 1))
        # an inscribed octahedron keeps the origin interior
        body = du.EuclideanBody(np.vstack([verts, octa]))
        gap = np.max(np.abs(body.dual().dual().support(grid_e) - body.support(grid_e)))
        worst_rt = np.maximum(worst_rt, gap)
    for _ in range(50):
        n_v = rng.integers(4, 12)
        rho = rng.uniform(0, 1.0, n_v)
        phi = rng.uniform(0, 2 * np.pi, n_v)
        scale = rng.uniform(0.8, 2.0, n_v)
        verts = pj.chart_jet("H2", rho, phi)[0] * scale[:, None]
        body = du.MinkowskiBody(verts)
        gap = np.max(np.abs(body.dual().dual().support(grid_m) - body.support(grid_m)))
        worst_rt = np.maximum(worst_rt, gap)
    # balls and hyperboloids through the sampled-support polar formula
    worst_smooth = 0.0
    for r in (0.5, 1.0, 2.0, 3.7):
        se = du.SupportFunctionE(grid_e, np.full(len(grid_e), r), grid_shape=(64, 64))
        worst_smooth = np.maximum(worst_smooth, np.max(np.abs(du.dual_support(se).values - 1.0 / r)))
        sm = du.SupportFunctionMin(grid_m, np.full(len(grid_m), -r), grid_shape=(64, 64))
        worst_smooth = np.maximum(worst_smooth, np.max(np.abs(du.dual_support(sm).values + 1.0 / r)))
    # the apex against the polyhedral dual of the truncation conv(x_i) + cone(r_i),
    # x_i = -r r_i / b(r_i, vhat) on its plane b(x, vhat) = -r: one vertex, vhat / r
    worst_trunc = 0.0
    b, light = bpq(2, 1), du.lightlike_rays(3)[::4]
    for _ in range(10):
        v = np.array([0.3, -0.1, 1.0]) * rng.uniform(0.5, 2.0)
        v[2] = np.sqrt(v[0] ** 2 + v[1] ** 2) + rng.uniform(0.2, 1.0)
        r = rng.uniform(0.3, 3.0)
        vhat = v / np.sqrt(-b.quad(v))
        x = -r * light / b(light, vhat)[:, None]
        dual = du.MinkowskiBody(x, rays=light, check=False).dual().vertices
        apex = du.truncation_dual(v, r)
        gap = np.max(np.abs(dual - apex)) if len(dual) == 1 else np.inf
        worst_trunc = np.maximum(worst_trunc, gap)
    return [check("double-dual gap {:.2e}", worst_rt, hi=1e-6),
            check("smooth duals {:.2e}", worst_smooth, hi=1e-9),
            check("truncation {:.2e}", worst_trunc, hi=1e-9)]


@_criterion("3 one-dimensional conjugacy limits")
def criterion_3_one_d_transition(seed=0):
    """g_k R_{a/k} g_k^{-1} -> T_a and the same for boosts, 1e-6."""
    worst = 0.0
    for a in (-2.0, 0.5, 3.0):
        for kind in ("rotation", "boost"):
            lim, _ = tr.one_d_limit(kind, a)
            worst = np.maximum(worst, np.max(np.abs(lim - tr.translation_1d(a))))
    return [check("sup gap to the translation {:.2e}", worst, hi=1e-6)]


@_criterion("4 three-dimensional transitions")
def criterion_4_three_d_transition(seed=0):
    """Conjugated isometry paths land in the limit block patterns
    (1e-6, 1000 paths); the duality/transition diagrams commute (1e-7,
    100 paths)."""
    rng = np.random.default_rng(seed)
    failures = 0
    per = 125  # 8 transitions x 125 paths
    for kind in ("point", "plane"):
        for name, target in pj.transitions(kind, 3):
            fam = tr.transition_family(name, kind)
            h = tr.random_isometry_path(pj.model_space(name), fam, rng, size=per)
            lim, _ = tr.conjugate_limit(h, fam)
            failures += int(np.sum(~tr.limit_group_membership(lim, target, tol=1e-6)))
    worst_gap = 0.0
    cases = [("Ell3", "point"), ("Ell3", "plane"), ("dS3", "point"), ("Hyp3", "plane")]
    for name, kind in cases:
        space = pj.model_space(name)
        fam = tr.transition_family(name, kind)
        # per path, in the stream's order: x0, then v, then w
        x0, v, w = np.stack([(tr.fixed_locus_point(space, fam, rng), rng.standard_normal(space.dim),
                              rng.standard_normal(space.dim)) for _ in range(25)], axis=1)

        def x_path(t):
            t = np.asarray(t)[..., None, None]
            y = x0 + t * v + 0.5 * t * t * w
            return y / np.sqrt(np.abs(space.form.quad(y)))[..., None]

        gaps = tr.duality_transition_check(tr.PointPath(x_path), fam, space.form)
        worst_gap = np.maximum(worst_gap, np.max(gaps))
    return [check("{:d}/1000 pattern failures", failures, hi=0),
            check("duality diagram gap {:.2e}", worst_gap, hi=1e-7)]


def _columns(*coords):
    """Stack coordinates, each a t-array or a constant, into points (..., d)."""
    return np.stack(np.broadcast_arrays(*coords), axis=-1)


@_criterion("5 co-space connection characterization")
def criterion_5_co_connection(seed=0):
    """Characterizing residuals of the co-space connections <= 1e-6;
    lines geodesic <= 1e-6, non-geodesic control >= 1e-2."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name in ("coEuc3", "coMin3"):
        space = pj.model_space(name)
        conn = cn.co_connection(space)
        pts = space.sample_points(rng, 8)
        for _ in range(3):
            X = cn.random_tangent_field(space, rng, 0.5)
            Y = cn.random_tangent_field(space, rng, 0.5)
            Z = cn.random_tangent_field(space, rng, 0.5)
            worst = np.maximum(worst, cn.symmetry_residual(conn, X, Y, pts))
            worst = np.maximum(worst, cn.metric_compatibility_residual(conn, X, Y, Z, pts))
            omega = cn.volume_form(space)
            frame = [X, Y, cn.random_tangent_field(space, rng, 0.5)]
            worst = np.maximum(worst, cn.parallel_volume_residual(conn, omega, Z, frame, pts))
        worst = np.maximum(worst, cn.t_parallel_residual(conn, pts))
        normal = rng.standard_normal(4)
        normal[-1] = 1.0 + abs(normal[-1])
        worst = np.maximum(worst, cn.plane_preservation_residual(space, normal, rng))
    # geodesics: curves map t-arrays (...) to points (..., 4)
    cc = cn.co_connection(pj.model_space("coEuc3"))
    lines = [
        lambda t: _columns(np.cos(t), np.sin(t), 0.0, 0.0),
        lambda t: _columns(1 / np.sqrt(2), 1 / np.sqrt(2), 0.0, 0.3 + 2 * t),
    ]
    u_vec = np.array([1.0, 0, 0, 0.3])
    v_vec = np.array([0, 1.0, 0, -0.2])
    lines.append(lambda t: cn.project_to_locus(
        pj.model_space("coEuc3"), np.cos(t)[..., None] * u_vec + np.sin(t)[..., None] * v_vec))
    geo = np.max([cn.geodesic_residual(cc, line) for line in lines])
    coM = pj.model_space("coMin3")
    ccm = cn.co_connection(coM)
    geo = np.maximum(geo, cn.geodesic_residual(
        ccm, lambda t: _columns(np.sinh(t), 0.0, np.cosh(t), 0.0)))
    # a tilted co-Minkowski line: the graph of a Minkowski-linear height
    um = np.array([1.0, 0, 0, 0.3])
    vm = np.array([0, 0, 1.0, -0.5])
    geo = np.maximum(geo, cn.geodesic_residual(
        ccm, lambda t: cn.project_to_locus(
            coM, np.sinh(t)[..., None] * um + np.cosh(t)[..., None] * vm)))
    control = cn.geodesic_residual(
        cc, lambda t: _columns(np.cos(t) * np.cos(0.7), np.sin(t) * np.cos(0.7),
                               np.sin(0.7), 0.1))
    return [check("axiom residuals {:.2e}", worst, hi=1e-6),
            check("line residual {:.2e}", geo, hi=1e-6),
            check("control {:.2e}", control, lo=1e-2)]


def _field_coefficients(rng, axis, dim=4):
    """(c0, c1, d0) of a field family tangent to {x_axis = 0} at t = 0."""
    c0 = rng.standard_normal(dim) * 0.5
    c0[axis] = 0.0
    c1 = rng.standard_normal((dim, dim)) * 0.4
    c1[axis, :] = 0.0
    c1[axis, axis] = rng.standard_normal() * 0.4
    d0 = rng.standard_normal(dim) * 0.4
    return c0, c1, d0


def _affine_family(c0, c1, d0):
    """(t, x) -> c0 + c1 x + t d0, for one family or a stack of them."""
    def fam_fn(t, x):
        return c0 + np.einsum("...ij,...j->...i", c1, x) + t * d0

    return fam_fn


@_criterion("6 connection/volume transition")
def criterion_6_connection_transition(seed=0):
    """Rescaled connections and volumes of Ell3/dS3/Hyp3/AdS3 converge to
    the co-space ones, extrapolated gap <= 1e-6 on 20 families each."""
    rng = np.random.default_rng(seed)
    worst_c, worst_v = 0.0, 0.0
    for src_name, co_name in pj.transitions("plane", 3):
        src = pj.model_space(src_name)
        cosp = pj.model_space(co_name)
        fam = tr.transition_family(src_name, "plane")
        # each family draws xi, then X, Y and Z, in that order
        xi, draws = [], []
        for _ in range(20):
            xi.append(cosp.sample_points(rng, 1, radius=0.8)[0])
            draws.append([_field_coefficients(rng, fam.axis) for _ in range(3)])
        # one check of each kind on the 20 families, stacked per field as
        # c0 (20, 4), c1 (20, 4, 4), d0 (20, 4) with xi (20, 4)
        Xf, Yf, Zf = (_affine_family(*map(np.stack, zip(*field))) for field in zip(*draws))
        xi = np.stack(xi)
        worst_c = np.maximum(worst_c, np.max(cn.connection_transition_check(src, cosp, fam, Xf, Yf, xi)))
        worst_v = np.maximum(worst_v, np.max(cn.volume_transition_check(src, cosp, fam, [Xf, Yf, Zf], xi)))
    return [check("connection gap {:.2e}", worst_c, hi=1e-6),
            check("volume gap {:.2e}", worst_v, hi=1e-6)]


@_criterion("7 infinitesimal Pogorelov map")
def criterion_7_pogorelov(seed=0):
    """Killing transport, the (rho^2, rho^4) eigenvalue dictionary, and
    the Weyl/contraction identities."""
    rng = np.random.default_rng(seed)
    cloud = pg.halton_cloud(512, seed=seed)
    worst_img, worst_src = 0.0, 0.0
    pairs = [pg.chart_pair(name) for name in ("Hyp3", "AdS3")]
    for m_src, m_dst in pairs:
        for _ in range(20):
            gen = pg.random_killing_generator(m_src.name, rng)
            K = pg.chart_killing_field(gen)
            res_src = pg.killing_residual(m_src, K, cloud[:48])
            worst_src = np.maximum(worst_src, res_src)
            if res_src < 1e-7:
                PK = pg.infinitesimal_pogorelov(K, m_src, m_dst)
                worst_img = np.maximum(worst_img, pg.killing_residual(m_dst, PK, cloud[:48]))
    # eigenvalue dictionary at 500 points: one stacked operator per pair
    pts = pg.halton_cloud(500, seed=seed + 1)
    worst_eig = 0.0
    for m_src, m_dst in pairs:
        L = pg.operator_l(m_src, m_dst, pts)
        rho2 = m_src.rho(pts)[:, None] ** 2
        # lateral directions are b-orthogonal to the radial one
        v = _b_orthogonal(m_src.base, pts, rng)
        lateral = (L @ v[..., None])[..., 0] - rho2 * v
        radial = (L @ pts[..., None])[..., 0] - rho2**2 * pts
        worst_eig = np.max([worst_eig, np.max(np.abs(lateral)), np.max(np.abs(radial))])
    # Weyl and contraction identities
    worst_weyl = 0.0
    for m_src, m_dst in pairs:
        # one pair of directions (X_i, Y_i) per point, drawn in that order
        X, Y = np.moveaxis(rng.standard_normal((20, 2, 3)), 1, 0)
        worst_weyl = np.max([worst_weyl, np.max(pg.weyl_gap(m_dst, m_src, cloud[:20], X, Y)),
                             np.max(pg.contraction_gap(m_dst, m_src, cloud[:20]))])
    return [check("src {:.2e}", worst_src, hi=1e-7),
            check("image {:.2e}", worst_img, hi=1e-6),
            check("eigen {:.2e}", worst_eig, hi=1e-9),
            check("weyl {:.2e}", worst_weyl, hi=1e-6)]


def _b_orthogonal(form, x, rng):
    """One direction per point of x, b-orthogonal to it, from one normal draw each."""
    v = rng.standard_normal(x.shape)
    denom = form.quad(x)
    if np.any(np.abs(denom) < 1e-12):
        raise RuntimeError("could not build a lateral direction: radial direction is null")
    v = v - x * (form(v, x) / denom)[..., None]
    if np.any(np.linalg.norm(v, axis=-1) <= 1e-8):
        raise RuntimeError("could not build a lateral direction")
    return v


@_criterion("8 surfaces")
def criterion_8_surfaces(seed=0):
    """Canonical data exact; grid-h^2 residual scaling; support-function
    shape operators; dual involution and curvature dictionary; surface
    transition limits."""
    rng = np.random.default_rng(seed)
    # canonical data exact to 1e-9
    d_s = sf.embedding_data(sf.sphere_patch(), m=33)
    d_h = sf.embedding_data(sf.hyperboloid_patch(), m=33)
    canon = np.max([
        np.max(np.abs(d_s.B - np.eye(2))),
        np.max(np.abs(d_h.B - np.eye(2))),
        np.max(np.abs(d_s.det_B - 1.0)),
        np.max(np.abs(d_h.det_B - 1.0)),
    ])
    # O(h^2) scaling of the Gauss residual under refinement
    coE = pj.model_space("coEuc3")
    dom = ((0.5, np.pi - 0.5), (0.3, 2 * np.pi - 0.3))
    c8 = 0.05
    f = lambda U, V: 1.0 + c8 * np.sin(2 * U) * np.cos(V)
    df = lambda U, V: np.stack(
        [2 * c8 * np.cos(2 * U) * np.cos(V), -c8 * np.sin(2 * U) * np.sin(V)], axis=-1)

    def d2f(U, V):
        h = np.empty(U.shape + (2, 2))
        h[..., 0, 0] = -4 * c8 * np.sin(2 * U) * np.cos(V)
        h[..., 0, 1] = h[..., 1, 0] = -2 * c8 * np.cos(2 * U) * np.sin(V)
        h[..., 1, 1] = -c8 * np.sin(2 * U) * np.cos(V)
        return h

    patch = sf.graph_patch(coE, f, dom, df=df, d2f=d2f)
    d65 = sf.embedding_data_co(patch, m=65)
    g33, _ = sf.gauss_codazzi_residual(sf.embedding_data_co(patch, m=33))
    g65, _ = sf.gauss_codazzi_residual(d65)
    ratio = g33 / g65
    # shape_from_support vs the connection route at 64^2
    a = rng.standard_normal(3) * 0.1
    ufn = lambda x: 1.0 + x @ a + 0.1 * np.sin(2 * x[..., 0]) * np.cos(x[..., 1])
    up = sf.graph_patch(coE, lambda U, V: ufn(sf.sphere_chart(U, V)), dom)
    dco = sf.embedding_data_co(up, m=64)
    B_sup, _ = sf.shape_from_support(ufn, base="S2", domain=dom, m=64)
    sup_gap = float(np.max(np.abs(B_sup - dco.B)))
    # dual involution and curvature dictionary
    dd = sf.dual_embedding_data(sf.dual_embedding_data(d65))
    invol = np.max([np.max(np.abs(dd.I - d65.I)), np.max(np.abs(dd.B - d65.B))])
    Ks = {}
    for m in (65, 129, 257):
        dm = d65 if m == 65 else sf.embedding_data_co(patch, m=m)
        ddm = sf.dual_embedding_data(dm)
        Ks[m] = sf.gauss_curvature(ddm.I, ddm.du, ddm.dv)
    det65 = d65.det_B
    k_ref = richardson([Ks[65], Ks[129][::2, ::2], Ks[257][::4, ::4]], ratio=4.0)
    kk = 8
    dict_gap = float(np.max(np.abs(k_ref - 1.0 / det65)[kk:-kk, kk:-kk]))
    # surface transition
    w = rng.standard_normal(3) * 0.05

    fam_ell = sf.transition_surface_family(
        "Ell3", lambda t, m_, U, V: t * ufn(m_) + t * t * (0.3 + m_ @ w))
    fam_hyp = sf.transition_surface_family(
        "Hyp3", lambda t, m_, U, V: t * (-1.0 + 0.05 * m_[..., 0]) + t * t * (0.2 + 0.05 * m_[..., 1]))
    out_e = sf.surface_transition(fam_ell, "Ell3", m=17, ts=0.5 ** np.arange(3, 10))
    out_h = sf.surface_transition(fam_hyp, "Hyp3", m=17, ts=0.5 ** np.arange(3, 10))
    trans_gap = np.max([*out_e["gaps"].values(), *out_h["gaps"].values()])
    r2 = np.min([out_e["rate_r2"], out_h["rate_r2"]])
    return [check("canonical {:.1e}", canon, hi=1e-9),
            check("h2-ratio {:.2f}", ratio, lo=3.5, hi=4.5),
            check("support-gap {:.1e}", sup_gap, hi=1e-4),
            check("involution {:.1e}", invol, hi=1e-8),
            check("K-dictionary {:.1e}", dict_gap, hi=1e-6),
            check("transition {:.1e}", trans_gap, hi=1e-5),
            check("R2 {:.4f}", r2, lo=0.99)]


@_criterion("9 rigidity transport")
def criterion_9_rigidity(seed=0):
    """Isometric deformations transport to isometric deformations;
    trivial ones stay trivial, for 10 ambient Killing restrictions."""
    rng = np.random.default_rng(seed)
    surf = pg.sphere_surface_samples()
    worst_src, worst_dst, worst_triv = 0.0, 0.0, 0.0
    for name in ("Hyp3", "AdS3"):
        m_src, m_dst = pg.chart_pair(name)
        for _ in range(5):
            gen = pg.random_killing_generator(name, rng)
            Z = pg.chart_killing_field(gen)
            res_src = pg.deformation_residual(m_src, Z, surf)
            worst_src = np.maximum(worst_src, res_src)
            PZ, res_dst = pg.rigidity_transport(Z, m_src, m_dst, surf)
            worst_dst = np.maximum(worst_dst, res_dst)
            worst_triv = np.maximum(worst_triv, pg.fit_flat_killing(m_dst, PZ, surf.points[::4]))
    return [check("src {:.2e}", worst_src, hi=1e-7),
            check("dst {:.2e}", worst_dst, hi=1e-6),
            check("triviality fit {:.2e}", worst_triv, hi=1e-6)]


CRITERIA = [
    criterion_1_distance_consistency,
    criterion_2_duality_round_trips,
    criterion_3_one_d_transition,
    criterion_4_three_d_transition,
    criterion_5_co_connection,
    criterion_6_connection_transition,
    criterion_7_pogorelov,
    criterion_8_surfaces,
    criterion_9_rigidity,
]


def run_all(seed=0):
    results = []
    for crit in CRITERIA:
        res = crit(seed=seed)
        results.append(res)
        status = "PASS" if res["passed"] else "FAIL"
        print(f"[{status}] {res['name']}: {res['detail']} ({res['seconds']:.1f}s)")
    total = sum(r["seconds"] for r in results)
    n_pass = sum(r["passed"] for r in results)
    print(f"{n_pass}/{len(results)} criteria passed in {total:.1f}s")
    return results
