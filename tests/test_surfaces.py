import numpy as np
import pytest

from modelspace import acceptance as ac
from modelspace import surfaces as sf
from modelspace import transition as tr
from modelspace import duality as du
from modelspace import pogorelov as pg
from modelspace._numerics import central_difference, det_small, inv_small, richardson
from modelspace.projective import chart_jet, model_space, related

S2_DOM = ((0.5, np.pi - 0.5), (0.3, 2 * np.pi - 0.3))
H2_DOM = ((0.1, 1.1), (0.3, 2 * np.pi - 0.3))


def test_sphere_canonical_data():
    data = sf.embedding_data(sf.sphere_patch(), m=17)
    assert np.max(np.abs(data.B - np.eye(2))) < 1e-12
    assert np.max(np.abs(data.det_B - 1.0)) < 1e-12
    cons = data.consistency()
    assert max(cons.values()) < 1e-9


def test_hyperboloid_canonical_data():
    data = sf.embedding_data(sf.hyperboloid_patch(), m=17)
    assert np.max(np.abs(data.B - np.eye(2))) < 1e-12
    # the induced metric is hyperbolic: E = 1, G = sinh^2
    assert np.max(np.abs(data.I[..., 0, 0] - 1.0)) < 1e-12


# geodesic spheres of radius R about e_4 (in AdS3 a totally umbilic
# hyperbolic plane): space -> (domain, radial factor, last coordinate, s k)
R = 0.7
UMBILIC = {"Ell3": (S2_DOM, np.sin(R), np.cos(R), 1 / np.tan(R)),
           "Hyp3": (S2_DOM, np.sinh(R), np.cosh(R), -1 / np.tanh(R)),
           "dS3": (S2_DOM, np.cosh(R), np.sinh(R), np.tanh(R)),
           "AdS3": (H2_DOM, np.cos(R), np.sin(R), -np.tan(R))}


def _umbilic_patch(name):
    """(a p, b) over the base chart of p, with the chart's exact jet."""
    domain, a, b, _ = UMBILIC[name]
    base = "S2" if domain is S2_DOM else "H2"

    def jet(order):
        def f(U, V):
            x = a * chart_jet(base, U, V, order)[order]
            return np.insert(x, 3, 0.0 if order else b, axis=x.ndim - 1 - order)
        return f

    return sf.SurfacePatch(model_space(name), jet(0), domain, jacobian=jet(1), hessian=jet(2),
                           normal_hint=np.eye(4)[3])


@pytest.mark.parametrize("name", list(UMBILIC))
def test_umbilic_spheres_have_closed_form_shape_operators(name):
    data = sf.embedding_data(_umbilic_patch(name), m=17)
    assert np.max(np.abs(data.B - UMBILIC[name][3] * np.eye(2))) < 1e-12


def test_paraboloid_graph_at_origin():
    euc = model_space("Euc3")
    patch = sf.graph_patch(euc, lambda U, V: (U**2 + V**2) / 2, ((-0.5, 0.5), (-0.5, 0.5)))
    data = sf.embedding_data(patch, m=21)
    assert np.max(np.abs(data.B[10, 10] - np.eye(2))) < 1e-7


def test_flat_graph_carries_exact_derivatives():
    # z = (x^2 + y^2) / 2 has II = Id / sqrt(1 + x^2 + y^2) in the upward normal
    euc = model_space("Euc3")
    patch = sf.graph_patch(euc, lambda U, V: (U**2 + V**2) / 2, ((-0.5, 0.5), (-0.5, 0.5)),
                           df=lambda U, V: np.stack([U, V], axis=-1),
                           d2f=lambda U, V: np.broadcast_to(np.eye(2), U.shape + (2, 2)))
    assert patch.jacobian is not None and patch.hessian is not None
    data = sf.embedding_data(patch, m=21)
    II = np.eye(2) / np.sqrt(1.0 + data.U**2 + data.V**2)[..., None, None]
    assert np.max(np.abs(data.B - np.linalg.solve(data.I, II))) < 1e-13


@pytest.mark.parametrize("base, domain", [("S2", S2_DOM), ("H2", H2_DOM),
                                          ("flat", ((-0.7, 0.4), (-0.2, 0.9)))])
def test_chart_jet_matches_differenced_points(base, domain):
    U, V = np.meshgrid(np.linspace(*domain[0], 6), np.linspace(*domain[1], 7), indexing="ij")
    points, jac, hess = chart_jet(base, U, V, 2)
    assert [a.shape for a in chart_jet(base, U, V)] == [points.shape]
    assert all(np.array_equal(a, b) for a, b in zip(chart_jet(base, U, V, 1), (points, jac)))

    def point(x):
        return chart_jet(base, x[..., 0], x[..., 1])[0]

    def jacobian(x):
        return chart_jet(base, x[..., 0], x[..., 1], 1)[1]

    x0 = np.stack([U, V], axis=-1)[..., None, :]
    axes = np.eye(2)
    # the k-th derivative along parameter j, stacked as (..., k, j)
    fd_jac = np.moveaxis(central_difference(point, x0, axes), -2, -1)
    fd_hess = np.moveaxis(central_difference(jacobian, x0, axes), -3, -1)
    assert np.max(np.abs(fd_jac - jac)) < 1e-10
    assert np.max(np.abs(fd_hess - hess)) < 1e-10
    assert np.array_equal(hess, np.swapaxes(hess, -1, -2))


def _bits_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("m", [1, 7, 64])
def test_grids_and_samples_on_the_jet_match_the_chart_formulas(m):
    theta = (np.arange(m) + 0.5) * np.pi / m
    rho = (np.arange(m) + 0.5) * 2.0 / m
    phi = 2 * np.pi * np.arange(m) / m
    T, P = np.meshgrid(theta, phi, indexing="ij")
    sphere = np.stack([np.sin(T) * np.cos(P), np.sin(T) * np.sin(P), np.cos(T)], axis=-1)
    assert _bits_equal(du.sphere_grid(m), sphere.reshape(-1, 3))
    R, P = np.meshgrid(rho, phi, indexing="ij")
    hyper = np.stack([np.sinh(R) * np.cos(P), np.sinh(R) * np.sin(P), np.cosh(R)], axis=-1)
    assert _bits_equal(du.hyperboloid_grid(m), hyper.reshape(-1, 3))

    radius, center = 0.55, np.array([0.0, 0.0, 0.1])
    T, P = np.meshgrid(np.arange(1, m + 1) * np.pi / (m + 2), phi, indexing="ij")
    st, ct, sp, cp = np.sin(T), np.cos(T), np.sin(P), np.cos(P)
    pts = radius * np.stack([st * cp, st * sp, ct], axis=-1) + center
    d_theta = radius * np.stack([ct * cp, ct * sp, -st], axis=-1)
    d_phi = radius * np.stack([-st * sp, st * cp, np.zeros_like(st)], axis=-1)
    samples = pg.sphere_surface_samples(radius, center, m)
    assert _bits_equal(samples.points, pts.reshape(-1, 3))
    assert _bits_equal(samples.tangents,
                       np.stack([d_theta.reshape(-1, 3), d_phi.reshape(-1, 3)], axis=1))


def test_spacelike_restriction_guard():
    mink = model_space("Min3")
    # a timelike graph violates the space-like requirement
    patch = sf.graph_patch(mink, lambda U, V: 2.0 * U, ((-0.5, 0.5), (-0.5, 0.5)))
    with pytest.raises(ValueError):
        sf.embedding_data(patch, m=9)


def test_negative_definite_metric_is_reported_at_its_node():
    # a time-like plane of AdS3: I = -Id, whose determinant is positive
    patch = sf.SurfacePatch(model_space("AdS3"),
                            lambda U, V: np.stack([0.1 + 0 * U, 0.2 + 0 * U, U, V], -1),
                            ((1, 2), (1, 2)))
    with pytest.raises(ValueError, match=r"induced metric degenerate at grid node \(0, 0\)"):
        sf.embedding_data(patch, m=9)


def test_co_euclidean_graphs():
    coe = model_space("coEuc3")
    one = sf.graph_patch(coe, lambda U, V: np.ones_like(U), S2_DOM)
    d1 = sf.embedding_data_co(one, m=17)
    assert np.max(np.abs(d1.B - np.eye(2))) < 1e-7
    assert np.max(np.abs(d1.I[..., 0, 0] - 1.0)) < 1e-7  # round pullback
    p0 = np.array([0.3, -0.2, 0.5])
    lin = sf.graph_patch(coe, lambda U, V: sf.sphere_chart(U, V) @ p0, S2_DOM)
    dl = sf.embedding_data_co(lin, m=17)
    assert np.max(np.abs(dl.B)) < 1e-7  # planes have B = 0
    zero = sf.graph_patch(coe, lambda U, V: np.zeros_like(U), S2_DOM)
    assert np.max(np.abs(sf.embedding_data_co(zero, m=9).B)) < 1e-8


def test_co_minkowski_graphs():
    com = model_space("coMin3")
    minus = sf.graph_patch(com, lambda U, V: -np.ones_like(U), H2_DOM)
    dm = sf.embedding_data_co(minus, m=17)
    assert np.max(np.abs(dm.B - np.eye(2))) < 1e-7
    p0 = np.array([0.2, -0.1, 0.4])
    g21 = np.diag([1.0, 1.0, -1.0])
    lin = sf.graph_patch(com, lambda U, V: sf.hyperboloid_chart(U, V) @ g21 @ p0, H2_DOM)
    assert np.max(np.abs(sf.embedding_data_co(lin, m=17).B)) < 1e-7


def test_gauss_codazzi_by_space():
    # the K_I = offset + factor det B table across ambient spaces
    checks = [
        (sf.sphere_patch(), None),
        (sf.hyperboloid_patch(), None),
    ]
    for patch, _ in checks:
        g, c = sf.gauss_codazzi_residual_refined(
            lambda m, p=patch: sf.embedding_data(p, m=m), m=17)
        assert g < 1e-4 and c < 1e-4


def test_gauss_codazzi_coeuc_and_refinement_ratio():
    coe = model_space("coEuc3")
    c = 0.05
    f = lambda U, V: 1.0 + c * np.sin(2 * U) * np.cos(V)
    patch = sf.graph_patch(coe, f, S2_DOM)
    g33, c33 = sf.gauss_codazzi_residual(sf.embedding_data_co(patch, m=33))
    g65, c65 = sf.gauss_codazzi_residual(sf.embedding_data_co(patch, m=65))
    assert 3.5 <= g33 / g65 <= 4.5
    gr, cr = sf.gauss_codazzi_residual_refined(
        lambda m: sf.embedding_data_co(patch, m=m), m=33)
    assert gr < 1e-4 and cr < 1e-4


def test_corrupted_shape_operator_detected():
    coe = model_space("coEuc3")
    f = lambda U, V: 1.0 + 0.05 * np.sin(2 * U) * np.cos(V)
    patch = sf.graph_patch(coe, f, S2_DOM)
    data = sf.embedding_data_co(patch, m=33)
    bad_B = data.B.copy()
    bad_B[..., 0, 1] += 0.05 * np.sin(3 * data.U)
    bad = sf.EmbeddingData("coEuc3", data.U, data.V, data.du, data.dv,
                           data.I, data.I @ bad_B, bad_B,
                           np.swapaxes(bad_B, -1, -2) @ data.I @ bad_B)
    _, cod = sf.gauss_codazzi_residual(bad)
    assert cod > 1e-2


def test_dual_embedding_data():
    sphere_r2 = sf.sphere_patch(radius=2.0)
    data = sf.embedding_data(sphere_r2, m=17)
    assert np.max(np.abs(data.B - 0.5 * np.eye(2))) < 1e-12
    dual = sf.dual_embedding_data(data)
    assert np.max(np.abs(dual.B - 2.0 * np.eye(2))) < 1e-12
    again = sf.dual_embedding_data(dual)
    assert np.max(np.abs(again.I - data.I)) < 1e-12
    assert np.max(np.abs(again.B - data.B)) < 1e-12
    # B = Id data is self-dual
    unit = sf.embedding_data(sf.sphere_patch(), m=9)
    sd = sf.dual_embedding_data(unit)
    assert np.max(np.abs(sd.I - unit.III)) < 1e-12
    assert np.max(np.abs(sd.B - np.eye(2))) < 1e-12
    # a non-convex patch is rejected
    coe = model_space("coEuc3")
    saddle = sf.graph_patch(coe, lambda U, V: sf.sphere_chart(U, V) @ np.array([0.4, 0, 0]), S2_DOM)
    with pytest.raises(ValueError):
        sf.dual_embedding_data(sf.embedding_data_co(saddle, m=9))


def _rotated_diagonal(low, high, angle):
    c, s = np.cos(angle), np.sin(angle)
    R = np.array([[c, -s], [s, c]])
    return R @ np.diag([low, high]) @ R.T


def test_dual_embedding_gate_names_the_first_non_convex_node():
    U, V = np.meshgrid(np.linspace(0.5, 1.0, 3), np.linspace(0.3, 1.0, 4), indexing="ij")
    B = np.broadcast_to(_rotated_diagonal(0.5, 2.0, 0.3), (3, 4, 2, 2)).copy()
    I = np.broadcast_to(np.eye(2), B.shape)

    def data(B):
        return sf.EmbeddingData("coEuc3", U, V, 0.25, 0.35, I, I @ B, B,
                                np.swapaxes(B, -1, -2) @ I @ B)

    B[2, 1] = _rotated_diagonal(1e-11, 1.0, 0.7)
    sf.dual_embedding_data(data(B))  # above the 1e-12 gate
    B[1, 2] = _rotated_diagonal(1e-13, 1.0, 0.7)
    with pytest.raises(ValueError, match=r"not positive definite at node \(1, 2\)"):
        sf.dual_embedding_data(data(B))


def test_smaller_eigenvalue_matches_eigvalsh():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((5000, 2, 2))
    B = A @ np.swapaxes(A, -1, -2) + 1e-3 * np.eye(2)
    B[:, 0, 1] += rng.uniform(-0.1, 0.1, len(B))  # an asymmetric part
    eig = np.linalg.eigvalsh(0.5 * (B + np.swapaxes(B, -1, -2)))
    err = np.abs(sf._smaller_eigenvalue(B) - eig[:, 0])
    assert np.max(err / np.max(np.abs(eig), axis=-1)) <= 1e-15


def test_dual_of_co_graph_satisfies_euclidean_gauss():
    coe = model_space("coEuc3")
    c = 0.05
    f = lambda U, V: 1.0 + c * np.sin(2 * U) * np.cos(V)
    df = lambda U, V: np.stack(
        [2 * c * np.cos(2 * U) * np.cos(V), -c * np.sin(2 * U) * np.sin(V)], axis=-1)

    def d2f(U, V):
        h = np.empty(U.shape + (2, 2))
        h[..., 0, 0] = -4 * c * np.sin(2 * U) * np.cos(V)
        h[..., 0, 1] = h[..., 1, 0] = -2 * c * np.cos(2 * U) * np.sin(V)
        h[..., 1, 1] = -c * np.sin(2 * U) * np.cos(V)
        return h

    patch = sf.graph_patch(coe, f, S2_DOM, df=df, d2f=d2f)
    g, c_ = sf.gauss_codazzi_residual_refined(
        lambda m: sf.dual_embedding_data(sf.embedding_data_co(patch, m=m)), m=33)
    assert g < 2e-4 and c_ < 2e-4


def test_shape_from_support_matches_connection_route():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(3) * 0.1
    ufn = lambda x: 1.0 + x @ a + 0.1 * np.sin(2 * x[..., 0]) * np.cos(x[..., 1])
    coe = model_space("coEuc3")
    patch = sf.graph_patch(coe, lambda U, V: ufn(sf.sphere_chart(U, V)), S2_DOM)
    data = sf.embedding_data_co(patch, m=24)
    B, _ = sf.shape_from_support(ufn, base="S2", domain=S2_DOM, m=24)
    assert np.max(np.abs(B - data.B)) < 1e-4


def test_shape_from_support_examples():
    # u = 1 and u = 1 + eps<x,p>: the linear part is annihilated
    B, _ = sf.shape_from_support(lambda x: np.ones(x.shape[:-1]), base="S2",
                                 domain=S2_DOM, m=9)
    assert np.max(np.abs(B - np.eye(2))) < 1e-6
    p0 = np.array([0.3, -0.2, 0.5])
    B2, _ = sf.shape_from_support(lambda x: 1.0 + 0.3 * (x @ p0), base="S2",
                                  domain=S2_DOM, m=9)
    assert np.max(np.abs(B2 - np.eye(2))) < 1e-6
    # co-Minkowski: B = Hess u - u Id, so u = -1 gives the identity
    B3, _ = sf.shape_from_support(lambda x: -np.ones(x.shape[:-1]), base="H2",
                                  domain=H2_DOM, m=9)
    assert np.max(np.abs(B3 - np.eye(2))) < 1e-6


def test_recover_support_round_trip():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(3) * 0.1
    ufn = lambda x: 1.0 + x @ a + 0.05 * np.sin(2 * x[..., 0]) * np.cos(x[..., 1])
    m = 33
    Ug, Vg = np.meshgrid(np.linspace(*S2_DOM[0], m), np.linspace(*S2_DOM[1], m),
                         indexing="ij")
    pts = sf.sphere_chart(Ug, Vg)
    du = (S2_DOM[0][1] - S2_DOM[0][0]) / (m - 1)
    dv = (S2_DOM[1][1] - S2_DOM[1][0]) / (m - 1)
    B, I = sf.shape_from_support(ufn, base="S2", domain=S2_DOM, m=m)
    u_rec = sf.recover_support_from_shape(B, I, du, dv, pts)
    B_fwd = sf.apply_shape_operator(u_rec, I, du, dv)
    assert np.max(np.abs(B_fwd - B)[4:-4, 4:-4]) < 1e-4
    # recovery matches the original up to the linear gauge kernel
    diff = (u_rec - ufn(pts)).reshape(-1)
    A = pts.reshape(-1, 3)
    coef, *_ = np.linalg.lstsq(A, diff, rcond=None)
    assert np.max(np.abs(diff - A @ coef)) < 1e-4
    # B = Id recovers the constant, gauge-fixed
    Bid = np.broadcast_to(np.eye(2), B.shape).copy()
    u_id = sf.recover_support_from_shape(Bid, I, du, dv, pts)
    d = u_id.reshape(-1) - 1.0
    coef2, *_ = np.linalg.lstsq(A, d, rcond=None)
    assert np.max(np.abs(d - A @ coef2)) < 1e-4
    # a non-Codazzi field is rejected
    bad = B.copy()
    bad[..., 0, 1] += 0.05 * np.sin(3 * Ug)
    with pytest.raises(ValueError):
        sf.recover_support_from_shape(bad, I, du, dv, pts)


def test_recover_support_system_stays_sparse(monkeypatch):
    # the dense gauge rows live in a border, not in the normal matrix:
    # each unknown couples to at most the 9x9 block its stencils reach,
    # O(m^2) nonzeros in all (folded into S^T S they fill all n^2)
    import scipy.sparse.linalg as spla

    seen = []
    real = spla.spsolve

    def capture(A, b, **kwargs):
        seen.append(A)
        return real(A, b, **kwargs)

    monkeypatch.setattr(spla, "spsolve", capture)
    m = 33
    Ug, Vg = np.meshgrid(np.linspace(*S2_DOM[0], m), np.linspace(*S2_DOM[1], m),
                         indexing="ij")
    du = (S2_DOM[0][1] - S2_DOM[0][0]) / (m - 1)
    dv = (S2_DOM[1][1] - S2_DOM[1][0]) / (m - 1)
    B, I = sf.shape_from_support(lambda x: 1.0 + 0.05 * x[..., 0] ** 2, base="S2",
                                 domain=S2_DOM, m=m)
    sf.recover_support_from_shape(B, I, du, dv, sf.sphere_chart(Ug, Vg))
    (A,) = seen
    n = A.shape[0]
    assert n >= m * m
    assert A.nnz <= 81 * n + 6 * m * m + 3


def test_vertical_coefficient_matches_per_node_lstsq():
    rng = np.random.default_rng(4)
    c = rng.standard_normal(4) * 0.1
    coe = model_space("coEuc3")
    f = lambda U, V: 1.0 + c[0] * np.sin(2 * U) * np.cos(V) + c[1] * U * V + c[2] * np.cos(U + c[3] * V)
    patch = sf.graph_patch(coe, f, S2_DOM)
    m = 9
    data = sf.embedding_data_co(patch, m=m)
    sigma, jac, hess = patch.frames(data.U, data.V)
    b = coe.form.matrix
    t_vec = np.array([0.0, 0.0, 0.0, 1.0])
    for i, j in rng.integers(0, m, size=(10, 2)):
        x, J, H = sigma[i, j], jac[i, j], hess[i, j]
        nabla = H - np.einsum("a,ab,bij->ij", x, b, H)[None] / (x @ b @ x) * x[:, None, None]
        basis = np.column_stack([J, t_vec])
        coef, *_ = np.linalg.lstsq(basis, nabla.reshape(4, 4), rcond=None)
        assert np.max(np.abs(data.II[i, j] - coef[2].reshape(2, 2))) < 1e-12


def test_immersion_from_data():
    dev = lambda U, V: sf.sphere_chart(U, V)
    patch = sf.immersion_from_data_co_euclidean(
        dev, lambda x: np.ones(x.shape[:-1]), S2_DOM)
    data = sf.embedding_data_co(patch, m=17)
    assert np.max(np.abs(data.B - np.eye(2))) < 1e-7
    # gauge shift u -> u + <x, p0> leaves the data unchanged
    p0 = np.array([0.2, -0.1, 0.4])
    shifted = sf.immersion_from_data_co_euclidean(
        dev, lambda x: 1.0 + x @ p0, S2_DOM)
    data2 = sf.embedding_data_co(shifted, m=17)
    assert np.max(np.abs(data2.B - data.B)) < 1e-7
    assert np.max(np.abs(data2.I - data.I)) < 1e-10
    with pytest.raises(ValueError):
        sf.immersion_from_data_co_euclidean(
            lambda U, V: 1.1 * sf.sphere_chart(U, V),
            lambda x: np.ones(x.shape[:-1]), S2_DOM)


def test_zero_mean_curvature_gauge_functions():
    # graphs of <x, p> have B = 0, hence zero mean curvature exactly
    coe = model_space("coEuc3")
    p0 = np.array([0.3, 0.1, -0.2])
    patch = sf.graph_patch(coe, lambda U, V: sf.sphere_chart(U, V) @ p0, S2_DOM)
    data = sf.embedding_data_co(patch, m=17)
    assert np.max(np.abs(data.mean_curvature)) < 1e-5


def test_surface_transition_ell_and_hyp():
    rng = np.random.default_rng(2)
    a = rng.standard_normal(3) * 0.05
    ufn = lambda x: 1.0 + x @ a + 0.05 * np.sin(2 * x[..., 0]) * np.cos(x[..., 1])
    w = rng.standard_normal(3) * 0.05

    # families take a scalar t or a t-array (T, 1, 1) and return (T, m, m, 4)
    def fam_ell(t, U, V):
        m_ = sf.sphere_chart(U, V)
        h = t * ufn(m_) + t * t * (0.3 + m_ @ w)
        vec = np.concatenate([np.broadcast_to(m_, h.shape + (3,)), h[..., None]], axis=-1)
        return vec / np.sqrt(1 + h**2)[..., None]

    out = sf.surface_transition(fam_ell, "Ell3", m=13)
    assert max(out["gaps"].values()) < 1e-5
    assert out["rate_r2"] > 0.99
    assert out["limit"].space_name == "coEuc3"

    def fam_hyp(t, U, V):
        m_ = sf.hyperboloid_chart(U, V)
        h = t * (-1.0 + 0.05 * m_[..., 0]) + t * t * (0.2 + 0.05 * m_[..., 1])
        vec = np.stack(np.broadcast_arrays(m_[..., 0], m_[..., 1], h, m_[..., 2]), axis=-1)
        return vec / np.sqrt(1 - h**2)[..., None]

    outh = sf.surface_transition(fam_hyp, "Hyp3", m=13)
    assert max(outh["gaps"].values()) < 1e-5
    assert outh["rate_r2"] > 0.99
    assert outh["limit"].space_name == "coMin3"


def test_surface_transition_guards_and_trivial():
    def flat(t, U, V):
        m_ = sf.sphere_chart(U, V)
        h = np.zeros(np.broadcast_shapes(np.shape(t), U.shape))
        return np.concatenate([np.broadcast_to(m_, h.shape + (3,)), h[..., None]], axis=-1)

    out = sf.surface_transition(flat, "Ell3", m=9, ts=0.5 ** np.arange(3, 7))
    assert np.max(np.abs(out["limit"].B)) < 1e-10

    def off_plane(t, U, V):
        m_ = sf.sphere_chart(U, V)
        h = 0.1 + 0.0 * t * U
        vec = np.concatenate([np.broadcast_to(m_, h.shape + (3,)), h[..., None]], axis=-1)
        return vec / np.sqrt(1 + h**2)[..., None]

    with pytest.raises(ValueError):
        sf.surface_transition(off_plane, "Ell3", m=9)


TRANSITION_DOMAINS = {"Ell3": ((0.35, np.pi - 0.35), (0.2, 2 * np.pi - 0.2)),
                      "Hyp3": ((0.1, 1.0), (0.2, 2 * np.pi - 0.2))}


def _per_t_surface_limits(family, src_name, m, ts):
    """surface_transition's limits one t at a time: one embedding_data
    call per t, and the family called with a scalar t."""
    fam = tr.transition_family(src_name, "plane")
    domain = TRANSITION_DOMAINS[src_name]
    seq = [sf.embedding_data(sf.SurfacePatch(model_space(src_name),
                                             lambda U, V, t=t: family(t, U, V), domain,
                                             normal_hint=np.eye(4)[fam.axis]), m=m)
           for t in ts]
    seq_II = [d.II / t for d, t in zip(seq, ts)]

    def limit_immersion(U, V):
        return richardson([np.einsum("ab,...b->...a", fam.matrix(t), family(t, U, V))
                           for t in ts])

    co = sf.embedding_data_co(sf.SurfacePatch(model_space(related(src_name, "plane_limit")),
                                              limit_immersion, domain), m=m)
    return {"I": richardson([d.I for d in seq]), "II": richardson(seq_II),
            "B": richardson([d.B / t for d, t in zip(seq, ts)]),
            "K_ext": richardson([d.det_B / t**2 for d, t in zip(seq, ts)]),
            "co_B": co.B, "rate_errors": np.array([np.max(np.abs(s - co.II)) for s in seq_II])}


def test_surface_transition_matches_a_per_t_loop(monkeypatch):
    # criterion 8's Ell3 and Hyp3 families at seed 0, bit for bit
    calls, real = [], sf.surface_transition

    def record(family, src_name, **kwargs):
        out = real(family, src_name, **kwargs)
        calls.append((family, src_name, kwargs, out))
        return out

    monkeypatch.setattr(sf, "surface_transition", record)
    ac.criterion_8_surfaces(seed=0)
    assert [c[1] for c in calls] == ["Ell3", "Hyp3"]
    for family, src_name, kwargs, out in calls:
        expected = _per_t_surface_limits(family, src_name, kwargs["m"], kwargs["ts"])
        got = {"I": out["limit"].I, "II": out["limit"].II, "B": out["limit"].B,
               "K_ext": out["K_ext_limit"], "co_B": out["co_data"].B,
               "rate_errors": out["rate_errors"]}
        for key, value in expected.items():
            assert got[key].shape == value.shape, (src_name, key)
            assert np.array_equal(got[key].view(np.uint64), value.view(np.uint64)), (src_name, key)


def test_surface_transition_makes_one_embedding_call_per_side(monkeypatch):
    counts = {"embedding_data": 0, "embedding_data_co": 0}
    for name in counts:
        def counted(*args, _real=getattr(sf, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(sf, name, counted)
    family = sf.transition_surface_family("Ell3", lambda t, m_, U, V: t * (1.0 + 0.1 * m_[..., 0]))
    out = sf.surface_transition(family, "Ell3", m=9)
    assert counts == {"embedding_data": 1, "embedding_data_co": 1}
    assert out["limit"].I.shape == (9, 9, 2, 2) and out["rate_errors"].shape == (7,)


def test_embedding_data_invariants_random_patch():
    rng = np.random.default_rng(3)
    euc = model_space("Euc3")
    patch = sf.graph_patch(
        euc,
        lambda U, V: 0.2 * np.sin(U + 0.3) * np.cos(V) + 0.1 * U * V,
        ((-0.6, 0.6), (-0.6, 0.6)),
    )
    data = sf.embedding_data(patch, m=21)
    cons = data.consistency()
    assert cons["II_symmetry"] < 1e-9
    assert cons["II_equals_IB"] < 1e-9
    assert cons["III_consistency"] < 1e-9


# the einsum contractions that the component-wise kernels replace, kept
# as the bit-for-bit reference
def _einsum_christoffel(I, du, dv, order):
    grad = sf._grad4 if order == 4 else np.gradient
    dI = np.stack([grad(I, du, axis=0), grad(I, dv, axis=1)], axis=-3)
    t = dI + np.einsum("...jil->...ijl", dI) - np.einsum("...lij->...ijl", dI)
    return 0.5 * np.einsum("...kl,...ijl->...kij", inv_small(I), t)


def _einsum_codazzi(data):
    B = data.B
    gamma = _einsum_christoffel(data.I, data.du, data.dv, 2)
    dB = np.stack([np.gradient(B, data.du, axis=0), np.gradient(B, data.dv, axis=1)], axis=-3)
    cov = dB + np.einsum("...kil,...lj->...ikj", gamma, B) \
        - np.einsum("...lij,...kl->...ikj", gamma, B)
    return cov[..., 0, :, 1] - cov[..., 1, :, 0]


@pytest.mark.parametrize("which", ["sphere", "co-graph"])
def test_componentwise_kernels_match_the_einsum_formulas(which):
    if which == "sphere":
        patch = sf.sphere_patch(radius=1.3)
    else:
        f = lambda U, V: 1.0 + 0.1 * np.sin(2 * U) * np.cos(V) + 0.05 * U * V
        patch = sf.graph_patch(model_space("coEuc3"), f, S2_DOM)
    data = sf.embedding_data(patch, m=33)
    _, jac, _ = patch.frames(data.U, data.V)
    g = (patch.space.chart_form or patch.space.form).matrix
    assert np.array_equal(data.I, np.einsum("...ai,...aj->...ij", jac, g @ jac))
    for order in (2, 4):
        assert np.array_equal(sf._christoffel_of_I(data.I, data.du, data.dv, order=order),
                              _einsum_christoffel(data.I, data.du, data.dv, order))
    assert np.array_equal(sf.codazzi_residual_field(data), _einsum_codazzi(data))


@pytest.mark.parametrize("d", [3, 4])
def test_transverse_covector_is_the_stack_of_signed_minors(d):
    rng = np.random.default_rng(d)
    cols = rng.standard_normal((40, 7, d, d - 1))
    minors = np.stack([(-1) ** k * det_small(np.delete(cols, k, axis=-2)) for k in range(d)],
                      axis=-1)
    assert np.array_equal(sf._transverse_covector(cols), minors)
    diag = model_space(f"Hyp{d - 1}").form.diag
    jac = cols[..., :2]
    assert np.array_equal(sf._pullback(jac, diag),
                          np.einsum("...ai,...aj->...ij", jac, np.diag(diag) @ jac))
