import numpy as np
import pytest

from modelspace import pogorelov as pg


@pytest.fixture(scope="module")
def pairs():
    return {"hyp-euc": pg.chart_pair("hyp-euc"), "ads-min": pg.chart_pair("ads-min")}


def test_chart_metric_values(pairs):
    hyp, euc = pairs["hyp-euc"]
    x0 = np.zeros(3)
    assert np.allclose(hyp.metric(x0), np.eye(3))
    x = np.array([0.5, 0.0, 0.0])
    e1, e2 = np.eye(3)[:2]
    assert hyp(x, e1, e1) == pytest.approx(16 / 9)
    assert hyp(x, e2, e2) == pytest.approx(4 / 3)
    with pytest.raises(ValueError):
        hyp.rho(np.array([1.2, 0, 0]))
    ads, _ = pairs["ads-min"]
    # the AdS chart domain is wider than the ball in timelike directions
    assert ads.in_domain(np.array([0.0, 0.0, 1.5]))
    assert not ads.in_domain(np.array([1.5, 0.0, 0.0]))


def test_operator_l_eigenvalues(pairs):
    hyp, euc = pairs["hyp-euc"]
    x = np.array([0.5, 0, 0])
    L = pg.operator_l(hyp, euc, x)
    rho2 = 1 / (1 - 0.25)
    assert np.allclose(L @ np.array([0, 1.0, 0]), rho2 * np.array([0, 1.0, 0]))
    assert np.allclose(L @ x, rho2**2 * x)
    assert np.allclose(pg.operator_l(hyp, euc, np.zeros(3)), np.eye(3))
    assert np.linalg.det(L) == pytest.approx(rho2**4)


def test_lambda_cross_check(pairs):
    cloud = pg.halton_cloud(64)
    for name, (src, dst) in pairs.items():
        for x in cloud[:20]:
            assert pg.lambda_closed_form(src, dst, x) == pytest.approx(
                pg.lambda_from_volumes(src, dst, x), abs=1e-12
            )


def test_christoffel_closed_vs_fd(pairs):
    cloud = pg.halton_cloud(32)
    for name, (src, _) in pairs.items():
        for x in cloud[:10]:
            gap = np.max(np.abs(src.christoffel(x) - src.christoffel_fd(x)))
            assert gap < 1e-9
        stacked = src.christoffel_fd(cloud[:10])
        assert stacked.shape == (10, 3, 3, 3)
        assert np.max(np.abs(src.christoffel(cloud[:10]) - stacked)) < 1e-9


def test_killing_fields_and_transport(pairs):
    rng = np.random.default_rng(0)
    cloud = pg.halton_cloud(96)
    for name, (src, dst) in pairs.items():
        for _ in range(4):
            gen = pg.random_killing_generator(name, rng)
            K = pg.chart_killing_field(gen)
            assert pg.killing_residual(src, K, cloud[:32]) < 1e-7
            PK = pg.infinitesimal_pogorelov(K, src, dst)
            assert pg.killing_residual(dst, PK, cloud[:32]) < 1e-6
            assert pg.fit_flat_killing(dst, PK, cloud[:32]) < 1e-9


def test_pogorelov_closed_form_and_linearity(pairs):
    rng = np.random.default_rng(1)
    hyp, euc = pairs["hyp-euc"]
    g1 = pg.random_killing_generator("hyp-euc", rng)
    g2 = pg.random_killing_generator("hyp-euc", rng)
    K1, K2 = pg.chart_killing_field(g1), pg.chart_killing_field(g2)
    P1 = pg.infinitesimal_pogorelov(K1, hyp, euc)
    P2 = pg.infinitesimal_pogorelov(K2, hyp, euc)
    Ksum = lambda x: K1(x) + K2(x)
    Psum = pg.infinitesimal_pogorelov(Ksum, hyp, euc)
    cloud = pg.halton_cloud(32, seed=3)
    for x in cloud[:12]:
        # P(K) = K + rho^2 b(x, K) x, and P is exactly linear
        rho2 = 1.0 / (1.0 - x @ x)
        closed = K1(x) + rho2 * (x @ K1(x)) * x
        assert np.max(np.abs(P1(x) - closed)) < 1e-12
        assert np.max(np.abs(Psum(x) - P1(x) - P2(x))) < 1e-12


def test_zero_and_rotation_fields(pairs):
    hyp, euc = pairs["hyp-euc"]
    zero = lambda x: np.zeros_like(x)
    Pz = pg.infinitesimal_pogorelov(zero, hyp, euc)
    assert np.max(np.abs(Pz(np.array([0.3, 0.1, -0.2])))) == 0.0
    rot = lambda x: np.stack([-x[..., 1], x[..., 0], np.zeros_like(x[..., 0])], axis=-1)
    Pr = pg.infinitesimal_pogorelov(rot, hyp, euc)
    cloud = pg.halton_cloud(16, seed=4)
    for x in cloud:
        assert np.max(np.abs(Pr(x) - rot(x))) < 1e-12  # lateral: P(K) = K


def test_ads_variant_killing(pairs):
    # K + rho^2 b_{2,1}(., K) . is a Minkowski Killing field
    rng = np.random.default_rng(2)
    ads, mink = pairs["ads-min"]
    g21 = ads.base.matrix
    gen = pg.random_killing_generator("ads-min", rng)
    K = pg.chart_killing_field(gen)

    def mapped(x):
        rho2 = 1.0 / (1.0 - np.einsum("...i,ij,...j->...", x, g21, x))
        return K(x) + (rho2 * np.einsum("...i,ij,...j->...", x, g21, K(x)))[..., None] * x

    cloud = pg.halton_cloud(64, seed=5)
    assert pg.killing_residual(mink, mapped, cloud[:24]) < 1e-6


def test_weyl_and_contraction(pairs):
    rng = np.random.default_rng(3)
    cloud = pg.halton_cloud(32, seed=6)
    for name, (src, dst) in pairs.items():
        for x in cloud[:8]:
            X, Y = rng.standard_normal((2, 3))
            assert pg.weyl_gap(dst, src, x, X, Y) < 1e-6
            assert pg.contraction_gap(dst, src, x) < 1e-6
        assert pg.weyl_gap(dst, src, np.zeros(3), np.eye(3)[0], np.eye(3)[0]) < 1e-10


def test_norm_dictionary(pairs):
    hyp, euc = pairs["hyp-euc"]
    p = np.array([0.3, -0.2, 0.4])
    rho = 1 / np.sqrt(1 - p @ p)
    lat = np.cross(p, [0.0, 0.0, 1.0])
    Plat = pg.infinitesimal_pogorelov(lambda q: lat, hyp, euc)
    assert np.sqrt(euc(p, Plat(p), Plat(p))) == pytest.approx(
        np.sqrt(hyp(p, lat, lat)) / rho
    )
    rad = p / np.linalg.norm(p)
    Prad = pg.infinitesimal_pogorelov(lambda q: rad, hyp, euc)
    assert np.sqrt(euc(p, Prad(p), Prad(p))) == pytest.approx(
        np.sqrt(hyp(p, rad, rad))
    )


def test_rigidity_transport(pairs):
    rng = np.random.default_rng(4)
    surf = pg.sphere_surface_samples()
    hyp, euc = pairs["hyp-euc"]
    gen = pg.random_killing_generator("hyp-euc", rng)
    Z = pg.chart_killing_field(gen)
    PZ, res = pg.rigidity_transport(Z, hyp, euc, surf)
    assert res < 1e-6
    assert pg.fit_flat_killing(euc, PZ, surf.points[::4]) < 1e-9
    zero = lambda x: np.zeros_like(x)
    _, res0 = pg.rigidity_transport(zero, hyp, euc, surf)
    assert res0 == 0.0
    with pytest.raises(ValueError, match="not an isometric deformation"):
        pg.rigidity_transport(lambda q: q**2 * [1.0, 0.0, 0.0], hyp, euc, surf)


def test_stacks_match_single_points(pairs):
    cloud = pg.halton_cloud(24, seed=7)
    for name, (src, dst) in pairs.items():
        for method in (src.metric, src.christoffel, dst.metric, dst.christoffel, src.rho):
            single = np.stack([method(x) for x in cloud])
            np.testing.assert_allclose(method(cloud), single, rtol=1e-14, atol=0)
        L = pg.operator_l(src, dst, cloud)
        assert L.shape == (24, 3, 3)
        single = np.stack([pg.operator_l(src, dst, x) for x in cloud])
        assert np.max(np.abs(L - single)) < 1e-14
        lam = pg.lambda_from_volumes(src, dst, cloud)
        assert np.max(np.abs(lam - pg.lambda_closed_form(src, dst, cloud))) < 1e-12


def test_killing_residual_over_a_cloud_is_the_pointwise_max(pairs):
    rng = np.random.default_rng(8)
    cloud = pg.halton_cloud(16, seed=8)
    for name, (src, dst) in pairs.items():
        K = pg.chart_killing_field(pg.random_killing_generator(name, rng))
        # a field that is not Killing, so the residuals are well above rounding
        Z = lambda x, K=K: K(x) + 0.1 * x**2
        for metric, field in ((src, Z), (dst, pg.infinitesimal_pogorelov(Z, src, dst))):
            whole = pg.killing_residual(metric, field, cloud)
            pointwise = max(pg.killing_residual(metric, field, x) for x in cloud)
            assert whole > 1e-3
            assert whole == pytest.approx(pointwise, rel=1e-12)


def test_field_of_the_wrong_shape_is_rejected(pairs):
    hyp, euc = pairs["hyp-euc"]
    cloud = pg.halton_cloud(8, seed=9)
    constant = lambda x: np.array([1.0, 0.0, 0.0])  # ignores the stack
    with pytest.raises(ValueError, match=r"shape \(3,\) for points of shape"):
        pg.killing_residual(hyp, constant, cloud)
    with pytest.raises(ValueError, match="shape"):
        pg.fit_flat_killing(euc, constant, cloud)
    with pytest.raises(ValueError, match="shape"):
        pg.infinitesimal_pogorelov(constant, hyp, euc)(cloud)
