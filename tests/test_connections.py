import numpy as np
import pytest

from modelspace import acceptance as ac
from modelspace import cli
from modelspace import connections as cn
from modelspace import transition as tr
from modelspace._numerics import DEFAULT_SCHEDULE, richardson
from modelspace.projective import model_space, transitions


def test_ambient_derivative_examples():
    sp = model_space("Ell3")
    const = cn.VectorField(
        sp, lambda x: np.broadcast_to(np.array([1.0, 2.0, 3.0, 4.0]), x.shape), project=False)
    x0 = np.array([1.0, 0, 0, 0])
    assert np.max(np.abs(cn.ambient_derivative(const, np.array([0, 1.0, 0, 0]), x0))) < 1e-9
    ident = cn.VectorField(sp, lambda x: x, project=False)
    v = np.array([0.3, -0.1, 0.0, 0.7])
    assert np.max(np.abs(cn.ambient_derivative(ident, v, x0) - v)) < 1e-9
    J = np.zeros((4, 4))
    J[0, 1], J[1, 0] = 1.0, -1.0
    rot = cn.VectorField(sp, lambda x: x @ J.T, project=False)
    out = cn.ambient_derivative(rot, np.array([1.0, 0, 0, 0]), np.array([0.5, 0.5, 0.5, 0.5]))
    assert np.max(np.abs(out - np.array([0.0, -1.0, 0, 0]))) < 1e-9


def test_connection_constructor_guards():
    with pytest.raises(ValueError):
        cn.levi_civita(model_space("coEuc3"))
    with pytest.raises(ValueError):
        cn.co_connection(model_space("Ell3"))


def test_geodesics_nondegenerate():
    ell3 = model_space("Ell3")
    conn = cn.levi_civita(ell3)
    circle = lambda t: ac._columns(np.cos(t), np.sin(t), 0.0, 0.0)
    assert cn.geodesic_residual(conn, circle) < 1e-6
    hyp3 = model_space("Hyp3")
    connh = cn.levi_civita(hyp3)
    branch = lambda t: ac._columns(np.sinh(t), 0.0, 0.0, np.cosh(t))
    assert cn.geodesic_residual(connh, branch) < 1e-6
    latitude = lambda t: ac._columns(
        np.cos(t) * np.cos(0.7), np.sin(t) * np.cos(0.7), np.sin(0.7), 0.0)
    assert cn.geodesic_residual(conn, latitude) > 1e-2


def test_geodesic_residual_keeps_a_nan_sample():
    # a circle that is NaN only near t = 0.5: Python's max kept the clean value
    cc = cn.co_connection(model_space("coEuc3"))

    def circle(t):
        return (ac._columns(np.cos(t), np.sin(t), 0.0, 0.0)
                * np.where(np.abs(t - 0.5) < 0.01, np.nan, 1.0)[..., None])

    assert cn.geodesic_residual(cc, lambda t: ac._columns(np.cos(t), np.sin(t), 0.0, 0.0)) < 1e-6
    assert np.isnan(cn.geodesic_residual(cc, circle))


def _per_sample_geodesic_residual(conn, curve):
    """The residual one sample at a time: three scalar curve calls each."""
    h = 1e-4
    norms = []
    for t in np.linspace(0.05, 0.95, 19):
        x = curve(t)
        acc = (curve(t + h) - 2 * x + curve(t - h)) / h**2
        norms.append(np.linalg.norm(cn.tangent_project(conn.space, x, acc)))
    return float(np.max(norms))


def _criterion_5_curves():
    """Criterion 5's great circle, tilted co-Euclidean line, tilted
    co-Minkowski line and control circle, with their connections."""
    coe, com = model_space("coEuc3"), model_space("coMin3")
    u_vec, v_vec = np.array([1.0, 0, 0, 0.3]), np.array([0, 1.0, 0, -0.2])
    um, vm = np.array([1.0, 0, 0, 0.3]), np.array([0, 0, 1.0, -0.5])
    cc, ccm = cn.co_connection(coe), cn.co_connection(com)
    return [
        (cc, lambda t: ac._columns(np.cos(t), np.sin(t), 0.0, 0.0)),
        (cc, lambda t: cn.project_to_locus(
            coe, np.cos(t)[..., None] * u_vec + np.sin(t)[..., None] * v_vec)),
        (ccm, lambda t: cn.project_to_locus(
            com, np.sinh(t)[..., None] * um + np.cosh(t)[..., None] * vm)),
        (cc, lambda t: ac._columns(np.cos(t) * np.cos(0.7), np.sin(t) * np.cos(0.7),
                                   np.sin(0.7), 0.1)),
    ]


def test_geodesic_residual_matches_a_per_sample_loop():
    for conn, curve in _criterion_5_curves():
        got = cn.geodesic_residual(conn, curve)
        expected = _per_sample_geodesic_residual(conn, curve)
        assert np.array_equal(np.float64(got).view(np.uint64),
                              np.float64(expected).view(np.uint64)), (got, expected)


def test_each_residual_makes_one_curve_call():
    shapes = []

    def counted(curve):
        def call(t):
            shapes.append(np.shape(t))
            return curve(t)
        return call

    for conn, curve in _criterion_5_curves():
        shapes.clear()
        cn.geodesic_residual(conn, counted(curve))
        assert shapes == [(3, 19)]
    # parallel transport: the points, then the velocity stencil, at 3 stage times per step
    ell2 = model_space("Ell2")
    shapes.clear()
    cn.parallel_transport(ell2, counted(lambda t: ac._columns(np.cos(t), np.sin(t), 0.0)),
                          0.0, 1.0, [0, 0, 1.0])
    assert shapes == [(3, 200), (2, 3, 200)]


def _scalar_curve_transport(space, curve, t0, t1, X0, steps=200):
    """RK4 parallel transport with scalar curve calls at every stage."""
    g, eps, h = space.form.matrix, float(space.sign), 1e-6

    def rhs(t, X):
        x = curve(t)
        dx = (curve(t + h) - curve(t - h)) / (2 * h)
        return -((np.einsum("i,ij->j", dx, g) / eps) @ X) * x

    X = np.asarray(X0, dtype=float)
    ts = np.linspace(t0, t1, steps + 1)
    for i in range(steps):
        t, dt = ts[i], ts[i + 1] - ts[i]
        k1 = rhs(t, X)
        k2 = rhs(t + dt / 2, X + dt / 2 * k1)
        k3 = rhs(t + dt / 2, X + dt / 2 * k2)
        k4 = rhs(t + dt, X + dt * k3)
        X = X + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return X


def test_parallel_transport_matches_a_scalar_curve_loop():
    ell2, hyp2 = model_space("Ell2"), model_space("Hyp2")
    a, w = np.array([1.0, 0, 0]), np.array([0, 0.6, 0.8])
    legs = [
        (ell2, lambda t: np.cos(0.4 * t)[..., None] * a + np.sin(0.4 * t)[..., None] * w,
         [0, 0.8, -0.6]),
        (hyp2, lambda t: ac._columns(np.sinh(0.3 * t), 0.2 * t, np.sqrt(1 + np.sinh(0.3 * t) ** 2
                                                                         + (0.2 * t) ** 2)),
         [1.0, 0.5, 0.1]),
    ]
    for space, curve, X0 in legs:
        got = cn.parallel_transport(space, curve, 0.0, 1.0, X0)
        expected = _scalar_curve_transport(space, curve, 0.0, 1.0, X0)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), (got, expected)


def test_nondegenerate_levi_civita_axioms():
    rng = np.random.default_rng(7)
    for name in ("Ell3", "Hyp3", "dS3", "AdS3"):
        sp = model_space(name)
        conn = cn.levi_civita(sp)
        pts = sp.sample_points(rng, 5)
        X = cn.random_tangent_field(sp, rng, 0.5)
        Y = cn.random_tangent_field(sp, rng, 0.5)
        Z = cn.random_tangent_field(sp, rng, 0.5)
        assert cn.symmetry_residual(conn, X, Y, pts) < 1e-8
        assert cn.metric_compatibility_residual(conn, X, Y, Z, pts) < 1e-7


def test_co_connection_axioms():
    rng = np.random.default_rng(0)
    for name in ("coEuc3", "coMin3"):
        sp = model_space(name)
        conn = cn.co_connection(sp)
        pts = sp.sample_points(rng, 6)
        X = cn.random_tangent_field(sp, rng, 0.5)
        Y = cn.random_tangent_field(sp, rng, 0.5)
        Z = cn.random_tangent_field(sp, rng, 0.5)
        assert cn.symmetry_residual(conn, X, Y, pts) < 1e-8
        assert cn.metric_compatibility_residual(conn, X, Y, Z, pts) < 1e-8
        assert cn.t_parallel_residual(conn, pts) < 1e-12
        omega = cn.volume_form(sp)
        frame = [X, Y, cn.random_tangent_field(sp, rng, 0.5)]
        assert cn.parallel_volume_residual(conn, omega, Z, frame, pts) < 1e-8
        normal = rng.standard_normal(4)
        normal[-1] = 1.0 + abs(normal[-1])
        assert cn.plane_preservation_residual(sp, normal, rng) < 1e-8


def test_slice_fields_match_sphere_connection():
    # on the slice S^2 x {0} the co-Euclidean connection restricts to the
    # round Levi-Civita connection
    coe = model_space("coEuc3")
    ell2 = model_space("Ell2")
    conn_co = cn.co_connection(coe)
    conn_s2 = cn.levi_civita(ell2)
    rng = np.random.default_rng(1)
    f3 = cn.random_tangent_field(ell2, rng, 0.5)
    g3 = cn.random_tangent_field(ell2, rng, 0.5)
    lift = lambda h: cn.VectorField(coe, lambda x: np.concatenate(
        [h(x[..., :3] / np.linalg.norm(x[..., :3], axis=-1, keepdims=True)),
         np.zeros_like(x[..., 3:])], axis=-1), project=False)
    for _ in range(4):
        v = rng.standard_normal(3)
        x3 = v / np.linalg.norm(v)
        x4 = np.append(x3, 0.0)
        out_co = conn_co(lift(f3), lift(g3), x4)
        out_s2 = conn_s2(f3, g3, x3)
        assert abs(out_co[3]) < 1e-8
        assert np.max(np.abs(out_co[:3] - out_s2)) < 1e-7


def test_volume_form_normalization():
    coe = model_space("coEuc3")
    omega = cn.volume_form(coe)
    x0 = np.array([1.0, 0, 0, 0.2])
    e2 = np.array([0, 1.0, 0, 0])
    e3 = np.array([0, 0, 1.0, 0])
    T = np.array([0, 0, 0, 1.0])
    assert omega(x0, e2, e3, T) == pytest.approx(1.0)
    assert omega(x0, e3, e2, T) == pytest.approx(-1.0)


@pytest.mark.parametrize("name", ["Ell2", "coEuc2", "Hyp4", "coMin4"])
def test_volume_form_takes_one_vector_per_dimension(name):
    sp = model_space(name)
    rng = np.random.default_rng(3)
    x = sp.sample_points(rng, 5)
    vectors = [rng.standard_normal(x.shape) for _ in range(sp.dim - 1)]
    omega = cn.volume_form(sp)
    expected = [np.linalg.det(np.column_stack([x[i], *(v[i] for v in vectors)]))
                for i in range(len(x))]
    assert np.array_equal(omega(x, *vectors), expected)
    with pytest.raises(ValueError, match=f"takes {sp.dim - 1} vectors, not {sp.dim - 2}"):
        omega(x, *vectors[:-1])
    with pytest.raises(ValueError, match=f"not {sp.dim}"):
        omega(x, *vectors, vectors[0])


def test_co_geodesics():
    coe = model_space("coEuc3")
    cc = cn.co_connection(coe)
    assert cn.geodesic_residual(cc, lambda t: ac._columns(np.cos(t), np.sin(t), 0, 0.0)) < 1e-6
    vertical = lambda t: ac._columns(0.6, 0.8, 0.0, 0.3 + 2.0 * t)
    assert cn.geodesic_residual(cc, vertical) < 1e-6
    p = np.array([0.3, -0.2, 0.5])
    u_vec = np.array([1.0, 0, 0, p[0]])
    v_vec = np.array([0, 1.0, 0, p[1]])
    tilted = lambda t: cn.project_to_locus(
        coe, np.cos(t)[..., None] * u_vec + np.sin(t)[..., None] * v_vec)
    assert cn.geodesic_residual(cc, tilted) < 1e-6
    # a constant-height circle is not a line unless the height is zero
    lifted_circle = lambda t: ac._columns(np.cos(t), np.sin(t), 0.0, 0.4)
    assert cn.geodesic_residual(cc, lifted_circle) > 1e-2


def test_holonomy_measures_curvature():
    ell2 = model_space("Ell2")
    s = 0.15

    def step(x, d):
        d = d - np.dot(d, x) * x
        d = d / np.linalg.norm(d)
        return np.cos(s) * x + np.sin(s) * d

    def geo(a, b):
        ang = np.arccos(np.clip(np.dot(a, b), -1, 1))
        w = b - np.dot(a, b) * a
        w = w / np.linalg.norm(w)
        return lambda t: np.cos(ang * t)[..., None] * a + np.sin(ang * t)[..., None] * w

    A = np.array([1.0, 0, 0])
    B = step(A, np.array([0, 1.0, 0]))
    C = step(B, np.array([0, 0, 1.0]))
    D = step(C, -(B - A))
    loop = [geo(A, B), geo(B, C), geo(C, D), geo(D, A)]
    X0 = np.array([0, 1.0, 0])
    angle = cn.holonomy_angle(ell2, loop, X0)
    assert abs(angle / s**2 - 1.0) < 0.02


def test_transition_of_connection_and_volume():
    rng = np.random.default_rng(2)

    def family(axis):
        c0 = rng.standard_normal(4) * 0.5
        c0[axis] = 0.0
        c1 = rng.standard_normal((4, 4)) * 0.4
        c1[axis, :] = 0.0
        d0 = rng.standard_normal(4) * 0.4
        return lambda t, x: c0 + np.einsum("ij,...j->...i", c1, x) + t * d0

    for src_name, co_name in [("Ell3", "coEuc3"), ("Hyp3", "coMin3")]:
        src = model_space(src_name)
        cosp = model_space(co_name)
        fam = tr.transition_family(src_name, "plane")
        xi = cosp.sample_points(rng, 1, radius=0.8)[0]
        gap = cn.connection_transition_check(
            src, cosp, fam, family(fam.axis), family(fam.axis), xi)
        assert gap < 1e-6
        vgap = cn.volume_transition_check(
            src, cosp, fam, [family(fam.axis) for _ in range(3)], xi)
        assert vgap < 1e-6
    # zero families give a zero gap
    zero = lambda t, x: np.zeros_like(x)
    src = model_space("Ell3")
    cosp = model_space("coEuc3")
    fam = tr.transition_family("Ell3", "plane")
    xi = cosp.sample_points(rng, 1, radius=0.8)[0]
    assert cn.volume_transition_check(src, cosp, fam, [zero, zero, zero], xi) < 1e-12


def _per_t_transition_gaps(src, cosp, fam, X, Y, Z, xi, schedule=DEFAULT_SCHEDULE[:7]):
    """The connection and volume gaps one t at a time, each family called
    with a scalar t."""
    def x_t(t, eta):
        return cn.project_to_locus(src, np.einsum("ij,...j->...i", fam.inverse(t), eta))

    def hat(f):
        def field(eta):
            return richardson([np.einsum("ij,...j->...i", fam.matrix(t),
                                         cn.tangent_project(src, x_t(t, eta), f(t, x_t(t, eta))))
                               for t in schedule])
        return field

    conn_seq, vol_seq = [], []
    for t in schedule:
        x = x_t(t, xi)
        Xf = cn.VectorField(src, lambda p, t=t: X(t, p))
        Yf = cn.VectorField(src, lambda p, t=t: Y(t, p))
        conn_seq.append(fam.matrix(t) @ cn.levi_civita(src)(Xf, Yf, x))
        vals = [cn.tangent_project(src, x, f(t, x)) for f in (X, Y, Z)]
        vol_seq.append(np.linalg.det(fam.matrix(t)) * cn.volume_form(src)(x, *vals))
    rhs = cn.co_connection(cosp)(hat(X)(xi), hat(Y), xi)
    conn_gap = float(np.linalg.norm(richardson(conn_seq) - rhs))
    vol_rhs = cn.volume_form(cosp)(xi, *(hat(f)(xi) for f in (X, Y, Z)))
    return conn_gap, abs(float(richardson(np.array(vol_seq))) - vol_rhs)


def test_transition_checks_match_a_per_t_loop():
    # criterion 6's draw at seed 0: one stacked call per transition and
    # check, each of its 20 gaps bit for bit the per-t, per-family loop's
    rng = np.random.default_rng(0)
    for src_name, co_name in transitions("plane", 3):
        src, cosp = model_space(src_name), model_space(co_name)
        fam = tr.transition_family(src_name, "plane")
        xi, draws = [], []
        for _ in range(20):
            xi.append(cosp.sample_points(rng, 1, radius=0.8)[0])
            draws.append([ac._field_coefficients(rng, fam.axis) for _ in range(3)])
        xi = np.stack(xi)
        X, Y, Z = (ac._affine_family(*map(np.stack, zip(*field))) for field in zip(*draws))
        got = np.stack([cn.connection_transition_check(src, cosp, fam, X, Y, xi),
                        cn.volume_transition_check(src, cosp, fam, [X, Y, Z], xi)], axis=-1)
        assert got.shape == (20, 2)
        expected = np.array([
            _per_t_transition_gaps(src, cosp, fam, *(ac._affine_family(*c) for c in draw), row)
            for row, draw in zip(xi, draws)])
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), src_name


def test_transition_families_see_t_shaped_like_their_points():
    src, cosp = model_space("Ell3"), model_space("coEuc3")
    fam = tr.transition_family("Ell3", "plane")
    xi = cosp.sample_points(np.random.default_rng(4), 1, radius=0.8)[0]
    shapes = set()

    def family(t, x):
        shapes.add((np.shape(t), x.shape))
        return np.broadcast_to(np.array([0.3, -0.2, 0.1, 0.0]), x.shape) + 0.0 * t

    assert isinstance(cn.connection_transition_check(src, cosp, fam, family, family, xi), float)
    # the t = 0 tangency guard, the (T, d) base points, their derivative
    # stencil (2 signs x 3 levels), and the limit fields' stencil at xi
    assert shapes == {((), (4,)), ((7, 1), (7, 4)), ((7, 1), (6, 7, 4)),
                      ((7, 1, 1), (7, 6, 4))}
    shapes.clear()
    assert isinstance(cn.volume_transition_check(src, cosp, fam, [family] * 3, xi), float)
    assert shapes == {((7, 1), (7, 4))}
    # a stack of three target points: t gains one axis, and each check
    # returns one gap per point
    xi3 = cosp.sample_points(np.random.default_rng(4), 3, radius=0.8)
    shapes.clear()
    assert cn.connection_transition_check(src, cosp, fam, family, family, xi3).shape == (3,)
    assert shapes == {((), (3, 4)), ((7, 1, 1), (7, 3, 4)), ((7, 1, 1), (6, 7, 3, 4)),
                      ((7, 1, 1, 1), (7, 6, 3, 4))}
    shapes.clear()
    assert cn.volume_transition_check(src, cosp, fam, [family] * 3, xi3).shape == (3,)
    assert shapes == {((7, 1, 1), (7, 3, 4))}


def test_transition_tangency_guard():
    rng = np.random.default_rng(3)
    src = model_space("Ell3")
    cosp = model_space("coEuc3")
    fam = tr.transition_family("Ell3", "plane")
    xi = cosp.sample_points(rng, 1, radius=0.8)[0]
    bad = lambda t, x: np.broadcast_to(np.array([0.0, 0, 0, 1.0]), x.shape)  # transverse at t = 0
    with pytest.raises(ValueError):
        cn.connection_transition_check(src, cosp, fam, bad, bad, xi)
    # a stack of three families: the guard raises when only the middle
    # one is transverse
    xi3 = cosp.sample_points(rng, 3, radius=0.8)
    c0, c1, d0 = np.zeros((3, 4)), np.zeros((3, 4, 4)), np.zeros((3, 4))
    c0[:, 0] = 0.3
    tangent = ac._affine_family(c0, c1, d0)
    assert cn.connection_transition_check(src, cosp, fam, tangent, tangent, xi3).shape == (3,)
    c0_bad = c0.copy()
    c0_bad[1, fam.axis] = 1.0
    with pytest.raises(ValueError, match="not tangent"):
        cn.connection_transition_check(src, cosp, fam, tangent, ac._affine_family(c0_bad, c1, d0),
                                       xi3)


def test_shipped_field_forms_take_stacks():
    # four points in R^4: with a leading size equal to d, c1 @ x would
    # mix the rows without raising, so only a row-by-row comparison shows it
    rng = np.random.default_rng(11)
    sp = model_space("coEuc3")
    x = sp.sample_points(rng, 4)
    family = ac._affine_family(*ac._field_coefficients(rng, tr.transition_family("Ell3", "plane").axis))
    record = {"fields": [{"c0": rng.standard_normal(4).tolist(),
                          "c1": rng.standard_normal((4, 4)).tolist()}] * 3}
    forms = {
        "random_tangent_field": cn.random_tangent_field(sp, rng, 0.5),
        "plane_tangent_field": cn.plane_tangent_field(sp, [0.3, -0.2, 0.5, 1.0], rng),
        "cli record field": cli._fields_from_record(sp, record, rng)[0],
        "acceptance field family": lambda p: family(0.25, p),
    }
    for name, field in forms.items():
        stack = field(x)
        assert stack.shape == x.shape, name
        np.testing.assert_allclose(stack, [field(p) for p in x], rtol=1e-12, atol=1e-15,
                                   err_msg=name)


@pytest.mark.parametrize("name", ["coEuc3", "coMin3", "Ell3", "AdS3"])
def test_residual_over_a_cloud_is_the_max_of_single_points(name):
    sp = model_space(name)
    rng = np.random.default_rng(5)
    conn = cn.co_connection(sp) if sp.degenerate else cn.levi_civita(sp)
    pts = sp.sample_points(rng, 6)
    X, Y, Z, W = (cn.random_tangent_field(sp, rng, 0.5) for _ in range(4))
    omega = cn.volume_form(sp)
    residuals = {
        "symmetry": lambda p: cn.symmetry_residual(conn, X, Y, p),
        "compatibility": lambda p: cn.metric_compatibility_residual(conn, X, Y, Z, p),
        "volume": lambda p: cn.parallel_volume_residual(conn, omega, Z, [X, Y, W], p),
    }
    for label, residual in residuals.items():
        single = max(residual(p) for p in pts)
        assert residual(pts) == pytest.approx(single, rel=1e-12), label


def test_field_of_the_wrong_shape_raises():
    sp = model_space("coEuc3")
    x = sp.sample_points(np.random.default_rng(0), 3)
    flat = cn.VectorField(sp, lambda p: np.array([1.0, 2.0, 3.0, 4.0]), name="flat")
    with pytest.raises(ValueError, match=r"flat maps points of shape \(3, 4\) to shape \(4,\)"):
        flat(x)


def test_plane_preservation_is_zero_when_no_sample_reaches_the_locus():
    # the section {x4 = 0} is space-like and misses the sheet b(x, x) = -1
    hyp3 = model_space("Hyp3")
    rng = np.random.default_rng(0)
    assert cn.plane_preservation_residual(hyp3, [0, 0, 0, 1.0], rng) == 0.0
