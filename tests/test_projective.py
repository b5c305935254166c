import numpy as np
import pytest

from modelspace import forms
from modelspace import projective as pj


def test_point_normalization_and_equality():
    p = pj.ProjPoint([2.0, 0.0, -2.0])
    assert abs(np.linalg.norm(p.rep) - 1.0) < 1e-14
    assert p.rep[-1] > 0
    assert p == pj.ProjPoint([-1.0, 0.0, 1.0])
    assert p != pj.ProjPoint([1.0, 0.0, 1.0])


def test_named_spaces():
    assert pj.model_space("Ell2").form.signature == (3, 0, 0)
    assert pj.model_space("Hyp3").sign == -1
    assert pj.model_space("AdS3").form.signature == (2, 2, 0)
    assert pj.model_space("coEuc3").degenerate
    assert not pj.model_space("Euc3").degenerate
    with pytest.raises(ValueError):
        pj.model_space("Sol3")


def test_membership():
    hyp2 = pj.model_space("Hyp2")
    assert hyp2.contains(pj.ProjPoint([0, 0, 1]))
    assert not hyp2.contains(pj.ProjPoint([1, 0, 0]))
    comin = pj.model_space("coMin3")
    assert comin.contains(pj.ProjPoint([0, 0, 1, 0.3]))
    assert not comin.contains(pj.ProjPoint([1, 0, 0, 0.3]))


def test_line_through_and_errors():
    x, y = pj.ProjPoint([1, 0, 0]), pj.ProjPoint([0, 1, 0])
    line = pj.line_through(x, y)
    assert np.allclose(line.span @ np.array([0.0, 0.0, 1.0]), 0.0)
    with pytest.raises(ValueError):
        pj.line_through(x, pj.ProjPoint([2, 0, 0]))


def test_classify_line_examples():
    ds2 = pj.model_space("dS2")
    assert pj.classify_line(ds2, pj.ProjLine([1, 0, 0], [0, 1, 0])) == "elliptic"
    hyp2 = pj.model_space("Hyp2")
    assert pj.classify_line(hyp2, pj.ProjLine([1, 0, 0], [0, 0, 1])) == "hyperbolic"
    coe = pj.model_space("coEuc3")
    vertex_line = pj.ProjLine([1, 0, 0, 0], [0, 0, 0, 1.0])
    assert pj.classify_line(coe, vertex_line) == "parabolic"


def test_absolute_points_cases():
    ell2 = pj.model_space("Ell2")
    line = pj.ProjLine([1, 0, 0], [0, 1, 0])
    absolute = pj.absolute_points(ell2, line)
    # the classical conjugate pair [i:1], [-i:1]
    r = absolute.roots
    ratios = r[:, 0] / r[:, 1]
    assert sorted(np.round(ratios.imag, 9)) == [-np.sqrt(2) / 2 * 0 - 1, 1] or \
        np.allclose(sorted(ratios.imag), [-1, 1])
    assert np.allclose(ratios.real, 0)
    hyp = pj.model_space("dS2")
    line2 = pj.ProjLine([1, 0, 0], [0, 0, 1])
    ab2 = pj.absolute_points(hyp, line2)
    ratios2 = ab2.roots[:, 0] / ab2.roots[:, 1]
    assert np.allclose(np.sort(ratios2.real), [-1, 1]) and np.allclose(ratios2.imag, 0)
    assert not ab2.coincident
    # parabolic: double root
    coe = pj.model_space("coEuc3")
    ab3 = pj.absolute_points(coe, pj.ProjLine([1, 0, 0, 0], [0, 0, 0, 1.0]))
    assert ab3.coincident


def test_cross_ratio_normalization():
    assert pj.cross_ratio(np.inf, 0, 1, 2.5) == pytest.approx(2.5)
    assert pj.cross_ratio(2, 0, 1, 3) == pytest.approx(-3)
    assert pj.cross_ratio(2, 0, 1, 1) == pytest.approx(1)
    assert pj.cross_ratio(2, 0, 1, 0) == pytest.approx(0)
    assert pj.cross_ratio(2, 0, 1, 2) == np.inf
    with pytest.raises(ValueError):
        pj.cross_ratio(1, 1, 2, 3)


def test_projective_distance_examples():
    ell2 = pj.model_space("Ell2")
    assert pj.projective_distance(ell2, pj.ProjPoint([1, 0, 0]), pj.ProjPoint([0, 1, 0])) \
        == pytest.approx(np.pi / 2, abs=1e-12)
    assert pj.projective_distance(ell2, pj.ProjPoint([1, 0, 0]), pj.ProjPoint([1, 1, 0])) \
        == pytest.approx(np.pi / 4, abs=1e-12)
    hyp2 = pj.model_space("Hyp2")
    d = pj.projective_distance(
        hyp2, pj.ProjPoint([0, 0, 1]), pj.ProjPoint([0, np.sinh(1), np.cosh(1)])
    )
    assert d == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        pj.projective_distance(hyp2, pj.ProjPoint([1, 0, 0]), pj.ProjPoint([0, 0, 1]))


_V = 1.3


@pytest.mark.parametrize("name, x, y, kind, d", [
    ("Ell2", [1, 0, 0], [np.cos(0.7), np.sin(0.7), 0], "elliptic", 0.7),
    # b(x, y) < 0: the angle of r wraps, and the distance is pi - 2.5
    ("Ell2", [1, 0, 0], [np.cos(2.5), np.sin(2.5), 0], "elliptic", np.pi - 2.5),
    ("Hyp2", [0, 0, 1], [np.sinh(_V), 0, np.cosh(_V)], "hyperbolic", _V),
    ("Hyp2", [0, 0, 1], [-np.sinh(_V), 0, -np.cosh(_V)], "hyperbolic", _V),
    ("dS2", [np.cosh(_V), 0, np.sinh(_V)], [1, 0, 0], "hyperbolic", _V),
    # x in dS, y in Hyp: r = -exp(-2V) < 0, and |1/2 log r| = hypot(V, pi/2)
    ("dS2", [np.cosh(_V), 0, np.sinh(_V)], [0, 0, 1], "hyperbolic", np.hypot(_V, np.pi / 2)),
    ("dS2", [1, 0, 0], [0, 0, 1], "hyperbolic", np.pi / 2),
    # a line tangent to the absolute at [0:1:1]
    ("dS2", [1, 0, 0], [1, 1, 1], "parabolic", 0.0),
    # y on the absolute, and two distinct points of the absolute (a = c = 0)
    ("Hyp2", [0, 0, 1], [0, 1, 1], "hyperbolic", np.inf),
    ("Hyp2", [0, 1, 1], [0, -1, 1], "hyperbolic", np.inf),
], ids=["elliptic", "elliptic-obtuse", "hyperbolic", "hyperbolic-other-lift", "dS-same-branch",
        "straddling", "straddling-h0", "parabolic", "on-absolute", "ideal-pair"])
def test_cross_ratio_case_table(name, x, y, kind, d):
    # the real-arithmetic cases of |1/2 log r|, r = (h + s) / (h - s)
    got, kinds = pj.projective_distance_batch(pj.model_space(name), np.array([x], float),
                                              np.array([y], float))
    assert kinds.tolist() == [kind]
    assert got[0] == pytest.approx(d, rel=1e-14, abs=1e-15)


def _mp_distance(diag, x, y):
    """The distance of a pair of lifts on one pseudo-sphere, at 50 digits
    from the same float inputs: arccos or arccosh of |h| / sqrt(ac)."""
    import mpmath as mp

    with mp.workdps(50):
        a, h, c = (mp.fsum(mp.mpf(g) * mp.mpf(u) * mp.mpf(v) for g, u, v in zip(diag, p, q))
                   for p, q in ((x, x), (x, y), (y, y)))
        assert a * c > 0
        ratio = abs(h) / mp.sqrt(a * c)
        return mp.acos(ratio) if ratio < 1 else mp.acosh(ratio)


def _far_lifts(rng, space, count, rho_max=7.25):
    """Lifts b(x, x) = sign at rapidity up to rho_max from the origin, so
    |x| up to about 1e3, each times a random sign (either branch)."""
    g = np.diagonal(space.form.matrix)
    pos, neg = g > 0, g < 0
    u = rng.standard_normal((count, int(pos.sum())))
    w = rng.standard_normal((count, int(neg.sum())))
    u, w = (v / np.linalg.norm(v, axis=1, keepdims=True) for v in (u, w))
    rho = rng.uniform(0.0, rho_max, (count, 1))
    ch, sh = np.cosh(rho), np.sinh(rho)
    x = np.empty((count, space.dim))
    x[:, pos], x[:, neg] = (ch * u, sh * w) if space.sign > 0 else (sh * u, ch * w)
    return x * rng.choice([-1.0, 1.0], (count, 1))


@pytest.mark.parametrize("name", ["Hyp2", "dS2", "AdS3"])
def test_far_pairs_match_a_50_digit_oracle(name):
    # both routes within 1e-10 max(1, d) of the oracle for |x| up to 1e3
    space = pj.model_space(name)
    rng = np.random.default_rng(20)
    X, Y = _far_lifts(rng, space, 300), _far_lifts(rng, space, 300)
    assert np.max(np.abs(X)) > 500
    diag = np.diagonal(space.form.matrix)
    ref = np.array([float(_mp_distance(diag, x, y)) for x, y in zip(X, Y)])
    for d in (pj.projective_distance_batch(space, X, Y)[0], pj.closed_form_distance(space, X, Y)):
        assert np.max(np.abs(d - ref) / np.maximum(1.0, ref)) <= 1e-10


@pytest.mark.parametrize("name, x, y", [
    ("Ell2", [1, 0, 0], [np.cos(1e-5), np.sin(1e-5), 0]),
    ("Hyp2", [0, 0, 1], [np.sinh(1e-5), 0, np.cosh(1e-5)]),
], ids=["Ell2", "Hyp2"])
def test_short_distances_are_not_coincident(name, x, y):
    # the points are 1e-5 apart, not one point
    d, kind = pj.projective_distance(
        pj.model_space(name), pj.ProjPoint(x), pj.ProjPoint(y), return_line_type=True)
    assert kind is not None
    assert abs(d - 1e-5) <= 1e-6 * 1e-5


@pytest.mark.parametrize("eps", [1e-6, 1e-10, 1e-12])
def test_line_type_and_coincident_roots_agree(eps):
    hyp2 = pj.model_space("Hyp2")
    line = pj.ProjLine([1, 0, 0], [0, 1, 1 + eps])
    coincident = pj.absolute_points(hyp2, line).coincident
    assert (pj.classify_line(hyp2, line) == "parabolic") == coincident


@pytest.mark.parametrize("name", ["Ell2", "Hyp2", "dS2", "AdS3"])
def test_scalar_distance_is_the_batch_kernel_on_lifts(name):
    space = pj.model_space(name)
    rng = np.random.default_rng(8)
    xs = [pj.ProjPoint(v) for v in space.random_points(rng, 50)]
    ys = [pj.ProjPoint(v) for v in space.random_points(rng, 50)]
    d, kinds = pj.projective_distance_batch(
        space, [space.lift(x) for x in xs], [space.lift(y) for y in ys])
    scalar = [pj.projective_distance(space, x, y, return_line_type=True) for x, y in zip(xs, ys)]
    assert np.array([s[0] for s in scalar]).tobytes() == d.tobytes()
    assert [s[1] for s in scalar] == kinds.tolist()


def test_scalar_distance_names_the_point_outside_the_space():
    hyp2 = pj.model_space("Hyp2")
    inside, outside = pj.ProjPoint([0, 0, 1]), pj.ProjPoint([1, 0, 0])
    with pytest.raises(ValueError, match="^first point is not in Hyp2$"):
        pj.projective_distance(hyp2, outside, inside)
    with pytest.raises(ValueError, match="^second point is not in Hyp2$"):
        pj.projective_distance(hyp2, inside, outside)


@pytest.mark.parametrize("name", ["Ell3", "Hyp3", "dS3", "AdS3", "Euc3", "Min3", "coEuc3",
                                  "coMin3"])
def test_gram_entries_of_a_stack_are_those_of_each_row(name):
    space = pj.model_space(name)
    rng = np.random.default_rng(11)
    X, Y = rng.standard_normal((2, 50, space.dim)) * 10.0 ** rng.uniform(-4, 4, (2, 50, 1))
    stack = pj._gram(space.form, X, Y)
    rows = [pj._gram(space.form, x, y) for x, y in zip(X, Y)]
    for k, entry in enumerate(stack):
        assert np.array_equal(entry, [row[k] for row in rows])


def test_distance_symmetric_vanishing_and_invariant():
    rng = np.random.default_rng(3)
    for name in ("Ell2", "Hyp2", "dS2", "AdS3"):
        space = pj.model_space(name)
        X = space.random_points(rng, 64)
        Y = space.random_points(rng, 64)
        d_xy, _ = pj.projective_distance_batch(space, X, Y)
        d_yx, _ = pj.projective_distance_batch(space, Y, X)
        assert np.max(np.abs(d_xy - d_yx)) < 1e-9
        d_xx, _ = pj.projective_distance_batch(space, X, X)
        assert np.max(np.abs(d_xx)) < 1e-9
        g = forms.random_isometry(space.form, rng)
        d_g, _ = pj.projective_distance_batch(space, X @ g.T, Y @ g.T)
        assert np.max(np.abs(d_g - d_xy)) < 1e-9


def test_elliptic_log_purely_imaginary_hyperbolic_positive():
    rng = np.random.default_rng(4)
    ell = pj.model_space("Ell2")
    X = ell.random_points(rng, 200)
    Y = ell.random_points(rng, 200)
    b = ell.form.matrix
    a = np.einsum("ni,ij,nj->n", X, b, X)
    h = np.einsum("ni,ij,nj->n", X, b, Y)
    c = np.einsum("ni,ij,nj->n", Y, b, Y)
    disc = h * h - a * c
    assert np.all(disc < 0)  # all

    # cross-ratio on elliptic lines sits on the unit circle
    d, kinds = pj.projective_distance_batch(ell, X, Y)
    assert set(kinds) == {"elliptic"}
    hyp = pj.model_space("Hyp2")
    Xh = hyp.random_points(rng, 200)
    Yh = hyp.random_points(rng, 200)
    # same-sheet lifts: flip so b(x,y) <= -1
    s = np.sign(np.einsum("ni,ij,nj->n", Xh, hyp.form.matrix, Yh))
    Yh = -Yh * s[:, None]
    dh, kindsh = pj.projective_distance_batch(hyp, Xh, Yh)
    closed = pj.closed_form_distance(hyp, Xh, Yh)
    assert np.max(np.abs(dh - closed)) < 1e-9


def test_log_cross_ratio_imaginary_and_real():
    # on elliptic lines ln[x,y,I,J] is purely imaginary; on hyperbolic
    # lines with same-branch lifts the cross-ratio is real positive
    rng = np.random.default_rng(11)
    ell = pj.model_space("Ell2")
    hyp = pj.model_space("Hyp2")
    for _ in range(50):
        x, y = ell.random_points(rng, 2)
        line = pj.ProjLine(x, y)
        roots = pj.absolute_points(ell, line).roots
        xc = line.coordinates_of(x).astype(complex)
        yc = line.coordinates_of(y).astype(complex)
        r = pj.cross_ratio(xc, yc, roots[0], roots[1])
        assert abs(np.log(r).real) < 1e-9
    for _ in range(50):
        x, y = hyp.random_points(rng, 2)
        if float(hyp.form(x, y)) > 0:
            y = -y
        line = pj.ProjLine(x, y)
        roots = pj.absolute_points(hyp, line).roots
        xc = line.coordinates_of(x).astype(complex)
        yc = line.coordinates_of(y).astype(complex)
        r = pj.cross_ratio(xc, yc, roots[0], roots[1])
        assert abs(r.imag) < 1e-9 * abs(r)
        assert r.real > 0


def test_classification_matches_root_structure():
    rng = np.random.default_rng(5)
    for name in ("Ell2", "Hyp2", "dS2", "AdS3"):
        space = pj.model_space(name)
        X = space.random_points(rng, 10_000)
        Y = space.random_points(rng, 10_000)
        b = space.form.matrix
        a = np.einsum("ni,ij,nj->n", X, b, X)
        h = np.einsum("ni,ij,nj->n", X, b, Y)
        c = np.einsum("ni,ij,nj->n", Y, b, Y)
        disc = h * h - a * c
        _, kinds = pj.projective_distance_batch(space, X, Y)
        assert np.all((kinds == "hyperbolic") == (disc > 1e-12 * np.maximum(1, np.abs(disc))))


def test_anti_isometry_distances_agree():
    rng = np.random.default_rng(6)
    plus = pj.ModelSpace("plus", forms.bpq(2, 1), +1)
    minus = pj.ModelSpace("minus", forms.BilinearForm(-forms.bpq(2, 1).matrix), -1)
    X = plus.random_points(rng, 300)
    Y = plus.random_points(rng, 300)
    d1, _ = pj.projective_distance_batch(plus, X, Y)
    d2, _ = pj.projective_distance_batch(minus, X, Y)
    assert np.max(np.abs(d1 - d2)) < 1e-10


def test_json_records_round_trip():
    p = pj.ProjPoint([0.3, -0.4, 1.0])
    assert pj.ProjPoint.from_dict(p.to_dict()) == p
    line = pj.ProjLine([1, 0, 0], [0, 1, 1])
    again = pj.ProjLine.from_dict(line.to_dict())
    assert np.max(np.abs(again.span - line.span)) < 1e-14


def test_pseudo_distance_lift_cases():
    ell2 = pj.model_space("Ell2")
    # quarter turn on a circle geodesic
    assert pj.pseudo_distance_lift(ell2, [1, 0, 0], [0, 1, 0]) == pytest.approx(np.pi / 2)
    hyp2 = pj.model_space("Hyp2")
    x, y = np.array([0, 0, 1.0]), np.array([0, np.sinh(2), np.cosh(2)])
    assert pj.pseudo_distance_lift(hyp2, x, y) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        pj.pseudo_distance_lift(hyp2, x, -y)  # opposite sheet


def test_quadrature_agrees_with_inversion():
    rng = np.random.default_rng(7)
    for name in ("Ell2", "Hyp2", "dS2"):
        space = pj.model_space(name)
        X = space.random_points(rng, 20)
        Y = space.random_points(rng, 20)
        for x, y in zip(X, Y):
            c = float(space.form(x, y))
            if name == "Hyp2" and c > 0:
                y, c = -y, -c
            if name == "dS2":
                # keep circle-type pairs and same-branch hyperbola pairs
                if abs(c) < 1.0 and forms.restrict(space.form, np.array([x, y])).signature == (1, 1, 0):
                    continue
                if c < -1.0:
                    y = -y
            d1 = pj.pseudo_distance_lift(space, x, y)
            d2 = pj.pseudo_distance_quadrature(space, x, y)
            assert abs(d1 - d2) < 1e-8


def _one_by_one_sampler(space, rng, count):
    pts = []
    while len(pts) < count:
        v = rng.standard_normal(space.dim)
        q = float(space.form(v, v))
        if space.sign * q > 1e-6 * float(np.dot(v, v)):
            pts.append(v / np.sqrt(abs(q)))
    return np.array(pts)


@pytest.mark.parametrize("name", ["Ell2", "Hyp2", "dS2", "AdS3"])
@pytest.mark.parametrize("seed", [0, 16])
@pytest.mark.parametrize("count", [1, 500])
def test_random_points_match_one_by_one_sampler(name, seed, count):
    # the block sampler must return the same bytes and leave the
    # generator in the same state as drawing one candidate at a time
    space = pj.model_space(name)
    rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = _one_by_one_sampler(space, rng_ref, count)
    got = space.random_points(rng, count)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("name", ["Ell2", "Hyp2"])
@pytest.mark.parametrize("d", [1e-5, 5e-5])
def test_short_lift_distances_match_the_quadrature(name, d):
    # _gram's line type keeps these short pairs elliptic or hyperbolic
    space = pj.model_space(name)
    x = np.array([0.0, 0.0, 1.0])
    y = np.array([np.sin(d), 0.0, np.cos(d)]) if name == "Ell2" \
        else np.array([np.sinh(d), 0.0, np.cosh(d)])
    lift = pj.pseudo_distance_lift(space, x, y)
    assert lift == pytest.approx(pj.pseudo_distance_quadrature(space, x, y), rel=1e-5)
    assert lift == pytest.approx(d, rel=1e-5)


def test_pseudo_distance_lift_raises_and_parabolic_zero():
    ell2, hyp2, ds2 = (pj.model_space(n) for n in ("Ell2", "Hyp2", "dS2"))
    x = np.array([0.6, 0.0, 0.8])
    assert pj.pseudo_distance_lift(ell2, x, x) == 0.0
    with pytest.raises(ValueError, match="antipodal"):
        pj.pseudo_distance_lift(ell2, x, -x)
    with pytest.raises(ValueError, match="pseudo-sphere"):
        pj.pseudo_distance_lift(ell2, x, 2 * x)
    with pytest.raises(ValueError, match="branches"):
        pj.pseudo_distance_lift(ds2, [1.0, 0, 0], [-np.cosh(1), 0, np.sinh(1)])
    # a light-like line of dS2: x + s n with n null and b(x, n) = 0
    assert pj.pseudo_distance_lift(ds2, [1.0, 0, 0], [1.0, 0.5, 0.5]) == 0.0
    assert pj.pseudo_distance_lift(hyp2, [0, 0, 1.0], [0, 0, 1.0]) == 0.0


@pytest.mark.parametrize("rep, expected", [([1e155, 0, 1], [1.0, 0, 1e-155]),
                                           ([1e-300, 0, 1e-300], [np.sqrt(0.5), 0, np.sqrt(0.5)]),
                                           ([-1e308, 1e308, 0], [-np.sqrt(0.5), np.sqrt(0.5), 0])])
def test_representatives_of_extreme_magnitude_normalize(rep, expected):
    assert np.allclose(pj.ProjPoint(rep).rep, expected, rtol=1e-15, atol=0)


@pytest.mark.parametrize("u, v, span", [
    ([1e200, 0, 1], [0, 1, 0], [[1.0, 0, 1e-200], [0, 1.0, 0]]),
    ([1, 0, 0], [0, 1e-13, 0], [[1.0, 0, 0], [0, 1.0, 0]]),
    ([1e-200, 0, 0], [0, 0, 1e-200], [[1.0, 0, 0], [0, 0, 1.0]]),
])
def test_lines_span_generators_of_any_magnitude(u, v, span):
    assert np.allclose(pj.ProjLine(u, v).span, span, rtol=1e-15, atol=0)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_dependent_generators_refused_at_any_magnitude(scale):
    u = np.array([1.0, 0.5, 1.0]) * scale
    with pytest.raises(ValueError, match="dependent"):
        pj.ProjLine(u, 3 * u)
    with pytest.raises(ValueError, match="dependent"):
        pj.ProjLine(u, np.zeros(3))


def _recursive_sampler(space, rng, count, radius=1.2):
    # sample_points as it was: a co-space point from a fresh base space
    p, q, _ = space.form.signature
    pts = np.empty((count, space.dim))
    for i in range(count):
        if space.degenerate:
            sub = pj.ModelSpace("base", forms.BilinearForm(space.form.matrix[:-1, :-1]), space.sign)
            pts[i] = np.append(_recursive_sampler(sub, rng, 1, radius)[0],
                               rng.uniform(-radius, radius))
        elif (space.sign > 0 and q == 0) or (space.sign < 0 and p == 0):
            v = rng.standard_normal(space.dim)
            pts[i] = v / np.sqrt(abs(float(space.form.quad(v))))
        else:
            diag = np.diag(space.form.matrix)
            pos, neg = diag > 0, diag < 0
            rho = rng.uniform(0, radius)
            u = rng.standard_normal(int(pos.sum()))
            u /= np.linalg.norm(u)
            w = rng.standard_normal(int(neg.sum()))
            w /= np.linalg.norm(w)
            v = np.zeros(space.dim)
            if space.sign > 0:
                v[pos], v[neg] = np.cosh(rho) * u, np.sinh(rho) * w
            else:
                v[pos], v[neg] = np.sinh(rho) * u, np.cosh(rho) * w
            pts[i] = v
    return pts


@pytest.mark.parametrize("name", ["Ell2", "Hyp3", "dS2", "AdS3", "Euc3", "coEuc3", "coMin3", "coMin2"])
def test_sample_points_match_the_recursive_sampler(name):
    space = pj.model_space(name)
    rng_ref, rng = np.random.default_rng(3), np.random.default_rng(3)
    expected = _recursive_sampler(space, rng_ref, 7, radius=0.8)
    assert space.sample_points(rng, 7, radius=0.8).tobytes() == expected.tobytes()
    assert rng.bit_generator.state == rng_ref.bit_generator.state


def test_base_forms_and_charts_come_from_the_registry():
    assert pj.base_form("coEuc3") is pj.model_space("Euc3").chart_form
    assert pj.base_form("coMin4") is pj.model_space("Min4").chart_form
    assert (pj.chart_space("S2"), pj.chart_space("H2")) == ("coEuc3", "coMin3")
    with pytest.raises(KeyError):
        pj.chart_space("flat")
