import zlib

import numpy as np
import pytest

from modelspace import forms
from modelspace import projective as pj
from modelspace import transition as tr
from modelspace._numerics import DEFAULT_SCHEDULE, central_difference, richardson


def test_family_invariants():
    fam = tr.RescalingFamily("point", 4)
    assert np.allclose(fam.matrix(1.0), np.eye(4))
    for t in (0.5, 0.1, 0.01):
        assert np.allclose(fam.matrix(t) @ fam.inverse(t), np.eye(4))
    fam2 = tr.RescalingFamily("plane", 3)
    assert np.allclose(fam2.matrix(0.25), np.diag([1.0, 1.0, 4.0]))


def test_one_d_toy_model():
    for a in (-2.0, 0.5, 3.0):
        for kind in ("rotation", "boost"):
            lim, err = tr.one_d_limit(kind, a)
            assert np.max(np.abs(lim - tr.translation_1d(a))) < 1e-6
    # the conjugated hyperbolic endpoints drift into the parabolic point
    g = tr.scaling_1d(64.0)
    endpoint = g @ np.array([1.0, 1.0])
    assert abs(endpoint[1] / endpoint[0]) < 0.02


def test_rescaled_point_limit_examples():
    fam = tr.RescalingFamily("point", 3)
    a = 0.7
    path = tr.PointPath(lambda t: np.stack([np.sin(a * t), np.zeros_like(t), np.cos(a * t)], -1))
    limit = tr.rescaled_point_limit(path, fam)
    assert limit == pj.ProjPoint([a, 0.0, 1.0])
    # constant path at the fixed point: the affine origin of the chart
    const = tr.PointPath(lambda t: np.broadcast_to([0.0, 0.0, 1.0], np.shape(t) + (3,)))
    assert tr.rescaled_point_limit(const, fam) == pj.ProjPoint([0, 0, 1.0])
    bad = tr.PointPath(lambda t: np.broadcast_to([0.5, 0.0, np.sqrt(0.75)], np.shape(t) + (3,)))
    with pytest.raises(ValueError):
        tr.rescaled_point_limit(bad, fam)


def test_sequence_route_agrees():
    rng = np.random.default_rng(0)
    sp = pj.model_space("Ell3")
    fam = tr.transition_family("Ell3", "point")
    for _ in range(5):
        v = rng.standard_normal(4)
        w = rng.standard_normal(4)

        def x(t):
            t = np.asarray(t)[..., None]
            y = np.array([0.0, 0, 0, 1.0]) + t * v * np.array([1, 1, 1, 0]) + 0.5 * t * t * w
            return y / np.linalg.norm(y, axis=-1, keepdims=True)

        path = tr.PointPath(x)
        lim_a = tr.rescaled_point_limit(path, fam)
        lim_b, err = tr.rescaled_point_limit_sequence(path, fam)
        assert lim_a.same_point(lim_b, tol=1e-7)
        assert err < 1e-6


def test_conjugation_preserves_group_law():
    rng = np.random.default_rng(1)
    sp = pj.model_space("dS3")
    fam = tr.transition_family("dS3", "point")
    h1 = forms.random_isometry(sp.form, rng)
    h2 = forms.random_isometry(sp.form, rng)
    t = 0.125
    lhs = tr.conjugate_isometry(h1 @ h2, fam, t)
    rhs = tr.conjugate_isometry(h1, fam, t) @ tr.conjugate_isometry(h2, fam, t)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("name,kind,group", [
    ("Ell3", "point", "IsomEuc"),
    ("Hyp3", "point", "IsomEuc"),
    ("dS3", "point", "IsomMin"),
    ("AdS3", "point", "IsomMin"),
    ("Ell3", "plane", "IsomCoEuc"),
    ("dS3", "plane", "IsomCoEuc"),
    ("Hyp3", "plane", "IsomCoMin"),
    ("AdS3", "plane", "IsomCoMin"),
])
def test_limit_group_patterns(name, kind, group):
    # the registry's limit space is the one whose group the case names
    target = pj.related(name, f"{kind}_limit")
    assert group == "Isom" + target[0].upper() + target[1:-1]
    rng = np.random.default_rng(zlib.crc32(f"{name}-{kind}".encode()))
    space = pj.model_space(name)
    fam = tr.transition_family(name, kind)
    h = tr.random_isometry_path(space, fam, rng, size=30)
    limits, err = tr.conjugate_limit(h, fam)
    assert limits.shape == (30, 4, 4) and err < 1e-7
    assert np.all(tr.limit_group_membership(limits, target, tol=1e-6))


def _reference_draw(space, fam, rng, scale=0.5):
    """h(0) and the generator drawn one path at a time: the stabilizer's
    generator on the form restricted off the axis, then the path's."""
    keep = [i for i in range(space.dim) if i != fam.axis]
    a = np.zeros((space.dim, space.dim))
    sub = forms.BilinearForm(space.form.matrix[np.ix_(keep, keep)])
    a[np.ix_(keep, keep)] = forms.random_antisymmetric(sub, rng, scale=scale)
    return forms.cayley(a), forms.random_antisymmetric(space.form, rng, scale=scale)


def _reference_limit(h, fam):
    """conjugate_limit one t at a time, conjugating by matrix products."""
    seq = []
    for t in DEFAULT_SCHEDULE:
        m = fam.matrix(t) @ h(t) @ fam.inverse(t)
        scale = m[-1, -1]
        if abs(scale) < 1e-8 * np.max(np.abs(m)):
            scale = m.flat[np.argmax(np.abs(m))]
        m = m / scale
        seq.append(-m if seq and np.sum(m * seq[0]) < 0 else m)
    return richardson(seq, return_error=True)


@pytest.mark.parametrize("name,kind", [("Ell3", "point"), ("Hyp3", "plane"), ("AdS2", "point")])
def test_stacked_paths_match_one_at_a_time(name, kind):
    space = pj.model_space(name)
    fam = tr.transition_family(name, kind)
    rngs = [np.random.default_rng(5) for _ in range(3)]
    stack = tr.random_isometry_path(space, fam, rngs[0], size=6)
    singles = [tr.random_isometry_path(space, fam, rngs[1]) for _ in range(6)]
    reference = [_reference_draw(space, fam, rngs[2]) for _ in range(6)]
    for attr, k in (("h0", 0), ("gen", 1)):
        expected = np.array([ref[k] for ref in reference])
        assert np.array_equal(getattr(stack, attr), expected)
        assert np.array_equal([getattr(p, attr) for p in singles], expected)
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state == rngs[2].bit_generator.state
    ts = np.array([0.5, 0.125])
    assert np.array_equal(stack(ts)[1], stack(0.125))
    assert np.array_equal(stack(ts)[:, 2], singles[2](ts))
    limits, err = tr.conjugate_limit(stack, fam)
    per_path = [tr.conjugate_limit(p, fam) for p in singles]
    assert np.array_equal(limits, [lim for lim, _ in per_path])
    assert np.array_equal(limits, [_reference_limit(p, fam)[0] for p in singles])
    assert err == max(e for _, e in per_path)


def test_membership_of_a_stack_matches_each_matrix():
    rng = np.random.default_rng(6)
    fam = tr.transition_family("Hyp3", "plane")
    limits, _ = tr.conjugate_limit(
        tr.random_isometry_path(pj.model_space("Hyp3"), fam, rng, size=4), fam)
    nan_row = limits[0].copy()
    nan_row[1, 2] = np.nan
    homothety = limits[1] @ np.diag([1.0, 1, 1, 2.5])
    wrong_zero = limits[2].copy()
    wrong_zero[0, 3] = 0.3
    stack = np.concatenate([limits, [nan_row, homothety, wrong_zero]])
    member = tr.limit_group_membership(stack, "coMin3", tol=1e-6)
    assert member.dtype == bool and member.tolist() == [True] * 4 + [False] * 3
    assert member.tolist() == [bool(tr.limit_group_membership(m, "coMin3", tol=1e-6))
                               for m in stack]
    assert np.array_equal(tr.limit_group_membership(stack.reshape(7, 1, 4, 4), "coMin3",
                                                    tol=1e-6), member[:, None])


def test_membership_rejects():
    # a homothety is an isometry of the degenerate form but not of the
    # co-Euclidean geometry
    assert not tr.limit_group_membership(np.diag([1.0, 1, 1, 2.5]), "coEuc3")
    for target in ("Euc3", "Min3", "coEuc3", "coMin3"):
        assert tr.limit_group_membership(np.eye(4), target)
    bad = np.eye(4)
    bad[3, 1] = 0.3
    assert not tr.limit_group_membership(bad, "Euc3")
    assert tr.limit_group_membership(bad, "coEuc3")


def test_anti_isometric_targets_share_limits():
    # the same family degenerates a space and its anti-isometric copy;
    # both limits satisfy the same block pattern
    rng = np.random.default_rng(3)
    ds = pj.model_space("dS3")
    anti = pj.ModelSpace("anti", forms.BilinearForm(-ds.form.matrix), -1)
    fam = tr.transition_family("dS3", "point")
    h = tr.random_isometry_path(anti, fam, rng)  # O(-b) = O(b)
    limit, _ = tr.conjugate_limit(h, fam)
    assert tr.limit_group_membership(limit, "Min3", tol=1e-6)


def test_duality_transition_diagrams():
    rng = np.random.default_rng(4)
    for name, kind in [("Ell3", "point"), ("Ell3", "plane"), ("dS3", "point"),
                       ("Hyp3", "plane")]:
        space = pj.model_space(name)
        fam = tr.transition_family(name, kind)
        for _ in range(10):
            x0 = tr.fixed_locus_point(space, fam, rng)
            v, w = rng.standard_normal((2, 4))

            def x(t, x0=x0, v=v, w=w):
                t = np.asarray(t)[..., None]
                y = x0 + t * v + 0.5 * t * t * w
                return y / np.sqrt(np.abs(space.form.quad(y)))[..., None]

            gap = tr.duality_transition_check(tr.PointPath(x), fam, space.form)
            assert gap < 1e-7


def test_dual_family_structure():
    # the compatible dual family of the point blow-up is the plane blow-up
    fam = tr.transition_family("Ell3", "point")
    gd = tr.dual_family(fam, forms.bpq(4, 0))
    expected = tr.transition_family("Ell3", "plane")
    for t in (0.5, 0.125):
        mask = np.abs(expected.matrix(t)) > 0
        ratio = gd(t)[mask] / expected.matrix(t)[mask]
        assert np.max(np.abs(ratio - ratio[0])) < 1e-12
        assert np.max(np.abs(gd(t)[~mask])) < 1e-12


def _quadratic_paths(space, fam, rng, count):
    """``count`` paths x0 + t v + t^2 w / 2 on the space, x0 on the fixed
    locus, as the (count, d) base points and coefficients."""
    x0 = np.array([tr.fixed_locus_point(space, fam, rng) for _ in range(count)])
    v, w = rng.standard_normal((2, count, space.dim))
    return x0, v, w


def _quadratic_path(space, x0, v, w):
    def x(t):
        t = np.asarray(t).reshape(np.shape(t) + (1,) * x0.ndim)
        y = x0 + t * v + 0.5 * t * t * w
        return y / np.sqrt(np.abs(space.form.quad(y)))[..., None]

    return tr.PointPath(x)


def _reference_duality_gap(x, fam, form):
    """duality_transition_check one t at a time for one scalar path x(t),
    with 1-d norms and dots and the dual family from np.linalg.inv."""
    g = form.matrix
    h = [1e-3 / 2.0 ** k for k in range(4)]
    dx0 = richardson([(x(hk) - x(-hk)) / (2 * hk) for hk in h], ratio=4.0)
    side_a = g @ pj.ProjPoint(fam.assemble_limit(x(0.0), dx0)).rep
    side_a = side_a / np.linalg.norm(side_a)
    seq = []
    for t in DEFAULT_SCHEDULE:
        gd = np.linalg.inv(g) @ np.linalg.inv(fam.matrix(t)).T @ g
        gd = gd / np.min(np.abs(gd[np.abs(gd) > 1e-14 * np.max(np.abs(gd))]))
        w = np.linalg.inv(gd).T @ (g @ x(t))
        w = w / np.linalg.norm(w)
        seq.append(-w if seq and np.dot(w, seq[0]) < 0 else w)
    side_b = richardson(seq)
    return 1.0 - abs(float(np.dot(side_a, side_b / np.linalg.norm(side_b))))


@pytest.mark.parametrize("name,kind", [("Ell3", "point"), ("Ell3", "plane"), ("dS3", "point"),
                                       ("Hyp3", "plane"), ("AdS3", "point")])
def test_stacked_duality_check_matches_single_paths(name, kind):
    space = pj.model_space(name)
    fam = tr.transition_family(name, kind)
    x0, v, w = _quadratic_paths(space, fam, np.random.default_rng(8), 25)
    gaps = tr.duality_transition_check(_quadratic_path(space, x0, v, w), fam, space.form)
    singles = [tr.duality_transition_check(_quadratic_path(space, *row), fam, space.form)
               for row in zip(x0, v, w)]
    reference = [_reference_duality_gap(_quadratic_path(space, *row), fam, space.form)
                 for row in zip(x0, v, w)]
    assert gaps.shape == (25,) and all(type(g) is float for g in singles)
    assert np.array_equal(gaps.view(np.uint64), np.array(singles).view(np.uint64))
    assert np.array_equal(gaps.view(np.uint64), np.array(reference).view(np.uint64))
    assert np.max(gaps) < 1e-7


@pytest.mark.parametrize("name,kind", [("Ell3", "point"), ("Hyp3", "plane"), ("dS3", "point"),
                                       ("AdS2", "plane")])
def test_dual_family_of_a_t_array_matches_each_t(name, kind):
    space = pj.model_space(name)
    fam = tr.transition_family(name, kind)
    gd = tr.dual_family(fam, space.form)
    ts = np.concatenate([DEFAULT_SCHEDULE, [1.0, 0.3]])
    stack = gd(ts)
    assert stack.shape == (len(ts), space.dim, space.dim)
    assert np.array_equal(stack, [gd(t) for t in ts])


def test_one_call_central_difference_matches_per_level_differences():
    calls = []

    def f(t):
        calls.append(np.shape(t))
        t = np.asarray(t)[..., None]
        return np.concatenate([np.sin(2 * t + 0.3), np.exp(t) * np.cos(t), t ** 3], -1)

    h = [1e-3 / 2.0 ** k for k in range(4)]
    reference = richardson([(f(0.2 + hk) - f(0.2 - hk)) / (2 * hk) for hk in h], ratio=4.0)
    calls.clear()
    got = central_difference(f, 0.2)
    assert calls == [(8,)]
    assert np.array_equal(got, reference)
    exact = [2 * np.cos(0.7), np.exp(0.2) * (np.cos(0.2) - np.sin(0.2)), 3 * 0.2 ** 2]
    assert np.max(np.abs(got - exact)) < 1e-10

    # a point stack, one direction and one step per row
    def g(p):
        calls.append(p.shape)
        return np.stack([np.sin(p[..., 0]) * p[..., 1], np.exp(p[..., 2]) + p[..., 0] ** 2], -1)

    x = np.array([[0.3, -0.2, 0.5], [1.1, 0.4, -0.7]])
    v = np.array([[0.6, 0.0, -0.8], [0.0, 1.0, 0.0]])
    step = 1e-3 * (1.0 + np.linalg.norm(x, axis=-1, keepdims=True))
    h = [step / 2.0 ** k for k in range(3)]
    reference = richardson([(g(x + hk * v) - g(x - hk * v)) / (2 * hk) for hk in h], ratio=4.0)
    calls.clear()
    got = central_difference(g, x, v, base_step=step, levels=3)
    assert calls == [(6, 2, 3)]
    assert np.array_equal(got, reference)
    exact = np.stack([np.cos(x[:, 0]) * x[:, 1] * v[:, 0] + np.sin(x[:, 0]) * v[:, 1],
                      np.exp(x[:, 2]) * v[:, 2] + 2 * x[:, 0] * v[:, 0]], -1)
    assert np.max(np.abs(got - exact)) < 1e-10

    # one level is the plain central difference, with no extrapolation
    calls.clear()
    got = central_difference(f, 0.2, base_step=1e-6, levels=1)
    assert calls == [(2,)]
    assert np.array_equal(got, (f(0.2 + 1e-6) - f(0.2 - 1e-6)) / 2e-6)
