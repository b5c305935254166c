import numpy as np
import pytest
from scipy.spatial import ConvexHull

from modelspace import duality as du
from modelspace import forms
from modelspace import projective as pj


def test_dual_cone_quadrant():
    cone = du.PolyCone(generators=[[1, 0], [0, 1]])
    dual = cone.dual(forms.bpq(2, 0))
    assert du.same_ray_set(dual.generators, [[-1, 0], [0, -1]])


def test_light_cone_self_dual():
    lc = du.PolyCone(generators=[[1, 1], [-1, 1]])
    dual = lc.dual(forms.bpq(1, 1))
    assert du.same_ray_set(dual.generators, lc.generators)


def test_double_dual_is_identity():
    rng = np.random.default_rng(0)
    b = forms.bpq(3, 0)
    for _ in range(10):
        rays = rng.standard_normal((6, 3)) + np.array([0, 0, 2.0])
        cone = du.PolyCone(generators=rays)
        dd = cone.dual(b).dual(b)
        assert du.same_ray_set(dd.generators, du.cone_facet_normals(cone.halfspaces))


def test_cone_representation_round_trip():
    cone = du.PolyCone(generators=[[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]])
    half = cone.halfspaces
    back = du.PolyCone(halfspaces=half)
    assert du.same_ray_set(back.generators, cone.generators)


def test_cone_errors():
    with pytest.raises(ValueError):
        du.PolyCone(generators=[[1, 0], [-1, 0]]).halfspaces  # contains a line
    with pytest.raises(ValueError):
        du.PolyCone(generators=[[1, 0, 0], [0, 1, 0]]).halfspaces  # not full dim
    with pytest.raises(ValueError):
        du.PolyCone()


def _apex_hull_normals(rays):
    """Facet normals of a cone from the hull of its apex and unit rays:
    the facets through the apex, |c| <= 1e-9."""
    rays = np.asarray(rays, dtype=float)
    rays = rays / np.linalg.norm(rays, axis=1, keepdims=True)
    eqs = ConvexHull(np.vstack([np.zeros(rays.shape[1]), rays])).equations
    return eqs[np.abs(eqs[:, -1]) <= 1e-9, :-1]


def _pointed_cone(rng, d, count):
    axis = rng.standard_normal(d)
    axis /= np.linalg.norm(axis)
    rays = axis + 0.6 * rng.standard_normal((count, d))
    return rays[rays @ axis > 0.2]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_section_route_matches_the_apex_hull(d):
    rng = np.random.default_rng(d)
    for _ in range(10):
        rays = _pointed_cone(rng, d, 30)
        normals = du.cone_facet_normals(rays)
        assert np.max(normals @ (rays / np.linalg.norm(rays, axis=1, keepdims=True)).T) < 1e-12
        assert du.same_ray_set(normals, _apex_hull_normals(rays))


@pytest.mark.parametrize("d", [3, 4])
def test_section_route_when_the_generator_sum_is_not_interior(d):
    # ten rays within ~1 degree of an axis and one 170 degrees from it
    rng = np.random.default_rng(11)
    axis, away = np.eye(d)[-1], np.eye(d)[0]
    near = axis + 0.01 * rng.standard_normal((10, d))
    far = np.cos(np.radians(170)) * axis + np.sin(np.radians(170)) * away
    rays = np.vstack([near, far])
    g = rays / np.linalg.norm(rays, axis=1, keepdims=True)
    assert np.min(g @ g.sum(axis=0)) < 0  # so the linear program runs
    e = du._interior_functional(g)
    # the largest margin is ~sin(5 deg) (the bisector of the 170-degree
    # span), up to the box norm's factor of at most sqrt(d)
    assert np.min(g @ e) > np.sin(np.radians(5)) / np.sqrt(d)
    assert du.same_ray_set(du.cone_facet_normals(rays), _apex_hull_normals(rays))


def _lopsided_cone(d, width_deg, seed):
    """A cone width_deg wide around the last axis whose rays are bunched
    on one side: 40 within a 0.3 rad arc and two spread out."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((42, d))
    dirs[:, -1] = 0
    dirs[:40, 0] += 20
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    half = np.radians(width_deg / 2)
    return np.cos(half) * np.eye(d)[-1] + np.sin(half) * dirs


@pytest.mark.parametrize("d, width", [(3, 1.0), (4, 1.0), (4, 0.1)])
def test_nearly_half_space_cone_round_trips(d, width):
    # the facet normals of a narrow lopsided cone generate a cone close to
    # a half-space whose generator sum is far from interior; its largest
    # margin is about sin(width / 2) or less
    normals = du.cone_facet_normals(_lopsided_cone(d, width, seed=d))
    g = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    assert np.min(g @ g.sum(axis=0)) < 0
    margin = np.min(g @ du._interior_functional(g))
    assert 0 < margin < np.sin(np.radians(width / 2))
    back = du.PolyCone(halfspaces=normals).generators
    assert du.same_ray_set(back, _apex_hull_normals(normals))
    assert du.same_ray_set(du.PolyCone(generators=back).halfspaces, normals)


def test_small_margin_cone_matches_the_apex_hull():
    # rays 1e-3 above the plane x2 = 0 at angles 0..350 degrees: pointed,
    # and no functional has a margin much above 1e-3
    ang = np.radians(np.arange(0, 351, 10))
    rays = np.c_[np.cos(ang), np.sin(ang), np.full_like(ang, 1e-3)]
    g = rays / np.linalg.norm(rays, axis=1, keepdims=True)
    assert 0 < np.min(g @ du._interior_functional(g)) < 2e-3
    assert du.same_ray_set(du.cone_facet_normals(rays), _apex_hull_normals(rays))


def test_a_line_is_not_pointed_whatever_the_generator_sum():
    # the sum (0, 1, 0) is nonzero, but no functional is positive on +-x
    with pytest.raises(ValueError, match="not pointed"):
        du.cone_facet_normals([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 1, 1]])


def test_near_parallel_facet_normals_are_kept():
    # pushing the fifth generator 3e-6 past the face through the first two
    # splits it into two facets whose normals are ~1e-5 rad apart
    gens = [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1], [0.5 + 3e-6, 0.5 + 3e-6, 1]]
    normals = du.cone_facet_normals(gens)
    assert len(normals) == 5
    assert np.max(normals @ np.array(gens).T) < 1e-12
    gram = normals @ normals.T
    np.fill_diagonal(gram, -1.0)
    assert 5e-6 < np.arccos(np.max(gram)) < 2e-5
    assert du.same_ray_set(normals, _apex_hull_normals(gens))


def test_coplanar_triangles_collapse_to_one_normal():
    # Qhull triangulates each square face of the cone over the cube
    cube = [[sx, sy, sz, 1] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    normals = du.cone_facet_normals(cube)
    expected = np.hstack([np.vstack([np.eye(3), -np.eye(3)]), -np.ones((6, 1))])
    assert len(normals) == 6
    assert du.same_ray_set(normals, expected)


def test_same_ray_set_separates_nearby_rays():
    rays = np.array([[1.0, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]])
    assert du.same_ray_set(2.0 * rays[::-1], rays)
    c, s = np.cos(1e-5), np.sin(1e-5)
    turned = rays.copy()
    turned[0] = [c * rays[0, 0] - s * rays[0, 1], s * rays[0, 0] + c * rays[0, 1], 1.0]
    assert not du.same_ray_set(turned, rays)


def test_duality_criterion_passes_at_seed_16():
    # seed 16 draws polytopes with facet normals ~1e-5 rad apart
    from modelspace import acceptance
    assert acceptance.criterion_2_duality_round_trips(seed=16)["passed"]


def test_euclidean_cube_cross_polytope():
    cube = du.EuclideanBody(
        [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    )
    dirs = du.sphere_grid(8)
    assert np.max(np.abs(cube.support(dirs) - np.abs(dirs).sum(axis=1))) < 1e-12
    dual = cube.dual()
    expected = np.vstack([np.eye(3), -np.eye(3)])
    assert du.same_ray_set(
        dual.vertices / np.linalg.norm(dual.vertices, axis=1, keepdims=True),
        expected,
    )
    assert np.max(np.abs(np.linalg.norm(dual.vertices, axis=1) - 1.0)) < 1e-12
    # double dual
    dd = dual.dual()
    assert np.max(np.abs(dd.support(dirs) - cube.support(dirs))) < 1e-12


def test_unchecked_body_dualizes_like_a_checked_one():
    rng = np.random.default_rng(9)
    V = np.vstack([rng.standard_normal((25, 3)), 0.4 * np.vstack([np.eye(3), -np.eye(3)])])
    checked, unchecked = du.EuclideanBody(V), du.EuclideanBody(V, check=False)
    assert len(unchecked.vertices) > len(checked.vertices)  # interior points kept
    assert np.array_equal(unchecked.dual().vertices, checked.dual().vertices)
    # the polar vertices are -n / c of the cone's facets (n, c)
    cone = _apex_hull_normals(np.hstack([V, np.ones((len(V), 1))]))
    polar = -cone[:, :-1] / cone[:, -1:]
    lift = lambda P: np.hstack([P, np.ones((len(P), 1))])
    assert du.same_ray_set(lift(checked.dual().vertices), lift(polar))
    with pytest.raises(ValueError, match="not full-dimensional"):
        du.EuclideanBody([[1, 0, 0], [0, 1, 0], [-1, -1, 0]], check=False).dual()


def test_euclidean_admissibility():
    with pytest.raises(ValueError):
        du.EuclideanBody([[1, 0, 0], [2, 0, 0], [1, 1, 0], [1, 0, 1]])


def test_minkowski_body_and_dual():
    verts = np.array([[0.3, 0.1, 1.2], [-0.2, 0.4, 1.5], [0.0, 0.0, 1.0]])
    body = du.MinkowskiBody(verts)
    dirs = du.hyperboloid_grid(16)
    h = body.support(dirs)
    assert np.all(h < 0)
    dd = body.dual().dual()
    assert np.max(np.abs(dd.support(dirs) - h)) < 1e-10
    with pytest.raises(ValueError):
        du.MinkowskiBody([[1.0, 0.0, 0.5]])  # spacelike vertex


def test_minkowski_support_is_inf_off_the_dual_recession_cone():
    # the dual of a body with timelike recession rays has spacelike ones:
    # b(r, v) > 0 for one of them makes b(., v) unbounded on the dual, and
    # the other directions keep the vertex maximum
    rays = np.array([[0, 0, 1], [0.6, 0, 1], [-0.6, 0, 1], [0, 0.6, 1], [0, -0.6, 1]])
    dual = du.MinkowskiBody([[0.3, 0.1, 1.2], [-0.2, 0.4, 1.5], [0.0, 0.0, 1.0]], rays=rays).dual()
    dirs = du.hyperboloid_grid(16)
    b = forms.bpq(2, 1)
    unbounded = np.any(b(dual.rays[:, None, :], dirs[None, :, :]) > 1e-9, axis=0)
    assert 0 < unbounded.sum() < len(dirs)
    h = dual.support(dirs)
    assert np.all(np.isposinf(h[unbounded]))
    assert np.max(np.abs(h[~unbounded] - np.max(b(dual.vertices[:, None, :], dirs[~unbounded]),
                                                 axis=0))) < 1e-12
    assert np.array_equal(dual.support(dirs[unbounded][0]), [np.inf])


def test_minkowski_round_trip_in_min4():
    # the default recession rays live in Min^4 too: 64 lightlike directions
    rng = np.random.default_rng(4)
    v = 0.5 * rng.standard_normal((10, 3))
    verts = np.hstack([v, np.sqrt(1 + np.sum(v**2, axis=1, keepdims=True))])
    body = du.MinkowskiBody(verts * rng.uniform(1.0, 2.0, (10, 1)))
    assert body.rays.shape == (64, 4)
    u = du.sphere_grid(8)
    dirs = np.hstack([0.8 * u, np.full((64, 1), np.sqrt(1.64))])
    h = body.support(dirs)
    assert np.max(np.abs(body.dual().dual().support(dirs) - h)) < 1e-12
    with pytest.raises(ValueError, match="rays have 3 coordinates, vertices have 4"):
        du.MinkowskiBody(verts, rays=du.lightlike_rays(3))


def test_minkowski_dual_admissible():
    # dual vertices are future causal up to the polygonal-recession fringe
    rng = np.random.default_rng(1)
    rho = rng.uniform(0, 1, 6)
    phi = rng.uniform(0, 7, 6)
    verts = np.stack([
        np.sinh(rho) * np.cos(phi),
        np.sinh(rho) * np.sin(phi),
        np.cosh(rho),
    ], axis=1)
    body = du.MinkowskiBody(verts)
    dual = body.dual()
    b21 = forms.bpq(2, 1)
    q = b21.quad(dual.vertices) / np.sum(dual.vertices**2, axis=1)
    assert np.all(dual.vertices[:, 2] > 0)
    assert np.max(q) < 1e-2  # inside F up to the 64-gon fringe
    # and the dual support is negative on strictly future directions
    assert np.all(dual.support(du.hyperboloid_grid(8)) < 0)


def test_order_reversal_and_sum_additivity():
    rng = np.random.default_rng(2)
    v = rng.standard_normal((12, 3))
    v = v / np.linalg.norm(v, axis=1, keepdims=True) * rng.uniform(1, 2, (12, 1))
    a = du.EuclideanBody(v)
    b = du.EuclideanBody(1.5 * v)
    g = du.sphere_grid(8)
    assert np.all(b.dual().support(g) <= a.dual().support(g) + 1e-12)
    s = a.minkowski_sum(b)
    assert np.max(np.abs(s.support(g) - a.support(g) - b.support(g))) < 1e-10
    # the Lorentzian flavor is additive too
    rho = rng.uniform(0, 0.8, 5)
    phi = rng.uniform(0, 7, 5)
    verts = np.stack(
        [np.sinh(rho) * np.cos(phi), np.sinh(rho) * np.sin(phi), np.cosh(rho)], axis=1)
    am = du.MinkowskiBody(verts)
    bm = du.MinkowskiBody(verts * 1.4)
    gm = du.hyperboloid_grid(8)
    sm = am.minkowski_sum(bm)
    assert np.max(np.abs(sm.support(gm) - am.support(gm) - bm.support(gm))) < 1e-10


def test_support_from_body_validation():
    with pytest.raises(ValueError):
        du.support_from_body(du.EuclideanBody([[1.0, 0, 0], [1.1, 0, 0], [1, 1, 0], [1, 0, 1]]))
    sfn = du.support_from_body(du.MinkowskiBody([[0.0, 0.0, 1.0], [0.1, 0.0, 1.1]]), grid=8)
    assert np.all(sfn.values < 0)


@pytest.mark.parametrize("body, cls, grid", [
    (du.EuclideanBody([[1.0, 0], [-1, 1], [-1, -1]]), du.SupportFunctionE, du.circle_grid),
    (du.EuclideanBody(np.vstack([np.eye(3), -np.eye(3)])), du.SupportFunctionE, du.sphere_grid),
    (du.MinkowskiBody([[0.0, 1], [0.3, 1.5]]), du.SupportFunctionMin, du.rapidity_grid),
    (du.MinkowskiBody([[0.0, 0, 1], [0.3, 0, 1.5]]), du.SupportFunctionMin, du.hyperboloid_grid),
])
def test_support_from_body_samples_its_own_class_on_its_grid(body, cls, grid):
    sfn = du.support_from_body(body, grid=8)
    assert type(sfn) is cls
    np.testing.assert_array_equal(sfn.dirs, grid(8))
    np.testing.assert_array_equal(sfn.values, body.support(grid(8)))
    assert sfn.grid_shape == ((8,) if body.n == 2 else (8, 8))


@pytest.mark.parametrize("vertices", [[[0.0, 1], [0.2, 1.3]], [[0.0, 0, 1]]])
def test_minkowski_convexity_on_a_grid_without_triples(vertices):
    sfn = du.support_from_body(du.MinkowskiBody(vertices), grid=2)
    assert sfn.convexity_violation() == 0.0


def test_ball_and_hyperboloid_duals_exact():
    grid = du.sphere_grid(16)
    se = du.SupportFunctionE(grid, np.full(len(grid), 2.0), grid_shape=(16, 16))
    assert np.max(np.abs(du.dual_support(se).values - 0.5)) < 1e-12
    gridm = du.hyperboloid_grid(16)
    sm = du.SupportFunctionMin(gridm, np.full(len(gridm), -2.0), grid_shape=(16, 16))
    assert np.max(np.abs(du.dual_support(sm).values + 0.5)) < 1e-12


def _polar_case(name):
    rng = np.random.default_rng(7)
    if name == "polytope-48":
        return du.support_from_body(du.EuclideanBody(rng.standard_normal((40, 3))), grid=48)
    if name.startswith("ball-"):
        r = float(name.split("-")[1])
        grid = du.sphere_grid(64)
        return du.SupportFunctionE(grid, np.full(len(grid), r), grid_shape=(64, 64))
    if name.startswith("hyperboloid-"):
        r = float(name.split("-")[1])
        grid = du.hyperboloid_grid(64)
        return du.SupportFunctionMin(grid, np.full(len(grid), -r), grid_shape=(64, 64))
    if name == "minkowski-body":
        rho, phi = rng.uniform(0, 1, 8), rng.uniform(0, 2 * np.pi, 8)
        verts = np.stack([np.sinh(rho) * np.cos(phi), np.sinh(rho) * np.sin(phi),
                          np.cosh(rho)], axis=1) * rng.uniform(1, 2, (8, 1))
        return du.support_from_body(du.MinkowskiBody(verts), grid=48)
    if name == "minkowski-flat-polar":
        # one vertex x0: every polar point G v / -b(x0, v) lies on the plane x0 . p = -1
        return du.support_from_body(du.MinkowskiBody([[0.2, -0.1, 1.5]]), grid=48)
    if name == "circle-1024":
        return du.support_from_body(du.EuclideanBody(rng.standard_normal((9, 2))), grid=1024)
    if name == "rapidity-512":
        verts = np.array([[0.0, 1.0], [0.5, 1.4], [-0.3, 1.2]])
        return du.support_from_body(du.MinkowskiBody(verts), grid=512)
    if name == "random-500":
        dirs = rng.standard_normal((500, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return du.support_from_body(du.EuclideanBody(rng.standard_normal((30, 3))), dirs=dirs)
    size = int(name.split("-")[1])
    dirs = du.sphere_grid(2)[:size]
    return du.SupportFunctionE(dirs, rng.uniform(0.5, 2.0, size))


@pytest.mark.parametrize("name", ["polytope-48", "ball-0.5", "ball-1", "ball-3.7",
                                  "hyperboloid-0.5", "hyperboloid-1", "hyperboloid-3.7",
                                  "minkowski-body", "minkowski-flat-polar", "circle-1024",
                                  "rapidity-512", "random-500", "grid-1", "grid-4"])
def test_pruned_polar_matches_all_pairs(name):
    sf = _polar_case(name)
    if isinstance(sf, du.SupportFunctionE):
        right = sf.dirs.T / sf.values
    else:
        right = forms.bpq(sf.n - 1, 1).matrix @ sf.dirs.T / -sf.values
    ref = np.max(sf.dirs @ right, axis=1)
    dual = du.dual_support(sf)
    assert type(dual) is type(sf) and dual.grid_shape == sf.grid_shape
    assert np.max(np.abs(dual.values - ref) / np.abs(ref)) <= 1e-14


def test_dual_support_needs_a_direction():
    with pytest.raises(ValueError, match="at least one direction"):
        du.dual_support(du.SupportFunctionE(np.empty((0, 3)), np.empty(0)))


def test_body_from_support_round_trips():
    dirs = du.sphere_grid(12)
    A = np.diag([1.0, 2.0, 1.5])
    h = np.sqrt(np.einsum("ni,ij,nj->n", dirs, A, dirs))
    sfn = du.SupportFunctionE(dirs, h, grid_shape=(12, 12))
    body = du.body_from_support(sfn)
    again = du.support_from_body(body, dirs=dirs)
    assert np.max(np.abs(again.values - h)) < 1e-10
    gridm = du.hyperboloid_grid(12)
    sm = du.SupportFunctionMin(gridm, np.full(len(gridm), -2.0), grid_shape=(12, 12))
    mb = du.body_from_support(sm)
    back = du.support_from_body(mb, dirs=gridm)
    assert np.max(np.abs(back.values + 2.0)) < 1e-10


def test_body_from_support_gives_back_the_cube():
    # the face normals' halfspaces alone are the cube; the other grid
    # directions cut nothing off
    cube = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]) * [0.5, 1.0, 2.0]
    dirs = np.vstack([np.eye(3), -np.eye(3), du.sphere_grid(8)])
    body = du.body_from_support(du.support_from_body(du.EuclideanBody(cube), dirs=dirs))
    assert len(body.vertices) == 8
    dist = np.linalg.norm(body.vertices[:, None] - cube[None], axis=-1)
    assert np.max(np.min(dist, axis=1)) <= 1e-12


@pytest.mark.parametrize("sf", [
    # all directions in the upper half space: the cut-out set is unbounded
    du.SupportFunctionE(du.sphere_grid(8)[du.sphere_grid(8)[:, 2] > 0.1], np.ones(32)),
    du.SupportFunctionE(np.eye(3), np.ones(3)),
    # two directions in Min^3: no full-dimensional recession cone
    du.SupportFunctionMin(du.hyperboloid_grid(4)[:2], -np.ones(2)),
], ids=["half-sphere", "three-directions", "two-directions-min"])
def test_body_from_support_names_the_samples_when_no_body_is_bounded(sf):
    with pytest.raises(ValueError, match="support samples do not bound"):
        du.body_from_support(sf)


def test_convexity_violation_detects():
    dirs = du.sphere_grid(12)
    good = du.SupportFunctionE(dirs, np.full(len(dirs), 1.0), grid_shape=(12, 12))
    assert good.convexity_violation() <= 1e-12
    bad_vals = 1.0 + 0.5 * np.cos(5 * np.arange(len(dirs)))
    bad = du.SupportFunctionE(dirs, bad_vals, grid_shape=(12, 12))
    assert bad.convexity_violation() > 1e-3


def test_dual_point_round_trip_and_distance():
    ell2 = pj.model_space("Ell2")
    x = pj.ProjPoint([0, 0, 1])
    plane = du.dual_point(ell2, x)
    assert du.dual_hyperplane(ell2, plane) == x
    for vec in plane.basis():
        assert pj.projective_distance(ell2, x, pj.ProjPoint(vec)) == pytest.approx(
            np.pi / 2, abs=1e-10
        )
    hyp3 = pj.model_space("Hyp3")
    with pytest.raises(ValueError):
        du.dual_point(hyp3, pj.ProjPoint([1, 0, 0, 0]))  # not in Hyp3


def test_hyp_plane_ds_point_duality():
    # the normal of a hyperbolic plane is a de Sitter point and vice versa
    hyp3 = pj.model_space("Hyp3")
    ds3 = pj.model_space("dS3")
    x = pj.ProjPoint([0.2, 0.1, 0.0, 1.0])
    plane = du.dual_point(hyp3, x)
    assert not ds3.contains(pj.ProjPoint(plane.normal))  # normal is the Hyp point itself
    # a spacelike direction dualizes to a plane meeting Hyp3
    v = pj.ProjPoint([1.0, 0.2, 0.0, 0.3])
    assert ds3.contains(v)
    plane_v = du.dual_point(ds3, v)
    basis = plane_v.basis()
    sols = [b for b in basis if hyp3.sign * float(hyp3.form.quad(b)) > 0]
    assert sols  # the dual plane meets hyperbolic space


def test_ads_dual_plane_distance():
    ads = pj.model_space("AdS3")
    x = pj.ProjPoint([0, 0, 0, 1.0])
    plane = du.dual_point(ads, x)
    rng = np.random.default_rng(3)
    found = 0
    for _ in range(20):
        v = plane.basis().T @ rng.standard_normal(3)
        if ads.sign * float(ads.form.quad(v)) > 1e-9:
            found += 1
            assert pj.projective_distance(ads, x, pj.ProjPoint(v)) == pytest.approx(
                np.pi / 2, abs=1e-10
            )
    assert found > 0


def test_angle_distance_correspondence():
    # distance between duals of Euclidean planes equals the dihedral angle
    rng = np.random.default_rng(4)
    coe2 = pj.model_space("coEuc2")
    for _ in range(20):
        v1, v2 = rng.standard_normal((2, 2))
        v1 /= np.linalg.norm(v1)
        v2 /= np.linalg.norm(v2)
        h1, h2 = rng.uniform(0.2, 2.0, 2)
        p1 = pj.ProjPoint(np.append(v1, h1))
        p2 = pj.ProjPoint(np.append(v2, h2))
        d = pj.projective_distance(coe2, p1, p2)
        angle = np.arccos(np.clip(abs(float(v1 @ v2)), 0, 1))
        assert d == pytest.approx(angle, abs=1e-9)


def test_truncation_dual():
    apex = du.truncation_dual([0, 0, 1.0], 2.0)
    assert np.allclose(apex, [0, 0, 0.5])
    v = np.array([0.3, -0.1, 1.4])
    apex = du.truncation_dual(v, 1.0)
    assert np.allclose(apex, v / np.sqrt(-forms.bpq(2, 1).quad(v)))
    with pytest.raises(ValueError):
        du.truncation_dual([1.0, 0, 0.5], 1.0)
    with pytest.raises(ValueError):
        du.truncation_dual([0, 0, 1.0], -1.0)


def test_truncation_cone_duality_via_cones():
    # the dual of the future cone with apex p is cut by the plane b(., p) = -1
    p = np.array([0.1, -0.2, 1.1])
    body = du.MinkowskiBody(p[None, :])
    dual = body.dual()
    b21 = forms.bpq(2, 1).matrix
    vals = dual.vertices @ b21 @ p
    assert np.max(np.abs(vals + 1.0)) < 1e-9  # every dual vertex on the plane
    # and double duality recovers the cone
    dd = dual.dual()
    dirs = du.hyperboloid_grid(8)
    assert np.max(np.abs(dd.support(dirs) - body.support(dirs))) < 1e-10


def test_cylinder_maps():
    t = np.linspace(-1, 1, 9)
    hyper = np.stack([np.sinh(t), np.cosh(t)], axis=1)
    image = du.cylinder_map_2d(hyper)
    # the unit hyperbola lands on the unit circle in this chart
    assert np.max(np.abs(np.linalg.norm(image, axis=1) - 1.0)) < 1e-12
    # a hyperbola through the chart origin maps onto a parabola
    s = np.concatenate([np.linspace(-1.2, -0.3, 5), np.linspace(0.3, 1.2, 5)])
    through = np.stack([np.sinh(s), 1 - np.cosh(s)], axis=1)
    img = du.cylinder_map_2d(through)
    assert np.max(np.abs(img[:, 1] - (img[:, 0] ** 2 - 1) / 2)) < 1e-12
    back = du.cylinder_map_2d_inverse(img)
    assert np.max(np.abs(back - through)) < 1e-12
    with pytest.raises(ValueError):
        du.cylinder_map_2d([[1.0, 0.0]])


def test_cylinder_chart_round_trip_and_convexity():
    pts = np.array([[0.3, -0.2, 1.3, 0.7], [0.0, 0.0, 1.0, -0.5]])
    for p in pts:
        p[:3] /= np.sqrt(-(p[0] ** 2 + p[1] ** 2 - p[2] ** 2))
    chart = du.cylinder_to_chart(pts)
    assert np.max(np.abs(du.cylinder_from_chart(chart) - pts)) < 1e-12
    # convexity is preserved: a sampled admissible support stays convex
    rng = np.random.default_rng(5)
    verts = np.stack([
        np.sinh(rng.uniform(0, 0.8, 8)) * np.cos(rng.uniform(0, 7, 8)),
        np.sinh(rng.uniform(0, 0.8, 8)) * np.sin(rng.uniform(0, 7, 8)),
        np.cosh(rng.uniform(0, 0.8, 8)),
    ], axis=1)
    sfn = du.support_from_body(du.MinkowskiBody(verts), grid=16)
    assert sfn.convexity_violation() < 1e-8


@pytest.mark.parametrize("radius", [1e200, 1e-200])
def test_polar_formula_on_round_bodies_of_extreme_size(radius):
    # the pruning bound rescales the polar points v / h(v), which underflow here
    dirs = du.sphere_grid(8)
    se = du.SupportFunctionE(dirs, np.full(len(dirs), radius), grid_shape=(8, 8))
    np.testing.assert_allclose(du.dual_support(se).values, 1 / radius, rtol=1e-12)
    dirs = du.hyperboloid_grid(8)
    sm = du.SupportFunctionMin(dirs, np.full(len(dirs), -radius), grid_shape=(8, 8))
    np.testing.assert_allclose(du.dual_support(sm).values, -1 / radius, rtol=1e-12)
