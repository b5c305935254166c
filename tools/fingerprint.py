"""Print one md5 per distance-, duality- and surface-layer kernel output, of its float64 bits.

    PYTHONPATH=src python3 tools/fingerprint.py > fingerprint.txt

Each line is ``<name> <md5>``, the hash taken over the output's bytes viewed
as uint64, so two trees print the same line only if that output is equal
bit for bit (signed zeros and NaN payloads included).  A refactor that
should not move a number cites the plain ``diff`` of the two trees'
outputs, which ``python3 tools/twotree.py fingerprint`` prints.  The
frames of the patches without derivative evaluators and the forward map of
the support recovery are hashed on their own, and so are the polyhedral
duals and double duals of bodies drawn as in acceptance criterion 2, the
grid polars of round and polyhedral support functions, and the bodies cut
out by support samples.  Takes a few seconds.
"""

import hashlib

import numpy as np

from modelspace import duality as du
from modelspace import pogorelov as pg
from modelspace import projective as pj
from modelspace import surfaces as sf
from modelspace.projective import model_space

S2_DOM = ((0.5, np.pi - 0.5), (0.3, 2 * np.pi - 0.3))
H2_DOM = ((0.1, 1.1), (0.3, 2 * np.pi - 0.3))


def umbilic_patch(name, r=0.7):
    """A geodesic sphere of radius r about e_4 (a hyperbolic plane in AdS3),
    with the base chart's exact jet; its shape operator is a multiple of Id."""
    base, a, b = {"Ell3": ("S2", np.sin(r), np.cos(r)), "Hyp3": ("S2", np.sinh(r), np.cosh(r)),
                  "dS3": ("S2", np.cosh(r), np.sinh(r)), "AdS3": ("H2", np.cos(r), np.sin(r))}[name]

    def jet(order):
        def f(U, V):
            x = a * pj.chart_jet(base, U, V, order)[order]
            return np.insert(x, 3, 0.0 if order else b, axis=x.ndim - 1 - order)
        return f

    return sf.SurfacePatch(model_space(name), jet(0), S2_DOM if base == "S2" else H2_DOM,
                           jacobian=jet(1), hessian=jet(2), normal_hint=np.eye(4)[3])


def show(name, *arrays):
    for k, a in enumerate(arrays):
        bits = np.ascontiguousarray(np.asarray(a, dtype=float)).view(np.uint64)
        print(f"{name}[{k}] {hashlib.md5(bits.tobytes()).hexdigest()}")


def duality_layer():
    """Polyhedral duals and double duals, grid polars and bodies cut out by support samples."""
    rng = np.random.default_rng(0)
    octa = 0.4 * np.vstack([np.eye(3), -np.eye(3)])
    for k in range(10):
        verts = rng.standard_normal((rng.integers(8, 24), 3))
        verts *= rng.uniform(0.5, 2.0, (len(verts), 1)) / np.linalg.norm(verts, axis=1, keepdims=True)
        dual = du.EuclideanBody(np.vstack([verts, octa])).dual()
        show(f"EuclideanBody.dual[{k}]", dual.vertices, dual.dual().vertices)
    for k in range(10):
        n_v = rng.integers(4, 12)
        verts = pj.chart_jet("H2", rng.uniform(0, 1.0, n_v), rng.uniform(0, 2 * np.pi, n_v))[0]
        dual = du.MinkowskiBody(verts * rng.uniform(0.8, 2.0, (n_v, 1))).dual()
        again = dual.dual()
        show(f"MinkowskiBody.dual[{k}]", dual.vertices, dual.rays, again.vertices, again.rays)
    cube = du.EuclideanBody([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-0.5, 0.5)])
    future = du.MinkowskiBody([[0.3, 0.1, 1.2], [-0.2, 0.4, 1.5], [0.0, 0.0, 1.0]])
    grid_e, grid_m = du.sphere_grid(32), du.hyperboloid_grid(32)
    for name, sfn in (("ball", du.SupportFunctionE(grid_e, np.full(len(grid_e), 1.7), (32, 32))),
                      ("hyperboloid", du.SupportFunctionMin(grid_m, np.full(len(grid_m), -1.7),
                                                            (32, 32))),
                      ("cube", du.support_from_body(cube, grid=32)),
                      ("future", du.support_from_body(future, grid=32))):
        show(f"dual_support[{name}]", du.dual_support(sfn).values)
    dirs = du.sphere_grid(12)
    h = np.sqrt(np.einsum("ni,ij,nj->n", dirs, np.diag([1.0, 2.0, 1.5]), dirs))
    circle, rapidity = du.circle_grid(16), du.rapidity_grid(16)
    for name, sfn in (("ellipsoid", du.SupportFunctionE(dirs, h, (12, 12))),
                      ("cube", du.support_from_body(cube, grid=12)),
                      ("disc", du.SupportFunctionE(circle, 1.0 + 0.1 * circle[:, 0], (16,))),
                      ("hyperboloid", du.SupportFunctionMin(grid_m, np.full(len(grid_m), -2.0),
                                                            (32, 32))),
                      ("future", du.support_from_body(future, grid=12)),
                      ("hyperbola", du.SupportFunctionMin(rapidity, -1.0 - 0.1 * rapidity[:, 0],
                                                          (16,)))):
        body = du.body_from_support(sfn)
        show(f"body_from_support[{name}]", body.vertices, *([body.rays] if sfn.sign < 0 else []))


def main():
    duality_layer()
    rng = np.random.default_rng(0)
    for name in ("Ell2", "Hyp2", "dS2", "AdS3"):
        space = model_space(name)
        X, Y = space.random_points(rng, 10_000), space.random_points(rng, 10_000)
        show(f"gram[{name}]", *pj._gram(space.form, X, Y)[:3])
        show(f"closed_form_distance[{name}]", pj.closed_form_distance(space, X, Y))
        show(f"projective_distance_batch[{name}]", pj.projective_distance_batch(space, X, Y)[0])
    coe, com, euc = (model_space(n) for n in ("coEuc3", "coMin3", "Euc3"))
    f = lambda U, V: 1.0 + 0.05 * np.sin(2 * U) * np.cos(V)
    df = lambda U, V: np.stack([0.1 * np.cos(2 * U) * np.cos(V),
                                -0.05 * np.sin(2 * U) * np.sin(V)], axis=-1)
    d2f = lambda U, V: np.stack([np.stack([-0.2 * np.sin(2 * U) * np.cos(V),
                                           -0.1 * np.cos(2 * U) * np.sin(V)], axis=-1),
                                 np.stack([-0.1 * np.cos(2 * U) * np.sin(V),
                                           -0.05 * np.sin(2 * U) * np.cos(V)], axis=-1)], axis=-1)
    ufn = lambda x: 1.0 + 0.1 * x[..., 0] + 0.05 * np.sin(2 * x[..., 0]) * np.cos(x[..., 1])
    patches = {
        "sphere": sf.sphere_patch(radius=1.5), "hyperboloid": sf.hyperboloid_patch(),
        "paraboloid": sf.graph_patch(euc, lambda U, V: (U**2 + V**2) / 2, ((-0.5, 0.5),) * 2),
        "co_exact": sf.graph_patch(coe, f, S2_DOM, df=df, d2f=d2f),
        "co_fd": sf.graph_patch(coe, f, S2_DOM),
        "comin_fd": sf.graph_patch(com, lambda U, V: -1.0 - 0.05 * np.sin(V) * U, H2_DOM),
        **{f"umbilic_{n}": umbilic_patch(n) for n in ("Ell3", "Hyp3", "dS3", "AdS3")},
    }
    for name in ("co_fd", "comin_fd", "paraboloid"):
        U, V, _, _ = patches[name].grid(33)
        show(f"frames[{name}]", *patches[name].frames(U, V))
    for name, patch in patches.items():
        for m in (33, 257):
            d = sf.embedding_data(patch, m=m)
            show(f"embedding_data[{name},{m}]", d.I, d.II, d.B, d.III)
        show(f"gauss_codazzi_residual[{name}]", sf.gauss_codazzi_residual(d))
        show(f"gauss_codazzi_residual_refined[{name}]", sf.gauss_codazzi_residual_refined(
            lambda m, p=patch: sf.embedding_data(p, m=m), m=33))
    for base, dom in (("S2", S2_DOM), ("H2", H2_DOM)):
        show(f"shape_from_support[{base}]", *sf.shape_from_support(ufn, base=base, domain=dom, m=64))
        show(f"shape_from_support_default[{base}]", *sf.shape_from_support(ufn, base=base, m=17))
    Ug, Vg = np.meshgrid(np.linspace(*S2_DOM[0], 33), np.linspace(*S2_DOM[1], 33), indexing="ij")
    B, I = sf.shape_from_support(ufn, base="S2", domain=S2_DOM, m=33)
    du_, dv_ = Ug[1, 0] - Ug[0, 0], Vg[0, 1] - Vg[0, 0]
    u = sf.recover_support_from_shape(B, I, du_, dv_, sf.sphere_chart(Ug, Vg))
    show("recover_support_from_shape", u)
    show("apply_shape_operator", sf.apply_shape_operator(u, I, du_, dv_))
    show("sphere_grid", du.sphere_grid(64), du.sphere_grid(7))
    show("hyperboloid_grid", du.hyperboloid_grid(64), du.hyperboloid_grid(7, radius=1.3))
    for src, height in (("Ell3", lambda t, m_, U, V: t * ufn(m_) + 0.3 * t * t),
                        ("Hyp3", lambda t, m_, U, V: t * (-1.0 + 0.05 * m_[..., 0]))):
        out = sf.surface_transition(sf.transition_surface_family(src, height), src, m=17)
        show(f"surface_transition[{src}]", out["limit"].I, out["limit"].B, out["co_data"].B,
             out["rate_errors"])
    s = pg.sphere_surface_samples()
    show("sphere_surface_samples", s.points, s.tangents)


if __name__ == "__main__":
    main()
