"""Geometric transition: degenerate geometries as conjugacy limits.

Stretching the directions transverse to a point (or a hyperplane) by 1/t
and letting t -> 0 turns the curved model spaces into the flat and
co-flat ones, and conjugates their isometry groups into the limit
groups.  The one-dimensional story already shows the mechanism: rotations
and boosts both become parabolic translations.
"""

import numpy as np

from modelspace import transition as tr
from modelspace.projective import ProjPoint, model_space

print("== the one-dimensional toy model ==")
for a in (0.5, 3.0):
    for kind in ("rotation", "boost"):
        ks = 2.0 ** np.arange(2, 7)
        print(f"  {kind} with parameter a/k, a = {a}:")
        for k in ks[-2:]:
            g = tr.scaling_1d(k)
            conj = g @ (tr.rotation_1d(a / k) if kind == "rotation" else tr.boost_1d(a / k)) @ np.linalg.inv(g)
            print(f"    k={int(k):3d}: {np.round(conj, 5).tolist()}")
        lim, err = tr.one_d_limit(kind, a)
        print(f"    extrapolated limit = T_a up to {np.max(np.abs(lim - tr.translation_1d(a))):.1e}")

print("\n== blowing up a point of the sphere gives the Euclidean plane ==")
fam = tr.blow_up_point(3)
a = 0.7
path = tr.PointPath(lambda t: np.stack([np.sin(a * t), np.zeros_like(t), np.cos(a * t)], -1))
print(f"  path leaving (0,0,1) at speed {a}: limit {tr.rescaled_point_limit(path, fam)}")
print(f"  expected chart point {ProjPoint([a, 0, 1.0])}")

print("\n== isometry groups converge to the limit block patterns ==")
rng = np.random.default_rng(0)
for name, kind, target in [
    ("Ell3", "point", "IsomEuc"), ("Hyp3", "point", "IsomEuc"),
    ("dS3", "point", "IsomMin"), ("AdS3", "point", "IsomMin"),
    ("Ell3", "plane", "IsomCoEuc"), ("dS3", "plane", "IsomCoEuc"),
    ("Hyp3", "plane", "IsomCoMin"), ("AdS3", "plane", "IsomCoMin"),
]:
    space = model_space(name)
    family = tr.transition_family(name, kind)
    limits, _ = tr.conjugate_limit(tr.random_isometry_path(space, family, rng, size=40), family)
    hits = int(np.sum(tr.limit_group_membership(limits, target, tol=1e-6)))
    print(f"  {name} --blow-up {kind:5s}--> {target}: {hits}/40 paths in pattern")

print("\n== the transition commutes with duality ==")
for name, kind in [("Ell3", "point"), ("dS3", "point"), ("Hyp3", "plane")]:
    space = model_space(name)
    family = tr.transition_family(name, kind)
    if family.kind == "blow_up_point":
        x0 = np.zeros(4)
        x0[family.axis] = 1.0
    else:
        x0 = None
        while x0 is None:
            y = rng.standard_normal(4)
            y[family.axis] = 0.0
            if space.sign * float(space.form.quad(y)) > 0.1:
                x0 = y / np.sqrt(abs(float(space.form.quad(y))))
    v, w = rng.standard_normal((2, 4))

    def x(t):
        t = np.asarray(t)[..., None]
        y = x0 + t * v + 0.5 * t * t * w
        return y / np.sqrt(np.abs(space.form.quad(y)))[..., None]

    gap = tr.duality_transition_check(tr.PointPath(x), family, space.form)
    print(f"  {name} ({kind}): limit-of-duals vs dual-of-limit gap {gap:.2e}")
