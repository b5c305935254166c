"""Connections and volume forms on the degenerate co-spaces.

The degenerate metric of co-Euclidean / co-Minkowski space cannot define
a Levi-Civita connection, yet one projection formula through the
position-vector transversal gives the unique symmetric connection that
is compatible with the degenerate metric, preserves space-like planes
and keeps the vertical direction parallel.  Its geodesics are exactly
the lines, and it is the t -> 0 limit of the curved connections.
"""

import numpy as np

from modelspace import connections as cn
from modelspace import transition as tr
from modelspace.projective import model_space

rng = np.random.default_rng(0)

print("== the four characterizing properties, numerically ==")
for name in ("coEuc3", "coMin3"):
    space = model_space(name)
    conn = cn.co_connection(space)
    pts = space.sample_points(rng, 6)
    X = cn.random_tangent_field(space, rng, 0.5)
    Y = cn.random_tangent_field(space, rng, 0.5)
    Z = cn.random_tangent_field(space, rng, 0.5)
    omega = cn.volume_form(space)
    normal = rng.standard_normal(4)
    normal[-1] = 1.0 + abs(normal[-1])
    print(f"  {name}:")
    print(f"    symmetry            {cn.symmetry_residual(conn, X, Y, pts):.2e}")
    print(f"    metric compat       {cn.metric_compatibility_residual(conn, X, Y, Z, pts):.2e}")
    print(f"    plane preservation  {cn.plane_preservation_residual(space, normal, rng):.2e}")
    print(f"    parallel T          {cn.t_parallel_residual(conn, pts):.2e}")
    print(f"    parallel volume     {cn.parallel_volume_residual(conn, omega, Z, [X, Y, Z], pts):.2e}")

print("\n== geodesics are the lines ==")
coe = model_space("coEuc3")
cc = cn.co_connection(coe)
p = np.array([0.3, -0.2, 0.5])
u_vec, v_vec = np.array([1.0, 0, 0, p[0]]), np.array([0, 1.0, 0, p[1]])


def columns(*coords):
    """A curve's points (..., 4) from its coordinates, each a t-array or a constant."""
    return np.stack(np.broadcast_arrays(*coords), axis=-1)


# a curve maps a t-array (...) to points (..., 4): one call covers every sample
curves = {
    "slice great circle": lambda t: columns(np.cos(t), np.sin(t), 0, 0.0),
    "vertical line": lambda t: columns(0.6, 0.8, 0.0, 0.3 + 2 * t),
    "line in a tilted plane": lambda t: cn.project_to_locus(
        coe, np.cos(t)[..., None] * u_vec + np.sin(t)[..., None] * v_vec),
    "latitude circle (NOT a line)": lambda t: columns(
        np.cos(t) * np.cos(0.7), np.sin(t) * np.cos(0.7), np.sin(0.7), 0.0),
}
for label, curve in curves.items():
    print(f"  {label:30s} residual {cn.geodesic_residual(cc, curve):.2e}")

print("\n== the volume form is normalized on space-like frames ==")
omega = cn.volume_form(coe)
x0 = np.array([1.0, 0, 0, 0.2])
print(f"  omega(e2, e3, T) = {omega(x0, [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]):.6f}")
print(f"  omega(e3, e2, T) = {omega(x0, [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]):.6f}")

print("\n== holonomy on the sphere measures the curvature ==")
ell2 = model_space("Ell2")
s = 0.15


def step(x, d):
    d = d - np.dot(d, x) * x
    return np.cos(s) * x + np.sin(s) * d / np.linalg.norm(d)


def geo(a, b):
    ang = np.arccos(np.clip(np.dot(a, b), -1, 1))
    w = b - np.dot(a, b) * a
    w = w / np.linalg.norm(w)
    # a leg maps a t-array (...) to points (..., 3), like every curve
    return lambda t: np.cos(ang * t)[..., None] * a + np.sin(ang * t)[..., None] * w


A = np.array([1.0, 0, 0])
B = step(A, np.array([0, 1.0, 0]))
C = step(B, np.array([0, 0, 1.0]))
D = step(C, -(B - A))
angle = cn.holonomy_angle(ell2, [geo(A, B), geo(B, C), geo(C, D), geo(D, A)], [0, 1.0, 0])
print(f"  rotation after a side-{s} geodesic square: {angle:.6f} "
      f"(area ~ {s*s:.6f}, ratio {angle/s**2:.4f})")

print("\n== the co-connection is the limit of the curved connections ==")


def family(axis):
    c0 = rng.standard_normal(4) * 0.5
    c0[axis] = 0.0
    c1 = rng.standard_normal((4, 4)) * 0.4
    c1[axis, :] = 0.0
    d0 = rng.standard_normal(4) * 0.4
    return lambda t, x: c0 + np.einsum("ij,...j->...i", c1, x) + t * d0


for src_name, co_name in [("Ell3", "coEuc3"), ("dS3", "coEuc3"),
                          ("Hyp3", "coMin3"), ("AdS3", "coMin3")]:
    src, cosp = model_space(src_name), model_space(co_name)
    fam = tr.transition_family(src_name, "plane")
    xi = cosp.sample_points(rng, 1, radius=0.8)[0]
    cgap = cn.connection_transition_check(src, cosp, fam, family(fam.axis), family(fam.axis), xi)
    vgap = cn.volume_transition_check(src, cosp, fam, [family(fam.axis) for _ in range(3)], xi)
    print(f"  {src_name} -> {co_name}: connection gap {cgap:.2e}, volume gap {vgap:.2e}")
