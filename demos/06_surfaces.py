"""Surfaces: embedding data, Gauss-Codazzi, duality and transition.

A space-like surface carries (I, II, B, III); the Gauss equation ties
the intrinsic curvature of I to det B with a sign and offset depending
on the ambient space, while the Codazzi equation makes B an integrable
shape operator.  In the degenerate co-spaces the graphs of support
functions play that role: B = Hess u + u Id over the sphere and
B = Hess u - u Id over the hyperbolic plane.
"""

import numpy as np

from modelspace import surfaces as sf
from modelspace.projective import model_space

S2_DOM = ((0.5, np.pi - 0.5), (0.3, 2 * np.pi - 0.3))

print("== canonical surfaces ==")
sphere = sf.embedding_data(sf.sphere_patch(), m=17)
print(f"  unit sphere in E3: |B - Id| = {np.max(np.abs(sphere.B - np.eye(2))):.2e}, "
      f"K_ext = {sphere.det_B[0, 0]:.6f}")
hyper = sf.embedding_data(sf.hyperboloid_patch(), m=17)
print(f"  unit hyperboloid in Min3: |B - Id| = {np.max(np.abs(hyper.B - np.eye(2))):.2e}")

print("\n== Gauss-Codazzi across the ambient spaces ==")
for label, build in [
    ("sphere in E3 (K = det B)", lambda m: sf.embedding_data(sf.sphere_patch(), m=m)),
    ("hyperboloid in Min3 (K = -det B)", lambda m: sf.embedding_data(sf.hyperboloid_patch(), m=m)),
]:
    g, c = sf.gauss_codazzi_residual_refined(build, m=17)
    print(f"  {label:35s} gauss {g:.2e}, codazzi {c:.2e}")

coe = model_space("coEuc3")
rng = np.random.default_rng(0)
a = rng.standard_normal(3) * 0.1
ufn = lambda x: 1.0 + x @ a + 0.1 * np.sin(2 * x[..., 0]) * np.cos(x[..., 1])
patch = sf.graph_patch(coe, lambda U, V: ufn(sf.sphere_chart(U, V)), S2_DOM)
g, c = sf.gauss_codazzi_residual_refined(lambda m: sf.embedding_data_co(patch, m=m), m=17)
print(f"  {'random support graph in *E3 (K = 1)':35s} gauss {g:.2e}, codazzi {c:.2e}")

print("\n== support functions are shape operators ==")
data = sf.embedding_data_co(patch, m=24)
B_sup, _ = sf.shape_from_support(ufn, base="S2", domain=S2_DOM, m=24)
print(f"  Hess u + u Id vs the connection route: sup gap "
      f"{np.max(np.abs(B_sup - data.B)):.2e}")
B_id, _ = sf.shape_from_support(lambda x: 1.0 + 0.3 * (x @ np.array([0.3, -0.2, 0.5])),
                                base="S2", domain=S2_DOM, m=9)
print(f"  u = 1 + eps<x,p> has B = Id (linear part annihilated): "
      f"{np.max(np.abs(B_id - np.eye(2))):.2e}")

print("\n== recovering the support function from the shape operator ==")
m = 33
Ug, Vg = np.meshgrid(np.linspace(*S2_DOM[0], m), np.linspace(*S2_DOM[1], m), indexing="ij")
pts = sf.sphere_chart(Ug, Vg)
du_ = (S2_DOM[0][1] - S2_DOM[0][0]) / (m - 1)
dv_ = (S2_DOM[1][1] - S2_DOM[1][0]) / (m - 1)
B, I = sf.shape_from_support(ufn, base="S2", domain=S2_DOM, m=m)
u_rec = sf.recover_support_from_shape(B, I, du_, dv_, pts)
diff = (u_rec - ufn(pts)).reshape(-1)
A = pts.reshape(-1, 3)
coef, *_ = np.linalg.lstsq(A, diff, rcond=None)
print(f"  recovered u matches modulo the linear gauge kernel: "
      f"{np.max(np.abs(diff - A @ coef)):.2e}")

print("\n== duality exchanges (I, B) and (III, B^-1) ==")
r2 = sf.embedding_data(sf.sphere_patch(radius=2.0), m=17)
dual = sf.dual_embedding_data(r2)
print(f"  sphere of radius 2: B = {r2.B[0, 0, 0, 0]:.3f} Id, dual B' = {dual.B[0, 0, 0, 0]:.3f} Id")
back = sf.dual_embedding_data(dual)
print(f"  involution defect: {np.max(np.abs(back.B - r2.B)):.2e}")
g, c = sf.gauss_codazzi_residual_refined(
    lambda mm: sf.dual_embedding_data(sf.embedding_data_co(patch, m=mm)), m=17)
print(f"  dual of the *E3 graph satisfies the E3 equations: gauss {g:.2e}, codazzi {c:.2e}")

print("\n== degenerating surfaces: data at first order ==")
w = rng.standard_normal(3) * 0.05


def fam_ell(t, U, V):
    # t is a scalar or a t-array (T, 1, 1): the chart points broadcast
    # against the height, giving (T, m, m, 4)
    m_ = sf.sphere_chart(U, V)
    h = t * ufn(m_) + t * t * (0.3 + m_ @ w)
    vec = np.concatenate([np.broadcast_to(m_, h.shape + (3,)), h[..., None]], axis=-1)
    return vec / np.sqrt(1 + h**2)[..., None]


out = sf.surface_transition(fam_ell, "Ell3", m=13)
print(f"  graphs x4 = t u in Ell3 -> *E3: gaps "
      + ", ".join(f"{k} {v:.1e}" for k, v in out["gaps"].items()))
print(f"  II_t/t converges linearly in t: fit R^2 = {out['rate_r2']:.4f}")
