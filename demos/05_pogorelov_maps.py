"""Infinitesimal Pogorelov maps between projective-chart metrics.

The Klein chart of hyperbolic space and the flat Euclidean metric share
their unparametrized geodesics (straight chords), and likewise the
anti-de Sitter chart and the Minkowski metric.  The comparison operator
L and the volume ratio lambda combine into the map
P(K) = lambda^{2/(n+1)} L(K), which sends Killing fields of one metric
to Killing fields of the other, and isometric deformations of surfaces
to isometric deformations: the projective nature of infinitesimal
rigidity.
"""

import numpy as np

from modelspace import pogorelov as pg

rng = np.random.default_rng(0)
hyp, euc = pg.chart_pair("Hyp3")
ads, mink = pg.chart_pair("AdS3")

print("== the chart metric and the operator L ==")
x = np.array([0.5, 0.0, 0.0])
print(f"  at x = {x.tolist()}: rho^2 = {hyp.rho(x)**2:.6f}")
print(f"  radial norm ratio g(e1,e1) = {hyp(x, [1, 0, 0], [1, 0, 0]):.6f}  (rho^4 = {hyp.rho(x)**4:.6f})")
print(f"  lateral norm ratio g(e2,e2) = {hyp(x, [0, 1, 0], [0, 1, 0]):.6f}  (rho^2)")
L = pg.operator_l(hyp, euc, x)
print(f"  L eigenvalues: {np.sort(np.linalg.eigvalsh(L)).tolist()}")
print(f"  det L = {np.linalg.det(L):.6f} = rho^8 = {hyp.rho(x)**8:.6f}")

print("\n== lambda from rho powers and from volume densities ==")
cloud = pg.halton_cloud(16)
gap = max(abs(pg.lambda_closed_form(hyp, euc, p) - pg.lambda_from_volumes(hyp, euc, p))
          for p in cloud)
print(f"  max disagreement over a Halton cloud: {gap:.2e}")

print("\n== Killing fields transport to Killing fields ==")
for pair_name, (src, dst) in [("hyp-euc", (hyp, euc)), ("ads-min", (ads, mink))]:
    gen = pg.random_killing_generator(src.name, rng)
    K = pg.chart_killing_field(gen)
    PK = pg.infinitesimal_pogorelov(K, src, dst)
    print(f"  {pair_name}: source residual {pg.killing_residual(src, K, cloud):.2e}, "
          f"image residual {pg.killing_residual(dst, PK, cloud):.2e}, "
          f"flat-Killing fit {pg.fit_flat_killing(dst, PK, cloud):.2e}")

print("\n== the Weyl formula relates the two connections ==")
for pair_name, (src, dst) in [("hyp-euc", (hyp, euc)), ("ads-min", (ads, mink))]:
    worst_w = max(pg.weyl_gap(dst, src, p, rng.standard_normal(3), rng.standard_normal(3))
                  for p in cloud[:8])
    worst_c = max(pg.contraction_gap(dst, src, p) for p in cloud[:8])
    print(f"  {pair_name}: Weyl gap {worst_w:.2e}, contraction identity gap {worst_c:.2e}")

print("\n== norm dictionary: lateral fields shrink by rho, radial stay ==")
p = np.array([0.3, -0.2, 0.4])
rho = hyp.rho(p)
lat = np.cross(p, [0.0, 0.0, 1.0])
rad = p / np.linalg.norm(p)
for label, vec in [("lateral", lat), ("radial", rad)]:
    P = pg.infinitesimal_pogorelov(lambda q, v=vec: v, hyp, euc)
    n_src = np.sqrt(hyp(p, vec, vec))
    n_dst = np.sqrt(euc(p, P(p), P(p)))
    print(f"  {label:7s}: |K|_hyp = {n_src:.6f}, |P(K)|_euc = {n_dst:.6f}, "
          f"ratio {n_dst/n_src:.6f} (1/rho = {1/rho:.6f})")

print("\n== rigidity transport on a surface ==")
surf = pg.sphere_surface_samples()
gen = pg.random_killing_generator("Hyp3", rng)
Z = pg.chart_killing_field(gen)
PZ, res = pg.rigidity_transport(Z, hyp, euc, surf)
print(f"  Killing restriction: source deformation residual "
      f"{pg.deformation_residual(hyp, Z, surf):.2e}")
print(f"  transported residual {res:.2e}, "
      f"triviality fit {pg.fit_flat_killing(euc, PZ, surf.points[::4]):.2e}")
try:
    pg.rigidity_transport(lambda q: q**2 * [1.0, 0.0, 0.0], hyp, euc, surf)
except ValueError as exc:
    print(f"  a non-isometric field is rejected: {exc}")
