"""Small-size self-check of the benchmark: every workload, every oracle.

    PYTHONPATH=src python3 perfbench/selfcheck.py

Runs each workload once at tiny size (a traced pass for the warm ones,
so every per-layer metric of BENCHMARK.json is produced), then shows each
oracle accepting the program's output and rejecting a known-bad copy of
it, and shows fault 1 failing the fixed criterion-2 draws with only its
exact signature put down to it.  Takes about 20 s on a 2-core box; exits
1 if anything is off.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import inputs
import oracles
import tracer as tr
from workloads import CliCold, KernelsLarge, Acceptance, run_ops

HERE = Path(__file__).resolve().parent
failures = []


def expect(label, got, want=True):
    ok = bool(got[0] if isinstance(got, tuple) else got) == want
    detail = got[1] if isinstance(got, tuple) else ""
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {detail}")
    if not ok:
        failures.append(label)


def workloads():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    produced = set()
    for cls in (Acceptance, KernelsLarge):
        w = cls(1, small=True)
        t = tr.Tracer()
        t.install()
        res = run_ops(w.ops, t)
        t.uninstall()
        produced |= set(tr.per_layer(t.dump()))
        bad = [(r[0], r[3]) for r in res if not r[2]]
        expect(f"{cls.__name__} small pass, {len(res)} operations", (not bad, str(bad)))
    cli = CliCold(1, small=True, workdir=HERE / "out" / "selfcheck-inputs")
    res = run_ops(cli.ops)
    bad = [(r[0], r[3]) for r in res if not r[2]]
    expect(f"CliCold small pass, {len(res)} cold processes", (not bad, str(bad)))
    # run.py adds the import probes and the overhead
    produced |= {"trace.overhead_s", "cli.interpreter_s", "cli.import_modelspace_s",
                 "cli.import_scipy_stats_s", "cli.import_scipy_spatial_s",
                 "cli.import_scipy_linalg_s", "cli.import_numpy_s"}
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in produced]
    expect("every per-layer metric is produced", (not missing, f"missing {missing}"))


def distance_oracle():
    from modelspace import projective as pj

    rng = np.random.default_rng(2)
    for name in inputs.DISTANCE_SPACES:
        X, Y = inputs.space_points(rng, name, 50), inputs.space_points(rng, name, 50)
        d, _ = pj.projective_distance_batch(pj.model_space(name), X, Y)
        diag = inputs.form_diag(name)
        expect(f"50-digit distance accepts {name}", oracles.check_distances(diag, X, Y, d, range(50)))
        bad = d.copy()
        bad[7] += 1e-8
        expect(f"50-digit distance rejects {name} + 1e-8",
               oracles.check_distances(diag, X, Y, bad, range(50)), want=False)
    # a straddling pair on a hyperbolic line: x = (2, 0, 1), y = (0.5, 0, 1)
    # have b(x, x) = 3 > 0 and b(y, y) = -0.75 < 0; |1/2 log r| is complex
    d = oracles.mp_distance([1.0, 1.0, -1.0], [2.0, 0.0, 1.0], [0.5, 0.0, 1.0])
    expect("straddling pair takes the complex-log branch", (float(d) > 0, f"d = {float(d):.6f}"))


def polar_oracles():
    from modelspace import duality as du

    K = inputs.ring_polytope(np.random.default_rng(3), *inputs.RING_SHAPES[1])
    P = du.EuclideanBody(K).dual()
    expect("Qhull -n/c polar accepts the program's polar", oracles.check_polar(K, P.vertices))
    moved = P.vertices.copy()
    moved[5] += 1e-6
    expect("Qhull -n/c polar rejects one vertex moved by 1e-6",
           oracles.check_polar(K, moved), want=False)
    expect("polar is missing no vertex", oracles.check_polar(K, P.vertices[1:]), want=False)
    s = 1.3
    cube_polar = du.EuclideanBody(oracles.cube(s)).dual().vertices
    expect("cube -> octahedron", oracles.same_point_set(cube_polar, oracles.octahedron(1 / s), 1e-9))
    expect("cube -> wrong octahedron rejected",
           oracles.same_point_set(cube_polar, oracles.octahedron(1 / s + 1e-6), 1e-9), want=False)
    g = du.sphere_grid(32)
    h = np.max(K @ g.T, axis=0)
    dd = P.dual().support(g)
    expect("double dual reproduces the support", oracles.check_support_gap(dd, h))
    expect("double dual off by 1e-8 rejected", oracles.check_support_gap(dd + 1e-8, h), want=False)
    sfn = du.SupportFunctionE(g, h, grid_shape=(32, 32))
    vals = du.dual_support(sfn).values
    exact = oracles.hull_polar_vertices(K)
    expect("grid polar is a lower bound", oracles.check_grid_polar(vals, g, exact))
    expect("grid polar above the exact polar rejected",
           oracles.check_grid_polar(1.01 * vals, g, exact), want=False)
    ball = du.SupportFunctionE(g, np.full(len(g), 2.0), grid_shape=(32, 32))
    bv = du.dual_support(ball).values
    expect("ball r -> 1/r", oracles.check_support_gap(bv, np.full(len(g), 0.5)))
    expect("ball r -> 1/r + 1e-8 rejected",
           oracles.check_support_gap(bv, np.full(len(g), 0.5 + 1e-8)), want=False)


def minkowski_oracles():
    from modelspace import duality as du

    gh = du.hyperboloid_grid(32)
    sm = du.SupportFunctionMin(gh, np.full(len(gh), -1.6), grid_shape=(32, 32))
    vals = du.dual_support(sm).values
    expect("hyperboloid r -> 1/r", oracles.check_support_gap(vals, np.full(len(gh), -1 / 1.6)))
    expect("hyperboloid r -> 1/r + 1e-8 rejected",
           oracles.check_support_gap(vals, np.full(len(gh), -1 / 1.6 + 1e-8)), want=False)
    v, r = inputs.truncation_params(np.random.default_rng(5))
    apex = du.truncation_dual(v, r)
    expect("truncation apex v / (r |v|)", oracles.check_truncation_apex(apex, v, r))
    expect("truncation apex moved by 1e-8 rejected",
           oracles.check_truncation_apex(apex + 1e-8, v, r), want=False)


def fault_one():
    """Fault 1 fails the fixed criterion-2 draws, and only its exact
    signature is put down to it; the ring family avoids it."""
    from modelspace import acceptance as ac
    from modelspace import duality as du
    from workloads import KernelsLarge, check_criterion_2, fault_one

    def attributed(got):
        return (len(got) == 3 and got[2] == "fault 1", got[1])

    gh = du.hyperboloid_grid(64)
    family = inputs.minkowski_family()
    check = KernelsLarge._check_minkowski
    for i in (21, 47):
        got = check(f"minkowski_round_trip[{i}]", family[i], gh,
                    du.MinkowskiBody(family[i]).dual().dual())
        expect(f"fault 1: Minkowski body {i} of the seed-16 draw fails its round trip",
               got, want=False)
        expect("fault 1: ... and is put down to fault 1", attributed(got))
    body = du.MinkowskiBody(family[21]).dual().dual()
    expect("Minkowski body 21 compared with body 20 is not put down to fault 1",
           attributed(check("minkowski_round_trip[21]", family[20], gh, body)), want=False)
    expect("a gap of fault 1's size on another body is not put down to it",
           attributed(fault_one("minkowski_round_trip[3]", 1.17e-4, "")), want=False)
    res = ac.criterion_2_duality_round_trips(seed=inputs.FAULT_SEED)
    expect("fault 1: criterion 2 at seed 16 fails", (res["passed"], res["detail"]), want=False)
    expect("fault 1: ... and is put down to fault 1", attributed(check_criterion_2(res)))
    for part, text in (("truncation", "double-dual gap 1.17e-04, smooth duals 7.55e-15, "
                                      "truncation 3.00e-06"),
                       ("smooth duals", "double-dual gap 1.17e-04, smooth duals 2.00e-08, "
                                        "truncation 0.00e+00"),
                       ("double dual", "double-dual gap 3.00e-02, smooth duals 7.55e-15, "
                                       "truncation 0.00e+00")):
        got = check_criterion_2({"passed": False, "detail": text})
        expect(f"criterion 2 failing its {part} part is not put down to fault 1",
               attributed(got), want=False)
    from scipy.spatial import ConvexHull

    worst = np.inf
    for seed, shape in enumerate(inputs.RING_SHAPES * 7):
        hull = ConvexHull(inputs.ring_polytope(np.random.default_rng(seed), *shape))
        n = hull.equations[:, :3]
        i = np.repeat(np.arange(len(n)), 3)
        cos = np.einsum("ij,ij->i", n[i], n[hull.neighbors.ravel()])
        worst = min(worst, float(np.min(np.arccos(np.clip(cos, -1, 1)))))
    expect("ring polytopes keep adjacent normals > 1e-3 rad apart",
           (worst > 1e-3, f"smallest angle {worst:.1e} rad"))


def surface_oracles():
    from modelspace import surfaces as sf
    from workloads import S2_DOM

    r = 1.7
    data = sf.embedding_data(sf.sphere_patch(radius=r), m=65)
    K_I = sf.gauss_curvature(data.I, data.du, data.dv)
    h = max(data.du, data.dv)
    expect("sphere: B = Id / r", oracles.check_sphere_shape(data.B, r))
    expect("sphere: B + 1e-8 rejected", oracles.check_sphere_shape(data.B + 1e-8, r), want=False)
    expect("sphere: K_I = 1 / r^2 inside", oracles.check_sphere_curvature(K_I, r, h))
    expect("sphere: K_I + 1e-2 rejected", oracles.check_sphere_curvature(K_I + 1e-2, r, h), want=False)
    a, eps = inputs.support_params(np.random.default_rng(4))
    u = inputs.support_fn(a, eps)
    m = 33
    Ug, Vg = np.meshgrid(np.linspace(*S2_DOM[0], m), np.linspace(*S2_DOM[1], m), indexing="ij")
    pts = sf.sphere_chart(Ug, Vg)
    B, I = sf.shape_from_support(u, base="S2", domain=S2_DOM, m=m)
    u_rec = sf.recover_support_from_shape(B, I, Ug[1, 0] - Ug[0, 0], Vg[0, 1] - Vg[0, 0], pts)
    expect("support recovered up to the linear gauge", oracles.check_support_gauge(u_rec, u(pts), pts))
    expect("a linear change of u is gauge",
           oracles.check_support_gauge(u_rec + pts @ np.array([0.1, -0.2, 0.3]), u(pts), pts))
    bump = 1e-3 * np.sin(3 * Ug) * np.cos(2 * Vg)
    expect("a non-linear change of u rejected",
           oracles.check_support_gauge(u_rec + bump, u(pts), pts), want=False)
    base, vel = np.array([0, 0, 0, 1.5]), np.array([0.3, -0.2, 0.4, 0.7])
    limit = oracles.blow_up_limit(base, vel, axis=3)
    expect("blow-up limit [v : base] against itself up to sign",
           oracles.check_projective_point(-2 * limit, limit))
    expect("blow-up limit moved by 1e-6 rejected",
           oracles.check_projective_point(limit + np.array([1e-6, 0, 0, 0]), limit), want=False)


def main():
    for part in (workloads, distance_oracle, polar_oracles, minkowski_oracles, fault_one,
                 surface_oracles):
        part()
    print(f"{len(failures)} self-check failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
