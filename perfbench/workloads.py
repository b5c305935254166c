"""The three workloads: inputs, operations and the checks on each output.

A workload is a list of operations ``(name, run, check)``.  ``run`` calls
into modelspace and is the only part timed; ``check`` compares its output
with an oracle from ``oracles`` or with a property the method must have,
and returns ``(ok, detail)``, or ``(False, detail, fault)`` when the
failure is the exact signature of a named fault.  An operation fails when
it raises or its check rejects the output.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

import inputs
import oracles

S2_DOM = ((0.5, np.pi - 0.5), (0.3, 2 * np.pi - 0.3))
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Duality fault 1 (rays merged within ~4.5e-5 rad, see CHANGES.md) fails
# these operations on every run: their inputs are criterion 2's family
# drawn at the fixed seed inputs.FAULT_SEED.  Each maps to the double-dual
# gap the fault leaves there.  A failure is put down to fault 1 only when
# its gap is within a factor FAULT_SLACK of that size and, for criterion
# 2, its smooth-dual and truncation parts still hold to 1e-9; any other
# failure of these operations, a raise included, makes the run incorrect.
FAULT1_GAPS = {"criterion_2": 1.17e-4,
               "minkowski_round_trip[21]": 1.17e-4,
               "minkowski_round_trip[47]": 1.42e-5}
FAULT_SLACK = 2.0
CRITERION_2 = re.compile(r"double-dual gap (\S+), smooth duals (\S+), truncation (\S+)$")


def fault_one(name, gap, detail):
    """The failure of operation ``name`` with double-dual ``gap``, put down
    to fault 1 when the gap is the size the fault leaves there."""
    want = FAULT1_GAPS.get(name)
    if want is not None and want / FAULT_SLACK <= gap <= want * FAULT_SLACK:
        return False, detail, "fault 1"
    return False, detail


def check_criterion_2(result):
    if result["passed"]:
        return True, result["detail"]
    m = CRITERION_2.search(result["detail"])
    if m is None:
        return False, result["detail"]
    gap, smooth, trunc = map(float, m.groups())
    if smooth < 1e-9 and trunc < 1e-9:
        return fault_one("criterion_2", gap, result["detail"])
    return False, result["detail"]


def run_ops(ops, tracer=None):
    """One pass: [(name, seconds, ok, detail, fault)] in order; ``fault``
    names the fault a failure is put down to, else it is None."""
    results = []
    for op in ops:
        name, run, check = op[:3]
        region = tracer.region(op[3]) if tracer and len(op) > 3 else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with region:
                out = run()
        except Exception as exc:  # a raising operation counts as failed
            results.append((name, time.perf_counter() - t0, False,
                            f"{type(exc).__name__}: {exc}", None))
            continue
        dt = time.perf_counter() - t0
        try:
            with tracer.pause() if tracer else contextlib.nullcontext():
                ok, detail, *fault = check(out)
        except Exception as exc:  # so does an output the check cannot read
            ok, detail, fault = False, f"check raised {type(exc).__name__}: {exc}", []
        results.append((name, dt, bool(ok), detail, fault[0] if fault and not ok else None))
    return results


def warm_up(ops):
    """Run the operations once, unchecked: the checks' own imports and
    work stay out of the timed set-up.  A raise is left to the timed
    passes to count."""
    for _, run, *_ in ops:
        with contextlib.suppress(Exception):
            run()


class Acceptance:
    """The nine acceptance criteria in a warm process.

    Criteria 1 and 3-9 run at the workload seed.  Criterion 2 runs at
    inputs.FAULT_SEED, where fault 1 fails it on every run; at other seeds
    it fails for some seeds only, which would make the failed share depend
    on the seed.  Its check accepts only fault 1's signature (see
    ``check_criterion_2``).
    """

    def __init__(self, seed, small=False):
        from modelspace import acceptance as ac

        self.ops = []
        for k, crit in enumerate(ac.CRITERIA, start=1):
            if small and k not in (3, 5):
                continue
            if k == 2:
                s, check = inputs.FAULT_SEED, check_criterion_2
            else:
                s, check = seed, lambda r: (r["passed"], r["detail"])
            self.ops.append((f"criterion_{k}", partial(crit, seed=s), check,
                             f"acceptance.criterion_{k}"))

    def warm_up(self):
        pass


FULL = dict(pairs=250_000, sample=300, scalar=2000, polytopes=3, polar_grid=128,
            minkowski=50, surface_m=257, recover_m=49)
SMALL = dict(pairs=2000, sample=20, scalar=20, polytopes=1, polar_grid=16,
             minkowski=3, surface_m=33, recover_m=33)


def late(mod, attr, *args, **kwargs):
    """``mod.attr(*args, **kwargs)`` looked up at call time, so that a
    traced pass calls the wrapper the tracer put in its place."""
    return lambda: getattr(mod, attr)(*args, **kwargs)


def _minkowski_support(V, dirs):
    return np.max(V @ np.diag([1.0, 1.0, -1.0]) @ dirs.T, axis=0)


def _gc_bound(data):
    """Gauss-Codazzi residuals are grid-differencing errors, O(h^2);
    ~0.2 h^2 on the sphere and graph patches here."""
    return max(data.du, data.dv) ** 2


class KernelsLarge:
    """The vectorized kernels at sizes where array work dominates."""

    def __init__(self, seed, small=False):
        from modelspace import duality as du
        from modelspace import projective as pj
        from modelspace import surfaces as sf

        self.du, self.sf = du, sf
        size = SMALL if small else FULL
        rng = np.random.default_rng(seed)
        self.out = {}
        ops = []

        pairs = inputs.distance_pairs(rng, size["pairs"])
        spaces = {name: pj.model_space(name) for name in pairs}
        for name, (X, Y) in pairs.items():
            diag = inputs.form_diag(name)
            sample = rng.choice(len(X), size["sample"], replace=False)
            ops.append((f"distance_batch[{name}]",
                        partial(self._keep, f"batch[{name}]", late(
                            pj, "projective_distance_batch", spaces[name], X, Y)),
                        lambda out, diag=diag, X=X, Y=Y, sample=sample:
                            oracles.check_distances(diag, X, Y, out[0], sample)))
            ops.append((f"closed_form[{name}]",
                        late(pj, "closed_form_distance", spaces[name], X, Y),
                        partial(self._check_closed, name, diag, X, Y, sample)))
        names = list(pairs)
        scalar = []
        for i in range(size["scalar"]):
            name = names[i % len(names)]
            x, y = pairs[name][0][i], pairs[name][1][i]
            scalar.append(("distance_scalar",
                           late(pj, "projective_distance", spaces[name], pj.ProjPoint(x),
                                pj.ProjPoint(y)),
                           partial(self._check_scalar, inputs.form_diag(name), x, y)))

        polys = [inputs.ring_polytope(rng, *shape)
                 for shape in inputs.RING_SHAPES[:size["polytopes"]]]
        grid64 = du.sphere_grid(64)
        for i, K in enumerate(polys):
            ops.append((f"polar[{i}]", partial(self._keep, f"polar[{i}]", partial(self._polar, K)),
                        lambda P, K=K: oracles.check_polar(K, P.vertices)))
            ops.append((f"double_dual[{i}]", partial(self._double_dual, i),
                        lambda P, K=K: oracles.check_support_gap(
                            P.support(grid64), np.max(K @ grid64.T, axis=0))))
        s = rng.uniform(0.5, 2.0)
        ops.append(("polar_cube", partial(self._polar, oracles.cube(s)),
                    lambda P: oracles.same_point_set(P.vertices, oracles.octahedron(1 / s), 1e-9)))
        ops.append(("polar_octahedron", partial(self._polar, oracles.octahedron(s)),
                    lambda P: oracles.same_point_set(P.vertices, oracles.cube(1 / s), 1e-9)))

        m = size["polar_grid"]
        grid = du.sphere_grid(m)
        sfn = du.SupportFunctionE(grid, np.max(polys[0] @ grid.T, axis=0), grid_shape=(m, m))
        ops.append(("dual_support[polytope]", late(du, "dual_support", sfn),
                    lambda out: oracles.check_grid_polar(
                        out.values, grid, oracles.hull_polar_vertices(polys[0]))))
        r = rng.uniform(0.5, 2.0)
        ball = du.SupportFunctionE(grid64, np.full(len(grid64), r), grid_shape=(64, 64))
        ops.append(("dual_support[ball]", late(du, "dual_support", ball),
                    lambda out: oracles.check_support_gap(out.values, np.full(len(grid64), 1 / r))))

        grid_h = du.hyperboloid_grid(64)
        r_h = rng.uniform(0.5, 2.0)
        hyperboloid = du.SupportFunctionMin(grid_h, np.full(len(grid_h), -r_h), grid_shape=(64, 64))
        ops.append(("dual_support[hyperboloid]", late(du, "dual_support", hyperboloid),
                    lambda out: oracles.check_support_gap(out.values, np.full(len(grid_h), -1 / r_h))))
        v_t, r_t = inputs.truncation_params(rng)
        ops.append(("truncation_dual", late(du, "truncation_dual", v_t, r_t),
                    lambda apex: oracles.check_truncation_apex(apex, v_t, r_t)))
        for i, V in enumerate(inputs.minkowski_family()[:size["minkowski"]]):
            name = f"minkowski_round_trip[{i}]"
            ops.append((name, lambda V=V: du.MinkowskiBody(V).dual().dual(),
                        partial(self._check_minkowski, name, V, grid_h)))

        M, R = size["surface_m"], size["recover_m"]
        radius = rng.uniform(0.5, 2.0)
        a, eps = inputs.support_params(rng)
        u = inputs.support_fn(a, eps)
        coE = pj.model_space("coEuc3")
        graph = sf.graph_patch(coE, lambda U, V: u(sf.sphere_chart(U, V)), S2_DOM)
        ops += [
            ("embedding_data[sphere]", partial(self._keep, "sphere", late(
                sf, "embedding_data", sf.sphere_patch(radius=radius), m=M)),
             partial(self._check_sphere, radius)),
            ("gauss_codazzi[sphere]", partial(self._gauss_codazzi, "sphere"),
             partial(self._check_gc, "sphere")),
            ("embedding_data_co[graph]", partial(self._keep, "graph", late(
                sf, "embedding_data_co", graph, m=M)),
             partial(self._check_graph, u, M)),
            ("gauss_codazzi[graph]", partial(self._gauss_codazzi, "graph"),
             partial(self._check_gc, "graph")),
            ("dual_embedding[graph]", partial(self._dual_embedding, "graph"),
             partial(self._check_dual, "graph")),
            ("shape_from_support", partial(self._keep, "shape", late(
                sf, "shape_from_support", u, base="S2", domain=S2_DOM, m=R)),
             partial(self._check_shape, graph, R)),
            ("recover_support", partial(self._recover, R),
             partial(self._check_recover, u, R)),
        ]
        self.ops = ops + scalar

    def warm_up(self):
        """Touch every code path once at small size (lazy imports, caches)."""
        warm_up(KernelsLarge(0, small=True).ops)

    # -- runs that keep their output for a later operation ---------------

    def _keep(self, key, run):
        self.out[key] = run()
        return self.out[key]

    def _polar(self, K):
        return self.du.EuclideanBody(K).dual()

    def _double_dual(self, i):
        return self.out[f"polar[{i}]"].dual()

    def _gauss_codazzi(self, key):
        return self.sf.gauss_codazzi_residual(self.out[key])

    def _dual_embedding(self, key):
        return self.sf.dual_embedding_data(self.out[key])

    def _recover(self, m):
        B, I = self.out["shape"]
        Ug, Vg = self._chart_grid(m)
        du_, dv_ = Ug[1, 0] - Ug[0, 0], Vg[0, 1] - Vg[0, 0]
        return self.sf.recover_support_from_shape(B, I, du_, dv_, self.sf.sphere_chart(Ug, Vg))

    @staticmethod
    def _chart_grid(m):
        return np.meshgrid(np.linspace(*S2_DOM[0], m), np.linspace(*S2_DOM[1], m), indexing="ij")

    # -- checks ----------------------------------------------------------

    def _check_closed(self, name, diag, X, Y, sample, d):
        ok, detail = oracles.check_distances(diag, X, Y, d, sample)
        # the criterion-1 property: both routes agree to 1e-9 where the
        # closed form is defined
        gap = float(np.nanmax(np.abs(d - self.out[f"batch[{name}]"][0])))
        return ok and gap < 1e-9, f"{detail}; routes differ by {gap:.1e}"

    def _check_scalar(self, diag, x, y, d):
        ref = float(oracles.mp_distance(diag, x, y))
        err = abs(d - ref) / max(1.0, ref)
        return err <= oracles.DISTANCE_TOL, f"error vs 50-digit oracle {err:.1e}"

    @staticmethod
    def _check_minkowski(name, V, grid, body):
        gap = float(np.max(np.abs(body.support(grid) - _minkowski_support(V, grid))))
        detail = f"support gap {gap:.1e}"
        return (True, detail) if gap <= oracles.DOUBLE_DUAL_TOL else fault_one(name, gap, detail)

    def _check_sphere(self, radius, data):
        K_I = self.sf.gauss_curvature(data.I, data.du, data.dv)
        ok_b, det_b = oracles.check_sphere_shape(data.B, radius)
        ok_k, det_k = oracles.check_sphere_curvature(K_I, radius, max(data.du, data.dv))
        return ok_b and ok_k, f"{det_b}; {det_k}"

    def _check_gc(self, key, res):
        bound = _gc_bound(self.out[key])
        return max(res) <= bound, f"gauss/codazzi {res[0]:.1e}/{res[1]:.1e}, bound {bound:.1e}"

    def _check_graph(self, u, m, data):
        """The connection route and the support-function route give the
        same shape operator."""
        B_sup, _ = self.sf.shape_from_support(u, base="S2", domain=S2_DOM, m=m)
        gap = float(np.max(np.abs(B_sup - data.B)))
        return gap < 1e-4, f"shape operator routes differ by {gap:.1e}"

    def _check_dual(self, key, dual):
        data = self.out[key]
        back = self.sf.dual_embedding_data(dual)
        inv = float(np.max(np.abs(dual.B @ data.B - np.eye(2))))
        invol = max(float(np.max(np.abs(back.I - data.I))), float(np.max(np.abs(back.B - data.B))))
        return inv <= 1e-9 and invol <= 1e-8, f"B*B - Id {inv:.1e}, involution {invol:.1e}"

    def _check_shape(self, graph, m, out):
        B, _ = out
        gap = float(np.max(np.abs(B - self.sf.embedding_data_co(graph, m=m).B)))
        return gap < 1e-4, f"shape operator routes differ by {gap:.1e}"

    def _check_recover(self, u, m, u_rec):
        Ug, Vg = self._chart_grid(m)
        pts = self.sf.sphere_chart(Ug, Vg)
        return oracles.check_support_gauge(u_rec, u(pts), pts)


class CliCold:
    """One cold ``python -m modelspace.cli`` process per operation."""

    trace_dir = None  # set to a directory for a traced pass through launch.py

    def __init__(self, seed, small=False, workdir=None):
        rng = np.random.default_rng(seed)
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.max_rss_mib = 0.0
        w = self.workdir

        def vec(v):
            return json.dumps([float(c) for c in v])

        x, y = inputs.space_points(rng, "Hyp2", 2)
        xc, yc = inputs.space_points(rng, "dS2", 2)
        ball_r, cube_s, sphere_r = rng.uniform(0.5, 2.0, 3)
        base = np.array([0.0, 0.0, 0.0, rng.uniform(0.5, 2.0)])
        vel = rng.standard_normal(4) * 0.5
        self._write("ball.json", {"kind": "ball", "radius": ball_r})
        self._write("cube.json", {"vertices": oracles.cube(cube_s).tolist()})
        self._write("path.json", {"base": base.tolist(), "velocity": vel.tolist(),
                                  "acceleration": (rng.standard_normal(4) * 0.3).tolist()})
        self._write("sphere.json", {"kind": "sphere", "radius": sphere_r})
        cli_seed = str(int(rng.integers(0, 2**31)))
        script = [
            ("distance", ["distance", "--space", "Hyp2", "--x", vec(x), "--y", vec(y), "--emit", "json"],
             partial(self._check_distance, "Hyp2", x, y)),
            ("classify-line", ["classify-line", "--space", "dS2", "--x", vec(xc), "--y", vec(yc),
                               "--emit", "json"], partial(self._check_line, "dS2", xc, yc)),
            ("dualize[ball]", ["dualize", "--flavor", "euclidean", "--body", str(w / "ball.json"),
                               "--emit", "json"], partial(self._check_ball, ball_r)),
            ("dualize[cube]", ["dualize", "--flavor", "euclidean", "--body", str(w / "cube.json"),
                               "--emit", "json"], partial(self._check_cube, cube_s)),
            ("transition", ["transition", "--family", "point", "--space", "Hyp3",
                            "--path", str(w / "path.json"), "--emit", "json"],
             partial(self._check_transition, base, vel)),
            ("check-connection", ["check-connection", "--space", "coEuc3", "--seed", cli_seed,
                                  "--emit", "json"], self._check_connection),
            ("pogorelov", ["pogorelov", "--pair", "hyp-euc", "--seed", cli_seed, "--emit", "json"],
             self._check_pogorelov),
            ("check-surface", ["check-surface", "--space", "Euc3", "--patch", str(w / "sphere.json"),
                               "--emit", "csv"], partial(self._check_surface, sphere_r)),
            ("dual-surface", ["dual-surface", "--space", "coEuc3", "--emit", "json"],
             self._check_dual_surface),
            ("transition-surface", ["transition-surface", "--space", "Ell3", "--emit", "json"],
             self._check_transition_surface),
        ]
        if small:
            script = script[:3]
        self.ops = [(name, partial(self._run, name, argv), check) for name, argv, check in script]

    def _write(self, name, record):
        (self.workdir / name).write_text(json.dumps(record))

    def warm_up(self):
        """One cold process, so the first timed one finds the files cached."""
        self._run("warm-up", ["--help"])

    def _run(self, name, argv):
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "modelspace.cli", *argv]
        else:
            trace = Path(self.trace_dir) / f"{len(list(Path(self.trace_dir).iterdir()))}.json"
            cmd = [sys.executable, str(HERE / "launch.py"), str(trace), *argv]
        with open(self.workdir / "stderr.txt", "w") as err:
            proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=err)
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_mib = max(self.max_rss_mib, usage.ru_maxrss / 1024.0)
        if proc.returncode != 0:
            tail = (self.workdir / "stderr.txt").read_text()[-300:]
            raise RuntimeError(f"{name} exited {proc.returncode}: {tail}")
        return out.decode()

    # -- checks ----------------------------------------------------------

    def _check_distance(self, space, x, y, out):
        d = json.loads(out)["distance"]
        ref = float(oracles.mp_distance(inputs.form_diag(space), x, y))
        err = abs(d - ref) / max(1.0, ref)
        return err <= oracles.DISTANCE_TOL, f"error vs 50-digit oracle {err:.1e}"

    def _check_line(self, space, x, y, out):
        kind = json.loads(out)["line_type"]
        diag = inputs.form_diag(space)
        h = float(np.sum(diag * x * y))
        disc = h * h - float(np.sum(diag * x * x)) * float(np.sum(diag * y * y))
        expected = "hyperbolic" if disc > 0 else "elliptic"
        return kind == expected, f"line type {kind}, discriminant {disc:.3g}"

    def _check_ball(self, r, out):
        support = np.array(json.loads(out)["support"])
        return oracles.check_support_gap(support, np.full(len(support), 1 / r))

    def _check_cube(self, s, out):
        verts = np.array(json.loads(out)["vertices"])
        return oracles.same_point_set(verts, oracles.octahedron(1 / s), 1e-9)

    def _check_transition(self, base, vel, out):
        limit = np.array(json.loads(out)["limit"])
        return oracles.check_projective_point(limit, oracles.blow_up_limit(base, vel, axis=3))

    def _check_connection(self, out):
        res = json.loads(out)["residuals"]
        worst = max(res.values())
        return worst <= 1e-6, f"worst residual {worst:.1e}"

    def _check_pogorelov(self, out):
        rec = json.loads(out)
        ok = rec["source_residual"] <= 1e-7 and rec["target_residual"] <= 1e-6
        return ok, f"Killing residuals {rec['source_residual']:.1e}/{rec['target_residual']:.1e}"

    def _check_surface(self, radius, out):
        rows = np.array([[float(v) for v in line.split(",")] for line in out.splitlines()[1:]])
        m = int(round(np.sqrt(len(rows))))
        h = max(np.diff(np.unique(rows[:, j]))[0] for j in (0, 1))
        ok, detail = oracles.check_sphere_curvature(rows[:, 2].reshape(m, m), radius, h)
        det_err = float(np.max(np.abs(rows[:, 3] - 1 / radius**2)))
        return ok and det_err <= 1e-9, f"{detail}; |det B - 1/r^2| {det_err:.1e}"

    def _check_dual_surface(self, out):
        rec = json.loads(out)
        ok = rec["dual_space"] == "Euc3" and rec["involution"] <= 1e-8
        return ok, f"dual in {rec['dual_space']}, involution {rec['involution']:.1e}"

    def _check_transition_surface(self, out):
        rec = json.loads(out)
        gap = max(rec["gaps"].values())
        return gap <= 1e-4 and rec["rate_r2"] > 0.99, f"gap {gap:.1e}, rate R^2 {rec['rate_r2']:.4f}"


WORKLOADS = {"acceptance": Acceptance, "kernels-large": KernelsLarge, "cli-cold": CliCold}
