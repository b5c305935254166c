"""Independent oracles for the benchmark's correctness checks.

Each oracle recomputes a result by a route the program does not take
(50-digit arithmetic, analytic formulas, Qhull's facet equations read
directly) or tests a property the method must have.  Each returns
``(ok, detail)``.  Nothing here is a stored copy of the program's output,
so no reference file needs regenerating.
"""

from __future__ import annotations

import numpy as np

# mpmath and scipy.spatial are imported where they are used, so that the
# benchmark's own imports stay out of the timed set-up.

DIGITS = 50
DISTANCE_TOL = 1e-10  # measured error today: <= 3e-12 on random pairs
POLAR_TOL = 1e-9
DOUBLE_DUAL_TOL = 1e-9  # gap ~3e-14 when correct


def mp_distance(diag, x, y):
    """Distance of the pair (x, y) at 50 digits from the same float inputs.

    arccos on elliptic lines, arccosh on hyperbolic lines with both points
    on one branch, and |1/2 log r| of the cross-ratio r (complex log) for
    pairs that straddle the branches.  Inputs need not be normalized.
    """
    import mpmath as mp

    with mp.workdps(DIGITS):
        xs = [mp.mpf(float(v)) for v in x]
        ys = [mp.mpf(float(v)) for v in y]
        ds = [mp.mpf(float(v)) for v in diag]
        a = mp.fsum(d * u * u for d, u in zip(ds, xs))
        h = mp.fsum(d * u * v for d, u, v in zip(ds, xs, ys))
        c = mp.fsum(d * v * v for d, v in zip(ds, ys))
        disc = h * h - a * c
        if disc == 0:
            return mp.mpf(0)
        if disc < 0:
            return mp.acos(min(mp.mpf(1), abs(h) / mp.sqrt(a * c)))
        ratio = abs(h) / mp.sqrt(abs(a * c))
        if ratio >= 1:
            return mp.acosh(ratio)
        # roots t = alpha/beta of a t^2 + 2 h t + c = 0; with x = (1, 0),
        # y = (0, 1) the cross-ratio [x, y, I, J] is t_J / t_I
        sq = mp.sqrt(disc)
        t_i, t_j = (-h + sq) / a, (-h - sq) / a
        return abs(mp.log(mp.mpc(t_j / t_i)) / 2)


def check_distances(diag, X, Y, d, sample):
    """Program distances ``d`` against the 50-digit oracle on ``sample``."""
    worst = 0.0
    for i in sample:
        ref = mp_distance(diag, X[i], Y[i])
        err = abs(float(d[i]) - float(ref)) / max(1.0, float(ref))
        worst = max(worst, err)
    if not np.all(np.isfinite(d)) or np.any(d < 0):
        return False, "non-finite or negative distance"
    return worst <= DISTANCE_TOL, f"worst error vs 50-digit oracle {worst:.1e} on {len(sample)} pairs"


def _dedupe_points(P, tol):
    """Collapse points closer than ``tol`` (Qhull splits non-simplicial
    facets into coplanar triangles with equal equations)."""
    keep = np.ones(len(P), dtype=bool)
    dist = np.linalg.norm(P[:, None, :] - P[None, :, :], axis=-1)
    for i in range(len(P)):
        if keep[i]:
            keep[(dist[i] < tol) & (np.arange(len(P)) > i)] = False
    return P[keep]


def hull_polar_vertices(K):
    """Vertices of the polar of conv(K), read from Qhull's facet
    equations n . x + c <= 0 as -n / c."""
    from scipy.spatial import ConvexHull

    eq = ConvexHull(K).equations
    verts = -eq[:, :-1] / eq[:, -1:]
    return _dedupe_points(verts, 1e-12 * max(1.0, np.max(np.abs(verts))))


def same_point_set(A, B, tol):
    A, B = np.atleast_2d(A), np.atleast_2d(B)
    if len(A) != len(B):
        return False, f"{len(A)} vertices, expected {len(B)}"
    dist = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=-1)
    worst = max(float(np.max(np.min(dist, axis=0))), float(np.max(np.min(dist, axis=1))))
    return worst <= tol * max(1.0, float(np.max(np.abs(B)))), f"vertex mismatch {worst:.1e}"


def check_polar(K, polar_vertices):
    return same_point_set(polar_vertices, hull_polar_vertices(K), POLAR_TOL)


def cube(s):
    return s * np.array([[i, j, k] for i in (-1, 1) for j in (-1, 1) for k in (-1, 1)], float)


def octahedron(s):
    return s * np.vstack([np.eye(3), -np.eye(3)])


def check_support_gap(support_a, support_b, tol=DOUBLE_DUAL_TOL):
    gap = float(np.max(np.abs(np.asarray(support_a) - np.asarray(support_b))))
    return gap <= tol, f"support gap {gap:.1e}"


def check_truncation_apex(apex, v, r, tol=1e-9):
    """The cone dual to the truncation at Lorentzian distance r with
    normal v has apex v / (r sqrt(-b(v, v))), b of signature (2, 1)."""
    q = v[0] ** 2 + v[1] ** 2 - v[2] ** 2
    gap = float(np.max(np.abs(np.asarray(apex) - v / (r * np.sqrt(-q)))))
    return gap <= tol, f"apex off by {gap:.1e}"


def check_grid_polar(grid_values, dirs, exact_polar_vertices):
    """The grid polar formula keeps points v / h(v) of the exact polar,
    so it is a lower bound of the exact polar support; a grid this fine
    stays within 10% of it."""
    exact = np.max(exact_polar_vertices @ dirs.T, axis=0)
    over = float(np.max(grid_values - exact))
    under = float(np.max((exact - grid_values) / exact))
    ok = over <= 1e-12 * float(np.max(exact)) and under <= 0.1
    return ok, f"excess over exact {over:.1e}, relative shortfall {under:.1e}"


def check_sphere_shape(B, radius):
    """Euclidean sphere of radius r with analytic derivatives: B = Id / r."""
    err = float(np.max(np.abs(B - np.eye(2) / radius)))
    return err <= 1e-9, f"|B - Id/r| {err:.1e}"


def check_sphere_curvature(K_I, radius, h):
    """Interior K_I of a sphere of radius r is 1 / r^2 up to the O(h^2)
    error of grid differencing (the outer 12% of the grid is trimmed);
    that error is ~0.23 h^2 at every grid size tried, h the coarser step."""
    k = max(2, int(0.12 * K_I.shape[0]))
    err = float(np.max(np.abs(K_I[k:-k, k:-k] * radius**2 - 1.0)))
    return err <= h**2, f"relative K_I error {err:.1e} at h = {h:.2e}"


def blow_up_limit(base, velocity, axis):
    """Point blow-up of the path base + t v + ...: [v off the axis : base]."""
    out = np.array(velocity, dtype=float)
    out[axis] = base[axis]
    return out / np.linalg.norm(out)


def check_projective_point(rep, expected, tol=1e-8):
    """Same point of RP^n: unit representatives agree up to sign."""
    a = np.asarray(rep, dtype=float) / np.linalg.norm(rep)
    b = np.asarray(expected, dtype=float) / np.linalg.norm(expected)
    gap = min(float(np.max(np.abs(a - b))), float(np.max(np.abs(a + b))))
    return gap <= tol, f"representatives differ by {gap:.1e}"


def check_support_gauge(u_rec, u_true, points, tol=1e-4):
    """Recovered u equals the true support up to a linear function <p, x>."""
    diff = (u_rec - u_true).reshape(-1)
    A = points.reshape(-1, 3)
    coef, *_ = np.linalg.lstsq(A, diff, rcond=None)
    res = float(np.max(np.abs(diff - A @ coef)))
    return res <= tol, f"residual after the linear gauge {res:.1e}"
