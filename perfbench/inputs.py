"""Seeded inputs for the benchmark workloads.

Everything here is generated with numpy from the workload seed; the
program's own samplers are not used, so a change to them cannot change
what the benchmark feeds the kernels.  The one exception is documented
in ``minkowski_family``: criterion 2's Minkowski family drawn at the fixed
seed 16, which is where duality fault 1 (see CHANGES.md) shows.
"""

from __future__ import annotations

import numpy as np

# (form signature (p, q), sign) for the spaces the distance kernels serve.
DISTANCE_SPACES = {
    "Ell2": ((3, 0), +1),
    "Hyp2": ((2, 1), -1),
    "dS2": ((2, 1), +1),
    "AdS3": ((2, 2), -1),
}

# Criterion 2 fails at this seed because of fault 1; its draws are fixed
# inputs that do not depend on the workload seed.
FAULT_SEED = 16


def form_diag(name):
    (p, q), _ = DISTANCE_SPACES[name]
    return np.array([1.0] * p + [-1.0] * q)


# Directions with sign * b(v, v) <= LIFT_BAND |v|^2 are redrawn, which
# bounds the Euclidean norm of a lift by LIFT_BAND^-1/2 ~ 4.5.  The
# program's own sampler uses 1e-6 (lifts up to ~1e3); on those far pairs
# the cross-ratio route drifts from the closed form by up to 7e-10, so at
# 250k pairs per space criterion 1's 1e-9 agreement would hold on some
# seeds only (a FOUND line in CHANGES.md).
LIFT_BAND = 0.05


def space_points(rng, name, count):
    """Pseudo-sphere lifts b(x, x) = sign, by vectorized rejection."""
    diag = form_diag(name)
    sign = DISTANCE_SPACES[name][1]
    out = np.empty((0, len(diag)))
    while len(out) < count:
        v = rng.standard_normal((2 * (count - len(out)) + 16, len(diag)))
        q = (v * v) @ diag
        keep = sign * q > LIFT_BAND * np.einsum("ij,ij->i", v, v)
        v = v[keep] / np.sqrt(np.abs(q[keep]))[:, None]
        out = np.vstack([out, v])
    return out[:count]


def distance_pairs(rng, count):
    """{space: (X, Y)} with ``count`` lifted pairs per space."""
    return {name: (space_points(rng, name, count), space_points(rng, name, count))
            for name in DISTANCE_SPACES}


def random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


# (latitude rings, points per ring) of the polytopes in one pass: 182, 266
# and 366 vertices, the same on every seed so that a pass does the same work.
RING_SHAPES = ((10, 18), (12, 22), (14, 26))


def ring_polytope(rng, n_rings, k):
    """An all-extreme polytope with n_rings * k + 2 vertices.

    Points sit on ``n_rings`` latitude rings of ``k`` points on the unit
    sphere, alternate rings offset by half a step (antiprism bands), plus
    the two poles; then an anisotropic scale, a rotation and a small
    translation, all from the seed.  Every point is extreme (a linear image of points on a sphere),
    no four are coplanar, and adjacent facet normals stay more than 1e-3
    rad apart, so duality fault 1 (rays merged within 4.5e-5 rad) cannot
    decide the outcome.  Uniform random points on the sphere would: 12%
    of 300-point polytopes have two adjacent normals closer than that.
    """
    theta = (np.arange(n_rings) + 1) * np.pi / (n_rings + 1)
    phase = rng.uniform(0, 2 * np.pi)
    pts = [np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])]
    for j, th in enumerate(theta):
        phi = phase + (np.arange(k) + 0.5 * (j % 2)) * 2 * np.pi / k
        pts.append(np.stack([np.sin(th) * np.cos(phi), np.sin(th) * np.sin(phi),
                             np.full(k, np.cos(th))], axis=1))
    pts = np.vstack(pts) * rng.uniform(0.7, 1.4, 3)
    pts = pts @ random_rotation(rng).T
    return rng.uniform(0.5, 2.0) * pts + rng.uniform(-0.15, 0.15, 3)


def minkowski_family(seed=FAULT_SEED):
    """Criterion 2's Minkowski bodies, drawn exactly as the criterion
    draws them (the Euclidean draws come first in its stream)."""
    rng = np.random.default_rng(seed)
    for _ in range(50):
        n_v = rng.integers(8, 24)
        rng.standard_normal((n_v, 3))
        rng.uniform(0.5, 2.0, (n_v, 1))
    bodies = []
    for _ in range(50):
        n_v = rng.integers(4, 12)
        rho = rng.uniform(0, 1.0, n_v)
        phi = rng.uniform(0, 2 * np.pi, n_v)
        scale = rng.uniform(0.8, 2.0, n_v)
        bodies.append(np.stack(
            [np.sinh(rho) * np.cos(phi), np.sinh(rho) * np.sin(phi), np.cosh(rho)],
            axis=1) * scale[:, None])
    return bodies


def truncation_params(rng):
    """A future time-like normal v of R^{2,1} and a distance r > 0."""
    v = np.empty(3)
    v[:2] = rng.normal(0.0, 0.5, 2)
    v[2] = np.hypot(v[0], v[1]) + rng.uniform(0.2, 1.0)
    return v, rng.uniform(0.3, 3.0)


def support_params(rng):
    """Coefficients of u(x) = 1 + <a, x> + eps sin(2 x1) cos(x2) on S^2."""
    return rng.standard_normal(3) * 0.1, rng.uniform(0.02, 0.06)


def support_fn(a, eps):
    return lambda x: 1.0 + x @ a + eps * np.sin(2 * x[..., 0]) * np.cos(x[..., 1])
