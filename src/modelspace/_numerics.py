"""Shared numerical helpers: Richardson extrapolation, differencing and the
bounded-value check record that the acceptance suite and the CLI judge.

Every first derivative is one ``central_difference`` call, and every jet
(value, gradient, Hessian) one ``central_jet`` call; their sites, with
base step and levels, follow.  A cross-check is an independent route and
stays a real-step difference outside both, to catch an error in the
primary route:

    connections.ambient_derivative          1e-3 (1 + |x|)  3  primary
    connections.metric_compatibility_res.   1e-3            4  primary
    connections.parallel_volume_residual    1e-3            4  primary
    connections.parallel_transport          1e-6            1  primary, 200 RK4 steps
    pogorelov._jacobian (field_gradient)    1e-6, v = I     1  primary
    transition._point_limit                 1e-3            4  primary
    pogorelov.ChartMetric.christoffel_fd    2e-4, v = I     2  cross-check
    pogorelov._log_volume_gradient          1e-5, v = I     1  cross-check
    projective.pseudo_distance_quadrature   1e-6            1  cross-check
    connections.geodesic_residual           1e-4 second difference, 19 samples: cross-check
    surfaces.SurfacePatch.frames            3e-4            1  primary, central_jet
    surfaces._ambient_extension_hessian     2e-4, 1e-4      2  primary, central_jet
    surfaces: grid data                     grid stencils on sampled fields

Stacks of small matrices go through ``det_small``, ``inv_small`` and
``solve_small``, which act elementwise on the stack instead of calling
LAPACK once per matrix.  The determinant is closed form for 2x2 (ad - bc)
and 3x3 (cofactor expansion along the first row), ``np.linalg.det``
beyond.  The inverse and the solve are the adjugate over the determinant,
Cramer's rule, and take 2x2 matrices only (any other shape is a
ValueError): Cramer's rule is forward stable for n = 2 but not beyond
(Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 2002).
The surfaces layer needs no larger solve: its II is Cramer's rule on the
transverse covector, whose entries are maximal minors: ``np.cross`` of the
two tangent columns in a flat chart, ``det3`` (the 3x3 cofactor expansion
of ``det_small``, on rows given entry by entry) in R^4, ``det_small`` of
the deleted rows beyond.  The 3x3 and larger solves and inverses left on
``np.linalg``, none of them on a large stack, are pogorelov's Christoffel
inverse, ``operator_l`` and Killing basis; transition's inverses of the
form and of the dual family; and forms' ``antisymmetric_from_draw`` and
``cayley``.  A zero 2x2
determinant raises ``np.linalg.LinAlgError("Singular matrix")``, the error
LAPACK raises, which is a ValueError.
"""

from __future__ import annotations

import numpy as np

__all__ = ["richardson", "central_difference", "central_jet", "DEFAULT_SCHEDULE",
           "det_small", "inv_small", "solve_small"]

# t-schedule used by all numeric limits t -> 0.
DEFAULT_SCHEDULE = 0.5 ** np.arange(3, 13)


def check(text, value, lo=-np.inf, hi=np.inf):
    """The record of one bounded quantity: ``text`` is a format string for
    the value, and the check passes iff lo <= value <= hi, so a NaN fails."""
    return {"text": text.format(value), "value": float(value), "lo": lo, "hi": hi,
            "passed": bool(lo <= value <= hi)}


def richardson(values, ratio=2.0, return_error=False):
    """Extrapolate a sequence f(t_k) -> L, t_{k+1} = t_k / ratio, to t = 0.

    Assumes an expansion L + a1 t + a2 t^2 + ...; builds the full
    elimination table and returns the last entry, together with the
    difference of the final two extrapolants as an error estimate.
    """
    level = [np.asarray(v, dtype=float) for v in values]
    prev_tail = None
    for m in range(1, len(level)):
        prev_tail, factor = level[-1], ratio ** m
        level = [(factor * b - a) / (factor - 1.0) for a, b in zip(level, level[1:])]
    # change introduced by the final elimination step
    err = np.inf if prev_tail is None else float(np.max(np.abs(level[0] - prev_tail)))
    return (level[0], err) if return_error else level[0]


def central_difference(f, x0, v=1.0, base_step=1e-3, levels=4):
    """Derivative of f at x0 along v by central differences + Richardson in h^2.

    One call of ``f``, row by row, on the stencil x0 +- h_k v, h_k =
    base_step / 2^k, stacked on a leading axis of length 2 * levels.  x0
    and v broadcast (v = I gives a Jacobian); base_step is a scalar or a
    per-row array that broadcasts against the points and f's values.
    """
    x0, v = np.asarray(x0, dtype=float), np.asarray(v, dtype=float)
    h = np.multiply.outer(0.5 ** np.arange(levels), base_step)
    step = np.concatenate([h, -h])
    pad = 1 + max(x0.ndim, v.ndim) - step.ndim
    fx = np.asarray(f(x0 + step.reshape(step.shape + (1,) * pad) * v))
    h = h.reshape(h.shape + (1,) * (fx.ndim - h.ndim))
    # the error expansion is in h^2: one elimination level per halving is
    # ratio 4 in the richardson table
    return richardson((fx[:levels] - fx[levels:]) / (2 * h), ratio=4.0)


def central_jet(f, x0, steps):
    """(value, gradient, Hessian) of f at the points x0 (..., k), shapes
    F, F + (k,) and F + (k, k) for values f(x0) of shape F.

    Central differences on x0 +- h e_i and x0 + h (+-e_i +-e_j), i < j:
    one call of ``f`` per offset, 1 + 2k + 2k(k - 1) in all, each with
    every step h of ``steps`` on a leading axis, then ``richardson`` in
    h^2 across the steps (a single step passes through unchanged).
    """
    x0 = np.asarray(x0, dtype=float)
    k = x0.shape[-1]
    f0 = np.asarray(f(x0), dtype=float)
    steps = np.asarray(steps, dtype=float)
    shape = steps.shape + f0.shape
    h_x, h = (steps.reshape(steps.shape + (1,) * n) for n in (x0.ndim, f0.ndim))

    def at(off):
        # an f that broadcasts the points against leading axes of its own
        # (a stack of surfaces) merges a one-entry step axis into them
        return np.asarray(f(x0 + h_x * off), dtype=float).reshape(shape)

    eye = np.eye(k)
    grad, hess = np.empty(shape + (k,)), np.empty(shape + (k, k))
    for i in range(k):
        plus, minus = at(eye[i]), at(-eye[i])
        grad[..., i] = (plus - minus) / (2 * h)
        hess[..., i, i] = (plus - 2 * f0 + minus) / h**2
        for j in range(i + 1, k):
            pp, pm, mp, mm = (at(si * eye[i] + sj * eye[j]) for si in (1, -1) for sj in (1, -1))
            hess[..., i, j] = hess[..., j, i] = (pp - pm - mp + mm) / (4 * h**2)
    return f0, richardson(grad, ratio=4.0), richardson(hess, ratio=4.0)


def det_small(m):
    """Determinants of a stack (..., n, n): closed form for n = 2 and 3."""
    m = np.asarray(m, dtype=float)
    entries = np.moveaxis(m, (-2, -1), (0, 1))
    if m.shape[-2:] == (2, 2):
        (a, b), (c, d) = entries
        return a * d - b * c
    if m.shape[-2:] == (3, 3):
        return det3(*entries)
    return np.linalg.det(m)


def det3(r0, r1, r2):
    """The determinant of the 3x3 matrix with rows r0, r1, r2, three
    entries each (arrays that broadcast), by cofactor expansion along r0."""
    (a, b, c), (d, e, f), (g, h, i) = r0, r1, r2
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _adjugate2(m):
    """The adjugate of each 2x2 matrix of the stack ``m`` and its determinant,
    raising as LAPACK does when a determinant is zero."""
    det = det_small(m)
    if np.any(det == 0):
        raise np.linalg.LinAlgError("Singular matrix")
    adj = np.empty_like(m)
    adj[..., 0, 0], adj[..., 1, 1] = m[..., 1, 1], m[..., 0, 0]
    adj[..., 0, 1], adj[..., 1, 0] = -m[..., 0, 1], -m[..., 1, 0]
    return adj, det[..., None, None]


def inv_small(m):
    """Inverses of a stack (..., 2, 2): the adjugate over the determinant."""
    m = np.asarray(m, dtype=float)
    if m.shape[-2:] != (2, 2):
        raise ValueError(f"inv_small takes 2x2 matrices, not shape {m.shape}")
    adj, det = _adjugate2(m)
    return adj / det


def solve_small(a, b):
    """``np.linalg.solve(a, b)`` for stacks a (..., 2, 2) and b (..., 2, k):
    Cramer's rule, the adjugate of ``a`` times b over det a."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape[-2:] != (2, 2) or b.ndim < 2:
        raise ValueError(f"solve_small takes 2x2 matrices and (2, k) right-hand sides, "
                         f"not shapes {a.shape} and {b.shape}")
    adj, det = _adjugate2(a)
    return adj @ b / det
