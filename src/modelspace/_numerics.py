"""Shared numerical helpers: Richardson extrapolation and differencing."""

from __future__ import annotations

import numpy as np

__all__ = ["richardson", "central_difference", "DEFAULT_SCHEDULE"]

# t-schedule used by all numeric limits t -> 0.
DEFAULT_SCHEDULE = 0.5 ** np.arange(3, 13)


def richardson(values, ratio=2.0, return_error=False):
    """Extrapolate a sequence f(t_k) -> L, t_{k+1} = t_k / ratio, to t = 0.

    Assumes an expansion L + a1 t + a2 t^2 + ...; builds the full
    elimination table and returns the last entry, together with the
    difference of the final two extrapolants as an error estimate.
    """
    level = [np.asarray(v, dtype=float) for v in values]
    if len(level) < 2:
        out = level[0]
        return (out, np.inf) if return_error else out
    m = 1
    prev_tail = level[-1]
    while len(level) > 1:
        prev_tail = level[-1]
        factor = ratio ** m
        level = [
            (factor * level[i + 1] - level[i]) / (factor - 1.0)
            for i in range(len(level) - 1)
        ]
        m += 1
    best = level[0]
    # change introduced by the final elimination step
    err = float(np.max(np.abs(best - prev_tail)))
    return (best, err) if return_error else best


def central_difference(f, t0=0.0, base_step=1e-3, levels=4):
    """Derivative of f at t0 by central differences + Richardson in h^2.

    ``f`` maps a t-array of shape (T,) to values of shape (T, ...); it is
    called once, on the stencil t0 +- h_k with h_k = base_step / 2^k.
    """
    h = base_step / 2.0 ** np.arange(levels)
    plus, minus = np.split(np.asarray(f(t0 + np.concatenate([h, -h]))), 2)
    # the error expansion is in h^2: one elimination level per halving is
    # ratio 4 in the richardson table
    return richardson((plus - minus) / (2 * h.reshape((levels,) + (1,) * (plus.ndim - 1))),
                      ratio=4.0)
