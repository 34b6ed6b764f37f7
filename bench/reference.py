"""Independent reference values for the benchmark's output checks.

Nothing here imports mvfix.  The certify references redo the whole pair
sweep with numpy and closed forms: the clamp formula for the distance
from a point to an interval, the Hausdorff distance of two intervals as
the larger endpoint gap, and the exact excess of one finite set over
another.  The solve reference is the plain-float recurrence.
"""

from __future__ import annotations

import numpy as np


def sweep_pairs(grid_size: int, random_pairs: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The certify sweep's pairs on [0, 1]: grid pairs i < j, then seeded draws."""
    grid = np.linspace(0.0, 1.0, grid_size)
    i, j = np.triu_indices(grid_size, k=1)
    draws = np.random.default_rng(seed).random(2 * random_pairs)
    a, b = draws[0::2], draws[1::2]
    x = np.concatenate([grid[i], np.minimum(a, b)])
    y = np.concatenate([grid[j], np.maximum(a, b)])
    return x, y


def interval_image(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """T(x) = [x/4, (x+1)/2]."""
    return x / 4, (x + 1) / 2


def finite_image(x: np.ndarray) -> np.ndarray:
    """T(x) = {x/4, x/3, (x+1)/2, 0.9x}, one row per point."""
    return np.stack([x / 4, x / 3, (x + 1) / 2, 0.9 * x], axis=-1)


def _dist_interval(p, lo, hi):
    return np.maximum(np.maximum(lo - p, p - hi), 0.0)


def _dist_points(p, pts):
    return np.abs(pts - p[..., None]).min(axis=-1)


def _excess_points(A, B):
    return np.abs(A[..., :, None] - B[..., None, :]).min(axis=-1).max(axis=-1)


def interval_hm(x, y):
    """(h, m) for the interval map, h being the Hausdorff distance."""
    lx, hx = interval_image(x)
    ly, hy = interval_image(y)
    h = np.maximum(np.abs(lx - ly), np.abs(hx - hy))
    m = np.maximum.reduce([
        np.abs(x - y),
        _dist_interval(x, lx, hx),
        _dist_interval(y, ly, hy),
        0.5 * (_dist_interval(x, ly, hy) + _dist_interval(y, lx, hx)),
    ])
    return h, m


def finite_excess_hm(x, y):
    """(h, m) for the finite-set map, h being the excess of T(x) over T(y)."""
    Sx, Sy = finite_image(x), finite_image(y)
    h = _excess_points(Sx, Sy)
    m = np.maximum.reduce([
        np.abs(x - y),
        _dist_points(x, Sx),
        _dist_points(y, Sy),
        0.5 * (_dist_points(x, Sy) + _dist_points(y, Sx)),
    ])
    return h, m


def phi_identity(u):
    """Phi for phi(t) = 1."""
    return u


def phi_one_plus_t2(u):
    """Phi for phi(t) = 1 + t^2."""
    return u + u**3 / 3


def margins(hm, phi, x, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h, m, margin) with F = ln; margin is NaN where the pair is vacuous."""
    h, m = hm(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    vacuous = h == 0.0
    with np.errstate(divide="ignore"):
        margin = np.log(phi(m)) - np.log(phi(h))
    return h, m, np.where(vacuous, np.nan, margin)


def solve_recurrence(x0: float, steps: int) -> float:
    """x_{n+1} = x_n - x_n^2 after ``steps`` steps, in plain binary64."""
    x = x0
    for _ in range(steps):
        x = x - x * x
    return x

