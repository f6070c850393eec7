"""Pareto-front extraction, front quality metrics and convergence monitors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .minnorm import criticality_measure
from .trace import RunRecord


@dataclass
class MonitorSeries:
    """Weighted criticality series: term k is alpha_k * |grad F(x_k)' lam*|^2."""

    ks: np.ndarray
    alphas: np.ndarray
    criticality_sq: np.ndarray
    partial_sums: np.ndarray

    def __len__(self) -> int:
        return self.ks.size


def dominates(a, b) -> bool:
    """True iff a <= b componentwise with at least one strict inequality."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"points must share a shape, got {a.shape} and {b.shape}")
    return bool(np.all(a <= b) and np.any(a < b))


# Rows per block of the pairwise dominance compare: bounds its n x block x M
# temporaries for large populations.
_DOMINANCE_BLOCK = 256


def _nondominated_mask(values: np.ndarray) -> np.ndarray:
    """Mask of the rows of ``values`` that no other row dominates.

    Equal rows do not dominate each other, so duplicates are all kept.
    """
    keep = np.empty(len(values), dtype=bool)
    for lo in range(0, len(values), _DOMINANCE_BLOCK):
        block = values[None, lo : lo + _DOMINANCE_BLOCK]
        le = np.all(values[:, None] <= block, axis=2)  # [j, i]: row j <= row lo + i
        lt = np.any(values[:, None] < block, axis=2)
        keep[lo : lo + _DOMINANCE_BLOCK] = ~np.any(le & lt, axis=0)
    return keep


def extract_front(points) -> np.ndarray:
    """Return exactly the rows of ``points`` (P, M) not dominated by any other, in input order."""
    points = np.asarray(points, dtype=np.float64)
    return points[_nondominated_mask(points)]


def hypervolume_2d(front, reference) -> float:
    """Area dominated by a 2-objective front relative to ``reference``."""
    reference = np.asarray(reference, dtype=np.float64)
    if reference.shape != (2,):
        raise ValueError("reference must be a length-2 point")
    values = np.asarray(front, dtype=np.float64)
    if values.size == 0:
        return 0.0
    if values.shape[1] != 2:
        raise ValueError("hypervolume_2d expects 2-objective points")
    for row in values:
        if not dominates(row, reference):
            raise ValueError(f"front point {row} does not dominate reference {reference}")
    order = np.lexsort((values[:, 1], values[:, 0]))
    values = values[order]
    hv = 0.0
    ceiling = reference[1]
    for x, y in values:
        if y < ceiling:
            hv += (reference[0] - x) * (ceiling - y)
            ceiling = y
    return float(hv)


def hypervolume_3d(front, reference) -> float:
    """Exact 3-objective hypervolume via a sweep over the third coordinate."""
    reference = np.asarray(reference, dtype=np.float64)
    values = np.asarray(front, dtype=np.float64)
    if values.size == 0:
        return 0.0
    if values.shape[1] != 3 or reference.shape != (3,):
        raise ValueError("hypervolume_3d expects 3-objective points and reference")
    for row in values:
        if not dominates(row, reference):
            raise ValueError(f"front point {row} does not dominate reference {reference}")
    zs = np.unique(values[:, 2])
    bounds = np.append(zs, reference[2])
    hv = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi <= lo:
            continue
        active = values[values[:, 2] <= lo][:, :2]
        active = extract_front(active)
        hv += hypervolume_2d(active, reference[:2]) * (hi - lo)
    return float(hv)


def front_reference(*fronts) -> np.ndarray:
    """Componentwise max over all fronts, pushed out by a tenth of their span."""
    stacked = np.vstack([np.asarray(f, dtype=np.float64) for f in fronts if len(f)])
    top = stacked.max(axis=0)
    span = top - stacked.min(axis=0)
    return top + 0.1 * np.maximum(span, 1e-12)


def theorem_monitor(run: RunRecord, problem) -> MonitorSeries:
    """Recompute exact criticality along a recorded run and accumulate
    the step-size-weighted partial sums (the quantity the convergence
    results bound)."""
    if not run.steps:
        return MonitorSeries(np.array([], dtype=int), np.array([]), np.array([]), np.array([]))
    if len(run.iterates) != run.steps + 1:
        raise ValueError("run must carry its iterate sequence for monitoring")
    ks = np.arange(1, run.steps + 1)
    crit_sq = np.empty(run.steps)
    for i in range(run.steps):
        crit = criticality_measure(problem, run.iterates[i])
        crit_sq[i] = crit * crit
    return MonitorSeries(ks, run.alphas, crit_sq, np.cumsum(run.alphas * crit_sq))
