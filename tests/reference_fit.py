"""Reference Nelder-Mead on numpy arrays: the oracle `phototherm.fit` must
match bit for bit.

It is the fit as it was written on numpy vectors: np.clip for the box,
np.mean for the centroid and vector arithmetic for every move. Only the
penalty's sum of squares is Python floats, summed axis by axis, as `fit`
sums it: a BLAS dot may fuse it on one machine and not on another. `fit` keeps its vertices in lists of Python
floats; each coordinate must take the same floats in the same order, so
both return the same values, SSE and iteration count. This fit evaluates
every candidate it meets, also one it met before; `fit` reuses the SSE of
a repeat, so its evaluations are this fit's distinct calls.
"""

import math
import warnings

import numpy as np

from phototherm import CalibrationResult, objective
from phototherm.calibrate import _MAX_ITERATIONS, _PENALTY_WEIGHT, _REL_SPREAD_TOL


def initial_simplex(specs, x0):
    """x0 plus one vertex per axis offset by 5% of the box width, stepping
    down instead of up when up would leave the box."""
    simplex = [x0.copy()]
    for i, spec in enumerate(specs):
        step = 0.05 * (spec.upper - spec.lower)
        vertex = x0.copy()
        vertex[i] = x0[i] + step if x0[i] + step <= spec.upper else x0[i] - step
        simplex.append(vertex)
    return simplex


def reference_fit(problem, outside=None):
    """The numpy fit. outside, when given, collects each evaluated point that
    lies outside the box, as one flag per axis: is it outside on that one."""
    specs = problem.free
    lower = np.array([s.lower for s in specs])
    upper = np.array([s.upper for s in specs])
    width = upper - lower
    x0 = np.array([s.initial for s in specs])

    evaluations = 0

    def penalized(x):
        nonlocal evaluations
        evaluations += 1
        clamped = np.clip(x, lower, upper)
        if outside is not None and (x != clamped).any():
            outside.append((x != clamped).tolist())
        penalty = 0.0
        for excess in ((x - clamped) / width).tolist():
            penalty += excess * excess
        return objective(problem, clamped) + _PENALTY_WEIGHT * penalty

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        simplex = initial_simplex(specs, x0)
        fvals = [penalized(v) for v in simplex]

        iterations = 0
        converged = False
        while iterations < _MAX_ITERATIONS:
            iterations += 1
            order = sorted(range(len(simplex)), key=fvals.__getitem__)
            simplex = [simplex[i] for i in order]
            fvals = [fvals[i] for i in order]
            if fvals[-1] - fvals[0] <= _REL_SPREAD_TOL * max(1.0, abs(fvals[0])):
                converged = True
                break

            centroid = np.mean(simplex[:-1], axis=0)
            worst = simplex[-1]
            reflected = centroid + (centroid - worst)
            f_reflected = penalized(reflected)
            if f_reflected < fvals[0]:
                expanded = centroid + 2.0 * (centroid - worst)
                f_expanded = penalized(expanded)
                if f_expanded < f_reflected:
                    simplex[-1], fvals[-1] = expanded, f_expanded
                else:
                    simplex[-1], fvals[-1] = reflected, f_reflected
            elif f_reflected < fvals[-2]:
                simplex[-1], fvals[-1] = reflected, f_reflected
            else:
                if f_reflected < fvals[-1]:
                    contracted = centroid + 0.5 * (reflected - centroid)
                else:
                    contracted = centroid - 0.5 * (centroid - worst)
                f_contracted = penalized(contracted)
                if f_contracted < min(f_reflected, fvals[-1]):
                    simplex[-1], fvals[-1] = contracted, f_contracted
                else:
                    best = simplex[0]
                    simplex = [best] + [best + 0.5 * (v - best) for v in simplex[1:]]
                    fvals = [fvals[0]] + [penalized(v) for v in simplex[1:]]

    best_idx = min(range(len(simplex)), key=fvals.__getitem__)
    fitted = np.clip(simplex[best_idx], lower, upper)
    sse = objective(problem, fitted)
    rmse = math.sqrt(sse / len(problem.target.times))
    return CalibrationResult(
        values={spec.name: float(v) for spec, v in zip(specs, fitted)},
        sse=sse, rmse=rmse, iterations=iterations, converged=converged,
        evaluations=evaluations + 1)
