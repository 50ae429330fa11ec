"""Reference Nelder-Mead on numpy arrays: a quality oracle for
`phototherm.fit`, whose SSE must not exceed this fit's.

It is the derivative-free fit the package used before its Levenberg-Marquardt
search: a simplex on numpy vectors, with np.clip for the box, a quadratic
penalty outside it and np.mean for the centroid. The penalty's sum of squares
is Python floats, summed axis by axis: a BLAS dot may fuse it on one machine
and not on another. Its constants are its own, with the values the package's
fit used.
"""

import math
import warnings

import numpy as np

from phototherm import CalibrationResult, objective

_MAX_ITERATIONS = 500
_REL_SPREAD_TOL = 1e-8
_PENALTY_WEIGHT = 1e6


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


def reference_fit(problem):
    """The numpy fit; evaluations counts every objective call."""
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
