"""Shared test references."""

import numpy as np
import pytest


def _reference_newton(oracle, d, u, tol):
    """`solve_residual` at one point, written out with the oracle's one-point
    forms; returns u, the steps taken and the halvings of the steps taken."""
    res = oracle.eval(d, u)
    rnorm = oracle.residual_norm(res)
    iterations = halvings = 0
    for _ in range(100):
        if rnorm <= tol:
            return u, iterations, halvings
        step = oracle.solve_linearized(d, u, res)
        lam = 1.0
        for tries in range(31):
            u_new = u - lam * step
            res_new = oracle.eval(d, u_new)
            rnorm_new = oracle.residual_norm(res_new)
            if rnorm_new < rnorm:
                break
            lam *= 0.5
        else:
            floor = 16.0 * np.finfo(float).eps * np.size(u) * oracle.state_norm(u)
            assert oracle.state_norm(step) <= floor
            return u, iterations, halvings
        u, res, rnorm = u_new, res_new, rnorm_new
        iterations, halvings = iterations + 1, halvings + tries
    raise AssertionError("reference Newton did not converge")


@pytest.fixture
def reference_newton():
    """The written-out one-point Newton, `reference_newton(oracle, d, u0, tol)`."""
    return _reference_newton
