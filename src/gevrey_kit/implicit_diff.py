"""Arbitrary-order differentiation of implicitly defined solution maps.

Given an oracle for a residual R(d, u) whose state linearization is
invertible, the solution map S with R(d, S(d)) = 0 obeys a triangular
recursion.  Every derivative computed here is a mixed partial of
t -> S(data(t)) for a data map t -> data(t): the first partial is the solve

    d^{e_k} u = -(D2R)^{-1} [ D1R[d^{e_k} data] ],

and a partial of order |alpha| >= 2 follows from the multi-index
composition recursion of the chain rule (`higher_derivative`).
Directional mode is the affine data map t -> d + sum_k t_k h_k, whose
mixed partial at e_{k_1} + ... + e_{k_n} is D^nS(d)[h_{k_1}, ..., h_{k_n}].
A literal permutation-and-composition form is kept in
`higher_derivative_reference` as a cross-check for small orders.

An oracle may cache factorizations between calls (`PdeOracle` does), so
use one oracle per thread.  A `DerivativeTable` is filled order by order
and treated as immutable afterwards.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .combinatorics import MultiIndex, compositions, multi_index_compositions

__all__ = [
    "ResidualOracle",
    "PolynomialOracle",
    "DerivativeTable",
    "NonConvergenceError",
    "LinearizationError",
    "solve_residual",
    "first_derivative",
    "higher_derivative",
    "higher_derivative_reference",
    "affine_data_map",
    "derivative_table",
    "finite_difference_check",
    "scalar_quadratic_oracle",
    "scalar_cubic_oracle",
]


class NonConvergenceError(RuntimeError):
    """Newton iteration failed; carries the last residual norm."""

    def __init__(self, message: str, residual_norm: float):
        super().__init__(message)
        self.residual_norm = residual_norm


class LinearizationError(RuntimeError):
    """The state linearization could not be inverted."""


def default_norm(value) -> float:
    return float(np.linalg.norm(np.atleast_1d(np.asarray(value, dtype=float))))


class ResidualOracle:
    """Interface for residual equations R(d, u) = 0.

    Implementors provide the residual, its multilinear derivatives, a
    solver for the state linearization, and zero elements of the data and
    state spaces.  `apply_derivative` must be symmetric under permutation
    of its argument pairs and linear in each pair; `solve_linearized`
    must invert the map du -> apply_derivative(1, d, u, [(0, du)]).
    """

    def eval(self, d, u):
        raise NotImplementedError

    def apply_derivative(self, r: int, d, u, args: Sequence[tuple]):
        """Value of D^rR(d, u)[(dd_1, du_1), ..., (dd_r, du_r)]."""
        raise NotImplementedError

    def solve_linearized(self, d, u, rhs):
        """Apply the inverse of the state linearization at (d, u) to rhs."""
        raise NotImplementedError

    def max_derivative_order(self) -> int | None:
        """Largest r with D^rR not identically zero, or None if unbounded."""
        raise NotImplementedError

    def zero_data(self):
        raise NotImplementedError

    def zero_state(self):
        raise NotImplementedError

    def residual_norm(self, value) -> float:
        return default_norm(value)

    def state_norm(self, value) -> float:
        return default_norm(value)


class DerivativeTable:
    """Memoized partials d^alpha u of t -> S(data(t)) at a fixed base point.

    Keys are MultiIndex values; the base entry, stored under the zero
    multi-index, is the solution u = S(d) itself.  `data_partial(alpha)`
    returns d^alpha data at the base point.  Builders fill the table
    order by order, so every stored key has all of its sub-keys present.
    """

    def __init__(self, oracle: ResidualOracle, d, u,
                 data_partial: Callable[[MultiIndex], object]):
        self.oracle = oracle
        self.d = d
        self.u = u
        self.data_partial = data_partial
        self._entries: dict[MultiIndex, object] = {MultiIndex(): u}

    def entry(self, alpha: MultiIndex):
        try:
            return self._entries[alpha]
        except KeyError:
            raise LookupError(
                f"derivative table has no entry for {alpha.label()}; "
                "lower orders must be computed first"
            ) from None

    def put(self, alpha: MultiIndex, value) -> None:
        self._entries[alpha] = value

    def __len__(self) -> int:
        return len(self._entries)

    def items(self):
        return self._entries.items()

    def norms(self) -> dict:
        return {k: self.oracle.state_norm(v) for k, v in self._entries.items()}


def solve_residual(oracle: ResidualOracle, d, u0, tol: float,
                   max_iter: int = 100, max_halvings: int = 30):
    """Newton iteration with residual-norm step damping.

    Halves the step while the residual norm does not decrease (at most
    `max_halvings` times per step).  When no halving decreases it and the
    step is round-off, at most 16 * eps * dim(u) * ||u|| (the P1 benchmark
    stalls at about 0.1 * eps * dim(u) * ||u||), u is converged and is
    returned although its residual norm sits above tol; otherwise, and
    after `max_iter` iterations, NonConvergenceError is raised.
    """
    u = u0
    res = oracle.eval(d, u)
    rnorm = oracle.residual_norm(res)
    for _ in range(max_iter):
        if rnorm <= tol:
            return u
        step = oracle.solve_linearized(d, u, res)
        lam = 1.0
        for _ in range(max_halvings + 1):
            u_new = u - lam * step
            res_new = oracle.eval(d, u_new)
            rnorm_new = oracle.residual_norm(res_new)
            if rnorm_new < rnorm:
                break
            lam *= 0.5
        else:
            floor = 16.0 * np.finfo(float).eps * np.size(u) * oracle.state_norm(u)
            if oracle.state_norm(step) <= floor:
                return u
            raise NonConvergenceError(
                f"line search stalled at residual norm {rnorm:.3e}", rnorm
            )
        u, res, rnorm = u_new, res_new, rnorm_new
    if rnorm <= tol:
        return u
    raise NonConvergenceError(
        f"no convergence after {max_iter} iterations; residual norm {rnorm:.3e}", rnorm
    )


def first_derivative(oracle: ResidualOracle, d, u, h):
    """DS(d)[h] for a solved state u."""
    rhs = oracle.apply_derivative(1, d, u, [(h, oracle.zero_state())])
    return -oracle.solve_linearized(d, u, rhs)


def higher_derivative(oracle: ResidualOracle, table: DerivativeTable,
                      alpha: MultiIndex):
    """Mixed partial d^alpha u at the table's base point, |alpha| >= 2.

    Differentiating R(data(t), u(t)) = 0 with the multi-index chain rule
    and isolating the single term that contains the unknown partial gives

        d^alpha u = -(D2R)^{-1} [ D1R[d^alpha data]
            + sum_{r>=2} sum_{compositions beta of alpha into r parts}
              alpha!/(r! prod beta_j!) D^rR[(d^beta_j data, d^beta_j u)_j] ].

    All partials of strictly smaller order must already be in the table.
    Orders r above the oracle's maximal derivative order are skipped since
    those terms vanish identically.
    """
    n = alpha.order()
    if n < 2:
        raise ValueError("higher_derivative needs |alpha| >= 2")
    rhs = oracle.apply_derivative(
        1, table.d, table.u, [(table.data_partial(alpha), oracle.zero_state())]
    )
    mdo = oracle.max_derivative_order()
    r_max = n if mdo is None else min(n, mdo)
    alpha_fact = alpha.factorial()
    for r in range(2, r_max + 1):
        for comb in multi_index_compositions(alpha, r):
            denom = math.factorial(r)
            for beta in comb.parts:
                denom *= beta.factorial()
            coeff = float(Fraction(alpha_fact, denom))
            args = [(table.data_partial(beta), table.entry(beta)) for beta in comb.parts]
            rhs = rhs + coeff * oracle.apply_derivative(r, table.d, table.u, args)
    return -oracle.solve_linearized(table.d, table.u, rhs)


def higher_derivative_reference(oracle: ResidualOracle, table: DerivativeTable,
                                alpha: MultiIndex):
    """Literal permutation-and-composition form of the recursion.

    Writes alpha as n = |alpha| coordinate slots and sums
    1/r! * prod(1/i_j!) * D^rR over all permutations of the slots and all
    compositions (i_1, ..., i_r) of n with r >= 2, where a segment of the
    permuted slots contributes the data and solution partials along its
    coordinates; the r = 1 term contributes D1R[d^alpha data].
    Factorially expensive; intended for cross-checks with n <= 4.
    """
    slots = [k for k, e in alpha.entries for _ in range(e)]
    n = len(slots)
    if n < 2:
        raise ValueError("needs |alpha| >= 2")
    total = oracle.apply_derivative(
        1, table.d, table.u, [(table.data_partial(alpha), oracle.zero_state())]
    )
    for sigma in itertools.permutations(slots):
        for r in range(2, n + 1):
            for comp in compositions(n, r):
                coeff = 1.0 / math.factorial(r)
                args = []
                pos = 0
                for part in comp.parts:
                    seg = MultiIndex.make(Counter(sigma[pos:pos + part]))
                    pos += part
                    coeff /= math.factorial(part)
                    args.append((table.data_partial(seg), table.entry(seg)))
                total = total + coeff * oracle.apply_derivative(r, table.d, table.u, args)
    return -oracle.solve_linearized(table.d, table.u, total)


def affine_data_map(oracle: ResidualOracle, d, directions: Sequence):
    """Partials of the data map t -> d + sum_k t_k h_k, h_k = directions[k-1]."""
    zero = oracle.zero_data()

    def data_partial(alpha: MultiIndex):
        if alpha.is_zero():
            return d
        if alpha.order() == 1:
            return directions[alpha.support()[0] - 1]
        return zero

    return data_partial


def derivative_table(oracle: ResidualOracle, d, directions: Sequence,
                     max_order: int, *, u0=None, tol: float = 1e-12) -> DerivativeTable:
    """Solve the residual equation at d and fill all derivatives up to
    `max_order` along every sub-multiset of `directions`.

    Key coordinate k stands for directions[k-1].  Deterministic for fixed
    inputs: multisets are visited in sorted order, one order at a time.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    if u0 is None:
        u0 = oracle.zero_state()
    u = solve_residual(oracle, d, u0, tol)
    table = DerivativeTable(oracle, d, u, affine_data_map(oracle, d, directions))
    for k in range(1, max_order + 1):
        for combo in itertools.combinations_with_replacement(range(1, len(directions) + 1), k):
            alpha = MultiIndex.make(Counter(combo))
            if k == 1:
                value = first_derivative(oracle, d, u, directions[combo[0] - 1])
            else:
                value = higher_derivative(oracle, table, alpha)
            table.put(alpha, value)
    return table


def finite_difference_check(solution_map: Callable, d, directions: Sequence,
                            steps: Sequence[float], *, norm: Callable | None = None,
                            eval_noise: float = 0.0):
    """Mixed directional derivative of a black-box map by nested central
    differences with Richardson extrapolation in the squared step.

    The derivative order is len(directions) (at most 4; beyond that,
    cancellation destroys double precision).  Returns (estimate,
    indicator) where the indicator is the norm of the difference between
    the last two extrapolants; it tracks the quality of the estimate but
    is empirical, not a rigorous error bound.  When each evaluation of
    the map carries noise (an iterative inner solver, say), pass a bound
    on it as `eval_noise`: its worst-case amplification through the
    stencil and the extrapolation weights is added to the indicator,
    which otherwise underestimates the achievable agreement.
    """
    n = len(directions)
    if not 1 <= n <= 4:
        raise ValueError("derivative order must be between 1 and 4")
    steps = sorted((float(t) for t in steps), reverse=True)
    if len(steps) < 2 or len(set(steps)) != len(steps) or steps[-1] <= 0.0:
        raise ValueError("need at least two distinct positive steps")
    norm = norm or default_norm

    def stencil(t: float):
        acc = None
        for signs in itertools.product((1.0, -1.0), repeat=n):
            point = d
            for s, h in zip(signs, directions):
                point = point + (s * t) * h
            value = math.prod(signs) * solution_map(point)
            acc = value if acc is None else acc + value
        return (1.0 / (2.0 * t) ** n) * acc

    rows = [stencil(t) for t in steps]
    table = [[rows[0]]]
    for i in range(1, len(steps)):
        row = [rows[i]]
        for j in range(1, i + 1):
            fac = (steps[i - j] / steps[i]) ** 2 - 1.0
            row.append(row[j - 1] + (1.0 / fac) * (row[j - 1] - table[i - 1][j - 1]))
        table.append(row)
    estimate = table[-1][-1]
    indicator = float(norm(table[-1][-1] - table[-1][-2]))
    if eval_noise > 0.0:
        indicator += 2.0 * eval_noise / steps[-1] ** n
    return estimate, indicator


class PolynomialOracle(ResidualOracle):
    """Residual given by a polynomial in m data variables and one state
    variable; data vectors are numpy arrays of length m, states floats.

    `coeffs` maps exponent tuples of length m+1 (data exponents first,
    state exponent last) to real coefficients.  All derivatives are exact,
    and `max_derivative_order` is the total degree.
    """

    def __init__(self, n_data: int, coeffs: dict[tuple[int, ...], float]):
        if n_data < 1:
            raise ValueError("need at least one data variable")
        self.n_data = n_data
        self.n_vars = n_data + 1
        for exps in coeffs:
            if len(exps) != self.n_vars or any(e < 0 for e in exps):
                raise ValueError("exponent tuples must have length n_data + 1")
        self.coeffs = {tuple(exps): float(c) for exps, c in coeffs.items() if c != 0.0}
        self._degree = max((sum(e) for e in self.coeffs), default=0)
        self._partials: dict[tuple[int, ...], dict[tuple[int, ...], float]] = {
            (0,) * self.n_vars: self.coeffs
        }

    def _partial(self, counts: tuple[int, ...]) -> dict[tuple[int, ...], float]:
        cached = self._partials.get(counts)
        if cached is not None:
            return cached
        out: dict[tuple[int, ...], float] = {}
        for exps, c in self.coeffs.items():
            if any(e < k for e, k in zip(exps, counts)):
                continue
            factor = 1.0
            for e, k in zip(exps, counts):
                factor *= math.perm(e, k)
            new = tuple(e - k for e, k in zip(exps, counts))
            out[new] = out.get(new, 0.0) + c * factor
        self._partials[counts] = out
        return out

    @staticmethod
    def _eval(poly: dict[tuple[int, ...], float], point: np.ndarray) -> float:
        total = 0.0
        for exps, c in poly.items():
            term = c
            for x, e in zip(point, exps):
                if e:
                    term *= x**e
            total += term
        return total

    def _point(self, d, u) -> np.ndarray:
        return np.append(np.asarray(d, dtype=float), float(u))

    def eval(self, d, u) -> float:
        return self._eval(self.coeffs, self._point(d, u))

    def apply_derivative(self, r: int, d, u, args) -> float:
        if r < 1 or len(args) != r:
            raise ValueError("need r >= 1 argument pairs")
        point = self._point(d, u)
        m = self.n_data
        total = 0.0
        for assign in itertools.product(range(self.n_vars), repeat=r):
            counts = [0] * self.n_vars
            for var in assign:
                counts[var] += 1
            poly = self._partial(tuple(counts))
            if not poly:
                continue
            value = self._eval(poly, point)
            if value == 0.0:
                continue
            factor = 1.0
            for slot, var in enumerate(assign):
                dd, du = args[slot]
                factor *= float(dd[var]) if var < m else float(du)
            total += value * factor
        return total

    def solve_linearized(self, d, u, rhs) -> float:
        du = self._eval(self._partial((0,) * self.n_data + (1,)), self._point(d, u))
        if du == 0.0:
            raise LinearizationError("state linearization is singular")
        return float(rhs) / du

    def max_derivative_order(self) -> int:
        return self._degree

    def zero_data(self) -> np.ndarray:
        return np.zeros(self.n_data)

    def zero_state(self) -> float:
        return 0.0


def scalar_quadratic_oracle() -> PolynomialOracle:
    """R(d, u) = u - d**2, whose solution map is d -> d**2."""
    return PolynomialOracle(1, {(0, 1): 1.0, (2, 0): -1.0})


def scalar_cubic_oracle() -> PolynomialOracle:
    """R(d, u) = u**3 + u - d, the implicit cube-root-like benchmark."""
    return PolynomialOracle(1, {(0, 3): 1.0, (0, 1): 1.0, (1, 0): -1.0})
