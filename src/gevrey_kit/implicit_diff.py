"""Arbitrary-order differentiation of implicitly defined solution maps.

Given an oracle for a residual R(d, u) whose state linearization is
invertible, the solution map S with R(d, S(d)) = 0 obeys a triangular
recursion.  Every derivative computed here is a mixed partial of
t -> S(data(t)) for a data map t -> data(t): the first partial is the solve

    d^{e_k} u = -(D2R)^{-1} [ D1R[d^{e_k} data] ],

and a partial of order |alpha| >= 2 follows from the multi-index
composition recursion of the chain rule (`higher_derivative`), a sum over
the unordered compositions of alpha with multiplicity weights.
Directional mode is the affine data map t -> d + sum_k t_k h_k, whose
mixed partial at e_{k_1} + ... + e_{k_n} is D^nS(d)[h_{k_1}, ..., h_{k_n}].
A `DerivativeTable` holds its data map in one form only, the normalized
coefficients d^alpha data / alpha!, and scales them by alpha! where the
composition sum asks for partials.

`fill_table` fills a table order by order in one form, for every oracle:
the oracle's `taylor_expansion` propagates normalized coefficients
u_alpha = d^alpha u / alpha!.  The alpha-coefficient of
t -> R(data(t), u(t)) is affine in u_alpha with the state linearization as
its slope, so with u_alpha set to zero it gives the right-hand side of a
linearized solve (Taylor arithmetic; Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008, ch. 13).  All keys of one order are
independent of each other, so the expansion forms their right-hand sides
at once and one solve takes them as columns.  Both expansions, the PDE's
and the scalar `PolynomialOracle`'s, form their Cauchy products with
`combinatorics.SplitPlan.cauchy`.  The composition sum
(`first_derivative`, `higher_derivative`) fills no table: it is the
independent oracle the tests compare the Taylor tables with, and the
literal permutation-and-composition form that cross-checks it at small
orders is an independent oracle in `selftest`.

`finite_difference_table` checks a table against difference quotients of a
black-box solution map.  The nested central difference of a key
alpha = sum_k n_k e_k is a product of one-dimensional binomial central
differences, so its stencil points are d + t sum_k c_k h_k with
c_k = n_k - 2 j_k, 0 <= j_k <= n_k.  Keys of a table share most of these
points, and a memo for the whole call solves each distinct (t, c) once;
the point c = 0 is shared by all steps.  `finite_difference_check` is
the one-key case for a list of directions.

An oracle may cache factorizations between calls (`PdeOracle` does), so
use one oracle per thread.  A `DerivativeTable` is filled order by order
and treated as immutable afterwards.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .combinatorics import MultiIndex, SplitPlan, multi_index_partitions

__all__ = [
    "ResidualOracle",
    "PolynomialOracle",
    "DerivativeTable",
    "NonConvergenceError",
    "LinearizationError",
    "solve_residual",
    "first_derivative",
    "higher_derivative",
    "fill_table",
    "affine_data_map",
    "derivative_table",
    "finite_difference_table",
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
    solver for the state linearization, the Taylor expansion that fills
    derivative tables, and zero elements of the data and state spaces.
    `apply_derivative` must be symmetric under permutation of its argument
    pairs and linear in each pair; `solve_linearized` must invert the map
    du -> apply_derivative(1, d, u, [(0, du)]).
    """

    def eval(self, d, u):
        raise NotImplementedError

    def apply_derivative(self, r: int, d, u, args: Sequence[tuple]):
        """Value of D^rR(d, u)[(dd_1, du_1), ..., (dd_r, du_r)]."""
        raise NotImplementedError

    def solve_linearized(self, d, u, rhs):
        """Apply the inverse of the state linearization at (d, u) to rhs,
        also to an array whose columns (entries, for a scalar state) are
        right-hand sides."""
        raise NotImplementedError

    def taylor_expansion(self, table: "DerivativeTable", keys: Sequence[MultiIndex]):
        """Taylor-coefficient form of the table's fill over `keys`.

        `keys` are the fill's nonzero keys, by nondecreasing order.  The
        expansion has `residual_coefficients(m)`: the alpha-coefficients
        of t -> R(data(t), u(t)) for the keys alpha of order m, in their
        order, with each u_alpha = d^alpha u / alpha! set to zero, as the
        columns of one array.  `record(m, solved)` takes the solved
        coefficients of order m as the columns of `solved`.  `fill_table`
        asks for order m only after every lower order is recorded.
        """
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
    multi-index, is the solution u = S(d) itself.  The data map enters once,
    as `data_coefficient(alpha)` = d^alpha data / alpha! at the base point,
    the form the Taylor-coefficient fill reads; `data_partial` scales it
    back for the composition sum.  Builders fill the table order by order,
    so every stored key has all of its sub-keys present.
    """

    def __init__(self, oracle: ResidualOracle, d, u,
                 data_coefficient: Callable[[MultiIndex], object]):
        self.oracle = oracle
        self.d = d
        self.u = u
        self.data_coefficient = data_coefficient
        self._entries: dict[MultiIndex, object] = {MultiIndex(): u}

    def data_partial(self, alpha: MultiIndex):
        """d^alpha data = alpha! * data_coefficient(alpha)."""
        fact = alpha.factorial()
        coefficient = self.data_coefficient(alpha)
        return coefficient if fact == 1 else fact * coefficient

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


def solve_residual(oracle: ResidualOracle, d, u0, tol: float, max_iter: int = 100):
    """Newton iteration with residual-norm step damping.

    Halves the step while the residual norm does not decrease (at most 30
    times per step).  When no halving decreases it and the step is
    round-off, at most 16 * eps * dim(u) * ||u|| (the P1 benchmark
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
        for _ in range(31):  # the full step, then up to 30 halvings
            u_new = u - step if lam == 1.0 else u - lam * step  # 1.0 * step is exact
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

    D^rR is symmetric, so the sum runs over unordered compositions (multisets
    of parts), each weighted by its r!/prod m_i! orderings, m_i the
    multiplicities of its distinct parts: the weight becomes
    alpha!/(prod m_i! prod beta_j!).  All partials of strictly smaller order
    must already be in the table.  Terms of an order r above the degree of
    R in (d, u) are exact zeros.
    """
    n = alpha.order()
    if n < 2:
        raise ValueError("higher_derivative needs |alpha| >= 2")
    rhs = oracle.apply_derivative(
        1, table.d, table.u, [(table.data_partial(alpha), oracle.zero_state())]
    )
    alpha_fact = alpha.factorial()
    for r in range(2, n + 1):
        for parts in multi_index_partitions(alpha, r):
            denom = 1
            for m in Counter(parts).values():
                denom *= math.factorial(m)
            for beta in parts:
                denom *= beta.factorial()
            coeff = float(Fraction(alpha_fact, denom))
            args = [(table.data_partial(beta), table.entry(beta)) for beta in parts]
            rhs = rhs + coeff * oracle.apply_derivative(r, table.d, table.u, args)
    return -oracle.solve_linearized(table.d, table.u, rhs)


def fill_table(table: DerivativeTable, alphas: Iterable[MultiIndex]) -> DerivativeTable:
    """Put d^alpha u into the table for every nonzero alpha of `alphas`,
    which lists the keys by nondecreasing order and each alpha after all
    of its sub-indices; the table's rows keep that order.

    Each order is filled at once through the oracle's Taylor expansion:
    the residual coefficients of all its keys are the columns of one
    right-hand side, one call of `solve_linearized` gives their u_alpha,
    and each entry is alpha! u_alpha.  Raises ValueError when the orders
    of `alphas` decrease.
    """
    keys = [alpha for alpha in alphas if not alpha.is_zero()]
    if any(a.order() > b.order() for a, b in zip(keys, keys[1:])):
        raise ValueError("fill keys must be listed by nondecreasing order")
    oracle, d, u = table.oracle, table.d, table.u
    taylor = oracle.taylor_expansion(table, keys)
    for m, block in itertools.groupby(keys, MultiIndex.order):
        solved = -oracle.solve_linearized(d, u, taylor.residual_coefficients(m))
        taylor.record(m, solved)
        for i, alpha in enumerate(block):
            table.put(alpha, alpha.factorial() * solved[..., i])
    return table


def affine_data_map(oracle: ResidualOracle, d, directions: Sequence):
    """Normalized partials d^alpha data / alpha! of the data map
    t -> d + sum_k t_k h_k, h_k = directions[k-1]: alpha! is 1 up to order
    one, and the map vanishes beyond."""
    zero = oracle.zero_data()

    def data_coefficient(alpha: MultiIndex):
        if alpha.is_zero():
            return d
        if alpha.order() == 1:
            return directions[alpha.support()[0] - 1]
        return zero

    return data_coefficient


def derivative_table(oracle: ResidualOracle, d, directions: Sequence,
                     max_order: int, *, tol: float = 1e-12) -> DerivativeTable:
    """Solve the residual equation at d and fill all derivatives up to
    `max_order` along every sub-multiset of `directions`.

    Key coordinate k stands for directions[k-1].  Deterministic for fixed
    inputs: multisets are visited in sorted order, one order at a time.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    u = solve_residual(oracle, d, oracle.zero_state(), tol)
    table = DerivativeTable(oracle, d, u, affine_data_map(oracle, d, directions))
    coords = range(1, len(directions) + 1)
    return fill_table(table, (
        MultiIndex.make(Counter(combo))
        for k in range(1, max_order + 1)
        for combo in itertools.combinations_with_replacement(coords, k)
    ))


def finite_difference_table(solution_map: Callable, d, directions: Sequence,
                            keys: Iterable[MultiIndex], steps: Sequence[float], *,
                            norm: Callable | None = None, eval_noise: float = 0.0) -> dict:
    """Mixed partials d^alpha of t -> solution_map(d + sum_k t_k h_k),
    h_k = directions[k-1], by central differences with Richardson
    extrapolation in the squared step, for every alpha of `keys`.

    The nested central difference of alpha = sum_k n_k e_k at step t is a
    product of one-dimensional binomial central differences:

        (2t)^{-|alpha|} sum_j prod_k (-1)^{j_k} C(n_k, j_k) S(d + sum_k c_k t h_k)

    with c_k = n_k - 2 j_k.  A stencil point depends on (t, c) only, and is
    built the same way for every key (nonzero c_k only, in ascending k), so
    each distinct point is solved once per call: the values are memoized
    for the whole call, and the point c = 0, which is d itself, is shared by
    all steps.  Each key keeps its own Richardson table and indicator.

    Orders 1 <= |alpha| <= 4 are accepted; beyond that, cancellation
    destroys double precision.  Returns {alpha: (estimate, indicator)},
    where the indicator is the norm of the difference between the last two
    extrapolants; it tracks the quality of the estimate but is empirical,
    not a rigorous error bound.  When each evaluation of the map carries
    noise (an iterative inner solver, say), pass a bound on it as
    `eval_noise`: its worst-case amplification through the stencil and the
    extrapolation weights is added to the indicator, which otherwise
    underestimates the achievable agreement.
    """
    keys = list(keys)
    for alpha in keys:
        if not 1 <= alpha.order() <= 4:
            raise ValueError("derivative order must be between 1 and 4")
        if alpha.support()[-1] > len(directions):
            raise ValueError(f"{alpha.label()} has no direction for every coordinate")
    steps = sorted((float(t) for t in steps), reverse=True)
    if len(steps) < 2 or len(set(steps)) != len(steps) or steps[-1] <= 0.0:
        raise ValueError("need at least two distinct positive steps")
    norm = norm or default_norm
    memo: dict[tuple, object] = {}

    def value(t: float, c: tuple[tuple[int, int], ...]):
        key = (t, c) if c else ()
        if key not in memo:
            point = d
            for k, ck in c:
                point = point + (ck * t) * directions[k - 1]
            memo[key] = solution_map(point)
        return memo[key]

    def stencil(alpha: MultiIndex, t: float):
        acc = None
        for js in itertools.product(*(range(n + 1) for _, n in alpha.entries)):
            coeff = 1.0
            c = []
            for (k, n), j in zip(alpha.entries, js):
                coeff *= (-1) ** j * math.comb(n, j)
                if n != 2 * j:
                    c.append((k, n - 2 * j))
            term = coeff * value(t, tuple(c))
            acc = term if acc is None else acc + term
        return (1.0 / (2.0 * t) ** alpha.order()) * acc

    def extrapolate(alpha: MultiIndex):
        rows = [stencil(alpha, t) for t in steps]
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
            indicator += 2.0 * eval_noise / steps[-1] ** alpha.order()
        return estimate, indicator

    return {alpha: extrapolate(alpha) for alpha in keys}


def finite_difference_check(solution_map: Callable, d, directions: Sequence,
                            steps: Sequence[float], *, norm: Callable | None = None,
                            eval_noise: float = 0.0):
    """Mixed directional derivative D^nS(d)[h_1, ..., h_n] of a black-box map,
    n = len(directions) between 1 and 4, by nested central differences with
    Richardson extrapolation in the squared step.

    This is the one-key case of `finite_difference_table`, with each listed
    direction as its own coordinate (key e_1 + ... + e_n): the stencil is
    the sum over the 2^n sign vectors s of prod(s) S(d + sum_k s_k t h_k)
    over (2t)^n, and the per-call memo merges no two of its points.
    Returns (estimate, indicator) as described there.
    """
    key = MultiIndex(tuple((k, 1) for k in range(1, len(directions) + 1)))
    return finite_difference_table(solution_map, d, directions, [key], steps,
                                   norm=norm, eval_noise=eval_noise)[key]


class PolynomialOracle(ResidualOracle):
    """Residual given by a polynomial in m data variables and one state
    variable; data vectors are numpy arrays of length m, states floats.

    `coeffs` maps exponent tuples of length m+1 (data exponents first,
    state exponent last) to real coefficients.  All derivatives are exact,
    and those of an order above the total degree are exact zeros.
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

    def solve_linearized(self, d, u, rhs):
        du = self._eval(self._partial((0,) * self.n_data + (1,)), self._point(d, u))
        if du == 0.0:
            raise LinearizationError("state linearization is singular")
        return rhs / du

    def taylor_expansion(self, table, keys) -> "_PolynomialExpansion":
        return _PolynomialExpansion(self, table, keys)

    def zero_data(self) -> np.ndarray:
        return np.zeros(self.n_data)

    def zero_state(self) -> float:
        return 0.0


class _PolynomialExpansion:
    """Normalized Taylor coefficients of a `PolynomialOracle`'s variables
    along a table's data map, filled one order at a time for `fill_table`.

    Each variable's series is an array per order, with a row per position
    of the fill's `SplitPlan` and a column per variable: the data
    coefficients first, u_alpha last.  A monomial's series is the Cauchy
    product of its factors' series, formed anew per order up to that order,
    so u_alpha of the order itself is zero in it, and the residual
    coefficients sum the monomials' series with their coefficients.
    """

    def __init__(self, oracle: PolynomialOracle, table: DerivativeTable,
                 keys: Sequence[MultiIndex]):
        plan = self._plan = SplitPlan(keys)
        self._series = [np.append(table.d, table.u)[None]]
        for m in range(1, plan.max_order + 1):
            self._series.append(np.array([
                np.append(table.data_coefficient(alpha), 0.0)
                for alpha in keys[plan.starts[m] - 1:plan.starts[m + 1] - 1]]))
        # each monomial of positive degree as its coefficient and the
        # column of every factor, repeated by exponent
        self._monomials = [(c, [i for i, e in enumerate(exps) for _ in range(e)])
                           for exps, c in oracle.coeffs.items() if any(exps)]

    def residual_coefficients(self, m: int) -> np.ndarray:
        """Residual coefficients of every key of order m with its own
        u_alpha set to zero."""
        plan, series = self._plan, self._series[:m + 1]
        out = np.zeros(plan.size(m))
        for c, factors in self._monomials:
            product = [s[:, factors[:1]] for s in series]
            for i in factors[1:]:
                factor = [s[:, [i]] for s in series]
                next_product = []
                for n in range(m + 1):
                    acc = np.zeros((plan.size(n), 1))
                    for k in range(n + 1):
                        plan.cauchy(acc, n, k, product[k], factor[n - k])
                    next_product.append(acc)
                product = next_product
            out += c * product[m][:, 0]
        return out

    def record(self, m: int, solved: np.ndarray) -> None:
        """Write the solved u_alpha of order m into u's column."""
        self._series[m][:, -1] = solved


def scalar_quadratic_oracle() -> PolynomialOracle:
    """R(d, u) = u - d**2, whose solution map is d -> d**2."""
    return PolynomialOracle(1, {(0, 1): 1.0, (2, 0): -1.0})


def scalar_cubic_oracle() -> PolynomialOracle:
    """R(d, u) = u**3 + u - d, the implicit cube-root-like benchmark."""
    return PolynomialOracle(1, {(0, 3): 1.0, (0, 1): 1.0, (1, 0): -1.0})
