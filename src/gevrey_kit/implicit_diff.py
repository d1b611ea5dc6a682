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
A `DerivativeTable` is one array per order in the order of its
`combinatorics.SplitPlan`, and holds its data map once, as the normalized
coefficients d^alpha data / alpha!.

`fill_table` builds a finished table from the solved base point, the plan
and the data map, order by order in one form for every oracle: the
oracle's `taylor_expansion` propagates normalized coefficients
u_alpha = d^alpha u / alpha!.  The alpha-coefficient of
t -> R(data(t), u(t)) is affine in u_alpha with the state linearization as
its slope, so with u_alpha set to zero it gives the right-hand side of a
linearized solve (Taylor arithmetic; Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008, ch. 13).  All keys of one order are
independent of each other, so the expansion forms their right-hand sides
at once, one solve takes them as columns, and one call does the order.
Both expansions, the PDE's and the scalar `PolynomialOracle`'s, form their
Cauchy products with `combinatorics.SplitPlan.cauchy`.  The composition sum
(`first_derivative`, `higher_derivative`) fills no table: it is the
independent oracle the tests compare the Taylor tables with, and the
literal permutation-and-composition form that cross-checks it at small
orders is an independent oracle in `selftest`.

`solve_residual_stack` is the one damped Newton loop: it runs over a block
of data points stacked along a leading axis (`stack_data`) in lockstep, in
stacks of the oracle's `stack_points`, through the oracle's `stack` forms
(point by point by default, see `PointStack`), and each point gets the
bytes of a solve of its own; `solve_residual` is a block of one, and can
return the residual norm its last evaluation computed.

`finite_difference_table` checks a table against difference quotients of a
black-box solution map.  The nested central difference of a key
alpha = sum_k n_k e_k is a product of one-dimensional binomial central
differences, so its stencil points are d + sum_k (c_k t) h_k with
c_k = n_k - 2 j_k, 0 <= j_k <= n_k.  Keys of a table share most of these
points, and halving steps repeat them (c t = 2c (t/2)), so the points of
all keys and steps are written, each into a row of a block, told apart by
their bytes, and the map solves the distinct ones block by block, each
block one stack for a stacked solve; the point c = 0 is shared by all
steps.  `finite_difference_check` is the one-key case for a list of
directions.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import sys
from collections import Counter
from typing import Callable, Iterable, Sequence

import numpy as np

from .combinatorics import MultiIndex, SplitPlan, multi_index_partitions

__all__ = [
    "ResidualOracle",
    "PolynomialOracle",
    "DerivativeTable",
    "NonConvergenceError",
    "LinearizationError",
    "PointStack",
    "stack_data",
    "solve_residual",
    "solve_residual_stack",
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

    def taylor_expansion(self, d, u, plan: SplitPlan, data_block: Callable[[int], object]):
        """Taylor-coefficient form of the fill of `plan` at the solved state
        u of d, whose data coefficients of order m are `data_block(m)`.

        The expansion has `solve(m)`: the coefficients
        u_alpha = d^alpha u / alpha! of the keys alpha of order m, a row
        each (an entry for a scalar state) in plan order, solved from the
        alpha-coefficients of t -> R(data(t), u(t)) with each u_alpha set to
        zero and taken into its series.  `fill_table` asks for order m only
        after every lower order.
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

    #: Points that `solve_residual_stack` solves together: all of them for
    #: the per-point default forms.
    stack_points = sys.maxsize

    def stack(self, ds) -> "PointStack":
        """The Newton forms at the data points of the block ds (see
        `stack_data`), evaluated together."""
        return PointStack(self, [_block_rows(ds, i) for i in range(_block_size(ds))])


def _fields(x) -> list:
    """The fields of a data value in order: a dataclass's, else x itself."""
    if dataclasses.is_dataclass(x):
        return [getattr(x, f.name) for f in dataclasses.fields(x)]
    return [x]


def _like(x, fields: list):
    """A data value of x's kind with the given fields."""
    return type(x)(*fields) if dataclasses.is_dataclass(x) else fields[0]


def stack_data(points: Sequence):
    """A block of data points: the points stacked along a leading axis, field
    by field for a dataclass (a `PdeData` of stacked fields, say)."""
    return _like(points[0], [np.array(column) for column in zip(*map(_fields, points))])


def _block_rows(block, rows):
    """The points `rows` of a block: a block for a slice or an index list, a
    data point for an index."""
    return _like(block, [field[rows] for field in _fields(block)])


def _block_size(block) -> int:
    return len(_fields(block)[0])


class PointStack:
    """The Newton forms at a list of data points, point by point (the
    default of `ResidualOracle.stack`): `eval(us)` gives the residuals and
    their norms at one state per point, `solve_linearized(rows, rhs)` the
    linearized solves at the points `rows` of the states last evaluated,
    and `take(rows)` the stack of the points `rows`.
    """

    def __init__(self, oracle: ResidualOracle, ds: list):
        self.oracle, self.ds, self.us = oracle, ds, None

    def eval(self, us: list) -> tuple[list, list]:
        self.us = us
        res = [self.oracle.eval(d, u) for d, u in zip(self.ds, us)]
        return res, [self.oracle.residual_norm(r) for r in res]

    def solve_linearized(self, rows: list, rhs: list) -> list:
        return [self.oracle.solve_linearized(self.ds[i], self.us[i], r)
                for i, r in zip(rows, rhs)]

    def take(self, rows: list) -> "PointStack":
        return PointStack(self.oracle, [self.ds[i] for i in rows])


class DerivativeTable:
    """Partials d^alpha u of t -> S(data(t)) at a fixed base point, as
    `fill_table` builds them.

    `orders[m]` holds the partials of the keys of order m of `plan`, a row
    each (an entry for a scalar state) in plan order; order 0 is u = S(d)
    itself.  The data map enters once, as `data_coefficient(alpha)` =
    d^alpha data / alpha! at the base point.
    """

    def __init__(self, oracle: ResidualOracle, d, u, plan: SplitPlan, orders: list,
                 data_coefficient: Callable[[MultiIndex], object]):
        self.oracle, self.d, self.u = oracle, d, u
        self.plan, self.orders = plan, orders
        self.data_coefficient = data_coefficient

    def data_partial(self, alpha: MultiIndex):
        """d^alpha data = alpha! * data_coefficient(alpha)."""
        fact = alpha.factorial()
        coefficient = self.data_coefficient(alpha)
        return coefficient if fact == 1 else fact * coefficient

    def entry(self, alpha: MultiIndex):
        try:
            m, row = self.plan.position(alpha)
        except LookupError:
            raise LookupError(f"derivative table has no entry for {alpha.label()}") from None
        return self.orders[m][row]

    def __len__(self) -> int:
        return sum(map(len, self.orders))

    def items(self):
        """(alpha, entry) pairs, order by order in plan order."""
        return zip(self.plan.keys(), (row for block in self.orders for row in block))

    def norms(self) -> dict:
        return {k: self.oracle.state_norm(v) for k, v in self.items()}


def solve_residual(oracle: ResidualOracle, d, u0, tol: float, max_iter: int = 100,
                   return_norm: bool = False):
    """`solve_residual_stack` at the one data point d.  With return_norm,
    returns (u, the residual norm at u), the norm that the Newton loop's
    last evaluation computed."""
    u, rnorm = _newton(oracle, stack_data([d]), u0, tol, max_iter)[0]
    return (u, rnorm) if return_norm else u


class _NewtonPoint:
    """A point of a `_newton` block: its position, the iterate
    with its residual, residual norm and steps taken, and the step of the
    line search (None at a new iterate) with its scale."""

    __slots__ = ("index", "u", "res", "rnorm", "iterations", "step", "lam")

    def __init__(self, index: int, u, res, rnorm: float):
        self.index, self.u, self.res, self.rnorm = index, u, res, rnorm
        self.iterations, self.step = 0, None


def solve_residual_stack(oracle: ResidualOracle, ds, u0, tol: float,
                         max_iter: int = 100) -> list:
    """Damped Newton iteration from u0 at every data point of the block ds,
    points stacked along a leading axis (see `stack_data`); returns the
    states in order.

    At each point, the step is halved while the residual norm does not
    decrease (at most 30 times per step).  When no halving decreases it and
    the step is round-off, at most 16 * eps * dim(u) * ||u|| (the P1
    benchmark stalls at about 0.1 * eps * dim(u) * ||u||), u is converged
    and is returned although its residual norm sits above tol; otherwise,
    and after `max_iter` (>= 0) iterations, NonConvergenceError is raised.

    Stacks of `oracle.stack_points` points are solved in lockstep through
    the oracle's `stack` forms, on the rows of ds themselves (a block of at
    most that many points is its own stack): each round linearizes the
    points at a new iterate and evaluates a trial state at every point, and
    a point that is done leaves the stack.  Each point takes the steps and
    tests it would take alone, so its state is a one-point solve's bytes; an
    error at any point propagates.
    """
    return [u for u, _ in _newton(oracle, ds, u0, tol, max_iter)]


def _newton(oracle: ResidualOracle, ds, u0, tol: float, max_iter: int) -> list:
    """`solve_residual_stack`'s iteration: (state, residual norm) per point."""
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    out = []
    size, per_stack = _block_size(ds), oracle.stack_points
    for start in range(0, size, per_stack):
        n = min(per_stack, size - start)
        stack = oracle.stack(ds if n == size else _block_rows(ds, slice(start, start + n)))
        done, us = [None] * n, [u0] * n
        points = list(map(_NewtonPoint, range(n), us, *stack.eval(us)))
        while points:
            linearize = []  # points at a new iterate that are not done
            for row, p in enumerate(points):
                if p.step is not None:
                    continue
                if p.rnorm <= tol:
                    done[p.index] = p.u, p.rnorm
                elif p.iterations == max_iter:
                    raise NonConvergenceError(f"no convergence after {max_iter} iterations; "
                                              f"residual norm {p.rnorm:.3e}", p.rnorm)
                else:
                    linearize.append(row)
            if linearize:
                for row, step in zip(linearize, stack.solve_linearized(
                        linearize, [points[row].res for row in linearize])):
                    points[row].step, points[row].lam = step, 1.0
            keep = [row for row, p in enumerate(points) if done[p.index] is None]
            if len(keep) < len(points):
                if not keep:
                    break
                points, stack = [points[row] for row in keep], stack.take(keep)
            # a full step skips the product: 1.0 * step is step, bit for bit
            trial = [p.u - (p.step if p.lam == 1.0 else p.lam * p.step) for p in points]
            for p, u, res, rnorm in zip(points, trial, *stack.eval(trial)):
                if rnorm < p.rnorm:
                    p.u, p.res, p.rnorm, p.step = u, res, rnorm, None
                    p.iterations += 1
                    continue
                p.lam *= 0.5
                if p.lam == 0.5**31:  # the full step and 30 halvings failed
                    floor = 16.0 * np.finfo(float).eps * np.size(p.u) * oracle.state_norm(p.u)
                    if oracle.state_norm(p.step) > floor:
                        raise NonConvergenceError(
                            f"line search stalled at residual norm {p.rnorm:.3e}", p.rnorm)
                    done[p.index] = p.u, p.rnorm
        out += done
    return out


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
    from fractions import Fraction  # here: of the commands, only selftest runs this oracle

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


def fill_table(oracle: ResidualOracle, d, u, plan: SplitPlan,
               data_coefficient: Callable[[MultiIndex], object],
               data_block: Callable[[int], object] | None = None) -> DerivativeTable:
    """The table of d^alpha u for every key of the plan at the solved state
    u of d, along the data map with coefficients `data_coefficient`.

    `data_block(m)` gives the data coefficients of the keys of order m
    stacked along a leading axis, field by field for a dataclass; by
    default, those of `data_coefficient`, key by key.  Each order is filled
    in one call of the oracle's Taylor expansion: the residual coefficients
    of all its keys are the columns of one right-hand side, one linearized
    solve gives their u_alpha, and the order's array is alpha! u_alpha, a
    row per key.
    """
    if data_block is None:
        def data_block(m: int):
            return stack_data([data_coefficient(alpha) for alpha in plan.keys(m)])

    taylor = oracle.taylor_expansion(d, u, plan, data_block)
    orders = [np.asarray(u)[None]]
    for m in range(1, plan.max_order + 1):
        rows = taylor.solve(m)
        facts = plan.factorials(m).astype(float).reshape((-1,) + (1,) * (rows.ndim - 1))
        orders.append(np.multiply(facts, rows, order="C"))
    return DerivativeTable(oracle, d, u, plan, orders, data_coefficient)


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
    coords = range(1, len(directions) + 1)
    plan = SplitPlan([MultiIndex.make(Counter(combo))
                      for k in range(1, max_order + 1)
                      for combo in itertools.combinations_with_replacement(coords, k)])
    return fill_table(oracle, d, u, plan, affine_data_map(oracle, d, directions))


def finite_difference_table(solution_map: Callable, d, directions: Sequence,
                            keys: Iterable[MultiIndex], steps: Sequence[float], *,
                            norm: Callable | None = None, eval_noise: float = 0.0,
                            block_points: int = sys.maxsize) -> dict:
    """Mixed partials d^alpha of t -> S(d + sum_k t_k h_k), h_k =
    directions[k-1], by central differences with Richardson extrapolation in
    the squared step, for every alpha of `keys`.  The solution map takes a
    block of at most `block_points` data points stacked along a leading axis
    (see `stack_data`) and returns the list of their states S in order.

    The nested central difference of alpha = sum_k n_k e_k at step t is a
    product of one-dimensional binomial central differences:

        (2t)^{-|alpha|} sum_j prod_k (-1)^{j_k} C(n_k, j_k) S(d + sum_k c_k t h_k)

    with c_k = n_k - 2 j_k.  A stencil point depends on its offsets c_k t
    only, and is built from them the same way for every key and step
    (nonzero c_k only, in ascending k), bit for bit the sum
    d + (c_1 t) h_1 + ... of numpy arrays or `PdeData` values.  The points
    of all keys and steps are written in the order the stencils reach them,
    each set of offsets once, into the next row of a block: one row holds
    a point's fields end to end, and the block's fields are views of its
    rows, so the map reads the rows where they were written.  Points are
    told apart by a row's bytes (a `PdeData`'s are a, b, f and g in turn):
    by a sample of them, and where samples agree by all of them, against
    the earlier point written again into a spare row, so a point that
    repeats an earlier one is overwritten by the next.  A full block goes to
    the map, and the next one is written only after the map has returned,
    so at most one block of points is alive: `block_points` rows, each the
    size of d.  A point that recurs across steps (c t = 2c (t/2) when the
    steps halve) is solved once, and so is one that other offsets reach
    only once added to d (collinear directions of a one-dimensional data
    space); the point c = 0, which is d itself, is shared by all steps.
    Each key keeps its own Richardson table and indicator.

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
    if (len(steps) < 2 or not all(0.0 < t < math.inf for t in steps)
            or len(set(steps)) != len(steps)):
        raise ValueError("need at least two distinct finite positive steps")
    if not eval_noise >= 0.0:
        raise ValueError("eval_noise must be a nonnegative bound")
    if block_points < 1:
        raise ValueError("block_points must be >= 1")
    norm = norm or default_norm

    def stencil(alpha: MultiIndex, t: float) -> list:
        """(coefficient, point) of each term, a point as its offsets
        ((k, c_k t), ...) and d as ()."""
        terms = []
        for js in itertools.product(*(range(n + 1) for _, n in alpha.entries)):
            coeff = 1.0
            offsets = []
            for (k, n), j in zip(alpha.entries, js):
                coeff *= (-1) ** j * math.comb(n, j)
                if n != 2 * j:
                    offsets.append((k, (n - 2 * j) * t))
            terms.append((coeff, tuple(offsets)))
        return terms

    # a point's fields end to end, as one row of doubles: d's and each
    # direction's (integer data is promoted as d + offset * h promotes it)
    fields = _fields(d)
    shapes = [np.shape(field) for field in fields]
    bounds = np.cumsum([0] + [math.prod(shape) for shape in shapes])
    flat = lambda x: np.concatenate([np.ravel(field) for field in _fields(x)], dtype=float)
    base, rays = flat(d), [flat(h) for h in directions]
    spare, term = np.empty_like(base), np.empty_like(base)

    def write(row: np.ndarray, offsets: tuple) -> bytes:
        """The point of the offsets, d + (c_1 t) h_1 + ... left to right, into
        the row; returns its bytes."""
        if not offsets:
            row[...] = base
            return row.tobytes()
        (k, offset), *rest = offsets
        np.add(base, np.multiply(rays[k - 1], offset, out=row), out=row)
        for k, offset in rest:
            np.add(row, np.multiply(rays[k - 1], offset, out=term), out=row)
        return row.tobytes()

    def block(rows: np.ndarray):
        """The points of the rows as a data block whose fields are views."""
        return _like(d, [rows[:, lo:hi].reshape((len(rows),) + shape)
                         for lo, hi, shape in zip(bounds[:-1], bounds[1:], shapes)])

    stencils = {alpha: [stencil(alpha, t) for t in steps] for alpha in keys}
    # the offsets of each point -> those of the first point with its bytes
    first = dict.fromkeys(key for rows in stencils.values() for terms in rows for _, key in terms)
    # about 256 evenly spaced bytes of a point (an odd stride reaches every
    # byte of a double) -> the offsets of the distinct points with them
    samples = {}

    def blocks():
        """Blocks of the distinct points, each written when it is asked for."""
        left, pending = len(first), iter(first)
        while left:
            rows, filled = np.empty((min(block_points, left), len(base))), 0
            for key in pending:
                left -= 1
                raw = write(rows[filled], key)
                same = samples.setdefault(raw[::len(raw) // 256 | 1], [])
                first[key] = next((k for k in same if write(spare, k) == raw), key)
                if first[key] == key:
                    same.append(key)
                    filled += 1
                    if filled == len(rows):
                        break
            if filled:
                yield block(rows[:filled])
            del rows

    solved = []
    for points in blocks():
        solved += solution_map(points)
        del points  # the map is done with the block: the next one takes its place
    states = dict(zip([key for key in first if first[key] == key], solved, strict=True))

    def extrapolate(alpha: MultiIndex):
        rows = []
        for t, terms in zip(steps, stencils[alpha]):
            acc = None
            for coeff, key in terms:
                term = coeff * states[first[key]]
                acc = term if acc is None else acc + term
            rows.append((1.0 / (2.0 * t) ** alpha.order()) * acc)
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
    direction as its own coordinate (key e_1 + ... + e_n), and the same
    solution map, from a block of points to the list of their states:
    the stencil is the sum over the 2^n sign vectors s of
    prod(s) S(d + sum_k s_k t h_k) over (2t)^n, and two of its points are
    merged only where they are bitwise equal.
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

    def taylor_expansion(self, d, u, plan, data_block) -> "_PolynomialExpansion":
        return _PolynomialExpansion(self, d, u, plan, data_block)

    def zero_data(self) -> np.ndarray:
        return np.zeros(self.n_data)

    def zero_state(self) -> float:
        return 0.0


class _PolynomialExpansion:
    """Normalized Taylor coefficients of a `PolynomialOracle`'s variables
    along a data map, filled one order at a time for `fill_table`.

    Each variable's series is an array per order, with a row per position
    of the fill's `SplitPlan` and a column per variable: the data
    coefficients first, u_alpha last.  A monomial's series is the Cauchy
    product of its factors' series, formed anew per order up to that order,
    so u_alpha of the order itself is zero in it, and the residual
    coefficients sum the monomials' series with their coefficients;
    `solve(m)` divides them through `oracle.solve_linearized`.
    """

    def __init__(self, oracle: PolynomialOracle, d, u, plan: SplitPlan,
                 data_block: Callable[[int], np.ndarray]):
        self._oracle, self._d, self._u, self._plan = oracle, d, u, plan
        self._series = [np.append(d, u)[None]]
        for m in range(1, plan.max_order + 1):
            block = data_block(m)
            self._series.append(np.append(block, np.zeros((len(block), 1)), axis=1))
        # each monomial of positive degree as its coefficient and the
        # column of every factor, repeated by exponent
        self._monomials = [(c, [i for i, e in enumerate(exps) for _ in range(e)])
                           for exps, c in oracle.coeffs.items() if any(exps)]

    def solve(self, m: int) -> np.ndarray:
        """The u_alpha of every key of order m, solved from the residual
        coefficients with u_alpha set to zero and written into u's column."""
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
        solved = -self._oracle.solve_linearized(self._d, self._u, out)
        self._series[m][:, -1] = solved
        return solved


def scalar_quadratic_oracle() -> PolynomialOracle:
    """R(d, u) = u - d**2, whose solution map is d -> d**2."""
    return PolynomialOracle(1, {(0, 1): 1.0, (2, 0): -1.0})


def scalar_cubic_oracle() -> PolynomialOracle:
    """R(d, u) = u**3 + u - d, the implicit cube-root-like benchmark."""
    return PolynomialOracle(1, {(0, 3): 1.0, (0, 1): 1.0, (1, 0): -1.0})
