"""Implicit derivative engine against independent oracles.

The oracles here are written from scratch: exact series inversion with
rational arithmetic, the literal permutation-sum form of the chain rule,
and Richardson finite differences.
"""

import gc
import itertools
import math
import weakref

import numpy as np
import pytest

from gevrey_kit.combinatorics import MultiIndex, SplitPlan
from gevrey_kit.envelopes import GevreyEnvelope, StabilityConstant, envelope_check, implicit_envelope
from gevrey_kit.implicit_diff import (
    DerivativeTable,
    LinearizationError,
    NonConvergenceError,
    PolynomialOracle,
    ResidualOracle,
    affine_data_map,
    derivative_table,
    fill_table,
    finite_difference_check,
    finite_difference_table,
    first_derivative,
    higher_derivative,
    scalar_cubic_oracle,
    scalar_quadratic_oracle,
    solve_residual,
    solve_residual_stack,
)
from gevrey_kit.pde1d import Mesh1D, Nonlinearity, PdeData, PdeOracle
from gevrey_kit.selftest import CompositionTable, higher_derivative_reference, invert_cubic_series


# Frozen from the series oracle: derivatives n! * c_n for n = 1..5.
CUBIC_DERIVATIVES = [1.0, 0.0, -6.0, 0.0, 360.0]


def test_series_oracle_consistency():
    series = invert_cubic_series(5)
    assert series[:6] == [0, 1, 0, -1, 0, 3]
    got = [float(series[n] * math.factorial(n)) for n in range(1, 6)]
    assert got == CUBIC_DERIVATIVES


def reference_scalar_newton(oracle, d, u, tol):
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
            assert abs(step) <= 16.0 * np.finfo(float).eps * abs(u)
            return u, iterations, halvings
        u, res, rnorm = u_new, res_new, rnorm_new
        iterations, halvings = iterations + 1, halvings + tries
    raise AssertionError("reference Newton did not converge")


class TestSolveResidual:
    @pytest.mark.parametrize("tol", [1e-14, 0.0])  # 0.0 ends at the round-off floor
    def test_stack_is_each_point_alone(self, tol):
        # the per-point stack forms in lockstep: points that take different
        # numbers of steps, halve steps or are solved at u0
        oracle = scalar_cubic_oracle()
        ds = [np.array([v]) for v in (2.0, 0.0, 100.0, 0.5, -30.0, 1e-3)]
        want = [reference_scalar_newton(oracle, d, 0.0, tol) for d in ds]
        got = solve_residual_stack(oracle, iter(ds), 0.0, tol)
        assert [(type(u), u) for u in got] == [(type(u), u) for u, _, _ in want]
        assert len({iterations for _, iterations, _ in want}) > 2
        assert want[1][1] == 0 and want[2][2] > 0

    def test_error_at_one_point_of_a_stack_propagates(self):
        # u**2 - d has no real root for d < 0 and a singular linearization at u = 0
        oracle = PolynomialOracle(1, {(0, 2): 1.0, (1, 0): -1.0})
        with pytest.raises(NonConvergenceError):
            solve_residual_stack(oracle, [np.array([4.0]), np.array([-1.0]), np.array([9.0])],
                                 3.0, 1e-12, max_iter=40)
        with pytest.raises(LinearizationError):
            solve_residual_stack(oracle, [np.array([0.0]), np.array([1.0])], 0.0, 1e-12)

    def test_quadratic_closed_form(self):
        oracle = scalar_quadratic_oracle()
        u = solve_residual(oracle, np.array([3.0]), 0.0, 1e-14)
        assert abs(u - 9.0) < 1e-12

    def test_cubic_closed_form_root(self):
        oracle = scalar_cubic_oracle()
        u = solve_residual(oracle, np.array([2.0]), 0.0, 1e-14)
        assert abs(u - 1.0) < 1e-12

    def test_damping_handles_overshoot(self):
        # strongly curved residual: plain Newton overshoots from far away
        oracle = scalar_cubic_oracle()
        u = solve_residual(oracle, np.array([100.0]), 50.0, 1e-12)
        assert abs(oracle.eval(np.array([100.0]), u)) <= 1e-12

    def test_nonconvergence_error_carries_norm(self):
        # u**2 + 1 has no real root; the iteration must stop with an error
        oracle = PolynomialOracle(1, {(0, 2): 1.0, (0, 0): 1.0})
        with pytest.raises(NonConvergenceError) as err:
            solve_residual(oracle, np.array([0.0]), 3.0, 1e-12, max_iter=40)
        assert err.value.residual_norm > 0.0

    def test_singular_linearization(self):
        oracle = PolynomialOracle(1, {(0, 2): 1.0})
        with pytest.raises(LinearizationError):
            oracle.solve_linearized(np.array([0.0]), 0.0, 1.0)


class TestFirstDerivative:
    def test_quadratic(self):
        oracle = scalar_quadratic_oracle()
        d = np.array([3.0])
        u = solve_residual(oracle, d, 0.0, 1e-14)
        assert abs(first_derivative(oracle, d, u, np.array([1.0])) - 6.0) < 1e-12

    def test_cubic_at_origin(self):
        oracle = scalar_cubic_oracle()
        got = first_derivative(oracle, np.array([0.0]), 0.0, np.array([1.0]))
        assert abs(got - 1.0) < 1e-14


class TestHigherDerivative:
    def test_quadratic_second(self):
        oracle = scalar_quadratic_oracle()
        table = derivative_table(oracle, np.array([3.0]), [np.array([1.0])], 2)
        assert abs(table.entry(MultiIndex.make({1: 2})) - 2.0) < 1e-12

    def test_cubic_series_match(self):
        oracle = scalar_cubic_oracle()
        table = derivative_table(oracle, np.array([0.0]), [np.array([1.0])], 5)
        for n, expected in enumerate(CUBIC_DERIVATIVES, start=1):
            got = table.entry(MultiIndex.make({1: n}))
            assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))

    def test_affine_residual_vanishes_exactly(self):
        # R(d, u) = 2u - 3d - 1: every derivative of S beyond order 1 is zero
        oracle = PolynomialOracle(1, {(0, 1): 2.0, (1, 0): -3.0, (0, 0): -1.0})
        table = derivative_table(oracle, np.array([1.0]), [np.array([1.0])], 4)
        assert abs(table.entry(MultiIndex.unit(1)) - 1.5) < 1e-12
        for n in range(2, 5):
            assert table.entry(MultiIndex.make({1: n})) == 0.0

    def test_vanishing_tail_is_finite(self):
        oracle = scalar_cubic_oracle()
        table = derivative_table(oracle, np.array([0.0]), [np.array([1.0])], 6)
        series = invert_cubic_series(6)
        for n in range(1, 7):
            value = table.entry(MultiIndex.make({1: n}))
            assert math.isfinite(value)
            expected = float(series[n] * math.factorial(n))
            assert abs(value - expected) <= 1e-9 * max(1.0, abs(expected))

    def test_requires_two_directions(self):
        oracle = scalar_quadratic_oracle()
        table = derivative_table(oracle, np.array([3.0]), [np.array([1.0])], 1)
        with pytest.raises(ValueError):
            higher_derivative(oracle, table, MultiIndex.unit(1))

    def test_missing_entry_is_contract_violation(self):
        oracle = scalar_quadratic_oracle()
        d = np.array([3.0])
        u = solve_residual(oracle, d, 0.0, 1e-14)
        table = DerivativeTable(oracle, d, u, affine_data_map(oracle, d, [np.array([1.0])]))
        with pytest.raises(LookupError):
            higher_derivative(oracle, table, MultiIndex.make({1: 2}))


def random_polynomial_oracle(rng, n_data=3, degree=3):
    exps = [e for e in itertools.product(range(degree + 1), repeat=n_data + 1)
            if 0 < sum(e) <= degree]
    coeffs = {e: 0.25 * rng.standard_normal() for e in exps}
    key = (0,) * n_data + (1,)
    coeffs[key] = coeffs.get(key, 0.0) + 1.0
    return PolynomialOracle(n_data, coeffs)


class TestCollapsedVsLiteral:
    def test_randomized_three_variable_oracle(self):
        rng = np.random.default_rng(20240811)
        oracle = random_polynomial_oracle(rng)
        d = 0.05 * rng.standard_normal(3)
        directions = [rng.standard_normal(3) for _ in range(3)]
        table = derivative_table(oracle, d, directions, 4)
        for counts in [[1, 1], [0, 1, 1], [1, 1, 1], [2, 0, 1], [1, 1, 2], [2, 1, 1]]:
            collapsed = higher_derivative(oracle, table, MultiIndex.make(counts))
            literal = higher_derivative_reference(oracle, table, MultiIndex.make(counts))
            assert abs(collapsed - literal) <= 1e-12 * max(1.0, abs(collapsed))

    def test_symmetry_under_direction_permutation(self):
        rng = np.random.default_rng(7)
        oracle = random_polynomial_oracle(rng)
        d = 0.02 * rng.standard_normal(3)
        dirs = [rng.standard_normal(3) for _ in range(3)]
        table_fwd = derivative_table(oracle, d, dirs, 3)
        table_rev = derivative_table(oracle, d, dirs[::-1], 3)
        remap = {1: 3, 2: 2, 3: 1}
        for key, value in table_fwd.items():
            if key.is_zero():
                continue
            swapped = MultiIndex.make({remap[k]: e for k, e in key.entries})
            other = table_rev.entry(swapped)
            assert abs(value - other) <= 1e-12 * max(1.0, abs(value))


class TestPolynomialOracle:
    def test_eval_and_degree(self):
        oracle = scalar_cubic_oracle()
        assert oracle.eval(np.array([2.0]), 1.0) == 0.0
        # derivatives above the total degree are exact zeros
        args = [(np.array([1.0]), 1.0)] * 4
        assert oracle.apply_derivative(3, np.array([2.0]), 1.0, args[:3]) == 6.0
        assert oracle.apply_derivative(4, np.array([2.0]), 1.0, args) == 0.0

    def test_multilinearity_and_symmetry(self):
        rng = np.random.default_rng(5)
        oracle = random_polynomial_oracle(rng)
        d = rng.standard_normal(3)
        u = rng.standard_normal()
        args = [(rng.standard_normal(3), rng.standard_normal()) for _ in range(3)]
        base = oracle.apply_derivative(3, d, u, args)
        scaled_args = [args[0], (2.5 * args[1][0], 2.5 * args[1][1]), args[2]]
        assert abs(oracle.apply_derivative(3, d, u, scaled_args) - 2.5 * base) < 1e-10
        for perm in itertools.permutations(args):
            assert abs(oracle.apply_derivative(3, d, u, list(perm)) - base) < 1e-12

    def test_linearized_solve_consistency(self):
        oracle = scalar_cubic_oracle()
        d = np.array([2.0])
        u = 1.0
        rhs = 0.7
        w = oracle.solve_linearized(d, u, rhs)
        back = oracle.apply_derivative(1, d, u, [(np.zeros(1), w)])
        assert abs(back - rhs) < 1e-13


class TestDerivativeTable:
    def test_key_counts(self):
        oracle = random_polynomial_oracle(np.random.default_rng(3), n_data=2)
        d = np.zeros(2)
        dirs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        table = derivative_table(oracle, d, dirs, 3)
        # multisets of size <= 3 over two directions: 2 + 3 + 4, plus the base
        assert len(table) == 10

    def test_determinism(self):
        rng_args = dict(n_data=2, degree=3)
        o1 = random_polynomial_oracle(np.random.default_rng(42), **rng_args)
        o2 = random_polynomial_oracle(np.random.default_rng(42), **rng_args)
        dirs = [np.array([1.0, 0.5]), np.array([-0.25, 1.0])]
        t1 = derivative_table(o1, np.zeros(2), dirs, 3)
        t2 = derivative_table(o2, np.zeros(2), dirs, 3)
        assert list(t1.items()) == list(t2.items())

    def test_norms_table(self):
        oracle = scalar_cubic_oracle()
        table = derivative_table(oracle, np.array([0.0]), [np.array([1.0])], 3)
        norms = table.norms()
        assert norms[MultiIndex.make({1: 3})] == pytest.approx(6.0)

    def test_taylor_fill_matches_composition_sum(self):
        rng = np.random.default_rng(12)
        for n_data, n_dirs in itertools.product([1, 2, 3], [1, 2, 3]):
            oracle = random_polynomial_oracle(rng, n_data=n_data)
            d = 0.05 * rng.standard_normal(n_data)
            directions = [rng.standard_normal(n_data) for _ in range(n_dirs)]
            table = derivative_table(oracle, d, directions, 5)
            reference = CompositionTable(oracle, d, table.u,
                                         affine_data_map(oracle, d, directions))
            for alpha, value in table.items():
                if alpha.is_zero():
                    continue
                expected = reference.add(alpha)
                assert abs(value - expected) <= 1e-12 * abs(expected)

    def test_fill_needs_a_taylor_expansion(self):
        table = DerivativeTable(ResidualOracle(), np.zeros(1), 0.0, lambda alpha: np.ones(1))
        with pytest.raises(NotImplementedError):
            fill_table(table, SplitPlan([MultiIndex.unit(1)]))

    def test_table_is_freed_without_the_cyclic_collector(self):
        # a table must not reach itself, or it keeps its entries, oracle and
        # mesh alive until the cyclic collector runs
        mesh = Mesh1D.uniform(16)
        base = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
        problems = [
            (PdeOracle(mesh, Nonlinearity.cubic()), base, [PdeData.from_spec(mesh, f=1.0)]),
            (scalar_cubic_oracle(), np.array([0.0]), [np.array([1.0])]),
        ]
        gc.disable()
        try:
            for oracle, d, directions in problems:
                table = derivative_table(oracle, d, directions, 3)
                ref = weakref.ref(table)
                del table
                assert ref() is None
        finally:
            gc.enable()


class TestFiniteDifferenceCheck:
    def test_quadratic_first_derivative(self):
        oracle = scalar_quadratic_oracle()
        smap = lambda ds: [solve_residual(oracle, d, 0.0, 1e-14) for d in ds]
        est, ind = finite_difference_check(smap, np.array([3.0]), [np.array([1.0])],
                                           [1e-2, 5e-3, 2.5e-3])
        assert abs(est - 6.0) < 1e-8
        assert ind < 1e-8

    def test_cubic_third_derivative(self):
        oracle = scalar_cubic_oracle()
        smap = lambda ds: solve_residual_stack(oracle, ds, 0.0, 1e-14)
        h = np.array([1.0])
        est, ind = finite_difference_check(smap, np.array([0.0]), [h, h, h],
                                           [0.08, 0.04, 0.02, 0.01])
        assert abs(est + 6.0) <= max(ind, 1e-6)
        assert ind < 1e-4

    def test_constant_map(self):
        est, ind = finite_difference_check(lambda ds: [0.0 for _ in ds], np.array([0.0]),
                                           [np.array([1.0])], [0.1, 0.05])
        assert est == 0.0 and ind == 0.0

    def test_eval_noise_enters_indicator(self):
        smap = lambda ds: [float(d[0] ** 2) for d in ds]
        _, clean = finite_difference_check(smap, np.array([1.0]), [np.array([1.0])],
                                           [0.1, 0.05])
        _, noisy = finite_difference_check(smap, np.array([1.0]), [np.array([1.0])],
                                           [0.1, 0.05], eval_noise=1e-10)
        assert noisy >= clean + 2.0 * 1e-10 / 0.05

    def test_validation(self):
        smap = lambda ds: [0.0 for _ in ds]
        with pytest.raises(ValueError):
            finite_difference_check(smap, np.array([0.0]), [np.array([1.0])] * 5,
                                    [0.1, 0.05])
        with pytest.raises(ValueError):
            finite_difference_check(smap, np.array([0.0]), [np.array([1.0])], [0.1])


def sign_sum_reference(solution_map, d, directions, steps):
    """The nested central difference as a literal sum over 2^n sign vectors,
    one solve per vector, with Richardson extrapolation in the squared step."""
    n = len(directions)
    steps = sorted(steps, reverse=True)

    def stencil(t):
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
    return table[-1][-1], float(np.linalg.norm(np.atleast_1d(table[-1][-1] - table[-1][-2])))


class CountingMap:
    """A solution map over an iterable of points from a one-point map, counting
    the points it solves."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, ds):
        states = [self.fn(d) for d in ds]
        self.calls += len(states)
        return states


def keys_up_to(n_dirs, max_order):
    return [MultiIndex.make(e)
            for e in itertools.product(range(max_order + 1), repeat=n_dirs)
            if 1 <= sum(e) <= max_order]


class TestFiniteDifferenceTable:
    def test_scalar_cubic_solves_each_point_once(self):
        oracle = scalar_cubic_oracle()
        smap = CountingMap(lambda d: solve_residual(oracle, d, 0.0, 1e-14))
        d, h = np.array([0.2]), np.array([1.0])
        steps = [0.08, 0.04, 0.02, 0.01]
        keys = keys_up_to(1, 3)
        got = finite_difference_table(smap, d, [h], keys, steps)
        # points c in {+-1, +-2, +-3} at each step, plus the shared c = 0
        assert smap.calls == 4 * 6 + 1
        assert set(got) == set(keys)
        for alpha in keys:
            est, ind = finite_difference_check(smap, d, [h] * alpha.order(), steps)
            assert abs(got[alpha][0] - est) <= ind

    def test_two_directions_to_order_four(self):
        # S(x, y) = (sin x e^y, x^2 cos y) along the unit vectors
        smap = CountingMap(lambda p: np.array([np.sin(p[0]) * np.exp(p[1]),
                                               p[0] ** 2 * np.cos(p[1])]))
        d = np.array([0.3, -0.2])
        dirs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        keys = keys_up_to(2, 4)
        got = finite_difference_table(smap, d, dirs, keys, [0.1, 0.05, 0.025])
        # 40 points with 1 <= |c_1| + |c_2| <= 4 at each of three steps, plus c = 0
        assert smap.calls == 121
        x, y = d
        sin_x = [math.sin(x), math.cos(x), -math.sin(x), -math.cos(x), math.sin(x)]
        cos_y = [math.cos(y), -math.sin(y), -math.cos(y), math.sin(y), math.cos(y)]
        poly_x = [x * x, 2 * x, 2.0, 0.0, 0.0]
        for alpha in keys:
            n1, n2 = alpha[1], alpha[2]
            exact = np.array([sin_x[n1] * math.exp(y), poly_x[n1] * cos_y[n2]])
            est, ind = got[alpha]
            assert np.linalg.norm(est - exact) <= ind + 1e-8

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_check_is_bitwise_the_sign_sum(self, n):
        smap = lambda p: np.array([np.exp(p[0] - p[1] ** 2), np.tanh(p[0] * p[1] + p[2])])
        rng = np.random.default_rng(n)
        d = rng.uniform(-0.5, 0.5, 3)
        dirs = [rng.uniform(-1.0, 1.0, 3) for _ in range(n)]
        steps = [0.1, 0.05, 0.025]
        est, ind = finite_difference_check(lambda ps: list(map(smap, ps)), d, dirs, steps)
        ref_est, ref_ind = sign_sum_reference(smap, d, dirs, steps)
        assert est.tobytes() == ref_est.tobytes()
        assert ind == ref_ind

    def test_check_merges_no_points(self):
        smap = CountingMap(lambda d: float(np.cos(d[0])))
        h = np.array([1.0])
        finite_difference_check(smap, np.array([0.0]), [h, h, h], [0.1, 0.05])
        assert smap.calls == 2 * 2 ** 3

    def test_failing_point_propagates(self):
        def smap(ds):
            return [point(d) for d in ds]

        def point(d):
            if d[0] > 0.15:
                raise LinearizationError("state linearization is not positive definite")
            return float(d[0] ** 3)
        with pytest.raises(LinearizationError):
            finite_difference_table(smap, np.array([0.0]), [np.array([1.0])],
                                    [MultiIndex.make({1: 2})], [0.1, 0.05])

    def test_validation(self):
        smap = lambda ds: [0.0 for _ in ds]
        h = [np.array([1.0])]
        for key in (MultiIndex(), MultiIndex.make({1: 5}), MultiIndex.unit(2)):
            with pytest.raises(ValueError):
                finite_difference_table(smap, np.array([0.0]), h, [key], [0.1, 0.05])
        # steps that repeat or are not finite and positive; nan != nan, so
        # two NaN steps are distinct floats
        for steps in ([0.1, 0.1], [0.1, math.nan], [math.inf, 0.1], [math.nan, math.nan],
                      [0.1, -0.05]):
            with pytest.raises(ValueError, match="steps"):
                finite_difference_table(smap, np.array([0.0]), h, [MultiIndex.unit(1)], steps)
        for noise in (-1e-12, math.nan):
            with pytest.raises(ValueError, match="eval_noise"):
                finite_difference_table(smap, np.array([0.0]), h, [MultiIndex.unit(1)],
                                        [0.1, 0.05], eval_noise=noise)


class TestTableEnvelopeCompliance:
    def test_cubic_bounds_hold_with_measured_constants(self):
        oracle = scalar_cubic_oracle()
        d = np.array([0.0])
        table = derivative_table(oracle, d, [np.array([1.0])], 5)
        u = table.entry(MultiIndex())
        # exact multilinear norms: extreme points of the unit max-norm balls
        corners = list(itertools.product((-1.0, 1.0), repeat=2))
        norms_r = []
        for r in range(1, 4):
            best = 0.0
            for combo in itertools.product(corners, repeat=r):
                args = [(np.array([c[0]]), c[1]) for c in combo]
                best = max(best, abs(oracle.apply_derivative(r, d, u, args)))
            norms_r.append(best)
        sigma = max([1.0] + [m / math.factorial(r + 1) for r, m in enumerate(norms_r)])
        env = implicit_envelope(StabilityConstant(1.0), GevreyEnvelope(1.0, sigma, 1.0))
        measured = {n: abs(table.entry(MultiIndex.make({1: n}))) for n in range(1, 6)}
        assert envelope_check(measured, env, tolerance=1e-9).passed
