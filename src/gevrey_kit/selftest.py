"""Runnable verification suite behind the `selftest` CLI subcommand.

Each check recomputes an expected value with an independent route
(exhaustive enumeration, exact series arithmetic, finite differences,
shooting, hand evaluation of closed formulas) and asserts agreement with
the library. Checks raise AssertionError on failure; `run_selftest`
reports one line per check.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .combinatorics import (
    C_KAPPA,
    MultiIndex,
    compositions,
    factorial_inequality_check,
    composition_identity_check,
    kappa_asymptotic_log,
    multi_index_compositions,
    multi_indices_up_to,
    schroeder_hipparchus_sequence,
    set_partitions,
)
from .envelopes import (
    GevreyEnvelope,
    ParametricEnvelope,
    StabilityConstant,
    compose_envelopes,
    compose_parametric,
    convergence_radius,
    envelope_check,
    implicit_envelope,
    per_order_bound,
)
from .implicit_diff import (
    derivative_table,
    finite_difference_check,
    first_derivative,
    higher_derivative,
    scalar_cubic_oracle,
    scalar_quadratic_oracle,
    solve_residual,
)
from .parametric import (
    DomainMap1D,
    TildeData,
    gevrey_rate_fit,
    parametric_derivative_table,
    verify_derivative_bounds,
)
from .pde1d import (
    Mesh1D,
    Nonlinearity,
    PdeData,
    PdeOracle,
    apply_residual_derivative,
    assemble_residual,
    estimate_constants,
    newton_solve,
)


def _close(a, b, rel=1e-10, abs_tol=1e-12) -> bool:
    return abs(a - b) <= max(abs_tol, rel * max(abs(a), abs(b)))


# -- independent oracles --------------------------------------------------------


def invert_cubic_series(order: int) -> list[Fraction]:
    """Exact Taylor coefficients of the inverse of d = u + u**3 at 0.

    Fixed-point iteration u <- d - u**3 on truncated series; each sweep
    fixes one more coefficient.
    """
    coeff = [Fraction(0)] * (order + 1)
    if order >= 1:
        coeff[1] = Fraction(1)
    for _ in range(order):
        cube = _series_power(coeff, 3, order)
        new = [Fraction(0)] + [-c for c in cube[1:]]
        if order >= 1:
            new[1] += Fraction(1)
        coeff = new
    return coeff


def _series_power(coeff, exponent, order):
    out = [Fraction(1)] + [Fraction(0)] * order
    for _ in range(exponent):
        nxt = [Fraction(0)] * (order + 1)
        for i, ci in enumerate(out):
            if ci == 0:
                continue
            for j, cj in enumerate(coeff):
                if i + j > order:
                    break
                nxt[i + j] += ci * cj
        out = nxt
    return out


def _scalar_operator_norm(oracle, d, u, r: int) -> float:
    """Exact norm of the r-linear residual derivative of a scalar problem.

    Each direction pair lives in the unit max-norm ball of R x R; the
    value is linear in every pair, so the maximum sits at corner points.
    """
    m = oracle.n_data
    corners = list(itertools.product((-1.0, 1.0), repeat=m + 1))
    best = 0.0
    for combo in itertools.product(corners, repeat=r):
        args = [(np.asarray(c[:m]), c[m]) for c in combo]
        best = max(best, abs(oracle.apply_derivative(r, d, u, args)))
    return best


def schroeder_hipparchus_by_composition_sum(n: int) -> int:
    """Independent evaluation of the defining recursion.

    k_1 = 1 and, for m >= 2,
    k_m = sum over r = 2..m and compositions (i_1, ..., i_r) of m
          of the product k_{i_1} * ... * k_{i_r}.
    Exponential in n; intended for cross-checks at desk scale.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    kappa = [0, 1]
    for m in range(2, n + 1):
        total = 0
        for r in range(2, m + 1):
            for comp in compositions(m, r):
                prod = 1
                for i in comp:
                    prod *= kappa[i]
                total += prod
        kappa.append(total)
    return kappa[n]


def higher_derivative_reference(oracle, table, alpha: MultiIndex):
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
                for part in comp:
                    seg = MultiIndex.make(Counter(sigma[pos:pos + part]))
                    pos += part
                    coeff /= math.factorial(part)
                    args.append((table.data_partial(seg), table.entry(seg)))
                total = total + coeff * oracle.apply_derivative(r, table.d, table.u, args)
    return -oracle.solve_linearized(table.d, table.u, total)


def shooting_midpoint() -> float:
    """Midpoint value of -u'' + u**3 = 1 on (0,1) with zero Dirichlet data,
    via shooting with a stiff-tolerance initial value solver."""
    from scipy.integrate import solve_ivp
    from scipy.optimize import brentq

    def rhs(_, z):
        return [z[1], z[0] ** 3 - 1.0]

    def end_value(slope):
        sol = solve_ivp(rhs, (0.0, 1.0), [0.0, slope], rtol=1e-10, atol=1e-12)
        return sol.y[0, -1]

    slope = brentq(end_value, 0.2, 0.8, xtol=1e-12)
    sol = solve_ivp(rhs, (0.0, 0.5), [0.0, slope], rtol=1e-10, atol=1e-12)
    return float(sol.y[0, -1])


def linear_leibniz_partials(mesh: Mesh1D, partial_of_data, p: int, max_order: int):
    """Mixed solution partials of the purely linear problem (b = 0) by the
    product-rule recursion on the bilinear form, independent of the
    chain-rule engine, and factorized by SuperLU rather than the library's
    LDL^T.  `partial_of_data` maps a MultiIndex to a PdeData."""
    base = partial_of_data(MultiIndex())
    diag, off = mesh.bilinear_form(stiffness=base.a)
    lu = spla.splu(sp.diags([off, diag, off], [-1, 0, 1], format="csc"))
    load0 = mesh.assemble_load(None, base.f, boundary=base.g)
    entries = {MultiIndex(): lu.solve(load0)}
    for alpha in multi_indices_up_to(p, max_order):
        if alpha.is_zero():
            continue
        d_alpha = partial_of_data(alpha)
        rhs = mesh.assemble_load(None, d_alpha.f, boundary=d_alpha.g)
        for beta in alpha.sub_indices():
            if beta.is_zero():
                continue
            grad = mesh.grad_at_quad(entries[alpha - beta])
            rhs = rhs - alpha.binom(beta) * mesh.assemble_load(
                partial_of_data(beta).a * grad, None
            )
        entries[alpha] = lu.solve(rhs)
    return entries


# -- checks ---------------------------------------------------------------------


def check_composition_counts() -> None:
    assert compositions(4, 2) == [(1, 3), (2, 2), (3, 1)]
    assert len(compositions(5, 3)) == 6 == math.comb(4, 2)
    for n in range(1, 11):
        for r in range(1, n + 1):
            assert len(compositions(n, r)) == math.comb(n - 1, r - 1)


def check_multi_index_compositions() -> None:
    two = MultiIndex.make({1: 2})
    assert multi_index_compositions(two, 2) == [
        (MultiIndex.unit(1), MultiIndex.unit(1))
    ]
    mixed = MultiIndex.make({1: 1, 2: 1})
    assert len(multi_index_compositions(mixed, 2)) == 2
    assert multi_index_compositions(mixed, 1)[0] == (mixed,)


def check_set_partition_counts() -> None:
    assert sum(1 for _ in set_partitions(3)) == 5
    assert sum(1 for _ in set_partitions(2, min_blocks=2)) == 1
    assert sum(1 for _ in set_partitions(4, min_blocks=2)) == 14


def check_kappa_recursions() -> None:
    seq = schroeder_hipparchus_sequence(12)
    assert seq[:5] == [1, 1, 3, 11, 45]
    assert seq[9] == 103049
    for n in range(1, 13):
        assert schroeder_hipparchus_by_composition_sum(n) == seq[n - 1]


def check_kappa_growth() -> None:
    seq = schroeder_hipparchus_sequence(501)
    for n in range(500):
        assert math.log(seq[n + 1]) - math.log(seq[n]) <= math.log(C_KAPPA) + 1e-12
    ratio = math.exp(math.log(seq[499]) - kappa_asymptotic_log(500))
    assert 0.9 <= ratio <= 1.1, f"asymptotic ratio {ratio}"


def check_factorial_inequality() -> None:
    for n in range(1, 9):
        for r in range(1, n + 1):
            for comp in compositions(n, r):
                assert factorial_inequality_check(comp)


def check_composition_identity() -> None:
    assert composition_identity_check(MultiIndex.make({1: 2}), 2)
    for alpha in multi_indices_up_to(3, 6):
        if alpha.is_zero():
            continue
        for r in range(1, alpha.order() + 1):
            assert composition_identity_check(alpha, r)


def check_per_order_bound_values() -> None:
    one = GevreyEnvelope(1.0, 1.0, 1.0)
    assert _close(math.exp(per_order_bound(1, StabilityConstant(1.0), one)), 1.0)
    assert _close(math.exp(per_order_bound(2, StabilityConstant(1.0), one)), 2.0)
    assert _close(math.exp(per_order_bound(3, StabilityConstant(2.0), one)), 576.0)


def check_implicit_envelope_values() -> None:
    out = implicit_envelope(StabilityConstant(1.0), GevreyEnvelope(1.0, 1.0, 1.0))
    assert _close(out.scale, 1.0 / C_KAPPA) and _close(out.rate, C_KAPPA)
    assert _close(convergence_radius(out), 1.0 / C_KAPPA)
    out2 = implicit_envelope(StabilityConstant(2.0), GevreyEnvelope(1.0, 3.0, 1.0))
    assert _close(out2.scale, 1.0 / (6.0 * C_KAPPA)) and _close(out2.rate, 36.0 * C_KAPPA)


def check_composition_rules() -> None:
    one = GevreyEnvelope(1.0, 1.0, 1.0)
    composed = compose_envelopes(one, one)
    assert _close(composed.scale, 0.5) and _close(composed.rate, 2.0)
    par = compose_parametric(ParametricEnvelope(one, (0.7, 0.3)), one)
    assert _close(par.base.scale, 0.5) and _close(par.base.rate, 2.0)
    assert par.weights == (0.7, 0.3)


def check_envelope_domination() -> None:
    for a in (1.0, 2.0, 4.0):
        for sc in (1.0, 2.0, 4.0):
            for rt in (1.0, 2.0, 4.0):
                for s in (1.0, 1.5, 2.0):
                    env = GevreyEnvelope(s, sc, rt)
                    out = implicit_envelope(StabilityConstant(a), env)
                    for n in range(1, 51):
                        lb = per_order_bound(n, StabilityConstant(a), env)
                        assert lb <= out.log_bound(n) + 1e-9


def check_scalar_solves() -> None:
    cubic = scalar_cubic_oracle()
    u = solve_residual(cubic, np.array([2.0]), 0.0, 1e-14)
    assert _close(u, 1.0, rel=1e-12)
    quad = scalar_quadratic_oracle()
    u9 = solve_residual(quad, np.array([3.0]), 0.0, 1e-14)
    assert _close(u9, 9.0, rel=1e-12)


def check_scalar_first_derivatives() -> None:
    quad = scalar_quadratic_oracle()
    d = np.array([3.0])
    u = solve_residual(quad, d, 0.0, 1e-14)
    h = np.array([1.0])
    assert _close(first_derivative(quad, d, u, h), 6.0, rel=1e-12)
    cubic = scalar_cubic_oracle()
    d0 = np.array([0.0])
    assert _close(first_derivative(cubic, d0, 0.0, h), 1.0, rel=1e-12)


def check_scalar_higher_derivatives() -> None:
    quad = scalar_quadratic_oracle()
    table = derivative_table(quad, np.array([3.0]), [np.array([1.0])], 2)
    assert _close(table.entry(MultiIndex.make({1: 2})), 2.0, rel=1e-12)

    cubic = scalar_cubic_oracle()
    table = derivative_table(cubic, np.array([0.0]), [np.array([1.0])], 4)
    series = invert_cubic_series(4)
    for n in range(1, 5):
        expected = float(series[n] * math.factorial(n))
        got = table.entry(MultiIndex.make({1: n}))
        assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected)), (n, got)


def check_fd_oracle() -> None:
    quad = scalar_quadratic_oracle()
    smap = lambda d: solve_residual(quad, d, 0.0, 1e-14)
    est, ind = finite_difference_check(smap, np.array([3.0]), [np.array([1.0])],
                                       [1e-2, 5e-3, 2.5e-3])
    assert abs(est - 6.0) < 1e-8 and ind < 1e-8

    cubic = scalar_cubic_oracle()
    smap3 = lambda d: solve_residual(cubic, d, 0.0, 1e-14)
    h = np.array([1.0])
    est3, ind3 = finite_difference_check(smap3, np.array([0.0]), [h, h, h],
                                         [0.08, 0.04, 0.02, 0.01])
    assert abs(est3 + 6.0) <= max(ind3, 1e-6) and ind3 < 1e-4


def check_collapsed_vs_literal() -> None:
    rng = np.random.default_rng(20240811)
    exps = [e for e in itertools.product(range(4), repeat=4) if 0 < sum(e) <= 3]
    coeffs = {e: 0.25 * rng.standard_normal() for e in exps}
    coeffs[(0, 0, 0, 1)] = coeffs.get((0, 0, 0, 1), 0.0) + 1.0
    from .implicit_diff import PolynomialOracle

    oracle = PolynomialOracle(3, coeffs)
    d = 0.05 * rng.standard_normal(3)
    dirs = [rng.standard_normal(3) for _ in range(3)]
    table = derivative_table(oracle, d, dirs, 4)
    for counts in [{1: 1, 2: 1}, {1: 1, 2: 1, 3: 1}, {1: 2, 2: 1, 3: 1}]:
        alpha = MultiIndex.make(counts)
        a = higher_derivative(oracle, table, alpha)
        b = higher_derivative_reference(oracle, table, alpha)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b)), (alpha.label(), a, b)


def check_scalar_envelope_compliance() -> None:
    cubic = scalar_cubic_oracle()
    d = np.array([0.0])
    table = derivative_table(cubic, d, [np.array([1.0])], 5)
    u = table.entry(MultiIndex())
    ms = [_scalar_operator_norm(cubic, d, u, r) for r in range(1, 4)]
    sigma = max([1.0] + [m / math.factorial(r + 1) for r, m in enumerate(ms)])
    env = implicit_envelope(StabilityConstant(1.0), GevreyEnvelope(1.0, sigma, 1.0))
    norms = {n: abs(table.entry(MultiIndex.make({1: n}))) for n in range(1, 6)}
    report = envelope_check(norms, env, tolerance=1e-9)
    assert report.passed, report.summary()


def check_pde_table_size() -> None:
    mesh = Mesh1D.uniform(16)
    nl = Nonlinearity.cubic()
    oracle = PdeOracle(mesh, nl)
    base = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
    dirs = [PdeData.from_spec(mesh, f=1.0), PdeData.from_spec(mesh, a=0.2)]
    table = derivative_table(oracle, base, dirs, 3)
    # multisets of size 1..3 over two directions: 2 + 3 + 4, plus the base
    assert len(table) == 10
    assert all(np.all(np.isfinite(np.asarray(v))) for _, v in table.items())


def check_nemyckii_values() -> None:
    tanh = Nonlinearity.tanh_shifted()
    assert abs(tanh.deriv(2, 0.0)) < 1e-14
    assert _close(float(tanh.deriv(0, 0.0)), 2.0)
    cubic = Nonlinearity.cubic()
    assert _close(float(cubic.deriv(1, 2.0)), 12.0)
    assert float(cubic.deriv(4, 1.7)) == 0.0


def check_manufactured_residuals() -> None:
    mesh = Mesh1D.uniform(64)
    cubic = Nonlinearity.cubic()
    data = PdeData.from_spec(mesh, a=1.0, b=0.0, f=1.0)
    u = mesh.interpolate(lambda x: 0.5 * x * (1.0 - x))
    res = assemble_residual(mesh, data, cubic, u)
    assert mesh.dual_norm(res) <= (1.0 / 64) ** 2

    meshn = Mesh1D.uniform(64, right_bc="neumann")
    datan = PdeData.from_spec(meshn, a=1.0, b=0.0, f=0.0, g=1.0)
    un = meshn.interpolate(lambda x: x)
    resn = assemble_residual(meshn, datan, cubic, un)
    assert meshn.dual_norm(resn) <= 1e-12


def check_residual_second_derivative() -> None:
    mesh = Mesh1D.uniform(32)
    cubic = Nonlinearity.cubic()
    data = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(mesh.n_free)
    v1 = rng.standard_normal(mesh.n_free)
    v2 = rng.standard_normal(mesh.n_free)
    zero = PdeData.zeros(mesh)
    got = apply_residual_derivative(mesh, data, cubic, u, 2, [(zero, v1), (zero, v2)])
    direct = mesh.assemble_load(
        None, data.b * 6.0 * mesh.at_quad(u) * mesh.at_quad(v1) * mesh.at_quad(v2)
    )
    assert np.allclose(got, direct, rtol=1e-12, atol=1e-14)


def check_residual_derivative_vanishing() -> None:
    mesh = Mesh1D.uniform(16)
    cubic = Nonlinearity.cubic()
    data = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
    rng = np.random.default_rng(11)
    u = rng.standard_normal(mesh.n_free)
    args = [
        (PdeData(mesh.field(rng.standard_normal()), mesh.field(rng.standard_normal()),
                 mesh.field(rng.standard_normal()), 0.0),
         rng.standard_normal(mesh.n_free))
        for _ in range(5)
    ]
    out = apply_residual_derivative(mesh, data, cubic, u, 5, args)
    assert np.all(out == 0.0)


def check_newton_benchmark() -> None:
    mesh = Mesh1D.uniform(256)
    cubic = Nonlinearity.cubic()
    data = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
    u = newton_solve(mesh, data, cubic)
    assert float(np.min(u)) > 0.0
    assert np.allclose(u, u[::-1], atol=1e-10)
    midpoint = u[mesh.n_free // 2]
    assert abs(midpoint - shooting_midpoint()) < 1e-4


def check_poincare_convergence() -> None:
    continuous = math.sqrt(1.0 + math.pi**2) / math.pi
    c128 = Mesh1D.uniform(128).poincare_constant
    assert c128 <= continuous + 1e-12
    assert abs(c128 - continuous) < 1e-3
    mesh, nl = Mesh1D.uniform(64), Nonlinearity.cubic()
    data = PdeData.from_spec(mesh, a=1.0, b=0.0, f=1.0)
    consts = estimate_constants(mesh, data, nl, newton_solve(mesh, data, nl))
    assert consts.alpha_measured <= consts.alpha * (1.0 + 1e-9)


def check_pullback_closed_form() -> None:
    mesh = Mesh1D.uniform(16)
    dmap = DomainMap1D(p=1)
    hat = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
    tilde = TildeData(dmap, hat, mesh, np.array([0.5])).data
    expected = 1.0 / (1.0 + 0.5 * dmap.gamma(1) * np.cos(math.pi * mesh.quad_x))
    assert np.allclose(tilde.a, expected, rtol=1e-14)
    assert float(np.min(tilde.a)) >= 1.0 / 8.0

    at_zero = TildeData(dmap, hat, mesh, np.array([0.0])).data
    assert np.array_equal(at_zero.a, hat.a) and np.array_equal(at_zero.f, hat.f)


def check_data_partials() -> None:
    mesh = Mesh1D.uniform(16)
    dmap = DomainMap1D(p=2)
    hat = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
    tilde = TildeData(dmap, hat, mesh, np.array([0.0, 0.0]))
    for k in (1, 2):
        wk = dmap.mode_gradient(k, mesh.quad_x)
        second = tilde.partial(MultiIndex.make({k: 2}))
        assert np.allclose(second.a, 2.0 * wk**2, rtol=1e-12)
        first = tilde.partial(MultiIndex.unit(k))
        assert np.allclose(first.a, -wk, rtol=1e-12)

    y = np.array([0.2, -0.3])
    tilde_y = TildeData(dmap, hat, mesh, y)
    dnorm = lambda d: float(
        np.max(np.abs(d.a)) + np.max(np.abs(d.b)) + np.max(np.abs(d.f)) + abs(d.g)
    )
    for k in (1, 2):
        direction = np.zeros(2)
        direction[k - 1] = 1.0
        smap = lambda yy: TildeData(dmap, hat, mesh, yy).data
        est, _ = finite_difference_check(smap, y, [direction], [0.05, 0.025, 0.0125],
                                         norm=dnorm)
        exact = tilde_y.partial(MultiIndex.unit(k))
        assert dnorm(est - exact) <= 1e-6 * max(1.0, dnorm(exact))


def check_linear_parametric_case() -> None:
    mesh = Mesh1D.uniform(32)
    dmap = DomainMap1D(p=2)
    hat = PdeData.from_spec(mesh, a=1.0, b=0.0, f=1.0)
    y = np.array([0.25, -0.25])
    tilde = TildeData(dmap, hat, mesh, y)
    nl = Nonlinearity.cubic()
    oracle = PdeOracle(mesh, nl)
    table = parametric_derivative_table(oracle, tilde, 3)
    reference = linear_leibniz_partials(mesh, tilde.partial, dmap.p, 3)
    for alpha, expected in reference.items():
        got = table.entry(alpha)
        scale = max(1e-14, float(np.max(np.abs(expected))))
        assert np.allclose(got, expected, rtol=1e-9, atol=1e-11 * scale), alpha.label()


def check_mixed_fd_match() -> None:
    mesh = Mesh1D.uniform(64)
    dmap = DomainMap1D(p=2)
    hat = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
    nl = Nonlinearity.cubic()
    y = np.array([0.1, -0.2])
    tilde = TildeData(dmap, hat, mesh, y)
    oracle = PdeOracle(mesh, nl)
    table = parametric_derivative_table(oracle, tilde, 2)
    alpha = MultiIndex.make({1: 1, 2: 1})
    engine = table.entry(alpha)

    smap = lambda yy: newton_solve(mesh, TildeData(dmap, hat, mesh, yy).data, nl,
                                   tol=1e-13)
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    est, ind = finite_difference_check(smap, y, [e1, e2], [0.08, 0.04, 0.02],
                                       norm=mesh.h1_norm, eval_noise=1.5e-13)
    gap = mesh.h1_norm(engine - est)
    assert gap <= ind, (gap, ind)
    assert ind <= 1e-4 * max(mesh.h1_norm(engine), 1e-12)


def check_derivative_bound_pipeline() -> None:
    mesh = Mesh1D.uniform(96)
    dmap = DomainMap1D(p=4)
    hat = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
    nl = Nonlinearity.cubic()
    rng = np.random.default_rng(1234)
    ys = [rng.uniform(-0.5, 0.5, 4) for _ in range(5)]
    report = verify_derivative_bounds(dmap, hat, mesh, nl, ys, max_order=4)
    assert report.passed, [r.alpha.label() for r in report.failures]

    env = report.envelope
    shrunk = ParametricEnvelope(
        GevreyEnvelope(env.base.s, env.base.scale * 1e-12, env.base.rate / 50.0),
        env.weights, env.tail,
    )
    bad = verify_derivative_bounds(dmap, hat, mesh, nl, ys[:1], max_order=1, envelope=shrunk)
    assert not bad.passed


def check_rate_fit() -> None:
    weights = DomainMap1D(p=2).gammas()
    helper = ParametricEnvelope(GevreyEnvelope(1.0, 1.0, 1.0), weights)
    norms = {}
    for alpha in multi_indices_up_to(2, 5):
        if alpha.is_zero():
            continue
        n = alpha.order()
        norms[alpha] = (math.factorial(n) ** 1.5 * 2.0**n
                        * math.exp(helper.log_weight_power(alpha)))
    fit = gevrey_rate_fit(norms, weights)
    assert abs(fit.s - 1.5) < 1e-6 and abs(fit.rate - 2.0) < 1e-6

    mesh = Mesh1D.uniform(48)
    dmap = DomainMap1D(p=2)
    x = mesh.quad_x
    zero = np.zeros_like(x)
    ones = np.ones_like(x)

    def affine_partial(alpha: MultiIndex) -> PdeData:
        if alpha.is_zero():
            return PdeData(ones.copy(), zero, ones.copy(), 0.0)
        if alpha.order() == 1:
            k = alpha.support()[0]
            return PdeData(dmap.mode_gradient(k, x), zero, zero, 0.0)
        return PdeData(zero, zero, zero, 0.0)

    entries = linear_leibniz_partials(mesh, affine_partial, 2, 5)
    table = {a: mesh.h1_norm(v) for a, v in entries.items() if not a.is_zero()}
    fit2 = gevrey_rate_fit(table, dmap.gammas())
    assert fit2.s <= 1.2, fit2


CHECKS = [
    ("composition counts", check_composition_counts),
    ("multi-index compositions", check_multi_index_compositions),
    ("set partition counts", check_set_partition_counts),
    ("kappa recursions agree", check_kappa_recursions),
    ("kappa growth and asymptotics", check_kappa_growth),
    ("factorial inequality", check_factorial_inequality),
    ("multi-index composition identity", check_composition_identity),
    ("order-by-order bound values", check_per_order_bound_values),
    ("implicit envelope values", check_implicit_envelope_values),
    ("composition rules", check_composition_rules),
    ("envelope domination", check_envelope_domination),
    ("scalar residual solves", check_scalar_solves),
    ("scalar first derivatives", check_scalar_first_derivatives),
    ("scalar higher derivatives vs series", check_scalar_higher_derivatives),
    ("finite-difference oracle", check_fd_oracle),
    ("collapsed vs literal chain rule", check_collapsed_vs_literal),
    ("scalar envelope compliance", check_scalar_envelope_compliance),
    ("pde derivative table size", check_pde_table_size),
    ("pointwise nonlinearity values", check_nemyckii_values),
    ("manufactured residuals", check_manufactured_residuals),
    ("residual second derivative", check_residual_second_derivative),
    ("residual derivative vanishing", check_residual_derivative_vanishing),
    ("Newton benchmark vs shooting", check_newton_benchmark),
    ("Poincare constant convergence", check_poincare_convergence),
    ("pullback closed form", check_pullback_closed_form),
    ("data partials vs closed form and FD", check_data_partials),
    ("linear parametric case", check_linear_parametric_case),
    ("mixed parametric FD match", check_mixed_fd_match),
    ("solution bound pipeline", check_derivative_bound_pipeline),
    ("rate fit round trip", check_rate_fit),
]


def run_selftest(out=print) -> bool:
    ok = True
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report and continue
            ok = False
            out(f"FAIL - {name}: {exc}")
        else:
            out(f"ok - {name}")
    out(f"selftest: {'pass' if ok else 'FAIL'} ({len(CHECKS)} checks)")
    return ok
