"""Parametric pipeline: pullback, data partials, solution partials, bounds.

Independent oracles: the closed form of the reciprocal partials for an
affine denominator, a product-rule recursion for the linear problem, the
directional chain rule at second order, and finite differences in the
parameters.
"""

import math

import numpy as np
import pytest

from gevrey_kit import combinatorics, parametric, pde1d
from gevrey_kit.combinatorics import MultiIndex, SplitPlan, multi_indices_up_to
from gevrey_kit.envelopes import GevreyEnvelope, ParametricEnvelope
from gevrey_kit.implicit_diff import (
    LinearizationError,
    affine_data_map,
    derivative_table,
    fill_table,
    finite_difference_check,
    first_derivative,
    scalar_cubic_oracle,
    solve_residual,
)
from gevrey_kit.parametric import (
    DomainMap1D,
    TildeData,
    data_envelope,
    gevrey_rate_fit,
    parametric_derivative_table,
    parametric_solution_derivative,
    verify_derivative_bounds,
)
from gevrey_kit.pde1d import (
    Mesh1D,
    Nonlinearity,
    PdeData,
    PdeOracle,
    data_norm,
    newton_solve,
)
from gevrey_kit.selftest import (
    CompositionTable,
    higher_derivative_reference,
    linear_leibniz_partials,
)


def closed_form_reciprocal_partial(tilde, alpha):
    """(-1)^|a| |a|! w^a / W^(|a|+1): derivative of the reciprocal of an
    affine function of the parameters."""
    n = alpha.order()
    out = ((-1.0) ** n) * math.factorial(n) / tilde.w ** (n + 1)
    for k, e in alpha.entries:
        out = out * tilde.mode_grads[k - 1] ** e
    return out


class TestDomainMap:
    def test_validation(self):
        with pytest.raises(ValueError):
            DomainMap1D(p=0)
        with pytest.raises(ValueError):
            DomainMap1D(p=9)
        with pytest.raises(ValueError):
            DomainMap1D(p=2, c=-1.0)
        with pytest.raises(ValueError):
            DomainMap1D(p=2, vartheta=1.0)
        with pytest.raises(ValueError):
            DomainMap1D(p=8, c=1.2)  # weights sum above the margin

    def test_box_validation(self):
        dmap = DomainMap1D(p=2)
        dmap.validate_point([0.5, -0.5])  # closed box: boundary allowed
        with pytest.raises(ValueError):
            dmap.validate_point([0.6, 0.0])
        with pytest.raises(ValueError):
            dmap.validate_point([0.1])

    def test_gradient_range_on_box(self):
        dmap = DomainMap1D(p=4)
        rng = np.random.default_rng(1)
        x = np.linspace(0.0, 1.0, 101)
        for _ in range(50):
            y = rng.uniform(-0.5, 0.5, 4)
            w = dmap.deformation_gradient(y, x)
            assert np.all(w >= 0.5 - 1e-12) and np.all(w <= 1.5 + 1e-12)

    def test_map_endpoints_fixed(self):
        dmap = DomainMap1D(p=3)
        y = np.array([0.4, -0.3, 0.2])
        assert abs(dmap.map_points(y, 0.0)) < 1e-15
        assert abs(dmap.map_points(y, 1.0) - 1.0) < 1e-12


class TestPullback:
    def test_identity_at_zero(self):
        mesh = Mesh1D.uniform(16)
        dmap = DomainMap1D(p=2)
        hat = PdeData.from_spec(mesh, a=1.5, b=0.5, f=2.0, g=0.0)
        tilde = TildeData(dmap, hat, mesh, np.zeros(2)).data
        assert np.array_equal(tilde.a, hat.a)
        assert np.array_equal(tilde.b, hat.b)
        assert np.array_equal(tilde.f, hat.f)
        assert tilde.g == hat.g

    def test_single_mode_closed_form(self):
        mesh = Mesh1D.uniform(16)
        dmap = DomainMap1D(p=1)
        hat = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
        tilde = TildeData(dmap, hat, mesh, np.array([0.5])).data
        w = 1.0 + 0.5 * dmap.gamma(1) * np.cos(math.pi * mesh.quad_x)
        assert np.allclose(tilde.a, 1.0 / w, rtol=1e-14)
        assert np.allclose(tilde.b, w, rtol=1e-14)
        assert float(np.min(tilde.a)) >= 1.0 / 8.0

    def test_ellipticity_preserved_on_draws(self):
        mesh = Mesh1D.uniform(8)
        dmap = DomainMap1D(p=4)
        hat = PdeData.from_spec(mesh, a=0.7, b=1.0, f=1.0)
        rng = np.random.default_rng(11)
        floor = min(1.0, 0.7) / 8.0
        for _ in range(100):
            tilde = TildeData(dmap, hat, mesh, rng.uniform(-0.5, 0.5, 4)).data
            assert float(np.min(tilde.a)) >= floor
            assert float(np.min(tilde.b)) >= 0.0

    def test_out_of_box_rejected(self):
        mesh = Mesh1D.uniform(8)
        dmap = DomainMap1D(p=1)
        hat = PdeData.from_spec(mesh, a=1.0)
        with pytest.raises(ValueError):
            TildeData(dmap, hat, mesh, np.array([0.7])).data


class TestDataPartials:
    def setup_method(self):
        self.mesh = Mesh1D.uniform(16)
        self.dmap = DomainMap1D(p=3)
        self.hat = PdeData.from_spec(self.mesh, a=1.2, b=0.7, f=1.5)

    def test_zero_partial_is_data(self):
        tilde = TildeData(self.dmap, self.hat, self.mesh, np.zeros(3))
        assert tilde.partial(MultiIndex()) is tilde.data

    def test_reciprocal_recursion_matches_closed_form(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            y = rng.uniform(-0.5, 0.5, 3)
            tilde = TildeData(self.dmap, self.hat, self.mesh, y)
            for alpha in multi_indices_up_to(3, 3):
                if alpha.is_zero():
                    continue
                got = tilde.partial(alpha)
                expected_a = self.hat.a * closed_form_reciprocal_partial(tilde, alpha)
                assert np.allclose(got.a, expected_a, rtol=1e-11, atol=1e-13)

    def test_reciprocal_coefficients_obey_leibniz_identity(self):
        # W (1/W) = 1 with W affine in y: W c_alpha + sum_k w_k c_(alpha - e_k)
        # vanishes for every nonzero alpha, c the normalized coefficients of
        # 1/W, here those of a/W over a
        rng = np.random.default_rng(21)
        tilde = TildeData(self.dmap, self.hat, self.mesh, rng.uniform(-0.5, 0.5, 3))
        c = {alpha: tilde.coefficient(alpha).a / self.hat.a
             for alpha in multi_indices_up_to(3, 5)}
        for alpha in c:
            if alpha.is_zero():
                continue
            terms = [tilde.w * c[alpha]] + [tilde.mode_grads[k - 1] * c[alpha - MultiIndex.unit(k)]
                                            for k in alpha.support()]
            scale = sum(np.abs(term) for term in terms)
            assert np.all(np.abs(sum(terms)) <= 1e-13 * scale)

    def test_load_partials_affine(self):
        tilde = TildeData(self.dmap, self.hat, self.mesh, np.full(3, 0.25))
        one = tilde.partial(MultiIndex.unit(2))
        wk = self.dmap.mode_gradient(2, self.mesh.quad_x)
        assert np.allclose(one.b, wk * self.hat.b, rtol=1e-14)
        assert np.allclose(one.f, wk * self.hat.f, rtol=1e-14)
        assert one.g == 0.0
        two = tilde.partial(MultiIndex.make({2: 2}))
        assert np.all(two.b == 0.0) and np.all(two.f == 0.0)

    def test_second_partial_at_center(self):
        tilde = TildeData(self.dmap, self.hat, self.mesh, np.zeros(3))
        alpha = MultiIndex.make({1: 2})
        got = tilde.partial(alpha)
        wk = self.dmap.mode_gradient(1, self.mesh.quad_x)
        assert np.allclose(got.a, self.hat.a * 2.0 * wk**2, rtol=1e-13)

    def test_against_finite_differences(self):
        dnorm = lambda d: float(np.max(np.abs(d.a)) + np.max(np.abs(d.b))
                                + np.max(np.abs(d.f)) + abs(d.g))
        rng = np.random.default_rng(8)
        for _ in range(5):
            y = rng.uniform(-0.3, 0.3, 3)
            tilde = TildeData(self.dmap, self.hat, self.mesh, y)
            smap = lambda ys: [TildeData(self.dmap, self.hat, self.mesh, yy).data for yy in ys]
            for alpha in [MultiIndex.unit(1), MultiIndex.unit(3),
                          MultiIndex.make({1: 1, 2: 1}), MultiIndex.make({2: 2})]:
                dirs = []
                for k, e in alpha.entries:
                    dirs += [np.eye(3)[k - 1]] * e
                est, _ = finite_difference_check(smap, y, dirs,
                                                 [0.05, 0.025, 0.0125], norm=dnorm)
                exact = tilde.partial(alpha)
                assert dnorm(est - exact) <= 1e-6 * max(1.0, dnorm(exact))

    def test_inactive_coordinate_partial_vanishes(self):
        tilde = TildeData(self.dmap, self.hat, self.mesh, np.full(3, 0.1))
        inactive = tilde.partial(MultiIndex.unit(4))  # beyond p = 3
        assert not any(np.any(getattr(inactive, name)) for name in "abf")


class TestSolutionPartials:
    def test_zero_order_is_solution(self):
        mesh = Mesh1D.uniform(32)
        dmap = DomainMap1D(p=2)
        hat = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
        nl = Nonlinearity.cubic()
        tilde = TildeData(dmap, hat, mesh, np.zeros(2))
        oracle = PdeOracle(mesh, nl)
        table = parametric_derivative_table(oracle, tilde, 1)
        u = newton_solve(mesh, tilde.data, nl)
        assert np.allclose(table.entry(MultiIndex()), u, rtol=1e-10)

    def test_linear_case_matches_leibniz_recursion(self):
        mesh = Mesh1D.uniform(32)
        dmap = DomainMap1D(p=2)
        hat = PdeData.from_spec(mesh, a=1.0, b=0.0, f=1.0)
        nl = Nonlinearity.cubic()
        tilde = TildeData(dmap, hat, mesh, np.array([0.25, -0.25]))
        oracle = PdeOracle(mesh, nl)
        table = parametric_derivative_table(oracle, tilde, 3)
        reference = linear_leibniz_partials(mesh, tilde.partial, 2, 3)
        for alpha, expected in reference.items():
            got = table.entry(alpha)
            scale = max(1e-14, float(np.max(np.abs(expected))))
            assert np.allclose(got, expected, rtol=1e-9, atol=1e-11 * scale), alpha.label()

    def test_mixed_partial_matches_directional_chain_rule(self):
        # d2u/dy1 dy2 = D2S[d1 data, d2 data] + DS[d2 data/dy1 dy2]
        mesh = Mesh1D.uniform(32)
        dmap = DomainMap1D(p=2)
        hat = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
        nl = Nonlinearity.cubic()
        y = np.array([0.2, -0.1])
        tilde = TildeData(dmap, hat, mesh, y)
        oracle = PdeOracle(mesh, nl)

        mixed = MultiIndex.make({1: 1, 2: 1})
        table = parametric_derivative_table(oracle, tilde, 2)
        engine = table.entry(mixed)

        d1 = tilde.partial(MultiIndex.unit(1))
        d2 = tilde.partial(MultiIndex.unit(2))
        directional = derivative_table(oracle, tilde.data, [d1, d2], 2, tol=1e-13)
        from gevrey_kit.implicit_diff import first_derivative

        cross = directional.entry(MultiIndex.make({1: 1, 2: 1}))
        correction = first_derivative(oracle, tilde.data, directional.entry(MultiIndex()),
                                      tilde.partial(mixed))
        combined = cross + correction
        assert np.allclose(engine, combined, rtol=1e-9,
                           atol=1e-12 * max(1.0, float(np.max(np.abs(engine)))))

    def test_engine_matches_literal_chain_rule(self):
        # the pullback data map is not affine: its partials of order >= 2 are nonzero
        mesh = Mesh1D.uniform(16)
        dmap = DomainMap1D(p=2)
        hat = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
        tilde = TildeData(dmap, hat, mesh, np.array([0.3, -0.2]))
        oracle = PdeOracle(mesh, Nonlinearity.cubic())
        table = parametric_derivative_table(oracle, tilde, 3)
        for alpha in multi_indices_up_to(2, 3):
            if alpha.order() < 2:
                continue
            engine = table.entry(alpha)
            literal = higher_derivative_reference(oracle, table, alpha)
            assert mesh.h1_norm(engine - literal) <= 1e-12 * mesh.h1_norm(engine), alpha.label()

    def test_mixed_fd_match(self):
        mesh = Mesh1D.uniform(64)
        dmap = DomainMap1D(p=2)
        hat = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
        nl = Nonlinearity.cubic()
        y = np.array([0.1, -0.2])
        tilde = TildeData(dmap, hat, mesh, y)
        oracle = PdeOracle(mesh, nl)
        table = parametric_derivative_table(oracle, tilde, 2, tol=1e-13)
        smap = lambda ys: [newton_solve(mesh, TildeData(dmap, hat, mesh, yy).data, nl, tol=1e-13)
                           for yy in ys]
        est, ind = finite_difference_check(
            smap, y, [np.array([1.0, 0.0]), np.array([0.0, 1.0])],
            [0.08, 0.04, 0.02], norm=mesh.h1_norm, eval_noise=2e-13,
        )
        alpha = MultiIndex.make({1: 1, 2: 1})
        assert mesh.h1_norm(table.entry(alpha) - est) <= ind

    def test_missing_lower_entries_rejected(self):
        mesh = Mesh1D.uniform(16)
        dmap = DomainMap1D(p=2)
        hat = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
        nl = Nonlinearity.cubic()
        tilde = TildeData(dmap, hat, mesh, np.zeros(2))
        oracle = PdeOracle(mesh, nl)
        u = solve_residual(oracle, tilde.data, oracle.zero_state(), 1e-12)
        table = CompositionTable(oracle, tilde.data, u, tilde.coefficient)
        with pytest.raises(LookupError):
            parametric_solution_derivative(oracle, tilde, table,
                                           MultiIndex.make({1: 2}))

    def test_oracle_at_orders_zero_and_one_matches_the_fill(self):
        mesh = Mesh1D.uniform(16)
        hat = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
        tilde = TildeData(DomainMap1D(p=2), hat, mesh, np.array([0.3, -0.2]))
        oracle = PdeOracle(mesh, Nonlinearity.cubic())
        table = parametric_derivative_table(oracle, tilde, 1)
        assert parametric_solution_derivative(oracle, tilde, table, MultiIndex()) is table.u
        for k in (1, 2):
            engine = table.entry(MultiIndex.unit(k))
            first = parametric_solution_derivative(oracle, tilde, table, MultiIndex.unit(k))
            assert mesh.h1_norm(engine - first) <= 1e-12 * mesh.h1_norm(engine), k


def composition_table(oracle, d, u, data_coefficient, alphas):
    """Partials by the composition sum of the chain rule, the independent
    oracle for the Taylor-coefficient fill, as {alpha: partial}."""
    return CompositionTable(oracle, d, u, data_coefficient,
                            [alpha for alpha in alphas if not alpha.is_zero()]).entries


def largest_relative_h1_gap(mesh, table, reference):
    return max(mesh.h1_norm(value - table.entry(alpha)) / mesh.h1_norm(value)
               for alpha, value in reference.items() if not alpha.is_zero())


NONLINEARITIES = pytest.mark.parametrize("nl", [
    Nonlinearity.cubic(),
    Nonlinearity.tanh_shifted(),
    Nonlinearity.polynomial([3.0, -3.0, 1.0]),
], ids=["cubic", "tanh", "poly-3-3-1"])

#: Coefficients of N = 0, a linear problem whatever the reaction weight b.
ZERO_NONLINEARITY = pytest.mark.parametrize("coeffs", [[], [0.0], [0.0, 0.0, 0.0]],
                                            ids=["empty", "zero", "zeros"])


class TestTaylorFill:
    @NONLINEARITIES
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_parametric_table_matches_composition_sum(self, nl, p):
        mesh = Mesh1D.uniform(32)
        dmap = DomainMap1D(p=p)
        hat = PdeData.from_spec(mesh, a=lambda x: 1.0 + 0.5 * x, b=1.0, f=1.0)
        y = np.random.default_rng(p).uniform(-0.5, 0.5, p)
        tilde = TildeData(dmap, hat, mesh, y)
        u = newton_solve(mesh, tilde.data, nl)
        table = parametric_derivative_table(PdeOracle(mesh, nl), tilde, 5, u=u)
        fresh = TildeData(dmap, hat, mesh, y)
        reference = composition_table(PdeOracle(mesh, nl), fresh.data, u, fresh.coefficient,
                                      multi_indices_up_to(p, 5))
        assert len(table) == len(reference)
        assert largest_relative_h1_gap(mesh, table, reference) <= 1e-10

    @NONLINEARITIES
    def test_directional_neumann_table_matches_composition_sum(self, nl):
        # directions carry a, b, f and the flux g, which enters the boundary term
        mesh = Mesh1D.uniform(32, "neumann")
        base = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0, g=0.5)
        directions = [
            PdeData.from_spec(mesh, a=lambda x: 0.3 * x, f=1.0),
            PdeData.from_spec(mesh, b=0.5, g=1.0),
            PdeData.from_spec(mesh, a=-0.2, b=lambda x: x, f=lambda x: np.sin(x), g=-0.4),
        ]
        oracle = PdeOracle(mesh, nl)
        table = derivative_table(oracle, base, directions, 4)
        reference = composition_table(PdeOracle(mesh, nl), base, table.u,
                                      affine_data_map(oracle, base, directions),
                                      [alpha for alpha, _ in table.items()])
        assert largest_relative_h1_gap(mesh, table, reference) <= 1e-10

    @ZERO_NONLINEARITY
    def test_zero_nonlinearity_table_matches_leibniz_recursion(self, coeffs):
        # b and its partials are nonzero, but multiply N(u) = 0: the recursion,
        # which reads only a, f and g, is exact
        mesh = Mesh1D.uniform(32)
        hat = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
        tilde = TildeData(DomainMap1D(p=2), hat, mesh, np.array([0.25, -0.25]))
        assert np.any(tilde.partial(MultiIndex.unit(1)).b)
        oracle = PdeOracle(mesh, Nonlinearity.polynomial(coeffs))
        table = parametric_derivative_table(oracle, tilde, 3)
        reference = linear_leibniz_partials(mesh, tilde.partial, 2, 3)
        assert len(table) == len(reference)
        assert largest_relative_h1_gap(mesh, table, reference) <= 1e-10

    @ZERO_NONLINEARITY
    def test_zero_nonlinearity_directional_table_matches_leibniz_recursion(self, coeffs):
        mesh = Mesh1D.uniform(32)
        base = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
        direction = PdeData.from_spec(mesh, a=lambda x: 0.3 * x, b=0.5, f=-1.0)
        oracle = PdeOracle(mesh, Nonlinearity.polynomial(coeffs))
        table = derivative_table(oracle, base, [direction], 4)
        # the partials in t of the affine data map base + t direction
        partial = lambda alpha: (base if alpha.is_zero() else direction if alpha.order() == 1
                                 else PdeData.zeros(mesh))
        reference = linear_leibniz_partials(mesh, partial, 1, 4)
        assert len(table) == len(reference)
        assert largest_relative_h1_gap(mesh, table, reference) <= 1e-10

    def test_fill_is_deterministic(self):
        mesh = Mesh1D.uniform(48)
        dmap = DomainMap1D(p=3)
        hat = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
        y = np.array([0.3, -0.1, 0.45])
        for nl in (Nonlinearity.tanh_shifted(), Nonlinearity.cubic(),
                   Nonlinearity.polynomial([3.0, -3.0, 1.0])):
            tables = [parametric_derivative_table(PdeOracle(mesh, nl),
                                                  TildeData(dmap, hat, mesh, y), 4)
                      for _ in range(2)]
            first, second = ([(alpha, value.tobytes()) for alpha, value in t.items()]
                             for t in tables)
            assert first == second

    @pytest.mark.parametrize("p, order", [(2, 7), (1, 9)])
    def test_tanh_high_order_table_matches_composition_sum(self, p, order):
        # the Euler series of the inner tanh(u) above the orders of the other cases
        mesh = Mesh1D.uniform(16)
        nl = Nonlinearity.tanh_shifted()
        hat = PdeData.from_spec(mesh, a=lambda x: 1.0 + 0.5 * x, b=1.0, f=1.0)
        y = np.random.default_rng(p).uniform(-0.5, 0.5, p)
        tilde = TildeData(DomainMap1D(p=p), hat, mesh, y)
        u = newton_solve(mesh, tilde.data, nl)
        table = parametric_derivative_table(PdeOracle(mesh, nl), tilde, order, u=u)
        reference = composition_table(PdeOracle(mesh, nl), tilde.data, u, tilde.coefficient,
                                      multi_indices_up_to(p, order))
        assert len(table) == len(reference)
        assert largest_relative_h1_gap(mesh, table, reference) <= 1e-10

    @NONLINEARITIES
    def test_chunked_products_match_composition_sum(self, nl, monkeypatch):
        # one left row per outer-product block, as for the largest orders
        monkeypatch.setattr(combinatorics, "_BLOCK_BYTES", 1)
        mesh = Mesh1D.uniform(16)
        dmap = DomainMap1D(p=3)
        hat = PdeData.from_spec(mesh, a=lambda x: 1.0 + 0.5 * x, b=1.0, f=1.0)
        tilde = TildeData(dmap, hat, mesh, np.array([0.3, -0.2, 0.4]))
        u = newton_solve(mesh, tilde.data, nl)
        table = parametric_derivative_table(PdeOracle(mesh, nl), tilde, 4, u=u)
        reference = composition_table(PdeOracle(mesh, nl), tilde.data, u, tilde.coefficient,
                                      multi_indices_up_to(3, 4))
        assert largest_relative_h1_gap(mesh, table, reference) <= 1e-10

    def test_one_solve_per_order(self, monkeypatch):
        # the batched fill solves each order's loads as the columns of one
        # right-hand side, with the factors of one linearization: 5 solves
        # for the 125 entries of p = 4, order 5
        mesh = Mesh1D.uniform(32)
        nl = Nonlinearity.cubic()
        tilde = TildeData(DomainMap1D(p=4), PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0),
                          mesh, np.full(4, 0.25))
        u = newton_solve(mesh, tilde.data, nl)
        columns, factorizations = [], []
        solve, ldl = pde1d._ldl_solve, pde1d._ldl

        def counting(factors, rhs):
            columns.append(np.shape(rhs)[1])
            return solve(factors, rhs)

        monkeypatch.setattr(pde1d, "_ldl_solve", counting)
        monkeypatch.setattr(pde1d, "_ldl", lambda *bands: factorizations.append(1) or ldl(*bands))
        table = parametric_derivative_table(PdeOracle(mesh, nl), tilde, 5, u=u)
        assert len(table) == 126
        assert columns == [4, 10, 20, 35, 56]
        assert factorizations == [1]

    @pytest.mark.parametrize("nl", [Nonlinearity.cubic(), Nonlinearity.tanh_shifted()],
                             ids=["cubic", "tanh"])
    def test_one_reduction_per_split_order(self, nl, monkeypatch):
        # the slopes and the Gauss-point series, tanh's Euler series among
        # them, share the reduction of each (m, k): 10 for the orders
        # 1 <= k < m <= 5 of p = 4, order 5
        mesh = Mesh1D.uniform(32)
        tilde = TildeData(DomainMap1D(p=4), PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0),
                          mesh, np.full(4, 0.25))
        u = newton_solve(mesh, tilde.data, nl)
        built = []
        reduction = SplitPlan._reduction

        def counting(self, m, k, step):
            built.append((m, k))
            return reduction(self, m, k, step)

        monkeypatch.setattr(SplitPlan, "_reduction", counting)
        parametric_derivative_table(PdeOracle(mesh, nl), tilde, 5, u=u)
        assert sorted(built) == [(m, k) for m in range(2, 6) for k in range(1, m)]

    @pytest.mark.parametrize("oracle_kind", ["pde", "scalar"])
    def test_decreasing_orders_rejected(self, oracle_kind):
        if oracle_kind == "pde":
            mesh = Mesh1D.uniform(8)
            base = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
            oracle = PdeOracle(mesh, Nonlinearity.cubic())
            direction = PdeData.from_spec(mesh, f=1.0)
        else:
            oracle, base, direction = scalar_cubic_oracle(), np.array([0.5]), np.array([1.0])
        u = solve_residual(oracle, base, oracle.zero_state(), 1e-12)
        with pytest.raises(ValueError, match="nondecreasing order"):
            fill_table(oracle, base, u, SplitPlan([MultiIndex.make({1: 2}), MultiIndex.unit(1)]),
                       affine_data_map(oracle, base, [direction]))

    def test_indefinite_linearization_raises(self):
        mesh = Mesh1D.uniform(16)
        base = PdeData.from_spec(mesh, a=lambda x: 1.0 - 3.0 * x, b=1.0, f=1.0)
        oracle = PdeOracle(mesh, Nonlinearity.cubic())
        direction = PdeData.from_spec(mesh, f=1.0)
        with pytest.raises(LinearizationError, match="not positive definite"):
            fill_table(oracle, base, oracle.zero_state(),
                       SplitPlan([MultiIndex.unit(1), MultiIndex.make({1: 2})]),
                       affine_data_map(oracle, base, [direction]))


def same_bits(got, expected):
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    return got.shape == expected.shape and np.array_equal(got.view(np.int64),
                                                          expected.view(np.int64))


class TestPerOrderBitwise:
    """The per-order arrays of the verify-bounds path against the per-key
    oracles, bit for bit."""

    def test_data_blocks_match_coefficients(self):
        mesh = Mesh1D.uniform(8)
        dmap = DomainMap1D(p=8)
        # b = 0 gives b-parts of +-0.0 with the sign of each mode gradient
        hat = PdeData.from_spec(mesh, a=lambda x: 1.0 + x, b=0.0, f=-1.0)
        plan = SplitPlan.up_to(8, 7)
        for y in (np.array([0.0, -0.3, 0.0, 0.5, -0.0, 0.1, 0.0, 0.25]),
                  np.random.default_rng(5).uniform(-0.5, 0.5, 8)):
            tilde = TildeData(dmap, hat, mesh, y)
            for m in range(1, 8):
                block = tilde.coefficients(plan, m)
                fields = {name: np.broadcast_to(getattr(block, name),
                                                (plan.size(m),) + np.shape(getattr(tilde.data, name)))
                          for name in "abfg"}
                for i, alpha in enumerate(plan.keys(m)):
                    expected = tilde.coefficient(alpha)
                    for name in "abfg":
                        assert same_bits(fields[name][i], getattr(expected, name)), \
                            (alpha.label(), name)

    def test_blocks_need_a_plan_within_the_active_coordinates(self):
        mesh = Mesh1D.uniform(8)
        tilde = TildeData(DomainMap1D(p=2), PdeData.from_spec(mesh), mesh, np.zeros(2))
        with pytest.raises(ValueError, match="active dimension"):
            tilde.coefficients(SplitPlan.up_to(3, 2), 1)

    def test_h1_norms_match_mesh_norm(self):
        mesh = Mesh1D.uniform(256)
        nl = Nonlinearity.cubic()
        tilde = TildeData(DomainMap1D(p=4), PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0),
                          mesh, np.array([0.3, -0.2, 0.0, 0.45]))
        table = parametric_derivative_table(PdeOracle(mesh, nl), tilde, 5)
        assert len(table) == 126
        for m, block in enumerate(table.orders):
            # each entry as its own array, as the per-key table stored it
            expected = [mesh.h1_norm(table.entry(alpha).copy()) for alpha in table.plan.keys(m)]
            assert same_bits(mesh.h1_norms(block), expected), m

    def test_log_bounds_match_per_key_log_bound(self):
        # a zero weight and two coordinates past the stored weights (tail)
        env = ParametricEnvelope(GevreyEnvelope(1.0, 0.7, 3.0), (0.3, 0.0, 0.1),
                                 tail=(0.5, 2.0))
        plan = SplitPlan.up_to(5, 5)
        for m in range(6):
            got = env.log_bounds(m, plan.exps[m])
            keys = plan.keys(m)
            assert same_bits(got, [env.log_bound(alpha) for alpha in keys]), m
            assert not np.any(np.isnan(got))
            assert all((got[i] == -np.inf) == (alpha[2] > 0) for i, alpha in enumerate(keys))


class TestDataEnvelope:
    def test_dominates_measured_partial_norms(self):
        mesh = Mesh1D.uniform(24)
        dmap = DomainMap1D(p=3)
        hat = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
        env = data_envelope(dmap, hat, mesh)
        rng = np.random.default_rng(13)
        for _ in range(5):
            y = rng.uniform(-0.5, 0.5, 3)
            tilde = TildeData(dmap, hat, mesh, y)
            for alpha in multi_indices_up_to(3, 3):
                if alpha.is_zero():
                    continue
                measured = data_norm(mesh, tilde.partial(alpha))
                assert measured <= env.bound(alpha) * (1.0 + 1e-9), alpha.label()

    def test_weights_follow_map(self):
        dmap = DomainMap1D(p=2, c=0.4, vartheta=1.5)
        mesh = Mesh1D.uniform(8)
        env = data_envelope(dmap, PdeData.from_spec(mesh, a=1.0), mesh)
        assert env.weights == dmap.gammas()
        assert env.tail == (0.4, 1.5)
        assert env.base.rate == 2.0


class TestVerifyDubounds:
    def test_solution_norm_is_the_tables_order_zero_norm(self, monkeypatch):
        mesh = Mesh1D.uniform(32)
        dmap = DomainMap1D(p=2)
        hat = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
        nl = Nonlinearity.tanh_shifted()
        ys = [np.array([0.3, -0.2]), np.array([-0.4, 0.1])]
        expected = max(mesh.h1_norm(newton_solve(mesh, TildeData(dmap, hat, mesh, y).data, nl))
                       for y in ys)
        norms = []
        h1_norm = Mesh1D.h1_norm
        monkeypatch.setattr(Mesh1D, "h1_norm", lambda mesh, v: norms.append(1) or h1_norm(mesh, v))
        report = verify_derivative_bounds(dmap, hat, mesh, nl, ys, max_order=2)
        # one norm of u per point, in the a-priori bound check of its solve,
        # which its constants reuse; the report's comes from the table
        assert len(norms) == len(ys)
        assert report.constants["sup_solution_norm"] == expected

    def test_small_run_passes(self):
        mesh = Mesh1D.uniform(48)
        dmap = DomainMap1D(p=2)
        hat = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
        nl = Nonlinearity.cubic()
        rng = np.random.default_rng(17)
        ys = [rng.uniform(-0.5, 0.5, 2) for _ in range(2)]
        report = verify_derivative_bounds(dmap, hat, mesh, nl, ys, max_order=2)
        assert report.passed
        assert len(report.rows) == 2 * len(multi_indices_up_to(2, 2))
        zero_rows = [r for r in report.rows if r.alpha.is_zero()]
        assert all(r.ok for r in zero_rows)

    def test_shrunk_envelope_fails_with_named_rows(self):
        mesh = Mesh1D.uniform(32)
        dmap = DomainMap1D(p=2)
        hat = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
        nl = Nonlinearity.cubic()
        ys = [np.array([0.25, 0.25])]
        env = verify_derivative_bounds(dmap, hat, mesh, nl, ys, max_order=0).envelope
        shrunk = ParametricEnvelope(
            GevreyEnvelope(env.base.s, env.base.scale * 1e-10, env.base.rate / 100.0),
            env.weights, env.tail,
        )
        report = verify_derivative_bounds(dmap, hat, mesh, nl, ys, max_order=1, envelope=shrunk)
        assert not report.passed
        assert len(report.failures) >= 1
        assert all(row.ratio > 1.0 for row in report.failures)

    def test_one_plan_for_all_points(self, monkeypatch):
        mesh = Mesh1D.uniform(32)
        dmap = DomainMap1D(p=3)
        hat = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
        nl = Nonlinearity.cubic()
        ys = [np.array([0.1, -0.4, 0.2]), np.array([-0.3, 0.0, 0.45]), np.full(3, 0.25)]
        built = []
        init = SplitPlan.__init__

        def counting(self, keys):
            built.append(len(keys))
            init(self, keys)

        monkeypatch.setattr(SplitPlan, "__init__", counting)
        report = verify_derivative_bounds(dmap, hat, mesh, nl, ys, max_order=3)
        assert built == [len(multi_indices_up_to(3, 3)) - 1]
        for y_index, y in enumerate(ys):
            alone = verify_derivative_bounds(dmap, hat, mesh, nl, [y], max_order=3,
                                             envelope=report.envelope)
            mine = [(r.alpha, r.measured) for r in report.rows if r.y_index == y_index]
            assert mine == [(r.alpha, r.measured) for r in alone.rows]

    def test_each_point_measures_as_if_alone(self):
        mesh = Mesh1D.uniform(32)
        dmap = DomainMap1D(p=2)
        hat = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
        nl = Nonlinearity.cubic()
        ys = [np.array([0.3, -0.45]), np.array([-0.2, 0.1])]
        report = verify_derivative_bounds(dmap, hat, mesh, nl, (y for y in ys), max_order=3)
        assert len(report.constants["per_point"]) == 2
        assert all("alpha_measured" not in c for c in report.constants["per_point"])
        for y_index, y in enumerate(ys):
            alone = verify_derivative_bounds(dmap, hat, mesh, nl, [y], max_order=3)
            mine = [r for r in report.rows if r.y_index == y_index]
            assert [r.alpha for r in mine] == [r.alpha for r in alone.rows]
            assert same_bits([r.measured for r in mine], [r.measured for r in alone.rows])

    def test_passed_envelope_measures_no_constants(self, monkeypatch):
        mesh = Mesh1D.uniform(32)
        dmap = DomainMap1D(p=2)
        hat = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
        nl = Nonlinearity.cubic()
        ys = [np.array([0.25, 0.25])]
        env = verify_derivative_bounds(dmap, hat, mesh, nl, ys, max_order=0).envelope

        def forbidden(*args, **kwargs):
            raise AssertionError("estimate_constants called with an envelope passed")

        monkeypatch.setattr(parametric, "estimate_constants", forbidden)
        report = verify_derivative_bounds(dmap, hat, mesh, nl, ys, max_order=2, envelope=env)
        assert report.envelope is env and report.constants == {}
        assert len(report.rows) == len(multi_indices_up_to(2, 2))

    def test_no_parameter_points_rejected(self):
        mesh = Mesh1D.uniform(16)
        hat = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
        with pytest.raises(ValueError, match="at least one parameter point"):
            verify_derivative_bounds(DomainMap1D(p=2), hat, mesh, Nonlinearity.cubic(),
                                     (y for y in []), max_order=2)

    def test_deterministic(self):
        mesh = Mesh1D.uniform(24)
        dmap = DomainMap1D(p=2)
        hat = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
        nl = Nonlinearity.cubic()
        ys = [np.array([0.1, -0.4])]
        r1 = verify_derivative_bounds(dmap, hat, mesh, nl, ys, max_order=2)
        r2 = verify_derivative_bounds(dmap, hat, mesh, nl, ys, max_order=2)
        assert [(a.alpha, a.measured, a.log_bound) for a in r1.rows] == \
               [(a.alpha, a.measured, a.log_bound) for a in r2.rows]


class TestRateFit:
    def test_synthetic_round_trip(self):
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
        assert abs(fit.s - 1.5) < 1e-6
        assert abs(fit.rate - 2.0) < 1e-6
        assert abs(fit.scale - 1.0) < 1e-6

    def test_affine_linear_problem_is_analytic(self):
        mesh = Mesh1D.uniform(48)
        dmap = DomainMap1D(p=2)
        x = mesh.quad_x
        zero = np.zeros_like(x)
        ones = np.ones_like(x)

        class AffineData:
            """Synthetic data map that is affine in the parameters."""

            def partial(self, alpha):
                if alpha.is_zero():
                    return PdeData(ones.copy(), zero, ones.copy(), 0.0)
                if alpha.order() == 1:
                    k = alpha.support()[0]
                    return PdeData(dmap.mode_gradient(k, x), zero, zero, 0.0)
                return PdeData(zero, zero, zero, 0.0)

            data = property(lambda self: self.partial(MultiIndex()))

        entries = linear_leibniz_partials(mesh, AffineData().partial, 2, 5)
        norms = {a: mesh.h1_norm(v) for a, v in entries.items() if not a.is_zero()}
        fit = gevrey_rate_fit(norms, dmap.gammas())
        assert fit.s <= 1.2

    def test_degenerate_inputs_rejected(self):
        weights = (0.5, 0.25)
        with pytest.raises(ValueError):
            gevrey_rate_fit({}, weights)
        constant = {MultiIndex.unit(1): 0.0, MultiIndex.unit(2): 0.0}
        with pytest.raises(ValueError):
            gevrey_rate_fit(constant, weights)
        single = {MultiIndex.unit(1): 1.0, MultiIndex.unit(2): 2.0}
        with pytest.raises(ValueError):
            gevrey_rate_fit(single, weights)
