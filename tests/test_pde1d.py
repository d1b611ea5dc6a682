"""P1 discretization: assembly, derivative formulas, solver, constants."""

import math

import numpy as np
import pytest

from gevrey_kit.combinatorics import MultiIndex
from gevrey_kit.envelopes import GevreyEnvelope, StabilityConstant, envelope_check, implicit_envelope
from gevrey_kit.implicit_diff import derivative_table, finite_difference_check, solve_residual
from gevrey_kit.pde1d import (
    Mesh1D,
    Nonlinearity,
    PdeData,
    PdeOracle,
    apply_residual_derivative,
    assemble_residual,
    data_norm,
    estimate_constants,
    linearization_matrix,
    monotonicity_probe,
    nemyckii_derivative,
    newton_solve,
    solution_bound_check,
    validate_admissible,
)
from gevrey_kit.selftest import shooting_midpoint

CONTINUOUS_POINCARE = math.sqrt(1.0 + math.pi**2) / math.pi


class TestMesh:
    def test_validation(self):
        with pytest.raises(ValueError):
            Mesh1D([0.0, 0.5])  # does not end at 1
        with pytest.raises(ValueError):
            Mesh1D([0.0, 0.6, 0.5, 1.0])
        with pytest.raises(ValueError):
            Mesh1D([0.0, 0.5, 1.0], right_bc="robin")

    def test_quadrature_exactness(self):
        # 3-point Gauss per element integrates quintics exactly
        mesh = Mesh1D.uniform(4)
        assert math.isclose(mesh.integrate(mesh.quad_x**5), 1.0 / 6.0, rel_tol=1e-14)

    def test_field_specs(self):
        mesh = Mesh1D.uniform(4)
        assert np.all(mesh.field(2.0) == 2.0)
        assert np.allclose(mesh.field(lambda x: x), mesh.quad_x)
        flat = list(range(mesh.quad_x.size))
        assert mesh.field(flat).shape == mesh.quad_x.shape
        with pytest.raises(ValueError):
            mesh.field(np.zeros(7))

    def test_free_node_layout(self):
        assert Mesh1D.uniform(8).n_free == 7
        assert Mesh1D.uniform(8, right_bc="neumann").n_free == 8

    def test_h1_norm_matches_hand_integration(self):
        mesh = Mesh1D.uniform(64)
        v = mesh.interpolate(lambda x: x * (1.0 - x))
        # ||v||_L2^2 = 1/30, ||v'||_L2^2 = 1/3 for the continuous function
        expected = math.sqrt(1.0 / 30.0 + 1.0 / 3.0)
        assert abs(mesh.h1_norm(v) - expected) < 1e-3

    def test_dual_norm_via_riesz(self):
        mesh = Mesh1D.uniform(16)
        rng = np.random.default_rng(0)
        func = rng.standard_normal(mesh.n_free)
        w = mesh.riesz(func)
        assert math.isclose(mesh.dual_norm(func), mesh.h1_norm(w), rel_tol=1e-12)


class TestNonlinearity:
    def test_cubic_values(self):
        nl = Nonlinearity.cubic()
        assert nl.degree == 3
        assert float(nl.deriv(1, 2.0)) == 12.0
        assert float(nl.deriv(3, 5.0)) == 6.0
        assert float(nl.deriv(4, 5.0)) == 0.0
        assert nl.zero_value == 0.0

    def test_polynomial_constant_term_rejected(self):
        with pytest.raises(ValueError):
            Nonlinearity("polynomial", np.array([1.0, 0.0, 1.0]), 4.0)

    def test_degree_exceeding_growth_exponent_rejected(self):
        with pytest.raises(ValueError):
            Nonlinearity.polynomial([0.0, 0.0, 1.0], q=3.0)

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError):
            Nonlinearity.polynomial([0.0, 1.0])  # z**2 decreases left of zero

    def test_monotonicity_decided_on_whole_line(self):
        # N'(z) = (z - 50)**2 - 1 dips below zero only on (49, 51)
        with pytest.raises(ValueError, match="monotone"):
            Nonlinearity.polynomial([2499.0, -50.0, 1.0 / 3.0])
        # N'(z) = 3 (z - 1)**2 touches zero at a double root
        Nonlinearity.polynomial([3.0, -3.0, 1.0])

    def test_exponential_rejected_with_growth_message(self):
        with pytest.raises(ValueError, match="growth"):
            Nonlinearity.exponential()

    def test_tanh_shifted(self):
        nl = Nonlinearity.tanh_shifted()
        assert nl.zero_value == 2.0
        assert float(nl.deriv(1, 0.0)) == 1.0
        assert abs(float(nl.deriv(2, 0.0))) < 1e-15
        assert nl.max_order() is None
        zs = np.linspace(-3.0, 3.0, 7)
        finite_diff = (nl.deriv(1, zs + 1e-6) - nl.deriv(1, zs - 1e-6)) / 2e-6
        assert np.allclose(nl.deriv(2, zs), finite_diff, atol=1e-7)

    def test_deriv_sup_matches_dense_grid(self):
        for nl in (Nonlinearity.cubic(), Nonlinearity.tanh_shifted()):
            for n in range(0, 4):
                lo, hi = -0.8, 1.3
                grid = np.linspace(lo, hi, 20001)
                dense = float(np.max(np.abs(nl.deriv(n, grid))))
                exact = nl.deriv_sup(n, lo, hi)
                assert exact >= dense - 1e-9
                assert exact <= dense * (1.0 + 1e-3) + 1e-9

    def test_growth_constant_cubic(self):
        nl = Nonlinearity.cubic()
        assert 0.9 <= nl.growth_constant <= 1.1


class TestNemyckii:
    def test_constant_field_value(self):
        mesh = Mesh1D.uniform(32)
        nl = Nonlinearity.cubic()
        u = mesh.interpolate(lambda x: 2.0)
        ones = mesh.interpolate(lambda x: 1.0)
        field = nemyckii_derivative(mesh, nl, 1, u, [ones])
        # interior elements see u = 2: N'(2) * 1 = 12
        assert np.allclose(field[mesh.n_elements // 2], 12.0)

    def test_degree_cap(self):
        mesh = Mesh1D.uniform(8)
        nl = Nonlinearity.cubic()
        u = mesh.interpolate(lambda x: x)
        args = [u, u, u, u]
        assert np.all(nemyckii_derivative(mesh, nl, 4, u, args) == 0.0)


class TestResidual:
    def test_zero_data_zero_state(self):
        mesh = Mesh1D.uniform(16)
        nl = Nonlinearity.cubic()
        data = PdeData.from_spec(mesh, a=1.0, b=1.0, f=0.0)
        res = assemble_residual(mesh, data, nl, np.zeros(mesh.n_free))
        assert np.all(res == 0.0)

    def test_manufactured_dirichlet(self):
        mesh = Mesh1D.uniform(64)
        nl = Nonlinearity.cubic()
        data = PdeData.from_spec(mesh, a=1.0, b=0.0, f=1.0)
        u = mesh.interpolate(lambda x: 0.5 * x * (1.0 - x))
        assert mesh.dual_norm(assemble_residual(mesh, data, nl, u)) <= (1.0 / 64) ** 2

    def test_manufactured_neumann_exact(self):
        mesh = Mesh1D.uniform(64, right_bc="neumann")
        nl = Nonlinearity.cubic()
        data = PdeData.from_spec(mesh, a=1.0, b=0.0, f=0.0, g=1.0)
        u = mesh.interpolate(lambda x: x)
        assert mesh.dual_norm(assemble_residual(mesh, data, nl, u)) <= 1e-12


class TestResidualDerivative:
    def setup_method(self):
        self.mesh = Mesh1D.uniform(32)
        self.nl = Nonlinearity.cubic()
        self.data = PdeData.from_spec(self.mesh, a=1.3, b=0.8, f=1.0)
        self.rng = np.random.default_rng(2024)
        self.u = self.rng.standard_normal(self.mesh.n_free)

    def rand_pair(self):
        mesh = self.mesh
        d = PdeData(mesh.field(self.rng.standard_normal()),
                    mesh.field(self.rng.standard_normal()),
                    mesh.field(self.rng.standard_normal()), 0.0)
        return d, self.rng.standard_normal(mesh.n_free)

    def test_pure_state_direction_is_stiffness_action(self):
        mesh = Mesh1D.uniform(16)
        data = PdeData.from_spec(mesh, a=1.7, b=0.0, f=0.5)
        w = np.random.default_rng(1).standard_normal(mesh.n_free)
        got = apply_residual_derivative(mesh, data, self.nl, np.zeros(mesh.n_free),
                                        1, [(PdeData.zeros(mesh), w)])
        expected = mesh.stiffness_matrix(data.a) @ w
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-14)

    def test_first_derivative_matches_finite_difference(self):
        direction = self.rand_pair()
        mesh, data, nl, u = self.mesh, self.data, self.nl, self.u

        def residual_at(t):
            return assemble_residual(mesh, data + t * direction[0], nl,
                                     u + t * direction[1])

        got = apply_residual_derivative(mesh, data, nl, u, 1, [direction])
        for t, tol in ((1e-4, 1e-6), (1e-5, 1e-8)):
            fd = (residual_at(t) - residual_at(-t)) / (2.0 * t)
            assert np.max(np.abs(fd - got)) < tol * max(1.0, np.max(np.abs(got)))

    def test_neumann_direction_term(self):
        mesh = Mesh1D.uniform(8, right_bc="neumann")
        data = PdeData.from_spec(mesh, a=1.0, b=0.0, f=0.0, g=0.5)
        delta = PdeData(np.zeros_like(mesh.quad_x), np.zeros_like(mesh.quad_x),
                        np.zeros_like(mesh.quad_x), 2.0)
        got = apply_residual_derivative(mesh, data, self.nl, np.zeros(mesh.n_free),
                                        1, [(delta, np.zeros(mesh.n_free))])
        expected = np.zeros(mesh.n_free)
        expected[-1] = -2.0
        assert np.allclose(got, expected)

    def test_second_derivative_pure_composition_term(self):
        mesh, data, nl, u = self.mesh, self.data, self.nl, self.u
        zero = PdeData.zeros(mesh)
        v1 = self.rng.standard_normal(mesh.n_free)
        v2 = self.rng.standard_normal(mesh.n_free)
        got = apply_residual_derivative(mesh, data, nl, u, 2, [(zero, v1), (zero, v2)])
        integrand = data.b * 6.0 * mesh.at_quad(u) * mesh.at_quad(v1) * mesh.at_quad(v2)
        assert np.allclose(got, mesh.assemble_load(None, integrand), rtol=1e-12)

    def test_second_derivative_symmetry(self):
        p1, p2 = self.rand_pair(), self.rand_pair()
        a = apply_residual_derivative(self.mesh, self.data, self.nl, self.u, 2, [p1, p2])
        b = apply_residual_derivative(self.mesh, self.data, self.nl, self.u, 2, [p2, p1])
        assert np.allclose(a, b, rtol=1e-12, atol=1e-14)

    def test_multilinearity_scaling(self):
        pairs = [self.rand_pair() for _ in range(3)]
        base = apply_residual_derivative(self.mesh, self.data, self.nl, self.u, 3, pairs)
        scaled = [pairs[0], (3.0 * pairs[1][0], 3.0 * pairs[1][1]), pairs[2]]
        got = apply_residual_derivative(self.mesh, self.data, self.nl, self.u, 3, scaled)
        assert np.allclose(got, 3.0 * base, rtol=1e-12, atol=1e-13)

    def test_vanishing_beyond_degree_plus_one(self):
        pairs = [self.rand_pair() for _ in range(5)]
        got = apply_residual_derivative(self.mesh, self.data, self.nl, self.u, 5, pairs)
        assert np.all(got == 0.0)
        nonzero = apply_residual_derivative(self.mesh, self.data, self.nl, self.u,
                                            4, pairs[:4])
        assert np.max(np.abs(nonzero)) > 0.0


class TestNewton:
    def test_zero_load_gives_zero(self):
        mesh = Mesh1D.uniform(16)
        data = PdeData.from_spec(mesh, a=1.0, b=1.0, f=0.0)
        u = newton_solve(mesh, data, Nonlinearity.cubic())
        assert np.all(u == 0.0)

    def test_linear_problem_single_step(self):
        mesh = Mesh1D.uniform(32)
        data = PdeData.from_spec(mesh, a=2.0, b=0.0, f=1.0)
        nl = Nonlinearity.cubic()
        oracle = PdeOracle(mesh, nl)
        solves = 0
        original = oracle.solve_linearized

        def counting(d, u, rhs):
            nonlocal solves
            solves += 1
            return original(d, u, rhs)

        oracle.solve_linearized = counting
        u = solve_residual(oracle, data, oracle.zero_state(), 1e-12)
        assert solves == 1
        direct = np.linalg.solve(mesh.stiffness_matrix(data.a).toarray(),
                                 mesh.assemble_load(None, data.f))
        assert np.allclose(u, direct, rtol=1e-12)

    def test_benchmark_against_shooting(self):
        mesh = Mesh1D.uniform(256)
        data = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
        u = newton_solve(mesh, data, Nonlinearity.cubic())
        assert float(np.min(u)) > 0.0
        assert np.allclose(u, u[::-1], atol=1e-10)
        assert abs(u[mesh.n_free // 2] - shooting_midpoint()) < 1e-4

    def test_inadmissible_data_rejected(self):
        mesh = Mesh1D.uniform(8)
        bad = PdeData.from_spec(mesh, a=-1.0, b=0.0, f=1.0)
        with pytest.raises(ValueError):
            newton_solve(mesh, bad, Nonlinearity.cubic())
        with pytest.raises(ValueError):
            validate_admissible(mesh, PdeData.from_spec(mesh, a=1.0, g=1.0),
                                Nonlinearity.cubic())

    def test_tanh_shifted_solve(self):
        mesh = Mesh1D.uniform(64)
        data = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
        nl = Nonlinearity.tanh_shifted()
        u = newton_solve(mesh, data, nl)
        res = assemble_residual(mesh, data, nl, u)
        assert mesh.dual_norm(res) <= 1e-12
        chk = solution_bound_check(mesh, data, nl, u)
        assert chk.ok


class TestConstants:
    def test_poincare_convergence_from_below(self):
        c32 = Mesh1D.uniform(32).poincare_constant
        c256 = Mesh1D.uniform(256).poincare_constant
        assert c32 <= CONTINUOUS_POINCARE + 1e-12
        assert c256 <= CONTINUOUS_POINCARE + 1e-12
        assert abs(c256 - CONTINUOUS_POINCARE) < abs(c32 - CONTINUOUS_POINCARE)
        assert abs(c256 - CONTINUOUS_POINCARE) < 1e-4

    def test_linear_problem_alpha_is_sharp(self):
        mesh = Mesh1D.uniform(64)
        data = PdeData.from_spec(mesh, a=1.0, b=0.0, f=1.0)
        nl = Nonlinearity.cubic()
        u = newton_solve(mesh, data, nl)
        consts = estimate_constants(mesh, data, nl, u)
        # with b = 0 and a = 1 the linearization is the pure stiffness form
        assert math.isclose(consts.alpha_measured, consts.alpha, rel_tol=1e-9)

    def test_alpha_measured_below_guaranteed(self):
        mesh = Mesh1D.uniform(64)
        data = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
        nl = Nonlinearity.cubic()
        u = newton_solve(mesh, data, nl)
        consts = estimate_constants(mesh, data, nl, u)
        assert consts.alpha_measured <= consts.alpha * (1.0 + 1e-9)
        assert consts.sigma >= 1.0 and consts.digamma >= 1.0

    def test_refinement_keeps_guarantee_above_measurement(self):
        nl = Nonlinearity.cubic()
        for n in (32, 64, 128):
            mesh = Mesh1D.uniform(n)
            data = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
            u = newton_solve(mesh, data, nl)
            consts = estimate_constants(mesh, data, nl, u)
            assert consts.alpha_measured <= consts.alpha * (1.0 + 1e-9)

    def test_embedding_constant_dominates_probes(self):
        mesh = Mesh1D.uniform(32)
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(100):
            v = rng.standard_normal(mesh.n_free)
            worst = max(worst, np.max(np.abs(mesh.expand(v))) / mesh.h1_norm(v))
        assert worst <= mesh.embedding_constant * (1.0 + 1e-12)

    def test_trace_constant(self):
        mesh = Mesh1D.uniform(32, right_bc="neumann")
        func = np.zeros(mesh.n_free)
        func[-1] = 1.0
        assert math.isclose(mesh.dual_norm(func), mesh.trace_constant, rel_tol=1e-12)
        assert Mesh1D.uniform(32).trace_constant == 0.0

    def test_residual_envelope_certifies_operator_norms(self):
        # randomized probe: (r!)^s * sigma * digamma^r dominates |D^r R| action
        mesh = Mesh1D.uniform(24)
        nl = Nonlinearity.cubic()
        data = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
        u = newton_solve(mesh, data, nl)
        consts = estimate_constants(mesh, data, nl, u)
        rng = np.random.default_rng(5)
        for r in range(1, 5):
            bound = math.factorial(r) * consts.sigma * consts.digamma**r
            for _ in range(20):
                pairs = []
                for _ in range(r):
                    raw = PdeData(mesh.field(rng.uniform(-1, 1)),
                                  mesh.field(rng.uniform(-1, 1)),
                                  mesh.field(rng.standard_normal()), 0.0)
                    fnorm = data_norm(mesh, PdeData(0 * raw.a, 0 * raw.b, raw.f, 0.0))
                    scale = max(np.max(np.abs(raw.a)), np.max(np.abs(raw.b)), fnorm)
                    dd = raw * (1.0 / scale)
                    v = rng.standard_normal(mesh.n_free)
                    v = v / mesh.h1_norm(v)
                    pairs.append((dd, v))
                value = apply_residual_derivative(mesh, data, nl, u, r, pairs)
                assert mesh.dual_norm(value) <= bound * (1.0 + 1e-9)


class TestMonotonicityAndBound:
    def test_randomized_admissible_draws(self):
        rng = np.random.default_rng(99)
        nl = Nonlinearity.cubic()
        for i in range(5):
            bc = "neumann" if i % 2 else "dirichlet"
            mesh = Mesh1D.uniform(32, right_bc=bc)
            data = PdeData(
                0.3 + rng.uniform(0.0, 2.0, mesh.quad_x.shape),
                rng.uniform(0.0, 2.0, mesh.quad_x.shape),
                rng.normal(0.0, 2.0, mesh.quad_x.shape),
                float(rng.normal()) if bc == "neumann" else 0.0,
            )
            u = newton_solve(mesh, data, nl)
            assert mesh.dual_norm(assemble_residual(mesh, data, nl, u)) <= 1e-12
            probe = monotonicity_probe(mesh, data, nl, rng)
            assert probe.ok, probe
            chk = solution_bound_check(mesh, data, nl, u)
            assert chk.ok, chk

    def test_pde_oracle_fd_agreement(self):
        mesh = Mesh1D.uniform(24)
        nl = Nonlinearity.cubic()
        oracle = PdeOracle(mesh, nl)
        base = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
        d_dir = PdeData.from_spec(mesh, a=0.2, b=0.1, f=0.5)
        table = derivative_table(oracle, base, [d_dir], 3, tol=1e-13)
        smap = lambda d: solve_residual(oracle, d, oracle.zero_state(), 1e-13)
        for n in range(1, 4):
            est, ind = finite_difference_check(smap, base, [d_dir] * n,
                                               [0.1, 0.05, 0.025],
                                               norm=oracle.state_norm,
                                               eval_noise=2e-13)
            gap = oracle.state_norm(table.entry(MultiIndex.make({1: n})) - est)
            assert gap <= ind, (n, gap, ind)

    def test_pde_table_envelope_compliance(self):
        mesh = Mesh1D.uniform(24)
        nl = Nonlinearity.cubic()
        oracle = PdeOracle(mesh, nl)
        base = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
        raw = PdeData.from_spec(mesh, a=0.2, b=0.1, f=0.5)
        fnorm = data_norm(mesh, PdeData(0 * raw.a, 0 * raw.b, raw.f, 0.0))
        h = raw * (1.0 / max(0.2, 0.1, fnorm))
        table = derivative_table(oracle, base, [h], 4, tol=1e-13)
        consts = estimate_constants(mesh, base, nl, table.entry(MultiIndex()))
        env = implicit_envelope(
            StabilityConstant(consts.alpha),
            GevreyEnvelope(1.0, consts.sigma, consts.digamma),
        )
        norms = {n: oracle.state_norm(table.entry(MultiIndex.make({1: n}))) for n in range(1, 5)}
        assert envelope_check(norms, env, tolerance=1e-6).passed
