"""Acceptance criteria, one test per criterion.

Each test prints a PASS line tagged with the criterion number after its
assertions and enforces the stated runtime budget.  Expected values come
from independent oracles: enumeration recursions, exact series inversion,
the literal permutation-sum chain rule, Richardson finite differences,
and hand-evaluated closed formulas.
"""

import itertools
import math
import time

import numpy as np

import gevrey_kit.cli as cli
from gevrey_kit.combinatorics import (
    C_KAPPA,
    MultiIndex,
    compositions,
    factorial_inequality_check,
    composition_identity_check,
    kappa_asymptotic_log,
    multi_indices_up_to,
    schroeder_hipparchus_sequence,
)
from gevrey_kit.envelopes import (
    GevreyEnvelope,
    ParametricEnvelope,
    StabilityConstant,
    compose_envelopes,
    compose_parametric,
    implicit_envelope,
    per_order_bound,
)
from gevrey_kit.implicit_diff import (
    PolynomialOracle,
    derivative_table,
    finite_difference_check,
    higher_derivative,
    scalar_cubic_oracle,
)
from gevrey_kit.parametric import DomainMap1D, TildeData, parametric_derivative_table
from gevrey_kit.pde1d import (
    Mesh1D,
    Nonlinearity,
    PdeData,
    PdeOracle,
    apply_residual_derivative,
    assemble_residual,
    estimate_constants,
    monotonicity_probe,
    newton_solve,
    solution_bound_check,
)
from gevrey_kit.selftest import (
    higher_derivative_reference,
    invert_cubic_series,
    schroeder_hipparchus_by_composition_sum,
)


class budget:
    """Assert the body of a `with` block stays within a runtime budget."""

    def __init__(self, seconds: float, label: str):
        self.seconds = seconds
        self.label = label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.seconds, (
                f"{self.label}: {elapsed:.2f}s exceeded {self.seconds}s"
            )
            print(f"ACCEPTANCE {self.label}: PASS ({elapsed:.2f}s)")
        return False


def test_criterion_1_combinatorial_exactness():
    with budget(1.0, "1 combinatorial exactness"):
        seq = schroeder_hipparchus_sequence(12)
        for n in range(1, 13):
            assert schroeder_hipparchus_by_composition_sum(n) == seq[n - 1]
        assert seq[2] == 3 and seq[3] == 11 and seq[4] == 45 and seq[9] == 103049


def test_criterion_2_growth_constant_bound():
    with budget(5.0, "2 growth constant bound"):
        seq = schroeder_hipparchus_sequence(501)
        log_c = math.log(C_KAPPA)
        for n in range(500):
            assert math.log(seq[n + 1]) - math.log(seq[n]) <= log_c + 1e-12
        ratio = math.exp(math.log(seq[499]) - kappa_asymptotic_log(500))
        assert 0.9 <= ratio <= 1.1


def test_criterion_3_identity_suite():
    with budget(10.0, "3 identity suite"):
        for n in range(1, 9):
            for r in range(1, n + 1):
                for comp in compositions(n, r):
                    assert factorial_inequality_check(comp)
        for alpha in multi_indices_up_to(3, 6):
            if alpha.is_zero():
                continue
            for r in range(1, alpha.order() + 1):
                assert composition_identity_check(alpha, r)
        for n in range(1, 11):
            for r in range(1, n + 1):
                assert len(compositions(n, r)) == math.comb(n - 1, r - 1)


def test_criterion_4_scalar_recursion_vs_series():
    with budget(1.0, "4 scalar recursion vs series"):
        oracle = scalar_cubic_oracle()
        table = derivative_table(oracle, np.array([0.0]), [np.array([1.0])], 5)
        series = invert_cubic_series(5)
        expected = [float(series[n] * math.factorial(n)) for n in range(1, 6)]
        assert expected[:3] == [1.0, 0.0, -6.0]
        for n in range(1, 6):
            got = table.entry(MultiIndex.make({1: n}))
            assert abs(got - expected[n - 1]) <= 1e-10 * max(1.0, abs(expected[n - 1]))


def test_criterion_5_collapsed_vs_literal():
    with budget(5.0, "5 collapsed vs literal"):
        rng = np.random.default_rng(20240811)
        exps = [e for e in itertools.product(range(4), repeat=4) if 0 < sum(e) <= 3]
        coeffs = {e: 0.25 * rng.standard_normal() for e in exps}
        coeffs[(0, 0, 0, 1)] = coeffs.get((0, 0, 0, 1), 0.0) + 1.0
        oracle = PolynomialOracle(3, coeffs)
        d = 0.05 * rng.standard_normal(3)
        dirs = [rng.standard_normal(3) for _ in range(3)]
        table = derivative_table(oracle, d, dirs, 4)
        for counts in [[1, 1], [1, 0, 1], [1, 1, 1], [2, 1], [1, 1, 2], [2, 1, 1]]:
            collapsed = higher_derivative(oracle, table, MultiIndex.make(counts))
            literal = higher_derivative_reference(oracle, table, MultiIndex.make(counts))
            assert abs(collapsed - literal) <= 1e-12 * max(1.0, abs(collapsed), abs(literal))


def test_criterion_6_pde_derivative_verification():
    with budget(60.0, "6 pde derivative verification"):
        mesh = Mesh1D.uniform(256)
        dmap = DomainMap1D(p=2, c=0.5, vartheta=1.1)
        hat = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
        nl = Nonlinearity.cubic()
        y0 = np.zeros(2)
        tol = 1e-14
        tilde = TildeData(dmap, hat, mesh, y0)
        oracle = PdeOracle(mesh, nl)
        table = parametric_derivative_table(oracle, tilde, 3, tol=tol)
        consts = estimate_constants(mesh, tilde.data, nl, table.entry(MultiIndex()))
        smap = lambda ys: [newton_solve(mesh, TildeData(dmap, hat, mesh, yy).data, nl, tol=tol)
                           for yy in ys]
        for alpha in multi_indices_up_to(2, 3):
            if alpha.is_zero():
                continue
            dirs = []
            for k, e in alpha.entries:
                dirs += [np.eye(2)[k - 1]] * e
            est, ind = finite_difference_check(
                smap, y0, dirs, [0.15, 0.1, 0.06], norm=mesh.h1_norm,
                eval_noise=consts.alpha * tol,
            )
            engine = table.entry(alpha)
            gap = mesh.h1_norm(engine - est)
            assert gap <= ind, (alpha.label(), gap, ind)
            assert ind <= 1e-4 * mesh.h1_norm(engine), (alpha.label(), ind)


def test_criterion_7_bound_compliance_cli(tmp_path):
    with budget(300.0, "7 bound compliance"):
        import json

        cfg = tmp_path / "verify.json"
        cfg.write_text(json.dumps({
            "mesh_n": 256, "p": 4, "max_order": 4, "y_samples": 5, "seed": 2024,
            "nonlinearity": {"kind": "cubic"},
        }))
        out = tmp_path / "bounds.csv"
        code = cli.main(["verify-bounds", "--config", str(cfg), "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 5 * len(multi_indices_up_to(4, 4))
        for line in lines[1:]:
            assert float(line.split(",")[4]) <= 1.0


def test_criterion_8_monotone_solvability():
    with budget(60.0, "8 monotone solvability"):
        rng = np.random.default_rng(31415)
        nl = Nonlinearity.cubic()
        for draw in range(20):
            bc = "neumann" if draw % 2 else "dirichlet"
            mesh = Mesh1D.uniform(64, right_bc=bc)
            data = PdeData(
                0.3 + rng.uniform(0.0, 2.0, mesh.quad_x.shape),
                rng.uniform(0.0, 2.0, mesh.quad_x.shape),
                rng.normal(0.0, 2.0, mesh.quad_x.shape),
                float(rng.normal()) if bc == "neumann" else 0.0,
            )
            u = newton_solve(mesh, data, nl, tol=1e-12)
            assert mesh.dual_norm(assemble_residual(mesh, data, nl, u)) <= 1e-12
            probe = monotonicity_probe(mesh, data, nl, rng)
            assert probe.ok, (draw, probe)
            chk = solution_bound_check(mesh, data, nl, u)
            assert chk.ok, (draw, chk)


def test_criterion_9_degenerate_and_affine_cases():
    with budget(1.0, "9 degenerate and affine cases"):
        # affine residual: every solution derivative beyond order 1 is exactly 0
        oracle = PolynomialOracle(1, {(0, 1): 2.0, (1, 0): -3.0, (0, 0): -1.0})
        table = derivative_table(oracle, np.array([1.0]), [np.array([1.0])], 4)
        for n in range(2, 5):
            assert table.entry(MultiIndex.make({1: n})) == 0.0

        # polynomial degree J: residual derivatives of order >= J + 2 vanish
        mesh = Mesh1D.uniform(16)
        nl = Nonlinearity.cubic()
        data = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(mesh.n_free)
        for r in (5, 6):
            args = [
                (PdeData(mesh.field(rng.standard_normal()),
                         mesh.field(rng.standard_normal()),
                         mesh.field(rng.standard_normal()), 0.0),
                 rng.standard_normal(mesh.n_free))
                for _ in range(r)
            ]
            out = apply_residual_derivative(mesh, data, nl, u, r, args)
            assert np.all(out == 0.0)


def test_criterion_10_envelope_algebra():
    with budget(1.0, "10 envelope algebra"):
        for a in (1.0, 2.0, 4.0):
            for scale in (1.0, 2.0, 4.0):
                for rate in (1.0, 2.0, 4.0):
                    for s in (1.0, 1.5, 2.0):
                        env = GevreyEnvelope(s, scale, rate)
                        out = implicit_envelope(StabilityConstant(a), env)
                        for n in range(1, 51):
                            assert (per_order_bound(n, StabilityConstant(a), env)
                                    <= out.log_bound(n) + 1e-9)
        one = GevreyEnvelope(1.0, 1.0, 1.0)
        composed = compose_envelopes(one, one)
        assert math.isclose(composed.scale, 0.5) and math.isclose(composed.rate, 2.0)
        par = compose_parametric(ParametricEnvelope(one, (0.5, 0.25)), one)
        assert math.isclose(par.base.scale, 0.5) and math.isclose(par.base.rate, 2.0)
        assert par.weights == (0.5, 0.25)
