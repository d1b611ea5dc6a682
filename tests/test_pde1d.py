"""P1 discretization: assembly, derivative formulas, solver, constants."""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from gevrey_kit import pde1d
from gevrey_kit.combinatorics import MultiIndex, SplitPlan
from gevrey_kit.envelopes import GevreyEnvelope, StabilityConstant, envelope_check, implicit_envelope
from gevrey_kit.implicit_diff import (
    LinearizationError,
    NonConvergenceError,
    affine_data_map,
    derivative_table,
    fill_table,
    finite_difference_check,
    finite_difference_table,
    solve_residual,
    solve_residual_stack,
    stack_data,
)
from gevrey_kit.parametric import DomainMap1D, TildeData, parametric_derivative_table
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
    monotonicity_certificate,
    monotonicity_probe,
    newton_solve,
    solution_bound_check,
    validate_admissible,
)
from gevrey_kit.selftest import shooting_midpoint

CONTINUOUS_POINCARE = math.sqrt(1.0 + math.pi**2) / math.pi

MESHES = pytest.mark.parametrize("mesh", [
    Mesh1D.uniform(2),
    Mesh1D.uniform(2, "neumann"),
    Mesh1D.uniform(64),
    Mesh1D(np.concatenate([[0.0], np.sort(np.random.default_rng(8).uniform(0, 1, 40)),
                           [1.0]]), "neumann"),
], ids=["one-free-node", "two-free-neumann", "uniform64", "random-neumann"])


def dense(bands):
    """Dense matrix of a symmetric tridiagonal band pair (diag, off)."""
    diag, off = bands
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def relative_error(got, expected):
    return float(np.linalg.norm(got - expected) / np.linalg.norm(expected))


# The discrete mesh constants: the oracles of the closed forms that `Mesh1D`
# returns, which bound them from above on every mesh.

def discrete_poincare(mesh):
    """Smallest c with ||v||_H1^2 <= c^2 <v', v'> over the free space, by the
    inertia bisection, which rounds the eigenvalue down, so c up."""
    lam = pde1d._smallest_generalized_eigenvalue(mesh.bilinear_form(stiffness=1.0), mesh.h1_gram)
    return 1.0 / math.sqrt(lam)


def h1_inverse_diag(mesh):
    """Diagonal of the inverse H1 Gram matrix, 1 / (top + bottom - diag), from
    two LDL^T pivot sweeps (Meurant, SIMAX 1992)."""
    diag, off = mesh.h1_gram
    top = pde1d._ldl(diag, off)[0]
    bottom = pde1d._ldl(diag[::-1], off[::-1])[0][::-1]
    return 1.0 / (top + bottom - diag)


def discrete_embedding(mesh):
    """Sup of |v(x)| / ||v||_H1 over the free space, attained at a node for P1."""
    return math.sqrt(float(np.max(h1_inverse_diag(mesh))))


def discrete_trace(mesh):
    """Dual norm of v -> v(1) over the free space; zero for a Dirichlet right end."""
    if mesh.right_bc != "neumann":
        return 0.0
    return math.sqrt(float(h1_inverse_diag(mesh)[-1]))


NONLINEARITIES = pytest.mark.parametrize("nl", [
    Nonlinearity.cubic(), Nonlinearity.tanh_shifted(), Nonlinearity.polynomial([3.0, -3.0, 1.0]),
], ids=["cubic", "tanh_shifted", "shifted_cubic"])


def reference_deriv(nl, n, z):
    """N^(n)(z) as npoly.polyval(g(z), P_n)."""
    z = np.asarray(z, dtype=float)
    return npoly.polyval(z if nl.degree is not None else np.tanh(z), nl._poly(n))


def assert_same_bytes(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


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
        values = np.arange(12.0).reshape(mesh.quad_x.shape)  # (n_elements, 3), copied
        field = mesh.field(values)
        assert np.array_equal(field, values) and not np.shares_memory(field, values)

    def test_free_node_layout(self):
        assert Mesh1D.uniform(8).n_free == 7
        assert Mesh1D.uniform(8, right_bc="neumann").n_free == 8

    @pytest.mark.parametrize("right_bc", ["dirichlet", "neumann"])
    def test_field_maps_act_on_the_last_axis(self, right_bc):
        mesh = Mesh1D(np.sort(np.r_[0.0, np.random.default_rng(4).uniform(size=9), 1.0]),
                      right_bc)
        stack = np.random.default_rng(5).standard_normal((4, mesh.n_free))
        full = mesh.expand(stack)
        assert np.array_equal(full[:, mesh.free], stack)
        assert not np.any(np.delete(full, mesh.free, axis=1))
        for name in ("expand", "at_quad", "slopes", "grad_at_quad"):
            maps = getattr(mesh, name)
            assert np.array_equal(maps(stack), np.array([maps(v) for v in stack])), name
        assert np.array_equal(mesh.slopes(stack), np.diff(full) / mesh.h)

    @pytest.mark.parametrize("right_bc", ["dirichlet", "neumann"])
    def test_stacked_load_with_a_scalar_boundary_is_per_point(self, right_bc):
        mesh = Mesh1D.uniform(4, right_bc)
        rng = np.random.default_rng(6)
        grad, mass = rng.standard_normal((2, 3, mesh.n_elements, 3))
        for parts in [(None, mass), (grad, None), (grad, mass)]:
            got = mesh.assemble_load(*parts, boundary=1.0)
            want = [mesh.assemble_load(*(None if x is None else x[i] for x in parts),
                                       boundary=1.0) for i in range(3)]
            assert np.array_equal(got, np.array(want))
            # the flux reaches the last free node of every point, and only on a Neumann end
            added = got - mesh.assemble_load(*parts)
            assert np.array_equal(added[:, :-1], np.zeros((3, mesh.n_free - 1)))
            assert np.allclose(added[:, -1], 1.0 if right_bc == "neumann" else 0.0)

    def test_h1_norm_matches_hand_integration(self):
        mesh = Mesh1D.uniform(64)
        v = mesh.interpolate(lambda x: x * (1.0 - x))
        # ||v||_L2^2 = 1/30, ||v'||_L2^2 = 1/3 for the continuous function
        expected = math.sqrt(1.0 / 30.0 + 1.0 / 3.0)
        assert abs(mesh.h1_norm(v) - expected) < 1e-3

    @pytest.mark.parametrize("n", [2, 3, 256, 4096])
    def test_h1_norms_are_bitwise_one_dot_per_row(self, n):
        # one np.vecdot over rows that are contiguous, every other row, in a
        # Fortran-ordered block or a transposed view: each row's `v @ g`, and
        # for rows of unit stride the one-row norm
        mesh = Mesh1D.uniform(n)
        rng = np.random.default_rng(n)
        rows = rng.standard_normal((7, mesh.n_free)) * 10.0 ** rng.integers(-3, 4, (7, 1))
        for block in (rows, rows[::2], np.asfortranarray(rows),
                      rng.standard_normal((mesh.n_free, 5)).T):
            got = np.array(mesh.h1_norms(block))
            gram = mesh._h1_gram_product(block)
            dots = [math.sqrt(max(float(v @ g), 0.0)) for v, g in zip(block, gram)]
            assert_same_bytes(got, np.array(dots))
            if block.strides[-1] == block.itemsize:
                assert_same_bytes(got, np.array([mesh.h1_norm(row) for row in block]))

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

    def test_polynomial_trailing_zeros_stripped(self):
        nl = Nonlinearity.polynomial([1.0, 0.0])
        assert nl.degree == 1
        assert np.array_equal(nl._poly(0), [0.0, 1.0])
        assert float(nl.deriv(0, 3.0)) == 3.0 and float(nl.deriv(2, 3.0)) == 0.0

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

    @pytest.mark.parametrize("coeffs", [[math.nan, 0.0, 1.0], [0.0, math.inf], [1.0, math.nan],
                                        [-math.inf, 0.0, 1.0]])
    def test_non_finite_coefficient_rejected(self, coeffs):
        # [nan, 0, 1] was accepted as monotone with growth constant nan
        with pytest.raises(ValueError, match="coefficients must be finite"):
            Nonlinearity.polynomial(coeffs)

    @pytest.mark.parametrize("q", [math.inf, -math.inf, math.nan])
    def test_non_finite_growth_exponent_rejected(self, q):
        # an infinite q overflowed in math.floor
        with pytest.raises(ValueError, match="q must be finite"):
            Nonlinearity.polynomial([0.0, 0.0, 1.0], q=q)

    def test_exponential_rejected_with_growth_message(self):
        with pytest.raises(ValueError, match="growth"):
            Nonlinearity.exponential()

    def test_tanh_shifted(self):
        nl = Nonlinearity.tanh_shifted()
        assert nl.zero_value == 2.0
        assert float(nl.deriv(1, 0.0)) == 1.0
        assert abs(float(nl.deriv(2, 0.0))) < 1e-15
        assert nl.degree is None
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

    @pytest.mark.parametrize("nl", [
        Nonlinearity.cubic(), Nonlinearity.tanh_shifted(),
        Nonlinearity.polynomial([3.0, -3.0, 1.0]), Nonlinearity.polynomial([1.0]),
        Nonlinearity.polynomial([1.0, 0.5, 1.0]), Nonlinearity.polynomial([0.0, 0.0, 2.0]),
    ], ids=["cubic", "tanh_shifted", "shifted_cubic", "constant", "three_powers",
            "interior_zeros"])
    def test_deriv_is_bitwise_polyval(self, nl):
        # in place, and without the additions of the zero coefficients but
        # the last: signed zeros, subnormals, infinities and NaN included
        rng = np.random.default_rng(3)
        values = [rng.standard_normal((5, 3)) * 4.0, np.linspace(-2.0, 2.0, 9),
                  rng.standard_normal(9) * 1e-160,  # products that underflow
                  np.asarray(0.7), np.asarray(-1.5), 0.7, -1.5, 0.0, -0.0, 1e-310, -1e-310,
                  np.array([math.inf, -math.inf, math.nan, 0.0, -0.0, 1e-310, -1e-310]),
                  math.inf, -math.inf, math.nan]
        for n in range(7):
            for z in values:
                with np.errstate(invalid="ignore", under="ignore"):  # inf * 0 in both forms
                    got, want = nl.deriv(n, z), reference_deriv(nl, n, z)
                assert_same_bytes(got, want)

    @pytest.mark.parametrize("name", ["cubic", "shifted_cubic", "tanh_shifted"])
    def test_growth_constant_cubic(self, name):
        nl = {
            "cubic": Nonlinearity.cubic,
            "shifted_cubic": lambda: Nonlinearity.polynomial([3.0, -3.0, 1.0]),
            "tanh_shifted": Nonlinearity.tanh_shifted,
        }[name]()
        # the growth bound must hold on the whole line, not only on a grid
        zs = np.concatenate([[100.0, -1.1322], np.linspace(-200.0, 200.0, 400001)])
        bound = nl.growth_constant * (1.0 + np.abs(zs) ** (nl.q - 1.0))
        assert np.all(np.abs(nl.deriv(0, zs)) <= bound)
        if name == "cubic":
            assert 0.9 <= nl.growth_constant <= 1.1


def outcome(fn, *args):
    """fn(*args) as (type, dtype, shape, bytes), or the type of what it raised."""
    try:
        with np.errstate(all="ignore"):
            value = fn(*args)
    except (ValueError, np.linalg.LinAlgError) as exc:
        return type(exc)
    return type(value), np.asarray(value).dtype, np.shape(value), np.asarray(value).tobytes()


#: Float coefficient vectors of length 1 to 10, some ending in zeros.
COEFFS = st.tuples(
    st.lists(st.floats(-1e6, 1e6, allow_subnormal=True), min_size=1, max_size=10),
    st.integers(0, 3),
).map(lambda parts: np.array(parts[0] + [0.0] * min(parts[1], 10 - len(parts[0]))))
#: Scalar and array arguments, a 2-D array among them.
POINTS = st.one_of(
    st.floats(-1e3, 1e3),
    st.lists(st.floats(-1e3, 1e3), min_size=0, max_size=6).map(np.array),
    st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6).map(
        lambda xs: np.array(xs).reshape(2, 3)),
)


class TestPolynomialArithmetic:
    """pde1d's polynomial helpers against numpy.polynomial, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(c=COEFFS, x=POINTS)
    def test_polyval(self, c, x):
        assert outcome(pde1d._polyval, x, c) == outcome(npoly.polyval, x, c)

    @settings(max_examples=300, deadline=None)
    @given(c=COEFFS, c2=COEFFS)
    def test_polyder_polymul_polyroots(self, c, c2):
        assert outcome(pde1d._polyder, c) == outcome(npoly.polyder, c)
        assert outcome(pde1d._polymul, c, c2) == outcome(npoly.polymul, c, c2)
        assert outcome(pde1d._polyroots, c) == outcome(npoly.polyroots, c)
        assert (outcome(lambda: pde1d._polyroots(pde1d._polyder(c)))
                == outcome(lambda: npoly.polyroots(npoly.polyder(c))))

    def test_tanh_family(self):
        nl, want = Nonlinearity.tanh_shifted(), np.array([2.0, 1.0])
        for n in range(9):
            got = nl._poly(n)
            assert outcome(lambda: got) == outcome(lambda: want)
            assert (outcome(pde1d._critical_points, got, -1.0, 1.0)
                    == outcome(lambda: reference_critical_points(want, -1.0, 1.0)))
            want = npoly.polymul(npoly.polyder(want), [1.0, 0.0, -1.0])

    @pytest.mark.parametrize("c", [[0.0], [-0.0], [2.5], [-3.0], [0.0, 0.0, 0.0], [4.0, 0.0]])
    def test_constant_and_zero_polynomials(self, c):
        c = np.array(c)
        assert outcome(pde1d._polyder, c) == outcome(npoly.polyder, c)
        roots = pde1d._polyroots(pde1d._polyder(c))
        assert roots.shape == (0,) and roots.dtype == float
        assert outcome(pde1d._critical_points, c, -2.0, 1.0) == outcome(
            reference_critical_points, c, -2.0, 1.0)


def reference_critical_points(coeffs, lo, hi):
    crit = npoly.polyroots(npoly.polyder(coeffs)).real
    ends = [x for x in (lo, hi) if math.isfinite(x)]
    return np.concatenate([ends, crit[(lo < crit) & (crit < hi)]])


class TestNemyckii:
    def test_constant_field_value(self):
        mesh = Mesh1D.uniform(32)
        nl = Nonlinearity.cubic()
        u = mesh.interpolate(lambda x: 2.0)
        ones = mesh.interpolate(lambda x: 1.0)
        field = nl.deriv(1, mesh.at_quad(u)) * mesh.at_quad(ones)
        # interior elements see u = 2: N'(2) * 1 = 12
        assert np.allclose(field[mesh.n_elements // 2], 12.0)

    def test_degree_cap(self):
        mesh = Mesh1D.uniform(8)
        nl = Nonlinearity.cubic()
        u = mesh.interpolate(lambda x: x)
        uq = mesh.at_quad(u)
        assert np.all(nl.deriv(4, uq) * uq * uq * uq * uq == 0.0)


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


KERNEL_MESHES = pytest.mark.parametrize("mesh", [
    Mesh1D(np.concatenate([[0.0], np.sort(np.random.default_rng(9).uniform(0, 1, 30)), [1.0]])),
    Mesh1D.uniform(24, "neumann"),
], ids=["nonuniform-dirichlet", "uniform-neumann"])


def reference_load(mesh, grad_part=None, mass_part=None, boundary=0.0):
    """`Mesh1D.assemble_load` written with numpy's reduction over the Gauss
    points, the mass part against the products w * phi_left and w * phi_right."""
    full = np.zeros(mesh.n_nodes)
    if grad_part is not None:
        full[:-1] -= np.sum(mesh.quad_w * grad_part, axis=1) / mesh.h
        full[1:] += np.sum(mesh.quad_w * grad_part, axis=1) / mesh.h
    if mass_part is not None:
        full[:-1] += np.sum(mass_part * (mesh.quad_w * mesh.phi_left), axis=1)
        full[1:] += np.sum(mass_part * (mesh.quad_w * mesh.phi_right), axis=1)
    if boundary:
        full[-1] += boundary
    return full[mesh.free]


def reference_bands(mesh, stiffness=None, mass=None):
    """`Mesh1D.bilinear_form` written with numpy's reduction over the Gauss
    points, the mass weight against the products w * phi_i * phi_j."""
    ell = rr = lr = np.zeros(mesh.n_elements)
    if stiffness is not None:
        ke = np.sum(mesh.quad_w * stiffness, axis=1) / mesh.h**2
        ell, rr, lr = ell + ke, rr + ke, lr - ke
    if mass is not None:
        wl, wr = mesh.quad_w * mesh.phi_left, mesh.quad_w * mesh.phi_right
        ell = ell + np.sum(mass * (wl * mesh.phi_left), axis=1)
        rr = rr + np.sum(mass * (wr * mesh.phi_right), axis=1)
        lr = lr + np.sum(mass * (wl * mesh.phi_right), axis=1)
    diag = np.zeros(mesh.n_nodes)
    diag[:-1] += ell
    diag[1:] += rr
    return diag[mesh.free], lr[mesh.free[:-1]]


def reference_residual(mesh, data, nl, u):
    """`assemble_residual` written out: element loads (u_{e+1} - u_e) ke_e
    with ke = sum_j w_j a_j / h**2, then the mass part b N(u) - f against
    w * phi_left and w * phi_right, then the boundary term."""
    ge = np.diff(mesh.expand(u)) * (np.sum(mesh.quad_w * data.a, axis=1) / mesh.h**2)
    mass = data.b * reference_deriv(nl, 0, mesh.at_quad(u)) - data.f
    full = np.zeros(mesh.n_nodes)
    full[:-1] -= ge
    full[1:] += ge
    full[:-1] += np.sum(mass * (mesh.quad_w * mesh.phi_left), axis=1)
    full[1:] += np.sum(mass * (mesh.quad_w * mesh.phi_right), axis=1)
    full[-1] -= data.g
    return full[mesh.free]


# The Gauss-point product chains that assembled the residual and the bands
# before the weight products of `Mesh1D`: each returns, per free node or band
# entry, the value and the sum of the absolute values of its terms.

def gauss_chain_residual(mesh, data, nl, u):
    """<a u', v'> + <b N(u) - f, v> - g v(1) from the slope repeated at the
    Gauss points times a, w and 1/h, and from (w m) phi_left, (w m) phi_right."""
    slope = np.diff(mesh.expand(u)) / mesh.h
    grad = mesh.quad_w * (slope[:, None] * np.ones(3) * data.a)
    wm = mesh.quad_w * (data.b * reference_deriv(nl, 0, mesh.at_quad(u)) - data.f)
    value, scale = np.zeros(mesh.n_nodes), np.zeros(mesh.n_nodes)
    for sign, terms, at in ((-1.0, grad, slice(None, -1)), (1.0, grad, slice(1, None))):
        value[at] += sign * (np.sum(terms, axis=1) / mesh.h)
        scale[at] += np.sum(np.abs(terms), axis=1) / mesh.h
    for terms, at in ((wm * mesh.phi_left, slice(None, -1)), (wm * mesh.phi_right, slice(1, None))):
        value[at] += np.sum(terms, axis=1)
        scale[at] += np.sum(np.abs(terms), axis=1)
    value[-1] -= data.g
    scale[-1] += abs(data.g)
    return value[mesh.free], scale[mesh.free]


def gauss_chain_bands(mesh, a, mass):
    """The linearization's bands from ((w mass) phi_i) phi_j per band entry."""
    ke = np.sum(mesh.quad_w * a, axis=1) / mesh.h**2
    wm = mesh.quad_w * mass
    ll, lr, rr = (np.sum(wm * pi * pj, axis=1) for pi, pj in (
        (mesh.phi_left, mesh.phi_left), (mesh.phi_left, mesh.phi_right),
        (mesh.phi_right, mesh.phi_right)))
    diag, diag_scale = np.zeros(mesh.n_nodes), np.zeros(mesh.n_nodes)
    diag[:-1] += ke + ll
    diag[1:] += ke + rr
    diag_scale[:-1] += np.abs(ke) + np.abs(ll)
    diag_scale[1:] += np.abs(ke) + np.abs(rr)
    free = slice(1, mesh.n_free + 1)
    off = slice(1, mesh.n_free)
    return (diag[free], lr[off] - ke[off]), (diag_scale[free], (np.abs(lr) + np.abs(ke))[off])


class TestKernelsBitwise:
    """The kernels of the Newton path give, byte for byte, the values of
    their plain numpy forms."""

    @staticmethod
    def fields(mesh, seed):
        rng = np.random.default_rng(seed)
        return [rng.uniform(0.5, 2.0, mesh.quad_x.shape) for _ in range(3)]

    @KERNEL_MESHES
    def test_weight_products(self, mesh):
        wl, wr = mesh.quad_w * mesh.phi_left, mesh.quad_w * mesh.phi_right
        for got, want in [(mesh.wl, wl), (mesh.wr, wr), (mesh.wll, wl * mesh.phi_left),
                          (mesh.wlr, wl * mesh.phi_right), (mesh.wrr, wr * mesh.phi_right)]:
            assert_same_bytes(got, want)

    @KERNEL_MESHES
    def test_assemble_load(self, mesh):
        grad, mass, _ = self.fields(mesh, 1)
        for args in [(grad, None), (None, mass), (None, None, -0.3), (grad, mass, 0.7),
                     (grad, mass, -0.0), (grad, mass, math.nan), (None, None, math.nan)]:
            assert_same_bytes(mesh.assemble_load(*args), reference_load(mesh, *args))

    @KERNEL_MESHES
    @pytest.mark.parametrize("points", [1, 3])
    def test_stacked_assemble_load(self, mesh, points):
        # each point's row is its one-point load, with a boundary term per
        # point or one for all, -0.0 and NaN included
        grads, masses = (np.array([self.fields(mesh, seed)[k] for seed in range(points)])
                         for k in (0, 1))
        for boundary in [np.array([-0.0, math.nan, 0.7][:points]), -0.0, math.nan]:
            want = [reference_load(mesh, g, m, b)
                    for g, m, b in zip(grads, masses, np.broadcast_to(boundary, (points,)))]
            assert_same_bytes(mesh.assemble_load(grads, masses, boundary), np.array(want))

    @KERNEL_MESHES
    def test_bilinear_form(self, mesh):
        stiffness, mass, _ = self.fields(mesh, 2)
        for kwargs in [dict(stiffness=1.0, mass=1.0), dict(stiffness=1.0),
                       dict(stiffness=stiffness), dict(mass=mass),
                       dict(stiffness=stiffness, mass=mass)]:
            for got, want in zip(mesh.bilinear_form(**kwargs), reference_bands(mesh, **kwargs)):
                assert_same_bytes(got, want)

    @KERNEL_MESHES
    @NONLINEARITIES
    def test_residual_and_linearization(self, mesh, nl):
        a, b, f = self.fields(mesh, 3)
        data = PdeData(a, b, f, 0.4 if mesh.right_bc == "neumann" else 0.0)
        # a smooth state, so that the mass terms are not lost against the stiffness ones
        u = mesh.interpolate(lambda x: 2.0 * math.sin(2.0 * x))
        assert_same_bytes(assemble_residual(mesh, data, nl, u),
                          reference_residual(mesh, data, nl, u))
        bands = reference_bands(mesh, stiffness=a, mass=b * reference_deriv(nl, 1, mesh.at_quad(u)))
        for got, want in zip(linearization_matrix(mesh, data, nl, u), bands):
            assert_same_bytes(got, want)


#: Ulps, of the sum of the absolute values of its terms, within which the
#: residual and the bands of an entry lie of their Gauss-chain forms.
CHAIN_ULPS = 8


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=2, max_value=300), uniform=st.booleans(),
       bc=st.sampled_from(["dirichlet", "neumann"]),
       nl=st.sampled_from([Nonlinearity.cubic(), Nonlinearity.tanh_shifted(),
                           Nonlinearity.polynomial([3.0, -3.0, 1.0])]),
       points=st.sampled_from([1, 3]), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_kernels_lie_within_ulps_of_the_gauss_chains(n, uniform, bc, nl, points, seed):
    # the stacked residual and linearization of the Newton path, point by
    # point, against the old Gauss-point product chains
    rng = np.random.default_rng(seed)
    nodes = np.linspace(0.0, 1.0, n + 1)
    if not uniform:
        nodes[1:-1] = np.sort(rng.uniform(0.0, 1.0, n - 1))
        assume(np.all(np.diff(nodes) > 0.0))
    mesh = Mesh1D(nodes, bc)
    data = [PdeData(*(rng.uniform(0.5, 2.0, mesh.quad_x.shape) for _ in range(3)),
                    rng.uniform(-1.0, 1.0) if bc == "neumann" else 0.0) for _ in range(points)]
    us = rng.uniform(-2.0, 2.0, (points, mesh.n_free))
    stacked = PdeData(*(np.array([getattr(d, name) for d in data]) for name in "abfg"))
    ke = mesh._stiffness_term(stacked.a)
    full = mesh.expand(us)
    uq = mesh._gauss_values(full)
    residuals = pde1d._residual(mesh, stacked, nl, full, uq, ke)
    diags, offs = pde1d._linearization(mesh, stacked.b, nl, uq, ke)
    for k, (d, u) in enumerate(zip(data, us)):
        want, scale = gauss_chain_residual(mesh, d, nl, u)
        assert np.all(np.abs(residuals[k] - want) <= CHAIN_ULPS * np.spacing(scale))
        bands = gauss_chain_bands(mesh, d.a, d.b * reference_deriv(nl, 1, mesh.at_quad(u)))
        for got, (want, scale) in zip((diags[k], offs[k]), zip(*bands)):
            assert np.all(np.abs(got - want) <= CHAIN_ULPS * np.spacing(scale))


class TestNewtonReuse:
    """The oracle's Newton computes each state's Gauss values and each data
    value's stiffness term once, with the bytes of the one-point forms (the
    public residual and linearization, a fresh LDL^T at every iterate)."""

    @staticmethod
    def data(mesh, seed, scale=1.0, g=0.5):
        rng = np.random.default_rng(seed)
        a, b, f = (rng.uniform(0.5, 2.0, mesh.quad_x.shape) for _ in range(3))
        return PdeData(a, b, 3.0 * scale * f, g if mesh.right_bc == "neumann" else 0.0)

    @KERNEL_MESHES
    @NONLINEARITIES
    @pytest.mark.parametrize("tol", [1e-12, 0.0])  # 0.0 ends at the round-off floor
    @pytest.mark.parametrize("block", [3, None], ids=["blocks-of-3", "default-blocks"])
    def test_newton_is_bitwise_the_public_forms(self, mesh, nl, tol, block, monkeypatch,
                                                reference_newton):
        # seven points, in blocks of three or in the default's one block:
        # forcings of several sizes take different numbers of steps, the one
        # of 30000 halves steps, and a Neumann stack mixes g = 0 with g != 0.
        # The cubic ones halve their first step; tanh_shifted, whose N' is
        # largest at the start u = 0, never overshoots and halves only at its
        # round-off floor, which this forcing lifts to 2e-11, above both tols
        if block is not None:
            monkeypatch.setattr(pde1d, "_STACK_BYTES", block * mesh.quad_x.nbytes)
        points = [self.data(mesh, seed, scale, g) for seed, scale, g in [
            (11, 1.0, 0.5), (21, 0.01, 0.0), (22, 0.3, 0.5), (23, 10.0, 0.0),
            (24, 100.0, 0.5), (37, 30000.0, 0.5), (25, 1.0, 0.0)]]
        want = [reference_newton(PdeOracle(mesh, nl), d, np.zeros(mesh.n_free), tol)
                for d in points]
        oracle = PdeOracle(mesh, nl)
        assert oracle.stack_points == (block or pde1d._STACK_BYTES // mesh.quad_x.nbytes)
        assert oracle.stack_points >= 3
        got = solve_residual_stack(oracle, stack_data(points), np.zeros(mesh.n_free), tol)
        assert len(got) == len(points)
        for state, (u, _, _) in zip(got, want):
            assert_same_bytes(state, u)
        assert_same_bytes(solve_residual(PdeOracle(mesh, nl), points[0],
                                         np.zeros(mesh.n_free), tol), want[0][0])
        assert len({iterations for _, iterations, _ in want}) > 1
        assert want[5][2] > 0
        if mesh.right_bc == "neumann":
            assert {d.g for d in points} == {0.0, 0.5}

    @KERNEL_MESHES
    @NONLINEARITIES
    def test_caches_follow_the_objects(self, mesh, nl):
        # an oracle keeps nothing between calls: one oracle shared by a
        # solve, linearized solves, a directional table, an FD stack and a
        # parametric table gives the bytes of a fresh oracle for each, and
        # holds only its mesh and nonlinearity
        base = self.data(mesh, 13)
        dirs = [0.1 * self.data(mesh, 14), -0.2 * self.data(mesh, 15)]
        tilde = TildeData(DomainMap1D(p=2), base, mesh, np.array([0.2, -0.1]))
        u = solve_residual(PdeOracle(mesh, nl), base, np.zeros(mesh.n_free), 1e-12)
        rhs = np.random.default_rng(12).standard_normal((mesh.n_free, 2))
        runs = [
            lambda oracle: [solve_residual(oracle, base, oracle.zero_state(), 1e-12)],
            lambda oracle: [oracle.solve_linearized(d, u, rhs) for d in (base, base + dirs[0])],
            lambda oracle: [v for _, v in derivative_table(oracle, base, dirs, 3).items()],
            lambda oracle: solve_residual_stack(oracle,
                                                stack_data([base + d for d in dirs] + [base - dirs[0]]),
                                                oracle.zero_state(), 1e-12),
            lambda oracle: [v for _, v in parametric_derivative_table(oracle, tilde, 3).items()],
        ]
        shared = PdeOracle(mesh, nl)
        for run in runs:
            for got, want in zip(run(shared), run(PdeOracle(mesh, nl)), strict=True):
                assert_same_bytes(got, want)
        assert vars(shared).keys() == {"mesh", "nl"}

    def test_each_gauss_and_stiffness_value_is_computed_once(self, monkeypatch):
        mesh = Mesh1D.uniform(32)
        oracle = PdeOracle(mesh, Nonlinearity.cubic())
        base = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
        dirs = [PdeData.from_spec(mesh, a=0.2, b=0.1, f=0.5), PdeData.from_spec(mesh, f=-1.0)]
        mesh.dual_norm(np.ones(mesh.n_free))  # the mesh's own forms come first
        points = dict.fromkeys(["_gauss_values", "_stiffness_term", "_residual",
                                "_linearization"], 0)  # points each kernel was called for

        def counting(owner, name, lead):  # lead: the arguments' leading shape
            kernel = getattr(owner, name)

            def counted(*args):
                points[name] += math.prod(lead(*args))
                return kernel(*args)
            monkeypatch.setattr(owner, name, counted)

        counting(Mesh1D, "_gauss_values", lambda mesh, full: full.shape[:-1])
        counting(Mesh1D, "_stiffness_term", lambda mesh, weight: np.shape(weight)[:-2])
        counting(pde1d, "_residual", lambda mesh, d, nl, full, uq, ke: full.shape[:-1])
        counting(pde1d, "_linearization", lambda mesh, b, nl, uq, ke: np.shape(ke)[:-1])

        def check(run, n_data):
            points.update(dict.fromkeys(points, 0))
            result = run()
            # one Gauss evaluation per state, all of them by residuals, and
            # one stiffness term per data point, though Newton linearizes
            # several times at each
            assert points["_gauss_values"] == points["_residual"]
            assert points["_stiffness_term"] == n_data
            assert points["_linearization"] > 2 * n_data
            return result

        # a one-point solve, then a table fill of three orders at its
        # solution, which linearizes and factors once
        u = check(lambda: solve_residual(oracle, base, oracle.zero_state(), 1e-13), 1)
        factorizations = []
        ldl = pde1d._ldl
        monkeypatch.setattr(pde1d, "_ldl", lambda *bands: factorizations.append(1) or ldl(*bands))
        points.update(dict.fromkeys(points, 0))
        table = fill_table(oracle, base, u, SplitPlan.up_to(2, 3),
                           affine_data_map(oracle, base, dirs))
        assert points["_linearization"] == points["_stiffness_term"] == 1
        assert factorizations == [1]
        solve = lambda ds: solve_residual_stack(oracle, ds, oracle.zero_state(), 1e-13)
        keys = [alpha for alpha, _ in table.items() if 1 <= alpha.order() <= 2]
        # 12 nonzero stencil points per step, two steps, and the base point,
        # in blocks of 10; the points c = (+-2, 0) and (0, +-2) at the step
        # 0.05 are c / 2 at the step 0.1, so 12 + 8 + 1 are distinct
        monkeypatch.setattr(pde1d, "_STACK_BYTES", 10 * mesh.quad_x.nbytes)
        check(lambda: finite_difference_table(solve, base, dirs, keys, [0.1, 0.05],
                                              norm=oracle.state_norm), 21)

    @MESHES
    @NONLINEARITIES
    @pytest.mark.parametrize("tol", [1e-12, 0.0])  # 0.0 ends at the round-off floor
    def test_newton_residual_norm_is_the_dual_norm(self, mesh, nl, tol):
        # the norm of the Newton loop's last evaluation has the bytes of the
        # residual's dual norm at the returned state, so the constants that
        # take it are those that compute it
        data = self.data(mesh, 41, scale=5.0)
        u, check, residual_norm = newton_solve(mesh, data, nl, tol=tol, return_check=True)
        assert_same_bytes(u, newton_solve(mesh, data, nl, tol=tol))
        assert_same_bytes(residual_norm, mesh.dual_norm(assemble_residual(mesh, data, nl, u)))
        assert (estimate_constants(mesh, data, nl, u, u_norm=check.lhs,
                                   residual_norm=residual_norm)
                == estimate_constants(mesh, data, nl, u))

    @NONLINEARITIES
    def test_constants_form_the_state_fields_once(self, nl, monkeypatch):
        # the state's nodal and Gauss values serve the linearization, the
        # residual and the range of u; the linearization keeps the bytes of
        # the public form
        mesh = Mesh1D.uniform(32)
        data = self.data(mesh, 31)
        u = solve_residual(PdeOracle(mesh, nl), data, np.zeros(mesh.n_free), 1e-12)
        lin = linearization_matrix(mesh, data, nl, u)
        want = 1.0 / pde1d._smallest_generalized_eigenvalue(lin, mesh.h1_gram)
        mesh.embedding_constant  # the mesh's own forms come first
        calls = dict.fromkeys(["expand", "_gauss_values", "_residual", "_linearization"], 0)

        def counting(owner, name):
            kernel = getattr(owner, name)

            def counted(*args):
                calls[name] += 1
                return kernel(*args)
            monkeypatch.setattr(owner, name, counted)

        counting(Mesh1D, "expand")
        counting(Mesh1D, "_gauss_values")
        counting(pde1d, "_residual")
        counting(pde1d, "_linearization")
        constants = estimate_constants(mesh, data, nl, u)
        assert calls == dict.fromkeys(calls, 1)
        assert constants.alpha_measured == want


STACK_MESHES = pytest.mark.parametrize("mesh", [
    Mesh1D.uniform(2), Mesh1D.uniform(2, "neumann"), Mesh1D.uniform(256),
], ids=["n_free-1", "n_free-2", "n_free-255"])


class TestStackSolve:
    """A round of a Newton stack factors and solves the linearizations of
    its points in one dptsv call, bit for bit their one-point LDL^T solves."""

    @staticmethod
    def stack(mesh, nl, points, broken=None):
        """Stack of `points` random data points, evaluated at random states;
        `broken(d)` replaces the data of the middle point."""
        rng = np.random.default_rng(points)
        g = 0.5 if mesh.right_bc == "neumann" else 0.0
        ds = [PdeData(*(rng.uniform(0.5, 2.0, mesh.quad_x.shape) for _ in range(3)), g)
              for _ in range(points)]
        if broken is not None:
            ds[points // 2] = broken(ds[points // 2])
        us = [rng.standard_normal(mesh.n_free) for _ in ds]
        stack = PdeOracle(mesh, nl).stack(stack_data(ds))
        res, _ = stack.eval(us)
        return ds, us, stack, res

    @staticmethod
    def one_point(mesh, nl, d, u, rhs):
        bands = linearization_matrix(mesh, d, nl, u)
        return pde1d._ldl_solve(pde1d._linearization_factors(*bands), rhs)

    @staticmethod
    def counting_dptsv(monkeypatch):
        calls = []
        dptsv = pde1d.dptsv
        monkeypatch.setattr(pde1d, "dptsv", lambda *a, **k: calls.append(1) or dptsv(*a, **k))
        return calls

    @STACK_MESHES
    @NONLINEARITIES
    @pytest.mark.parametrize("points", [1, 2, 13])
    def test_one_call_is_bitwise_the_one_point_solves(self, mesh, nl, points, monkeypatch):
        ds, us, stack, res = self.stack(mesh, nl, points)
        for rows in [list(range(points)), list(range(0, points, 2))]:  # all points, and some
            calls = self.counting_dptsv(monkeypatch)
            got = stack.solve_linearized(rows, [res[i] for i in rows])
            assert got.shape == (len(rows), mesh.n_free)
            for step, i in zip(got, rows):
                assert_same_bytes(step, self.one_point(mesh, nl, ds[i], us[i], res[i]))
            # the single pivot of one point on one free node is a division
            assert len(calls) == (len(rows) * mesh.n_free > 1)

    @staticmethod
    def indefinite(d):
        return PdeData(-d.a, d.b, d.f, d.g)

    @staticmethod
    def nan(d):
        b = d.b.copy()
        b.flat[1] = math.nan
        return PdeData(d.a, b, d.f, d.g)

    @STACK_MESHES
    @pytest.mark.parametrize("broken", ["indefinite", "nan"])
    def test_a_bad_point_in_the_middle_raises(self, mesh, broken, monkeypatch):
        nl = Nonlinearity.cubic()
        ds, us, stack, _ = self.stack(mesh, nl, 13, getattr(self, broken))
        with pytest.raises(LinearizationError, match="not positive definite"):
            self.one_point(mesh, nl, ds[6], us[6], np.ones(mesh.n_free))
        calls = self.counting_dptsv(monkeypatch)
        with pytest.raises(LinearizationError, match="not positive definite"):
            stack.solve_linearized(list(range(13)), np.ones((13, mesh.n_free)))
        assert calls == [1]

    @STACK_MESHES
    def test_non_finite_right_hand_sides_stay_in_their_points(self, mesh):
        # an inf or NaN would cross the zero couplings of one call (inf * 0)
        nl = Nonlinearity.cubic()
        ds, us, stack, res = self.stack(mesh, nl, 13)
        rhs = res.copy()
        rhs[3, 0], rhs[8, -1] = math.inf, math.nan
        given = rhs.copy()
        with np.errstate(invalid="ignore"):
            got = stack.solve_linearized(list(range(13)), rhs)
            for step, d, u, r in zip(got, ds, us, rhs):
                assert_same_bytes(step, self.one_point(mesh, nl, d, u, r))
        assert np.all(np.isfinite(np.delete(got, [3, 8], axis=0)))
        assert_same_bytes(rhs, given)


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
        expected = dense(mesh.bilinear_form(stiffness=data.a)) @ w
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

    def test_linear_problem_single_step(self, monkeypatch):
        mesh = Mesh1D.uniform(32)
        data = PdeData.from_spec(mesh, a=2.0, b=0.0, f=1.0)
        nl = Nonlinearity.cubic()
        oracle = PdeOracle(mesh, nl)
        linearized = []  # the leading shape of each linearization
        original = pde1d._linearization

        def counting(mesh, b, nl, uq, ke):
            linearized.append(np.shape(ke)[:-1])
            return original(mesh, b, nl, uq, ke)

        monkeypatch.setattr(pde1d, "_linearization", counting)
        u = solve_residual(oracle, data, oracle.zero_state(), 1e-12)
        assert linearized == [(1,)]  # one point, linearized once
        direct = np.linalg.solve(dense(mesh.bilinear_form(stiffness=data.a)),
                                 mesh.assemble_load(None, data.f))
        assert np.allclose(u, direct, rtol=1e-12)

    def test_failure_at_one_point_of_a_stack_raises(self):
        mesh = Mesh1D.uniform(8)
        oracle = PdeOracle(mesh, Nonlinearity.cubic())
        good = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
        linear = PdeData.from_spec(mesh, a=1.0, b=0.0, f=1.0)  # solved in one step
        indefinite = PdeData.from_spec(mesh, a=-1.0, b=0.0, f=1.0)
        with pytest.raises(LinearizationError, match="not positive definite"):
            solve_residual_stack(oracle, stack_data([good, indefinite, good]), oracle.zero_state(),
                                 1e-12)
        with pytest.raises(NonConvergenceError, match="after 1 iterations"):
            solve_residual_stack(oracle, stack_data([linear, good]), oracle.zero_state(), 1e-12,
                                 max_iter=1)
        assert_same_bytes(solve_residual_stack(oracle, stack_data([linear]), oracle.zero_state(), 1e-12,
                                               max_iter=1)[0],
                          solve_residual(oracle, linear, oracle.zero_state(), 1e-12))

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

    def test_negative_reaction_weight_rejected(self):
        mesh, nl = Mesh1D.uniform(8), Nonlinearity.cubic()
        with pytest.raises(ValueError, match="reaction weight must be nonnegative"):
            validate_admissible(mesh, PdeData.from_spec(mesh, a=1.0, b=-1e-15), nl)
        validate_admissible(mesh, PdeData.from_spec(mesh, a=1.0, b=-0.0), nl)

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
        c32 = discrete_poincare(Mesh1D.uniform(32))
        c256 = discrete_poincare(Mesh1D.uniform(256))
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
        # with b = 0 and a = 1 the linearization is the pure stiffness form,
        # whose inverse bound is the discrete c_pf^2 / c_a
        alpha = discrete_poincare(mesh) ** 2 / consts.c_a
        assert math.isclose(consts.alpha_measured, alpha, rel_tol=1e-9)

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
        assert math.isclose(mesh.dual_norm(func), discrete_trace(mesh), rel_tol=1e-12)
        assert discrete_trace(Mesh1D.uniform(32)) == 0.0
        assert Mesh1D.uniform(32).trace_constant == 0.0

    def test_constants_are_deterministic(self):
        first, second = Mesh1D.uniform(1500), Mesh1D.uniform(1500)
        assert first.poincare_constant == second.poincare_constant
        assert first.embedding_constant == second.embedding_constant

    @MESHES
    def test_inverse_diag_matches_dense_inverse(self, mesh):
        expected = np.diag(np.linalg.inv(dense(mesh.h1_gram)))
        assert np.allclose(h1_inverse_diag(mesh), expected, rtol=1e-10, atol=0.0)

    @MESHES
    def test_riesz_and_h1_norm_match_dense(self, mesh):
        gram = dense(mesh.h1_gram)
        v = np.random.default_rng(3).standard_normal(mesh.n_free)
        assert relative_error(mesh.riesz(v), np.linalg.solve(gram, v)) <= 1e-12
        assert math.isclose(mesh.h1_norm(v) ** 2, v @ gram @ v, rel_tol=1e-12)

    @MESHES
    def test_solve_linearized_matches_dense(self, mesh):
        rng = np.random.default_rng(4)
        nl = Nonlinearity.cubic()
        data = PdeData.from_spec(mesh, a=lambda x: 1.0 + x, b=2.0, f=1.0)
        u, rhs = rng.standard_normal(mesh.n_free), rng.standard_normal(mesh.n_free)
        got = PdeOracle(mesh, nl).solve_linearized(data, u, rhs)
        expected = np.linalg.solve(dense(linearization_matrix(mesh, data, nl, u)), rhs)
        assert relative_error(got, expected) <= 1e-12

    @MESHES
    def test_ldl_solve_of_columns_is_bitwise_one_vector_solves(self, mesh):
        # one dpttrs call for an n x k right-hand side; "one-free-node" takes
        # the n_free == 1 branch
        factors = pde1d._ldl(*mesh.h1_gram)
        rng = np.random.default_rng(5)
        for rhs in (rng.standard_normal((mesh.n_free, 4)), rng.standard_normal((4, mesh.n_free)).T):
            got = pde1d._ldl_solve(factors, rhs)
            assert got.shape == rhs.shape
            for j in range(rhs.shape[1]):
                assert np.array_equal(got[:, j], pde1d._ldl_solve(factors, rhs[:, j].copy()))

    def test_solve_linearized_takes_columns(self, monkeypatch):
        mesh = Mesh1D.uniform(32)
        nl = Nonlinearity.cubic()
        data = PdeData.from_spec(mesh, a=lambda x: 1.0 + x, b=2.0, f=1.0)
        oracle = PdeOracle(mesh, nl)
        u = np.random.default_rng(6).standard_normal(mesh.n_free)
        rhs = np.random.default_rng(7).standard_normal((mesh.n_free, 3))
        first = oracle.solve_linearized(data, u, rhs[:, 0].copy())
        factorizations = []
        ldl = pde1d._ldl
        monkeypatch.setattr(pde1d, "_ldl", lambda *bands: factorizations.append(1) or ldl(*bands))
        got = oracle.solve_linearized(data, u, rhs)
        assert factorizations == [1]  # factored anew at every call
        assert got.shape == rhs.shape
        assert np.array_equal(got[:, 0], first)
        expected = np.linalg.solve(dense(linearization_matrix(mesh, data, nl, u)), rhs)
        assert relative_error(got, expected) <= 1e-12

    def test_indefinite_linearization_raises(self):
        mesh = Mesh1D.uniform(8)
        data = PdeData.from_spec(mesh, a=-1.0, b=0.0, f=1.0)
        oracle = PdeOracle(mesh, Nonlinearity.cubic())
        with pytest.raises(LinearizationError, match="not positive definite"):
            oracle.solve_linearized(data, oracle.zero_state(), np.ones(mesh.n_free))

    @pytest.mark.parametrize("n_free", [1, 3])
    def test_nan_linearization_raises(self, n_free):
        # dpttrf stops only at a pivot <= 0, which a NaN passes
        diag = np.full(n_free, 2.0)
        diag[n_free // 2] = math.nan
        assert pde1d._ldl(diag, np.full(n_free - 1, -1.0)) is None
        mesh = Mesh1D.uniform(n_free + 1)
        data = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
        oracle = PdeOracle(mesh, Nonlinearity.cubic())
        u = np.zeros(n_free)
        u[n_free // 2] = math.nan
        with pytest.raises(LinearizationError, match="not positive definite"):
            oracle.solve_linearized(data, u, np.ones(n_free))

    @pytest.mark.parametrize("n", [2, 16, 256])
    def test_poincare_eigenvalue_closed_form(self, n):
        # the first discrete sine mode: K and M are its stiffness and mass values
        h = 1.0 / n
        s = math.sin(math.pi * h / 2.0) ** 2
        stiff, mass = 4.0 * s / h, h * (3.0 - 2.0 * s) / 3.0
        lam = discrete_poincare(Mesh1D.uniform(n)) ** -2
        assert math.isclose(lam, stiff / (stiff + mass), rel_tol=1e-11)

    @NONLINEARITIES
    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("n", [2, 3, 64, 256])
    @pytest.mark.parametrize("nodes", ["uniform", "random"])
    def test_alpha_measured_matches_dense_eigh(self, nl, bc, n, nodes):
        # the bisection stops at the relative width 2**-36, at a point
        # where the LDL^T test passed
        mesh = Mesh1D.uniform(n, bc) if nodes == "uniform" else _random_mesh(n, n - 1, bc)
        data = PdeData.from_spec(mesh, a=lambda x: 1.0 + x, b=2.0, f=3.0,
                                 g=0.5 if bc == "neumann" else 0.0)
        u = newton_solve(mesh, data, nl)
        lin, gram = linearization_matrix(mesh, data, nl, u), mesh.h1_gram
        (a_diag, a_off), (b_diag, b_off) = lin, gram
        want = scipy.linalg.eigh(dense(lin), dense(gram), eigvals_only=True,
                                 subset_by_index=[0, 0])[0]
        lam = pde1d._smallest_generalized_eigenvalue(lin, gram)
        assert math.isclose(lam, want, rel_tol=1e-10)
        assert pde1d._ldl(a_diag - lam * b_diag, a_off - lam * b_off) is not None
        consts = estimate_constants(mesh, data, nl, u)
        assert math.isclose(consts.alpha_measured, 1.0 / want, rel_tol=1e-10)

    @pytest.mark.parametrize("nl, orders", [(Nonlinearity.cubic(), [1, 2, 3, 4]),
                                            (Nonlinearity.tanh_shifted(), [1, 2, 3, 4, 5, 6]),
                                            (Nonlinearity.polynomial([0.0]), [1, 2])],
                             ids=["cubic", "tanh", "zero"])
    def test_each_derivative_sup_is_computed_once(self, nl, orders, monkeypatch):
        # each sup is an eigenvalue solve, and the bound of order r reads the
        # sups of orders r and r - 1
        mesh = Mesh1D.uniform(16)
        data = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
        u = newton_solve(mesh, data, nl)
        calls = []
        sup = nl.deriv_sup
        monkeypatch.setattr(nl, "deriv_sup", lambda n, lo, hi: calls.append(n) or sup(n, lo, hi))
        estimate_constants(mesh, data, nl, u)
        assert calls == orders

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


def _random_mesh(seed, n_inner, bc):
    inner = np.sort(np.random.default_rng(seed).uniform(0.0, 1.0, n_inner))
    return Mesh1D(np.concatenate([[0.0], inner, [1.0]]), bc)


CLOSED_FORM_MESHES = pytest.mark.parametrize("mesh", [
    *(Mesh1D.uniform(n, bc) for bc in ("dirichlet", "neumann") for n in (2, 3, 16, 256, 4096)),
    *(_random_mesh(seed, n_inner, bc) for bc in ("dirichlet", "neumann")
      for seed, n_inner in ((11, 1), (12, 40), (13, 1000))),
], ids=[*(f"uniform{n}-{bc}" for bc in ("dirichlet", "neumann") for n in (2, 3, 16, 256, 4096)),
        *(f"random{n}-{bc}" for bc in ("dirichlet", "neumann") for n in (2, 41, 1001))])


class TestClosedFormConstants:
    """`Mesh1D`'s constants are those of the continuous problem; on the
    conforming subspace of any mesh the discrete constants lie below them."""

    @CLOSED_FORM_MESHES
    def test_closed_forms_bound_discrete_values(self, mesh):
        assert discrete_poincare(mesh) < mesh.poincare_constant
        assert discrete_embedding(mesh) < mesh.embedding_constant
        if mesh.right_bc == "neumann":
            assert discrete_trace(mesh) < mesh.trace_constant
        else:
            assert discrete_trace(mesh) == mesh.trace_constant == 0.0

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_gap_shrinks_under_refinement(self, bc):
        # the uniform meshes of 2, 16, 256 and 4096 elements are nested, so
        # each discrete sup grows towards the closed form
        oracles = {"poincare_constant": discrete_poincare,
                   "embedding_constant": discrete_embedding}
        if bc == "neumann":
            oracles["trace_constant"] = discrete_trace
        meshes = [Mesh1D.uniform(n, bc) for n in (2, 16, 256, 4096)]
        for name, oracle in oracles.items():
            gaps = [getattr(mesh, name) - oracle(mesh) for mesh in meshes]
            assert all(0.0 < fine < coarse for coarse, fine in zip(gaps, gaps[1:])), (name, gaps)
            assert gaps[-1] < 1e-8

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_closed_forms_round_up_the_exact_values(self, bc):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            lam = mpmath.pi**2 / (1 if bc == "dirichlet" else 4)
            green = (mpmath.sinh(0.5) ** 2 / mpmath.sinh(1) if bc == "dirichlet"
                     else mpmath.tanh(1))
            exact = {"poincare_constant": mpmath.sqrt(1 + 1 / lam),
                     "embedding_constant": mpmath.sqrt(green)}
            if bc == "neumann":
                exact["trace_constant"] = mpmath.sqrt(mpmath.tanh(1))
            mesh = Mesh1D.uniform(8, bc)
            for name, value in exact.items():
                got = getattr(mesh, name)
                assert value <= got <= value + 8 * math.ulp(got), name
        if bc == "dirichlet":
            assert mesh.trace_constant == 0.0

    def test_mesh_constants_factor_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a mesh constant factored a matrix")
        for name in ("_ldl", "_smallest_generalized_eigenvalue", "dpttrf"):
            monkeypatch.setattr(pde1d, name, refuse)
        for bc in ("dirichlet", "neumann"):
            mesh = Mesh1D.uniform(4096, bc)
            assert min(mesh.poincare_constant, mesh.embedding_constant) > 0.0
            assert (mesh.trace_constant > 0.0) == (bc == "neumann")

    @NONLINEARITIES
    @pytest.mark.parametrize("n", [64, 4096])
    def test_bisection_in_place_is_bitwise_the_allocating_form(self, nl, n):
        def allocating(a_bands, b_bands):  # forms A - tB anew at every step
            (a_diag, a_off), (b_diag, b_off) = a_bands, b_bands
            lo, hi = 0.0, float(np.min(a_diag / b_diag))
            while (hi - lo > pde1d._BISECTION_RTOL * hi
                   and lo < (mid := 0.5 * (lo + hi)) < hi):
                if pde1d._ldl(a_diag - mid * b_diag, a_off - mid * b_off) is None:
                    hi = mid
                else:
                    lo = mid
            return lo

        mesh = Mesh1D.uniform(n)
        data = PdeData.from_spec(mesh, a=lambda x: 1.0 + x, b=2.0, f=3.0)
        lin = linearization_matrix(mesh, data, nl, newton_solve(mesh, data, nl))
        before = [band.copy() for bands in (lin, mesh.h1_gram) for band in bands]
        got = pde1d._smallest_generalized_eigenvalue(lin, mesh.h1_gram)
        assert got == allocating(lin, mesh.h1_gram) > 0.0
        assert all(np.array_equal(band, old) for band, old in
                   zip([band for bands in (lin, mesh.h1_gram) for band in bands], before))


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
        smap = lambda ds: solve_residual_stack(oracle, ds, oracle.zero_state(), 1e-13)
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


class _States:
    """Stands in for the probe's generator: `standard_normal` returns the
    given states in turn."""

    def __init__(self, states):
        self._states = itertools.cycle(states)

    def standard_normal(self, n):
        return next(self._states)


class TestMonotonicityCertificate:
    """The sampled `monotonicity_probe` is the oracle of the exact certificate:
    no pair of states may pair below the certificate's threshold."""

    NONLINEARITIES = {
        "cubic": Nonlinearity.cubic(),
        "tanh_shifted": Nonlinearity.tanh_shifted(),
        "polynomial": Nonlinearity.polynomial([1.0, 0.5, 1.0]),
    }

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("kind", NONLINEARITIES)
    def test_probe_never_below_threshold(self, kind, bc):
        nl = self.NONLINEARITIES[kind]
        rng = np.random.default_rng(23)
        mesh = Mesh1D.uniform(40, right_bc=bc)
        shape = mesh.quad_x.shape
        b = rng.uniform(0.0, 2.0, shape)
        b[::7] = 0.0
        data = PdeData(0.2 + rng.uniform(0.0, 2.0, shape), b, rng.normal(0.0, 2.0, shape),
                       0.5 if bc == "neumann" else 0.0)
        cert = monotonicity_certificate(mesh, data, nl)
        assert cert.ok is True and cert.nonlinearity_monotone is True
        assert cert.min_a == float(np.min(data.a)) < 1.0 and cert.min_b == 0.0
        assert cert.c_pf == mesh.poincare_constant
        assert cert.threshold == cert.min_a / cert.c_pf**2

        sine = np.sin(math.pi * mesh.nodes[1:mesh.n_free + 1])
        scaled = [[s * sine, u2] for s in (1.0, 1e2, 1e4, 1e6)
                  for u2 in (0.0 * sine, -s * sine, 0.5 * s * sine)]
        draws = [rng] * 3 + [_States(pair) for pair in scaled]
        for draw in draws:
            probe = monotonicity_probe(mesh, data, nl, draw)
            assert probe.threshold == cert.threshold
            assert probe.min_ratio >= cert.threshold * (1.0 - 1e-10), (draw, probe)

    def test_threshold_is_attained(self):
        # b = 0 leaves <v', v'>, whose smallest ratio to ||v||_H1^2 the nodal
        # sine attains on a uniform Dirichlet mesh: the threshold with the
        # discrete c_pf is sharp, and the certificate's closed-form c_pf
        # errs low of it
        mesh = Mesh1D.uniform(64)
        data = PdeData.from_spec(mesh, a=1.0, b=0.0)
        cert = monotonicity_certificate(mesh, data, Nonlinearity.cubic())
        threshold = min(1.0, cert.min_a) / discrete_poincare(mesh) ** 2
        assert cert.threshold <= threshold
        sine = np.sin(math.pi * mesh.nodes[1:mesh.n_free + 1])
        probe = monotonicity_probe(mesh, data, Nonlinearity.cubic(),
                                   _States([sine, 0.0 * sine]))
        assert threshold * (1.0 - 1e-10) <= probe.min_ratio
        assert probe.min_ratio <= threshold * (1.0 + 1e-10)

    @pytest.mark.parametrize("a,b", [(1.0, -1e-3), (0.0, 1.0), (-1.0, 1.0)])
    def test_inadmissible_data_not_certified(self, a, b):
        mesh = Mesh1D.uniform(16)
        field = np.full(mesh.quad_x.shape, 1.0)
        field[3, 1] = b
        data = PdeData(mesh.field(a), field, mesh.field(1.0))
        cert = monotonicity_certificate(mesh, data, Nonlinearity.cubic())
        assert cert.ok is False
        assert cert.min_b == min(b, 1.0) and cert.min_a == a
