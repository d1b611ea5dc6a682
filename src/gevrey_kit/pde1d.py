"""P1 finite elements for a semilinear reaction-diffusion problem on (0, 1).

The weak problem on the unit interval reads: find u with

    <a u', v'> + <b N(u), v> = <f, v> + g v(1)   for all test v,

where N is a pointwise monotone nonlinearity, the left endpoint is always
Dirichlet and the right endpoint Dirichlet or Neumann.  N and each of its
derivatives is a polynomial in an inner function, N^(n)(z) = P_n(g(z)) with
g the identity or tanh; its monotonicity and growth bound are decided
exactly from the coefficients of P_1 and P_0.  Nodal fields are
numpy vectors over the free nodes (Dirichlet nodes eliminated); coefficient
and forcing fields live at the 3-point Gauss nodes of each element, shape
(n_elements, 3).  Every P1 integral takes one form: a stiffness term from
ke = sum_j w_j a_j / h^2 per element, and a mass term from a Gauss-point
field summed against the weight products of the mesh (`Mesh1D`).
Discrete norms use the full H1 inner product (mass + stiffness); dual
norms go through the corresponding Riesz map.

Every P1 matrix is held as its bands (diag, off) over the free nodes, in
O(n) memory, and one LDL^T (dpttrf/dpttrs of scipy's compiled `_flapack`,
see `_scipy_kernels`) serves every solve and the eigenvalue bisection of
`estimate_constants`; a round of a Newton stack factors and solves its
points' linearizations in one dptsv call.  The mesh constants (Poincare,
embedding, trace) are the continuous problem's, in closed form, and hold
on every mesh.  A linearization that is not positive definite or holds a
NaN raises LinearizationError.

Assembly is deterministic and single-threaded per call; distinct data and
field values may be processed concurrently.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from ._scipy_kernels import dptsv, dpttrf, dpttrs
from .implicit_diff import LinearizationError, ResidualOracle, solve_residual

__all__ = [
    "Mesh1D",
    "PdeData",
    "Nonlinearity",
    "PdeOracle",
    "PdeConstants",
    "BoundCheck",
    "SolutionBoundError",
    "MonotonicityCertificate",
    "MonotonicityProbe",
    "assemble_residual",
    "apply_residual_derivative",
    "newton_solve",
    "validate_admissible",
    "data_norm",
    "solution_bound_check",
    "monotonicity_certificate",
    "monotonicity_probe",
    "estimate_constants",
    "linearization_matrix",
]

_GAUSS_X = np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
_GAUSS_W = np.array([5.0, 8.0, 5.0]) / 9.0


def _gauss_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the 3 Gauss points of each element, left to right: numpy's
    own order for a length-3 axis, at a fraction of its reduction's cost."""
    total = x[..., 0] + x[..., 1]
    total += x[..., 2]
    return total


def _at_gauss_points(x: np.ndarray) -> np.ndarray:
    """x per element repeated at its 3 Gauss points, shape x.shape + (3,):
    a contiguous field, since a product that broadcasts x over the length-3
    axis runs numpy's inner loop three elements at a time.  Three strided
    copies take two thirds of the time of `np.repeat`'s per-element ones."""
    values = np.empty(x.shape + (3,), x.dtype)
    values[..., 0] = values[..., 1] = values[..., 2] = x
    return values


class Mesh1D:
    """Piecewise-linear elements on [0, 1] with 3-point Gauss quadrature.

    Parameters
    ----------
    nodes : array_like
        Strictly increasing node coordinates with nodes[0] = 0 and
        nodes[-1] = 1.
    right_bc : str
        "dirichlet" or "neumann"; the left end is always Dirichlet, so a
        Poincare inequality holds on the free space.

    The Poincare, embedding and trace constants are those of the continuous
    problem on (0, 1), in closed form.  P1 elements are conforming (the free
    space V_h is a subspace of H^1 with v(0) = 0, and of H^1_0 for a
    Dirichlet right end), and 3-point Gauss quadrature integrates products
    of P1 functions exactly, so `h1_norm` and <v', v'> are the continuous
    forms restricted to V_h.  Each constant is a sup over the space of a
    ratio of these forms, and a sup over the subspace V_h is at most the sup
    over the whole space (min-max principle): each value bounds the discrete
    one of this mesh from above and holds on every mesh, uniform or not, for
    any number of elements.  Each is rounded up by `_CONSTANT_ULPS` ulps,
    which covers its evaluation error.

    The mesh forms five weight products once, shape (n_elements, 3): the
    loads' wl = w phi_left and wr = w phi_right, and the bands' wll = wl
    phi_left, wlr = wl phi_right and wrr = wr phi_right.
    """

    def __init__(self, nodes, right_bc: str = "dirichlet"):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or len(nodes) < 2:
            raise ValueError("need at least two nodes")
        if nodes[0] != 0.0 or nodes[-1] != 1.0:
            raise ValueError("mesh must span [0, 1]")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if right_bc not in ("dirichlet", "neumann"):
            raise ValueError("right_bc must be 'dirichlet' or 'neumann'")
        self.nodes = nodes
        self.right_bc = right_bc
        self.n_nodes = len(nodes)
        self.n_elements = self.n_nodes - 1
        self.h = np.diff(nodes)
        mid = 0.5 * (nodes[:-1] + nodes[1:])
        self.quad_x = mid[:, None] + 0.5 * self.h[:, None] * _GAUSS_X[None, :]
        self.quad_w = 0.5 * self.h[:, None] * _GAUSS_W[None, :]
        self.phi_left = (nodes[1:, None] - self.quad_x) / self.h[:, None]
        self.phi_right = (self.quad_x - nodes[:-1, None]) / self.h[:, None]
        self.wl = self.quad_w * self.phi_left
        self.wr = self.quad_w * self.phi_right
        self.wll, self.wlr, self.wrr = (self.wl * self.phi_left, self.wl * self.phi_right,
                                        self.wr * self.phi_right)
        if right_bc == "neumann":
            self.free = np.arange(1, self.n_nodes)
        else:
            self.free = np.arange(1, self.n_nodes - 1)
        self.n_free = len(self.free)
        if self.n_free == 0:
            raise ValueError("mesh has no free nodes")

    @classmethod
    def uniform(cls, n_elements: int, right_bc: str = "dirichlet") -> "Mesh1D":
        if n_elements < 2:
            raise ValueError("need at least two elements")
        return cls(np.linspace(0.0, 1.0, n_elements + 1), right_bc)

    # -- field handling: free-node fields map along their last axis --------

    def expand(self, v: np.ndarray) -> np.ndarray:
        """Free-node values -> full nodal values with Dirichlet zeros."""
        full = np.zeros(np.shape(v)[:-1] + (self.n_nodes,))
        full[..., 1:self.n_free + 1] = v  # the free nodes are 1..n_free
        return full

    def interpolate(self, fn: Callable) -> np.ndarray:
        """Free nodal values of a callable on [0, 1]."""
        return np.asarray([float(fn(x)) for x in self.nodes[self.free]])

    def field(self, spec) -> np.ndarray:
        """Quadrature field from a scalar, a callable or an array of values."""
        if callable(spec):
            return np.asarray(spec(self.quad_x), dtype=float) * np.ones_like(self.quad_x)
        arr = np.asarray(spec, dtype=float)
        if arr.ndim == 0:
            return np.full_like(self.quad_x, float(arr))
        if arr.shape == self.quad_x.shape:
            return arr.copy()
        if arr.ndim == 1 and arr.size == self.quad_x.size:
            return arr.reshape(self.quad_x.shape).copy()
        raise ValueError(f"cannot interpret field of shape {arr.shape}")

    def at_quad(self, v: np.ndarray) -> np.ndarray:
        """Values at the Gauss points, shape (..., n_elements, 3)."""
        return self._gauss_values(self.expand(v))

    def _gauss_values(self, full: np.ndarray) -> np.ndarray:
        """`at_quad` from full nodal values: left value * phi_left + right
        value * phi_right."""
        values = _at_gauss_points(full[..., :-1])
        values *= self.phi_left
        right = _at_gauss_points(full[..., 1:])
        right *= self.phi_right
        values += right
        return values

    def slopes(self, v: np.ndarray) -> np.ndarray:
        """Derivative on each element, shape (..., n_elements)."""
        return np.diff(self.expand(v)) / self.h

    def grad_at_quad(self, v: np.ndarray) -> np.ndarray:
        return _at_gauss_points(self.slopes(v))

    def integrate(self, qfield: np.ndarray) -> float:
        return float(np.sum(self.quad_w * qfield))

    def l2_norm_quad(self, qfield: np.ndarray) -> float:
        return math.sqrt(max(self.integrate(qfield * qfield), 0.0))

    # -- assembly ----------------------------------------------------------

    def assemble_load(self, grad_part=None, mass_part=None, boundary=0.0, *,
                      ge=None) -> np.ndarray:
        """Free-node vector of v -> <grad_part, v'> + <mass_part, v> + boundary*v(1),
        one for each point of a leading axis that the parts (and an array
        `boundary`) share.  The gradient part enters through its element
        loads ge = sum_j w_j grad_part_j / h, which may be passed instead, and
        the mass part through its sums against wl and wr."""
        if grad_part is not None:
            ge = _gauss_sum(self.quad_w * grad_part)
            ge /= self.h
        if ge is not None:
            lead = np.shape(ge)[:-1]
        else:
            lead = np.shape(boundary) if mass_part is None else np.shape(mass_part)[:-2]
        full = np.zeros(lead + (self.n_nodes,))
        if ge is not None:
            full[..., :-1] -= ge
            full[..., 1:] += ge
        if mass_part is not None:
            full[..., :-1] += _gauss_sum(mass_part * self.wl)
            full[..., 1:] += _gauss_sum(mass_part * self.wr)
        full[..., -1] += boundary  # never -0.0 before this add, so a zero adds nothing
        return full[..., 1:self.n_free + 1]

    def bilinear_form(self, stiffness=None, mass=None) -> tuple[np.ndarray, np.ndarray]:
        """Bands (diag, off) over the free nodes of the matrix of
        (w, v) -> <stiffness w', v'> + <mass w, v>; a weight is a quadrature
        field or scalar, None leaves its term out."""
        return self._bands(None if stiffness is None else self._stiffness_term(stiffness), mass)

    def _stiffness_term(self, weight) -> np.ndarray:
        """Per-element stiffness entry of <weight w', v'>: ke (1, -1; -1, 1)."""
        return _gauss_sum(self.quad_w * weight) / self.h**2

    def _bands(self, ke: np.ndarray | None, mass) -> tuple[np.ndarray, np.ndarray]:
        """`bilinear_form` from the stiffness term ke (None leaves it out),
        one for each point of their leading axes.  The mass weight enters
        each element's entries as sum_j mass_j wll_j, wlr_j and wrr_j."""
        if ke is None:
            ke = np.zeros(self.n_elements)
        ell, lr = 0.0 + ke, 0.0 - ke  # not ke and -ke: a zero entry must come out +0.0
        rr = ell
        if mass is not None:
            lr = lr + _gauss_sum(mass * self.wlr)
            ell, rr = ell + _gauss_sum(mass * self.wll), rr + _gauss_sum(mass * self.wrr)
        diag = np.zeros(np.shape(ell)[:-1] + (self.n_nodes,))
        diag[..., :-1] += ell
        diag[..., 1:] += rr
        return diag[..., 1:self.n_free + 1], lr[..., 1:self.n_free]

    # -- norms and constants ------------------------------------------------

    @cached_property
    def h1_gram(self) -> tuple[np.ndarray, np.ndarray]:
        return self.bilinear_form(stiffness=1.0, mass=1.0)

    @cached_property
    def _h1_factors(self) -> tuple[np.ndarray, np.ndarray]:
        return _ldl(*self.h1_gram)

    def _h1_gram_product(self, v: np.ndarray) -> np.ndarray:
        diag, off = self.h1_gram
        gram_v = diag * v  # last axis, row by row: no cancellation between band sums
        gram_v[..., 1:] += off * v[..., :-1]
        gram_v[..., :-1] += off * v[..., 1:]
        return gram_v

    def h1_norm(self, v: np.ndarray) -> float:
        return math.sqrt(max(float(v @ self._h1_gram_product(v)), 0.0))

    def h1_norms(self, rows: np.ndarray) -> list[float]:
        """`h1_norm` of every row, bit for bit for rows of unit stride: one
        Gram product, then one `np.vecdot`, which runs the kernel of `v @ g`
        per row (an `einsum` sums in another order, and so does a dot
        product of strided rows)."""
        squares = np.vecdot(rows, self._h1_gram_product(rows))
        return [math.sqrt(max(float(s), 0.0)) for s in squares]

    def riesz(self, functional: np.ndarray) -> np.ndarray:
        return _ldl_solve(self._h1_factors, functional)

    def dual_norm(self, functional: np.ndarray) -> float:
        return math.sqrt(max(float(functional @ self.riesz(functional)), 0.0))

    @cached_property
    def embedding_constant(self) -> float:
        """Upper bound of sup |v(x)| / ||v||_H1 over the free space:
        sqrt(max_x G(x, x)) with G the Green's function of -v'' + v.  For a
        Dirichlet right end G(x, x) = sinh(x) sinh(1 - x) / sinh(1), largest
        at x = 1/2, where it is sinh(1/2)^2 / sinh(1) = tanh(1/2) / 2; for a
        Neumann one G(x, x) = sinh(x) cosh(1 - x) / cosh(1), largest at
        x = 1, where it is tanh(1)."""
        if self.right_bc == "neumann":
            return _rounded_up(math.sqrt(math.tanh(1.0)))
        return _rounded_up(math.sqrt(0.5 * math.tanh(0.5)))

    @cached_property
    def trace_constant(self) -> float:
        """Upper bound of the dual norm of v -> v(1): sqrt(G(1, 1)) =
        sqrt(tanh 1) for a Neumann right end; zero when it is Dirichlet."""
        if self.right_bc != "neumann":
            return 0.0
        return _rounded_up(math.sqrt(math.tanh(1.0)))

    @cached_property
    def poincare_constant(self) -> float:
        """Upper bound of the smallest c with ||v||_H1^2 <= c^2 <v', v'> on
        the free space: sqrt(1 + 1/lambda_1), with lambda_1 the smallest
        eigenvalue of -v'' on (0, 1), pi^2 for a Dirichlet right end and
        pi^2 / 4 for a Neumann one (sine modes sin(pi x) and sin(pi x / 2))."""
        lam = math.pi**2 if self.right_bc == "dirichlet" else math.pi**2 / 4.0
        return _rounded_up(math.sqrt(1.0 + 1.0 / lam))


#: Ulps by which `_rounded_up` raises a closed-form constant.  The largest
#: evaluation error is that of sqrt(tanh(x)): glibc's tanh is within 2 ulps
#: (its published error table), which sqrt halves in relative terms, plus
#: sqrt's own half ulp, so within 3 ulps of the result; sqrt(1 + 1/lambda_1)
#: is within 2 (math.pi and each operation are within half an ulp, and
#: 1/lambda_1 < 1/2 damps their sum).
_CONSTANT_ULPS = 4


def _rounded_up(value: float) -> float:
    """`value` raised by `_CONSTANT_ULPS` ulps."""
    for _ in range(_CONSTANT_ULPS):
        value = math.nextafter(value, math.inf)
    return value


def _ldl(diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """LDL^T factors (pivots, multipliers) of the symmetric tridiagonal matrix
    (diag, off), or None when it is not positive definite: dpttrf stops at a
    pivot <= 0, and a NaN, which passes that test, reaches the last pivot."""
    if len(diag) == 1:  # the dpttrf wrapper rejects an empty off-diagonal
        return (diag, off) if diag[0] > 0.0 else None
    pivots, multipliers, info = dpttrf(diag, off)
    return (pivots, multipliers) if info == 0 and pivots[-1] > 0.0 else None


def _ldl_solve(factors: tuple[np.ndarray, np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """Solution of L D L^T x = rhs from the factors of `_ldl`; an n x k rhs
    is solved column by column in one dpttrs call."""
    pivots, multipliers = factors
    if len(pivots) == 1:
        return rhs / pivots
    return dpttrs(pivots, multipliers, rhs)[0]


#: Relative width at which `_smallest_generalized_eigenvalue` stops.  Below
#: it the bisection only resolves the round-off of its own LDL^T test: on
#: the linearization pencils of random data at mesh 4096, its result and
#: scipy's shift-invert `eigsh` differ by 3e-12 to 1.04e-9 (relative), far
#: more than stopping here moves it (less than the width, since running on
#: to adjacent doubles stays inside the bracket); on meshes of 2 to 256
#: elements it stays within 1.5e-11 below dense `eigh`.
_BISECTION_RTOL = 2.0**-36


def _smallest_generalized_eigenvalue(a_bands: tuple, b_bands: tuple) -> float:
    """Smallest eigenvalue of a positive definite pencil of bands (A, B) by
    inertia bisection (Barth, Martin & Wilkinson, Numer. Math. 9 (1967)): A - tB
    is positive definite exactly when t is below it.  From lo = 0 and the
    Rayleigh quotient hi = min A_ii/B_ii, lo moves only where the LDL^T succeeds,
    until hi - lo <= `_BISECTION_RTOL` * hi (about 37 steps; or until no
    midpoint lies strictly between).  Returns lo, a point where the test
    passed, so a lower bound up to the test's round-off, in O(n) time and
    memory and the same on every run.  Each step forms A - tB in the same
    two buffers and factors it there."""
    (a_diag, a_off), (b_diag, b_off) = a_bands, b_bands
    lo, hi = 0.0, float(np.min(a_diag / b_diag))
    diag, off = np.empty_like(a_diag), np.empty_like(a_off)
    while hi - lo > _BISECTION_RTOL * hi and lo < (mid := 0.5 * (lo + hi)) < hi:
        np.subtract(a_diag, np.multiply(b_diag, mid, out=diag), out=diag)
        np.subtract(a_off, np.multiply(b_off, mid, out=off), out=off)
        if len(diag) == 1:
            definite = _ldl(diag, off) is not None
        else:
            pivots, _, info = dpttrf(diag, off, overwrite_d=1, overwrite_e=1)
            definite = info == 0 and pivots[-1] > 0.0
        if definite:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True, eq=False)
class PdeData:
    """Coefficient tuple (a, b, f, g): diffusion and reaction-weight fields,
    forcing field (all at quadrature nodes) and the Neumann flux at x = 1.

    Supports addition and scalar multiplication so instances double as
    perturbation directions.
    """

    a: np.ndarray
    b: np.ndarray
    f: np.ndarray
    g: float = 0.0

    def __add__(self, other: "PdeData") -> "PdeData":
        return PdeData(self.a + other.a, self.b + other.b, self.f + other.f,
                       self.g + other.g)

    def __sub__(self, other: "PdeData") -> "PdeData":
        return PdeData(self.a - other.a, self.b - other.b, self.f - other.f,
                       self.g - other.g)

    def __mul__(self, c: float) -> "PdeData":
        return PdeData(c * self.a, c * self.b, c * self.f, c * self.g)

    __rmul__ = __mul__

    def __neg__(self) -> "PdeData":
        return self * (-1.0)

    @staticmethod
    def zeros(mesh: Mesh1D) -> "PdeData":
        z = np.zeros_like(mesh.quad_x)
        return PdeData(z, z.copy(), z.copy(), 0.0)

    @staticmethod
    def from_spec(mesh: Mesh1D, a=1.0, b=0.0, f=0.0, g: float = 0.0) -> "PdeData":
        return PdeData(mesh.field(a), mesh.field(b), mesh.field(f), float(g))


class Nonlinearity:
    """Pointwise scalar nonlinearity N(z) = P_0(g(z)) with exact derivatives.

    P_0 is a polynomial and g an inner function whose derivative is itself
    a polynomial in g, so every derivative has the same form:
    N^(n)(z) = P_n(g(z)) with P_{n+1} = P_n' * g'.  Two families exist,
    told apart by `degree`, the one family marker:

    * polynomials with vanishing constant term: g(z) = z, g' = 1, and
      `degree` the degree of P_0, above which every N^(n) vanishes;
    * the shifted hyperbolic tangent 2 + tanh: g = tanh, P_0(t) = 2 + t,
      g' = 1 - t**2, and `degree` None.

    Admissibility is decided exactly, with no sample grid.  Monotonicity:
    P_1 >= 0 on the closure of g's range (the real line, or [-1, 1]), from
    its limits at infinite ends and its values at the ends and critical
    points; the decision is kept as `monotone`, and a non-monotone N is
    rejected.  Growth: deg P_0 <= q - 1, and since |g(z)| <= max(1, |z|) the
    sum of |P_0 coefficients| is a constant c with
    |N(z)| <= c * (1 + |z|**(q-1)) for all real z.  Candidates without a
    polynomial bound (exp) are rejected, and so are a non-finite q or
    coefficient, before either decision.
    """

    def __init__(self, kind: str, coeffs: np.ndarray | None, q: float):
        self.q = float(q)
        if not math.isfinite(self.q):
            raise ValueError(f"growth exponent q must be finite, got {self.q}")
        if kind == "polynomial":
            p0 = np.asarray(coeffs, dtype=float)
            if not np.all(np.isfinite(p0)):
                raise ValueError("polynomial nonlinearity coefficients must be finite")
            while len(p0) > 1 and p0[-1] == 0.0:
                p0 = p0[:-1]
            if p0[0] != 0.0:
                raise ValueError("polynomial nonlinearity must vanish at zero")
            self.degree = int(len(p0) - 1)
            self._g = self._g_scalar = _identity
            self._g_range, self._dg = (-math.inf, math.inf), np.array([1.0])
        elif kind == "tanh_shifted":
            p0 = np.array([2.0, 1.0])
            self.degree = None
            # Arrays go through np.tanh and interval ends through math.tanh;
            # the two differ in the last bit for some arguments.
            self._g, self._g_scalar = np.tanh, math.tanh
            self._g_range, self._dg = (-1.0, 1.0), np.array([1.0, 0.0, -1.0])
        else:
            raise ValueError(f"unknown nonlinearity kind {kind!r}")
        if len(p0) - 1 > math.floor(self.q - 1.0):
            raise ValueError(
                f"degree {len(p0) - 1} exceeds floor(q-1) = {math.floor(self.q - 1.0)}"
            )
        self._polys = [p0]
        self.monotone = self._is_monotone()
        if not self.monotone:
            raise ValueError("nonlinearity is not monotone: N' < 0 somewhere on the real line")
        self.growth_constant = float(np.sum(np.abs(p0)))

    # -- factories ----------------------------------------------------------

    @classmethod
    def polynomial(cls, coeffs: Sequence[float], q: float | None = None) -> "Nonlinearity":
        """N(z) = sum_j theta_j z**j from coefficients theta_1, ..., theta_J."""
        coeffs = [0.0] + list(coeffs)
        degree = len(coeffs) - 1
        if q is None:
            q = float(max(2, degree + 1))
        return cls("polynomial", np.asarray(coeffs, dtype=float), q)

    @classmethod
    def cubic(cls) -> "Nonlinearity":
        return cls.polynomial([0.0, 0.0, 1.0])

    @classmethod
    def tanh_shifted(cls) -> "Nonlinearity":
        return cls("tanh_shifted", None, 2.0)

    @classmethod
    def exponential(cls, q: float = 6.0) -> "Nonlinearity":
        """Always rejected: exp admits no polynomial growth bound."""
        raise ValueError(
            "polynomial growth bound |N(z)| <= c*(1+|z|**(q-1)) cannot be satisfied "
            f"for q={q:g}: exp(z) / |z|**k is unbounded for every k"
        )

    # -- validation ----------------------------------------------------------

    def _is_monotone(self) -> bool:
        # N' = P_1(g) >= 0 iff P_1 >= 0 on the closure of g's range: at an
        # infinite end the leading term decides the sign, elsewhere the values
        # at the ends and critical points, up to evaluation round-off.
        p1 = self._poly(1)
        lo, hi = self._g_range
        limits = [p1[-1] * x ** (len(p1) - 1) for x in (lo, hi) if math.isinf(x)]
        pts = _critical_points(p1, lo, hi)
        floor = -1e-12 * npoly.polyval(np.abs(pts), np.abs(p1))
        return bool(min(limits, default=0.0) >= 0.0
                    and not np.any(npoly.polyval(pts, p1) < floor))

    # -- evaluation ----------------------------------------------------------

    def _poly(self, n: int) -> np.ndarray:
        """Coefficients of P_n, with N^(n)(z) = P_n(g(z))."""
        while len(self._polys) <= n:
            self._polys.append(npoly.polymul(npoly.polyder(self._polys[-1]), self._dg))
        return self._polys[n]

    def deriv(self, n: int, z):
        """Values of the n-th derivative, broadcasting over z."""
        if n < 0:
            raise ValueError("derivative order must be >= 0")
        x, c = self._g(np.asarray(z, dtype=float)), self._poly(n)
        # Horner in npoly.polyval's order, without its overhead and in place.
        # x * 0 carries a NaN or inf of x into every order.  Adding a zero
        # coefficient changes at most the sign of a zero, which the products
        # keep a zero and the last addition makes +0.0, as polyval's would.
        acc = x * 0.0
        acc += c[-1]
        for j in range(len(c) - 2, -1, -1):
            acc *= x
            if j == 0 or c[j] != 0.0:
                acc += c[j]
        return acc

    def __call__(self, z):
        return self.deriv(0, z)

    @property
    def zero_value(self) -> float:
        return float(self.deriv(0, 0.0))

    def deriv_sup(self, n: int, lo: float, hi: float) -> float:
        """Exact max of |N^(n)| on [lo, hi]: max of |P_n| on [g(lo), g(hi)]
        (g is increasing), attained at an end or a critical point."""
        if lo > hi:
            raise ValueError("empty interval")
        coeffs = self._poly(n)
        pts = _critical_points(coeffs, self._g_scalar(lo), self._g_scalar(hi))
        return float(np.max(np.abs(npoly.polyval(pts, coeffs))))


def _identity(z):
    return z


def _critical_points(coeffs: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The finite ends of [lo, hi] and the real part of every critical point
    of the polynomial strictly inside.  Imaginary parts are dropped rather
    than filtered, since a multiple root may come back as a complex pair."""
    crit = npoly.polyroots(npoly.polyder(coeffs)).real
    ends = [x for x in (lo, hi) if math.isfinite(x)]
    return np.concatenate([ends, crit[(lo < crit) & (crit < hi)]])


# -- residual and derivatives -------------------------------------------------


def assemble_residual(mesh: Mesh1D, data: PdeData, nl: Nonlinearity,
                      u: np.ndarray) -> np.ndarray:
    """Galerkin residual of <a u', v'> + <b N(u), v> - <f, v> - g v(1)."""
    full = mesh.expand(u)
    return _residual(mesh, data, nl, full, mesh._gauss_values(full),
                     mesh._stiffness_term(data.a))


def _residual(mesh: Mesh1D, data: PdeData, nl: Nonlinearity, full: np.ndarray,
              uq: np.ndarray, ke: np.ndarray) -> np.ndarray:
    """`assemble_residual` from the state's full nodal and Gauss values and
    the stiffness term ke of a, for each point of a leading axis of the
    data fields and the state: element loads (u_{e+1} - u_e) ke_e, and the
    mass part b N(u) - f."""
    ge = full[..., 1:] - full[..., :-1]
    ge *= ke
    mass_part = nl.deriv(0, uq)
    mass_part *= data.b
    mass_part -= data.f
    return mesh.assemble_load(None, mass_part, -data.g, ge=ge)


def apply_residual_derivative(mesh: Mesh1D, data: PdeData, nl: Nonlinearity,
                              u: np.ndarray, r: int,
                              args: Sequence[tuple[PdeData, np.ndarray]]) -> np.ndarray:
    """Multilinear residual derivative in r joint (data, state) directions
    (d_i, v_i), d_i = (a_i, b_i, f_i, g_i).

    The data enter affinely and N acts pointwise, so the term b N(u) has
    one formula for every r >= 1:

        <b N^(r)(u) prod_i v_i + sum_k b_k N^(r-1)(u) prod_{j != k} v_j, v>.

    The diffusion term adds <a_1 u' + a v_1', v'> at r = 1 and
    <a_1 v_2' + a_2 v_1', v'> at r = 2, and the load -<f_1, v> - g_1 v(1)
    at r = 1.  Above the degree of a polynomial N, N^(r) is the zero
    polynomial, so the result is exact zeros.
    """
    if r < 1:
        raise ValueError("derivative order must be >= 1")
    if len(args) != r:
        raise ValueError("need exactly r direction pairs")
    uq = mesh.at_quad(u)
    state_q = [mesh.at_quad(v) for _, v in args]
    prod_all = nl.deriv(r, uq)
    for vq in state_q:
        prod_all = prod_all * vq
    mass_part = data.b * prod_all
    base = nl.deriv(r - 1, uq)
    for k in range(r):
        term = args[k][0].b * base
        for j, vq in enumerate(state_q):
            if j != k:
                term = term * vq
        mass_part = mass_part + term
    grad_part, boundary = None, 0.0
    if r == 1:
        (d1, v1), = args
        grad_part = d1.a * mesh.grad_at_quad(u) + data.a * mesh.grad_at_quad(v1)
        mass_part, boundary = mass_part - d1.f, -d1.g
    elif r == 2:
        (d1, v1), (d2, v2) = args
        grad_part = d1.a * mesh.grad_at_quad(v2) + d2.a * mesh.grad_at_quad(v1)
    return mesh.assemble_load(grad_part, mass_part, boundary)


def linearization_matrix(mesh: Mesh1D, data: PdeData, nl: Nonlinearity,
                         u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bands of the state linearization v -> <a v', .'> + <b N'(u) v, .>."""
    return _linearization(mesh, data.b, nl, mesh.at_quad(u), mesh._stiffness_term(data.a))


def _linearization(mesh: Mesh1D, b: np.ndarray, nl: Nonlinearity, uq: np.ndarray,
                   ke: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`linearization_matrix` from the reaction weight b, the Gauss values uq
    and the stiffness term ke, for each point of their leading axis."""
    mass = nl.deriv(1, uq)
    mass *= b
    return mesh._bands(ke, mass)


def _linearization_factors(diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_ldl` of the bands of one state linearization; LinearizationError
    when it is not positive definite."""
    factors = _ldl(diag, off)
    if factors is None:
        raise LinearizationError("state linearization is not positive definite")
    return factors


#: Bytes of one Gauss-point field of the points that `PdeOracle` solves
#: together: a block of 26 points at mesh 256, of one point at mesh 4096.
#: Against 80 KiB, 10 alternating 25 s derivatives-fd pairs of
#: `tools/bench_pairs.py` (2-vCPU VM) read op_s medians of +3.4% at 64 KiB
#: (1/10 wins), -7.0% at 120 KiB (9/10) and -4.3% at 160 KiB (10/10), and
#: 160 KiB beat 120 KiB in 8 of 10 pairs (-7.0%).
_STACK_BYTES = 160 << 10


class PdeOracle(ResidualOracle):
    """Residual-oracle adapter for the P1 discretization.

    Data vectors are PdeData values, states free-node numpy vectors, and
    residuals free-node dual vectors; norms are the discrete H1 norm and
    its dual.  The oracle holds its mesh and nonlinearity and nothing else:
    `solve_linearized` factors the linearization anew at each call, and a
    linearization that is not positive definite raises LinearizationError.

    Newton solves stacks of points in blocks of `stack_points`, as many as
    fit `_STACK_BYTES` with one Gauss-point field each (`_PdeStack`), and
    factors and solves the linearizations of a block's points in one LAPACK
    call per round.  A table fill factors the linearization at its base
    point once, in its `_TaylorExpansion`.
    """

    def __init__(self, mesh: Mesh1D, nl: Nonlinearity):
        self.mesh = mesh
        self.nl = nl

    def eval(self, d: PdeData, u: np.ndarray) -> np.ndarray:
        return assemble_residual(self.mesh, d, self.nl, u)

    def apply_derivative(self, r: int, d: PdeData, u: np.ndarray, args) -> np.ndarray:
        return apply_residual_derivative(self.mesh, d, self.nl, u, r, args)

    def solve_linearized(self, d: PdeData, u: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        bands = linearization_matrix(self.mesh, d, self.nl, u)
        return _ldl_solve(_linearization_factors(*bands), rhs)

    @property
    def stack_points(self) -> int:
        return max(1, _STACK_BYTES // self.mesh.quad_x.nbytes)

    def stack(self, ds: PdeData) -> "_PdeStack":
        return _PdeStack(self, ds, self.mesh._stiffness_term(ds.a))

    def taylor_expansion(self, d, u, plan, data_block) -> "_TaylorExpansion":
        return _TaylorExpansion(self.mesh, self.nl, d, u, plan, data_block)

    def zero_data(self) -> PdeData:
        return PdeData.zeros(self.mesh)

    def zero_state(self) -> np.ndarray:
        return np.zeros(self.mesh.n_free)

    def residual_norm(self, value: np.ndarray) -> float:
        return self.mesh.dual_norm(value)

    def state_norm(self, value: np.ndarray) -> float:
        return self.mesh.h1_norm(value)


class _PdeStack:
    """`PdeOracle`'s stack forms (see `implicit_diff.PointStack`): the one-point
    kernels on the data fields of a block, stacked along a leading axis of
    points (of length one for a single point) and read where the block holds
    them, so each point gets the bytes of the one-point forms (every kernel
    is elementwise in the data, whatever their strides).  The stiffness
    terms ke are formed once, and the Gauss values of the states last
    evaluated are kept for the linearizations; the stack
    reads its oracle's mesh and nonlinearity and writes nothing into it.  A
    dual norm is one Riesz solve (`Mesh1D.riesz`) over all columns and a dot
    product per point (`np.vecdot`); the linearizations of the points are
    laid end to end in one tridiagonal and solved by one dptsv call.
    """

    def __init__(self, oracle: PdeOracle, data: PdeData, ke: np.ndarray):
        self.oracle, self.data, self.ke, self._uq = oracle, data, ke, None
        self.size = len(data.g)

    def _rows(self, x: np.ndarray, rows: list) -> np.ndarray:
        """x at the points `rows`."""
        return x if len(rows) == self.size else x[rows]

    def eval(self, us: list) -> tuple[np.ndarray, list]:
        mesh = self.oracle.mesh
        full = mesh.expand(np.asarray(us))
        uq = self._uq = mesh._gauss_values(full)
        res = _residual(mesh, self.data, self.oracle.nl, full, uq, self.ke)
        squares = np.vecdot(res, mesh.riesz(res.T).T)
        return res, [math.sqrt(max(float(s), 0.0)) for s in squares]

    def solve_linearized(self, rows: list, rhs: list) -> np.ndarray:
        diag, off = _linearization(self.oracle.mesh, self._rows(self.data.b, rows),
                                   self.oracle.nl, self._rows(self._uq, rows),
                                   self._rows(self.ke, rows))
        points, n = diag.shape
        if points * n > 1:  # the dptsv wrapper rejects an empty off-diagonal
            # The points' tridiagonals end to end, coupled by zeros, are one
            # matrix whose LDL^T is each point's own, bit for bit: with e = 0,
            # dpttrf's multiplier is 0 / d = +0.0 and the next pivot d - 0 * 0
            # is that d.  At a coupling the solve's sweeps add or subtract
            # only a finite value times +0.0, which changes no value but the
            # sign of a zero: a residual load holds no -0.0 (`assemble_load`
            # sums from +0.0), and a -0.0 that a point's last entry underflows
            # to may come out +0.0, which no Newton state, free of -0.0, tells
            # apart.  A pivot <= 0 stops dpttrf (info > 0) and a NaN pivot
            # runs into the solution; those stacks, and a solution with an inf
            # or NaN, which would cross a coupling (inf * 0), are solved again
            # point by point, where a bad linearization raises.
            coupled = np.zeros((points, n))
            coupled[:, :-1] = off
            _, _, x, info = dptsv(diag.ravel(), coupled.ravel()[:-1],
                                  np.array(rhs).reshape(-1, 1), overwrite_e=1, overwrite_b=1)
            if info == 0 and np.isfinite(x).all():
                return x.reshape(points, n)
        return np.array([_ldl_solve(_linearization_factors(d, e), r)
                         for d, e, r in zip(diag, off, rhs)])

    def take(self, rows: list) -> "_PdeStack":
        data = PdeData(*(self._rows(getattr(self.data, name), rows) for name in "abfg"))
        return _PdeStack(self.oracle, data, self._rows(self.ke, rows))


class _TaylorExpansion:
    """Normalized Taylor coefficients u_alpha = d^alpha u / alpha! of the
    solution map along a data map, with the series of N(u) at the Gauss
    points, filled one order at a time for `implicit_diff.fill_table`.

    Along the data map, data(t) = sum d_alpha t^alpha, where
    d_alpha = (a_alpha, b_alpha, f_alpha, g_alpha) is the data coefficient
    (read an order at a time, from `data_block`), and
    u(t) = sum u_alpha t^alpha.  The residual coefficient is

        <(a u')_alpha, v'> + <(b N(u))_alpha - f_alpha, v> - g_alpha v(1),

    with the products expanded as Cauchy sums over beta <= alpha.  With
    N = P_0(q) for the inner function q, q' = G(q), the series of the powers
    q^j (j = 1..J, J the larger degree of P_0 and G) are Cauchy products,
    and the inner series follows from q' = G(q) by Euler's identity
    E q = G(q) E u, where E = sum_c t_c d/dt_c multiplies each term
    t^beta by its order |beta|:

        m q_alpha = sum_{0 < beta <= alpha} |beta| u_beta G(q)_(alpha-beta),   |alpha| = m,

    the univariate k v_k = sum_j j u_j w_(k-j) lifted to total degree
    (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008,
    ch. 13).  The weight |beta| is the same for every key of an order, so
    the expansion keeps the Euler series k u_k (order k), sums plain Cauchy
    products of it with the powers of q and divides by m once.  For q the
    identity (polynomial N) this is u's own series.

    Each series is an array per order with a row per position of the
    fill's `combinatorics.SplitPlan`, and a Cauchy sum over the splits of
    one order k is an outer product of rows reduced by the plan's 0/1
    matrix of that split (Taylor arithmetic over many coefficients at once,
    ch. 13 of the same book).  P1 slopes are constant per element, so the term
    (a u')_alpha pairs them with a_gamma summed against the quadrature
    weights, one value per element.  The square q^2 adds each split and its
    mirror once.  A data field is skipped at an order where it vanishes for
    every key.

    Every alpha-coefficient is affine in u_alpha, with the state
    linearization as the slope of the residual's, so `solve(m)` forms the
    residual coefficients of all keys of order m with their u_alpha = 0,
    solves them with the LDL^T factors of the linearization at the base
    point, formed once for all orders, and adds the part linear in u_alpha
    to the series: G(q_0) u_alpha to q_alpha and j q_0^(j-1) times that to
    (q^j)_alpha.
    A series is kept only while a later order reads it: q, the Euler series
    and the powers below the top for the orders that follow, the top power
    only when G reads it, and N (formed by `_composed`, and not stored where
    it vanishes) and the slopes only as far as the data coefficients reach.
    """

    def __init__(self, mesh: Mesh1D, nl: Nonlinearity, d: PdeData, u: np.ndarray, plan,
                 data_block: Callable[[int], PdeData]):
        self.mesh, self._plan = mesh, plan
        p0 = self._p0 = nl._poly(0)
        self._b0 = d.b.ravel() if np.any(d.b) else None
        self._data: dict[str, dict[int, np.ndarray]] = {"a": {}, "b": {}, "f": {}, "g": {}}
        for m in range(1, plan.max_order + 1):
            block = data_block(m)
            for name in "abfg":
                field = getattr(block, name)
                if not np.any(field):
                    continue
                if name == "a":  # a_gamma against the quadrature weights, per element
                    field = _gauss_sum(mesh.quad_w * field)
                elif name != "g":
                    field = field.reshape(len(field), -1)
                self._data[name][m] = field

        uq = mesh.at_quad(u)
        self._factors = _linearization_factors(*_linearization(
            mesh, d.b, nl, uq, mesh._stiffness_term(d.a)))
        uq = uq.ravel()
        q0 = nl._g(uq)
        self._n = {0: nl.deriv(0, uq)[None]}
        self._slope = {0: mesh.slopes(u)[None]}
        self._powers = [None, {0: q0[None]}]
        for _ in range(2, max(len(p0), len(nl._dg), 2)):
            self._powers.append({0: self._powers[-1][0] * q0})
        # the powers that later orders read: each below the top is a factor
        # of the next one, and G(q) reads those of its terms
        self._kept = set(range(1, len(self._powers) - 1))
        if nl.degree is not None:
            self._euler, self._dq0, self._dg = None, None, None
        else:
            self._euler, self._dq0, self._dg = {}, npoly.polyval(q0, nl._dg), nl._dg
            self._kept |= set(np.flatnonzero(nl._dg[1:]) + 1)

    def _composed(self, series: list) -> np.ndarray | None:
        """sum_{j >= 1} p0[j] (q^j) from the per-power entries of `series`
        (None for a vanishing one or sum); a term with p0[j] == 1 is the entry itself."""
        acc = None
        for j in range(1, len(self._p0)):
            if self._p0[j] != 0.0 and series[j] is not None:
                term = series[j] if self._p0[j] == 1.0 else self._p0[j] * series[j]
                acc = term if acc is None else acc + term
        return acc

    def solve(self, m: int) -> np.ndarray:
        """The u_alpha of every key of order m, a row each: solved from the
        residual coefficients with u_alpha = 0, the columns of one
        right-hand side, and taken into the series with one array update
        per series; no later order reads the last one."""
        mesh, powers, cauchy = self.mesh, self._powers, self._plan.cauchy
        n_m, width = self._plan.size(m), 3 * mesh.n_elements
        q = None  # q_alpha with u_alpha = 0, which vanishes for q = u
        if self._dg is not None and m > 1:
            q = np.zeros((n_m, width))
            for j in range(1, len(self._dg)):
                if self._dg[j] != 0.0:
                    acc = np.zeros((n_m, width))
                    for k in range(1, m):
                        cauchy(acc, m, k, self._euler[k], powers[j][m - k])
                    q += self._dg[j] * acc
            q /= m
        last = m == self._plan.max_order
        tilde = [None, q]
        for j in range(2, len(powers)):
            if j == 2:  # each split of q * q once, with its mirror
                acc = np.zeros((n_m, width))
                for k in range(1, (m + 1) // 2):
                    cauchy(acc, m, k, powers[1][k], powers[1][m - k])
                if q is not None:
                    acc += powers[1][0] * q
                acc *= 2.0
                if m % 2 == 0:
                    cauchy(acc, m, m // 2, powers[1][m // 2], powers[1][m // 2])
            else:
                acc = powers[1][0] * tilde[j - 1]
                if last and self._p0[j - 1] == 0.0:  # read by no solve and not by N
                    tilde[j - 1] = None
                # no q (q^(j-1))_0 term: only tanh_shifted sets q, and its powers stop at q^2
                for k in range(1, m):
                    cauchy(acc, m, k, powers[1][k], powers[j - 1][m - k])
            tilde.append(acc)
        n_tilde = self._composed(tilde)
        q = acc = None  # tilde holds them
        if last:  # no later order reads tilde
            del tilde
        if self._b0 is not None and n_tilde is not None:  # in place once no series reads it
            mass = np.multiply(n_tilde, self._b0, out=n_tilde if last else None)
        else:
            mass = np.zeros((n_m, width))
        del n_tilde
        for k, b in self._data["b"].items():
            if m - k in self._n:  # a missing order of N is a vanishing one
                cauchy(mass, m, k, b, self._n[m - k])
        grad = np.zeros((n_m, mesh.n_elements))
        for k, aw in self._data["a"].items():
            if k <= m:
                cauchy(grad, m, k, aw, self._slope[m - k])
        if m in self._data["f"]:
            mass -= self._data["f"][m]

        grad /= mesh.h
        rhs = mesh.assemble_load(None, mass.reshape(n_m, mesh.n_elements, 3),
                                 -self._data["g"].get(m, 0.0), ge=grad).T
        del mass, grad  # the order's temporaries go before the solve
        solved = -_ldl_solve(self._factors, rhs).T
        del rhs
        if last:
            return solved
        delta = mesh.at_quad(solved).reshape(n_m, -1)
        lin = delta if self._dq0 is None else self._dq0 * delta
        values = [None, lin if tilde[1] is None else tilde[1] + lin]
        for j in range(2, len(powers)):
            tilde[j] += j * powers[j - 1][0] * lin
            values.append(tilde[j])
        del tilde
        for j in self._kept:
            powers[j][m] = values[j]
        if self._euler is not None:
            self._euler[m] = m * delta
        # N and the slopes are read at the orders that data coefficients
        # of b and a add to theirs
        for series, orders, value in ((self._n, self._data["b"], self._composed(values)),
                                      (self._slope, self._data["a"], mesh.slopes(solved))):
            if orders and m + min(orders) <= self._plan.max_order and value is not None:
                series[m] = value
            for r in [r for r in series if r and r + max(orders) <= m]:
                del series[r]
        return solved


# -- solving and measured constants --------------------------------------------


def validate_admissible(mesh: Mesh1D, data: PdeData, nl: Nonlinearity) -> None:
    if float(np.min(data.a)) <= 0.0:
        raise ValueError("diffusion coefficient must be uniformly positive")
    if float(np.min(data.b)) < 0.0:
        raise ValueError("reaction weight must be nonnegative")
    if mesh.right_bc == "dirichlet" and data.g != 0.0:
        raise ValueError("Neumann value must vanish for a Dirichlet right end")


class SolutionBoundError(RuntimeError):
    """A solved state violates the a-priori solution bound."""


@dataclass(frozen=True)
class BoundCheck:
    lhs: float
    rhs: float
    ok: bool


def data_norm(mesh: Mesh1D, data: PdeData) -> float:
    """Max of the four component norms: sup|a|, sup|b|, the dual norm of the
    forcing functional and the dual norm of the boundary-flux functional."""
    norm_f = mesh.dual_norm(mesh.assemble_load(None, data.f))
    norm_g = mesh.dual_norm(mesh.assemble_load(None, None, boundary=data.g))
    return max(float(np.max(np.abs(data.a))), float(np.max(np.abs(data.b))),
               norm_f, norm_g)


def solution_bound_check(mesh: Mesh1D, data: PdeData, nl: Nonlinearity,
                         u: np.ndarray) -> BoundCheck:
    """A-priori bound ||u||_H1 <= 2 c_pf^2 / c_a * ||d|| from strong
    monotonicity.  A nonzero N(0) is absorbed into the forcing so the
    zero-state residual is a pure load."""
    effective = data
    if nl.zero_value != 0.0:
        effective = PdeData(data.a, data.b, data.f - nl.zero_value * data.b, data.g)
    c_a = min(1.0, float(np.min(data.a)))
    rhs = 2.0 * mesh.poincare_constant**2 / c_a * data_norm(mesh, effective)
    lhs = mesh.h1_norm(u)
    return BoundCheck(lhs, rhs, lhs <= rhs * (1.0 + 1e-9))


@dataclass(frozen=True)
class MonotonicityCertificate:
    min_a: float
    min_b: float
    nonlinearity_monotone: bool
    c_pf: float
    threshold: float
    ok: bool


def monotonicity_certificate(mesh: Mesh1D, data: PdeData,
                             nl: Nonlinearity) -> MonotonicityCertificate:
    """Exact strong monotonicity of the discrete residual:
    (R(d,u1) - R(d,u2))(u1 - u2) >= min(1, min a) / c_pf^2 * ||u1 - u2||_H1^2
    for all states when min a > 0 and b >= 0 at the Gauss points and N' >= 0
    on the real line.  The diffusion term is at least min a * <v', v'> (v' is
    constant on an element and the weights are positive), the reaction term
    is a positively weighted sum of (N(x) - N(y))(x - y) >= 0, and
    ||v||_H1^2 <= c_pf^2 <v', v'> with the mesh's closed-form c_pf, which
    bounds the discrete one from above (rounded up), so the threshold errs
    low and holds on every mesh (Zeidler, Nonlinear Functional Analysis
    II/B, ch. 25)."""
    min_a, min_b = float(np.min(data.a)), float(np.min(data.b))
    c_pf = mesh.poincare_constant
    threshold = min(1.0, min_a) / c_pf**2
    ok = min_a > 0.0 and min_b >= 0.0 and nl.monotone
    return MonotonicityCertificate(min_a, min_b, nl.monotone, c_pf, threshold, ok)


def newton_solve(mesh: Mesh1D, data: PdeData, nl: Nonlinearity, tol: float = 1e-12,
                 return_check: bool = False) -> np.ndarray | tuple[np.ndarray, BoundCheck]:
    """Damped Newton iteration for the residual equation, from u = 0.

    Divergence raises NonConvergenceError, which admissible data should
    never trigger.  After convergence the a-priori solution bound is
    asserted; a violation indicates a bug and raises SolutionBoundError.
    With return_check, returns (u, the passed BoundCheck), so a report
    reads the check this solve ran.
    """
    validate_admissible(mesh, data, nl)
    oracle = PdeOracle(mesh, nl)
    u = solve_residual(oracle, data, oracle.zero_state(), tol)
    chk = solution_bound_check(mesh, data, nl, u)
    if not chk.ok:
        raise SolutionBoundError(
            f"solution bound violated: ||u|| = {chk.lhs:.6g} > {chk.rhs:.6g}"
        )
    return (u, chk) if return_check else u


@dataclass(frozen=True)
class MonotonicityProbe:
    min_ratio: float
    threshold: float
    ok: bool


def monotonicity_probe(mesh: Mesh1D, data: PdeData, nl: Nonlinearity,
                       rng: np.random.Generator) -> MonotonicityProbe:
    """Check (R(d,u1) - R(d,u2))(u1 - u2) >= c_a/c_pf^2 * ||u1 - u2||_H1^2
    on 8 pairs of states drawn by `rng.standard_normal`.  A sampled test
    oracle of `monotonicity_certificate`, which decides the inequality
    exactly; no command runs it."""
    c_a = min(1.0, float(np.min(data.a)))
    threshold = c_a / mesh.poincare_constant**2
    worst = float("inf")
    for _ in range(8):
        u1 = rng.standard_normal(mesh.n_free)
        u2 = rng.standard_normal(mesh.n_free)
        delta = u1 - u2
        nsq = mesh.h1_norm(delta) ** 2
        if nsq == 0.0:
            continue
        pairing = float((assemble_residual(mesh, data, nl, u1)
                         - assemble_residual(mesh, data, nl, u2)) @ delta)
        worst = min(worst, pairing / nsq)
    return MonotonicityProbe(worst, threshold, worst >= threshold * (1.0 - 1e-10))


@dataclass(frozen=True)
class PdeConstants:
    """Measured stability and derivative-bound constants at a solved state.

    alpha is the guaranteed inverse-linearization bound c_pf^2 / c_a, with
    the closed-form c_pf of the continuous problem, so it holds on every
    mesh; alpha_measured is the sharp discrete value at this mesh and state,
    by the inertia bisection, which stops at the relative width
    `_BISECTION_RTOL` = 2**-36, below the round-off of its LDL^T test, or
    None when it was not measured.  embedding is the
    closed-form sup-norm embedding constant.  sigma and digamma certify
    r! * sigma * digamma**r >= ||D^r R|| for every order r via
    term-by-term norm estimates of the derivative formulas; residual_norm
    is the order-0 term ||R(d, u)||, the dual norm of the residual.
    """

    alpha: float
    alpha_measured: float | None
    c_pf: float
    c_a: float
    sigma: float
    digamma: float
    embedding: float
    residual_norm: float

    def as_dict(self) -> dict:
        """The constants by name: without residual_norm, a property of the
        state, and without an alpha_measured that was not measured."""
        constants = asdict(self)
        del constants["residual_norm"]
        if self.alpha_measured is None:
            del constants["alpha_measured"]
        return constants


def estimate_constants(mesh: Mesh1D, data: PdeData, nl: Nonlinearity, u: np.ndarray,
                       measure_alpha: bool = True, u_norm: float | None = None) -> PdeConstants:
    """Constants for the derivative-bound machinery at a solved state.

    The residual-derivative bounds use the joint max norm on (data, state)
    directions, the component norms of `data_norm`, the closed-form sup-norm
    embedding constant of the continuous problem (an upper bound of the
    discrete one), and interval sups of the nonlinearity derivatives over
    the range of u.  Of the constants, only alpha_measured runs an
    eigenvalue bisection, and only with measure_alpha: about 37 LDL^T
    factorizations, since it stops at the relative width `_BISECTION_RTOL`,
    below which it would resolve only its own test's round-off.  u_norm is
    ||u||_H1, from the solve's `BoundCheck.lhs` where the caller has it.
    """
    c_pf = mesh.poincare_constant
    c_a = min(1.0, float(np.min(data.a)))
    if c_a <= 0.0:
        raise ValueError("diffusion coefficient must be positive")
    alpha = c_pf**2 / c_a
    full = mesh.expand(u)
    uq = mesh._gauss_values(full)
    ke = mesh._stiffness_term(data.a)
    alpha_measured = None
    if measure_alpha:
        lin = _linearization(mesh, data.b, nl, uq, ke)
        alpha_measured = 1.0 / _smallest_generalized_eigenvalue(lin, mesh.h1_gram)

    ce = mesh.embedding_constant
    lo, hi = float(np.min(full)), float(np.max(full))
    top = 7 if nl.degree is None else nl.degree + 2
    sup = {r: nl.deriv_sup(r, lo, hi) for r in range(1, max(top, 3))}
    a_sup = float(np.max(np.abs(data.a)))
    b_sup = float(np.max(np.abs(data.b)))
    nl_l2 = mesh.l2_norm_quad(nl.deriv(0, uq))

    residual_norm = mesh.dual_norm(_residual(mesh, data, nl, full, uq, ke))
    if u_norm is None:
        u_norm = mesh.h1_norm(u)
    bounds = {
        0: residual_norm,
        1: u_norm + a_sup + nl_l2 + b_sup * sup[1] + 2.0,
        2: 2.0 + b_sup * sup[2] * ce + 2.0 * sup[1],
    }
    for r in range(3, top):
        bounds[r] = (b_sup * sup[r] * ce ** (r - 1)
                     + r * sup[r - 1] * ce ** (r - 2))
    digamma, tail = 1.0, []
    if nl.degree is None:
        # Cauchy bound on a width-1 strip: sup_R |tanh^(n)| <= n! * tan(1),
        # so the composition term admits r! * K * ce**(r-1) for all r.
        digamma = max(1.0, ce)
        tail = [math.tan(1.0) * (b_sup + 1.0) / digamma]
    sigma = max([1.0] + tail
                + [m / (math.factorial(r) * digamma**r) for r, m in bounds.items()])
    return PdeConstants(alpha, alpha_measured, c_pf, c_a, sigma, digamma, ce, residual_norm)
