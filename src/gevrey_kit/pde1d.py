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
(n_elements, 3).  Discrete norms use the full H1 inner product
(mass + stiffness); dual norms go through the corresponding Riesz map.

Every P1 matrix is held as its bands (diag, off) over the free nodes, in
O(n) memory, and one LDL^T (dpttrf/dpttrs of scipy's compiled `_flapack`,
see `_scipy_kernels`) serves every solve and mesh constant.  A linearization
that is not positive definite or holds a NaN raises LinearizationError.

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

from ._scipy_kernels import dpttrf, dpttrs
from .implicit_diff import LinearizationError, ResidualOracle, solve_residual

__all__ = [
    "Mesh1D",
    "PdeData",
    "Nonlinearity",
    "PdeOracle",
    "PdeConstants",
    "BoundCheck",
    "MonotonicityProbe",
    "assemble_residual",
    "apply_residual_derivative",
    "newton_solve",
    "validate_admissible",
    "data_norm",
    "solution_bound_check",
    "monotonicity_probe",
    "estimate_constants",
    "linearization_matrix",
]

_GAUSS_X = np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
_GAUSS_W = np.array([5.0, 8.0, 5.0]) / 9.0


def _gauss_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the 3 Gauss points of each element, left to right: numpy's
    own order for a length-3 axis, at a fraction of its reduction's cost."""
    return x[..., 0] + x[..., 1] + x[..., 2]


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
        """`at_quad` from full nodal values."""
        return full[..., :-1, None] * self.phi_left + full[..., 1:, None] * self.phi_right

    def slopes(self, v: np.ndarray) -> np.ndarray:
        """Derivative on each element, shape (..., n_elements)."""
        return np.diff(self.expand(v)) / self.h

    def grad_at_quad(self, v: np.ndarray) -> np.ndarray:
        return self.slopes(v)[..., None] * np.ones(3)

    def integrate(self, qfield: np.ndarray) -> float:
        return float(np.sum(self.quad_w * qfield))

    def l2_norm_quad(self, qfield: np.ndarray) -> float:
        return math.sqrt(max(self.integrate(qfield * qfield), 0.0))

    # -- assembly ----------------------------------------------------------

    def assemble_load(self, grad_part=None, mass_part=None, boundary=0.0) -> np.ndarray:
        """Free-node vector of v -> <grad_part, v'> + <mass_part, v> + boundary*v(1),
        one for each point of a leading axis that the parts (and an array
        `boundary`) share; a point's boundary term is added only where it is
        nonzero."""
        part = grad_part if grad_part is not None else mass_part
        lead = np.shape(boundary) if part is None else np.shape(part)[:-2]
        full = np.zeros(lead + (self.n_nodes,))
        if grad_part is not None:
            ge = _gauss_sum(self.quad_w * grad_part) / self.h
            full[..., :-1] -= ge
            full[..., 1:] += ge
        if mass_part is not None:
            wm = self.quad_w * mass_part
            full[..., :-1] += _gauss_sum(wm * self.phi_left)
            full[..., 1:] += _gauss_sum(wm * self.phi_right)
        if isinstance(boundary, np.ndarray):
            np.add(full[..., -1], boundary, out=full[..., -1], where=boundary != 0.0)
        elif boundary:
            full[-1] += boundary
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
        one for each point of their leading axes."""
        if ke is None:
            ell = rr = lr = np.zeros(self.n_elements)
        else:  # not ke and -ke: a zero entry must come out +0.0
            ell, lr = 0.0 + ke, 0.0 - ke
            rr = ell
        if mass is not None:
            wq = self.quad_w * mass
            wl = wq * self.phi_left
            ell = ell + _gauss_sum(wl * self.phi_left)
            rr = rr + _gauss_sum(wq * self.phi_right * self.phi_right)
            lr = lr + _gauss_sum(wl * self.phi_right)
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

    def h1_norm(self, v: np.ndarray) -> float:
        diag, off = self.h1_gram
        gram_v = diag * v  # row by row, so no cancellation between band sums
        gram_v[1:] += off * v[:-1]
        gram_v[:-1] += off * v[1:]
        return math.sqrt(max(float(v @ gram_v), 0.0))

    def riesz(self, functional: np.ndarray) -> np.ndarray:
        return _ldl_solve(self._h1_factors, functional)

    def dual_norm(self, functional: np.ndarray) -> float:
        return math.sqrt(max(float(functional @ self.riesz(functional)), 0.0))

    @cached_property
    def _h1_inverse_diag(self) -> np.ndarray:
        """1 / (top + bottom - diag), from two LDL^T pivot sweeps (Meurant, SIMAX 1992)."""
        diag, off = self.h1_gram
        top, bottom = self._h1_factors[0], _ldl(diag[::-1], off[::-1])[0][::-1]
        return 1.0 / (top + bottom - diag)

    @cached_property
    def embedding_constant(self) -> float:
        """Exact discrete sup of |v(x)| / ||v||_H1 (attained at a node for P1),
        from `_h1_inverse_diag`: O(n) memory, the same value on every run."""
        return math.sqrt(float(np.max(self._h1_inverse_diag)))

    @cached_property
    def trace_constant(self) -> float:
        """Dual norm of v -> v(1), from `_h1_inverse_diag` (O(n) memory,
        deterministic); zero when the right end is Dirichlet."""
        if self.right_bc != "neumann":
            return 0.0
        return math.sqrt(float(self._h1_inverse_diag[-1]))

    @cached_property
    def poincare_constant(self) -> float:
        """Smallest c with ||v||_H1^2 <= c^2 <v', v'> on the free space, by the
        bisection of `_smallest_generalized_eigenvalue` (O(n) memory, the same
        value on every run); it rounds the eigenvalue down, so c_pf up."""
        lam = _smallest_generalized_eigenvalue(self.bilinear_form(stiffness=1.0), self.h1_gram)
        return 1.0 / math.sqrt(lam)


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


def _smallest_generalized_eigenvalue(a_bands: tuple, b_bands: tuple) -> float:
    """Smallest eigenvalue of a positive definite pencil of bands (A, B) by
    inertia bisection (Barth, Martin & Wilkinson, Numer. Math. 9 (1967)): A - tB
    is positive definite exactly when t is below it.  From lo = 0 and the
    Rayleigh quotient hi = min A_ii/B_ii, lo moves only where the LDL^T succeeds,
    until no midpoint lies strictly between (55-60 steps).  Returns lo, a lower
    bound up to round-off, in O(n) time and memory and the same on every run."""
    (a_diag, a_off), (b_diag, b_off) = a_bands, b_bands
    lo, hi = 0.0, float(np.min(a_diag / b_diag))
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _ldl(a_diag - mid * b_diag, a_off - mid * b_off) is None:
            hi = mid
        else:
            lo = mid
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
    points.  Growth: deg P_0 <= q - 1, and since |g(z)| <= max(1, |z|) the
    sum of |P_0 coefficients| is a constant c with
    |N(z)| <= c * (1 + |z|**(q-1)) for all real z.  Candidates without a
    polynomial bound (exp) are rejected.
    """

    def __init__(self, kind: str, coeffs: np.ndarray | None, q: float):
        self.q = float(q)
        if kind == "polynomial":
            p0 = np.asarray(coeffs, dtype=float)
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
        self._check_monotone()
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

    def _check_monotone(self) -> None:
        # N' = P_1(g) >= 0 iff P_1 >= 0 on the closure of g's range: at an
        # infinite end the leading term decides the sign, elsewhere the values
        # at the ends and critical points, up to evaluation round-off.
        p1 = self._poly(1)
        lo, hi = self._g_range
        limits = [p1[-1] * x ** (len(p1) - 1) for x in (lo, hi) if math.isinf(x)]
        pts = _critical_points(p1, lo, hi)
        floor = -1e-12 * npoly.polyval(np.abs(pts), np.abs(p1))
        if min(limits, default=0.0) < 0.0 or np.any(npoly.polyval(pts, p1) < floor):
            raise ValueError("nonlinearity is not monotone: N' < 0 somewhere on the real line")

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
        acc = c[-1] + x * 0  # Horner in npoly.polyval's order, without its overhead
        for cj in c[-2::-1]:
            acc = cj + acc * x
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
    return _residual(mesh, data, nl, full, mesh._gauss_values(full))


def _residual(mesh: Mesh1D, data: PdeData, nl: Nonlinearity, full: np.ndarray,
              uq: np.ndarray) -> np.ndarray:
    """`assemble_residual` from the state's full nodal and Gauss values, for
    each point of a leading axis of the data fields and the state."""
    grad_part = data.a * ((full[..., 1:] - full[..., :-1]) / mesh.h)[..., None]
    mass_part = data.b * nl.deriv(0, uq) - data.f
    return mesh.assemble_load(grad_part, mass_part, boundary=-data.g)


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
    return mesh._bands(ke, b * nl.deriv(1, uq))


#: Bytes of one Gauss-point field of the points that `PdeOracle` solves
#: together: a block of 26 points at mesh 256, of one point at mesh 4096.
_STACK_BYTES = 160 << 10


class PdeOracle(ResidualOracle):
    """Residual-oracle adapter for the P1 discretization.

    Data vectors are PdeData values, states free-node numpy vectors, and
    residuals free-node dual vectors; norms are the discrete H1 norm and
    its dual.  The LDL^T factors of the linearization are cached per base
    point; a linearization that is not positive definite raises
    LinearizationError.

    Newton solves stacks of points in blocks of `stack_points`, as many as
    fit `_STACK_BYTES` with one Gauss-point field each (`_PdeStack`).  A
    stack leaves its last point's stiffness term and last evaluated Gauss
    values in caches that `solve_linearized` reads, so the linearizations
    after a one-point solve form neither again; each of the three caches
    holds one entry, keyed by object identity.
    """

    def __init__(self, mesh: Mesh1D, nl: Nonlinearity):
        self.mesh = mesh
        self.nl = nl
        self._lin_cache: tuple | None = None
        self._quad_cache: tuple = (None, None)  # (u, its Gauss values)
        self._ke_cache: tuple = (None, None)  # (d, the stiffness term of d.a)

    def eval(self, d: PdeData, u: np.ndarray) -> np.ndarray:
        return assemble_residual(self.mesh, d, self.nl, u)

    def apply_derivative(self, r: int, d: PdeData, u: np.ndarray, args) -> np.ndarray:
        return apply_residual_derivative(self.mesh, d, self.nl, u, r, args)

    def solve_linearized(self, d: PdeData, u: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        cache = self._lin_cache
        if cache is None or cache[0] is not d or cache[1] is not u:
            quad, ke = self._quad_cache, self._ke_cache
            if quad[0] is not u:
                quad = self._quad_cache = (u, self.mesh.at_quad(u))
            if ke[0] is not d:
                ke = self._ke_cache = (d, self.mesh._stiffness_term(d.a))
            factors = _ldl(*_linearization(self.mesh, d.b, self.nl, quad[1], ke[1]))
            if factors is None:
                raise LinearizationError("state linearization is not positive definite")
            cache = self._lin_cache = (d, u, factors)
        return _ldl_solve(cache[2], rhs)

    @property
    def stack_points(self) -> int:
        return max(1, _STACK_BYTES // self.mesh.quad_x.nbytes)

    def stack(self, ds: list) -> "_PdeStack":
        data = ds[0] if len(ds) == 1 else PdeData(
            *(np.stack([getattr(d, name) for d in ds]) for name in "abf"),
            np.array([d.g for d in ds]))
        ke = self.mesh._stiffness_term(data.a)
        self._ke_cache = (ds[-1], ke if len(ds) == 1 else ke[-1])
        return _PdeStack(self, data, ke)

    def taylor_expansion(self, table) -> "_TaylorExpansion":
        return _TaylorExpansion(self.mesh, self.nl, table)

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
    kernels on data fields stacked along a leading axis, so each point gets
    the bytes of the one-point forms; one point has no leading axis, which
    costs numpy about half again per call.  The stiffness terms ke are formed
    once, and the Gauss values of the states last evaluated are kept for the
    linearizations.  A dual norm is one dpttrs over all columns and a dot
    product per point; each point has its own LDL^T.
    """

    def __init__(self, oracle: PdeOracle, data: PdeData, ke: np.ndarray):
        self.oracle, self.data, self.ke, self._uq = oracle, data, ke, None
        self.size = np.size(data.g)

    def _rows(self, x: np.ndarray, rows: list) -> np.ndarray:
        """x at the points `rows`, with no leading axis for one."""
        if len(rows) == self.size:
            return x
        return x[rows[0]] if len(rows) == 1 else x[rows]

    def eval(self, us: list) -> tuple[np.ndarray, list]:
        mesh = self.oracle.mesh
        full = mesh.expand(us[0] if self.size == 1 else us)
        uq = self._uq = mesh._gauss_values(full)
        self.oracle._quad_cache = (us[-1], uq if self.size == 1 else uq[-1])
        res = _residual(mesh, self.data, self.oracle.nl, full, uq).reshape(self.size, -1)
        riesz = _ldl_solve(mesh._h1_factors, res.T).T
        return res, [math.sqrt(max(float(r @ x), 0.0)) for r, x in zip(res, riesz)]

    def solve_linearized(self, rows: list, rhs: list) -> list:
        bands = _linearization(self.oracle.mesh, self._rows(self.data.b, rows), self.oracle.nl,
                               self._rows(self._uq, rows), self._rows(self.ke, rows))
        steps = []
        for diag, off, r in zip(*(band.reshape(len(rows), -1) for band in bands), rhs):
            factors = _ldl(diag, off)
            if factors is None:
                raise LinearizationError("state linearization is not positive definite")
            steps.append(_ldl_solve(factors, r))
        return steps

    def take(self, rows: list) -> "_PdeStack":
        data = self.data
        return _PdeStack(self.oracle, PdeData(*(self._rows(x, rows) for x in (
            data.a, data.b, data.f, data.g))), self._rows(self.ke, rows))


class _TaylorExpansion:
    """Normalized Taylor coefficients u_alpha = d^alpha u / alpha! of a table's
    solution map, with the series of N(u) at the Gauss points, filled one
    order at a time for `implicit_diff.fill_table`.

    Along the table's data map, data(t) = sum d_alpha t^alpha, where
    d_alpha = (a_alpha, b_alpha, f_alpha, g_alpha) is the table's data
    coefficient (read an order at a time, from `data_block`), and
    u(t) = sum u_alpha t^alpha.  The residual coefficient is

        <(a u')_alpha, v'> + <(b N(u))_alpha - f_alpha, v> - g_alpha v(1),

    with the products expanded as Cauchy sums over beta <= alpha.  With
    N = P_0(q) for the inner function q, q' = G(q), the series of the powers
    q^j (j = 1..J, J the larger degree of P_0 and G) are Cauchy products,
    and the inner series follows from q' = G(q):

        alpha_c q_alpha = sum_{beta <= alpha, beta_c >= 1} beta_c u_beta G(q)_(alpha-beta),

    c the first coordinate of alpha.  For q the identity (polynomial N) this
    is u's own series.

    Each series is an array per order with a row per position of the
    fill's `combinatorics.SplitPlan`, and a Cauchy sum over the splits of
    one order k is an outer product of rows reduced by the plan (Taylor
    arithmetic over many coefficients at once; Griewank & Walther,
    *Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13).  P1 slopes are
    constant per element, so the term (a u')_alpha pairs them with a_gamma
    summed against the quadrature weights, one value per element.  The
    square q^2 adds each split and its mirror once, and the q' = G(q)
    recursion puts beta_c / alpha_c into the reduction.  A data field is
    skipped at an order where it vanishes for every key.

    Every alpha-coefficient is affine in u_alpha, with the state
    linearization as the slope of the residual's, so
    `residual_coefficients(m)` computes all keys of order m with their
    u_alpha = 0, and `record(m, ...)` adds the part linear in u_alpha,
    G(q_0) u_alpha to q_alpha and j q_0^(j-1) times that to (q^j)_alpha.
    A series is kept only while a later order reads it: q, u and the powers
    below the top for the orders that follow, the top power only when G
    reads it, and N (stored once when it is a power) and the slopes only
    as far as the data coefficients reach.
    """

    def __init__(self, mesh: Mesh1D, nl: Nonlinearity, table):
        self.mesh = mesh
        plan = self._plan = table.plan
        self._weights = (mesh.quad_w * mesh.phi_left, mesh.quad_w * mesh.phi_right)
        p0 = self._p0 = nl._poly(0)
        self._b0 = table.d.b.ravel() if np.any(table.d.b) else None
        self._data: dict[str, dict[int, np.ndarray]] = {"a": {}, "b": {}, "f": {}, "g": {}}
        for m in range(1, plan.max_order + 1):
            block = table.data_block(m)
            for name in "abfg":
                field = getattr(block, name)
                if not np.any(field):
                    continue
                if name == "a":  # a_gamma against the quadrature weights, per element
                    field = np.einsum("rej,ej->re", field, mesh.quad_w)
                elif name != "g":
                    field = field.reshape(len(field), -1)
                self._data[name][m] = field

        uq = mesh.at_quad(table.u).ravel()
        q0 = nl._g(uq)
        self._n = {0: nl.deriv(0, uq)[None]}
        self._slope = {0: mesh.slopes(table.u)[None]}
        self._powers = [None, {0: q0[None]}]
        for _ in range(2, max(len(p0), len(nl._dg), 2)):
            self._powers.append({0: self._powers[-1][0] * q0})
        # the powers that later orders read: each below the top is a factor
        # of the next one, and G(q) reads those of its terms
        self._kept = set(range(1, len(self._powers) - 1))
        if nl.degree is not None:
            self._u, self._dq0, self._dg = self._powers[1], None, None
        else:
            self._u, self._dq0, self._dg = {0: uq[None]}, npoly.polyval(q0, nl._dg), nl._dg
            self._kept |= set(np.flatnonzero(nl._dg[1:]) + 1)
        nonzero = np.flatnonzero(p0[1:]) + 1
        self._n_power = nonzero[0] if len(nonzero) == 1 and p0[nonzero[0]] == 1.0 else None
        self._tilde: list | None = None

    def _composed(self, series: list) -> np.ndarray | None:
        """sum_{j >= 1} p0[j] (q^j) from the per-power entries of `series`
        (None for a vanishing one); the power itself when N is one."""
        if self._n_power is not None:
            return series[self._n_power]
        acc = None
        for j in range(1, len(self._p0)):
            if self._p0[j] != 0.0 and series[j] is not None:
                term = self._p0[j] * series[j]
                acc = term if acc is None else acc + term
        return acc

    def residual_coefficients(self, m: int) -> np.ndarray:
        """Residual coefficients of every key of order m with its own
        u_alpha set to zero: an n_free x n_m array, one column per key."""
        mesh, powers, cauchy = self.mesh, self._powers, self._plan.cauchy
        n_m, width = self._plan.size(m), 3 * mesh.n_elements
        q = None  # q_alpha with u_alpha = 0, which vanishes for q = u
        if self._dg is not None and m > 1:
            q = np.zeros((n_m, width))
            for j in range(1, len(self._dg)):
                if self._dg[j] != 0.0:
                    acc = np.zeros((n_m, width))
                    for k in range(1, m):
                        cauchy(acc, m, k, self._u[k], powers[j][m - k], weighted=True)
                    q += self._dg[j] * acc
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
                if last and self._p0[j - 1] == 0.0:  # read by no record and not by N
                    tilde[j - 1] = None
                if q is not None:
                    acc += q * powers[j - 1][0]
                for k in range(1, m):
                    cauchy(acc, m, k, powers[1][k], powers[j - 1][m - k])
            tilde.append(acc)
        n_tilde = self._composed(tilde)
        if self._b0 is not None and n_tilde is not None:  # in place once no record reads it
            mass = np.multiply(n_tilde, self._b0, out=n_tilde if last else None)
        else:
            mass = np.zeros((n_m, width))
        self._tilde = None if last else tilde
        del tilde, n_tilde
        for k, b in self._data["b"].items():
            if k <= m:
                cauchy(mass, m, k, b, self._n[m - k])
        grad = np.zeros((n_m, mesh.n_elements))
        for k, aw in self._data["a"].items():
            if k <= m:
                cauchy(grad, m, k, aw, self._slope[m - k])
        if m in self._data["f"]:
            mass -= self._data["f"][m]

        full = np.zeros((n_m, mesh.n_nodes))
        grad /= mesh.h
        full[:, :-1] -= grad
        full[:, 1:] += grad
        mass = mass.reshape(n_m, mesh.n_elements, 3)
        full[:, :-1] += np.einsum("mej,ej->me", mass, self._weights[0])
        full[:, 1:] += np.einsum("mej,ej->me", mass, self._weights[1])
        if m in self._data["g"]:
            full[:, -1] -= self._data["g"][m]
        return full[:, mesh.free].T

    def record(self, m: int, solved: np.ndarray) -> None:
        """Take the solved u_alpha of every key of order m, as the columns
        of `solved`, into the series; one array update per series.  No
        later order reads the last one."""
        mesh, powers, tilde = self.mesh, self._powers, self._tilde
        if m == self._plan.max_order:
            return
        delta = mesh.at_quad(solved.T).reshape(solved.shape[1], -1)
        lin = delta if self._dq0 is None else self._dq0 * delta
        values = [None, lin if tilde[1] is None else tilde[1] + lin]
        for j in range(2, len(powers)):
            tilde[j] += j * powers[j - 1][0] * lin
            values.append(tilde[j])
        self._tilde = None
        for j in self._kept:
            powers[j][m] = values[j]
        if self._u is not powers[1]:
            self._u[m] = delta
        # N and the slopes are read at the orders that data coefficients
        # of b and a add to theirs
        for series, orders, value in ((self._n, self._data["b"], self._composed(values)),
                                      (self._slope, self._data["a"], mesh.slopes(solved.T))):
            if orders and m + min(orders) <= self._plan.max_order:
                series[m] = value
            for r in [r for r in series if r and r + max(orders) <= m]:
                del series[r]


# -- solving and measured constants --------------------------------------------


def validate_admissible(mesh: Mesh1D, data: PdeData, nl: Nonlinearity) -> None:
    if float(np.min(data.a)) <= 0.0:
        raise ValueError("diffusion coefficient must be uniformly positive")
    if float(np.min(data.b)) < -1e-14:
        raise ValueError("reaction weight must be nonnegative")
    if mesh.right_bc == "dirichlet" and data.g != 0.0:
        raise ValueError("Neumann value must vanish for a Dirichlet right end")


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


def newton_solve(mesh: Mesh1D, data: PdeData, nl: Nonlinearity,
                 tol: float = 1e-12) -> np.ndarray:
    """Damped Newton iteration for the residual equation, from u = 0.

    Divergence raises NonConvergenceError, which admissible data should
    never trigger.  After convergence the a-priori solution bound is
    asserted; a violation indicates a bug and raises RuntimeError.
    """
    validate_admissible(mesh, data, nl)
    oracle = PdeOracle(mesh, nl)
    u = solve_residual(oracle, data, oracle.zero_state(), tol)
    chk = solution_bound_check(mesh, data, nl, u)
    if not chk.ok:
        raise RuntimeError(
            f"solution bound violated: ||u|| = {chk.lhs:.6g} > {chk.rhs:.6g}"
        )
    return u


@dataclass(frozen=True)
class MonotonicityProbe:
    min_ratio: float
    threshold: float
    ok: bool


def monotonicity_probe(mesh: Mesh1D, data: PdeData, nl: Nonlinearity,
                       rng: np.random.Generator) -> MonotonicityProbe:
    """Check (R(d,u1) - R(d,u2))(u1 - u2) >= c_a/c_pf^2 * ||u1 - u2||_H1^2
    on 8 pairs of standard normal states."""
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

    alpha is the guaranteed inverse-linearization bound c_pf^2 / c_a;
    alpha_measured is the sharp discrete value.  sigma and digamma certify
    r! * sigma * digamma**r >= ||D^r R|| for every order r via
    term-by-term norm estimates of the derivative formulas.
    """

    alpha: float
    alpha_measured: float
    c_pf: float
    c_a: float
    sigma: float
    digamma: float
    embedding: float

    def as_dict(self) -> dict:
        return asdict(self)


def estimate_constants(mesh: Mesh1D, data: PdeData, nl: Nonlinearity,
                       u: np.ndarray) -> PdeConstants:
    """Constants for the derivative-bound machinery at a solved state.

    The residual-derivative bounds use the joint max norm on (data, state)
    directions, the component norms of `data_norm`, the exact discrete
    sup-norm embedding constant, and interval sups of the nonlinearity
    derivatives over the range of u.
    """
    c_pf = mesh.poincare_constant
    c_a = min(1.0, float(np.min(data.a)))
    if c_a <= 0.0:
        raise ValueError("diffusion coefficient must be positive")
    alpha = c_pf**2 / c_a
    lin = linearization_matrix(mesh, data, nl, u)
    alpha_measured = 1.0 / _smallest_generalized_eigenvalue(lin, mesh.h1_gram)

    ce = mesh.embedding_constant
    full = mesh.expand(u)
    lo, hi = float(np.min(full)), float(np.max(full))
    sup = lambda r: nl.deriv_sup(r, lo, hi)
    a_sup = float(np.max(np.abs(data.a)))
    b_sup = float(np.max(np.abs(data.b)))
    uq = mesh.at_quad(u)
    nl_l2 = mesh.l2_norm_quad(nl.deriv(0, uq))

    bounds = {
        0: mesh.dual_norm(assemble_residual(mesh, data, nl, u)),
        1: mesh.h1_norm(u) + a_sup + nl_l2 + b_sup * sup(1) + 2.0,
        2: 2.0 + b_sup * sup(2) * ce + 2.0 * sup(1),
    }
    for r in range(3, 7 if nl.degree is None else nl.degree + 2):
        bounds[r] = (b_sup * sup(r) * ce ** (r - 1)
                     + r * sup(r - 1) * ce ** (r - 2))
    digamma, tail = 1.0, []
    if nl.degree is None:
        # Cauchy bound on a width-1 strip: sup_R |tanh^(n)| <= n! * tan(1),
        # so the composition term admits r! * K * ce**(r-1) for all r.
        digamma = max(1.0, ce)
        tail = [math.tan(1.0) * (b_sup + 1.0) / digamma]
    sigma = max([1.0] + tail
                + [m / (math.factorial(r) * digamma**r) for r, m in bounds.items()])
    return PdeConstants(alpha, alpha_measured, c_pf, c_a, sigma, digamma, ce)
