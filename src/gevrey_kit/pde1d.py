"""P1 finite elements for a semilinear reaction-diffusion problem on (0, 1).

The weak problem on the unit interval reads: find u with

    <a u', v'> + <b N(u), v> = <f, v> + g v(1)   for all test v,

where N is a pointwise monotone nonlinearity, the left endpoint is always
Dirichlet and the right endpoint Dirichlet or Neumann.  Nodal fields are
numpy vectors over the free nodes (Dirichlet nodes eliminated); coefficient
and forcing fields live at the 3-point Gauss nodes of each element, shape
(n_elements, 3).  Discrete norms use the full H1 inner product
(mass + stiffness); dual norms go through the corresponding Riesz map.

Assembly is deterministic and single-threaded per call; distinct data and
field values may be processed concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.polynomial import polynomial as npoly

from .implicit_diff import LinearizationError, ResidualOracle, solve_residual

__all__ = [
    "Mesh1D",
    "PdeData",
    "Nonlinearity",
    "PdeOracle",
    "PdeConstants",
    "BoundCheck",
    "MonotonicityProbe",
    "nemyckii_derivative",
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

    # -- field handling ---------------------------------------------------

    def expand(self, v: np.ndarray) -> np.ndarray:
        """Free-node vector -> full nodal vector with Dirichlet zeros."""
        full = np.zeros(self.n_nodes)
        full[self.free] = v
        return full

    def restrict(self, full: np.ndarray) -> np.ndarray:
        return np.asarray(full, dtype=float)[self.free]

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
        full = self.expand(v)
        return full[:-1, None] * self.phi_left + full[1:, None] * self.phi_right

    def grad_at_quad(self, v: np.ndarray) -> np.ndarray:
        full = self.expand(v)
        return ((full[1:] - full[:-1]) / self.h)[:, None] * np.ones((1, 3))

    def integrate(self, qfield: np.ndarray) -> float:
        return float(np.sum(self.quad_w * qfield))

    def l2_norm_quad(self, qfield: np.ndarray) -> float:
        return math.sqrt(max(self.integrate(qfield * qfield), 0.0))

    # -- assembly ----------------------------------------------------------

    def assemble_load(self, grad_part=None, mass_part=None, boundary: float = 0.0) -> np.ndarray:
        """Free-node vector of v -> <grad_part, v'> + <mass_part, v> + boundary*v(1)."""
        full = np.zeros(self.n_nodes)
        if grad_part is not None:
            ge = np.sum(self.quad_w * grad_part, axis=1)
            full[:-1] -= ge / self.h
            full[1:] += ge / self.h
        if mass_part is not None:
            full[:-1] += np.sum(self.quad_w * mass_part * self.phi_left, axis=1)
            full[1:] += np.sum(self.quad_w * mass_part * self.phi_right, axis=1)
        if boundary:
            full[-1] += boundary
        return full[self.free]

    def _tridiag(self, diag: np.ndarray, off: np.ndarray) -> sp.csc_matrix:
        d = diag[self.free]
        o = off[self.free[:-1]] if self.n_free > 1 else np.zeros(0)
        return sp.diags([o, d, o], [-1, 0, 1], format="csc")

    def mass_matrix(self, weight=None) -> sp.csc_matrix:
        wq = self.quad_w if weight is None else self.quad_w * weight
        mll = np.sum(wq * self.phi_left * self.phi_left, axis=1)
        mlr = np.sum(wq * self.phi_left * self.phi_right, axis=1)
        mrr = np.sum(wq * self.phi_right * self.phi_right, axis=1)
        diag = np.zeros(self.n_nodes)
        diag[:-1] += mll
        diag[1:] += mrr
        return self._tridiag(diag, mlr)

    def stiffness_matrix(self, weight=None) -> sp.csc_matrix:
        wq = self.quad_w if weight is None else self.quad_w * weight
        ke = np.sum(wq, axis=1) / self.h**2
        diag = np.zeros(self.n_nodes)
        diag[:-1] += ke
        diag[1:] += ke
        return self._tridiag(diag, -ke)

    # -- norms and constants ------------------------------------------------

    @cached_property
    def h1_gram(self) -> sp.csc_matrix:
        return (self.mass_matrix() + self.stiffness_matrix()).tocsc()

    @cached_property
    def _h1_solver(self):
        return spla.splu(self.h1_gram)

    def h1_norm(self, v: np.ndarray) -> float:
        return math.sqrt(max(float(v @ (self.h1_gram @ v)), 0.0))

    def riesz(self, functional: np.ndarray) -> np.ndarray:
        return self._h1_solver.solve(functional)

    def dual_norm(self, functional: np.ndarray) -> float:
        return math.sqrt(max(float(functional @ self.riesz(functional)), 0.0))

    @cached_property
    def _h1_inverse_diag(self) -> np.ndarray:
        inverse = self._h1_solver.solve(np.eye(self.n_free))
        return np.diag(inverse).copy()

    @cached_property
    def embedding_constant(self) -> float:
        """Exact discrete sup of |v(x)| / ||v||_H1 (attained at a node for P1)."""
        return math.sqrt(float(np.max(self._h1_inverse_diag)))

    @cached_property
    def trace_constant(self) -> float:
        """Dual norm of v -> v(1); zero when the right end is Dirichlet."""
        if self.right_bc != "neumann":
            return 0.0
        return math.sqrt(float(self._h1_inverse_diag[-1]))

    @cached_property
    def poincare_constant(self) -> float:
        """Smallest c with ||v||_H1^2 <= c^2 <v', v'> on the free space."""
        lam = _smallest_generalized_eigenvalue(self.stiffness_matrix(), self.h1_gram)
        return 1.0 / math.sqrt(lam)


def _smallest_generalized_eigenvalue(a_mat: sp.spmatrix, b_mat: sp.spmatrix) -> float:
    n = a_mat.shape[0]
    if n <= 1200:
        vals = scipy.linalg.eigh(
            a_mat.toarray(), b_mat.toarray(), eigvals_only=True, subset_by_index=[0, 0]
        )
        return float(vals[0])
    vals = spla.eigsh(a_mat, k=1, M=b_mat, sigma=0.0, which="LM",
                      return_eigenvectors=False)
    return float(vals[0])


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
    """Pointwise scalar nonlinearity with exact derivatives of every order.

    Two families are supported: polynomials with vanishing constant term,
    and the shifted hyperbolic tangent 2 + tanh.  Construction verifies
    monotonicity (nonnegative first derivative: exactly, from the critical
    points of N', for polynomials; by a sign sweep and secant sampling for
    tanh) and the polynomial growth bound
    |N(z)| <= c * (1 + |z|**(q-1)) on a sample grid; candidates without a
    polynomial bound are rejected.
    """

    def __init__(self, kind: str, coeffs: np.ndarray | None, q: float):
        self.kind = kind
        self.q = float(q)
        if kind == "polynomial":
            c = np.asarray(coeffs, dtype=float)
            while len(c) > 1 and c[-1] == 0.0:
                c = c[:-1]
            self._coeffs = c
            self.degree = int(len(c) - 1)
            if c[0] != 0.0:
                raise ValueError("polynomial nonlinearity must vanish at zero")
            if self.degree > math.floor(self.q - 1.0):
                raise ValueError(
                    f"degree {self.degree} exceeds floor(q-1) = {math.floor(self.q - 1.0)}"
                )
            self._deriv_coeffs = [c]
        elif kind == "tanh_shifted":
            self._coeffs = None
            self.degree = None
            self._tanh_polys = [np.array([1.0, 0.0, -1.0])]  # d/dz tanh = 1 - tanh^2
        else:
            raise ValueError(f"unknown nonlinearity kind {kind!r}")
        self._check_monotone()
        self.growth_constant = self._growth_constant(lambda z: self.deriv(0, z), self.q)

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
        cls._growth_constant(np.exp, q)
        raise AssertionError("growth check unexpectedly passed for exp")

    # -- validation ----------------------------------------------------------

    def _check_monotone(self) -> None:
        if self.kind == "polynomial":
            # Exact: N' of even degree with positive leading coefficient (or a
            # nonnegative constant), and N' >= 0 up to round-off at the real
            # part of every root of N'' (a multiple root may come back complex).
            d1 = npoly.polyder(self._coeffs)
            crit = npoly.polyroots(npoly.polyder(d1)).real
            floor = -1e-12 * npoly.polyval(np.abs(crit), np.abs(d1))
            if (len(d1) - 1) % 2 or d1[-1] < 0.0 or np.any(npoly.polyval(crit, d1) < floor):
                raise ValueError("nonlinearity is not monotone: N' < 0 somewhere on the real line")
            return
        zs = np.linspace(-40.0, 40.0, 1601)
        if float(np.min(self.deriv(1, zs))) < -1e-10:
            raise ValueError("nonlinearity is not monotone: N' < 0 on the sample grid")
        vals = self.deriv(0, zs)
        secants = (vals[1:] - vals[:-1]) * (zs[1:] - zs[:-1])
        if float(np.min(secants)) < -1e-10:
            raise ValueError("nonlinearity is not monotone: secant test failed")

    @staticmethod
    def _growth_constant(fn: Callable, q: float) -> float:
        grid = np.linspace(0.0, 80.0, 321)
        zs = np.concatenate([-grid[:0:-1], grid])
        ratios = np.abs(fn(zs)) / (1.0 + np.abs(zs) ** (q - 1.0))
        inner = float(np.max(ratios[np.abs(zs) <= 40.0]))
        outer = float(np.max(ratios[np.abs(zs) > 40.0]))
        if outer > 5.0 * max(inner, 1e-300):
            raise ValueError(
                "polynomial growth bound |N(z)| <= c*(1+|z|**(q-1)) cannot be "
                f"satisfied for q={q:g}: sampled ratio grows from {inner:.3g} "
                f"(|z| <= 40) to {outer:.3g} (|z| <= 80)"
            )
        return float(np.max(ratios))

    # -- evaluation ----------------------------------------------------------

    def deriv(self, n: int, z):
        """Values of the n-th derivative, broadcasting over z."""
        if n < 0:
            raise ValueError("derivative order must be >= 0")
        z = np.asarray(z, dtype=float)
        if self.kind == "polynomial":
            if n > self.degree:
                return np.zeros_like(z)
            while len(self._deriv_coeffs) <= n:
                self._deriv_coeffs.append(npoly.polyder(self._deriv_coeffs[-1]))
            return npoly.polyval(z, self._deriv_coeffs[n])
        if n == 0:
            return 2.0 + np.tanh(z)
        return npoly.polyval(np.tanh(z), self._tanh_poly(n))

    def _tanh_poly(self, n: int) -> np.ndarray:
        # n-th tanh derivative as a polynomial in t = tanh(z):
        # P_1 = 1 - t^2, P_{k+1} = P_k' * (1 - t^2)
        while len(self._tanh_polys) < n:
            nxt = npoly.polymul(npoly.polyder(self._tanh_polys[-1]),
                                np.array([1.0, 0.0, -1.0]))
            self._tanh_polys.append(nxt)
        return self._tanh_polys[n - 1]

    def __call__(self, z):
        return self.deriv(0, z)

    def max_order(self) -> int | None:
        """Largest n with nonvanishing N^(n), or None if unbounded."""
        return self.degree

    @property
    def zero_value(self) -> float:
        return float(self.deriv(0, 0.0))

    def deriv_sup(self, n: int, lo: float, hi: float) -> float:
        """Exact max of |N^(n)| on [lo, hi] (via critical points)."""
        if lo > hi:
            raise ValueError("empty interval")
        if self.kind == "polynomial":
            if n > self.degree:
                return 0.0
            self.deriv(n, 0.0)  # materialize coefficient row
            return _poly_abs_max(self._deriv_coeffs[n], lo, hi)
        if n == 0:
            return max(abs(2.0 + math.tanh(lo)), abs(2.0 + math.tanh(hi)))
        return _poly_abs_max(self._tanh_poly(n), math.tanh(lo), math.tanh(hi))


def _poly_abs_max(coeffs_le: np.ndarray, lo: float, hi: float) -> float:
    candidates = [lo, hi]
    if len(coeffs_le) > 2:
        der = npoly.polyder(coeffs_le)
        if np.any(der != 0.0):
            for root in npoly.polyroots(der):
                if abs(root.imag) < 1e-9 and lo < root.real < hi:
                    candidates.append(float(root.real))
    return float(np.max(np.abs(npoly.polyval(np.asarray(candidates), coeffs_le))))


# -- residual and derivatives -------------------------------------------------


def nemyckii_derivative(mesh: Mesh1D, nl: Nonlinearity, n: int,
                        u: np.ndarray, args: Sequence[np.ndarray]) -> np.ndarray:
    """Quadrature values of N^(n)(u) * args_1 * ... * args_n."""
    if len(args) != n:
        raise ValueError("need exactly n argument fields")
    out = nl.deriv(n, mesh.at_quad(u))
    for w in args:
        out = out * mesh.at_quad(w)
    return out


def assemble_residual(mesh: Mesh1D, data: PdeData, nl: Nonlinearity,
                      u: np.ndarray) -> np.ndarray:
    """Galerkin residual of <a u', v'> + <b N(u), v> - <f, v> - g v(1)."""
    uq = mesh.at_quad(u)
    grad_part = data.a * mesh.grad_at_quad(u)
    mass_part = data.b * nl.deriv(0, uq) - data.f
    return mesh.assemble_load(grad_part, mass_part, boundary=-data.g)


def apply_residual_derivative(mesh: Mesh1D, data: PdeData, nl: Nonlinearity,
                              u: np.ndarray, r: int,
                              args: Sequence[tuple[PdeData, np.ndarray]]) -> np.ndarray:
    """Multilinear residual derivative in r joint (data, state) directions.

    The diffusion term is bilinear in (a, u), the load terms are linear,
    and everything of order three and higher comes from the composition
    term b N(u).  For a polynomial nonlinearity of degree J the result
    vanishes identically once r >= J + 2.
    """
    if r < 1:
        raise ValueError("derivative order must be >= 1")
    if len(args) != r:
        raise ValueError("need exactly r direction pairs")
    uq = mesh.at_quad(u)
    if r == 1:
        (d1, v1), = args
        grad_part = d1.a * mesh.grad_at_quad(u) + data.a * mesh.grad_at_quad(v1)
        mass_part = (d1.b * nl.deriv(0, uq)
                     + data.b * nl.deriv(1, uq) * mesh.at_quad(v1) - d1.f)
        return mesh.assemble_load(grad_part, mass_part, boundary=-d1.g)
    if r == 2:
        (d1, v1), (d2, v2) = args
        v1q, v2q = mesh.at_quad(v1), mesh.at_quad(v2)
        grad_part = d1.a * mesh.grad_at_quad(v2) + d2.a * mesh.grad_at_quad(v1)
        mass_part = (data.b * nl.deriv(2, uq) * v1q * v2q
                     + d1.b * nl.deriv(1, uq) * v2q
                     + d2.b * nl.deriv(1, uq) * v1q)
        return mesh.assemble_load(grad_part, mass_part)
    degree = nl.max_order()
    if degree is not None and r >= degree + 2:
        return np.zeros(mesh.n_free)
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
    return mesh.assemble_load(None, mass_part)


def linearization_matrix(mesh: Mesh1D, data: PdeData, nl: Nonlinearity,
                         u: np.ndarray) -> sp.csc_matrix:
    """Matrix of the state linearization v -> <a v', .'> + <b N'(u) v, .>."""
    weight = data.b * nl.deriv(1, mesh.at_quad(u))
    return (mesh.stiffness_matrix(data.a) + mesh.mass_matrix(weight)).tocsc()


class PdeOracle(ResidualOracle):
    """Residual-oracle adapter for the P1 discretization.

    Data vectors are PdeData values, states free-node numpy vectors, and
    residuals free-node dual vectors; norms are the discrete H1 norm and
    its dual.  The linearization factorization is cached per base point.
    """

    def __init__(self, mesh: Mesh1D, nl: Nonlinearity):
        self.mesh = mesh
        self.nl = nl
        self._lin_cache: tuple | None = None

    def eval(self, d: PdeData, u: np.ndarray) -> np.ndarray:
        return assemble_residual(self.mesh, d, self.nl, u)

    def apply_derivative(self, r: int, d: PdeData, u: np.ndarray, args) -> np.ndarray:
        return apply_residual_derivative(self.mesh, d, self.nl, u, r, args)

    def solve_linearized(self, d: PdeData, u: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        cache = self._lin_cache
        if cache is None or cache[0] is not d or cache[1] is not u:
            try:
                lu = spla.splu(linearization_matrix(self.mesh, d, self.nl, u))
            except RuntimeError as exc:
                raise LinearizationError(str(exc)) from exc
            cache = (d, u, lu)
            self._lin_cache = cache
        return cache[2].solve(rhs)

    def max_derivative_order(self) -> int | None:
        degree = self.nl.max_order()
        if degree is None:
            return None
        return max(2, degree + 1)

    def zero_data(self) -> PdeData:
        return PdeData.zeros(self.mesh)

    def zero_state(self) -> np.ndarray:
        return np.zeros(self.mesh.n_free)

    def residual_norm(self, value: np.ndarray) -> float:
        return self.mesh.dual_norm(value)

    def state_norm(self, value: np.ndarray) -> float:
        return self.mesh.h1_norm(value)


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


def newton_solve(mesh: Mesh1D, data: PdeData, nl: Nonlinearity, u0=None,
                 tol: float = 1e-12, max_iter: int = 100,
                 check_bound: bool = True) -> np.ndarray:
    """Damped Newton iteration for the residual equation.

    Divergence raises NonConvergenceError, which admissible data should
    never trigger.  After convergence the a-priori solution bound is
    asserted; a violation indicates a bug and raises RuntimeError.
    """
    validate_admissible(mesh, data, nl)
    oracle = PdeOracle(mesh, nl)
    if u0 is None:
        u0 = oracle.zero_state()
    u = solve_residual(oracle, data, u0, tol, max_iter=max_iter)
    if check_bound:
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
                       rng: np.random.Generator, n_pairs: int = 8,
                       amplitude: float = 1.0) -> MonotonicityProbe:
    """Check (R(d,u1) - R(d,u2))(u1 - u2) >= c_a/c_pf^2 * ||u1 - u2||_H1^2
    on random state pairs."""
    c_a = min(1.0, float(np.min(data.a)))
    threshold = c_a / mesh.poincare_constant**2
    worst = float("inf")
    for _ in range(n_pairs):
        u1 = amplitude * rng.standard_normal(mesh.n_free)
        u2 = amplitude * rng.standard_normal(mesh.n_free)
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
        return {
            "alpha": self.alpha,
            "alpha_measured": self.alpha_measured,
            "c_pf": self.c_pf,
            "c_a": self.c_a,
            "sigma": self.sigma,
            "digamma": self.digamma,
            "embedding": self.embedding,
        }


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
    lam = _smallest_generalized_eigenvalue(
        linearization_matrix(mesh, data, nl, u), mesh.h1_gram
    )
    alpha_measured = 1.0 / lam

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
    degree = nl.max_order()
    if degree is not None:
        for r in range(3, degree + 2):
            bounds[r] = (b_sup * sup(r) * ce ** (r - 1)
                         + r * sup(r - 1) * ce ** (r - 2))
        digamma = 1.0
        sigma = max([1.0] + [m / math.factorial(r) for r, m in bounds.items()])
    else:
        for r in range(3, 7):
            bounds[r] = (b_sup * sup(r) * ce ** (r - 1)
                         + r * sup(r - 1) * ce ** (r - 2))
        # Cauchy bound on a width-1 strip: sup_R |tanh^(n)| <= n! * tan(1),
        # so the composition term admits r! * K * ce**(r-1) for all r.
        tail = math.tan(1.0) * (b_sup + 1.0)
        digamma = max(1.0, ce)
        sigma = max(
            [1.0, tail / digamma]
            + [m / (math.factorial(r) * digamma**r) for r, m in bounds.items()]
        )
    return PdeConstants(alpha, alpha_measured, c_pf, c_a, sigma, digamma, ce)
