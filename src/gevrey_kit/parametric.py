"""Parametric domain deformations of the unit interval and the
parameters-to-solution derivative pipeline.

A sine-mode displacement family V[y](x) = x + sum_k y_k gamma_k
sin(k pi x)/(k pi) deforms the interval; pulling the weak problem back to
the reference interval turns the deformation into coefficient data
(a/W, W b, W f, g) with W = V'[y].  Because W is affine in y, every mixed
partial of the data is available in closed form, that of the geometric
series of 1/W, and mixed partials of the solution follow from the
residual equation: the term containing the unknown partial is isolated
and everything else moves to the right-hand side of a linearized solve.

`parametric_derivative_table` builds its tables, one array per order, by
Taylor-coefficient propagation (`fill_table` with `PdeOracle`'s
expansion), the data of an order entering as one block
(`TildeData.coefficients`).  `verify_derivative_bounds` makes one pass
over its points (solve, constants, fill) with one plan for all; it takes
the H1 norms of an order's block with `Mesh1D.h1_norms`, ||u|| among
them, and the log-bounds an order at a time.  The composition sum of the
chain rule (`parametric_solution_derivative`) gives single entries and is
the oracle the tests compare the tables with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .combinatorics import MultiIndex, SplitPlan
from .envelopes import (
    GevreyEnvelope,
    ParametricEnvelope,
    StabilityConstant,
    compare_to_log_bound,
    compose_parametric,
    implicit_envelope,
)
from .implicit_diff import (
    DerivativeTable,
    fill_table,
    first_derivative,
    higher_derivative,
    solve_residual,
)
from .pde1d import (
    Mesh1D,
    Nonlinearity,
    PdeData,
    PdeOracle,
    estimate_constants,
    newton_solve,
)

__all__ = [
    "BILIPSCHITZ_CONSTANT",
    "DomainMap1D",
    "TildeData",
    "parametric_solution_derivative",
    "parametric_derivative_table",
    "data_envelope",
    "verify_derivative_bounds",
    "DerivativeBoundRow",
    "DerivativeBoundReport",
    "gevrey_rate_fit",
    "GevreyFit",
]

#: Uniform bi-Lipschitz constant of the displacement family on the box.
BILIPSCHITZ_CONSTANT = 2.0


@dataclass(frozen=True)
class DomainMap1D:
    """Sine-mode displacement family on the unit interval.

    V[y](x) = x + sum_{k <= p} y_k gamma_k sin(k pi x)/(k pi) with weights
    gamma_k = c * k**(-vartheta) and parameters y in the closed box
    [-1/2, 1/2]^p.  The constructor enforces sum_k gamma_k <= 1, which
    keeps the deformation gradient W = V' inside [1/2, 3/2] on the whole
    box, so the family is uniformly bi-Lipschitz with constant 2.  The
    map is affine in y: all mixed partials of order two and higher vanish
    and the order-one partial in y_k is gamma_k sin(k pi x)/(k pi).
    """

    p: int
    c: float = 0.5
    vartheta: float = 2.0

    def __post_init__(self) -> None:
        if not 1 <= self.p <= 8:
            raise ValueError("active dimension p must be between 1 and 8")
        if self.c <= 0.0:
            raise ValueError("weight scale c must be positive")
        if self.vartheta <= 1.0:
            raise ValueError("decay exponent vartheta must exceed 1")
        if sum(self.gammas()) > 1.0 + 1e-12:
            raise ValueError(
                "weights violate the bi-Lipschitz margin: sum gamma_k must be <= 1"
            )

    def gamma(self, k: int) -> float:
        return self.c * float(k) ** (-self.vartheta)

    def gammas(self) -> tuple[float, ...]:
        return tuple(self.gamma(k) for k in range(1, self.p + 1))

    def validate_point(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.p,):
            raise ValueError(f"parameter point must have shape ({self.p},)")
        if np.any(np.abs(y) > 0.5 + 1e-12):
            raise ValueError("parameter outside the closed box [-1/2, 1/2]^p")
        return y

    def map_points(self, y, x):
        y = self.validate_point(y)
        out = np.asarray(x, dtype=float).copy()
        for k in range(1, self.p + 1):
            out = out + y[k - 1] * self.gamma(k) * np.sin(k * math.pi * x) / (k * math.pi)
        return out

    def deformation_gradient(self, y, x):
        y = self.validate_point(y)
        out = np.ones_like(np.asarray(x, dtype=float))
        for k in range(1, self.p + 1):
            out = out + y[k - 1] * self.mode_gradient(k, x)
        return out

    def mode_gradient(self, k: int, x):
        """d/dy_k of the deformation gradient: gamma_k cos(k pi x)."""
        return self.gamma(k) * np.cos(k * math.pi * np.asarray(x, dtype=float))


class TildeData:
    """Pulled-back data at a fixed parameter point and its partials.

    In one dimension the pullback is a -> a/W, b -> W b, f -> W f with the
    flux value unchanged (`data`), and ellipticity survives: on the box
    inf a/W >= min(1, inf a) / 8.  W is affine in y, so all nonlinearity
    in y sits in 1/W.  Its normalized coefficients are those of the
    geometric series of 1/(W + sum_k t_k w_k), w_k the mode gradients:

        c_alpha = d^alpha (1/W) / alpha! = (-1)^n (n! / alpha!) w^alpha / W^(n+1),

    n = |alpha|, and a/W has the coefficients a c_alpha, a being constant
    in y.  The coefficients of W b and W f have exactly one Leibniz term and
    vanish beyond order one.
    """

    def __init__(self, dmap: DomainMap1D, hat: PdeData, mesh: Mesh1D, y):
        self.dmap = dmap
        self.hat = hat
        self.mesh = mesh
        self.y = dmap.validate_point(y)
        x = mesh.quad_x
        self.mode_grads = [dmap.mode_gradient(k, x) for k in range(1, dmap.p + 1)]
        self.w = dmap.deformation_gradient(self.y, x)
        self.winv = 1.0 / self.w
        self.data = PdeData(hat.a * self.winv, self.w * hat.b, self.w * hat.f, hat.g)
        self._ratios = np.array([g * self.winv for g in self.mode_grads])  # w_k / W
        self._zero = np.zeros_like(self.w)

    def coefficient(self, alpha: MultiIndex) -> PdeData:
        """Normalized partial d^alpha data / alpha! at this parameter point,
        from the closed form of the reciprocal (see the class docstring).
        Nothing is kept between calls, so a fill that reads each coefficient
        once holds none of them afterwards."""
        zero = self._zero
        if alpha.is_zero():
            return self.data
        if alpha.entries[-1][0] > self.dmap.p:
            return PdeData(zero, zero, zero, 0.0)
        n = alpha.order()
        a_part = (-1) ** n * math.factorial(n) / alpha.factorial() * self.data.a
        for k, e in alpha.entries:
            for _ in range(e):
                a_part *= self._ratios[k - 1]
        b_part = f_part = zero
        if n == 1:
            wk = self.mode_grads[alpha.entries[0][0] - 1]
            b_part, f_part = wk * self.hat.b, wk * self.hat.f
        return PdeData(a_part, b_part, f_part, 0.0)

    def coefficients(self, plan: SplitPlan, m: int) -> PdeData:
        """`coefficient` of every key of order m >= 1 of a plan over at most p
        coordinates, stacked, bit for bit: one gather of w_k / W per factor,
        in each key's order, and 0.0 for a field vanishing at the order."""
        exps = plan.exps[m]
        if exps.shape[1] > self.dmap.p:
            raise ValueError("the plan has coordinates beyond the active dimension p")
        scale = ((-1) ** m * (math.factorial(m) // plan.factorials(m))).astype(float)
        a_part = scale[:, None, None] * self.data.a
        factors = np.repeat(np.tile(np.arange(exps.shape[1]), len(exps)), exps.ravel())
        for column in factors.reshape(len(exps), m).T:
            a_part *= self._ratios[column]
        if m > 1:
            return PdeData(a_part, 0.0, 0.0, 0.0)
        grads = np.array(self.mode_grads)[factors]
        return PdeData(a_part, grads * self.hat.b, grads * self.hat.f, 0.0)

    def partial(self, alpha: MultiIndex) -> PdeData:
        """Mixed partial d^alpha data = alpha! * coefficient(alpha) at this
        parameter point."""
        fact = alpha.factorial()
        coefficient = self.coefficient(alpha)
        return coefficient if fact == 1 else fact * coefficient


def parametric_solution_derivative(oracle: PdeOracle, tilde: TildeData,
                                   table: DerivativeTable,
                                   alpha: MultiIndex) -> np.ndarray:
    """Mixed partial of the parameters-to-solution map at the table's base,
    by the composition sum of `implicit_diff.higher_derivative`.

    The table's data map is the pullback y -> tilde data.  All partials of
    strictly smaller order must already be in the table.  The tables of
    `parametric_derivative_table` come from the Taylor-coefficient fill
    instead; this form is the independent oracle they are tested against.
    """
    if alpha.is_zero():
        return table.u
    if alpha.order() == 1:
        return first_derivative(oracle, table.d, table.u, tilde.partial(alpha))
    return higher_derivative(oracle, table, alpha)


def parametric_derivative_table(oracle: PdeOracle, tilde: TildeData,
                                max_order: int, *, tol: float = 1e-12,
                                u: np.ndarray | None = None,
                                plan: SplitPlan | None = None) -> DerivativeTable:
    """Fill d^alpha u for every alpha with |alpha| <= max_order over the
    active coordinates, order by order, with `implicit_diff.fill_table`
    (the Taylor-coefficient fill for a `PdeOracle`); `plan` is
    `SplitPlan.up_to(p, max_order)`, built here unless a caller shares it."""
    if u is None:
        u = solve_residual(oracle, tilde.data, oracle.zero_state(), tol)
    plan = plan or SplitPlan.up_to(tilde.dmap.p, max_order)
    return fill_table(oracle, tilde.data, u, plan, tilde.coefficient,
                      lambda m: tilde.coefficients(plan, m))


# -- envelope construction and verification ------------------------------------


def data_envelope(dmap: DomainMap1D, hat: PdeData, mesh: Mesh1D) -> ParametricEnvelope:
    """Constructive envelope for the parameters-to-data map.

    On the box, |d^alpha (1/W)| <= |alpha|! gamma^alpha 2^(|alpha|+1)
    (geometric series of the reciprocal of an affine function with
    W >= 1/2 and mode gradients bounded by gamma_k), and the W b, W f
    partials contribute only at order one.  This certifies the bound
    |alpha|! * mu * 2^|alpha| * gamma^alpha on the data-space norm with
    mu = max(2 sup|a|, sup|b|, ||f||_L2).
    """
    a_sup = float(np.max(np.abs(hat.a)))
    b_sup = float(np.max(np.abs(hat.b)))
    f_l2 = mesh.l2_norm_quad(hat.f)
    mu = max(2.0 * a_sup, b_sup, f_l2)
    return ParametricEnvelope(
        GevreyEnvelope(1.0, mu, 2.0),
        tuple(dmap.gammas()),
        tail=(dmap.c, dmap.vartheta),
    )


def _envelope_from_constants(dmap, hat, mesh, per_point, u_norm_max):
    """Composed envelope of the parameters-to-solution map and its constants
    detail, from the constants measured at each sampled point and the
    largest ||u|| over them."""
    alpha_max = max([1.0] + [c.alpha for c in per_point])
    sigma_max = max([1.0] + [c.sigma for c in per_point])
    digamma_max = max([1.0] + [c.digamma for c in per_point])
    solution_env = implicit_envelope(
        StabilityConstant(alpha_max), GevreyEnvelope(1.0, sigma_max, digamma_max)
    )
    composed = compose_parametric(data_envelope(dmap, hat, mesh), solution_env)
    # The composition rule covers alpha != 0 only; widen the scale so the
    # order-zero entries ||u(y)|| are covered as well.
    scale = max(composed.base.scale, u_norm_max)
    envelope = ParametricEnvelope(
        GevreyEnvelope(composed.base.s, scale, composed.base.rate),
        composed.weights,
        composed.tail,
    )
    constants = {
        "alpha": alpha_max,
        "sigma": sigma_max,
        "digamma": digamma_max,
        "sup_solution_norm": u_norm_max,
        "scale": envelope.base.scale,
        "rate": envelope.base.rate,
        "per_point": [c.as_dict() for c in per_point],
    }
    return envelope, constants


class DerivativeBoundRow(NamedTuple):
    alpha: MultiIndex
    y_index: int
    measured: float
    log_bound: float
    ratio: float
    ok: bool


@dataclass(frozen=True)
class DerivativeBoundReport:
    rows: tuple[DerivativeBoundRow, ...]
    envelope: ParametricEnvelope
    constants: dict

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)

    @property
    def failures(self) -> tuple[DerivativeBoundRow, ...]:
        return tuple(r for r in self.rows if not r.ok)


def verify_derivative_bounds(dmap: DomainMap1D, hat: PdeData, mesh: Mesh1D,
                    nl: Nonlinearity, ys: Iterable, max_order: int = 4,
                    envelope: ParametricEnvelope | None = None,
                    tol: float = 1e-12) -> DerivativeBoundReport:
    """Measure H1 norms of every d^alpha u with |alpha| <= max_order at the
    sampled parameter points and compare them against the envelope.

    One pass over ys: at each point a Newton solve, the measured constants
    (only when no envelope is passed), and the table's norms, ||u|| first.
    Without an envelope, the data envelope is then composed with the
    implicit-solution envelope built from those constants (stability bound,
    residual-derivative constants).  An entry passes when measured <= bound,
    with no slack.  One plan serves every point.  Raises ValueError when ys
    is empty, since constants measured on no point certify nothing.
    """
    oracle = PdeOracle(mesh, nl)
    plan = SplitPlan.up_to(dmap.p, max_order)
    per_point, u_norm_max, measured = [], 0.0, []
    for y in ys:
        tilde = TildeData(dmap, hat, mesh, y)
        u, bound, residual_norm = newton_solve(mesh, tilde.data, nl, tol=tol, return_check=True)
        if envelope is None:
            per_point.append(estimate_constants(mesh, tilde.data, nl, u, measure_alpha=False,
                                                u_norm=bound.lhs, residual_norm=residual_norm))
        table = parametric_derivative_table(oracle, tilde, max_order, u=u, tol=tol, plan=plan)
        measured.append([x for block in table.orders for x in mesh.h1_norms(block)])
        u_norm_max = max(u_norm_max, measured[-1][0])
    if not measured:
        raise ValueError("need at least one parameter point")
    constants: dict = {}
    if envelope is None:
        envelope, constants = _envelope_from_constants(dmap, hat, mesh, per_point, u_norm_max)
    log_bounds = np.concatenate([envelope.log_bounds(m, exps)
                                 for m, exps in enumerate(plan.exps)]).tolist()
    rows = [DerivativeBoundRow(alpha, y_index, value, lb, *compare_to_log_bound(value, lb))
            for y_index, values in enumerate(measured)
            for alpha, value, lb in zip(plan.keys(), values, log_bounds)]
    return DerivativeBoundReport(tuple(rows), envelope, constants)


@dataclass(frozen=True)
class GevreyFit:
    s: float
    rate: float
    scale: float


def gevrey_rate_fit(norms: Mapping[MultiIndex, float],
                    weights: Sequence[float]) -> GevreyFit:
    """Least-squares fit of log(norm/gamma^alpha) against
    s*log(|alpha|!) + |alpha|*log(rate) + log(scale).

    Entries of order zero, zero norms and zero-weight entries are skipped;
    raises ValueError when the remaining design matrix is degenerate.
    """
    helper = ParametricEnvelope(GevreyEnvelope(1.0, 1.0, 1.0), tuple(weights))
    rows, targets = [], []
    for alpha, value in norms.items():
        n = alpha.order()
        if n == 0 or value <= 0.0:
            continue
        lw = helper.log_weight_power(alpha)
        if lw == float("-inf"):
            continue
        rows.append([math.lgamma(n + 1), float(n), 1.0])
        targets.append(math.log(value) - lw)
    design = np.asarray(rows)
    if len(rows) < 3 or np.linalg.matrix_rank(design) < 3:
        raise ValueError("degenerate design matrix: need norms spanning >= 3 orders")
    sol, *_ = np.linalg.lstsq(design, np.asarray(targets), rcond=None)
    return GevreyFit(float(sol[0]), math.exp(sol[1]), math.exp(sol[2]))
