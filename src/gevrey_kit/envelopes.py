"""Derivative-bound envelopes and their propagation rules.

An envelope stores constants (s, scale, rate) certifying bounds of the form
(n!)**s * scale * rate**n on a family of derivative norms; the parametric
variant weights multi-index entries by gamma**alpha.  All bound evaluation
and comparison happens in natural-log space so that orders of a few hundred
neither overflow nor underflow.  Envelope values are immutable and freely
shareable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .combinatorics import C_KAPPA, MultiIndex, schroeder_hipparchus

__all__ = [
    "GevreyEnvelope",
    "ParametricEnvelope",
    "StabilityConstant",
    "per_order_bound",
    "implicit_envelope",
    "convergence_radius",
    "compose_envelopes",
    "compose_parametric",
    "envelope_check",
    "BoundCheckEntry",
    "BoundCheckReport",
]


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else float("-inf")


@dataclass(frozen=True)
class GevreyEnvelope:
    """Constants (s, scale, rate) for bounds (n!)**s * scale * rate**n."""

    s: float
    scale: float
    rate: float

    def __post_init__(self) -> None:
        if self.s < 1.0:
            raise ValueError("smoothness index s must be >= 1")
        if self.scale < 0.0 or self.rate < 0.0:
            raise ValueError("scale and rate must be nonnegative")

    def log_bound(self, n: int) -> float:
        if n < 0:
            raise ValueError("order must be >= 0")
        out = self.s * math.lgamma(n + 1) + _log(self.scale)
        if n:
            out += n * _log(self.rate)
        return out

    def bound(self, n: int) -> float:
        try:
            return math.exp(self.log_bound(n))
        except OverflowError:
            return float("inf")


@dataclass(frozen=True)
class StabilityConstant:
    """Uniform bound on the inverse of the state linearization."""

    alpha: float

    def __post_init__(self) -> None:
        if self.alpha < 1.0:
            raise ValueError("stability constant must be >= 1")


@dataclass(frozen=True)
class ParametricEnvelope:
    """Envelope for mixed partials with per-coordinate weights.

    gamma_k is `weights[k-1]` for k <= len(weights); beyond the stored
    prefix, the algebraic tail c * k**(-vartheta) is used when given.
    """

    base: GevreyEnvelope
    weights: tuple[float, ...]
    tail: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if any(w < 0.0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        if self.tail is not None and (self.tail[0] <= 0.0 or self.tail[1] <= 1.0):
            raise ValueError("tail must be (c > 0, vartheta > 1)")

    def weight(self, k: int) -> float:
        if k < 1:
            raise ValueError("coordinates are 1-based")
        if k <= len(self.weights):
            return self.weights[k - 1]
        if self.tail is not None:
            c, vartheta = self.tail
            return c * float(k) ** (-vartheta)
        raise LookupError(f"no weight available for coordinate {k}")

    def log_weight_power(self, alpha: MultiIndex) -> float:
        return sum(e * _log(self.weight(k)) for k, e in alpha.entries)

    def log_bound(self, alpha: MultiIndex) -> float:
        return self.base.log_bound(alpha.order()) + self.log_weight_power(alpha)

    def bound(self, alpha: MultiIndex) -> float:
        try:
            return math.exp(self.log_bound(alpha))
        except OverflowError:
            return float("inf")


def _require_normalized(env: GevreyEnvelope) -> None:
    if env.scale < 1.0 or env.rate < 1.0:
        raise ValueError("residual envelope must satisfy scale >= 1 and rate >= 1")


def per_order_bound(n: int, alpha: StabilityConstant, env: GevreyEnvelope) -> float:
    """Log of (n!)**s * a**(2n-1) * scale**(2n-1) * rate**(3n-2) * kappa_n.

    The order-by-order derivative bound for the local solution map of a
    residual equation with stability constant `alpha` and residual
    envelope `env`; kappa_n is the n-th little Schroeder number.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    _require_normalized(env)
    return (
        env.s * math.lgamma(n + 1)
        + (2 * n - 1) * (math.log(alpha.alpha) + _log(env.scale))
        + (3 * n - 2) * _log(env.rate)
        + math.log(schroeder_hipparchus(n))
    )


def implicit_envelope(alpha: StabilityConstant, env: GevreyEnvelope) -> GevreyEnvelope:
    """Geometric envelope for the local solution map.

    Same smoothness index; scale 1/(c * a * scale * rate**2) and rate
    c * a**2 * scale**2 * rate**3 with c = 3 + sqrt(8).  Dominates
    `per_order_bound` at every order because kappa_n <= c**(n-1).
    """
    _require_normalized(env)
    a = alpha.alpha
    return GevreyEnvelope(
        env.s,
        1.0 / (C_KAPPA * a * env.scale * env.rate**2),
        C_KAPPA * a**2 * env.scale**2 * env.rate**3,
    )


def convergence_radius(env: GevreyEnvelope) -> float:
    """Taylor-series convergence radius 1/rate, valid in the analytic class only."""
    if env.s != 1.0:
        raise ValueError("no positive radius guaranteed for non-analytic class")
    if env.rate <= 0.0:
        raise ValueError("rate must be positive")
    return 1.0 / env.rate


def compose_envelopes(env1: GevreyEnvelope, env2: GevreyEnvelope) -> GevreyEnvelope:
    """Envelope of the composition outer-after-inner; env1 is the inner map.

    s = max(s1, s2); with t = rate2 * scale1, the scale is
    scale2 * t / (t + 1) and the rate (t + 1) * rate1.  Not commutative.
    """
    t = env2.rate * env1.scale
    return GevreyEnvelope(
        max(env1.s, env2.s),
        env2.scale * t / (t + 1.0),
        (t + 1.0) * env1.rate,
    )


def compose_parametric(env_p: ParametricEnvelope, env_m: GevreyEnvelope) -> ParametricEnvelope:
    """Weighted-envelope analogue of `compose_envelopes`.

    env_p is the inner parametric map and env_m the outer map; the weight
    sequence is preserved.
    """
    return ParametricEnvelope(
        compose_envelopes(env_p.base, env_m), env_p.weights, env_p.tail
    )


@dataclass(frozen=True)
class BoundCheckEntry:
    key: object
    measured: float
    log_bound: float
    ratio: float
    ok: bool


@dataclass(frozen=True)
class BoundCheckReport:
    entries: tuple[BoundCheckEntry, ...]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def failures(self) -> tuple[object, ...]:
        return tuple(e.key for e in self.entries if not e.ok)

    def summary(self) -> str:
        if self.passed:
            return f"pass ({len(self.entries)} entries)"
        names = ", ".join(str(k) for k in self.failures)
        return f"FAIL at {names}"


def envelope_check(
    norms: Mapping[object, float],
    env: GevreyEnvelope | ParametricEnvelope,
    tolerance: float = 1e-9,
) -> BoundCheckReport:
    """Compare measured derivative norms against an envelope, in log space.

    `norms` maps integer orders (plain envelope) or MultiIndex keys
    (parametric envelope) to measured values.  An entry passes when
    measured <= bound * (1 + tolerance); zero measurements always pass, and
    a NaN measurement fails with a NaN ratio.
    Entries are reported in the iteration order of `norms`.
    """
    if not norms:
        raise ValueError("empty norm table")
    slack = math.log1p(tolerance)
    entries = []
    for key, measured in norms.items():
        if measured < 0.0:
            raise ValueError("measured norms must be nonnegative")
        if isinstance(key, MultiIndex):
            if not isinstance(env, ParametricEnvelope):
                raise ValueError("multi-index keys need a parametric envelope")
            lb = env.log_bound(key)
        else:
            if isinstance(env, ParametricEnvelope):
                raise ValueError("integer-order keys need a plain envelope")
            lb = env.log_bound(int(key))
        lm = _log(measured)
        if math.isnan(measured):  # no value, so no bound holds for it
            ratio, ok = math.nan, False
        elif measured == 0.0:
            ratio, ok = 0.0, True
        elif lb == float("-inf"):
            ratio, ok = float("inf"), False
        else:
            ratio = math.exp(min(lm - lb, 700.0))
            ok = lm <= lb + slack
        entries.append(BoundCheckEntry(key, float(measured), lb, ratio, ok))
    return BoundCheckReport(tuple(entries), tolerance)
