"""Envelope algebra: bound evaluation, propagation rules, checking."""

import math

import pytest

from gevrey_kit.combinatorics import C_KAPPA, MultiIndex
from gevrey_kit.envelopes import (
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

ONE = GevreyEnvelope(1.0, 1.0, 1.0)


class TestGevreyEnvelope:
    def test_validation(self):
        with pytest.raises(ValueError):
            GevreyEnvelope(0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            GevreyEnvelope(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            StabilityConstant(0.9)

    def test_log_bound_values(self):
        env = GevreyEnvelope(1.0, 2.0, 3.0)
        assert math.isclose(env.log_bound(0), math.log(2.0))
        assert math.isclose(env.bound(2), 2.0 * 2.0 * 9.0)

    def test_scale_robust_at_high_order(self):
        env = GevreyEnvelope(2.0, 5.0, 40.0)
        value = env.log_bound(200)
        assert math.isfinite(value)
        tiny = GevreyEnvelope(1.0, 1e-300, 1e-3)
        assert math.isfinite(tiny.log_bound(0) + 0.0) or tiny.log_bound(0) < 0

    def test_zero_scale_bound_vanishes(self):
        env = GevreyEnvelope(1.0, 0.0, 2.0)
        assert env.log_bound(3) == float("-inf")
        assert env.bound(3) == 0.0


class TestLemmaBound:
    def test_identity_values(self):
        assert math.isclose(math.exp(per_order_bound(1, StabilityConstant(1.0), ONE)), 1.0)
        assert math.isclose(math.exp(per_order_bound(2, StabilityConstant(1.0), ONE)), 2.0)

    def test_alpha_two_order_three(self):
        # (3!) * 2**5 * kappa_3 = 6 * 32 * 3
        got = math.exp(per_order_bound(3, StabilityConstant(2.0), ONE))
        assert math.isclose(got, 576.0, rel_tol=1e-12)

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            per_order_bound(0, StabilityConstant(1.0), ONE)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            per_order_bound(1, StabilityConstant(1.0), GevreyEnvelope(1.0, 0.5, 1.0))


class TestImplicitEnvelope:
    def test_identity_point(self):
        out = implicit_envelope(StabilityConstant(1.0), ONE)
        assert math.isclose(out.scale, 1.0 / C_KAPPA)
        assert math.isclose(out.rate, C_KAPPA)
        assert out.s == 1.0

    def test_general_point(self):
        out = implicit_envelope(StabilityConstant(2.0), GevreyEnvelope(1.0, 3.0, 1.0))
        assert math.isclose(out.scale, 1.0 / (6.0 * C_KAPPA))
        assert math.isclose(out.rate, 36.0 * C_KAPPA)

    def test_rate_homogeneity(self):
        base = implicit_envelope(StabilityConstant(1.0), GevreyEnvelope(1.0, 1.0, 1.0))
        doubled = implicit_envelope(StabilityConstant(1.0), GevreyEnvelope(1.0, 1.0, 2.0))
        assert math.isclose(doubled.rate, 8.0 * base.rate)
        assert math.isclose(doubled.scale, base.scale / 4.0)

    def test_precondition(self):
        with pytest.raises(ValueError):
            implicit_envelope(StabilityConstant(1.0), GevreyEnvelope(1.0, 1.0, 0.5))

    def test_dominates_order_by_order_bound(self):
        for a in (1.0, 2.0, 4.0):
            for scale in (1.0, 2.0, 4.0):
                for rate in (1.0, 2.0, 4.0):
                    for s in (1.0, 1.5, 2.0):
                        env = GevreyEnvelope(s, scale, rate)
                        out = implicit_envelope(StabilityConstant(a), env)
                        for n in range(1, 51):
                            assert (per_order_bound(n, StabilityConstant(a), env)
                                    <= out.log_bound(n) + 1e-9)


class TestConvergenceRadius:
    def test_values(self):
        assert math.isclose(
            convergence_radius(GevreyEnvelope(1.0, 1.0, C_KAPPA)), 1.0 / C_KAPPA
        )
        assert convergence_radius(GevreyEnvelope(1.0, 1.0, 1.0)) == 1.0

    def test_non_analytic_rejected(self):
        with pytest.raises(ValueError):
            convergence_radius(GevreyEnvelope(2.0, 1.0, 1.0))

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            convergence_radius(GevreyEnvelope(1.0, 1.0, 0.0))


class TestComposition:
    def test_identity_point(self):
        out = compose_envelopes(ONE, ONE)
        assert math.isclose(out.scale, 0.5)
        assert math.isclose(out.rate, 2.0)

    def test_constant_inner_map(self):
        inner = GevreyEnvelope(1.0, 0.0, 3.0)
        out = compose_envelopes(inner, ONE)
        assert out.scale == 0.0
        assert math.isclose(out.rate, 3.0)

    def test_smoothness_index_max(self):
        out = compose_envelopes(GevreyEnvelope(1.0, 1.0, 1.0),
                                GevreyEnvelope(2.0, 1.0, 1.0))
        assert out.s == 2.0

    def test_not_commutative_regression(self):
        env_a = GevreyEnvelope(1.0, 2.0, 1.0)
        env_b = GevreyEnvelope(1.0, 1.0, 3.0)
        fwd = compose_envelopes(env_a, env_b)
        rev = compose_envelopes(env_b, env_a)
        assert math.isclose(fwd.scale, 6.0 / 7.0) and math.isclose(fwd.rate, 7.0)
        assert math.isclose(rev.scale, 1.0) and math.isclose(rev.rate, 6.0)

    def test_parametric_identity_point(self):
        par = ParametricEnvelope(ONE, (0.9, 0.4), tail=(0.5, 2.0))
        out = compose_parametric(par, ONE)
        assert math.isclose(out.base.scale, 0.5)
        assert math.isclose(out.base.rate, 2.0)
        assert out.weights == (0.9, 0.4)
        assert out.tail == (0.5, 2.0)

    def test_parametric_smoothness_max(self):
        par = ParametricEnvelope(GevreyEnvelope(1.5, 1.0, 1.0), (1.0,))
        assert compose_parametric(par, ONE).base.s == 1.5

    def test_parametric_reduces_to_plain_on_single_unit_weight(self):
        par = ParametricEnvelope(GevreyEnvelope(1.0, 2.0, 3.0), (1.0,))
        plain = compose_envelopes(GevreyEnvelope(1.0, 2.0, 3.0), GevreyEnvelope(1.0, 4.0, 5.0))
        composed = compose_parametric(par, GevreyEnvelope(1.0, 4.0, 5.0))
        for n in range(1, 8):
            alpha = MultiIndex.make({1: n})
            assert math.isclose(composed.log_bound(alpha), plain.log_bound(n))


class TestParametricEnvelope:
    def test_weights_prefix_and_tail(self):
        par = ParametricEnvelope(ONE, (0.5,), tail=(0.5, 2.0))
        assert par.weight(1) == 0.5
        assert math.isclose(par.weight(3), 0.5 / 9.0)

    def test_missing_weight_raises(self):
        par = ParametricEnvelope(ONE, (0.5,))
        with pytest.raises(LookupError):
            par.weight(2)

    def test_zero_weight_coordinate_kills_bound(self):
        par = ParametricEnvelope(ONE, (0.0, 1.0))
        alpha = MultiIndex.make({1: 1, 2: 1})
        assert par.log_bound(alpha) == float("-inf")
        assert par.bound(alpha) == 0.0

    def test_weighted_bound_value(self):
        par = ParametricEnvelope(GevreyEnvelope(1.0, 2.0, 3.0), (0.5, 0.25))
        alpha = MultiIndex.make({1: 1, 2: 2})
        expected = math.factorial(3) * 2.0 * 27.0 * 0.5 * 0.25**2
        assert math.isclose(par.bound(alpha), expected)


class TestEnvelopeCheck:
    def test_zero_table_passes(self):
        report = envelope_check({1: 0.0, 2: 0.0}, ONE)
        assert report.passed
        assert all(e.ratio == 0.0 for e in report.entries)

    def test_exceeding_entry_named(self):
        env = GevreyEnvelope(1.0, 1.0, 1.0)
        report = envelope_check({1: 0.5, 2: 100.0}, env)
        assert not report.passed
        assert report.failures == (2,)
        assert "2" in report.summary()

    def test_tolerance_boundary(self):
        bound = ONE.bound(3)
        assert envelope_check({3: bound * (1.0 + 1e-12)}, ONE, tolerance=1e-9).passed
        assert not envelope_check({3: bound * (1.0 + 1e-6)}, ONE, tolerance=1e-9).passed

    def test_parametric_keys(self):
        par = ParametricEnvelope(GevreyEnvelope(1.0, 2.0, 2.0), (0.5, 0.5))
        norms = {MultiIndex.unit(1): 1.0, MultiIndex.make({1: 1, 2: 1}): 2.0}
        assert envelope_check(norms, par).passed

    def test_key_kind_mismatch(self):
        with pytest.raises(ValueError):
            envelope_check({MultiIndex.unit(1): 1.0}, ONE)
        with pytest.raises(ValueError):
            envelope_check({1: 1.0}, ParametricEnvelope(ONE, (1.0,)))

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            envelope_check({}, ONE)

    def test_negative_measured_rejected(self):
        with pytest.raises(ValueError):
            envelope_check({1: -1.0}, ONE)

    def test_zero_bound_with_positive_measure_fails(self):
        par = ParametricEnvelope(ONE, (0.0,))
        report = envelope_check({MultiIndex.unit(1): 1.0}, par)
        assert not report.passed
        assert report.entries[0].ratio == float("inf")

    def test_nan_measurement_fails(self):
        report = envelope_check({1: 0.5, 2: math.nan}, ONE)
        assert not report.passed
        assert report.failures == (2,)
        assert math.isnan(report.entries[1].ratio)

    def test_nan_measurement_fails_parametric(self):
        par = ParametricEnvelope(GevreyEnvelope(1.0, 2.0, 2.0), (0.5, 0.5))
        key = MultiIndex.make({1: 1, 2: 1})
        report = envelope_check({MultiIndex.unit(1): 1.0, key: math.nan}, par)
        assert not report.passed
        assert report.failures == (key,)
        assert math.isnan(report.entries[1].ratio)
