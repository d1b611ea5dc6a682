"""Exact combinatorics: enumeration counts, recursions, identities."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gevrey_kit import combinatorics
from gevrey_kit.combinatorics import (
    C_KAPPA,
    MultiIndex,
    SplitPlan,
    compositions,
    factorial_inequality_check,
    composition_identity_check,
    kappa_asymptotic_log,
    multi_index_compositions,
    multi_index_partitions,
    multi_indices_up_to,
    schroeder_hipparchus,
    schroeder_hipparchus_sequence,
    set_partitions,
)
from gevrey_kit.selftest import schroeder_hipparchus_by_composition_sum

# B_0..B_7, for partition-count cross-checks.
BELL = [1, 1, 2, 5, 15, 52, 203, 877]


class TestMultiIndex:
    def test_canonical_form_and_basics(self):
        a = MultiIndex.make({3: 1, 1: 2})
        assert a.entries == ((1, 2), (3, 1))
        assert a.order() == 3
        assert a.factorial() == 2
        assert a[1] == 2 and a[2] == 0 and a[3] == 1
        assert a.label() == "2e1+e3"
        assert MultiIndex().label() == "0"
        assert MultiIndex.make([0, 0]).is_zero()

    def test_rejects_noncanonical(self):
        with pytest.raises(ValueError):
            MultiIndex(((2, 1), (1, 1)))
        with pytest.raises(ValueError):
            MultiIndex(((1, 0),))

    def test_arithmetic(self):
        a = MultiIndex.make({1: 2, 2: 1})
        b = MultiIndex.make({1: 1})
        assert (a + b).entries == ((1, 3), (2, 1))
        assert (a - b).entries == ((1, 1), (2, 1))
        with pytest.raises(ValueError):
            b - a
        assert b <= a
        assert not (a <= b)

    def test_binom_and_sub_indices(self):
        a = MultiIndex.make({1: 2, 2: 1})
        subs = list(a.sub_indices())
        assert len(subs) == (2 + 1) * (1 + 1)
        assert sum(a.binom(b) for b in subs) == 2 ** a.order()

    def test_make_from_dense_list(self):
        assert MultiIndex.make([1, 0, 2]).entries == ((1, 1), (3, 2))


class TestCompositions:
    def test_examples(self):
        assert compositions(4, 2) == [(1, 3), (2, 2), (3, 1)]
        assert compositions(3, 3) == [(1, 1, 1)]
        assert len(compositions(5, 3)) == 6 == math.comb(4, 2)

    def test_degenerate_inputs_give_empty(self):
        assert compositions(4, 0) == []
        assert compositions(3, 4) == []

    def test_counts_match_binomial(self):
        for n in range(1, 11):
            for r in range(1, n + 1):
                assert len(compositions(n, r)) == math.comb(n - 1, r - 1)

    def test_lexicographic_and_unique(self):
        parts = compositions(7, 3)
        assert parts == sorted(parts)
        assert len(set(parts)) == len(parts)
        assert all(sum(p) == 7 for p in parts)

    def test_invalid_part_rejected(self):
        with pytest.raises(ValueError):
            factorial_inequality_check((1, 0, 2))
        with pytest.raises(ValueError):
            factorial_inequality_check(())


def brute_force_multi_index_compositions(alpha, r):
    """Independent enumeration: filter all r-tuples of sub-indices."""
    import itertools

    subs = [b for b in alpha.sub_indices() if not b.is_zero()]
    out = []
    for combo in itertools.product(subs, repeat=r):
        total = MultiIndex()
        for part in combo:
            total = total + part
        if total == alpha:
            out.append(combo)
    return out


class TestMultiIndexCompositions:
    def test_examples(self):
        two = MultiIndex.make({1: 2})
        assert multi_index_compositions(two, 2) == [
            (MultiIndex.unit(1), MultiIndex.unit(1))
        ]
        mixed = MultiIndex.make({1: 1, 2: 1})
        assert len(multi_index_compositions(mixed, 2)) == 2
        assert multi_index_compositions(mixed, 1)[0] == (mixed,)

    def test_too_many_parts_empty(self):
        assert multi_index_compositions(MultiIndex.unit(1), 2) == []

    def test_against_brute_force(self):
        for alpha in [
            MultiIndex.make({1: 3}),
            MultiIndex.make({1: 2, 2: 1}),
            MultiIndex.make({1: 1, 2: 1, 3: 1}),
            MultiIndex.make({1: 2, 3: 2}),
        ]:
            for r in range(1, alpha.order() + 1):
                got = set(multi_index_compositions(alpha, r))
                expected = set(brute_force_multi_index_compositions(alpha, r))
                assert got == expected

    def test_parts_sum_to_alpha(self):
        alpha = MultiIndex.make({1: 2, 2: 2})
        for comb in multi_index_compositions(alpha, 3):
            assert sum(comb, MultiIndex()) == alpha

    def test_unordered_partitions_cover_compositions_once(self):
        # each multiset stands for r!/prod m_i! orderings: together exactly
        # the brute-force ordered compositions, each multiset listed once
        for alpha in [
            MultiIndex.make({1: 4}),
            MultiIndex.make({1: 2, 2: 1}),
            MultiIndex.make({1: 1, 2: 1, 3: 1}),
            MultiIndex.make({1: 2, 3: 2}),
        ]:
            for r in range(1, alpha.order() + 1):
                parts = multi_index_partitions(alpha, r)
                multisets = [tuple(sorted(p, key=lambda b: b.entries)) for p in parts]
                assert len(set(multisets)) == len(multisets)
                expected = {tuple(sorted(c, key=lambda b: b.entries))
                            for c in brute_force_multi_index_compositions(alpha, r)}
                assert set(multisets) == expected
                weighted = sum(math.factorial(r) // math.prod(
                    math.factorial(p.count(b)) for b in set(p)) for p in parts)
                assert weighted == len(brute_force_multi_index_compositions(alpha, r))
        assert multi_index_partitions(MultiIndex.unit(1), 2) == []


class TestSetPartitions:
    def test_bell_counts(self):
        for n in range(1, 8):
            assert sum(1 for _ in set_partitions(n)) == BELL[n]

    def test_min_blocks(self):
        assert sum(1 for _ in set_partitions(2, min_blocks=2)) == 1
        assert sum(1 for _ in set_partitions(3, min_blocks=1)) == 5
        assert sum(1 for _ in set_partitions(4, min_blocks=2)) == 14

    def test_partitions_are_valid_and_unique(self):
        seen = set()
        for part in set_partitions(5):
            flat = sorted(i for block in part for i in block)
            assert flat == list(range(1, 6))
            # blocks are sorted and listed by their smallest element
            assert all(block == tuple(sorted(block)) for block in part)
            assert [block[0] for block in part] == sorted(block[0] for block in part)
            assert part not in seen
            seen.add(part)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            list(set_partitions(0))

    def test_block_sizes_obey_factorial_inequality(self):
        for n in range(1, 8):
            for part in set_partitions(n):
                sizes = tuple(sorted(map(len, part)))
                assert factorial_inequality_check(sizes)


class TestSchroederHipparchus:
    def test_frozen_values(self):
        assert schroeder_hipparchus_sequence(10) == [
            1, 1, 3, 11, 45, 197, 903, 4279, 20793, 103049,
        ]

    def test_recursions_agree(self):
        for n in range(1, 13):
            assert schroeder_hipparchus_by_composition_sum(n) == schroeder_hipparchus(n)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            schroeder_hipparchus(0)
        with pytest.raises(ValueError):
            schroeder_hipparchus_by_composition_sum(0)

    def test_growth_bound_to_500(self):
        seq = schroeder_hipparchus_sequence(501)
        log_c = math.log(C_KAPPA)
        for n in range(500):
            assert math.log(seq[n + 1]) - math.log(seq[n]) <= log_c + 1e-12

    def test_asymptotic_ratio_at_500(self):
        ratio = math.exp(math.log(schroeder_hipparchus(500)) - kappa_asymptotic_log(500))
        assert 0.9 <= ratio <= 1.1


class TestIdentities:
    def test_factorial_inequality_examples(self):
        assert factorial_inequality_check((2, 2))
        ones = (1,) * 6
        assert factorial_inequality_check(ones)
        # boundary case: equality r! * 1 = n!
        assert math.factorial(6) == math.factorial(len(ones))

    def test_factorial_inequality_exhaustive(self):
        for n in range(1, 9):
            for r in range(1, n + 1):
                for comp in compositions(n, r):
                    assert factorial_inequality_check(comp)

    def test_composition_identity_example(self):
        assert composition_identity_check(MultiIndex.make({1: 2}), 2)

    def test_composition_identity_all_singleton_split(self):
        alpha = MultiIndex.make({1: 1, 2: 1, 3: 1})
        assert composition_identity_check(alpha, alpha.order())

    def test_composition_identity_exhaustive(self):
        for alpha in multi_indices_up_to(3, 6):
            if alpha.is_zero():
                continue
            for r in range(1, alpha.order() + 1):
                assert composition_identity_check(alpha, r)

    def test_composition_identity_invalid_inputs(self):
        with pytest.raises(ValueError):
            composition_identity_check(MultiIndex(), 1)
        with pytest.raises(ValueError):
            composition_identity_check(MultiIndex.unit(1), 2)


class TestMultiIndicesUpTo:
    def test_count(self):
        # number of multi-indices over p coordinates with order <= m
        for p, m in [(2, 3), (3, 2), (4, 4)]:
            assert len(multi_indices_up_to(p, m)) == math.comb(p + m, p)

    def test_sorted_by_order(self):
        orders = [a.order() for a in multi_indices_up_to(3, 3)]
        assert orders == sorted(orders)

    def test_deterministic(self):
        assert multi_indices_up_to(3, 3) == multi_indices_up_to(3, 3)


def itertools_multi_indices(n_coords, max_order):
    """The enumeration `multi_indices_up_to` had before it was built tail by
    tail: each order from itertools.combinations_with_replacement, sorted
    by `MultiIndex.entries`."""
    out = []
    for total in range(max_order + 1):
        block = [MultiIndex.make(Counter(coords)) for coords in
                 itertools.combinations_with_replacement(range(1, n_coords + 1), total)]
        block.sort(key=lambda a: a.entries)
        out.extend(block)
    return out


class TestKeyEnumeration:
    @pytest.mark.parametrize("p", range(1, 9))
    def test_keys_match_the_itertools_enumeration(self, p):
        for max_order in range(8):
            reference = itertools_multi_indices(p, max_order)
            assert multi_indices_up_to(p, max_order) == reference
            assert SplitPlan.up_to(p, max_order).keys() == reference

    @pytest.mark.parametrize("p", range(1, 9))
    def test_plan_from_dimension_and_order_matches_the_key_plan(self, p):
        for max_order in range(8):
            keys = itertools_multi_indices(p, max_order)
            built, reference = SplitPlan.up_to(p, max_order), SplitPlan(keys[1:])
            assert np.array_equal(built.starts, reference.starts)
            assert len(built.exps) == len(reference.exps) == max_order + 1
            for got, expected in zip(built.exps, reference.exps):
                assert np.array_equal(got, expected)
            for m in range(2, max_order + 1):
                for k in range(1, m):
                    assert np.array_equal(built.targets(m, k), reference.targets(m, k))

    def test_positions_and_factorials_follow_the_keys(self):
        plan = SplitPlan.up_to(3, 4)
        for m in range(5):
            keys = plan.keys(m)
            assert [plan.position(alpha) for alpha in keys] == [(m, i) for i in range(len(keys))]
            assert plan.factorials(m).tolist() == [alpha.factorial() for alpha in keys]
        for missing in (MultiIndex.unit(4), MultiIndex.make({1: 5})):
            with pytest.raises(LookupError):
                plan.position(missing)


def by_order(keys):
    out = {}
    for alpha in keys:
        out.setdefault(alpha.order(), []).append(alpha)
    return out


class TestSplitPlan:
    @pytest.mark.parametrize("n_coords,max_order", [(3, 4), (1, 6), (40, 2)],
                             ids=["3-coords", "1-coord", "codes-beyond-int64"])
    def test_targets_match_brute_force(self, n_coords, max_order):
        keys = multi_indices_up_to(n_coords, max_order)[1:]
        plan, orders = SplitPlan(keys), by_order(keys)
        for m in range(1, max_order + 1):
            assert plan.size(m) == len(orders[m])
            for k in range(1, m + 1):
                targets = plan.targets(m, k)
                assert targets.shape == (len(orders[k]), len(orders.get(m - k, [0])))
                for i, beta in enumerate(orders[k]):
                    for j, rest in enumerate(orders.get(m - k, [MultiIndex()])):
                        assert orders[m][targets[i, j]] == beta + rest

    def test_sums_outside_the_keys_are_marked(self):
        e1, e2 = MultiIndex.unit(1), MultiIndex.unit(2)
        plan = SplitPlan([e1, e2, MultiIndex.make({1: 2})])
        assert plan.targets(2, 1).tolist() == [[0, -1], [-1, -1]]

    def test_first_coordinate_weights(self):
        keys = multi_indices_up_to(3, 4)[1:]
        plan, orders = SplitPlan(keys), by_order(keys)
        for m, k in [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)]:
            weights = plan.first_coordinate_weights(m, k)
            for i, beta in enumerate(orders[k]):
                for j, rest in enumerate(orders[m - k]):
                    alpha = beta + rest
                    c = alpha.support()[0]
                    assert weights[i, j] == beta[c] / alpha[c]

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    @pytest.mark.parametrize("block_bytes", [None, 1], ids=["one-block", "row-blocks"])
    def test_cauchy_matches_double_loop(self, weighted, block_bytes, monkeypatch):
        if block_bytes is not None:
            monkeypatch.setattr(combinatorics, "_BLOCK_BYTES", block_bytes)
        keys = multi_indices_up_to(3, 4)[1:]
        plan, orders = SplitPlan(keys), by_order(keys)
        orders[0] = [MultiIndex()]
        rng = np.random.default_rng(11)
        width = 5
        for m in range(1, 5):
            for k in range(m + 1):
                left = rng.standard_normal((len(orders[k]), width))
                right = rng.standard_normal((len(orders[m - k]), width))
                out = rng.standard_normal((len(orders[m]), width))
                expected = out.copy()
                for i, beta in enumerate(orders[k]):
                    for j, rest in enumerate(orders[m - k]):
                        alpha = beta + rest
                        c = alpha.support()[0]
                        weight = beta[c] / alpha[c] if weighted else 1.0
                        expected[orders[m].index(alpha)] += weight * left[i] * right[j]
                plan.cauchy(out, m, k, left, right, weighted=weighted)
                assert np.allclose(out, expected, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("width", [1, 6])
    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    @pytest.mark.parametrize("block_bytes", [None, 1], ids=["one-block", "row-blocks"])
    def test_cauchy_is_bitwise_csr_matrix_product(self, weighted, block_bytes, width,
                                                   monkeypatch):
        # reference: scipy's csr_matrix @ block over each block of left rows
        # (one block, or one left row per block), added to the rows it reaches
        from scipy.sparse import csr_matrix

        if block_bytes is not None:
            monkeypatch.setattr(combinatorics, "_BLOCK_BYTES", block_bytes)
        keys = multi_indices_up_to(3, 5)[1:]
        plan, orders = SplitPlan(keys), by_order(keys)
        rng = np.random.default_rng(13)

        def with_negative_zeros(shape):
            x = rng.standard_normal(shape)
            x[rng.random(shape) < 0.25] = -0.0
            return x

        for m in range(2, 6):
            for k in range(1, m):
                left = with_negative_zeros((len(orders[k]), width))
                right = with_negative_zeros((len(orders[m - k]), width))
                out = with_negative_zeros((len(orders[m]), width))
                expected = out.copy()
                step = 1 if block_bytes is not None else len(left)
                for first in range(0, len(left), step):
                    rows, cols, values = [], [], []
                    for i, beta in enumerate(orders[k][first:first + step]):
                        for j, rest in enumerate(orders[m - k]):
                            alpha = beta + rest
                            if alpha not in orders[m]:
                                continue
                            c = alpha.support()[0]
                            weight = beta[c] / alpha[c] if weighted else 1.0
                            if weight != 0.0:
                                rows.append(orders[m].index(alpha))
                                cols.append(i * len(right) + j)
                                values.append(weight)
                    block = (left[first:first + step, None, :] * right[None]).reshape(-1, width)
                    matrix = csr_matrix((values, (rows, cols)), shape=(len(out), len(block)))
                    hit = np.flatnonzero(np.diff(matrix.indptr))
                    expected[hit] += (matrix @ block)[hit]
                plan.cauchy(out, m, k, left, right, weighted=weighted)
                assert np.array_equal(out.view(np.int64), expected.view(np.int64))

    def test_rejects_repeated_keys_and_missing_sub_indices(self):
        e1 = MultiIndex.unit(1)
        with pytest.raises(ValueError, match="nondecreasing order"):
            SplitPlan([MultiIndex.make({1: 2}), e1])
        with pytest.raises(ValueError, match="distinct"):
            SplitPlan([e1, e1])
        with pytest.raises(LookupError, match="listed before"):
            SplitPlan([e1, MultiIndex.make({1: 1, 2: 1})])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=11), st.integers(min_value=1, max_value=11))
def test_composition_count_property(n, r):
    assert len(compositions(n, r)) == (math.comb(n - 1, r - 1) if r <= n else 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9))
def test_composition_factorial_inequality_property(n, r):
    for comp in compositions(n, r):
        lhs = math.factorial(len(comp))
        for i in comp:
            lhs *= math.factorial(i)
        assert lhs <= math.factorial(n)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4))
def test_multi_index_add_sub_roundtrip(exps):
    a = MultiIndex.make(exps)
    b = MultiIndex.make([e // 2 for e in exps])
    assert (a + b) - b == a
    assert b <= a + b
