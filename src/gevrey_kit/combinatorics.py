"""Exact combinatorial kernels behind the derivative recursion and its bounds.

Integer compositions, multi-index compositions and their unordered form,
set partitions and the little Schroeder numbers, all in exact
(arbitrary-precision) integer arithmetic.  A composition is the plain
tuple of its parts, integers or `MultiIndex` values, and a set partition
the plain tuple of its blocks.  Enumeration orders are deterministic, so
enumerated objects can serve as stable memoization keys elsewhere.
`SplitPlan` numbers a list of multi-indices by position, maps each split
alpha = beta + rest to positions, as integer arrays, and forms the Cauchy
products of series over those positions, the one kernel of every Taylor
fill.  Apart from the plan, which caches its arrays and reductions,
everything here is a pure function over immutable values; the
enumeration generators are single-consumer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from ._scipy_kernels import csr_matvecs

__all__ = [
    "C_KAPPA",
    "MultiIndex",
    "compositions",
    "multi_index_compositions",
    "multi_index_partitions",
    "set_partitions",
    "schroeder_hipparchus",
    "schroeder_hipparchus_sequence",
    "factorial_inequality_check",
    "composition_identity_check",
    "multi_indices_up_to",
    "SplitPlan",
    "kappa_asymptotic_log",
]

#: Growth constant of the little Schroeder numbers: kappa_n <= C_KAPPA**(n-1).
C_KAPPA = 3.0 + math.sqrt(8.0)

#: Largest outer-product block, in bytes, that `SplitPlan.cauchy` forms at
#: once; larger products are formed a few left rows at a time.
_BLOCK_BYTES = 4 << 20


@dataclass(frozen=True)
class MultiIndex:
    """Finitely supported sequence of natural exponents.

    Coordinates are 1-based.  Only nonzero exponents are stored, as
    (coordinate, exponent) pairs with strictly ascending coordinates, so
    instances are canonical, hashable and usable as dictionary keys.

    >>> a = MultiIndex.make({1: 2, 3: 1})
    >>> a.order(), a.factorial(), a.label()
    (3, 2, '2e1+e3')
    """

    entries: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        last = 0
        for k, e in self.entries:
            if k <= last:
                raise ValueError("coordinates must be strictly ascending and >= 1")
            if e < 1:
                raise ValueError("stored exponents must be >= 1")
            last = k
        # Keys are looked up far more often than built, so hash them once.
        object.__setattr__(self, "_hash", hash(self.entries))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def make(exponents: Mapping[int, int] | Sequence[int]) -> "MultiIndex":
        """Build from a {coordinate: exponent} mapping or a dense list [a1, a2, ...]."""
        if isinstance(exponents, Mapping):
            items = exponents.items()
        else:
            items = enumerate(exponents, start=1)
        return MultiIndex(tuple(sorted((int(k), int(e)) for k, e in items if e)))

    @staticmethod
    def unit(k: int) -> "MultiIndex":
        """The k-th unit multi-index e_k."""
        return MultiIndex(((k, 1),))

    def order(self) -> int:
        """Total order |alpha| = sum of exponents."""
        return sum(e for _, e in self.entries)

    def factorial(self) -> int:
        """alpha! = product of the exponent factorials, exact."""
        out = 1
        for _, e in self.entries:
            out *= math.factorial(e)
        return out

    def support(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def __getitem__(self, k: int) -> int:
        for kk, e in self.entries:
            if kk == k:
                return e
        return 0

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        merged = dict(self.entries)
        for k, e in other.entries:
            merged[k] = merged.get(k, 0) + e
        return MultiIndex.make(merged)

    def __sub__(self, other: "MultiIndex") -> "MultiIndex":
        merged = dict(self.entries)
        for k, e in other.entries:
            merged[k] = merged.get(k, 0) - e
            if merged[k] < 0:
                raise ValueError(f"{other} is not dominated by {self}")
        return MultiIndex.make(merged)

    def __le__(self, other: "MultiIndex") -> bool:
        """Componentwise domination (partial order)."""
        return all(e <= other[k] for k, e in self.entries)

    def binom(self, beta: "MultiIndex") -> int:
        """Product of the componentwise binomial coefficients."""
        out = 1
        for k in set(self.support()) | set(beta.support()):
            out *= math.comb(self[k], beta[k])
        return out

    def sub_indices(self) -> Iterator["MultiIndex"]:
        """All beta with 0 <= beta <= self, in a fixed lexicographic order."""
        entries = self.entries
        for combo in itertools.product(*(range(e + 1) for _, e in entries)):
            yield MultiIndex(tuple((k, c) for (k, _), c in zip(entries, combo) if c))

    def label(self) -> str:
        """Human-readable form such as '0', 'e2' or '2e1+e3', formed once per
        instance."""
        label = self.__dict__.get("_label")
        if label is None:
            label = "+".join(f"e{k}" if e == 1 else f"{e}e{k}" for k, e in self.entries) or "0"
            object.__setattr__(self, "_label", label)
        return label


def compositions(n: int, r: int) -> list[tuple[int, ...]]:
    """All ordered r-tuples of positive integers summing to n, lexicographic.

    Returns the empty list when r < 1 or r > n; otherwise the count equals
    binom(n-1, r-1).

    >>> compositions(4, 2)
    [(1, 3), (2, 2), (3, 1)]
    """
    if r < 1 or r > n:
        return []
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for first in range(1, remaining - slots + 2):
            rec(prefix + (first,), remaining - first, slots - 1)

    rec((), n, r)
    return out


def multi_index_compositions(alpha: MultiIndex, r: int) -> list[tuple[MultiIndex, ...]]:
    """All ordered r-tuples of nonzero multi-indices summing to alpha.

    Empty when r < 1 or r > |alpha|.  The enumeration order is fixed by the
    lexicographic order of `MultiIndex.sub_indices`.
    """
    if alpha.is_zero() or r < 1 or r > alpha.order():
        return []
    out: list[tuple[MultiIndex, ...]] = []

    def rec(prefix: tuple[MultiIndex, ...], remaining: MultiIndex, slots: int) -> None:
        if slots == 1:
            if not remaining.is_zero():
                out.append(prefix + (remaining,))
            return
        for beta in remaining.sub_indices():
            if beta.is_zero():
                continue
            rest = remaining - beta
            if rest.order() < slots - 1:
                continue
            rec(prefix + (beta,), rest, slots - 1)

    rec((), alpha, r)
    return out


def multi_index_partitions(alpha: MultiIndex, r: int) -> list[tuple[MultiIndex, ...]]:
    """All multisets of r nonzero multi-indices summing to alpha, each once.

    A multiset is listed as its parts in the order of
    `alpha.sub_indices()`, and the list is lexicographic in that order.
    Each multiset with part multiplicities m_i stands for r!/prod m_i!
    of the ordered compositions of `multi_index_compositions`.  Empty when
    r < 1 or r > |alpha|.
    """
    if alpha.is_zero() or r < 1 or r > alpha.order():
        return []
    candidates = [beta for beta in alpha.sub_indices() if not beta.is_zero()]
    rank = {beta: i for i, beta in enumerate(candidates)}
    out: list[tuple[MultiIndex, ...]] = []

    def rec(prefix: tuple[MultiIndex, ...], remaining: MultiIndex, slots: int,
            start: int) -> None:
        if slots == 1:
            if not remaining.is_zero() and rank[remaining] >= start:
                out.append(prefix + (remaining,))
            return
        for i in range(start, len(candidates)):
            beta = candidates[i]
            if not beta <= remaining:
                continue
            rest = remaining - beta
            if rest.order() < slots - 1:
                continue
            rec(prefix + (beta,), rest, slots - 1, i)

    rec((), alpha, r, 0)
    return out


def set_partitions(n: int, min_blocks: int = 1) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield every partition of {1, ..., n} with at least `min_blocks` blocks.

    A partition is the tuple of its blocks, each block a sorted tuple of
    elements, listed by their smallest element.  Enumeration follows
    restricted-growth strings, so the order is deterministic; the total
    count for min_blocks=1 is the Bell number.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    labels = [0] * n

    def rec(i: int, mx: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if i == n:
            n_blocks = mx + 1
            if n_blocks >= min_blocks:
                blocks: list[list[int]] = [[] for _ in range(n_blocks)]
                for pos, lab in enumerate(labels, start=1):
                    blocks[lab].append(pos)
                yield tuple(tuple(b) for b in blocks)
            return
        for v in range(mx + 2):
            labels[i] = v
            yield from rec(i + 1, max(mx, v))

    yield from rec(1, 0)


def schroeder_hipparchus_sequence(n: int) -> list[int]:
    """First n little Schroeder numbers 1, 1, 3, 11, 45, ..., exact.

    Uses the classical three-term recursion
    (m+1) k_{m+1} = (6m-3) k_m - (m-2) k_{m-1}.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    seq = [1, 1]
    for m in range(2, n):
        num = (6 * m - 3) * seq[-1] - (m - 2) * seq[-2]
        q, rem = divmod(num, m + 1)
        if rem:
            raise ArithmeticError("three-term recursion produced a non-integer")
        seq.append(q)
    return seq[:n]


def schroeder_hipparchus(n: int) -> int:
    """The n-th little Schroeder number (1-based), exact integer."""
    return schroeder_hipparchus_sequence(n)[-1]


def factorial_inequality_check(parts: Sequence[int]) -> bool:
    """True iff r! * prod(i_j!) <= n! for the composition (i_1, ..., i_r) of
    n; raises ValueError unless the parts are a nonempty sequence of positive
    integers."""
    if not parts or any(i < 1 for i in parts):
        raise ValueError("composition parts must be positive integers")
    lhs = math.factorial(len(parts))
    for i in parts:
        lhs *= math.factorial(i)
    return lhs <= math.factorial(sum(parts))


def composition_identity_check(alpha: MultiIndex, r: int) -> bool:
    """Exact check of the multi-index composition identity.

    alpha! * sum over ordered r-part compositions (beta_1, ..., beta_r) of
    alpha of prod_j |beta_j|!/beta_j!  must equal
    |alpha|! * binom(|alpha|-1, r-1).
    """
    if alpha.is_zero() or r < 1 or r > alpha.order():
        raise ValueError("need a nonzero alpha and 1 <= r <= |alpha|")
    lhs = 0
    for comb in multi_index_compositions(alpha, r):
        term = 1
        for beta in comb:
            q, rem = divmod(math.factorial(beta.order()), beta.factorial())
            if rem:
                raise ArithmeticError("multinomial coefficient was not an integer")
            term *= q
        lhs += term
    lhs *= alpha.factorial()
    rhs = math.factorial(alpha.order()) * math.comb(alpha.order() - 1, r - 1)
    return lhs == rhs


def multi_indices_up_to(n_coords: int, max_order: int) -> list[MultiIndex]:
    """All multi-indices with support in {1..n_coords} and order <= max_order.

    Sorted by total order, then lexicographically in `MultiIndex.entries`;
    includes the zero index.  Within one order, a first pair (k, e) comes
    with every tail over the coordinates above k, listed the same way, so
    each tail list is built once and nothing is sorted.
    """
    if n_coords < 1 or max_order < 0:
        raise ValueError("need n_coords >= 1 and max_order >= 0")
    tails = {(k, 0): [()] for k in range(1, n_coords + 2)}

    def entries(first: int, total: int) -> list:
        if (first, total) not in tails:
            tails[first, total] = [((k, e),) + rest for k in range(first, n_coords + 1)
                                   for e in range(1, total + 1) for rest in entries(k + 1, total - e)]
        return tails[first, total]

    return [MultiIndex(e) for total in range(max_order + 1) for e in entries(1, total)]


class SplitPlan:
    """Split plan of a list of keys, built as integer arrays, and the Cauchy
    products of series over the keys (the Taylor fills of `implicit_diff`
    and `pde1d`).

    The keys are numbered by position within their order, in the order
    given, and order 0 holds the zero index alone; a series over the keys,
    and a derivative table, is one array per order with a row per position.
    `keys(m)` lists the keys of order m as `MultiIndex` values,
    `position(alpha)` finds the row of one and `factorials(m)` gives their
    alpha!.  The alpha-coefficient of a product of two series is the Cauchy
    sum over the splits alpha = beta + rest.  Split by the order k of beta,
    the terms of all keys of order m are the outer product of the order-k
    rows of the left series with the order-(m - k) rows of the right one,
    reduced by a 0/1 CSR matrix that sends the pair (beta, rest) to the row
    of beta + rest (`cauchy`, with scipy's compiled `csr_matvecs` from
    `_scipy_kernels`).  `targets(m, k)` gives that row for every pair.  A
    key is coded by its exponents in base max_order + 1, so the code of
    beta + rest is the sum of the codes and a sorted search finds its row.

    The keys must be nonzero.  Raises ValueError for keys not listed by
    nondecreasing order and for a repeated key, and LookupError for a key
    listed before one of its sub-indices.
    """

    def __init__(self, keys: Sequence[MultiIndex]):
        self._keys = [MultiIndex(), *keys]
        self.max_order = keys[-1].order() if keys else 0
        n_coords = max((alpha.support()[-1] for alpha in keys), default=1)
        exps = np.zeros((len(keys) + 1, n_coords), dtype=np.int64)
        for i, alpha in enumerate(keys, start=1):
            for k, e in alpha.entries:
                exps[i, k - 1] = e
        orders = exps.sum(axis=1)
        if np.any(orders[1:] < orders[:-1]):
            raise ValueError("keys must be listed by nondecreasing order")
        self.starts = np.searchsorted(orders, np.arange(self.max_order + 2))
        self.exps = [exps[s:t] for s, t in zip(self.starts[:-1], self.starts[1:])]
        radix = self.max_order + 1
        if radix ** n_coords < 2**62:
            powers = radix ** np.arange(n_coords, dtype=np.int64)
        else:  # codes beyond int64 stay exact as Python integers
            powers = np.array([radix**i for i in range(n_coords)], dtype=object)
        self._codes = [e @ powers for e in self.exps]
        self._sorter = [np.argsort(c, kind="stable") for c in self._codes]
        self._targets: dict[tuple[int, int], np.ndarray] = {}
        self._reductions: dict[tuple, list] = {}
        self._factorials: dict[int, np.ndarray] = {}
        self._rows: dict[MultiIndex, int] | None = None
        for m in range(1, self.max_order + 1):
            codes = self._codes[m][self._sorter[m]]
            if np.any(codes[1:] == codes[:-1]):
                raise ValueError("keys must be distinct")
            if m == 1:
                continue
            # every unit step down from a key is a key: then all of its
            # sub-indices are listed before it
            found = np.bincount(self.targets(m, 1).ravel() + 1, minlength=len(codes) + 1)[1:]
            missing = np.flatnonzero(found < np.count_nonzero(self.exps[m], axis=1))
            if len(missing):
                alpha = keys[self.starts[m] - 1 + missing[0]]
                raise LookupError(f"{alpha.label()} is listed before one of its sub-indices")

    @classmethod
    def up_to(cls, n_coords: int, max_order: int) -> "SplitPlan":
        """The plan of `multi_indices_up_to(n_coords, max_order)`, in its order."""
        return cls(multi_indices_up_to(n_coords, max_order)[1:])

    def keys(self, m: int | None = None) -> list[MultiIndex]:
        """The keys of order m, or all of them from the zero index on."""
        return self._keys if m is None else self._keys[self.starts[m]:self.starts[m + 1]]

    def position(self, alpha: MultiIndex) -> tuple[int, int]:
        """(order, row) of the key alpha; LookupError when it is no key."""
        if self._rows is None:  # built on the first lookup: a fill makes none
            self._rows = {key: i for i, key in enumerate(self._keys)}
        m = alpha.order()
        return m, self._rows[alpha] - int(self.starts[m])

    def factorials(self, m: int) -> np.ndarray:
        """Exact alpha! of the keys of order m (Python integers in an object
        array), formed once per plan."""
        if m not in self._factorials:
            table = np.array([math.factorial(e) for e in range(m + 1)], dtype=object)
            self._factorials[m] = np.prod(table[self.exps[m]], axis=1)
        return self._factorials[m]

    def size(self, m: int) -> int:
        return len(self.exps[m])

    def targets(self, m: int, k: int) -> np.ndarray:
        """Row of beta + rest among the keys of order m for every pair of a
        key beta of order k and a key rest of order m - k, shape
        (size(k), size(m - k)); -1 where beta + rest is not a key."""
        cached = self._targets.get((m, k))
        if cached is None:
            sums = self._codes[k][:, None] + self._codes[m - k][None, :]
            sorter = self._sorter[m]
            pos = np.minimum(np.searchsorted(self._codes[m], sums, sorter=sorter),
                             self.size(m) - 1)
            rows = sorter[pos]
            cached = np.where(self._codes[m][rows] == sums, rows, -1).astype(np.intp)
            self._targets[(m, k)] = cached
        return cached

    def cauchy(self, out: np.ndarray, m: int, k: int, left: np.ndarray,
               right: np.ndarray) -> None:
        """Add to `out`, one row per key of order m, the Cauchy terms that
        pair the order-k rows `left` of one series with the order-(m - k)
        rows `right` of another; all rows have the same width.  At k = 0 or
        k = m one side is the single row of order 0 and broadcasts.

        Outer products larger than `_BLOCK_BYTES` are formed a few left rows
        at a time; the reduction of each block is built once per plan."""
        if k == 0 or k == m:
            out += left * right
            return
        width = right.shape[1]
        step = min(len(left), max(1, _BLOCK_BYTES // (8 * right.size)))  # left rows per block
        key = (m, k, step)
        chunks = self._reductions.get(key)
        if chunks is None:
            chunks = self._reductions[key] = self._reduction(m, k, step)
        for first, stop, hit, indptr, cols, data in chunks:
            block = (left[first:stop, None, :] * right[None, :, :]).reshape(-1, width)
            summed = np.zeros((len(indptr) - 1, width))  # as csr_matrix @ block
            csr_matvecs(len(summed), len(block), width, indptr, cols, data,
                        block.ravel(), summed.ravel())
            out[hit] += summed

    def _reduction(self, m: int, k: int, step: int) -> list[tuple]:
        """Chunks (first, stop, hit, indptr, cols, data) of the reduction of
        `cauchy`, `step` left rows each: the pairs of left rows first:stop,
        in row-major order, go to the output rows `hit` (a slice of all of
        them or their positions) through the 0/1 CSR matrix (indptr, cols,
        data).  Pairs that are no key are dropped."""
        targets = self.targets(m, k)
        n_out = self.size(m)
        chunks = []
        for first in range(0, len(targets), step):
            stop = min(first + step, len(targets))
            rows = targets[first:stop].ravel()
            cols = np.flatnonzero(rows >= 0)
            if not len(cols):
                continue
            counts = np.bincount(rows[cols], minlength=n_out)
            hit = np.flatnonzero(counts)
            order = np.argsort(rows[cols], kind="stable")
            indptr = np.concatenate(([0], np.cumsum(counts[hit])))
            hit = slice(None) if len(hit) == n_out else hit
            chunks.append((first, stop, hit, indptr, cols[order], np.ones(len(cols))))
        return chunks


def kappa_asymptotic_log(n: int) -> float:
    """Natural log of the classical little-Schroeder asymptotic.

    (1/4) * sqrt((sqrt(18) - 4)/pi) * n**(-3/2) * (3 + sqrt(8))**n
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return (
        math.log(0.25)
        + 0.5 * math.log((math.sqrt(18.0) - 4.0) / math.pi)
        - 1.5 * math.log(n)
        + n * math.log(C_KAPPA)
    )
