"""Exact partition combinatorics: hook lengths, the U(n) dimension formula,
binomials.

Everything here is computed in arbitrary-precision integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class Partition:
    """Row lengths of a Young diagram, weakly decreasing, all positive."""

    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("partition needs at least one row")
        if any(r < 1 for r in self.rows):
            raise ValueError(f"row lengths must be positive: {self.rows!r}")
        if any(a < b for a, b in zip(self.rows, self.rows[1:])):
            raise ValueError(f"rows must be weakly decreasing: {self.rows!r}")

    @property
    def cells(self) -> int:
        return sum(self.rows)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @classmethod
    def two_row(cls, total: int, k: int) -> "Partition":
        """The diagram with ``total - k`` cells on top of ``k`` (a single
        row when k = 0)."""
        if not 0 <= k <= total - k:
            raise ValueError(f"need 0 <= k <= {total}-k, got k={k}")
        return cls((total,)) if k == 0 else cls((total - k, k))


def hook_lengths(p: Partition) -> list[list[int]]:
    """Hook length of every cell: 1 + cells to the right + cells below."""
    grid = []
    for i, row_len in enumerate(p.rows):
        row = []
        for j in range(row_len):
            arm = row_len - j - 1
            leg = sum(1 for r in p.rows[i + 1:] if r > j)
            row.append(arm + leg + 1)
        grid.append(row)
    return grid


@lru_cache(maxsize=256)
def _hook_product(p: Partition) -> int:
    """The product of the hook lengths of ``p``; it does not depend on n."""
    return math.prod(math.prod(row) for row in hook_lengths(p))


def unitary_dim(p: Partition, n: int) -> int:
    """Number of Weyl tableaux of shape ``p`` with entries in 1..n (Robinson
    formula); equals the U(n) irrep dimension.  Zero when the diagram has
    more rows than ``n``."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if p.num_rows > n:
        return 0
    numerator = 1
    for i, row_len in enumerate(p.rows):
        for j in range(row_len):
            numerator *= n - i + j
    quotient, remainder = divmod(numerator, _hook_product(p))
    assert remainder == 0, f"Robinson product not integral for {p}, n={n}"
    return quotient


def binomial(a: int, b: int) -> int:
    """C(a, b) with the out-of-range convention C(a, b) = 0 for b < 0 or
    b > a."""
    if a < 0:
        raise ValueError(f"need a >= 0, got {a}")
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)
