"""Partition dimension formulas against explicit tableau enumeration."""

from itertools import permutations, product

import pytest

from qudisc.combinatorics import Partition, binomial, hook_lengths, unitary_dim


def shapes(total: int) -> list[Partition]:
    """Every Young diagram with ``total`` cells."""

    def rows(remaining: int, longest: int):
        if remaining == 0:
            yield ()
        for first in range(min(remaining, longest), 0, -1):
            for rest in rows(remaining - first, first):
                yield (first,) + rest

    return [Partition(r) for r in rows(total, total)]


def standard_tableaux_count(shape: Partition) -> int:
    """Brute-force count of standard Young tableaux: fillings of 1..n that
    increase along rows and down columns."""
    cells = [(r, c) for r, row in enumerate(shape.rows) for c in range(row)]
    count = 0
    for perm in permutations(range(1, shape.cells + 1)):
        filling = dict(zip(cells, perm))
        ok = all(
            filling[(r, c)] < filling[(r, c + 1)]
            for r, c in cells
            if (r, c + 1) in filling
        ) and all(
            filling[(r, c)] < filling[(r + 1, c)]
            for r, c in cells
            if (r + 1, c) in filling
        )
        count += ok
    return count


def semistandard_tableaux_count(shape: Partition, n: int) -> int:
    """Brute-force count of semistandard tableaux with entries 1..n:
    weakly increasing along rows, strictly down columns."""
    cells = [(r, c) for r, row in enumerate(shape.rows) for c in range(row)]
    count = 0
    for values in product(range(1, n + 1), repeat=len(cells)):
        filling = dict(zip(cells, values))
        ok = all(
            filling[(r, c)] <= filling[(r, c + 1)]
            for r, c in cells
            if (r, c + 1) in filling
        ) and all(
            filling[(r, c)] < filling[(r + 1, c)]
            for r, c in cells
            if (r + 1, c) in filling
        )
        count += ok
    return count


class TestPartition:
    def test_rejects_non_decreasing_rows(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_nonpositive_rows(self):
        with pytest.raises(ValueError):
            Partition((2, 0))

    def test_two_row_shapes(self):
        assert Partition.two_row(5, 2).rows == (3, 2)
        assert Partition.two_row(5, 0).rows == (5,)
        with pytest.raises(ValueError):
            Partition.two_row(5, 3)  # second row longer than first

    def test_cells_and_rows(self):
        p = Partition((4, 2, 1))
        assert p.cells == 7
        assert p.num_rows == 3


def test_hook_lengths_classic_shape():
    # worked instance, checkable by hand on the Young diagram of (3, 2)
    assert hook_lengths(Partition((3, 2))) == [[4, 3, 1], [2, 1]]


@pytest.mark.parametrize("total,n", list(product(range(1, 7), range(2, 5))))
def test_unitary_dim_counts_semistandard_tableaux(total, n):
    for shape in shapes(total):
        assert unitary_dim(shape, n) == semistandard_tableaux_count(shape, n)


@pytest.mark.parametrize("total,n", list(product(range(1, 7), range(2, 5))))
def test_schur_weyl_dimension_sum(total, n):
    # tensor space dimension decomposes over pairs of irreducible blocks;
    # the symmetric-group dimensions are counted by brute force
    assert (
        sum(
            standard_tableaux_count(shape) * unitary_dim(shape, n)
            for shape in shapes(total)
        )
        == n**total
    )


def test_unitary_dim_single_row_is_multiset_count():
    for m in range(1, 7):
        for n in range(2, 6):
            assert unitary_dim(Partition((m,)), n) == binomial(n + m - 1, m)


def test_unitary_dim_zero_when_too_many_rows():
    assert unitary_dim(Partition((2, 1, 1)), 2) == 0


class TestBinomial:
    def test_small_table(self):
        assert binomial(5, 2) == 10
        assert binomial(5, 0) == 1
        assert binomial(5, 5) == 1

    def test_out_of_range_is_zero(self):
        assert binomial(3, 4) == 0
        assert binomial(3, -1) == 0

    def test_negative_row_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)
