import random

import numpy as np
import pytest

from hibires.errors import UnsupportedField
from hibires.linalg import rank_bareiss, rank_exact, rank_mod_p, rank_sparse_int


def to_sparse(dense):
    return [{c: v for c, v in enumerate(row) if v} for row in dense]


class TestKnownMatrices:
    def test_empty(self):
        assert rank_bareiss([]) == 0
        assert rank_sparse_int([]) == 0
        assert rank_exact([], 0) == 0

    def test_identity(self):
        eye = [[1, 0], [0, 1]]
        assert rank_bareiss(eye) == 2
        assert rank_sparse_int(to_sparse(eye)) == 2

    def test_rank_deficient(self):
        a = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
        assert rank_bareiss(a) == 2
        assert rank_sparse_int(to_sparse(a)) == 2

    def test_explicit_zero_entries_ignored(self):
        rows = [{1: 0, 2: 0, 3: 3}, {0: 1}, {1: 2}, {2: 0, 3: 1}]
        assert rank_sparse_int(rows) == 3

    def test_mod_p_differs_from_q(self):
        a = [[2, 0], [0, 1]]
        assert rank_exact(to_sparse(a), 2, "Q") == 2
        assert rank_mod_p(to_sparse(a), 2, 2) == 1


    @pytest.mark.parametrize("p", [4, 9, 1, 0, 4294967311])
    def test_unsupported_field_refused(self, p):
        # 4294967311 is prime, but its residue products overflow int64
        with pytest.raises(UnsupportedField):
            rank_exact(to_sparse([[2, 0], [0, 1]]), 2, p)
        with pytest.raises(UnsupportedField):
            rank_exact([], 0, p)

    def test_largest_supported_prime_is_exact(self):
        p = 2147483647
        x = p - 1
        assert rank_exact([{0: 1, 1: x}, {0: x, 1: x * x % p}], 2, p) == 1


class TestCrossValidation:
    @pytest.mark.parametrize("trial", range(50))
    def test_random_small_integer_matrices(self, trial):
        rng = random.Random(1000 + trial)
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        dense = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        expected = np.linalg.matrix_rank(np.array(dense, dtype=float))
        assert rank_bareiss(dense) == expected
        assert rank_sparse_int(to_sparse(dense)) == expected
        # a large prime avoids characteristic accidents at these sizes
        assert rank_mod_p(to_sparse(dense), n, 32749) == expected
