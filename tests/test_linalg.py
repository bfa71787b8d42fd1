import random
import subprocess
from itertools import combinations
import sys
from pathlib import Path

import pytest

import hibires
from hibires import linalg
from hibires.errors import ConsistencyError, UnsupportedField
from hibires.linalg import homology_ranks, rank_exact

PRIMES = [2, 3, 32749, 2**31 - 1]


def rank_bareiss(rows):
    """Rank over Q of a dense integer matrix via Bareiss fraction-free
    elimination: the reference for rank_exact over Q."""
    a = [list(map(int, r)) for r in rows]
    if not a or not a[0]:
        return 0
    m, n = len(a), len(a[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, m) if a[r][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        pivot = a[row][col]
        arow = a[row]
        for r in range(row + 1, m):
            ar = a[r]
            factor = ar[col]
            for c in range(col, n):
                ar[c] = (pivot * ar[c] - factor * arow[c]) // prev
        prev = pivot
        rank += 1
        row += 1
        if row == m:
            break
    return rank


def rank_dense_mod_p(rows, p):
    """Rank over F_p of a dense integer matrix by row reduction in column
    order: the reference for rank_exact over F_p."""
    a = [[v % p for v in r] for r in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [v * inv % p for v in a[rank]]
        for r in range(rank + 1, len(a)):
            f = a[r][col]
            if f:
                a[r] = [(v - f * w) % p for v, w in zip(a[r], a[rank])]
        rank += 1
    return rank


def to_sparse(dense):
    return [{c: v for c, v in enumerate(row) if v} for row in dense]


class TestKnownMatrices:
    def test_empty(self):
        assert rank_bareiss([]) == 0
        assert rank_exact([]) == 0
        assert rank_exact([{}, {}], field=2) == 0

    def test_identity(self):
        eye = [[1, 0], [0, 1]]
        assert rank_bareiss(eye) == 2
        assert rank_exact(to_sparse(eye)) == 2

    def test_rank_deficient(self):
        a = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
        assert rank_bareiss(a) == 2
        assert rank_exact(to_sparse(a)) == 2

    def test_explicit_zero_entries_ignored(self):
        rows = [{1: 0, 2: 0, 3: 3}, {0: 1}, {1: 2}, {2: 0, 3: 1}]
        assert rank_exact(rows) == 3
        assert rank_exact(rows, field=2) == 2

    def test_mod_p_differs_from_q(self):
        a = [[2, 0], [0, 1]]
        assert rank_exact(to_sparse(a), field="Q") == 2
        assert rank_exact(to_sparse(a), field=2) == 1

    def test_input_rows_unchanged(self):
        rows = [{0: 2, 1: 4}, {0: 3, 1: 5}, {1: 7}]
        before = [dict(r) for r in rows]
        for field in ["Q", *PRIMES]:
            rank_exact(rows, field=field)
        assert rows == before

    def test_field_is_keyword_only(self):
        with pytest.raises(TypeError):
            rank_exact(to_sparse([[2, 0], [0, 1]]), 2)

    @pytest.mark.parametrize("p", [4, 9, 1, 0, 4294967311])
    def test_unsupported_field_refused(self, p):
        # 4294967311 is prime, but above the supported characteristics
        with pytest.raises(UnsupportedField):
            rank_exact(to_sparse([[2, 0], [0, 1]]), field=p)
        with pytest.raises(UnsupportedField):
            rank_exact([], field=p)

    def test_largest_supported_prime_is_exact(self):
        p = 2147483647
        x = p - 1
        assert rank_exact([{0: 1, 1: x}, {0: x, 1: x * x % p}], field=p) == 1


class TestCrossValidation:
    @pytest.mark.parametrize("trial", range(50))
    def test_random_small_integer_matrices(self, trial):
        rng = random.Random(1000 + trial)
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        dense = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        assert rank_exact(to_sparse(dense)) == rank_bareiss(dense)
        for p in PRIMES:
            assert rank_exact(to_sparse(dense), field=p) == rank_dense_mod_p(dense, p)

    @pytest.mark.parametrize("p", PRIMES)
    def test_rank_drops_mod_p(self, p):
        # row 1 is p times a vector and rows 2 and 3 agree mod p, so the
        # rank over F_p is at most n - 2
        rng = random.Random(p)
        for _ in range(20):
            n = rng.randint(3, 7)
            base = [rng.randint(-p, p) for _ in range(n)]
            shift = [p * rng.randint(1, 2) for _ in range(n)]
            dense = [
                [p * v for v in base[::-1]],
                base,
                [b + s for b, s in zip(base, shift)],
            ] + [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n - 3)]
            q_rank = rank_bareiss(dense)
            p_rank = rank_dense_mod_p(dense, p)
            assert rank_exact(to_sparse(dense)) == q_rank
            assert rank_exact(to_sparse(dense), field=p) == p_rank
            assert p_rank < q_rank


def closure(facets):
    """The simplicial complex generated by facets, empty face included, as
    cells {dimension: sorted vertex tuples}."""
    faces = set()
    for facet in facets:
        for k in range(len(facet) + 1):
            faces.update(combinations(sorted(facet), k))
    cells = {}
    for f in sorted(faces):
        cells.setdefault(len(f) - 1, []).append(f)
    return cells


def face_boundary(d, face):
    """The simplicial boundary of a vertex tuple, with a trailing extra
    field that homology_ranks must ignore."""
    for k in range(len(face)):
        yield face[:k] + face[k + 1:], (-1) ** k, "extra"


# the 6-vertex triangulation of the real projective plane
RP2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5), (1, 2, 4),
       (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]


class TestHomologyRanks:
    def test_circle(self):
        cells = closure([(0, 1), (1, 2), (0, 2)])
        assert homology_ranks(cells, face_boundary) == {1: 1}

    def test_sphere(self):
        cells = closure(combinations(range(4), 3))
        assert homology_ranks(cells, face_boundary) == {2: 1}

    def test_void_and_empty_complexes(self):
        assert homology_ranks({}, face_boundary) == {}
        assert homology_ranks({-1: [()]}, face_boundary) == {-1: 1}

    def test_empty_degree(self, monkeypatch):
        # a zero space between two nonzero ones, and an empty top degree:
        # no matrix there is ranked
        calls = []
        monkeypatch.setattr(
            linalg, "rank_exact", lambda rows, **kw: calls.append(rows) or 0
        )
        cells = {0: ["a", "b"], 1: [], 2: ["c"], 3: []}
        assert homology_ranks(cells, lambda d, c: ()) == {0: 2, 2: 1}
        assert calls == []

    def test_truncated_complex(self):
        # the sphere's degrees 0..2 only: degree 0 gets no boundary, so H_0
        # is the vertex count minus the edge rank, and H_1, H_2 are exact
        cells = closure(combinations(range(4), 3))
        kept = {d: cells[d] for d in (0, 1, 2)}
        assert homology_ranks(kept, face_boundary) == {0: 1, 2: 1}

    def test_missing_face_raises(self):
        cells = closure([(0, 1)])
        cells[0].remove((1,))
        with pytest.raises(ConsistencyError, match="no cell of degree 0"):
            homology_ranks(cells, face_boundary)

    def test_two_torsion(self):
        # H_1(RP^2; Z) = Z/2: invisible over Q and F_3, one dimension in
        # H_1 and (by universal coefficients) H_2 over F_2
        cells = closure(RP2)
        assert [len(cells[d]) for d in range(-1, 3)] == [1, 6, 15, 10]
        assert homology_ranks(cells, face_boundary) == {}
        assert homology_ranks(cells, face_boundary, field=3) == {}
        assert homology_ranks(cells, face_boundary, field=2) == {1: 1, 2: 1}

    def test_unsupported_field_refused_without_a_matrix(self):
        with pytest.raises(UnsupportedField):
            homology_ranks({0: ["a"]}, face_boundary, field=4)


def test_import_loads_no_numpy():
    src = str(Path(hibires.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import hibires; "
        "print('numpy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
