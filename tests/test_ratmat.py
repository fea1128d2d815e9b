"""ratmat's integer kernels against the Fraction field elimination oracle."""

import copy
import random
from fractions import Fraction as F

import pytest

import ndscope.ratmat as rm
from helpers import (
    field_det, field_inv, field_left_null_space, field_matmul,
    field_null_space, field_rank, field_rref, field_solve, rand_ratfunmat,
)

P = 2 ** 61 - 1


def rand_entry(rng, bits=8, den=6, density=0.7):
    if rng.random() > density:
        return F(0)
    return F(rng.randint(-2 ** bits, 2 ** bits), rng.randint(1, den))


def rand_matrix(rng, rows, cols, rank=None, **kw):
    """Random rows x cols matrix; with ``rank`` the product of random
    rows x rank and rank x cols factors."""
    if rank is None:
        return [[rand_entry(rng, **kw) for _ in range(cols)]
                for _ in range(rows)]
    if rank == 0:
        return [[F(0)] * cols for _ in range(rows)]
    kw["density"] = 1.0     # dense factors have full rank
    return field_matmul(rand_matrix(rng, rows, rank, **kw),
                        rand_matrix(rng, rank, cols, **kw))


def assert_all_ops_match(m, cols):
    """Every Q kernel equals the oracle on m, and leaves m untouched."""
    before = copy.deepcopy(m)
    q = [[F(x) for x in row] for row in m]
    got_rref = rm.rref(m, cols)
    assert got_rref == field_rref(q, cols)
    assert all(type(x) is F for row in got_rref[0] for x in row)
    assert rm.rank(m, cols) == field_rank(q, cols)
    assert rm.null_space(m, cols) == field_null_space(q, cols)
    assert rm.left_null_space(m, cols) == field_left_null_space(q, cols)
    if len(m) == cols:
        assert rm.det(m) == field_det(q)
        want = field_inv(q)
        if want is None:
            with pytest.raises(rm.SingularMatrixError):
                rm.inv(m)
        else:
            assert rm.inv(m) == want
    assert m == before


SHAPES = [(0, 3), (3, 0), (0, 0), (1, 1), (4, 4), (6, 6), (12, 3), (3, 12),
          (9, 5), (5, 9)]


class TestAgainstOracle:
    @pytest.mark.parametrize("rows,cols", SHAPES)
    def test_random_shapes(self, rows, cols):
        rng = random.Random(rows * 31 + cols)
        for _ in range(8):
            assert_all_ops_match(rand_matrix(rng, rows, cols), cols)

    @pytest.mark.parametrize("rows,cols,rank", [
        (5, 5, 3), (7, 4, 2), (4, 7, 3), (6, 6, 0), (8, 8, 7), (10, 3, 1)])
    def test_rank_deficient(self, rows, cols, rank):
        rng = random.Random(rows * 100 + cols * 10 + rank)
        for _ in range(5):
            m = rand_matrix(rng, rows, cols, rank=rank)
            assert rm.rank(m, cols) == rank
            assert_all_ops_match(m, cols)

    def test_sparse_rows_need_scaling(self):
        # rows with a zero in the pivot column at some step: the f = 0
        # branch of the elimination
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(3, 7)
            assert_all_ops_match(rand_matrix(rng, n, n, density=0.4), n)

    def test_thousand_bit_entries(self):
        rng = random.Random(11)
        for rows, cols in ((4, 4), (6, 3), (3, 6), (5, 5)):
            m = rand_matrix(rng, rows, cols, bits=1100, den=2 ** 1000)
            assert max(abs(x.numerator).bit_length()
                       for row in m for x in row) >= 1000
            assert_all_ops_match(m, cols)
            deficient = rand_matrix(rng, rows, cols, rank=2, bits=1000,
                                    den=2 ** 600)
            assert_all_ops_match(deficient, cols)

    def test_ints_mixed_with_fractions(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(1, 6)
            m = [[rng.randint(-9, 9) if rng.random() < 0.5
                  else rand_entry(rng) for _ in range(n)] for _ in range(n)]
            assert_all_ops_match(m, n)
            assert type(rm.det(m)) is F

    def test_solve(self):
        rng = random.Random(17)
        for _ in range(20):
            n, k = rng.randint(0, 6), rng.randint(0, 3)
            a = rand_matrix(rng, n, n, density=0.6)
            b = rand_matrix(rng, n, k)
            want = field_solve(a, b)
            if want is None:
                with pytest.raises(rm.SingularMatrixError):
                    rm.solve(a, b)
            else:
                assert rm.solve(a, b) == want

    def test_matmul(self):
        rng = random.Random(19)
        for rows, inner, cols in ((0, 3, 2), (3, 0, 2), (3, 2, 0), (1, 1, 1),
                                  (4, 5, 3), (7, 2, 6)):
            for _ in range(5):
                a = [[rng.randint(-5, 5) if rng.random() < 0.3
                      else rand_entry(rng, bits=1000, den=2 ** 900)
                      for _ in range(inner)] for _ in range(rows)]
                b = rand_matrix(rng, inner, cols, density=0.5)
                got = rm.matmul(a, b, inner=inner)
                assert got == field_matmul(a, b)
                assert all(type(x) is F for row in got for x in row)

    def test_empty_results(self):
        assert rm.rref([], cols=3) == ([], [])
        assert rm.rank([], cols=3) == 0
        assert rm.null_space([], cols=2) == [[F(1), F(0)], [F(0), F(1)]]
        assert rm.null_space([[], []]) == []
        assert rm.left_null_space([[], []]) == [[F(1), F(0)], [F(0), F(1)]]
        assert rm.det([]) == 1
        assert rm.inv([]) == []
        assert rm.matmul([], [[F(1)]], inner=1) == []

    def test_det_sign_under_row_swaps(self):
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(2, 6)
            m = rand_matrix(rng, n, n, density=0.5)
            d = rm.det(m)
            assert d == field_det(m)
            i, j = rng.sample(range(n), 2)
            swapped = list(m)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            assert rm.det(swapped) == -d
        # a pivot search that must swap: zero leading entries
        assert rm.det([[0, 1], [1, 0]]) == -1
        assert rm.det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
        assert rm.det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1


class TestOverRationalFunctions:
    def test_rref_det_inv(self):
        rng = random.Random(29)
        for _ in range(12):
            n = rng.randint(1, 3)
            m = rand_ratfunmat(rng, n, n).entries
            if n > 1 and rng.random() < 0.3:
                m[-1] = list(m[0])
            before = copy.deepcopy(m)
            assert rm.rref(m) == field_rref(m)
            assert rm.rank(m) == field_rank(m)
            assert rm.det(m) == field_det(m)
            want = field_inv(m)
            if want is None:
                with pytest.raises(rm.SingularMatrixError):
                    rm.inv(m)
            else:
                assert rm.inv(m) == want
            assert m == before

    def test_wide_rref(self):
        rng = random.Random(31)
        for rows, cols in ((2, 4), (3, 2)):
            m = rand_ratfunmat(rng, rows, cols).entries
            assert rm.rref(m) == field_rref(m)


class TestFullRankCertificate:
    """Matrices whose rank drops modulo the certificate's prime."""

    @pytest.mark.parametrize("m,want", [
        ([[P]], 1),
        ([[1, 1], [1, 1 + P]], 2),
        ([[F(P, 3), F(2 * P, 5)]], 1),
        ([[P], [2 * P], [F(P, 7)]], 1),
        ([[1, 2, 3], [2, 4, 6 + P]], 2),
    ])
    def test_exact_rank_where_mod_p_rank_drops(self, m, want):
        ints, _ = rm._cleared(m)
        assert rm._eliminate_mod_p(ints, len(m[0]), jordan=False) is None
        assert rm.rank(m) == want == field_rank(m)

    def test_det_multiple_of_p(self):
        assert rm.det([[1, 1], [1, 1 + P]]) == P
        assert rm.det([[P]]) == P

    def test_certificate_on_full_rank(self):
        rng = random.Random(37)
        for rows, cols in ((6, 3), (3, 6), (5, 5)):
            m = rand_matrix(rng, rows, cols, density=1.0, bits=200)
            ints, _ = rm._cleared(m)
            assert rm._eliminate_mod_p(ints, cols, jordan=False) is not None
            assert rm.rank(m) == min(rows, cols)


class TestCertifiedSolve:
    """solve_certified equals field_solve; ``fallbacks`` counts the calls
    it hands to ratmat.solve."""

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        calls = []
        monkeypatch.setattr(rm, "solve", lambda a, b, _f=rm.solve:
                            calls.append(1) or _f(a, b))
        return calls

    def test_small_solutions_need_no_fallback(self, fallbacks):
        rng = random.Random(41)
        for _ in range(30):
            n, k = rng.randint(0, 6), rng.randint(0, 3)
            a = rand_matrix(rng, n, n, density=1.0)
            x = [[F(rng.randint(-99, 99), rng.randint(1, 99))
                  for _ in range(k)] for _ in range(n)]
            b = field_matmul(a, x)
            if field_solve(a, b) is None:
                continue
            got = rm.solve_certified(a, b)
            assert got == field_solve(a, b) == x
            assert all(type(v) is F for row in got for v in row)
        assert not fallbacks

    def test_random_against_oracle(self):
        rng = random.Random(43)
        for _ in range(30):
            n, k = rng.randint(1, 6), rng.randint(0, 3)
            a = rand_matrix(rng, n, n, density=0.6)
            b = rand_matrix(rng, n, k)
            want = field_solve(a, b)
            if want is None:
                with pytest.raises(rm.SingularMatrixError):
                    rm.solve_certified(a, b)
            else:
                assert rm.solve_certified(a, b) == want

    @pytest.mark.parametrize("a,b", [
        ([[P]], [[1]]),
        ([[1, 1], [1, 1 + P]], [[1, 0], [0, 1]]),
        ([[F(P, 3), 1], [0, 1]], [[2], [F(1, 2)]]),
    ])
    def test_singular_mod_p(self, a, b, fallbacks):
        assert rm.solve_certified(a, b) == field_solve(a, b)
        assert len(fallbacks) == 1

    def test_beyond_lift_bound(self, fallbacks):
        rng = random.Random(47)
        a = rand_matrix(rng, 4, 4, density=1.0)
        x = [[F(rng.randint(1, 2 ** 20), 2 ** 40 + rng.randint(1, 99))
              for _ in range(2)] for _ in range(4)]
        assert rm.solve_certified(a, field_matmul(a, x)) == x
        assert len(fallbacks) == 1

    def test_wrong_lift_caught_by_exact_product(self, fallbacks):
        # x = P + 1 is 1 mod P: the lift 1 fails a x = b over Q
        assert rm.solve_certified([[1]], [[P + 1]]) == [[F(P + 1)]]
        assert len(fallbacks) == 1

    @pytest.mark.parametrize("a", [[[0]], [[1, 2], [2, 4]],
                                   [[1, 0, 1], [0, 1, 1], [1, 1, 2]]])
    def test_singular_raises(self, a):
        with pytest.raises(rm.SingularMatrixError):
            rm.solve_certified(a, [[1] for _ in a])

    def test_zero_columns(self, fallbacks):
        a = [[F(1), F(2)], [F(3), F(5)]]
        want = rm.solve(a, [[], []])
        assert rm.solve_certified(a, [[], []]) == [[], []] == want
        assert rm.solve_certified([], []) == []
        assert len(fallbacks) == 1     # the direct call above
