import copy
import random
from fractions import Fraction as F

import pytest

import ndscope.ratmat as rm
from helpers import (
    euclid_gcd, field_det, field_inv, field_poly_det, field_poly_solve,
    field_rank, fraction_divmod, fraction_mul, rand_poly, rand_polymat,
    rand_ratfunmat, rand_unimodular,
)
from ndscope.polymat import (
    NEG_INF, BrokenInvariant, NotUnimodular, Poly, PolyMat, RatFun, RatFunMat, S,
    _add_mul, _ints, is_coprime_right, normal_rank, poly_gcd, poly_lcm,
    proper_split, rank_at_point, right_coprime_mfd, smith_form,
    smith_mcmillan, unimodular_inverse,
)


def P(*coeffs):
    return Poly(coeffs)


class TestPoly:
    def test_trailing_zeros_stripped(self):
        assert P(1, 2, 0, 0).coeffs == (F(1), F(2))
        assert P(0, 0).coeffs == ()

    def test_zero_degree_is_minus_infinity(self):
        assert Poly().degree == NEG_INF
        assert P(5).degree == 0
        assert P(0, 1).degree == 1

    def test_arithmetic(self):
        a = P(1, 1)       # 1 + s
        b = P(-1, 1)      # -1 + s
        assert a * b == P(-1, 0, 1)
        assert a + b == P(0, 2)
        assert a - a == Poly()

    def test_divmod(self):
        # s^2 + 1 = (s - 1)(s + 1) + 2
        q, r = divmod(P(1, 0, 1), P(1, 1))
        assert q == P(-1, 1)
        assert r == P(2)

    def test_divmod_exact(self):
        a = P(18, 9, 1)
        q, r = divmod(a, P(3, 1))
        assert r.is_zero and q == P(6, 1)

    def test_eval(self):
        p = P(18, 9, 1)
        assert p(F(-3)) == 0
        assert p(F(1)) == 28
        assert abs(p(1j) - (17 + 9j)) < 1e-12

    def test_monic(self):
        assert P(4, 2).monic() == P(2, 1)


def kernel_poly(rng, bits):
    """Zero, a constant or degree <= 5 with ``bits``-bit numerators and
    denominators, leading coefficient of either sign."""
    kind = rng.randrange(5)
    if kind == 0:
        return Poly()
    deg = 0 if kind == 1 else rng.randint(1, 5)
    top = 1 << bits
    coeffs = [F(rng.randint(-top, top), rng.randint(1, top))
              for _ in range(deg + 1)]
    coeffs[-1] = coeffs[-1] or F(rng.choice([-1, 1]))
    return Poly(coeffs)


class TestIntegerKernels:
    """The integer kernels equal the Fraction loops they replaced."""

    @pytest.mark.parametrize("bits", [2, 40, 1000])
    def test_product_equals_fraction_loop(self, bits):
        rng = random.Random(bits)
        for _ in range(60):
            a, b = kernel_poly(rng, bits), kernel_poly(rng, bits)
            got = a * b
            assert got == fraction_mul(a, b) == b * a
            assert all(type(c) is F for c in got.coeffs)
            assert a * 3 == fraction_mul(a, P(3))

    @pytest.mark.parametrize("bits", [2, 40, 1000])
    def test_gcd_equals_euclid(self, bits):
        rng = random.Random(100 + bits)
        seen = set()
        for _ in range(10 if bits >= 1000 else 40):
            a, b, c = (kernel_poly(rng, bits) for _ in range(3))
            pairs = [(a, b), (a * c, b * c), (a, P(F(-7, 3))), (a, Poly())]
            for x, y in pairs:
                g = poly_gcd(x, y)
                assert g == euclid_gcd(x, y) == poly_gcd(y, x)
                seen.add("common" if g.degree > 0 else "coprime"
                         if not g.is_zero else "zero")
        assert seen == {"common", "coprime", "zero"}

    @staticmethod
    def canonical(p):
        return (all(type(c) is F for c in p.coeffs)
                and (not p.coeffs or p.coeffs[-1] != 0))

    def division_pairs(self, rng, bits, count):
        """At least ``count`` random draws (a, b), b != 0, each with a b
        and a b + c, until every shape the kernel branches on was drawn:
        a zero dividend, a constant divisor, deg a < deg b, a negative
        leading coefficient on either side and an exact division."""
        shapes = set()
        while count > 0 or len(shapes) < 6:
            a, b, c = (kernel_poly(rng, bits) for _ in range(3))
            if b.is_zero:
                continue
            count -= 1
            shapes.update(k for k, hit in (
                ("zero", a.is_zero), ("constant", b.degree == 0),
                ("short", 0 <= a.degree < b.degree),
                ("negative a", a and a.leading < 0),
                ("negative b", b.degree > 0 and b.leading < 0),
                ("exact", a and b.degree > 0)) if hit)
            yield from ((a, b), (a * b, b), (a * b + c, b))

    @pytest.mark.parametrize("bits", [2, 40, 1000])
    def test_divmod_and_divides_equal_fraction_loop(self, bits):
        rng = random.Random(200 + bits)
        for a, b in self.division_pairs(rng, bits, 20 if bits >= 1000
                                        else 60):
            q, r = divmod(a, b)
            assert (q, r) == fraction_divmod(a, b)
            assert self.canonical(q) and self.canonical(r)
            assert (a // b, a % b) == (q, r)
            assert b.divides(a) == r.is_zero
            assert Poly().divides(a) == a.is_zero
        assert P(0, 1).divides(P(0, 0, 3)) and not P(1, 1).divides(P(1))
        assert P(F(-2, 3)).divides(P(5, 7)) and Poly().divides(Poly())

    @pytest.mark.parametrize("bits", [2, 40, 1000])
    def test_fused_update_equals_product_and_sum(self, bits):
        rng = random.Random(400 + bits)
        for _ in range(20 if bits >= 1000 else 60):
            x, q, y = (kernel_poly(rng, bits) for _ in range(3))
            q = q or P(F(-5, 7))
            got = _add_mul(x, _ints(q.coeffs), y)
            assert got == x + fraction_mul(q, y)
            assert self.canonical(got)
            # x = -q y cancels to the zero polynomial
            assert _add_mul(-(q * y), _ints(q.coeffs), y) == Poly()

    def test_division_edge_cases(self):
        b = P(F(1, 2), -3)                     # -3 s + 1/2
        assert divmod(Poly(), b) == (Poly(), Poly())
        assert divmod(P(4), b) == (Poly(), P(4))
        assert divmod(P(1, 2, 3), P(F(-2, 5))) == (
            P(F(-5, 2), -5, F(-15, 2)), Poly())
        # (s^2 - 1) / (-3 s + 1/2): q = -s/3 - 1/18, r = -35/36
        assert divmod(P(-1, 0, 1), b) == (P(F(-1, 18), F(-1, 3)),
                                          P(F(-35, 36)))
        assert divmod(P(-1, 0, 1) * b, b) == (P(-1, 0, 1), Poly())

    def test_gcd_negative_leading_and_ratfun(self):
        # -2 (s - 2)(s - 3) and (s - 3)(1 + s/2)
        a, b = P(6, -5, 1) * P(-2), P(-3, 1) * P(1, F(1, 2))
        assert poly_gcd(a, b) == P(-3, 1)
        r = RatFun(a, b)
        assert (r.num, r.den) == (P(8, -4), P(2, 1))

    def test_det_equals_field_route(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = rand_polymat(rng, n, n, max_deg=3)
            if rng.random() < 0.25:
                m.entries[-1] = list(m.entries[0])    # singular
            elif rng.random() < 0.5:
                m.entries[0][0] = Poly()              # a row swap
            assert m.det() == field_poly_det(m)
        assert PolyMat.zeros(0, 0).det() == P(1)
        assert PolyMat(2, 2, [[Poly(), S], [P(1), P(2)]]).det() == P(0, -1)

    def test_solve_equals_field_route(self):
        rng = random.Random(6)
        done = 0
        while done < 30:
            n = rng.randint(1, 4)
            den = rand_polymat(rng, n, n, max_deg=2)
            b = rand_polymat(rng, n, rng.randint(1, 3), max_deg=2)
            if rng.random() < 0.3:
                den.entries[0][0] = Poly()            # a row swap
            if den.det().is_zero:
                with pytest.raises(rm.SingularMatrixError):
                    den.solve(b)
                continue
            assert den.solve(b) == field_poly_solve(den, b)
            done += 1

    def test_unimodular_inverse_equals_field_route(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(1, 4)
            u = rand_unimodular(rng, n, ops=8)
            want = field_poly_solve(u, PolyMat.identity(n)).to_polymat()
            assert unimodular_inverse(u) == want


class TestGridMatConstructors:
    @pytest.mark.parametrize("cls,kind", [(PolyMat, Poly),
                                          (RatFunMat, RatFun)])
    def test_entries_keep_their_type(self, cls, kind):
        def entry(*coeffs):
            return RatFun(P(*coeffs)) if kind is RatFun else P(*coeffs)
        one, zero = entry(1), entry()
        for m, want in ((cls.identity(2), [[one, zero], [zero, one]]),
                        (cls.zeros(1, 2), [[zero, zero]]),
                        (cls.from_scalars([[1, "1/2"]]),
                         [[one, entry(F(1, 2))]])):
            assert all(type(e) is kind for row in m.entries for e in row)
            assert m.entries == want
        assert cls.from_scalars([]).shape == (0, 0)
        assert cls.from_scalars([[2, 3]]).eval(F(5)) == [[F(2), F(3)]]


class TestPolyMatDet:
    def test_broken_invariant_is_typed(self, monkeypatch):
        # every division of the elimination over Q[s] is exact; if one
        # ever left a remainder, that is a bug, not an input error
        m = PolyMat(3, 3, [[S, P(1), Poly()], [P(1), S, P(1)],
                           [Poly(), P(1), S]])
        assert m.det() == P(0, -2, 0, 1)
        divmod_ = Poly.__divmod__
        monkeypatch.setattr(Poly, "__divmod__", lambda self, other: (
            divmod_(self, other)[0], P(1)))
        with pytest.raises(BrokenInvariant):
            m.det()
        assert issubclass(BrokenInvariant, ArithmeticError)
        assert not issubclass(BrokenInvariant, ValueError)


class TestPolyGcd:
    def test_common_factor(self):
        assert poly_gcd(P(-1, 0, 1), P(-1, 1)) == P(-1, 1)

    def test_gcd_with_zero(self):
        assert poly_gcd(Poly(), P(2, 1)) == P(2, 1)
        assert poly_gcd(Poly(), Poly()) == Poly()

    def test_hand_factorization(self):
        # s^2 + 9s + 18 = (s + 3)(s + 6)
        assert poly_gcd(P(18, 9, 1), P(3, 1)) == P(3, 1)

    def test_gcd_divides_both(self):
        rng = random.Random(5)
        for _ in range(50):
            a, b = rand_poly(rng, 3), rand_poly(rng, 3)
            g = poly_gcd(a, b)
            if g.is_zero:
                assert a.is_zero and b.is_zero
                continue
            assert (a % g).is_zero and (b % g).is_zero
            assert g.leading == 1

    def test_lcm(self):
        assert poly_lcm(P(-1, 1), P(1, 1)) == P(-1, 0, 1)


class TestRatFun:
    def test_reduction_and_monic_den(self):
        r = RatFun(P(0, 2), P(0, 0, 4))    # 2s / 4s^2 = (1/2)/s
        assert r.num == P(F(1, 2))
        assert r.den == P(0, 1)

    def test_zero(self):
        assert RatFun(Poly(), P(3, 1)).den == P(1)

    def test_properness(self):
        assert RatFun(P(1), P(1, 1)).is_strictly_proper
        assert RatFun(P(1, 1), P(1, 1)).is_proper
        assert not RatFun(P(1, 0, 1), P(1, 1)).is_proper

    def test_field_ops(self):
        a = RatFun(P(1), P(0, 1))          # 1/s
        b = RatFun(P(1), P(1, 1))          # 1/(s+1)
        assert a - a == RatFun(Poly())
        assert (a * b).den == P(0, 1) * P(1, 1)
        assert (a / b) == RatFun(P(1, 1), P(0, 1))


class TestNormalRank:
    def test_zero_matrix(self):
        assert normal_rank(PolyMat.zeros(2, 3)) == 0

    def test_dependent_rows(self):
        m = PolyMat(2, 2, [[S, P(1)], [S * S, S]])
        assert normal_rank(m) == 1

    def test_block_diag_rank_two(self):
        row = RatFunMat(1, 2, [[RatFun(P(F(-7, 5)), P(6, 1)),
                                RatFun(P(F(-7, 10)), P(6, 1))]])
        m = RatFunMat.block_diag([row, row])
        assert normal_rank(m) == 2

    def test_matches_random_point_rank(self):
        rng = random.Random(11)
        for _ in range(100):
            m = rand_polymat(rng, rng.randint(1, 5), rng.randint(1, 5),
                             max_deg=3)
            r = normal_rank(m)
            hit = False
            for _ in range(5):
                x = F(rng.randint(-10_000, 10_000), rng.randint(1, 97))
                pr = rank_at_point(m, x)
                assert pr <= r
                if pr == r:
                    hit = True
                    break
            # the bad set is finite, five random draws must land outside
            assert hit


class TestOverRationalFunctions:
    """RatFunMat.det and inverse, which clear denominators and eliminate
    over Q[s], and normal_rank, over Q[s] for a PolyMat and over Q(s) for
    a RatFunMat, against the textbook field elimination over Q(s)."""

    @staticmethod
    def _inputs(rng, rows, cols):
        """A RatFunMat whose entries have two denominators, and a PolyMat,
        each with a repeated row in about a third of the draws."""
        one = rand_ratfunmat(rng, rows, cols).entries
        two = rand_ratfunmat(rng, rows, cols, den_deg=1).entries
        mats = [RatFunMat(rows, cols, [
                    [y if rng.random() < 0.4 else x for x, y in zip(rx, ry)]
                    for rx, ry in zip(one, two)]),
                rand_polymat(rng, rows, cols)]
        for m in mats:
            if rows > 1 and rng.random() < 0.3:
                m.entries[-1] = list(m.entries[0])
        return mats

    def test_det_inverse_normal_rank(self):
        rng = random.Random(29)
        for n in [0] + [rng.randint(1, 3) for _ in range(15)]:
            for m in self._inputs(rng, n, n):
                q = m.to_ratfun() if isinstance(m, PolyMat) else m
                before = copy.deepcopy((m.entries, q.entries))
                assert normal_rank(m) == field_rank(q.entries, n)
                assert q.det() == field_det(q.entries)
                want = field_inv(q.entries)
                if want is None:
                    with pytest.raises(rm.SingularMatrixError):
                        q.inverse()
                else:
                    assert q.inverse() == RatFunMat(n, n, want)
                assert (m.entries, q.entries) == before

    def test_normal_rank_non_square(self):
        rng = random.Random(31)
        for rows, cols in ((2, 4), (3, 2), (1, 3), (0, 3), (3, 0)):
            for m in self._inputs(rng, rows, cols):
                q = m.to_ratfun() if isinstance(m, PolyMat) else m
                before = copy.deepcopy(m.entries)
                assert normal_rank(m) == field_rank(q.entries, cols)
                assert m.entries == before

    def test_singular_raises(self):
        col = [RatFun(P(1), P(1, 1)), RatFun(P(2), P(1, 1))]
        m = RatFunMat(2, 2, [[col[0], RatFun(P(3))], [col[1], RatFun(P(6))]])
        assert m.det() == 0 == field_det(m.entries)
        assert normal_rank(m) == 1
        with pytest.raises(rm.SingularMatrixError):
            m.inverse()


class TestSmithForm:
    def test_identity(self):
        sf = smith_form(PolyMat.identity(2))
        assert sf.invariant_factors == (P(1), P(1))

    def test_derived_example(self):
        m = PolyMat(2, 2, [[S, S], [Poly(), S]])
        sf = smith_form(m)
        assert sf.invariant_factors == (P(0, 1), P(0, 1))

    def test_diagonal_with_chain(self):
        m = PolyMat(2, 2, [[P(1), Poly()], [Poly(), P(1, 0, 1)]])
        sf = smith_form(m)
        assert sf.invariant_factors == (P(1), P(1, 0, 1))

    def test_reconstruction_and_inverses_random(self):
        rng = random.Random(23)
        for _ in range(60):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            m = rand_polymat(rng, rows, cols, max_deg=2)
            sf = smith_form(m)
            diag = sf.diagonal(rows, cols)
            # the tracked transforms themselves diagonalise m
            assert sf.U_inv @ m @ sf.V_inv.transpose() == diag
            assert sf.U @ diag @ sf.V.transpose() == m
            assert sf.U @ sf.U_inv == PolyMat.identity(rows)
            assert sf.U_inv @ sf.U == PolyMat.identity(rows)
            assert sf.V @ sf.V_inv == PolyMat.identity(cols)
            assert sf.U.is_unimodular() and sf.V.is_unimodular()
            # divisibility chain with monic factors
            for a, b in zip(sf.invariant_factors, sf.invariant_factors[1:]):
                assert a.divides(b)
            for f in sf.invariant_factors:
                assert f.leading == 1

    def test_invariant_factors_survive_unimodular_twists(self):
        # W1 M W2 has the invariant factors of M, whatever pivots the
        # elimination meets on the way
        rng = random.Random(31)
        for _ in range(30):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            m = rand_polymat(rng, rows, cols, max_deg=2)
            twisted = rand_unimodular(rng, rows) @ m \
                @ rand_unimodular(rng, cols)
            sf = smith_form(twisted)
            assert sf.invariant_factors == smith_form(m).invariant_factors
            assert sf.U @ sf.diagonal(rows, cols) @ sf.V.transpose() \
                == twisted


class TestSmithMcMillan:
    def test_scalar_pole(self):
        g = RatFunMat(1, 1, [[RatFun(P(1), P(0, 1))]])
        sm = smith_mcmillan(g)
        assert sm.kappas == (RatFun(P(1), P(0, 1)),)

    def test_row_fixture(self):
        g = RatFunMat(1, 2, [[RatFun(P(F(-7, 5)), P(6, 1)),
                              RatFun(P(F(-7, 10)), P(6, 1))]])
        sm = smith_mcmillan(g)
        assert sm.normal_rank == 1
        assert sm.kappas == (RatFun(P(1), P(6, 1)),)

    def test_reduced_scalar(self):
        g = RatFunMat(1, 1, [[RatFun(P(1, 1), P(18, 9, 1))]])
        sm = smith_mcmillan(g)
        assert sm.kappas == (RatFun(P(1, 1), P(18, 9, 1)),)

    def test_reconstruction_and_chains_random(self):
        rng = random.Random(47)
        for _ in range(50):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            g = rand_ratfunmat(rng, rows, cols)
            sm = smith_mcmillan(g)
            assert sm.U_inv.to_ratfun() @ g @ sm.V_inv.transpose().to_ratfun() \
                == sm.diagonal(rows, cols)
            assert sm.U.to_ratfun() @ sm.diagonal(rows, cols) \
                @ sm.V.transpose().to_ratfun() == g
            for a, b in zip(sm.kappas, sm.kappas[1:]):
                assert a.num.divides(b.num)
                assert b.den.divides(a.den)
            assert sm.normal_rank == normal_rank(g)


class TestRightCoprimeMfd:
    def test_polynomial_input(self):
        g = PolyMat(2, 2, [[S, P(1)], [Poly(), S]]).to_ratfun()
        mfd = right_coprime_mfd(g)
        assert mfd.Den == PolyMat.identity(2)
        assert mfd.N.to_ratfun() == g

    def test_scalar(self):
        g = RatFunMat(1, 1, [[RatFun(P(1, 1), P(2, 1))]])
        mfd = right_coprime_mfd(g)
        assert mfd.N == PolyMat(1, 1, [[P(1, 1)]])
        assert mfd.Den == PolyMat(1, 1, [[P(2, 1)]])

    def test_fixture_row(self):
        # 1x2 block with denominator (s+3)(s+6); the naive diag(d, d)
        # denominator is not coprime, the constructed one must be
        den = P(18, 9, 1)
        g = RatFunMat(1, 2, [[RatFun(P(F(-11, 5), F(4, 5)), den),
                              RatFun(P(F(-161, 10), F(-81, 10), -1), den)]])
        naive_n = PolyMat(1, 2, [[P(F(-11, 5), F(4, 5)),
                                  P(F(-161, 10), F(-81, 10), -1)]])
        naive_d = PolyMat.diag([den, den])
        assert not is_coprime_right(naive_n, naive_d)
        mfd = right_coprime_mfd(g)
        assert is_coprime_right(mfd.N, mfd.Den)
        assert mfd.N.to_ratfun() @ mfd.Den.to_ratfun().inverse() == g

    def test_random_soundness(self):
        rng = random.Random(7)
        for _ in range(50):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            g = rand_ratfunmat(rng, rows, cols, num_deg=1)
            mfd = right_coprime_mfd(g)
            assert mfd.N.to_ratfun() @ mfd.Den.to_ratfun().inverse() == g
            assert is_coprime_right(mfd.N, mfd.Den)


class TestProperSplit:
    def test_strictly_proper_input(self):
        f = RatFunMat(1, 1, [[RatFun(P(2), P(1, 1))]])
        sp = proper_split(f)
        assert sp.R == PolyMat.zeros(1, 1)
        assert sp.Q.to_ratfun() @ sp.Omega.to_ratfun().inverse() == f

    def test_polynomial_input(self):
        f = PolyMat(1, 2, [[S, P(1, 1)]]).to_ratfun()
        sp = proper_split(f)
        assert sp.R.to_ratfun() == f
        assert sp.Q == PolyMat.zeros(1, 2)
        assert sp.Omega == PolyMat.identity(2)

    def test_scalar_long_division(self):
        f = RatFunMat(1, 1, [[RatFun(P(1, 0, 1), P(1, 1))]])
        sp = proper_split(f)
        assert sp.R == PolyMat(1, 1, [[P(-1, 1)]])
        assert sp.Q == PolyMat(1, 1, [[P(2)]])
        assert sp.Omega == PolyMat(1, 1, [[P(1, 1)]])

    def test_random_soundness(self):
        rng = random.Random(13)
        for _ in range(50):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            f = rand_ratfunmat(rng, rows, cols, num_deg=3)
            sp = proper_split(f)
            total = sp.R.to_ratfun() + \
                (sp.Q.to_ratfun() @ sp.Omega.to_ratfun().inverse())
            assert total == f
            strict = sp.Q.to_ratfun() @ sp.Omega.to_ratfun().inverse()
            assert all(e.is_strictly_proper
                       for row in strict.entries for e in row)
            assert is_coprime_right(sp.Q, sp.Omega)


class TestUnimodularInverse:
    def test_identity(self):
        assert unimodular_inverse(PolyMat.identity(3)) == PolyMat.identity(3)

    def test_adjugate_example(self):
        u = PolyMat(2, 2, [[P(1), S], [Poly(), P(1)]])
        assert unimodular_inverse(u) == \
            PolyMat(2, 2, [[P(1), -S], [Poly(), P(1)]])

    def test_not_unimodular(self):
        with pytest.raises(NotUnimodular):
            unimodular_inverse(PolyMat(2, 2, [[S, Poly()], [Poly(), P(1)]]))
        with pytest.raises(NotUnimodular):
            unimodular_inverse(PolyMat.zeros(2, 2))

    def test_random_unimodular(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(1, 3)
            u = rand_unimodular(rng, n)
            assert u @ unimodular_inverse(u) == PolyMat.identity(n)


class TestCoprimeness:
    def test_scalar_cases(self):
        assert is_coprime_right(PolyMat(1, 1, [[P(1, 1)]]),
                                PolyMat(1, 1, [[P(2, 1)]]))
        assert not is_coprime_right(PolyMat(1, 1, [[P(1, 1)]]),
                                    PolyMat(1, 1, [[P(1, 1)]]))
