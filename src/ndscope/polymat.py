"""Exact linear algebra over the field of rational functions in one variable.

Everything here works with arbitrary-precision rational coefficients
(``fractions.Fraction``); there is no floating point anywhere in this
module.  The central objects are

* ``Poly`` / ``RatFun``   -- scalars of Q[s] and Q(s),
* ``PolyMat`` / ``RatFunMat`` -- matrices over them,
* ``smith_form`` / ``smith_mcmillan`` -- canonical diagonalisations that
  track the inverse unimodular transforms and form U and V on demand,
* ``right_coprime_mfd`` / ``proper_split`` -- coprime fraction
  descriptions of rational matrices.

A ``Poly`` keeps canonical ``Fraction`` coefficients; its product and
gcd run on ints.  A product clears each operand by the lcm of its
denominators, convolves the ints and makes one ``Fraction`` per output
coefficient.  ``poly_gcd`` is a primitive remainder sequence over Z
(Brown, J. ACM 18, 1971): integer pseudo-remainders, each divided by its
content; made monic, the last one is the unique monic gcd.

``PolyMat.det`` and ``PolyMat.solve`` eliminate over the ring Q[s]:
``ratmat``'s fraction-free elimination with an exact polynomial quotient
as its division step.  By ``ratmat``'s minor bound every divisor is the
previous pivot minor and leaves no remainder; a nonzero one is a bug and
raises ``BrokenInvariant``.  ``det`` is the last forward pivot.
``solve`` ends Gauss-Jordan on [A | B] with pivot rows [0 .. d .. 0 |
d X], d = +-det A, and forms one ``RatFun`` per entry of X.
``RatFunMat.det``/``inverse`` clear denominators, W = d M, and take
det W / d^n and W^-1 (d I).  ``normal_rank`` eliminates forward only,
over Q[s] for a ``PolyMat`` and over the field Q(s) for a ``RatFunMat``
(the G_zu and G_yv it ranks are mostly vectors, whose field elimination
does no arithmetic).  ``smith_form`` keeps its own Euclidean reduction.

Decisions made by evaluating at rational points are exact only under a
stated degree bound: a nonzero polynomial of degree <= r has at most r
roots, so r + 1 distinct points decide whether it vanishes identically
(``model.descriptor_tfm`` states its bound beside the code).  Without
such a bound, a point-evaluation rank (``rank_at_point``) is a
cross-check, never a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm, prod
from operator import truediv

from . import ratmat

NEG_INF = float("-inf")


class NotUnimodular(ArithmeticError):
    """Square polynomial matrix whose determinant is not a nonzero constant."""


class InputError(Exception):
    """Mixin of every fault in the user's input, each next to its usual
    base (ValueError or ArithmeticError); the CLI exits 2 on these."""


class ShapeError(InputError, ValueError):
    pass


class BrokenInvariant(ArithmeticError):
    """Exact arithmetic broke one of its own invariants: a program bug,
    never an input error."""


def _coerce_rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.replace("−", "-").strip())
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class Poly:
    """Univariate polynomial with exact rational coefficients.

    ``coeffs[k]`` is the coefficient of the k-th power; trailing zeros are
    stripped so the zero polynomial has an empty coefficient tuple and a
    degree of minus infinity.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_coerce_rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c):
        return cls((c,))

    @classmethod
    def var(cls):
        return cls((0, 1))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def is_one(self):
        return self.coeffs == (Fraction(1),)

    @property
    def is_constant(self):
        return len(self.coeffs) <= 1

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ZeroDivisionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        lc = self.leading
        if lc == 1:
            return self
        return Poly(tuple(c / lc for c in self.coeffs))

    def bitsize(self) -> int:
        return sum(
            c.numerator.bit_length() + c.denominator.bit_length()
            for c in self.coeffs
        )

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return P_ZERO
        (a, da), (b, db) = _ints(self.coeffs), _ints(other.coeffs)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return Poly(Fraction(c, da * db) for c in out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = list(self.coeffs)
        dlc = other.leading
        dd = len(other.coeffs) - 1
        while len(rem) - 1 >= dd and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < dd:
                break
            k = len(rem) - 1 - dd
            f = rem[-1] / dlc
            q[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= f * c
            rem.pop()
        return Poly(q), Poly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other) -> bool:
        if self.is_zero:
            return _as_poly(other).is_zero
        return (_as_poly(other) % self).is_zero

    def __call__(self, x):
        exact = isinstance(x, (int, Fraction))
        if not self.coeffs:
            return Fraction(0) if exact else 0j
        out = Fraction(0) if exact else 0j
        for c in reversed(self.coeffs):
            out = out * x + (c if exact else complex(c))
        return out

    def __str__(self):
        if self.is_zero:
            return "0"
        terms = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                body = str(c)
            else:
                var = "s" if k == 1 else f"s^{k}"
                if c == 1:
                    body = var
                elif c == -1:
                    body = f"-{var}"
                elif c.denominator == 1:
                    body = f"{c}{var}"
                else:
                    body = f"({c}){var}"
            terms.append(body)
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    def __repr__(self):
        return f"Poly({self})"


def _as_poly(x):
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.const(x)
    return NotImplemented


def _ints(coeffs):
    """(ints, d): the coefficients times d, the lcm of their denominators."""
    d = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (d // c.denominator) for c in coeffs], d


S = Poly.var()
P_ZERO = Poly()
P_ONE = Poly.const(1)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by a primitive remainder sequence over Z; gcd(0, 0) = 0."""
    a, b = _as_poly(a), _as_poly(b)
    if a.is_zero or b.is_zero:
        return (a + b).monic()
    u, v = _ints(a.coeffs)[0], _ints(b.coeffs)[0]
    while len(v) > 1:
        # r = lc(v)^k u mod v, k up to deg u - deg v + 1
        r, lc, n = u, v[-1], len(v)
        while len(r) >= n:
            c, k = r[-1], len(r) - n
            r = [lc * x for x in r]
            for i, y in enumerate(v, k):
                r[i] -= c * y
            while r and not r[-1]:
                r.pop()
        if not r:
            return Poly(Fraction(x, v[-1]) for x in v)
        g = gcd(*r)
        u, v = v, [x // g for x in r]
    return P_ONE


def _exact_quotient(a: Poly, b) -> Poly:
    """a / b for a multiple a of b: the division step of the elimination
    over Q[s] (module docstring)."""
    q, r = divmod(a, b)
    if r:
        raise BrokenInvariant("nonzero remainder in an exact division")
    return q


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero or b.is_zero:
        return Poly()
    g = poly_gcd(a, b)
    return ((a * b) // g).monic()


class RatFun:
    """Reduced rational function num/den with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=P_ONE, _reduced=False):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            self.num, self.den = P_ZERO, P_ONE
            return
        if not _reduced:
            g = poly_gcd(num, den)
            if not g.is_one:
                num, den = num // g, den // g
        lc = den.leading
        if lc != 1:
            num = num * (1 / lc)
            den = den.monic()
        self.num, self.den = num, den

    @classmethod
    def const(cls, c):
        return cls(Poly.const(c))

    @property
    def is_zero(self):
        return self.num.is_zero

    @property
    def is_polynomial(self):
        return self.den.is_one

    @property
    def is_proper(self):
        return self.is_zero or self.num.degree <= self.den.degree

    @property
    def is_strictly_proper(self):
        return self.is_zero or self.num.degree < self.den.degree

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self):
        return RatFun(-self.num, self.den, _reduced=True)

    def __add__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFun(self.num * other.den + other.num * self.den,
                      self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def inverse(self):
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        return RatFun(self.den, self.num)

    def __call__(self, x):
        return self.num(x) / self.den(x)

    def __str__(self):
        if self.is_polynomial:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatFun({self})"


def _as_ratfun(x):
    if isinstance(x, RatFun):
        return x
    if isinstance(x, (int, Fraction)):
        return RatFun(Poly.const(x))
    if isinstance(x, Poly):
        return RatFun(x)
    return NotImplemented


RF_ZERO = RatFun(P_ZERO)
RF_ONE = RatFun(P_ONE)


class _GridMat:
    """Shared shape/indexing machinery for PolyMat and RatFunMat."""

    __slots__ = ("rows", "cols", "entries")
    _zero = _one = None

    def __init__(self, rows, cols, entries):
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ShapeError(f"entry grid does not match {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.entries = [list(r) for r in entries]

    @property
    def shape(self):
        return (self.rows, self.cols)

    @classmethod
    def identity(cls, n):
        return cls(n, n, [[cls._one if i == j else cls._zero
                           for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, [[cls._zero] * cols for _ in range(rows)])

    @classmethod
    def from_scalars(cls, rows):
        """Constant matrix; the constructor makes each rational an entry."""
        rows = [list(r) for r in rows]
        return cls(len(rows), len(rows[0]) if rows else 0,
                   [[_coerce_rat(x) for x in r] for r in rows])

    def eval(self, x):
        return [[e(x) for e in row] for row in self.entries]

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def transpose(self):
        return type(self)(
            self.cols, self.rows,
            [[self.entries[i][j] for i in range(self.rows)]
             for j in range(self.cols)])

    def submatrix(self, rows, cols):
        rows = list(rows)
        cols = list(cols)
        return type(self)(
            len(rows), len(cols),
            [[self.entries[i][j] for j in cols] for i in rows])

    def row_block(self, start, stop):
        return self.submatrix(range(start, stop), range(self.cols))

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.shape == other.shape and self.entries == other.entries

    def __hash__(self):
        return hash((self.shape, tuple(tuple(r) for r in self.entries)))

    def __add__(self, other):
        if type(other) is not type(self) or self.shape != other.shape:
            raise ShapeError("matrix addition shape mismatch")
        return type(self)(self.rows, self.cols, [
            [a + b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other):
        if type(other) is not type(self) or self.shape != other.shape:
            raise ShapeError("matrix subtraction shape mismatch")
        return type(self)(self.rows, self.cols, [
            [a - b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.entries, other.entries)])

    def __neg__(self):
        return type(self)(self.rows, self.cols,
                          [[-a for a in row] for row in self.entries])

    def __matmul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError("matmul inner dimensions differ")
        zero = self._zero
        out = [[zero] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            for t in range(self.cols):
                x = self.entries[i][t]
                if x:
                    for j in range(other.cols):
                        y = other.entries[t][j]
                        if y:
                            out[i][j] = out[i][j] + x * y
        return type(self)(self.rows, other.cols, out)

    @property
    def is_zero(self):
        return all(not x for row in self.entries for x in row)

    @classmethod
    def block_diag(cls, blocks):
        blocks = list(blocks)
        rows = sum(b.rows for b in blocks)
        cols = sum(b.cols for b in blocks)
        out = [[cls._zero] * cols for _ in range(rows)]
        r0 = c0 = 0
        for b in blocks:
            for i in range(b.rows):
                for j in range(b.cols):
                    out[r0 + i][c0 + j] = b.entries[i][j]
            r0 += b.rows
            c0 += b.cols
        return cls(rows, cols, out)

    @classmethod
    def vstack(cls, blocks):
        blocks = list(blocks)
        cols = blocks[0].cols
        if any(b.cols != cols for b in blocks):
            raise ShapeError("vstack column mismatch")
        entries = [row for b in blocks for row in b.entries]
        return cls(sum(b.rows for b in blocks), cols, entries)

    def __str__(self):
        if self.rows == 0 or self.cols == 0:
            return f"<empty {self.rows}x{self.cols}>"
        cells = [[str(x) for x in row] for row in self.entries]
        w = [max(len(cells[i][j]) for i in range(self.rows))
             for j in range(self.cols)]
        return "\n".join(
            "[ " + "  ".join(c.rjust(wj) for c, wj in zip(row, w)) + " ]"
            for row in cells)

    __repr__ = __str__


class PolyMat(_GridMat):
    """Matrix of polynomials."""

    _zero, _one = P_ZERO, P_ONE

    def __init__(self, rows, cols, entries):
        entries = [[_as_poly(x) for x in row] for row in entries]
        super().__init__(rows, cols, entries)

    @classmethod
    def diag(cls, polys, rows=None, cols=None):
        polys = [_as_poly(p) for p in polys]
        n = len(polys)
        rows = n if rows is None else rows
        cols = n if cols is None else cols
        out = [[P_ZERO] * cols for _ in range(rows)]
        for i, p in enumerate(polys):
            out[i][i] = p
        return cls(rows, cols, out)

    @property
    def degree(self):
        degs = [e.degree for row in self.entries for e in row if not e.is_zero]
        return max(degs) if degs else NEG_INF

    def coeff_matrix(self, k):
        """Constant matrix of the coefficients of the k-th power."""
        return [[row[j].coeffs[k] if k < len(row[j].coeffs) else Fraction(0)
                 for j in range(self.cols)] for row in self.entries]

    def to_ratfun(self):
        return RatFunMat(self.rows, self.cols,
                         [[RatFun(x) for x in row] for row in self.entries])

    def det(self) -> Poly:
        """The last forward pivot over Q[s] (module docstring)."""
        n = self.rows
        if self.cols != n:
            raise ShapeError("det of a non-square matrix")
        a = [row[:] for row in self.entries]
        pivots, sign = ratmat._eliminate(a, n, _exact_quotient, jordan=False)
        if len(pivots) < n:
            return P_ZERO
        d = a[-1][-1] if n else P_ONE
        return d if sign > 0 else -d

    def solve(self, b: "PolyMat") -> "RatFunMat":
        """X with self @ X = b over Q(s), eliminating over Q[s] (module
        docstring)."""
        n = self.rows
        if self.cols != n or b.rows != n:
            raise ShapeError("solve needs a square matrix and n rows of b")
        a = [ra + rb for ra, rb in zip(self.entries, b.entries)]
        if len(ratmat._eliminate(a, n, _exact_quotient, jordan=True)[0]) < n:
            raise ratmat.SingularMatrixError("matrix is singular")
        return RatFunMat(n, b.cols, [[RatFun(x, a[-1][n - 1]) for x in row[n:]]
                                     for row in a])

    def is_unimodular(self) -> bool:
        if self.rows != self.cols:
            return False
        d = self.det()
        return d.is_constant and not d.is_zero


class RatFunMat(_GridMat):
    """Matrix of reduced rational functions."""

    _zero, _one = RF_ZERO, RF_ONE

    def __init__(self, rows, cols, entries):
        entries = [[_as_ratfun(x) for x in row] for row in entries]
        super().__init__(rows, cols, entries)

    def denominator_lcm(self) -> Poly:
        d = P_ONE
        for row in self.entries:
            for e in row:
                d = poly_lcm(d, e.den)
        return d

    def clear_denominators(self):
        """Return (d, W) with d the monic lcm of entry denominators and
        W the polynomial matrix d * self."""
        d = self.denominator_lcm()
        w = PolyMat(self.rows, self.cols, [
            [e.num * (d // e.den) for e in row] for row in self.entries])
        return d, w

    def is_polynomial(self):
        return all(e.is_polynomial for row in self.entries for e in row)

    def to_polymat(self) -> PolyMat:
        if not self.is_polynomial():
            raise ValueError("matrix has non-polynomial entries")
        return PolyMat(self.rows, self.cols,
                       [[e.num for e in row] for row in self.entries])

    def det(self) -> RatFun:
        """det(W) / d^n with d, W from ``clear_denominators``."""
        if self.rows != self.cols:
            raise ShapeError("det of a non-square matrix")
        d, w = self.clear_denominators()
        return RatFun(w.det(), prod([d] * self.rows, start=P_ONE))

    def inverse(self) -> "RatFunMat":
        """d W^-1 with d, W from ``clear_denominators``."""
        if self.rows != self.cols:
            raise ShapeError("inverse of a non-square matrix")
        d, w = self.clear_denominators()
        return w.solve(PolyMat.diag([d] * self.rows))


def normal_rank(m) -> int:
    """Rank over the rational-function field (module docstring)."""
    div = _exact_quotient if isinstance(m, PolyMat) else truediv
    a = [row[:] for row in m.entries]
    return len(ratmat._eliminate(a, m.cols, div, jordan=False)[0])


def rank_at_point(m, x: Fraction) -> int:
    """Rank of m evaluated at a rational point (cross-check helper)."""
    return ratmat.rank(m.eval(x), cols=m.cols)


@dataclass
class SmithForm:
    """M = U . diag(invariant_factors) . V^T, U and V unimodular.

    The elimination tracks only U_inv and V_inv, with U_inv . M . V_inv^T
    the diagonal; U and V are their exact inverses, formed on first read.
    """

    U_inv: PolyMat
    V_inv: PolyMat
    invariant_factors: tuple
    normal_rank: int

    @cached_property
    def U(self) -> PolyMat:
        return unimodular_inverse(self.U_inv)

    @cached_property
    def V(self) -> PolyMat:
        return unimodular_inverse(self.V_inv)

    def diagonal(self, rows, cols) -> PolyMat:
        return PolyMat.diag(self.invariant_factors, rows=rows, cols=cols)


@dataclass
class SmithMcMillanForm(SmithForm):
    """G = U . diag(kappas) . V^T over the rational functions: the Smith
    form of d G, d the monic lcm of G's denominators, with kappa_i equal
    to invariant factor i over d."""

    kappas: tuple

    def diagonal(self, rows, cols) -> RatFunMat:
        out = RatFunMat.zeros(rows, cols)
        for i, k in enumerate(self.kappas):
            out.entries[i][i] = k
        return out


@dataclass
class RightMfd:
    """G = N . Den^{-1} with col{Den, N} right coprime."""

    N: PolyMat
    Den: PolyMat


@dataclass
class ProperSplit:
    """F = R + Q . Omega^{-1} with Q Omega^{-1} strictly proper and coprime."""

    R: PolyMat
    Q: PolyMat
    Omega: PolyMat


class _Tracker:
    """Elementary row/column operations on S with accumulated transforms.

    Maintains S = L . M . R with L and R unimodular: each operation on S
    is applied to L (rows) or R (columns) as well.
    """

    def __init__(self, m: PolyMat):
        self.s = [row[:] for row in m.entries]
        self.rows, self.cols = m.rows, m.cols
        self.l = PolyMat.identity(m.rows).entries
        self.r = PolyMat.identity(m.cols).entries

    def swap_rows(self, i, j):
        if i == j:
            return
        self.s[i], self.s[j] = self.s[j], self.s[i]
        self.l[i], self.l[j] = self.l[j], self.l[i]

    def swap_cols(self, i, j):
        if i == j:
            return
        for row in self.s:
            row[i], row[j] = row[j], row[i]
        for row in self.r:
            row[i], row[j] = row[j], row[i]

    def scale_row(self, i, c: Fraction):
        c = Poly.const(c)
        self.s[i] = [c * x for x in self.s[i]]
        self.l[i] = [c * x for x in self.l[i]]

    def add_row(self, i, j, q: Poly):
        """row_i += q * row_j"""
        if q.is_zero:
            return
        self.s[i] = [x + q * y for x, y in zip(self.s[i], self.s[j])]
        self.l[i] = [x + q * y for x, y in zip(self.l[i], self.l[j])]

    def add_col(self, i, j, q: Poly):
        """col_i += q * col_j"""
        if q.is_zero:
            return
        for row in self.s:
            row[i] = row[i] + q * row[j]
        for row in self.r:
            row[i] = row[i] + q * row[j]

    def scale_col(self, i, c: Fraction):
        c = Poly.const(c)
        for row in self.s:
            row[i] = c * row[i]
        for row in self.r:
            row[i] = c * row[i]

    def normalize_row(self, i):
        """Divide out the rational content of working row i (a unit)."""
        c = _content(self.s[i])
        if c not in (0, 1):
            self.scale_row(i, 1 / c)

    def normalize_col(self, j):
        c = _content([row[j] for row in self.s])
        if c not in (0, 1):
            self.scale_col(j, 1 / c)


def _content(polys) -> Fraction:
    """gcd of all coefficients of a list of polynomials (0 if all zero)."""
    cs = [c for p in polys for c in p.coeffs]
    return Fraction(gcd(*[c.numerator for c in cs]),
                    lcm(*[c.denominator for c in cs]))


def smith_form(m: PolyMat) -> SmithForm:
    """Smith form with its tracked unimodular transforms U_inv and V_inv.

    The pivot is the nonzero entry of minimal degree in the working
    submatrix, ties broken by smallest coefficient bit-size.
    """
    t = _Tracker(m)
    nr, nc = t.rows, t.cols
    k = 0
    limit = min(nr, nc)
    while k < limit:
        cands = [(i, j) for i in range(k, nr) for j in range(k, nc)
                 if not t.s[i][j].is_zero]
        if not cands:
            break
        pi, pj = min(cands, key=lambda ij: (
            t.s[ij[0]][ij[1]].degree, t.s[ij[0]][ij[1]].bitsize(), ij))
        t.swap_rows(k, pi)
        t.swap_cols(k, pj)
        t.normalize_row(k)
        while True:
            # reduce column k below the pivot
            restart = False
            for i in range(k + 1, nr):
                if t.s[i][k].is_zero:
                    continue
                q, r = divmod(t.s[i][k], t.s[k][k])
                t.add_row(i, k, -q)
                t.normalize_row(i)
                if not r.is_zero:
                    t.swap_rows(k, i)
                    restart = True
                    break
            if restart:
                continue
            for j in range(k + 1, nc):
                if t.s[k][j].is_zero:
                    continue
                q, r = divmod(t.s[k][j], t.s[k][k])
                t.add_col(j, k, -q)
                t.normalize_col(j)
                if not r.is_zero:
                    t.swap_cols(k, j)
                    restart = True
                    break
            if restart:
                continue
            # pivot must divide the rest of the submatrix
            witness = next(
                ((i, j) for i in range(k + 1, nr) for j in range(k + 1, nc)
                 if not t.s[k][k].divides(t.s[i][j])), None)
            if witness is None:
                break
            t.add_row(k, witness[0], P_ONE)
            t.normalize_row(k)
        t.scale_row(k, 1 / t.s[k][k].leading)
        k += 1
    factors = tuple(t.s[i][i] for i in range(k))
    return SmithForm(U_inv=PolyMat(nr, nr, t.l),
                     V_inv=PolyMat(nc, nc, t.r).transpose(),
                     invariant_factors=factors, normal_rank=k)


def smith_mcmillan(g: RatFunMat) -> SmithMcMillanForm:
    """Smith-McMillan form, built by clearing the common denominator."""
    d, w = g.clear_denominators()
    sf = smith_form(w)
    return SmithMcMillanForm(
        U_inv=sf.U_inv, V_inv=sf.V_inv,
        invariant_factors=sf.invariant_factors, normal_rank=sf.normal_rank,
        kappas=tuple(RatFun(mu, d) for mu in sf.invariant_factors))


def unimodular_inverse(u: PolyMat) -> PolyMat:
    """Exact polynomial inverse of a unimodular matrix: ``u.solve(I)``,
    whose entries are all polynomials iff det u is a nonzero constant."""
    if u.rows != u.cols:
        raise NotUnimodular("matrix is not square")
    try:
        inv = u.solve(PolyMat.identity(u.rows))
    except ratmat.SingularMatrixError:
        inv = None
    if inv is None or not inv.is_polynomial():
        raise NotUnimodular("determinant is not a nonzero constant")
    return inv.to_polymat()


def is_coprime_right(n: PolyMat, den: PolyMat) -> bool:
    """True iff every Smith invariant factor of col{Den, N} equals 1."""
    if n.cols != den.cols:
        raise ShapeError("column counts differ")
    stacked = PolyMat.vstack([den, n])
    sf = smith_form(stacked)
    if sf.normal_rank < den.cols:
        return False
    return all(f.is_one for f in sf.invariant_factors)


def right_coprime_mfd(g: RatFunMat) -> RightMfd:
    """Right coprime MFD G = N . Den^{-1} via the Smith-McMillan form.

    For a polynomial G this returns (G, I).  Otherwise, with
    G = U . E . Psi^{-1} . V^T, take N = U.E and Den = V_inv^T . Psi,
    which is right coprime by construction.
    """
    if g.is_polynomial():
        return RightMfd(N=g.to_polymat(), Den=PolyMat.identity(g.cols))
    sm = smith_mcmillan(g)
    eps = PolyMat.diag([k.num for k in sm.kappas], rows=g.rows, cols=g.cols)
    psi_list = [k.den for k in sm.kappas] + \
        [P_ONE] * (g.cols - len(sm.kappas))
    psi = PolyMat.diag(psi_list)
    n = sm.U @ eps
    den = sm.V_inv.transpose() @ psi
    return RightMfd(N=n, Den=den)


def proper_split(f: RatFunMat) -> ProperSplit:
    """Split F = R + Q . Omega^{-1} with Q Omega^{-1} strictly proper."""
    r_entries = []
    sp_entries = []
    for row in f.entries:
        r_row, sp_row = [], []
        for e in row:
            q, rem = divmod(e.num, e.den)
            r_row.append(q)
            sp_row.append(RatFun(rem, e.den))
        r_entries.append(r_row)
        sp_entries.append(sp_row)
    r = PolyMat(f.rows, f.cols, r_entries)
    strict = RatFunMat(f.rows, f.cols, sp_entries)
    mfd = right_coprime_mfd(strict)
    return ProperSplit(R=r, Q=mfd.N, Omega=mfd.Den)
