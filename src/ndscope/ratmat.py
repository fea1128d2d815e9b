"""Exact linear algebra over Q on plain list-of-list matrices.

Matrices are sequences of rows whose entries are ``int`` or
``fractions.Fraction``; any other entry raises ``TypeError``.  Functions
return fresh lists and never mutate their arguments.  Empty matrices
(zero rows or zero columns) are legal everywhere; a matrix with zero rows
must still carry its column count explicitly where it matters, hence the
``cols`` arguments on a few functions.

The arithmetic runs on Python integers, so that a gcd is taken once per
output entry instead of once per add and multiply:

* Row clearing.  Each row is multiplied by the lcm of its denominators,
  which makes it a row of ints.  Scaling a row changes no pivot column,
  rank, null space or RREF; it scales the determinant by the row's
  factor, which ``det`` divides out at the end.
* One elimination, ``_eliminate``: fraction-free (Bareiss, Math. Comp.
  22, 1968) Gauss-Jordan.  With pivot ``piv``, the previous pivot
  ``prev`` (1 at the first step) and ``f`` a row's entry in the pivot
  column, every non-pivot row becomes (piv * row - f * pivot_row) / prev;
  a row with f = 0 is still scaled by piv / prev.  Minor bound: after k
  pivots, with R the input rows and C the input columns of those pivots,
  an entry (i, j) of a non-pivot row is the (k+1)-minor of the input on
  rows R + {i} and columns C + {j}, and an entry of the t-th pivot row is
  the k-minor on rows R and columns C with the t-th of them replaced by
  j (Sylvester's identity; Cramer's rule).  The divisor ``prev`` is the
  k-minor on R x C before the step, so every division is exact, integers
  stay integers, and no entry is larger than a minor of the input.  The
  forward-only pass of ``det`` and ``rank`` updates only the rows below
  the pivot: they follow the same (k+1)-minor rule, and a pivot row keeps
  the minors it held when it became one, so the last pivot of a square
  matrix is its determinant up to the sign of the row swaps.  ``rref``
  ends by dividing each pivot row by its pivot: one Fraction
  normalization per output entry.
* The division step is an argument, and the minor bound holds in any
  integral domain.  Here it is exact integer division; ``model`` runs
  ``_eliminate`` on its own int rows, and ``polymat`` runs it over Q[s]
  with an exact polynomial quotient (``PolyMat.det``, ``PolyMat.solve``,
  ``normal_rank``) and over Q(s) with field division (``normal_rank`` of
  a ``RatFunMat``).
* ``matmul`` clears the rows of ``a`` and the columns of ``b`` and forms
  c_ij = (sum_t A_it B_tj) / (da_i db_j): one gcd per output entry.
* A one-sided full-rank certificate in ``rank`` and ``null_space``.  It
  first eliminates the cleared integer rows modulo the prime
  p = 2^61 - 1.  A minor that is nonzero mod p is nonzero over Z, so the
  rank mod p never exceeds the rank over Q: when it equals
  min(rows, cols), full rank is proved exactly, and ``null_space`` of a
  matrix with at least as many rows as columns is then empty.  A lower
  rank mod p proves nothing (p may divide every maximal minor), and the
  exact elimination decides.
* A certified solve, ``solve_certified``, after Dixon (Numer. Math. 40,
  1982): it solves the cleared system modulo the same p, lifts each
  entry of x to the unique n/d with |n|, d <= sqrt(p/2) that matches it
  mod p (rational reconstruction, the half-extended Euclidean algorithm)
  and proves a x = b by one exact ``matmul``.  A matrix singular
  mod p, an entry without such a lift or a failed product sends it to
  ``solve``, so its result is always ``solve``'s.
* ``null_space`` clears its rows once, for the certificate and its RREF.
  ``freeze`` keeps a Fraction entry, which is immutable, as it is.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from operator import floordiv, mul

ZERO = Fraction(0)
ONE = Fraction(1)

# the prime of the full-rank certificate (``rank``, ``null_space``) and of
# ``solve_certified``, and the bound of its rational reconstruction
_P = (1 << 61) - 1
_LIFT = isqrt(_P // 2)


def zeros(rows, cols):
    return [[ZERO] * cols for _ in range(rows)]


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def transpose(m, cols=None):
    r = len(m)
    c = len(m[0]) if m else (cols or 0)
    return [[m[i][j] for i in range(r)] for j in range(c)]


def add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(m, c):
    c = Fraction(c)
    return [[c * x for x in row] for row in m]


def _cleared(m):
    """(rows, scales): each row of ``m`` times the lcm of its
    denominators, which is its scale, as a fresh row of ints."""
    try:
        scales = [lcm(*[x.denominator for x in row]) for row in m]
        return [[x.numerator * (s // x.denominator) for x in row]
                for row, s in zip(m, scales)], scales
    except AttributeError:
        raise TypeError("entries must be ints or Fractions") from None


def _fraction(num, den):
    return Fraction(num, den) if num else ZERO


def matmul(a, b, inner=None):
    """a @ b over Q; ``inner`` gives the shared dimension when ``a`` has
    no rows."""
    if a and len(a[0]) != len(b):
        raise ValueError("matmul: inner dimensions differ")
    a_int, da = _cleared(a)
    b_int, db = _cleared(transpose(b, cols=len(b[0]) if b else 0))
    return [[_fraction(sum(map(mul, row, col)), di * dj)
             for col, dj in zip(b_int, db)]
            for row, di in zip(a_int, da)]


def hstack(a, b):
    if len(a) != len(b):
        raise ValueError("hstack: row counts differ")
    return [ra + rb for ra, rb in zip(a, b)]


def vstack(a, b):
    return [row[:] for row in a] + [row[:] for row in b]


def is_zero(m):
    return all(x == 0 for row in m for x in row)


def _eliminate(a, ncols, div, jordan):
    """Fraction-free elimination of the rows ``a`` in place (module
    docstring).  ``div(x, prev)`` is the division step, exact in the
    ring of the entries; ``jordan`` eliminates above the pivot as well
    as below.  Returns (pivot columns, sign of the row permutation);
    pivot row t ends at ``a[t]``.
    """
    nrows = len(a)
    pivots, sign, prev = [], 1, 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if a[i][c]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        top = a[r]
        piv = top[c]
        for i in range(0 if jordan else r + 1, nrows):
            if i == r:
                continue
            row = a[i]
            f = row[c]
            if f:
                a[i] = [div(piv * x - f * y, prev) for x, y in zip(row, top)]
            else:
                a[i] = [div(piv * x, prev) for x in row]
        pivots.append(c)
        prev = piv
    return pivots, sign


def rref(m, cols=None):
    """Reduced row echelon form.  Returns (rref_matrix, pivot_columns)."""
    ncols = len(m[0]) if m else (cols or 0)
    a = _cleared(m)[0]
    pivots = _eliminate(a, ncols, floordiv, jordan=True)[0]
    for r, c in enumerate(pivots):
        piv = a[r][c]
        a[r] = [_fraction(x, piv) for x in a[r]]
    a[len(pivots):] = zeros(len(a) - len(pivots), ncols)
    return a, pivots


def _eliminate_mod_p(a, ncols, jordan):
    """The int rows ``a`` reduced modulo ``_P`` over their first ``ncols``
    columns, or None when their rank mod ``_P`` is below min(rows, ncols).

    Each pivot row is scaled to pivot 1.  Forward-only, it stops as soon
    as that rank is reached or out of reach, which is the full-rank
    certificate of ``rank`` and ``null_space`` (module docstring).
    ``jordan`` clears above the pivots too: on a square system with its
    right-hand sides appended, the reduced rows end with the solution mod
    ``_P``.
    """
    red = [[x % _P for x in row] for row in a]
    nrows = len(red)
    need = min(nrows, ncols)
    r = 0
    for c in range(ncols):
        if r == need:
            break
        p = next((i for i in range(r, nrows) if red[i][c]), None)
        if p is None:
            if ncols - c - 1 < need - r:
                return None
            continue
        red[r], red[p] = red[p], red[r]
        inv = pow(red[r][c], -1, _P)
        top = red[r] = [x * inv % _P for x in red[r]]
        for i in range(0 if jordan else r + 1, nrows):
            f = red[i][c]
            if i != r and f:
                red[i] = [(x - f * y) % _P for x, y in zip(red[i], top)]
        r += 1
    return red if r == need else None


def rank(m, cols=None):
    ncols = len(m[0]) if m else (cols or 0)
    a = _cleared(m)[0]
    if _eliminate_mod_p(a, ncols, jordan=False) is not None:
        return min(len(a), ncols)
    return len(_eliminate(a, ncols, floordiv, jordan=False)[0])


def null_space(m, cols=None):
    """Canonical basis of the right null space, one column per basis vector.

    The basis is in reduced column echelon form with the first nonzero
    entry of every column equal to 1.  Returns a ``cols x d`` matrix
    (a list of ``cols`` rows) where d may be zero, without an exact
    elimination when the full-rank certificate holds (module docstring).
    """
    ncols = len(m[0]) if m else (cols or 0)
    a = _cleared(m)[0]
    if len(a) >= ncols and \
            _eliminate_mod_p(a, ncols, jordan=False) is not None:
        return [[] for _ in range(ncols)]
    pivots = _eliminate(a, ncols, floordiv, jordan=True)[0]
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [ZERO] * ncols
        v[fc] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = _fraction(-a[i][fc], a[i][pc])
        basis.append(v)
    # the vectors are independent, so the rref has no zero row, and its
    # rows lead with 1, so every column of the basis starts with 1
    return transpose(rref(basis, cols=ncols)[0], cols=ncols)


def left_null_space(m, cols=None):
    """Canonical basis of the left null space, one row per basis vector."""
    base = null_space(transpose(m, cols=cols), cols=len(m))
    return transpose(base, cols=len(base))


def det(m):
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("det: matrix not square")
    if n == 0:
        return ONE
    a, scales = _cleared(m)
    pivots, sign = _eliminate(a, n, floordiv, jordan=False)
    if len(pivots) < n:
        return ZERO
    return Fraction(sign * a[-1][-1], prod(scales))


class SingularMatrixError(ArithmeticError):
    pass


def solve(a, b):
    """Solve a @ x = b for square invertible a and a matrix b."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("solve: matrix not square")
    r, pivots = rref([list(ra) + list(rb) for ra, rb in zip(a, b)])
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in r]


def _lift(u):
    """The n/d with n = u d mod _P, |n| <= _LIFT and 0 < d <= _LIFT, or
    None (module docstring); 2 _LIFT^2 < _P makes it unique."""
    r0, r1, t0, t1 = _P, u, 0, 1
    while r1 > _LIFT:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > _LIFT or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def solve_certified(a, b):
    """``solve(a, b)``, found mod p, lifted to Q and proved by one exact
    product (module docstring).  Pays where x has small entries, as an
    SCM does; a solution beyond the lift bound costs ``solve`` plus the
    modular pass."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("solve: matrix not square")
    rows = _cleared([list(ra) + list(rb) for ra, rb in zip(a, b)])[0]
    red = _eliminate_mod_p(rows, n, jordan=True)
    if red is None:
        return solve(a, b)
    x = [[_lift(u) for u in row[n:]] for row in red]
    if any(v is None for row in x for v in row) or \
            matmul(a, x, inner=n) != thaw(b):
        return solve(a, b)
    return x


def inv(m):
    return solve(m, identity(len(m)))


def to_float(m):
    return [[float(x) for x in row] for row in m]


def freeze(m):
    return tuple(tuple(x if type(x) is Fraction else Fraction(x)
                       for x in row) for row in m)


def thaw(m):
    return [list(row) for row in m]
