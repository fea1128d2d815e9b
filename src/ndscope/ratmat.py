"""Exact linear algebra on plain list-of-list matrices.

Matrices are sequences of rows.  Entries are ``fractions.Fraction`` or
elements of any other exact field that supports ``+ - * /`` and tests
nonzero by truthiness, such as ``polymat.RatFun``; this module holds the
package's one Gaussian elimination (``rref``, ``det``), used over Q and
over Q(s).  Functions return fresh lists and never mutate their
arguments.  Empty
matrices (zero rows or zero columns) are legal everywhere; a matrix with
zero rows must still carry its column count explicitly where it matters,
hence the ``cols`` arguments on a few functions.
"""

from __future__ import annotations

from fractions import Fraction

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def shape(m):
    return len(m), len(m[0]) if m else 0


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


def matmul(a, b, inner=None):
    """a @ b; ``inner`` gives the shared dimension when ``a`` has no rows."""
    ra = len(a)
    k = len(a[0]) if ra and a[0] is not None else (inner if inner is not None else len(b))
    if ra and len(a[0]) != len(b):
        raise ValueError("matmul: inner dimensions differ")
    cb = len(b[0]) if b else 0
    out = zeros(ra, cb)
    for i in range(ra):
        row = a[i]
        oi = out[i]
        for t in range(len(b)):
            x = row[t]
            if x:
                bt = b[t]
                for j in range(cb):
                    if bt[j]:
                        oi[j] += x * bt[j]
    return out


def hstack(a, b):
    if len(a) != len(b):
        raise ValueError("hstack: row counts differ")
    return [ra + rb for ra, rb in zip(a, b)]


def vstack(a, b):
    return [row[:] for row in a] + [row[:] for row in b]


def is_zero(m):
    return all(x == 0 for row in m for x in row)


def rref(m, cols=None):
    """Reduced row echelon form.  Returns (rref_matrix, pivot_columns)."""
    a = [row[:] for row in m]
    nrows = len(a)
    ncols = len(a[0]) if a else (cols or 0)
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, nrows) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        inv = ONE / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def rank(m, cols=None):
    return len(rref(m, cols)[1])


def null_space(m, cols=None):
    """Canonical basis of the right null space, one column per basis vector.

    The basis is in reduced column echelon form with the first nonzero
    entry of every column equal to 1.  Returns a ``cols x d`` matrix
    (a list of ``cols`` rows) where d may be zero.
    """
    ncols = len(m[0]) if m else (cols or 0)
    r, pivots = rref(m, cols=ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][fc]
        basis.append(v)
    if not basis:
        return [[] for _ in range(ncols)]
    canon, _ = rref(basis)
    canon = [row for row in canon if any(x != 0 for x in row)]
    out = transpose(canon, cols=ncols)
    # rref rows lead with 1, so every column already starts with 1
    return out


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
    a = [row[:] for row in m]
    sign = ONE
    out = ONE
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c]), None)
        if p is None:
            return ZERO
        if p != c:
            a[c], a[p] = a[p], a[c]
            sign = -sign
        piv = a[c][c]
        out *= piv
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] / piv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return out * sign


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


def inv(m):
    return solve(m, identity(len(m)))


def to_float(m):
    return [[float(x) for x in row] for row in m]


def freeze(m):
    return tuple(tuple(Fraction(x) for x in row) for row in m)


def thaw(m):
    return [list(row) for row in m]
