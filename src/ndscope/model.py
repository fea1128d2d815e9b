"""Data model for networked systems built from descriptor-form subsystems.

A subsystem maps its state x, internal input v (received from other
subsystems) and external input u to the state derivative/shift, the
internal output z (sent to other subsystems) and the external output y:

    E dx = A_xx x + B_xv v + B_xu u
    z    = C_zx x + D_zv v + D_zu u
    y    = C_yx x + D_yv v + D_yu u

The interconnection is v = Phi z with Phi the subsystem connection
matrix (SCM).  All matrices are exact rationals.  Every transfer matrix
is C (sE - A)^-1 B + D of some descriptor realization (a subsystem, the
lifted NDS or a lumped model) and comes from one exact route,
``descriptor_tfm``: the rows of [E | A | B] are cleared to integers
once, each integer point s = 0, 1, 2, ... costs one fraction-free
integer elimination of [sE - A | B], and the integer samples are
interpolated exactly under the degree bound deg <= rank E.  Regularity
is decided by the same point search, forward only and without B
(``pencil_is_regular``).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import floordiv, mul

from . import ratmat
from .polymat import InputError, Poly, PolyMat, RatFun, RatFunMat, ShapeError


class SchemaError(InputError, ValueError):
    """Malformed model file."""


class DimensionError(InputError, ValueError):
    """Inconsistent matrix shapes in a model."""


class NotRegular(InputError, ArithmeticError):
    """det(lambda E - A) vanishes identically."""


class NotWellPosed(InputError, ArithmeticError):
    """I - Phi D_zv is singular."""


def parse_rat(x) -> Fraction:
    """Exact parse of a decimal or fraction entry ("-0.3", "11/10", 2)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise SchemaError(f"boolean is not a matrix entry: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        # exact value of the decimal literal the user most likely wrote
        return Fraction(repr(x))
    if isinstance(x, str):
        try:
            return Fraction(x.replace("−", "-").strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad rational entry {x!r}") from exc
    raise SchemaError(f"bad rational entry {x!r}")


def _rows(x, what):
    """x itself if it is a list of rows (lists), else SchemaError."""
    if not isinstance(x, (list, tuple)) or \
            any(not isinstance(r, (list, tuple)) for r in x):
        raise SchemaError(f"{what} must be a list of rows")
    return x


def _parse_matrix(raw, rows, cols, name):
    if rows == 0:
        if raw != []:
            raise DimensionError(f"{name} must be empty (expected 0 rows)")
        return tuple()
    if len(raw) != rows:
        raise DimensionError(
            f"{name} has {len(raw)} rows, expected {rows}")
    out = []
    for r in raw:
        if len(r) != cols:
            raise DimensionError(
                f"{name} row has {len(r)} entries, expected {cols}")
        out.append(tuple(parse_rat(x) for x in r))
    return tuple(out)


# (row dim, column dim) of every subsystem matrix, by port letter:
# x state, v/z internal input/output, u/y external input/output
SUB_SHAPES = {
    "E": ("x", "x"), "A_xx": ("x", "x"), "B_xv": ("x", "v"),
    "B_xu": ("x", "u"), "C_zx": ("z", "x"), "C_yx": ("y", "x"),
    "D_zv": ("z", "v"), "D_zu": ("z", "u"), "D_yv": ("y", "v"),
    "D_yu": ("y", "u"),
}


@dataclass(frozen=True)
class SubsystemRealization:
    """Constant matrices of one descriptor-form subsystem."""

    E: tuple
    A_xx: tuple
    B_xv: tuple
    B_xu: tuple
    C_zx: tuple
    C_yx: tuple
    D_zv: tuple
    D_zu: tuple
    D_yv: tuple
    D_yu: tuple

    def __post_init__(self):
        n_x = len(self.E)
        if n_x == 0:
            raise DimensionError("state dimension must be positive")
        # n_v and n_u are the widths of the first rows of B_xv and B_xu
        if len(self.B_xv) != n_x or len(self.B_xu) != n_x:
            raise DimensionError(f"B_xv and B_xu must have {n_x} rows")
        if self.n_v == 0 or self.n_z == 0:
            raise DimensionError("internal dimensions must be positive")
        for name, (r, c) in SUB_SHAPES.items():
            r, c = getattr(self, "n_" + r), getattr(self, "n_" + c)
            m = getattr(self, name)
            if len(m) != r or any(len(row) != c for row in m):
                raise DimensionError(f"{name} must be {r}x{c}")

    @cached_property
    def _hash(self):
        return hash(tuple(getattr(self, name) for name in SUB_SHAPES))

    def __hash__(self):
        # every per-distinct memo hashes subsystems, and hashing all their
        # Fractions is costly: the hash is taken on first use and kept
        return self._hash

    @property
    def n_x(self):
        return len(self.E)

    @property
    def n_v(self):
        return len(self.B_xv[0])

    @property
    def n_u(self):
        return len(self.B_xu[0])

    @property
    def n_z(self):
        return len(self.C_zx)

    @property
    def n_y(self):
        return len(self.C_yx)

    def pencil(self) -> PolyMat:
        """lambda E - A_xx as a polynomial matrix."""
        n = self.n_x
        return PolyMat(n, n, [
            [Poly((-self.A_xx[i][j], self.E[i][j])) for j in range(n)]
            for i in range(n)])


@dataclass(frozen=True)
class NdsDefinition:
    subsystems: tuple
    time_domain: str = "continuous"

    def __post_init__(self):
        if not self.subsystems:
            raise DimensionError("at least one subsystem is required")
        if self.time_domain not in ("continuous", "discrete"):
            raise SchemaError(f"bad time domain {self.time_domain!r}")

    @property
    def n(self):
        return len(self.subsystems)

    def total(self, dim: str) -> int:
        return sum(getattr(s, "n_" + dim) for s in self.subsystems)

    @property
    def m_x(self):
        return self.total("x")

    @property
    def m_u(self):
        return self.total("u")

    @property
    def m_y(self):
        return self.total("y")

    @property
    def m_v(self):
        return self.total("v")

    @property
    def m_z(self):
        return self.total("z")

    def block(self, name: str):
        """Block-diagonal assembly of a per-subsystem constant matrix."""
        mats = [ratmat.thaw(getattr(s, name)) for s in self.subsystems]
        rdim, cdim = SUB_SHAPES[name]
        rows = self.total(rdim)
        cols = self.total(cdim)
        out = ratmat.zeros(rows, cols)
        r0 = c0 = 0
        for s, m in zip(self.subsystems, mats):
            nr = getattr(s, "n_" + rdim)
            nc = getattr(s, "n_" + cdim)
            for i in range(nr):
                for j in range(nc):
                    out[r0 + i][c0 + j] = m[i][j]
            r0 += nr
            c0 += nc
        return out


@dataclass(frozen=True)
class SCMatrix:
    """Subsystem connection matrix Phi (m_v x m_z, exact rationals)."""

    entries: tuple

    def __post_init__(self):
        rows = self.entries
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise DimensionError("ragged SCM")

    @classmethod
    def from_rows(cls, rows, what="an SCM"):
        return cls(tuple(tuple(parse_rat(x) for x in r)
                         for r in _rows(rows, what)))

    @classmethod
    def zero(cls, rows, cols):
        return cls(ratmat.freeze(ratmat.zeros(rows, cols)))

    @classmethod
    def parse_inline(cls, text: str):
        """Parse the shell syntax "a,b;c,d" with fraction/decimal entries."""
        rows = [r for r in text.strip().split(";") if r.strip() != ""]
        return cls.from_rows([[e for e in r.split(",")] for r in rows])

    @property
    def rows(self):
        return len(self.entries)

    @property
    def cols(self):
        return len(self.entries[0]) if self.entries else 0

    def as_lists(self):
        return ratmat.thaw(self.entries)

    def transpose(self):
        return SCMatrix(ratmat.freeze(ratmat.transpose(self.as_lists(),
                                                       cols=self.cols)))

    def check_shape(self, nds: NdsDefinition):
        if (self.rows, self.cols) != (nds.m_v, nds.m_z):
            raise ShapeError(
                f"SCM is {self.rows}x{self.cols}, "
                f"expected {nds.m_v}x{nds.m_z}")


@dataclass(frozen=True)
class KnownEntries:
    """A-priori information: entry (i, j) of the SCM is known for i in I[j].

    Indices are 1-based.  Columns absent from J are fully unknown.
    """

    J: tuple
    I: dict = field(default_factory=dict)

    def rows_for(self, j: int):
        return tuple(self.I.get(j, ()))


@dataclass(frozen=True)
class AffineConstraint:
    """SCM constrained to Phi(theta) = base + sum_k theta_k directions[k]."""

    base: SCMatrix
    directions: tuple
    theta: tuple = ()

    @property
    def q(self):
        return len(self.directions)

    def at(self, theta) -> SCMatrix:
        if len(theta) != self.q:
            raise ShapeError(f"theta has {len(theta)} entries, expected {self.q}")
        out = self.base.as_lists()
        for t, d in zip(theta, self.directions):
            out = ratmat.add(out, ratmat.scale(d.as_lists(), t))
        return SCMatrix(ratmat.freeze(out))


@dataclass
class SubsystemTfms:
    """The four transfer function matrices of Eq-style i/o partitioning."""

    G_yu: RatFunMat
    G_yv: RatFunMat
    G_zu: RatFunMat
    G_zv: RatFunMat


def parse_model(text):
    """Parse a JSON model file.

    Returns (NdsDefinition, SCMatrix | None, constraint | None) where the
    constraint is a KnownEntries or AffineConstraint instance.
    """
    doc = _json_doc(text, "model file")
    if not isinstance(doc, dict):
        raise SchemaError("model file must be a JSON object")
    if "subsystems" not in doc or not isinstance(doc["subsystems"], list) \
            or not doc["subsystems"]:
        raise SchemaError("model file needs a nonempty 'subsystems' list")
    time_domain = doc.get("time_domain", "continuous")
    if time_domain not in ("continuous", "discrete"):
        raise SchemaError(f"bad time_domain {time_domain!r}")

    subs = []
    for k, raw in enumerate(doc["subsystems"]):
        if not isinstance(raw, dict):
            raise SchemaError(f"subsystem {k + 1} must be an object")
        missing = [key for key in SUB_SHAPES if key not in raw]
        if missing:
            raise SchemaError(
                f"subsystem {k + 1} is missing {', '.join(missing)}")
        # types first: the dimensions below index into these lists
        for key in SUB_SHAPES:
            _rows(raw[key], f"subsystem {k + 1}.{key}")
        n_x = len(raw["E"])
        if n_x == 0:
            raise SchemaError(f"subsystem {k + 1}: E must be a nonempty matrix")
        b_xv = raw["B_xv"]
        if len(b_xv) != n_x:
            raise DimensionError(f"subsystem {k + 1}: B_xv must have {n_x} rows")
        dims = {"x": n_x, "v": len(b_xv[0]),
                "u": len(raw["B_xu"][0]) if raw["B_xu"] else 0,
                "z": len(raw["C_zx"]), "y": len(raw["C_yx"])}
        kw = {name: _parse_matrix(raw[name], dims[r], dims[c],
                                  f"subsystem {k + 1}.{name}")
              for name, (r, c) in SUB_SHAPES.items()}
        subs.append(SubsystemRealization(**kw))

    nds = NdsDefinition(subsystems=tuple(subs), time_domain=time_domain)

    phi = None
    if "scm" in doc and doc["scm"] is not None:
        phi = SCMatrix.from_rows(doc["scm"], "scm")
        phi.check_shape(nds)

    constraint = None
    if "constraints" in doc and doc["constraints"] is not None:
        constraint = parse_constraints(doc["constraints"], nds)
    return nds, phi, constraint


def _json_doc(raw, what):
    """The JSON document in ``raw``, a str or UTF-8 bytes; anything else
    raises a SchemaError naming ``what``."""
    try:
        return json.loads(raw.decode("utf-8") if isinstance(raw, bytes)
                          else raw)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{what} is not valid JSON: {exc}") from exc


def _json_list(x, what):
    if not isinstance(x, list):
        raise SchemaError(f"{what} must be a list, got {type(x).__name__}")
    return x


def _json_dict(x, what):
    if not isinstance(x, dict):
        raise SchemaError(f"{what} must be an object, got {type(x).__name__}")
    return x


def _index(x, what) -> int:
    try:
        return int(x)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad {what} {x!r}") from exc


def parse_constraints(c, nds: NdsDefinition):
    """Parse a constraints object into KnownEntries or AffineConstraint."""
    if not isinstance(c, dict) or len(c) != 1:
        raise SchemaError(
            "constraints must hold exactly one of known_entries/affine")
    if "known_entries" in c:
        ke = _json_dict(c["known_entries"], "known_entries")
        j_list = tuple(_index(j, "column index")
                       for j in _json_list(ke.get("J", []), "J"))
        i_map = {_index(j, "column index"):
                 tuple(_index(i, "row index")
                       for i in _json_list(rows, f"I[{j!r}]"))
                 for j, rows in _json_dict(ke.get("I", {}), "I").items()}
        for j in j_list:
            if not 1 <= j <= nds.m_z:
                raise SchemaError(f"column index {j} out of range")
        for j, rows in i_map.items():
            for i in rows:
                if not 1 <= i <= nds.m_v:
                    raise SchemaError(f"row index {i} out of range")
        return KnownEntries(J=j_list, I=i_map)
    if "affine" in c:
        af = _json_dict(c["affine"], "affine")
        if "phi0" not in af:
            raise SchemaError("affine constraints need phi0")
        base = SCMatrix.from_rows(af["phi0"], "phi0")
        base.check_shape(nds)
        dirs = tuple(SCMatrix.from_rows(d, "a direction")
                     for d in _json_list(af.get("directions", []),
                                         "directions"))
        for d in dirs:
            d.check_shape(nds)
        theta = tuple(parse_rat(t)
                      for t in _json_list(af.get("theta", []), "theta"))
        return AffineConstraint(base=base, directions=dirs, theta=theta)
    raise SchemaError("unknown constraint kind")


def _int_blocks(*blocks):
    """The blocks of [M_1 | M_2 | ...], whose rows are cleared to ints
    once by ``ratmat``'s row rule and then split back into int matrices
    of the input widths, and the row scales."""
    widths = [len(m[0]) if m else 0 for m in blocks]
    rows, scales = ratmat._cleared(
        [[x for m in blocks for x in m[i]] for i in range(len(blocks[0]))])
    out, c0 = [], 0
    for w in widths:
        out.append([row[c0:c0 + w] for row in rows])
        c0 += w
    return out, scales


def _nonsingular_points(e, a, b=None):
    """(s, det, adj B) at the first points s = 0, 1, 2, ... where
    det(sE - A) is nonzero, or None when the pencil is singular.

    ``e``, ``a`` and ``b`` are int rows (``_int_blocks``).  At each point
    the int rows [sE - A | B] are eliminated once, fraction-free
    (``ratmat._eliminate``): fewer than n pivots means det(sE - A) = 0.
    Without ``b`` the elimination is forward only and the search stops at
    the first nonsingular point (the regularity test; adj B is empty).
    With ``b`` it is Gauss-Jordan and runs to rank E + 1 points: every
    pivot then equals the last pivot d = sign det(sE - A), and the right
    block is Y = d (sE - A)^-1 B (Cramer), so adj(sE - A) B = sign Y.

    Degree bound: with r = rank E, write E = U diag(I_r, 0) V for
    invertible constant U, V; only r entries of U^-1 (sE - A) V^-1 carry
    s, so det(sE - A) has degree <= r.  A nonzero determinant thus
    vanishes at no more than r points: it is identically zero iff it
    vanishes at r + 1 distinct points, and at most 2r + 1 points are ever
    evaluated.
    """
    r = ratmat.rank(e)
    n = len(e)
    count = 1 if b is None else r + 1
    right = b if b is not None else [[] for _ in e]
    found, misses = [], 0
    for s in itertools.count():
        p = [[s * x - y for x, y in zip(re, ra)] + rb
             for re, ra, rb in zip(e, a, right)]
        pivots, sign = ratmat._eliminate(p, n, floordiv, jordan=b is not None)
        if len(pivots) == n:
            det = sign * p[-1][n - 1] if n else 1
            adj_b = [row[n:] if sign > 0 else [-x for x in row[n:]]
                     for row in p]
            found.append((s, det, adj_b))
            if len(found) == count:
                return found
        else:
            misses += 1
            if misses > r:
                return None


def pencil_is_regular(e, a) -> bool:
    """True iff det(sE - A) is not the zero polynomial (bounded point test)."""
    (e, a), _ = _int_blocks(e, a)
    return _nonsingular_points(e, a) is not None


def descriptor_tfm(e, a, b, c, d) -> RatFunMat:
    """Exact transfer matrix C (sE - A)^-1 B + D of a regular realization.

    H = N / det(sE - A) with N = C adj(sE - A) B + det(sE - A) D.  Every
    entry of adj(sE - A) is an (n-1)-minor of the pencil, the determinant
    of some s E' - A' with rank E' <= rank E, so N and det(sE - A) both
    have degree <= rank E (bound in ``_nonsingular_points``).  Their values
    at rank E + 1 points where the determinant is nonzero therefore
    determine them by interpolation.

    The samples are ints.  The rows of [E | A | B] are cleared once, which
    scales det and N by the same constant, the product of the row scales.
    The rows of [C | D] are cleared with scales g_i, so the sample of row
    i is g_i times that of N, and row i takes g_i det as its denominator.
    RatFun reduces N_ij / det to its canonical form, so the result depends
    neither on the scales nor on the points chosen.
    """
    (e, a, b), _ = _int_blocks(e, a, b)
    (c, d), gamma = _int_blocks(c, d)
    pts = _nonsingular_points(e, a, b)
    if pts is None:
        raise NotRegular("pencil sE - A is singular for every s")
    rows, cols = len(c), len(b[0])
    samples = []
    for _, det, adj_b in pts:
        adj_cols = [[row[j] for row in adj_b] for j in range(cols)]
        samples.append([det] + [sum(map(mul, c_row, col)) + det * x
                                for c_row, d_row in zip(c, d)
                                for col, x in zip(adj_cols, d_row)])
    vander = [[s ** k for k in range(len(pts))] for s, _, _ in pts]
    coeffs = ratmat.transpose(ratmat.solve(vander, samples))
    den = Poly(coeffs[0])
    return RatFunMat(rows, cols, [
        [RatFun(Poly(coeffs[1 + i * cols + j]), den_i) for j in range(cols)]
        for i, den_i in enumerate(den * g for g in gamma)])


def check_subsystem_regular(sub: SubsystemRealization) -> bool:
    """True iff det(lambda E - A_xx) is not the zero polynomial."""
    return pencil_is_regular(sub.E, sub.A_xx)


def subsystem_tfms(sub: SubsystemRealization) -> SubsystemTfms:
    """Exact transfer function matrices of one subsystem."""
    t = descriptor_tfm(
        ratmat.thaw(sub.E), ratmat.thaw(sub.A_xx),
        ratmat.hstack(ratmat.thaw(sub.B_xu), ratmat.thaw(sub.B_xv)),
        ratmat.vstack(sub.C_yx, sub.C_zx),
        ratmat.vstack(
            ratmat.hstack(ratmat.thaw(sub.D_yu), ratmat.thaw(sub.D_yv)),
            ratmat.hstack(ratmat.thaw(sub.D_zu), ratmat.thaw(sub.D_zv))))
    n_y, n_u = sub.n_y, sub.n_u
    return SubsystemTfms(
        G_yu=t.submatrix(range(n_y), range(n_u)),
        G_yv=t.submatrix(range(n_y), range(n_u, n_u + sub.n_v)),
        G_zu=t.submatrix(range(n_y, n_y + sub.n_z), range(n_u)),
        G_zv=t.submatrix(range(n_y, n_y + sub.n_z),
                         range(n_u, n_u + sub.n_v)),
    )


def per_distinct(fn, items, key=None):
    """``[fn(x) for x in items]`` with ``fn`` run once per distinct
    ``key(x)`` (default: x itself) and its result object reused for every
    repeat.  The memo lives for this call only."""
    memo, out = {}, []
    for x in items:
        k = x if key is None else key(x)
        # memo marks a miss, so a repeat hashes its (costly) key only once
        r = memo.get(k, memo)
        if r is memo:
            r = memo[k] = fn(x)
        out.append(r)
    return out


def assemble_block_tfms(nds: NdsDefinition) -> SubsystemTfms:
    """Block-diagonal transfer matrices of the disconnected subsystem stack,
    one ``subsystem_tfms`` per distinct subsystem."""
    per = per_distinct(subsystem_tfms, nds.subsystems)
    return SubsystemTfms(
        G_yu=RatFunMat.block_diag([t.G_yu for t in per]),
        G_yv=RatFunMat.block_diag([t.G_yv for t in per]),
        G_zu=RatFunMat.block_diag([t.G_zu for t in per]),
        G_zv=RatFunMat.block_diag([t.G_zv for t in per]),
    )


def lifted_realization(nds: NdsDefinition, phi: SCMatrix):
    """Descriptor realization (E, A, B, C, D) of the NDS with state col{x, z}.

    Keeps the internal outputs as algebraic states, so it needs only
    regularity, not well-posedness:

        [E 0] d[x]   [A_xx  B_xv Phi     ] [x]   [B_xu]
        [0 0]  [z] = [C_zx  D_zv Phi - I ] [z] + [D_zu] u
                 y = [C_yx  D_yv Phi] [x; z] + D_yu u
    """
    m_x, m_z = nds.m_x, nds.m_z
    phi_m = phi.as_lists()
    e = ratmat.vstack(
        ratmat.hstack(nds.block("E"), ratmat.zeros(m_x, m_z)),
        ratmat.zeros(m_z, m_x + m_z))
    a = ratmat.vstack(
        ratmat.hstack(nds.block("A_xx"),
                      ratmat.matmul(nds.block("B_xv"), phi_m)),
        ratmat.hstack(nds.block("C_zx"),
                      ratmat.sub(ratmat.matmul(nds.block("D_zv"), phi_m),
                                 ratmat.identity(m_z))))
    b = ratmat.vstack(nds.block("B_xu"), nds.block("D_zu"))
    c = ratmat.hstack(nds.block("C_yx"),
                      ratmat.matmul(nds.block("D_yv"), phi_m))
    return e, a, b, c, nds.block("D_yu")


def _check_subsystems(nds: NdsDefinition):
    """Raise NotRegular naming the first irregular subsystem; regularity
    is decided once per distinct subsystem."""
    regular = per_distinct(check_subsystem_regular, nds.subsystems)
    if not all(regular):
        raise NotRegular(
            f"subsystem {regular.index(False) + 1} is not regular")


def check_nds_regular(nds: NdsDefinition, phi: SCMatrix) -> bool:
    """True iff det(I - G_zv(lambda) Phi) is not identically zero.

    Raises NotRegular when a subsystem is irregular.  Otherwise the test
    runs on the lifted pencil: by the Schur complement,
    det(sE_L - A_L) = det(sE - A_xx) det(I - G_zv(s) Phi).
    """
    phi.check_shape(nds)
    _check_subsystems(nds)
    e, a, _, _, _ = lifted_realization(nds, phi)
    return pencil_is_regular(e, a)


def check_well_posed(nds: NdsDefinition, phi: SCMatrix) -> bool:
    """Exact invertibility of I - Phi D_zv."""
    phi.check_shape(nds)
    d_zv = nds.block("D_zv")
    m = ratmat.sub(ratmat.identity(nds.m_v),
                   ratmat.matmul(phi.as_lists(), d_zv))
    return ratmat.det(m) != 0


def nds_tfm(nds: NdsDefinition, phi: SCMatrix) -> RatFunMat:
    """External transfer matrix H = G_yu + G_yv (I - Phi G_zv)^-1 Phi G_zu,
    computed by ``descriptor_tfm`` on the lifted realization."""
    phi.check_shape(nds)
    _check_subsystems(nds)
    return descriptor_tfm(*lifted_realization(nds, phi))


def tfm_equal(h1: RatFunMat, h2: RatFunMat) -> bool:
    """Exact entrywise equality of reduced rational matrices."""
    if h1.shape != h2.shape:
        raise ShapeError(f"shape mismatch {h1.shape} vs {h2.shape}")
    return h1 == h2


def transpose_nds(nds: NdsDefinition) -> NdsDefinition:
    """Dual system whose subsystem TFMs are the transposes of the original's.

    Roles swap (u <-> y, v <-> z): G'_yv = G_zu^T, G'_zu = G_yv^T,
    G'_zv = G_zv^T, G'_yu = G_yu^T, realized per subsystem by transposing
    every constant matrix and exchanging input/output roles.
    """
    def tr(m, cols):
        return ratmat.freeze(ratmat.transpose(ratmat.thaw(m), cols=cols))

    subs = []
    for s in nds.subsystems:
        subs.append(SubsystemRealization(
            E=tr(s.E, s.n_x),
            A_xx=tr(s.A_xx, s.n_x),
            B_xv=tr(s.C_zx, s.n_x),      # new n_v = old n_z
            B_xu=tr(s.C_yx, s.n_x),      # new n_u = old n_y
            C_zx=tr(s.B_xv, s.n_v),      # new n_z = old n_v
            C_yx=tr(s.B_xu, s.n_u),      # new n_y = old n_u
            D_zv=tr(s.D_zv, s.n_v),
            D_zu=tr(s.D_yv, s.n_v),
            D_yv=tr(s.D_zu, s.n_u),
            D_yu=tr(s.D_yu, s.n_u),
        ))
    return NdsDefinition(subsystems=tuple(subs), time_domain=nds.time_domain)
