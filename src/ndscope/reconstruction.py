"""SCM reconstruction from a lumped descriptor model of the whole NDS.

Well-posed interconnections collapse into one descriptor model whose
system matrix is [A B; C D] = base + K Pi L, with Pi = (I - Phi D_zv)^-1
Phi, base = [A_xx B_xu; C_yx D_yu], K = col{B_xv, D_yv} and
L = [C_zx  D_zu].  Pi (and hence Phi) can be recovered from that model
iff K has full column rank and L full row rank.  All algebra here is
exact, and runs on subsystem blocks.  Let R_i be the x_i and y_i rows of
[A B; C D], C_i its x_i and u_i columns, and v_i, z_i the rows and
columns of Phi of subsystem i.  K is block-diagonal up to a row
permutation, with blocks K_i = col{B_xv_i, D_yv_i} on R_i x v_i, L up to
a column permutation, with blocks L_j = [C_zx_j  D_zu_j] on z_j x C_j,
and base is nonzero only on the R_i x C_i.  Hence:

* (K Pi L)[:, C_j] = (K Pi)[:, z_j] L_j, with (K Pi)[R_i, :] = K_i Pi[v_i, :].
* K^T K is block-diagonal, so the Moore-Penrose estimate of Pi from the
  deviation E_d = [A B; C D] - base, H_m = (K^T K)^-1 K^T E_d L^T
  (L L^T)^-1, has the blocks H_m[v_i, z_j] = K_i^+ E_d[R_i, C_j] L_j^+,
  with K_i^+ = (K_i^T K_i)^-1 K_i^T and L_j^+ = L_j^T (L_j L_j^T)^-1.
* E_d = K X L for some X iff K_i_perp E_d[R_i, :] = 0 for every i
  (cond_left) and E_d[:, C_j] L_j_perp = 0 for every j (cond_right),
  with K_i_perp a left and L_j_perp a right null basis.
* Over Q, K_i^T K_i is singular iff K_i is not FCR, and L_j L_j^T iff
  L_j is not FRR: the solves that form K_i^+ and L_j^+ decide that.

Both passes form every block product on cleared int rows (``ratmat``),
with E_d's rows cleared once, and build one Fraction per entry they
return; base_i enters ``lump`` inside those Fractions, and a row scale
keeps the zero sums of cond_left and cond_right zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import lcm
from operator import mul, sub

from . import ratmat
from .model import (
    NdsDefinition, NotRegular, NotWellPosed, SCMatrix, check_nds_regular,
    descriptor_tfm, lifted_realization,
)
from .polymat import InputError, RatFunMat, ShapeError


class NotReconstructible(InputError, ArithmeticError):
    """K is not FCR or L is not FRR; the SCM is not uniquely recoverable."""


class Inconsistent(InputError, ArithmeticError):
    """The candidate model cannot be realized by any SCM."""


# (row dim, column dim) of the lumped A, B, C and D, by the port letters
# of ``model.SUB_SHAPES``
LUMPED_SHAPES = {"A": ("x", "x"), "B": ("x", "u"), "C": ("y", "x"),
                 "D": ("y", "u")}


@dataclass(frozen=True)
class LumpedModel:
    """Whole-NDS descriptor model E dx = A x + B u, y = C x + D u."""

    E_hat: tuple
    A_hat: tuple
    B_hat: tuple
    C_hat: tuple
    D_hat: tuple


@dataclass
class ReconReport:
    per_subsystem: tuple     # of {"K_fcr": bool, "L_frr": bool}
    reconstructible: bool


@dataclass
class ConsistencyReport:
    """The test of the module docstring.  H_m is X when E_d = K X L.
    With W = I + H_m D_zv, cond_hm is rank [W | H_m] = rank W and
    recovery_unique is rank W = m_v: one flag, since
    [W | H_m] [[I, 0], [-D_zv, I]] = [I | H_m] has rank m_v."""

    cond_left: bool
    cond_right: bool
    cond_hm: bool
    H_m: list
    consistent: bool
    recovery_unique: bool


def _ports(nds: NdsDefinition):
    """(sub, R_i, C_i, v_i, z_i) per subsystem (module docstring)."""
    m_x, out = nds.m_x, []
    x = y = u = v = z = 0
    for s in nds.subsystems:
        out.append((s,
                    [*range(x, x + s.n_x), *range(m_x + y, m_x + y + s.n_y)],
                    [*range(x, x + s.n_x), *range(m_x + u, m_x + u + s.n_u)],
                    range(v, v + s.n_v), range(z, z + s.n_z)))
        x, y, u = x + s.n_x, y + s.n_y, u + s.n_u
        v, z = v + s.n_v, z + s.n_z
    return out


def _spans(sizes):
    """(start, stop) of consecutive blocks of the given sizes."""
    ends = list(accumulate(sizes))
    return list(zip([0] + ends, ends))


def _base(sub) -> list:
    return ratmat.vstack(ratmat.hstack(sub.A_xx, sub.B_xu),
                         ratmat.hstack(sub.C_yx, sub.D_yu))


def _common(rows, scales):
    """(int columns, scale) of the rows rows[t] / scales[t], one scale."""
    d = lcm(*scales)
    return list(zip(*[row if e == d else [x * (d // e) for x in row]
                      for row, e in zip(rows, scales)])), d


def _entries(rows, row_den, cols, col_den, base=None):
    """One Fraction per entry of rows . cols / (row_den col_den) + base,
    for int rows and the cleared int columns of the right factor."""
    if base is None:
        return [[ratmat._fraction(sum(map(mul, row, col)), d * e)
                 for col, e in zip(cols, col_den)]
                for row, d in zip(rows, row_den)]
    return [[ratmat._fraction(
                sum(map(mul, row, col)) * b.denominator + b.numerator * d * e,
                d * e * b.denominator)
             for col, e, b in zip(cols, col_den, brow)]
            for row, d, brow in zip(rows, row_den, base)]


def lump(nds: NdsDefinition, phi: SCMatrix) -> LumpedModel:
    """Eliminate the interconnection and return the whole-NDS model.

    Raises NotWellPosed when I - Phi D_zv is singular."""
    phi.check_shape(nds)
    ports = _ports(nds)
    w = ratmat.sub(ratmat.identity(nds.m_v),
                   ratmat.matmul(phi.entries, nds.block("D_zv")))
    try:
        gain = ratmat.solve(w, phi.as_lists())     # (I - Phi D_zv)^-1 Phi
    except ratmat.SingularMatrixError as exc:
        raise NotWellPosed("I - Phi D_zv is singular") from exc
    g, g_den = ratmat._cleared(gain)
    l_cols = [ratmat._cleared(ratmat.transpose(_l_matrix(s)))
              for s, *_ in ports]
    n_x = [s.n_x for s in nds.subsystems]
    top, bottom = [], []       # rows of [A B] and [C D] split at m_x
    for i, (s, _, _, v, _) in enumerate(ports):
        g_i, d = _common(g[v.start:v.stop], g_den[v.start:v.stop])
        k, k_den = ratmat._cleared(_k_matrix(s))
        kg = [[sum(map(mul, row, col)) for col in g_i] for row in k]
        blocks = [_entries([row[z.start:z.stop] for row in kg],
                           [x * d for x in k_den], *l,
                           _base(s) if j == i else None)
                  for j, ((*_, z), l) in enumerate(zip(ports, l_cols))]
        for r, row in enumerate(zip(*blocks)):
            (top if r < n_x[i] else bottom).append(
                ([x for n, b in zip(n_x, row) for x in b[:n]],
                 [x for n, b in zip(n_x, row) for x in b[n:]]))
    return LumpedModel(*(ratmat.freeze(m) for m in (
        nds.block("E"), [a for a, _ in top], [b for _, b in top],
        [c for c, _ in bottom], [d for _, d in bottom])))


def lump_descriptor(nds: NdsDefinition, phi: SCMatrix) -> LumpedModel:
    """Lifted descriptor model with augmented state col{x, z}.

    Keeps the internal outputs as algebraic states; needs only regularity,
    not well-posedness.
    """
    phi.check_shape(nds)
    if not check_nds_regular(nds, phi):
        raise NotRegular("NDS is not regular at the given SCM")
    return LumpedModel(*(ratmat.freeze(m)
                         for m in lifted_realization(nds, phi)))


def _k_matrix(sub) -> list:
    return ratmat.vstack(sub.B_xv, sub.D_yv)


def _l_matrix(sub) -> list:
    return ratmat.hstack(sub.C_zx, sub.D_zu)


def check_reconstructible(nds: NdsDefinition) -> ReconReport:
    """Per-subsystem rank test; the SCM is recoverable iff all pass."""
    per = []
    for sub in nds.subsystems:
        k = _k_matrix(sub)
        latch = _l_matrix(sub)
        per.append({
            "K_fcr": ratmat.rank(k, cols=sub.n_v) == sub.n_v,
            "L_frr": ratmat.rank(latch) == sub.n_z,
        })
    return ReconReport(per_subsystem=tuple(per),
                       reconstructible=all(p["K_fcr"] and p["L_frr"]
                                           for p in per))


def _model_deviation(nds: NdsDefinition, model: LumpedModel, ports):
    """(E_d, spans of the C_j): E_d = [A B; C D] - base with its rows and
    columns in block order (R_1, R_2, ... and C_1, C_2, ...), after a
    shape check of every row."""
    for name, (r, c) in LUMPED_SHAPES.items():
        rows, cols = nds.total(r), nds.total(c)
        m = getattr(model, name + "_hat")
        if len(m) != rows or any(len(row) != cols for row in m):
            raise ShapeError(
                f"lumped {name} must be {rows}x{cols} to match the NDS")
    full = [list(ra) + list(rb) for ra, rb in zip(model.A_hat, model.B_hat)]
    full += [list(rc) + list(rd) for rc, rd in zip(model.C_hat, model.D_hat)]
    order = [c for _, _, cols, _, _ in ports for c in cols]
    col_spans = _spans(len(cols) for _, _, cols, _, _ in ports)
    e_d = []
    for (s, rows, _, _, _), (c0, c1) in zip(ports, col_spans):
        for r, brow in zip(rows, _base(s)):
            row = list(map(full[r].__getitem__, order))
            row[c0:c1] = map(sub, row[c0:c1], brow)
            e_d.append(row)
    return e_d, col_spans


def _gram_solve(m):
    """(m m^T)^-1 m, or NotReconstructible when m m^T is singular."""
    try:
        return ratmat.solve(ratmat.matmul(m, ratmat.transpose(m)), m)
    except ratmat.SingularMatrixError as exc:
        raise NotReconstructible(
            "K must be FCR and L must be FRR for the consistency test") \
            from exc


def _consistency(nds: NdsDefinition, model: LumpedModel):
    """(ConsistencyReport, W): the one consistency pass behind
    ``check_consistency`` and ``recover_scm`` (module docstring)."""
    ports = _ports(nds)
    k_plus = [_gram_solve(ratmat.transpose(_k_matrix(s))) for s, *_ in ports]
    # the cleared columns of L_j^+, the rows of (L_j L_j^T)^-1 L_j
    l_plus = [ratmat._cleared(_gram_solve(_l_matrix(s))) for s, *_ in ports]
    if ratmat.thaw(model.E_hat) != nds.block("E"):
        raise ShapeError("lumped E must equal the block-diagonal E exactly")
    e_d, col_spans = _model_deviation(nds, model, ports)
    e, e_den = ratmat._cleared(e_d)
    cond_left = cond_right = True
    h_m = []
    for (s, *_), (r0, r1), (c0, c1), kp in zip(
            ports, _spans(len(rows) for _, rows, _, _, _ in ports),
            col_spans, k_plus):
        cols, d = _common(e[r0:r1], e_den[r0:r1])    # of E_d[R_i, :]
        if cond_left:
            k_perp = ratmat._cleared(
                ratmat.left_null_space(_k_matrix(s), cols=s.n_v))[0]
            cond_left = not any(sum(map(mul, y, col))
                                for y in k_perp for col in cols)
        if cond_right:     # a row scale of E_d keeps a zero sum zero
            l_perp = ratmat._cleared(ratmat.transpose(
                ratmat.null_space(_l_matrix(s))))[0]
            cond_right = not any(sum(map(mul, seg, x))
                                 for seg in (row[c0:c1] for row in e)
                                 for x in l_perp)
        p, p_den = ratmat._cleared(kp)
        pe = [[sum(map(mul, row, col)) for col in cols] for row in p]
        blocks = [_entries([row[a:b] for row in pe], [x * d for x in p_den],
                           *l) for (a, b), l in zip(col_spans, l_plus)]
        h_m += [[x for block in row for x in block] for row in zip(*blocks)]
    w = ratmat.add(ratmat.identity(nds.m_v),
                   ratmat.matmul(h_m, nds.block("D_zv")))
    # cond_hm and uniqueness are both rank W = m_v (ConsistencyReport)
    unique = ratmat.rank(w) == nds.m_v
    report = ConsistencyReport(
        cond_left=cond_left, cond_right=cond_right, cond_hm=unique,
        H_m=h_m, consistent=cond_left and cond_right and unique,
        recovery_unique=unique)
    return report, w


def check_consistency(nds: NdsDefinition,
                      model: LumpedModel) -> ConsistencyReport:
    """Can any SCM produce this lumped model?  Exact three-part test."""
    return _consistency(nds, model)[0]


def lumped_tfm(model: LumpedModel) -> RatFunMat:
    """Exact transfer matrix C (sE - A)^-1 B + D of a lumped model."""
    return descriptor_tfm(*(ratmat.thaw(m) for m in (
        model.E_hat, model.A_hat, model.B_hat, model.C_hat, model.D_hat)))


def recover_scm(nds: NdsDefinition, model: LumpedModel) -> SCMatrix:
    """Exact SCM recovery Phi = W^-1 H_m, W = I + H_m D_zv.

    A consistent model has cond_hm, which is rank W = m_v
    (ConsistencyReport): W is nonsingular, so the solve cannot fail."""
    scm = check_and_recover(nds, model)[1]
    if scm is None:
        raise Inconsistent("model is not consistent with the NDS structure")
    return scm


def check_and_recover(nds: NdsDefinition, model: LumpedModel):
    """(report, SCM) of ``check_consistency`` and ``recover_scm`` from one
    pass; the SCM is None when the model is inconsistent."""
    report, w = _consistency(nds, model)
    if not report.consistent:
        return report, None
    return report, SCMatrix(
        ratmat.freeze(ratmat.solve_certified(w, report.H_m)))
