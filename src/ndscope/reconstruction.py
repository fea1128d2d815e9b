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
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub

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


def _block_left(terms, m, nrows):
    """P m for a P that is block-diagonal up to permutations, given as
    (P_i, src_i, dst_i): rows dst_i of P m are P_i m[src_i, :]."""
    out = [None] * nrows
    for p, src, dst in terms:
        block = ratmat.matmul(p, [m[r] for r in src], inner=len(src))
        for r, row in zip(dst, block):
            out[r] = row
    return out


def _block_right(m, terms, ncols):
    """m Q for such a Q given as (Q_j, src_j, dst_j): columns dst_j of
    m Q are m[:, src_j] Q_j."""
    t = [(ratmat.transpose(q), src, dst) for q, src, dst in terms]
    return ratmat.transpose(_block_left(t, ratmat.transpose(m), ncols),
                            cols=len(m))


def _shift_base(ports, m, op):
    """m[R_i, C_i] = op(m[R_i, C_i], base_i) in place for every subsystem,
    with base_i = [A_xx_i B_xu_i; C_yx_i D_yu_i]."""
    for s, rows, cols, _, _ in ports:
        base = ratmat.vstack(ratmat.hstack(s.A_xx, s.B_xu),
                             ratmat.hstack(s.C_yx, s.D_yu))
        for r, brow in zip(rows, base):
            row = m[r]
            for c, x in zip(cols, brow):
                row[c] = op(row[c], x)


def _times_d_zv(nds, ports, m):
    return _block_right(m, [(s.D_zv, z, v) for s, _, _, v, z in ports],
                        nds.m_v)


def lump(nds: NdsDefinition, phi: SCMatrix) -> LumpedModel:
    """Eliminate the interconnection and return the whole-NDS model.

    Raises NotWellPosed when I - Phi D_zv is singular."""
    phi.check_shape(nds)
    ports = _ports(nds)
    w = ratmat.sub(ratmat.identity(nds.m_v),
                   _times_d_zv(nds, ports, phi.as_lists()))
    try:
        gain = ratmat.solve(w, phi.as_lists())     # (I - Phi D_zv)^-1 Phi
    except ratmat.SingularMatrixError as exc:
        raise NotWellPosed("I - Phi D_zv is singular") from exc
    m_x, m_u = nds.m_x, nds.m_u
    k_gain = _block_left([(_k_matrix(s), v, rows)
                          for s, rows, _, v, _ in ports],
                         gain, m_x + nds.m_y)
    full = _block_right(k_gain, [(_l_matrix(s), z, cols)
                                 for s, _, cols, _, z in ports], m_x + m_u)
    _shift_base(ports, full, add)
    return LumpedModel(
        E_hat=ratmat.freeze(nds.block("E")),
        A_hat=ratmat.freeze([row[:m_x] for row in full[:m_x]]),
        B_hat=ratmat.freeze([row[m_x:] for row in full[:m_x]]),
        C_hat=ratmat.freeze([row[:m_x] for row in full[m_x:]]),
        D_hat=ratmat.freeze([row[m_x:] for row in full[m_x:]]),
    )


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
    """E_d = [A B; C D] - base, after a shape check of every row."""
    for name, (r, c) in LUMPED_SHAPES.items():
        rows, cols = nds.total(r), nds.total(c)
        m = getattr(model, name + "_hat")
        if len(m) != rows or any(len(row) != cols for row in m):
            raise ShapeError(
                f"lumped {name} must be {rows}x{cols} to match the NDS")
    e_d = [list(ra) + list(rb) for ra, rb in zip(model.A_hat, model.B_hat)]
    e_d += [list(rc) + list(rd) for rc, rd in zip(model.C_hat, model.D_hat)]
    _shift_base(ports, e_d, sub)
    return e_d


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
    ``check_consistency`` and ``recover_scm``."""
    ports = _ports(nds)
    # L_j^+ is the transpose of (L_j L_j^T)^-1 L_j
    k_plus = [(_gram_solve(ratmat.transpose(_k_matrix(s))), rows, v)
              for s, rows, _, v, _ in ports]
    l_plus = [(ratmat.transpose(_gram_solve(_l_matrix(s))), cols, z)
              for s, _, cols, _, z in ports]
    if ratmat.thaw(model.E_hat) != nds.block("E"):
        raise ShapeError("lumped E must equal the block-diagonal E exactly")
    e_d = _model_deviation(nds, model, ports)
    e_t = ratmat.transpose(e_d)
    cond_left = all(ratmat.is_zero(ratmat.matmul(
        ratmat.left_null_space(_k_matrix(s), cols=s.n_v),
        [e_d[r] for r in rows], inner=len(rows)))
        for s, rows, _, _, _ in ports)
    cond_right = all(ratmat.is_zero(ratmat.matmul(
        ratmat.transpose(ratmat.null_space(_l_matrix(s))),
        [e_t[c] for c in cols], inner=len(cols)))
        for s, _, cols, _, _ in ports)
    h_m = _block_right(_block_left(k_plus, e_d, nds.m_v), l_plus, nds.m_z)
    w = ratmat.add(ratmat.identity(nds.m_v), _times_d_zv(nds, ports, h_m))
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
