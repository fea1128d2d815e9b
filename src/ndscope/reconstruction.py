"""SCM reconstruction from a lumped descriptor model of the whole NDS.

Well-posed interconnections collapse into one descriptor model whose
system matrix is an affine function of Pi = (I - Phi D_zv)^-1 Phi.  The
per-subsystem matrices K = col{B_xv, D_yv} and L = [C_zx  D_zu] decide
whether Pi (and hence Phi) can be recovered from that model: K must have
full column rank and L full row rank.  All algebra here is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ratmat
from .model import (
    NdsDefinition, NotRegular, NotWellPosed, SCMatrix, check_nds_regular,
    check_well_posed, descriptor_tfm, lifted_realization,
)
from .polymat import RatFunMat, ShapeError


class NotReconstructible(ArithmeticError):
    """K is not FCR or L is not FRR; the SCM is not uniquely recoverable."""


class Inconsistent(ArithmeticError):
    """The candidate model cannot be realized by any SCM."""


class SingularRecovery(ArithmeticError):
    """I + H_m D_zv singular although the consistency conditions held."""


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
    cond_left: bool
    cond_right: bool
    cond_hm: bool
    H_m: list
    consistent: bool
    recovery_unique: bool
    residual_left: list | None = None
    residual_right: list | None = None


def _gain(nds: NdsDefinition, phi: SCMatrix):
    """(I - Phi D_zv)^-1 Phi, the lumping gain."""
    d_zv = nds.block("D_zv")
    w = ratmat.sub(ratmat.identity(nds.m_v),
                   ratmat.matmul(phi.as_lists(), d_zv))
    try:
        w_inv = ratmat.inv(w)
    except ratmat.SingularMatrixError as exc:
        raise NotWellPosed("I - Phi D_zv is singular") from exc
    return ratmat.matmul(w_inv, phi.as_lists())


def lump(nds: NdsDefinition, phi: SCMatrix) -> LumpedModel:
    """Eliminate the interconnection and return the whole-NDS model."""
    phi.check_shape(nds)
    if not check_well_posed(nds, phi):
        raise NotWellPosed("I - Phi D_zv is singular")
    gain = _gain(nds, phi)
    k = ratmat.vstack(nds.block("B_xv"), nds.block("D_yv"))
    latch = ratmat.hstack(nds.block("C_zx"), nds.block("D_zu"))
    base = ratmat.vstack(
        ratmat.hstack(nds.block("A_xx"), nds.block("B_xu")),
        ratmat.hstack(nds.block("C_yx"), nds.block("D_yu")))
    full = ratmat.add(base, ratmat.matmul(ratmat.matmul(k, gain), latch))
    m_x, m_u = nds.m_x, nds.m_u
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


def _model_deviation(nds: NdsDefinition, model: LumpedModel):
    m_x, m_u = nds.m_x, nds.m_u
    m_y = nds.m_y
    a = ratmat.thaw(model.A_hat)
    b = ratmat.thaw(model.B_hat)
    c = ratmat.thaw(model.C_hat)
    d = ratmat.thaw(model.D_hat)
    if ratmat.shape(a) != (m_x, m_x) or ratmat.shape(b) != (m_x, m_u):
        raise ShapeError("lumped A/B shapes do not match the NDS")
    if len(c) != m_y or (m_y and len(c[0]) != m_x):
        raise ShapeError("lumped C shape does not match the NDS")
    if len(d) != m_y or (m_y and m_u and len(d[0]) != m_u):
        raise ShapeError("lumped D shape does not match the NDS")
    cand = ratmat.vstack(ratmat.hstack(a, b), ratmat.hstack(c, d))
    base = ratmat.vstack(
        ratmat.hstack(nds.block("A_xx"), nds.block("B_xu")),
        ratmat.hstack(nds.block("C_yx"), nds.block("D_yu")))
    return ratmat.sub(cand, base)


def check_consistency(nds: NdsDefinition,
                      model: LumpedModel) -> ConsistencyReport:
    """Can any SCM produce this lumped model?  Exact three-part test."""
    rec = check_reconstructible(nds)
    if not rec.reconstructible:
        raise NotReconstructible(
            "K must be FCR and L must be FRR for the consistency test")
    if ratmat.thaw(model.E_hat) != nds.block("E"):
        raise ShapeError("lumped E must equal the block-diagonal E exactly")
    e_d = _model_deviation(nds, model)
    k = ratmat.vstack(nds.block("B_xv"), nds.block("D_yv"))
    latch = ratmat.hstack(nds.block("C_zx"), nds.block("D_zu"))
    k_perp = ratmat.left_null_space(k, cols=nds.m_v)
    l_perp = ratmat.null_space(latch)
    res_left = ratmat.matmul(k_perp, e_d, inner=len(e_d))
    res_right = ratmat.matmul(e_d, l_perp, inner=len(l_perp))
    cond_left = ratmat.is_zero(res_left)
    cond_right = ratmat.is_zero(res_right)
    ktk_inv = ratmat.inv(ratmat.matmul(ratmat.transpose(k), k))
    llt_inv = ratmat.inv(ratmat.matmul(latch, ratmat.transpose(latch)))
    h_m = ratmat.matmul(
        ratmat.matmul(ktk_inv, ratmat.transpose(k)),
        ratmat.matmul(ratmat.matmul(e_d, ratmat.transpose(latch)), llt_inv))
    w = ratmat.add(ratmat.identity(nds.m_v),
                   ratmat.matmul(h_m, nds.block("D_zv")))
    w_perp = ratmat.left_null_space(w, cols=nds.m_v)
    cond_hm = ratmat.is_zero(ratmat.matmul(w_perp, h_m, inner=len(h_m)))
    unique = ratmat.det(w) != 0
    return ConsistencyReport(
        cond_left=cond_left, cond_right=cond_right, cond_hm=cond_hm,
        H_m=h_m, consistent=cond_left and cond_right and cond_hm,
        recovery_unique=unique,
        residual_left=res_left, residual_right=res_right)


def lumped_tfm(model: LumpedModel) -> RatFunMat:
    """Exact transfer matrix C (sE - A)^-1 B + D of a lumped model."""
    return descriptor_tfm(*(ratmat.thaw(m) for m in (
        model.E_hat, model.A_hat, model.B_hat, model.C_hat, model.D_hat)))


def recover_scm(nds: NdsDefinition, model: LumpedModel) -> SCMatrix:
    """Exact SCM recovery Phi = (I + H_m D_zv)^-1 H_m."""
    report = check_consistency(nds, model)
    if not report.consistent:
        raise Inconsistent("model is not consistent with the NDS structure")
    w = ratmat.add(ratmat.identity(nds.m_v),
                   ratmat.matmul(report.H_m, nds.block("D_zv")))
    try:
        w_inv = ratmat.inv(w)
    except ratmat.SingularMatrixError as exc:
        raise SingularRecovery(
            "I + H_m D_zv is singular despite a consistent model") from exc
    return SCMatrix(ratmat.freeze(ratmat.matmul(w_inv, report.H_m)))
