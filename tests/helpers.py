"""Shared generators for seeded random test instances, and exact oracles."""

from __future__ import annotations

import random
from fractions import Fraction

import ndscope.ratmat as rm
from ndscope.identifiability import classify_case
from ndscope.model import (
    NdsDefinition, NotRegular, SCMatrix, SubsystemRealization, SubsystemTfms,
    check_nds_regular, check_subsystem_regular, check_well_posed,
)
from ndscope.polymat import Poly, PolyMat, RatFun, RatFunMat
from ndscope.reconstruction import check_reconstructible


def rand_fraction(rng, lo=-3, hi=3, den=4) -> Fraction:
    return Fraction(rng.randint(lo * den, hi * den), den)


def rand_mat(rng, rows, cols, lo=-3, hi=3, den=4):
    return tuple(tuple(rand_fraction(rng, lo, hi, den) for _ in range(cols))
                 for _ in range(rows))


def rand_poly(rng, max_deg=2, den=2) -> Poly:
    deg = rng.randint(0, max_deg)
    coeffs = [Fraction(rng.randint(-4 * den, 4 * den), den)
              for _ in range(deg + 1)]
    return Poly(coeffs)


def rand_polymat(rng, rows, cols, max_deg=2) -> PolyMat:
    return PolyMat(rows, cols, [[rand_poly(rng, max_deg) for _ in range(cols)]
                                for _ in range(rows)])


def rand_ratfunmat(rng, rows, cols, num_deg=2, den_deg=2):
    """Random rational matrix over a shared monic denominator.

    A shared denominator keeps the cleared-polynomial degree bounded so
    exact Smith reductions stay quick in the property suites.
    """
    den = rand_poly(rng, den_deg - 1) + Poly([0] * den_deg + [1])
    return RatFunMat(rows, cols, [
        [RatFun(rand_poly(rng, num_deg), den) for _ in range(cols)]
        for _ in range(rows)])


def rand_unimodular(rng, n, ops=5) -> PolyMat:
    """Product of elementary operations applied to the identity."""
    u = [[Poly.const(1) if i == j else Poly() for j in range(n)]
         for i in range(n)]
    for _ in range(ops):
        kind = rng.randint(0, 2)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and n > 1:
            while j == i:
                j = rng.randrange(n)
            u[i], u[j] = u[j], u[i]
        elif kind == 1:
            c = Fraction(rng.choice([1, -1, 2, -2, 3]), rng.choice([1, 2]))
            u[i] = [Poly.const(c) * x for x in u[i]]
        else:
            if n > 1:
                while j == i:
                    j = rng.randrange(n)
                q = rand_poly(rng, 1)
                u[i] = [x + q * y for x, y in zip(u[i], u[j])]
    return PolyMat(n, n, u)


def rand_e_matrix(rng, n, allow_singular=False):
    if allow_singular and rng.random() < 0.4 and n > 1:
        e = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n - 1):
            e[i][i] = Fraction(1)
        return tuple(tuple(row) for row in e)
    return tuple(tuple(Fraction(1) if i == j else Fraction(0)
                       for j in range(n)) for i in range(n))


def rand_subsystem(rng, n_x, n_v, n_u, n_z, n_y,
                   allow_singular_e=False) -> SubsystemRealization:
    for _ in range(64):
        sub = SubsystemRealization(
            E=rand_e_matrix(rng, n_x, allow_singular_e),
            A_xx=rand_mat(rng, n_x, n_x),
            B_xv=rand_mat(rng, n_x, n_v),
            B_xu=rand_mat(rng, n_x, n_u),
            C_zx=rand_mat(rng, n_z, n_x),
            C_yx=rand_mat(rng, n_y, n_x),
            D_zv=rand_mat(rng, n_z, n_v),
            D_zu=rand_mat(rng, n_z, n_u),
            D_yv=rand_mat(rng, n_y, n_v),
            D_yu=rand_mat(rng, n_y, n_u))
        if check_subsystem_regular(sub):
            return sub
    raise RuntimeError("could not draw a regular subsystem")


_CASE_DIMS = {
    # (n_x, n_v, n_u, n_z, n_y) per subsystem kind
    "a3": [(2, 2, 1, 1, 1), (2, 2, 1, 1, 1)],
    "a2": [(2, 1, 1, 2, 1), (2, 2, 1, 1, 1)],
    "both_full": [(2, 1, 1, 1, 1)],
    "dual_a3": [(2, 1, 1, 2, 1), (2, 1, 1, 2, 1)],
}


def rand_nds(rng, kind="a3", allow_singular_e=False) -> NdsDefinition:
    """Random NDS whose structural case equals ``kind``."""
    dims = _CASE_DIMS[kind]
    for _ in range(64):
        subs = tuple(rand_subsystem(rng, *d, allow_singular_e=allow_singular_e)
                     for d in dims)
        nds = NdsDefinition(subsystems=subs)
        if classify_case(nds).kind == kind:
            return nds
    raise RuntimeError(f"could not draw an NDS of case {kind}")


def rand_reconstructible_nds(rng, max_subs=3, max_state=3) -> NdsDefinition:
    """Random NDS with per-subsystem K FCR and L FRR."""
    for _ in range(128):
        n = rng.randint(1, max_subs)
        subs = []
        for _ in range(n):
            n_x = rng.randint(1, max_state)
            n_v = rng.randint(1, 2)
            n_z = rng.randint(1, 2)
            n_u = rng.randint(1, 2)
            n_y = rng.randint(1, 2)
            subs.append(rand_subsystem(rng, n_x, n_v, n_u, n_z, n_y))
        nds = NdsDefinition(subsystems=tuple(subs))
        if check_reconstructible(nds).reconstructible:
            return nds
    raise RuntimeError("could not draw a reconstructible NDS")


def rand_scm(rng, nds, den=4) -> SCMatrix:
    return SCMatrix(rm.freeze(rand_mat(rng, nds.m_v, nds.m_z, den=den)))


def rand_wellposed_scm(rng, nds) -> SCMatrix:
    for _ in range(128):
        phi = rand_scm(rng, nds)
        if check_well_posed(nds, phi) and check_nds_regular(nds, phi):
            return phi
    raise RuntimeError("could not draw a well-posed SCM")


# ---------------------------------------------------------------- oracles
# Transfer matrices computed over Q(s) by matrix inversion, independent of
# the point-evaluation route in ndscope.model.


def const_ratfunmat(m, rows, cols) -> RatFunMat:
    return RatFunMat(rows, cols, [[RatFun.const(x) for x in row] for row in m])


def pencil_inverse_tfm(e, a, b, c, d) -> RatFunMat:
    """C (sE - A)^-1 B + D with the pencil inverted over Q(s)."""
    n = len(e)
    m_y, m_u = len(c), len(b[0])
    pencil = PolyMat(n, n, [[Poly((-a[i][j], e[i][j])) for j in range(n)]
                            for i in range(n)]).to_ratfun()
    if pencil.det().is_zero:
        raise NotRegular("pencil sE - A is singular for every s")
    return const_ratfunmat(c, m_y, n) @ pencil.inverse() @ \
        const_ratfunmat(b, n, m_u) + const_ratfunmat(d, m_y, m_u)


def pencil_inverse_subsystem_tfms(sub) -> SubsystemTfms:
    """The four subsystem transfer matrices by pencil inversion."""
    def tfm(c, b, d):
        return pencil_inverse_tfm(sub.E, sub.A_xx, b, c, d)
    return SubsystemTfms(G_yu=tfm(sub.C_yx, sub.B_xu, sub.D_yu),
                         G_yv=tfm(sub.C_yx, sub.B_xv, sub.D_yv),
                         G_zu=tfm(sub.C_zx, sub.B_xu, sub.D_zu),
                         G_zv=tfm(sub.C_zx, sub.B_xv, sub.D_zv))


def feedback_tfm(nds, phi) -> RatFunMat:
    """H = G_yu + G_yv (I - Phi G_zv)^-1 Phi G_zu over Q(s)."""
    per = [pencil_inverse_subsystem_tfms(s) for s in nds.subsystems]

    def block(name):
        return RatFunMat.block_diag([getattr(t, name) for t in per])
    phi_r = const_ratfunmat(phi.entries, nds.m_v, nds.m_z)
    w = RatFunMat.identity(nds.m_v) - (phi_r @ block("G_zv"))
    if w.det().is_zero:
        raise NotRegular("I - Phi G_zv is singular as a rational matrix")
    return block("G_yu") + (block("G_yv") @ w.inverse() @ phi_r @
                            block("G_zu"))
