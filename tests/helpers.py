"""Shared generators for seeded random test instances, and exact oracles."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

import ndscope.ratmat as rm
from ndscope import sim
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


def model_json(nds, phi) -> dict:
    """The model-file document of ``nds`` with ``phi`` embedded."""
    def rows(m):
        return [[str(x) for x in row] for row in m]
    return {"time_domain": nds.time_domain, "scm": rows(phi.entries),
            "subsystems": [{key: rows(getattr(sub, key)) for key in (
                "E", "A_xx", "B_xv", "B_xu", "C_zx", "C_yx", "D_zv", "D_zu",
                "D_yv", "D_yu")} for sub in nds.subsystems]}


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


# ------------------------------------------------- linear-algebra oracles
# Textbook field elimination (one division per pivot row, one multiply and
# subtract per entry), the reference for ndscope.ratmat's fraction-free
# integer kernels.  Over Q pass Fractions: ints would divide to floats.


def field_rref(m, cols=None):
    """Gauss-Jordan RREF over any exact field: (rref_matrix, pivots)."""
    a = [list(row) for row in m]
    nrows = len(a)
    ncols = len(a[0]) if a else (cols or 0)
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, nrows) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        inv = Fraction(1) / a[r][c]
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


def field_rank(m, cols=None):
    return len(field_rref(m, cols)[1])


def field_det(m):
    """Determinant by forward elimination over any exact field."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    a = [list(row) for row in m]
    out = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            out = -out
        piv = a[c][c]
        out *= piv
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] / piv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return out


def field_null_space(m, cols=None):
    """Right null basis in reduced column echelon form (ratmat's canon)."""
    ncols = len(m[0]) if m else (cols or 0)
    r, pivots = field_rref(m, cols=ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][fc]
        basis.append(v)
    if not basis:
        return [[] for _ in range(ncols)]
    canon = [row for row in field_rref(basis)[0] if any(x != 0 for x in row)]
    return rm.transpose(canon, cols=ncols)


def field_left_null_space(m, cols=None):
    base = field_null_space(rm.transpose(m, cols=cols), cols=len(m))
    return rm.transpose(base, cols=len(base))


def field_solve(a, b):
    """x with a @ x = b, or None when the square a is singular."""
    n = len(a)
    r, pivots = field_rref([list(ra) + list(rb) for ra, rb in zip(a, b)])
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in r]


def field_inv(m):
    return field_solve(m, rm.identity(len(m)))


def field_matmul(a, b):
    """a @ b by the textbook triple loop over any exact field."""
    cb = len(b[0]) if b else 0
    out = [[Fraction(0)] * cb for _ in a]
    for i, row in enumerate(a):
        for t, x in enumerate(row):
            if x:
                for j in range(cb):
                    if b[t][j]:
                        out[i][j] += x * b[t][j]
    return out


# ------------------------------------------------- polynomial oracles
# The Fraction loops that ndscope.polymat's integer kernels replaced, and
# the field route over Q(s) that its eliminations over Q[s] replaced.


def fraction_mul(a: Poly, b: Poly) -> Poly:
    """a * b by one Fraction product and one sum per term pair."""
    if a.is_zero or b.is_zero:
        return Poly()
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if x:
            for j, y in enumerate(b.coeffs):
                if y:
                    out[i + j] += x * y
    return Poly(out)


def euclid_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by Euclid's algorithm with Fraction remainders."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def field_poly_solve(den: PolyMat, b: PolyMat) -> RatFunMat:
    """den^-1 b by the textbook inverse over the field Q(s)."""
    inv = field_inv(den.to_ratfun().entries)
    if inv is None:
        raise rm.SingularMatrixError("matrix is singular")
    return RatFunMat(den.rows, den.rows, inv) @ b.to_ratfun()


def field_poly_det(m: PolyMat) -> Poly:
    """det by textbook elimination over the field Q(s); it must be a
    polynomial."""
    d = RatFun.const(1) * field_det(m.to_ratfun().entries)
    assert d.is_polynomial
    return d.num


# ------------------------------------------------- recovery oracle
# The dense route that ndscope.reconstruction replaced with subsystem
# blocks: the stacked K and L, two explicit inverses, null spaces of the
# whole K and L and one elimination of [W | H_m].


def dense_consistency(nds, model):
    """(H_m, cond_left, cond_right, cond_hm, recovery_unique, Phi) of the
    dense route; Phi is None unless the model is consistent."""
    cand = [list(ra) + list(rb) for ra, rb in zip(model.A_hat, model.B_hat)]
    cand += [list(rc) + list(rd) for rc, rd in zip(model.C_hat, model.D_hat)]
    base = rm.vstack(rm.hstack(nds.block("A_xx"), nds.block("B_xu")),
                     rm.hstack(nds.block("C_yx"), nds.block("D_yu")))
    assert len(cand) == len(base) and len(cand[0]) == len(base[0])
    e_d = rm.sub(cand, base)
    k = rm.vstack(nds.block("B_xv"), nds.block("D_yv"))
    latch = rm.hstack(nds.block("C_zx"), nds.block("D_zu"))
    k_perp = rm.left_null_space(k, cols=nds.m_v)
    l_perp = rm.null_space(latch)
    cond_left = rm.is_zero(rm.matmul(k_perp, e_d, inner=len(e_d)))
    cond_right = rm.is_zero(rm.matmul(e_d, l_perp, inner=len(l_perp)))
    ktk_inv = rm.inv(rm.matmul(rm.transpose(k), k))
    llt_inv = rm.inv(rm.matmul(latch, rm.transpose(latch)))
    h_m = rm.matmul(rm.matmul(ktk_inv, rm.transpose(k)),
                    rm.matmul(rm.matmul(e_d, rm.transpose(latch)), llt_inv))
    w = rm.add(rm.identity(nds.m_v), rm.matmul(h_m, nds.block("D_zv")))
    pivots = rm.rref(rm.hstack(w, h_m), cols=nds.m_v + nds.m_z)[1]
    rank_w = sum(c < nds.m_v for c in pivots)
    cond_hm = rank_w == len(pivots)
    unique = rank_w == nds.m_v
    phi = None
    if cond_left and cond_right and cond_hm:
        phi = rm.solve(w, h_m)
    return h_m, cond_left, cond_right, cond_hm, unique, phi


# ------------------------------------------------- simulation oracles
# The sample-by-sample forms that ndscope.sim replaces with block and
# lane vectorized kernels.


def realization(nds, phi):
    """The lumped float realization ``sim.simulate`` takes, unscreened."""
    return sim._lumped_float(nds, phi)


def loop_simulate(real, u, config):
    """(x, y) of the ZOH recursion x[k+1] = A_d x[k] + B_d u[k], one
    sample at a time."""
    a, b, c, d = real.a, real.b, real.c, real.d
    u = np.asarray(u, dtype=float).reshape(config.M, b.shape[1])
    if real.domain == "continuous":
        a_d, b_d = sim.zoh_discretize(a, b, config.T)
    else:
        a_d, b_d = a, b
    x = np.zeros((config.M, a.shape[0]))
    if config.x0 is not None:
        x[0] = np.asarray(config.x0, dtype=float)
    for k in range(config.M - 1):
        x[k + 1] = a_d @ x[k] + b_d @ u[k]
    return x, x @ c.T + u @ d.T


_MASK64 = (1 << 64) - 1


def xorshift_prbs(seed, m, channels, amplitude=10.0):
    """PRBS from one xorshift64* generator per channel, stepped in Python."""
    out = np.empty((m, channels), dtype=float)
    for j in range(channels):
        state = (seed * 0x9E3779B97F4A7C15 + (j + 1) * 0xBF58476D1CE4E5B9
                 + 0x632BE59BD9B4E019) & _MASK64
        if state == 0:
            state = 0x9E3779B97F4A7C15
        for k in range(m):
            state ^= state >> 12
            state = (state ^ (state << 25)) & _MASK64
            state ^= state >> 27
            bit = ((state * 0x2545F4914F6CDD1D) & _MASK64) >> 63
            out[k, j] = amplitude if bit else -amplitude
    return out
