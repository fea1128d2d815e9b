"""Global structure identifiability of an NDS at a specific SCM.

The decision pipeline:

1. classify the instance by the normal ranks of the per-subsystem
   transfer matrices G_zu (external input -> internal output) and G_yv
   (internal input -> external output);
2. build a block-diagonal polynomial pencil (X, Y) from a right coprime
   MFD of G_zv and the inverse of the column transform of the
   Smith-McMillan form of G_yv;
3. take the Smith form of X - Phi0 Y, expand the trailing rows of the
   inverse row transform in powers of the variable, and stack the
   coefficient matrices;
4. the SCM is globally identifiable at Phi0 iff the stacked matrix has
   full column rank; otherwise its right null space generates the affine
   region of SCMs indistinguishable from Phi0.

A model with no external input or no external output (m_u = 0 or
m_y = 0) has an empty external transfer matrix at every SCM, so no SCM
can be told apart from Phi0.  For such a model every check uses the zero
matrix in place of the stacked one: nothing constrains the deviation,
the verdict is not identifiable and the region is the whole SCM space.

The kernel of the stacked matrix equals the set of constant vectors in
the rational column span of the pencil, so it does not depend on which
Smith form, MFD or split the algorithm happened to produce.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import ratmat
from .model import (
    NdsDefinition, NotRegular, SCMatrix, SchemaError, SubsystemTfms,
    check_nds_regular, check_well_posed, nds_tfm, per_distinct,
    subsystem_tfms, tfm_equal,
)
from .polymat import (
    NEG_INF, InputError, PolyMat, ShapeError, normal_rank, proper_split,
    right_coprime_mfd, smith_form, smith_mcmillan,
)

BOTH_FULL = "both_full"
A2 = "a2"
A3 = "a3"
DUAL_A3 = "dual_a3"

IDENTIFIABLE = "identifiable"
NOT_IDENTIFIABLE = "not_identifiable"
IDENTIFIABLE_BY_BOTH_FULL = "identifiable_by_both_full"


class WrongCase(InputError, ValueError):
    """Pencil constructor called for an instance of a different case."""


class RegionIsTrivial(InputError, ValueError):
    """No undifferentiable region exists at an identifiable SCM."""


class ZeroDiagonal(InputError, ValueError):
    """Augmented test requires a diagonal with nonzero entries."""


@dataclass(frozen=True)
class CaseTag:
    """Structural case of the instance plus the per-subsystem normal ranks."""

    kind: str
    zu_ranks: tuple      # normal rank of G_zu(., i)
    yv_ranks: tuple      # normal rank of G_yv(., i)

    def __str__(self):
        return self.kind


@dataclass
class IdentPencil:
    """Block-diagonal polynomial pencil (X, Y) feeding the rank test."""

    X: PolyMat
    Y: PolyMat
    case: CaseTag
    hat: bool = False


@dataclass
class StackedCoeffMatrix:
    """Stacked coefficient matrices of the trailing rows of U^{-1}."""

    entries: list        # ((p + 1) * (m - r)) x cols, exact rationals
    p: int               # polynomial degree of the trailing row block
    r: int               # normal rank of the pencil at Phi0
    cols: int

    @property
    def rows(self):
        return len(self.entries)

    def is_fcr(self) -> bool:
        return _kernel(self.entries, self.cols)[0]

    def null_basis(self):
        """Canonical right-null basis (cols x d, d = 0 when FCR)."""
        return _kernel(self.entries, self.cols)[1]


def _kernel(rows, cols):
    """(fcr, canonical right-null basis) of a matrix with ``cols`` columns.

    The one full-column-rank rule of the stacked test.  A matrix with no
    rows or no columns counts as of full column rank with a cols x 0
    basis (no rows: no constraint on delta; yet a 0 x n matrix has the
    kernel Q^n, the cause of the pinned a2 and a3 defects).  Otherwise it
    is of full column rank iff its basis has no columns, which
    ``null_space`` certifies modulo a prime, without exact elimination.
    """
    if not rows or not cols:
        return True, [[] for _ in range(cols)]
    basis = ratmat.null_space(rows, cols=cols)
    return not basis[0], basis


@dataclass
class IdentReport:
    case: CaseTag
    verdict: str
    stacked: StackedCoeffMatrix | None = None
    null_basis: list | None = None
    transposed: bool = False
    warnings: tuple = ()
    per_column: dict | None = None
    theta_null_basis: list | None = None

    @property
    def identifiable(self) -> bool:
        return self.verdict in (IDENTIFIABLE, IDENTIFIABLE_BY_BOTH_FULL)


@dataclass
class UndiffRegion:
    """Affine set {Phi0 + basis . [g_1 ... g_m]} of undifferentiable SCMs.

    When ``transposed`` is set the basis lives in the dual space and
    members are Phi0 + (basis . G)^T; this happens for instances decided
    through the transposed system.
    """

    phi0: SCMatrix
    basis: list          # m x d columns, canonical echelon form
    transposed: bool = False

    @property
    def dim(self) -> int:
        return len(self.basis[0]) if self.basis and self.basis[0] is not None else 0

    def member(self, gamma) -> SCMatrix:
        """Phi0 + basis . gamma (gamma is d x m_z, or d x m_v if transposed)."""
        if self.dim == 0:
            return self.phi0
        delta = ratmat.matmul(self.basis, gamma, inner=self.dim)
        if self.transposed:
            delta = ratmat.transpose(delta, cols=self.phi0.cols)
        return SCMatrix(ratmat.freeze(
            ratmat.add(self.phi0.as_lists(), delta)))

    def contains(self, phi: SCMatrix) -> bool:
        delta = ratmat.sub(phi.as_lists(), self.phi0.as_lists())
        if self.transposed:
            delta = ratmat.transpose(delta, cols=self.phi0.cols)
        if self.dim == 0:
            return ratmat.is_zero(delta)
        aug = ratmat.hstack(self.basis, delta)
        return ratmat.rank(aug) == ratmat.rank(self.basis)


def classify_case(nds: NdsDefinition,
                  tfms_per_sub=None) -> CaseTag:
    """Exact normal-rank classification of the instance; the ranks are
    taken once per distinct object in ``tfms_per_sub``."""
    if tfms_per_sub is None:
        tfms_per_sub = per_distinct(subsystem_tfms, nds.subsystems)
    ranks = per_distinct(lambda t: (normal_rank(t.G_zu), normal_rank(t.G_yv)),
                         tfms_per_sub, key=id)
    zu_ranks, yv_ranks = (tuple(r) for r in zip(*ranks))
    zu_full = all(r == s.n_z for r, s in zip(zu_ranks, nds.subsystems))
    yv_full = all(r == s.n_v for r, s in zip(yv_ranks, nds.subsystems))
    if zu_full and yv_full:
        kind = BOTH_FULL
    elif zu_full:
        kind = A3
    elif yv_full:
        kind = DUAL_A3
    else:
        kind = A2
    return CaseTag(kind=kind, zu_ranks=zu_ranks, yv_ranks=yv_ranks)


def _classified(nds: NdsDefinition):
    """Per-subsystem transfer matrices and the case.  Equal subsystems
    share one ``SubsystemTfms`` object, so everything keyed on that object
    below (ranks, dual transposes, pencil blocks) runs once per distinct
    subsystem."""
    tfms = per_distinct(subsystem_tfms, nds.subsystems)
    return tfms, classify_case(nds, tfms)


def _pencil_blocks(tfms, hat: bool, twist=None):
    """Per-subsystem pencil blocks.

    With ``hat`` the split is applied to Den^-1 times the transposed
    trailing rows of the inverse column transform (a basis of the right
    null space of G_yv); without it, to Den^-1 times the whole inverse
    transform transposed.  ``twist`` is an optional pair (W1, W2) of
    unimodular matrices that right-multiply the MFD and the split,
    exercising the factorization nonuniqueness the verdict must survive.
    """
    sm = smith_mcmillan(tfms.G_yv)
    v_iv = sm.V_inv                       # n_v x n_v, exact inverse of V
    if hat:
        v_part = v_iv.row_block(sm.normal_rank, v_iv.rows).transpose()
    else:
        v_part = v_iv.transpose()
    mfd = right_coprime_mfd(tfms.G_zv)
    n_zv, den_zv = mfd.N, mfd.Den
    if twist is not None and twist[0] is not None:
        n_zv = n_zv @ twist[0]
        den_zv = den_zv @ twist[0]
    f = den_zv.solve(v_part)
    sp = proper_split(f)
    q, omega = sp.Q, sp.Omega
    if twist is not None and twist[1] is not None:
        q = q @ twist[1]
        omega = omega @ twist[1]
    t = (sp.R @ omega) + q
    return n_zv @ t, den_zv @ t


def _build_pencil(tfms_per_sub, hat: bool, case: CaseTag,
                  twists=None) -> IdentPencil:
    """Block-diagonal pencil; blocks are built once per distinct
    ``SubsystemTfms`` object unless per-slot ``twists`` are given."""
    if twists is None:
        blocks = per_distinct(lambda t: _pencil_blocks(t, hat), tfms_per_sub,
                              key=id)
    else:
        blocks = [_pencil_blocks(t, hat, twists[k])
                  for k, t in enumerate(tfms_per_sub)]
    return IdentPencil(X=PolyMat.block_diag([d for _, d in blocks]),
                       Y=PolyMat.block_diag([n for n, _ in blocks]),
                       case=case, hat=hat)


def build_xy_pencil(nds: NdsDefinition, twists=None) -> IdentPencil:
    """Pencil for instances where both rank conditions fail (square X).

    ``twists`` optionally right-multiplies each subsystem's MFD and
    split by unimodular factors (factorization-invariance checks).
    """
    tfms, case = _classified(nds)
    if case.kind != A2:
        raise WrongCase(f"expected case {A2}, got {case.kind}")
    return _build_pencil(tfms, hat=False, case=case, twists=twists)


def build_xy_pencil_hat(nds: NdsDefinition, twists=None) -> IdentPencil:
    """Pencil restricted to the G_yv null directions (G_zu all FNRR)."""
    tfms, case = _classified(nds)
    if case.kind not in (A3, DUAL_A3):
        raise WrongCase(f"expected case {A3} or {DUAL_A3}, got {case.kind}")
    if case.kind == DUAL_A3:
        raise WrongCase("transpose the system first, then build the pencil")
    return _build_pencil(tfms, hat=True, case=case, twists=twists)


def stacked_u2(pencil: IdentPencil, phi0: SCMatrix) -> StackedCoeffMatrix:
    """Stacked coefficient matrices of the trailing rows of U^{-1}.

    Forms M = X - Phi0 Y, takes its Smith form, splits the exact inverse
    of the row transform at the normal rank and expands the lower block
    in powers of the variable.
    """
    phi_p = PolyMat.from_scalars(phi0.as_lists())
    if phi_p.cols != pencil.Y.rows or phi_p.rows != pencil.X.rows:
        raise ShapeError("SCM shape does not match the pencil")
    m = pencil.X - (phi_p @ pencil.Y)
    return _stacked_trailing_rows(m, m.rows)


def _stacked_trailing_rows(m: PolyMat, cols: int) -> StackedCoeffMatrix:
    """Smith form of m; stack the coefficient matrices of the first
    ``cols`` columns of the rows of U^{-1} past the normal rank."""
    sf = smith_form(m)
    r = sf.normal_rank
    lower = sf.U_inv.submatrix(range(r, m.rows), range(cols))
    if lower.rows == 0:
        return StackedCoeffMatrix(entries=[], p=0, r=r, cols=cols)
    deg = lower.degree
    p = 0 if deg == NEG_INF else int(deg)
    entries = [row for k in range(p + 1) for row in lower.coeff_matrix(k)]
    return StackedCoeffMatrix(entries=entries, p=p, r=r, cols=cols)


def _prepared(nds: NdsDefinition, phi0: SCMatrix):
    """(warnings, per-subsystem TFMs, case) after the checks every test
    starts with: phi0's shape and the regularity of the NDS at phi0."""
    phi0.check_shape(nds)
    # check_nds_regular itself raises NotRegular for an irregular subsystem
    if not check_nds_regular(nds, phi0):
        raise NotRegular("NDS is not regular at the given SCM")
    warnings = () if check_well_posed(nds, phi0) else ("not_well_posed",)
    return (warnings, *_classified(nds))


def _verdict(case: CaseTag, fcr: bool) -> str:
    if not fcr:
        return NOT_IDENTIFIABLE
    return IDENTIFIABLE_BY_BOTH_FULL if case.kind == BOTH_FULL \
        else IDENTIFIABLE


def check_identifiable_at(nds: NdsDefinition, phi0: SCMatrix) -> IdentReport:
    """Decide global identifiability at phi0 and return the evidence."""
    warnings, tfms, case = _prepared(nds, phi0)
    if case.kind == BOTH_FULL:
        return IdentReport(case=case, verdict=IDENTIFIABLE_BY_BOTH_FULL,
                           warnings=warnings)
    stacked, transposed = _stacked_for_case(nds, phi0, case, tfms)
    return _stacked_report(case, stacked, transposed, warnings)


def _stacked_report(case, stacked, transposed, warnings) -> IdentReport:
    """The verdict of the stacked test; the null basis only when not fcr."""
    fcr, basis = _kernel(stacked.entries, stacked.cols)
    return IdentReport(case=case, verdict=_verdict(case, fcr),
                       stacked=stacked, transposed=transposed,
                       null_basis=None if fcr else basis,
                       warnings=warnings)


def undiff_region(report: IdentReport, phi0: SCMatrix) -> UndiffRegion:
    """Affine region generated by the right null space of the stacked test."""
    if report.verdict != NOT_IDENTIFIABLE:
        raise RegionIsTrivial(
            "the SCM is identifiable; the region degenerates to {Phi0}")
    return UndiffRegion(phi0=phi0, basis=report.null_basis,
                        transposed=report.transposed)


def _random_fraction(rng: random.Random, scale=4, den=8) -> Fraction:
    return Fraction(rng.randint(-scale * den, scale * den), den)


def verify_region_by_tfm(nds: NdsDefinition, phi0: SCMatrix,
                         region: UndiffRegion, n_in: int, n_out: int,
                         seed=0) -> bool:
    """Brute-force transfer-matrix oracle for a region.

    Samples members (must yield exactly equal external TFMs) and random
    SCMs with a component outside the affine span (must yield different
    TFMs whenever the perturbed NDS is regular).  One ``nds_tfm`` per
    sample also decides that: h0 has checked every subsystem already.
    """
    rng = random.Random(seed)
    h0 = nds_tfm(nds, phi0)
    d = region.dim
    gcols = phi0.rows if region.transposed else phi0.cols
    ok = True
    for _ in range(n_in):
        gamma = [[_random_fraction(rng) for _ in range(gcols)]
                 for _ in range(d)]
        try:
            ok = ok and tfm_equal(nds_tfm(nds, region.member(gamma)), h0)
        except NotRegular:
            ok = False
    for _ in range(n_out):
        for _attempt in range(64):
            delta = [[_random_fraction(rng) for _ in range(phi0.cols)]
                     for _ in range(phi0.rows)]
            cand = SCMatrix(ratmat.freeze(
                ratmat.add(phi0.as_lists(), delta)))
            if not region.contains(cand):
                break
        else:
            continue
        try:
            ok = ok and not tfm_equal(nds_tfm(nds, cand), h0)
        except NotRegular:
            pass
    return ok


def _stacked_for_case(nds: NdsDefinition, phi0: SCMatrix, case: CaseTag,
                      tfms_per_sub):
    """(stacked matrix, transposed) of the case-appropriate pencil.

    In case dual_a3 the pencil is built for the transposed system, whose
    subsystem transfer matrices are the transposes with the roles of
    (u, v) and (y, z) exchanged (see ``model.transpose_nds``).  In case
    both_full every deviation from Phi0 changes the external TFM, so the
    stacked matrix is the m_v x m_v identity with p = 0.
    """
    if case.kind == BOTH_FULL:
        m = phi0.rows
        return StackedCoeffMatrix(
            entries=[[Fraction(int(i == j)) for j in range(m)]
                     for i in range(m)], p=0, r=0, cols=m), False
    if case.kind != DUAL_A3:
        pencil = _build_pencil(tfms_per_sub, hat=case.kind == A3, case=case)
        return _portless_zero(nds, stacked_u2(pencil, phi0)), False
    dual = per_distinct(lambda t: SubsystemTfms(
        G_yu=t.G_yu.transpose(), G_yv=t.G_zu.transpose(),
        G_zu=t.G_yv.transpose(), G_zv=t.G_zv.transpose()),
        tfms_per_sub, key=id)
    dual_case = CaseTag(kind=A3, zu_ranks=case.yv_ranks,
                        yv_ranks=case.zu_ranks)
    pencil = _build_pencil(dual, hat=True, case=dual_case)
    return _portless_zero(nds, stacked_u2(pencil, phi0.transpose())), True


def _portless_zero(nds: NdsDefinition,
                   stacked: StackedCoeffMatrix) -> StackedCoeffMatrix:
    """The zero matrix in place of ``stacked`` when m_u = 0 or m_y = 0
    (module docstring); ``stacked`` itself otherwise."""
    if nds.m_u and nds.m_y:
        return stacked
    return StackedCoeffMatrix(entries=[[Fraction(0)] * stacked.cols], p=0,
                              r=stacked.r, cols=stacked.cols)


def check_identifiable_known_entries(nds: NdsDefinition, phi0: SCMatrix,
                                     spec) -> IdentReport:
    """Identifiability when some SCM entries are known a priori.

    For every column j of the SCM, the stacked matrix with the columns
    indexed by the known-row set I_j removed must be of full column
    rank.  Columns with no a-priori information use the full matrix.
    Reports a per-column dict with the kept (1-based) column indices and
    the null basis in the kept coordinates.
    """
    warnings, tfms, case = _prepared(nds, phi0)
    stacked, transposed = _stacked_for_case(nds, phi0, case, tfms)
    if transposed:
        known = {}
        for j in spec.J:
            for i in spec.rows_for(j):
                known.setdefault(i, set()).add(j)
        col_count = phi0.rows
        known_map = {j: tuple(sorted(v)) for j, v in known.items()}
    else:
        col_count = phi0.cols
        known_map = {j: tuple(spec.rows_for(j)) for j in spec.J}

    m = stacked.cols
    per_column = {}
    all_fcr = True
    for j in range(1, col_count + 1):
        fixed = set(known_map.get(j, ()))
        for i in fixed:
            if not 1 <= i <= m:
                raise SchemaError(f"known-entry row index {i} out of range")
        kept = [i for i in range(1, m + 1) if i not in fixed]
        fcr, basis = _kernel([[row[i - 1] for i in kept]
                              for row in stacked.entries], len(kept))
        per_column[j] = {"kept": kept, "fcr": fcr, "null_basis": basis}
        all_fcr = all_fcr and fcr
    return IdentReport(case=case, verdict=_verdict(case, all_fcr),
                       stacked=stacked, transposed=transposed,
                       warnings=warnings, per_column=per_column)


def check_identifiable_parameterized(nds: NdsDefinition, spec,
                                     theta0) -> IdentReport:
    """Identifiability of an affinely parameterized SCM at theta0.

    Builds Phi(theta0), its stacked matrix, and tests full column rank of
    the matrix whose k-th column is vec(stacked . direction_k).
    """
    theta0 = tuple(Fraction(t) for t in theta0)
    phi0 = spec.at(theta0)
    warnings, tfms, case = _prepared(nds, phi0)
    stacked, transposed = _stacked_for_case(nds, phi0, case, tfms)
    directions = [d.transpose() if transposed else d for d in spec.directions]
    q = len(directions)
    cols = []
    for d in directions:
        prod = ratmat.matmul(stacked.entries, d.as_lists(),
                             inner=stacked.cols)
        # column-major vec
        vec = [prod[i][j] for j in range(d.cols) for i in range(len(prod))]
        cols.append(vec)
    rows = len(cols[0]) if cols else 0
    fcr, basis = _kernel([[cols[k][i] for k in range(q)]
                          for i in range(rows)], q)
    return IdentReport(case=case, verdict=_verdict(case, fcr),
                       stacked=stacked, transposed=transposed,
                       warnings=warnings,
                       theta_null_basis=None if fcr else basis)


def check_identifiable_augmented(nds: NdsDefinition, phi0: SCMatrix,
                                 p_diag=None, seed=0) -> IdentReport:
    """Smith-free-looking variant through an augmented square pencil.

    Stacks [[X, -Phi0 P], [Y, -P]] with a generic diagonal P, runs the
    same Smith/stacked-coefficient machinery, and restricts the trailing
    rows to the first m_v columns (the right-hand side only carries
    delta there).  Must agree with the direct test.
    """
    warnings, tfms, case = _prepared(nds, phi0)
    if case.kind != A2:
        raise WrongCase(
            f"augmented test agrees with the direct one only in case {A2}")
    m_v, m_z = phi0.rows, phi0.cols
    if p_diag is None:
        rng = random.Random(seed)
        p_diag = [Fraction(rng.randint(100, 1000), 100) for _ in range(m_z)]
    p_diag = [Fraction(p) for p in p_diag]
    if len(p_diag) != m_z:
        raise ShapeError(f"need {m_z} diagonal entries, got {len(p_diag)}")
    if any(p == 0 for p in p_diag):
        raise ZeroDiagonal("diagonal entries must be nonzero")

    pencil = _build_pencil(tfms, hat=False, case=case)
    p_mat = [[p_diag[i] if i == j else Fraction(0) for j in range(m_z)]
             for i in range(m_z)]
    phi_p = PolyMat.from_scalars(
        ratmat.matmul(phi0.as_lists(), p_mat))
    p_poly = PolyMat.from_scalars(p_mat)
    top = PolyMat(m_v, m_v + m_z, [
        pencil.X.entries[i] + [-x for x in phi_p.entries[i]]
        for i in range(m_v)])
    bot = PolyMat(m_z, m_v + m_z, [
        pencil.Y.entries[i] + [-x for x in p_poly.entries[i]]
        for i in range(m_z)])
    stacked = _portless_zero(
        nds, _stacked_trailing_rows(PolyMat.vstack([top, bot]), m_v))
    return _stacked_report(case, stacked, False, warnings)
