import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

import ndscope.ratmat as rm
from helpers import (
    field_poly_solve, model_json, rand_nds, rand_unimodular,
    rand_wellposed_scm,
)
from ndscope.fixtures import (
    PHI0, PHI_DIFF, PHI_EQUIV, SWEEP_DIRECTIONS, demo_nds,
)
from ndscope.identifiability import (
    A2, A3, BOTH_FULL, DUAL_A3, IDENTIFIABLE, IDENTIFIABLE_BY_BOTH_FULL,
    NOT_IDENTIFIABLE, RegionIsTrivial, UndiffRegion, WrongCase, ZeroDiagonal,
    _build_pencil, _pencil_blocks, build_xy_pencil, build_xy_pencil_hat,
    check_identifiable_at, check_identifiable_augmented,
    check_identifiable_known_entries, check_identifiable_parameterized,
    classify_case, stacked_u2, undiff_region, verify_region_by_tfm,
)
from ndscope.model import (
    AffineConstraint, KnownEntries, NdsDefinition, NotRegular, SCMatrix,
    SubsystemRealization, check_nds_regular, check_well_posed, nds_tfm,
    parse_model, tfm_equal, transpose_nds,
)
from ndscope.polymat import PolyMat, RatFunMat, normal_rank, smith_mcmillan
from ndscope.model import subsystem_tfms


def pencil_colspan_kernel(pencil, phi0):
    """Independent oracle: constant vectors inside the rational column
    span of X - Phi0 Y, found through a left-null basis computed by plain
    field elimination (no Smith form involved)."""
    from ndscope.polymat import Poly, PolyMat, poly_lcm
    phi_p = PolyMat.from_scalars(phi0.as_lists())
    m = (pencil.X - (phi_p @ pencil.Y)).to_ratfun()
    # row-reduce [m | I]; the transform rows beyond the rank of m
    # annihilate m from the left, i.e. they span its left null space
    work = [row[:] + t[:] for row, t in
            zip(m.entries, RatFunMat.identity(m.rows).entries)]
    r = 0
    for c in range(m.cols):
        p = next((i for i in range(r, m.rows) if work[i][c]), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        inv = work[r][c].inverse()
        work[r] = [x * inv for x in work[r]]
        for i in range(m.rows):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    null_rows = [row[m.cols:] for row in work[r:]]
    # a constant delta lies in colspan(m) iff every left-null row kills
    # it; stack the polynomial coefficient constraints and solve exactly
    rows = []
    for nr_ in null_rows:
        d = Poly.const(1)
        for e in nr_:
            d = poly_lcm(d, e.den)
        polys = [e.num * (d // e.den) for e in nr_]
        deg = max((int(p.degree) for p in polys if not p.is_zero), default=0)
        for k in range(deg + 1):
            rows.append([p.coeffs[k] if k < len(p.coeffs) else F(0)
                         for p in polys])
    if not rows:
        return rm.identity(m.rows)  # no constraint at all
    return rm.null_space(rows, cols=m.rows)


class TestClassify:
    def test_fixture_is_a3(self):
        case = classify_case(demo_nds())
        assert case.kind == A3
        assert case.zu_ranks == (1, 1) and case.yv_ranks == (1, 1)

    def test_dual_of_fixture(self):
        assert classify_case(transpose_nds(demo_nds())).kind == DUAL_A3

    def test_synthetic_cases(self):
        rng = random.Random(1)
        assert classify_case(rand_nds(rng, "both_full")).kind == BOTH_FULL
        assert classify_case(rand_nds(rng, "a2")).kind == A2


class TestPencils:
    def test_hat_pencil_shapes(self):
        pencil = build_xy_pencil_hat(demo_nds())
        assert pencil.X.shape == (4, 2)
        assert pencil.Y.shape == (2, 2)

    def test_wrong_case_errors(self):
        with pytest.raises(WrongCase):
            build_xy_pencil(demo_nds())
        rng = random.Random(2)
        with pytest.raises(WrongCase):
            build_xy_pencil_hat(rand_nds(rng, "a2"))

    def test_null_direction_of_fixture_g_yv(self):
        # per-subsystem kernel of G_yv spans (1, -2)
        sub = demo_nds().subsystems[0]
        t = subsystem_tfms(sub)
        sm = smith_mcmillan(t.G_yv)
        v2t = sm.V_inv.row_block(sm.normal_rank, 2).transpose().to_ratfun()
        prod = t.G_yv @ v2t
        assert prod.is_zero
        col = [v2t.entries[0][0], v2t.entries[1][0]]
        # proportional to (1, -2)
        assert col[1] == col[0] * F(-2)

    def test_polynomial_g_zv_block_structure(self):
        # with B_xv = 0 the internal-coupling transfer matrix G_zv is the
        # constant D_zv: the MFD denominator is I, the split has Q = 0 and
        # Omega = I, so the pencil blocks collapse to X = R, Y = D_zv R
        from ndscope.model import NdsDefinition, SubsystemRealization
        sub = SubsystemRealization(
            E=((F(1),),), A_xx=((F(-1),),),
            B_xv=((F(0), F(0)),), B_xu=((F(1),),),
            C_zx=((F(1),), (F(1),)), C_yx=((F(1),),),
            D_zv=((F(1), F(2)), (F(3), F(4))), D_zu=((F(0),), (F(0),)),
            D_yv=((F(0), F(0)),), D_yu=((F(0),),))
        nds = NdsDefinition(subsystems=(sub,))
        case = classify_case(nds)
        assert case.kind == A2   # G_zu is 2x1, G_yv is 1x2
        pencil = build_xy_pencil(nds)
        t = subsystem_tfms(sub)
        sm = smith_mcmillan(t.G_yv)
        r = sm.V_inv.transpose()   # the split's polynomial part
        assert pencil.X == r
        d_zv = RatFunMat.from_scalars([[1, 2], [3, 4]]).to_polymat()
        assert pencil.Y == d_zv @ r

    def test_zero_g_yv_block_gives_full_kernel(self):
        # a subsystem with G_yv == 0 contributes the whole identity
        from helpers import rand_subsystem
        rng = random.Random(3)
        sub = rand_subsystem(rng, 2, 2, 1, 1, 1)
        zero = tuple(tuple(F(0) for _ in row) for row in sub.C_yx)
        zero_dyv = tuple(tuple(F(0) for _ in row) for row in sub.D_yv)
        sub0 = type(sub)(E=sub.E, A_xx=sub.A_xx, B_xv=sub.B_xv,
                         B_xu=sub.B_xu, C_zx=sub.C_zx, C_yx=zero,
                         D_zv=sub.D_zv, D_zu=sub.D_zu, D_yv=zero_dyv,
                         D_yu=sub.D_yu)
        t = subsystem_tfms(sub0)
        sm = smith_mcmillan(t.G_yv)
        assert sm.normal_rank == 0
        v2t = sm.V_inv.row_block(0, 2).transpose()
        assert v2t.shape == (2, 2)


class TestStacked:
    def test_fixture_stacked_null_space(self):
        pencil = build_xy_pencil_hat(demo_nds())
        st = stacked_u2(pencil, PHI0)
        assert st.cols == 4
        basis = st.null_basis()
        assert basis == [[F(0)], [F(0)], [F(1)], [F(-2)]]

    def test_fixture_at_phi_diff_is_fcr(self):
        pencil = build_xy_pencil_hat(demo_nds())
        st = stacked_u2(pencil, PHI_DIFF)
        assert st.is_fcr()

    def test_matches_independent_colspan_oracle(self):
        nds = demo_nds()
        pencil = build_xy_pencil_hat(nds)
        for phi in (PHI0, PHI_DIFF, PHI_EQUIV, SWEEP_DIRECTIONS[0]):
            st = stacked_u2(pencil, phi)
            want = pencil_colspan_kernel(pencil, phi)
            got = st.null_basis()
            assert rm.rank(rm.hstack(got, want)) == rm.rank(got) \
                == rm.rank(want)

    def test_stacked_test_never_forms_u_or_v(self, monkeypatch):
        # the hat pencil's MFD reads U; the stacked test reads only U^{-1}
        import ndscope.polymat as polymat
        pencil = build_xy_pencil_hat(demo_nds())

        def refuse(u):
            raise AssertionError("unimodular_inverse called")
        monkeypatch.setattr(polymat, "unimodular_inverse", refuse)
        st = stacked_u2(pencil, PHI0)
        assert st.null_basis() == [[F(0)], [F(0)], [F(1)], [F(-2)]]

    def test_unimodular_square_pencil_is_vacuously_fcr(self):
        rng = random.Random(5)
        nds = rand_nds(rng, "a2")
        pencil = build_xy_pencil(nds)
        phi = SCMatrix.zero(nds.m_v, nds.m_z)
        st = stacked_u2(pencil, phi)
        assert st.rows == 0 and st.is_fcr()


class TestOneKernelDecision:
    """The stacked test decides full column rank and the null basis by one
    ``null_space``: an identifiable stacked matrix is certified without an
    exact elimination, and a not-identifiable one costs the two of its
    null basis (the RREF of the matrix and of the basis), with no rank
    decision before them."""

    @staticmethod
    def _network(which):
        if which == "dense":
            rng = random.Random(0)
            nds = rand_nds(rng, "a3")
            return nds, rand_wellposed_scm(rng, nds)
        return _demo_chain(int(which[-1]), random.Random(int(which[-1])))

    @pytest.mark.parametrize("which,verdict,eliminations", [
        ("chain2", NOT_IDENTIFIABLE, 2), ("chain4", NOT_IDENTIFIABLE, 2),
        ("dense", IDENTIFIABLE, 0)])
    def test_exact_eliminations_per_stacked_matrix(
            self, which, verdict, eliminations, monkeypatch):
        import ndscope.identifiability as ident
        rep = check_identifiable_at(*self._network(which))
        assert rep.verdict == verdict and rep.stacked.rows >= rep.stacked.cols
        calls = []
        monkeypatch.setattr(rm, "_eliminate", lambda *args, _f=rm._eliminate,
                            **kwargs: calls.append(1) or _f(*args, **kwargs))
        again = ident._stacked_report(rep.case, rep.stacked, rep.transposed,
                                      rep.warnings)
        assert len(calls) == eliminations
        assert again == rep
        assert rep.stacked.is_fcr() == (verdict == IDENTIFIABLE)

    @pytest.mark.parametrize("which,clearings", [
        ("chain2", 2), ("chain4", 2), ("dense", 1)])
    def test_rows_cleared_once_per_kernel(self, which, clearings,
                                          monkeypatch):
        # the certificate and the RREF of the matrix share one clearing;
        # the RREF of the basis is the second
        import ndscope.identifiability as ident
        rep = check_identifiable_at(*self._network(which))
        calls = []
        monkeypatch.setattr(rm, "_cleared", lambda m, _f=rm._cleared:
                            calls.append(len(m)) or _f(m))
        again = ident._stacked_report(rep.case, rep.stacked, rep.transposed,
                                      rep.warnings)
        assert again == rep
        assert len(calls) == clearings
        assert calls[0] == rep.stacked.rows


class TestVerdicts:
    def test_fixture_not_identifiable(self):
        rep = check_identifiable_at(demo_nds(), PHI0)
        assert rep.case.kind == A3
        assert rep.verdict == NOT_IDENTIFIABLE
        assert rep.null_basis == [[F(0)], [F(0)], [F(1)], [F(-2)]]

    def test_fixture_identifiable_at_phi_diff(self):
        rep = check_identifiable_at(demo_nds(), PHI_DIFF)
        assert rep.verdict == IDENTIFIABLE
        assert rep.null_basis is None

    def test_both_full_early_exit(self):
        rng = random.Random(7)
        nds = rand_nds(rng, "both_full")
        phi = rand_wellposed_scm(rng, nds)
        rep = check_identifiable_at(nds, phi)
        assert rep.verdict == IDENTIFIABLE_BY_BOTH_FULL

    def test_dual_consistency(self):
        nds = demo_nds()
        rep = check_identifiable_at(nds, PHI0)
        rep_dual = check_identifiable_at(transpose_nds(nds),
                                         PHI0.transpose())
        assert rep_dual.verdict == rep.verdict
        assert rep_dual.transposed

    def test_not_regular_raises(self):
        nds = demo_nds()
        # an SCM that destroys regularity must be rejected; find one by
        # making det(I - G_zv Phi) identically zero is hard generically,
        # so check the subsystem-level precondition instead
        from ndscope.model import SubsystemRealization, NdsDefinition
        bad = SubsystemRealization(
            E=((F(0),),), A_xx=((F(0),),),
            B_xv=((F(1),),), B_xu=((F(1),),),
            C_zx=((F(1),),), C_yx=((F(1),),),
            D_zv=((F(0),),), D_zu=((F(0),),),
            D_yv=((F(0),),), D_yu=((F(0),),))
        with pytest.raises(NotRegular):
            check_identifiable_at(NdsDefinition(subsystems=(bad,)),
                                  SCMatrix.zero(1, 1))

    def test_global_equals_local(self):
        # verdict is Identifiable iff the null dimension is zero
        nds = demo_nds()
        for phi in (PHI0, PHI_DIFF):
            rep = check_identifiable_at(nds, phi)
            d = 0 if rep.null_basis is None else \
                (len(rep.null_basis[0]) if rep.null_basis else 0)
            assert (rep.verdict == IDENTIFIABLE) == (d == 0)


class TestRegion:
    def test_membership(self):
        rep = check_identifiable_at(demo_nds(), PHI0)
        region = undiff_region(rep, PHI0)
        assert region.dim == 1
        assert region.contains(PHI_EQUIV)
        assert not region.contains(PHI_DIFF)
        assert region.contains(PHI0)

    def test_gamma_zero_is_phi0(self):
        rep = check_identifiable_at(demo_nds(), PHI0)
        region = undiff_region(rep, PHI0)
        member = region.member([[F(0), F(0)]])
        assert member.entries == PHI0.entries

    def test_trivial_region_raises(self):
        rep = check_identifiable_at(demo_nds(), PHI_DIFF)
        with pytest.raises(RegionIsTrivial):
            undiff_region(rep, PHI_DIFF)

    def test_verify_by_tfm(self, monkeypatch):
        import ndscope.model as model
        nds = demo_nds()
        rep = check_identifiable_at(nds, PHI0)
        region = undiff_region(rep, PHI0)
        builds = []

        def counted(nds, phi):
            builds.append(phi.entries)
            return lifted(nds, phi)
        lifted = model.lifted_realization
        monkeypatch.setattr(model, "lifted_realization", counted)
        assert verify_region_by_tfm(nds, PHI0, region, n_in=5, n_out=5,
                                    seed=0)
        # one lifted build for phi0 and one per sample: each sample's
        # transfer decides its regularity too
        assert len(builds) == 1 + 5 + 5
        assert len(set(builds)) == len(builds)

    def test_verify_trivial_region(self):
        nds = demo_nds()
        region = UndiffRegion(phi0=PHI_DIFF, basis=[[] for _ in range(4)])
        assert verify_region_by_tfm(nds, PHI_DIFF, region, n_in=3, n_out=3,
                                    seed=1)

    def test_members_stay_regular_and_equal(self):
        nds = demo_nds()
        rep = check_identifiable_at(nds, PHI0)
        region = undiff_region(rep, PHI0)
        rng = random.Random(11)
        h0 = nds_tfm(nds, PHI0)
        from ndscope.model import check_nds_regular
        for _ in range(5):
            gamma = [[F(rng.randint(-8, 8), 4) for _ in range(2)]]
            member = region.member(gamma)
            assert check_nds_regular(nds, member)
            h = nds_tfm(nds, member)
            assert tfm_equal(h, h0)
            assert all(e.is_proper for row in h.entries for e in row)


class TestA2PencilStructure:
    def test_block_diagonal_matches_single_subsystem_runs(self):
        rng = random.Random(37)
        nds = rand_nds(rng, "a2")
        pencil = build_xy_pencil(nds)
        r0 = c0 = 0
        from ndscope.model import NdsDefinition
        for sub in nds.subsystems:
            one = NdsDefinition(subsystems=(sub,))
            blk = _build_pencil([subsystem_tfms(sub)], hat=False,
                                case=classify_case(one))
            nv = sub.n_v
            assert pencil.X.submatrix(range(r0, r0 + nv),
                                      range(c0, c0 + nv)) == blk.X
            r0 += nv
            c0 += nv
        # off-diagonal blocks vanish
        n1 = nds.subsystems[0].n_v
        assert pencil.X.submatrix(range(0, n1),
                                  range(n1, nds.m_v)).is_zero

    def test_a2_verdict_against_tfm_oracle(self):
        # identifiable A2 instances: random distinct SCMs must change the
        # external transfer matrix (trivial-region oracle)
        rng = random.Random(41)
        done = 0
        while done < 3:
            nds = rand_nds(rng, "a2")
            try:
                phi = rand_wellposed_scm(rng, nds)
            except RuntimeError:
                continue
            rep = check_identifiable_at(nds, phi)
            assert rep.verdict == IDENTIFIABLE
            trivial = UndiffRegion(phi0=phi,
                                   basis=[[] for _ in range(nds.m_v)])
            assert verify_region_by_tfm(nds, phi, trivial, n_in=2, n_out=3,
                                        seed=done)
            done += 1


class TestMfdInvariance:
    def test_fixture_verdict_and_nullspace_invariant(self):
        nds = demo_nds()
        base = stacked_u2(build_xy_pencil_hat(nds), PHI0)
        base_null = base.null_basis()
        rng = random.Random(13)
        for trial in range(5):
            twists = []
            for sub in nds.subsystems:
                w1 = rand_unimodular(rng, 2)
                w2 = rand_unimodular(rng, 1)
                twists.append((w1, w2))
            st = stacked_u2(build_xy_pencil_hat(nds, twists=twists), PHI0)
            assert st.null_basis() == base_null

    def test_a2_twists_keep_verdict(self):
        rng = random.Random(53)
        nds = rand_nds(rng, "a2")
        phi = SCMatrix.zero(nds.m_v, nds.m_z)
        base = stacked_u2(build_xy_pencil(nds), phi)
        twists = [(rand_unimodular(rng, s.n_v), rand_unimodular(rng, s.n_v))
                  for s in nds.subsystems]
        st = stacked_u2(build_xy_pencil(nds, twists=twists), phi)
        assert st.is_fcr() == base.is_fcr()
        assert st.null_basis() == base.null_basis()

    def test_random_a3_instances(self):
        rng = random.Random(17)
        done = 0
        while done < 5:
            nds = rand_nds(rng, "a3")
            try:
                phi = rand_wellposed_scm(rng, nds)
            except RuntimeError:
                continue
            base = stacked_u2(build_xy_pencil_hat(nds), phi)
            case = classify_case(nds)
            tfms = [subsystem_tfms(sub) for sub in nds.subsystems]
            twists = []
            for sub, t in zip(nds.subsystems, tfms):
                r_hat = sub.n_v - normal_rank(t.G_yv)
                twists.append((rand_unimodular(rng, sub.n_v),
                               rand_unimodular(rng, r_hat)))
            st = stacked_u2(_build_pencil(tfms, hat=True, case=case,
                                          twists=twists), phi)
            assert st.null_basis() == base.null_basis()
            assert st.is_fcr() == base.is_fcr()
            done += 1

    @pytest.mark.parametrize("kind", ["a3", "a2"])
    def test_pencil_blocks_equal_field_route(self, kind, monkeypatch):
        # Den^-1 times the transform, solved over Q[s] and over Q(s)
        rng = random.Random(71 if kind == "a3" else 72)
        hat = kind == "a3"
        for _ in range(6):
            nds = rand_nds(rng, kind)
            for sub in nds.subsystems:
                t = subsystem_tfms(sub)
                r_hat = sub.n_v - normal_rank(t.G_yv) if hat else sub.n_v
                for twist in (None, (rand_unimodular(rng, sub.n_v),
                                     rand_unimodular(rng, r_hat))):
                    got = _pencil_blocks(t, hat, twist)
                    with monkeypatch.context() as m:
                        m.setattr(PolyMat, "solve", field_poly_solve)
                        assert got == _pencil_blocks(t, hat, twist)

    def test_no_inverse_over_the_field(self, monkeypatch):
        calls = []
        inverse = RatFunMat.inverse

        def counted(self):
            calls.append(self.shape)
            return inverse(self)
        monkeypatch.setattr(RatFunMat, "inverse", counted)
        rep = check_identifiable_at(demo_nds(), PHI0)
        assert rep.verdict == NOT_IDENTIFIABLE
        assert calls == []


class TestDualPath:
    """End-to-end checks for an instance decided through transposition."""

    def _dual(self):
        return transpose_nds(demo_nds()), PHI0.transpose()

    def test_region_members_and_membership(self):
        dual, psi0 = self._dual()
        rep = check_identifiable_at(dual, psi0)
        assert rep.transposed
        region = undiff_region(rep, psi0)
        assert region.contains(PHI_EQUIV.transpose())
        assert not region.contains(PHI_DIFF.transpose())
        member = region.member([[F(3), F(0), F(-1, 2), F(2)]])
        assert (member.rows, member.cols) == (2, 4)
        assert verify_region_by_tfm(dual, psi0, region, n_in=4, n_out=4,
                                    seed=3)

    def test_distance_scm_transposed(self):
        from ndscope.sim import distance_scm
        dual, psi0 = self._dual()
        region = undiff_region(check_identifiable_at(dual, psi0), psi0)
        assert distance_scm(PHI_EQUIV.transpose(), region) <= 1e-12
        assert distance_scm(PHI_DIFF.transpose(), region) == \
            pytest.approx(1.0)

    def test_known_entries_remapped(self):
        dual, psi0 = self._dual()
        base = check_identifiable_at(dual, psi0).verdict
        empty = KnownEntries(J=(), I={})
        assert check_identifiable_known_entries(dual, psi0, empty).verdict \
            == base
        # knowing rows {1, 2} of dual columns 3 and 4 pins the kernel
        # direction (0,0,1,-2) of the underlying test
        spec = KnownEntries(J=(3, 4), I={3: (1, 2), 4: (1, 2)})
        rep = check_identifiable_known_entries(dual, psi0, spec)
        assert rep.verdict == IDENTIFIABLE
        full = KnownEntries(
            J=(1, 2, 3, 4), I={j: (1, 2) for j in (1, 2, 3, 4)})
        assert check_identifiable_known_entries(dual, psi0, full).verdict \
            == IDENTIFIABLE

    def test_affine_remapped(self):
        dual, psi0 = self._dual()
        # the kernel direction transposed: still undetectable
        d_kernel = SCMatrix.from_rows([["0", "0", "1", "-2"],
                                       ["0", "0", "0", "0"]])
        spec = AffineConstraint(base=psi0, directions=(d_kernel,))
        rep = check_identifiable_parameterized(dual, spec, (F(0),))
        assert rep.verdict == NOT_IDENTIFIABLE
        d_vis = SCMatrix.from_rows([["0", "0", "1", "0"],
                                    ["0", "0", "0", "0"]])
        spec2 = AffineConstraint(base=psi0, directions=(d_vis,))
        rep2 = check_identifiable_parameterized(dual, spec2, (F(0),))
        assert rep2.verdict == IDENTIFIABLE


def _ill_posed(c_yx):
    """One subsystem with D_zv = 1, regular at Phi = 1 where I - Phi D_zv
    is singular; C_yx = 1 gives case both_full, C_yx = 0 case a3."""
    one = ((F(1),),)
    zero = ((F(0),),)
    return NdsDefinition(subsystems=(SubsystemRealization(
        E=one, A_xx=((F(-1),),), B_xv=one, B_xu=one, C_zx=one,
        C_yx=((F(c_yx),),), D_zv=one, D_zu=zero, D_yv=zero, D_yu=zero),))


class TestConstrainedPreamble:
    @pytest.mark.parametrize("c_yx,kind", [(1, BOTH_FULL), (0, A3)])
    def test_warnings_match_unconstrained(self, c_yx, kind):
        nds, phi = _ill_posed(c_yx), SCMatrix(((F(1),),))
        rep = check_identifiable_at(nds, phi)
        assert (rep.case.kind, rep.warnings) == (kind, ("not_well_posed",))
        known = check_identifiable_known_entries(nds, phi, KnownEntries(J=()))
        line = AffineConstraint(base=phi, directions=(SCMatrix(((F(1),),)),))
        affine = check_identifiable_parameterized(nds, line, (F(0),))
        assert known.warnings == affine.warnings == rep.warnings


def _both_full_pair():
    """Two both_full subsystems side by side: a 2 x 2 SCM."""
    rng = random.Random(5)
    nds = NdsDefinition(subsystems=tuple(
        sub for _ in range(2) for sub in rand_nds(rng, "both_full").subsystems))
    return nds, rand_wellposed_scm(rng, nds)


class TestBothFullConstrained:
    """In case both_full every deviation from Phi0 changes the external
    TFM: the constrained checks test against the identity."""

    def test_single_subsystem_known_entry(self):
        rng = random.Random(5)
        nds = rand_nds(rng, "both_full")
        phi = rand_wellposed_scm(rng, nds)
        rep = check_identifiable_known_entries(
            nds, phi, KnownEntries(J=(1,), I={1: (1,)}))
        assert rep.verdict == IDENTIFIABLE_BY_BOTH_FULL
        assert rep.per_column == {1: {"kept": [], "fcr": True,
                                      "null_basis": []}}

    def test_known_entries_every_column_fcr(self):
        nds, phi = _both_full_pair()
        assert check_identifiable_at(nds, phi).verdict == \
            IDENTIFIABLE_BY_BOTH_FULL
        # the oracle: random deviations all change the external TFM
        point = UndiffRegion(phi0=phi, basis=[[], []])
        assert verify_region_by_tfm(nds, phi, point, 0, 5, seed=3)
        rep = check_identifiable_known_entries(
            nds, phi, KnownEntries(J=(1,), I={1: (2,)}))
        assert rep.verdict == IDENTIFIABLE_BY_BOTH_FULL
        assert rep.per_column == {
            1: {"kept": [1], "fcr": True, "null_basis": [[]]},
            2: {"kept": [1, 2], "fcr": True, "null_basis": [[], []]}}

    def test_affine_directions(self):
        nds, phi = _both_full_pair()
        d1 = SCMatrix.from_rows([["1", "0"], ["0", "0"]])
        d2 = SCMatrix.from_rows([["0", "1"], ["1", "0"]])
        d3 = SCMatrix.from_rows([["2", "0"], ["0", "0"]])
        free = check_identifiable_parameterized(
            nds, AffineConstraint(base=phi, directions=(d1, d2)), (0, 0))
        assert free.verdict == IDENTIFIABLE_BY_BOTH_FULL
        assert free.theta_null_basis is None
        # d3 = 2 d1: theta = (1, -1/2) leaves Phi, so H, unchanged
        tied = check_identifiable_parameterized(
            nds, AffineConstraint(base=phi, directions=(d1, d3)), (0, 0))
        assert tied.verdict == NOT_IDENTIFIABLE
        assert tied.theta_null_basis == [[F(1)], [F(-1, 2)]]


class TestKnownEntries:
    def test_fully_known_identifiable(self):
        spec = KnownEntries(J=(1, 2), I={1: (1, 2, 3, 4), 2: (1, 2, 3, 4)})
        rep = check_identifiable_known_entries(demo_nds(), PHI0, spec)
        assert rep.verdict == IDENTIFIABLE

    def test_fixture_known_rows_34(self):
        spec = KnownEntries(J=(1, 2), I={1: (3, 4), 2: (3, 4)})
        rep = check_identifiable_known_entries(demo_nds(), PHI0, spec)
        assert rep.verdict == IDENTIFIABLE
        assert rep.per_column[1]["kept"] == [1, 2]

    def test_empty_constraints_match_unconstrained(self):
        spec = KnownEntries(J=(), I={})
        rep = check_identifiable_known_entries(demo_nds(), PHI0, spec)
        assert rep.verdict == check_identifiable_at(demo_nds(), PHI0).verdict

    def test_per_column_null_basis_in_kept_coordinates(self):
        spec = KnownEntries(J=(1,), I={1: (1, 2)})
        rep = check_identifiable_known_entries(demo_nds(), PHI0, spec)
        # kept columns (3, 4); kernel direction (1, -2) survives there
        info = rep.per_column[1]
        assert info["kept"] == [3, 4]
        assert not info["fcr"]
        assert info["null_basis"] == [[F(1)], [F(-2)]]
        assert rep.verdict == NOT_IDENTIFIABLE


class TestParameterized:
    def test_q_zero_vacuous(self):
        spec = AffineConstraint(base=PHI0, directions=())
        rep = check_identifiable_parameterized(demo_nds(), spec, ())
        assert rep.verdict == IDENTIFIABLE

    def test_single_visible_direction(self):
        d = SCMatrix.from_rows([["0", "0"], ["0", "0"],
                                ["1", "0"], ["0", "0"]])
        spec = AffineConstraint(base=PHI0, directions=(d,))
        rep = check_identifiable_parameterized(demo_nds(), spec, (F(0),))
        assert rep.verdict == IDENTIFIABLE

    def test_single_kernel_direction(self):
        d = SCMatrix.from_rows([["0", "0"], ["0", "0"],
                                ["1", "0"], ["-2", "0"]])
        spec = AffineConstraint(base=PHI0, directions=(d,))
        rep = check_identifiable_parameterized(demo_nds(), spec, (F(0),))
        assert rep.verdict == NOT_IDENTIFIABLE
        assert rep.theta_null_basis == [[F(1)]]

    def test_full_unit_basis_matches_unconstrained(self):
        dirs = []
        for i in range(4):
            for j in range(2):
                rows = [["0", "0"] for _ in range(4)]
                rows[i][j] = "1"
                dirs.append(SCMatrix.from_rows(rows))
        spec = AffineConstraint(base=PHI0, directions=tuple(dirs))
        rep = check_identifiable_parameterized(
            demo_nds(), spec, tuple(F(0) for _ in dirs))
        assert rep.verdict == check_identifiable_at(demo_nds(), PHI0).verdict


class TestAugmented:
    def test_agrees_with_direct_on_a2(self):
        rng = random.Random(19)
        done = 0
        while done < 5:
            nds = rand_nds(rng, "a2")
            try:
                phi = rand_wellposed_scm(rng, nds)
            except RuntimeError:
                continue
            direct = check_identifiable_at(nds, phi)
            aug = check_identifiable_augmented(nds, phi, seed=done)
            assert aug.verdict == direct.verdict
            done += 1

    def test_identity_diagonal(self):
        rng = random.Random(23)
        nds = rand_nds(rng, "a2")
        phi = SCMatrix.zero(nds.m_v, nds.m_z)
        aug = check_identifiable_augmented(
            nds, phi, p_diag=[F(1)] * nds.m_z)
        assert aug.verdict == check_identifiable_at(nds, phi).verdict

    def test_zero_diagonal_rejected(self):
        rng = random.Random(29)
        nds = rand_nds(rng, "a2")
        phi = SCMatrix.zero(nds.m_v, nds.m_z)
        with pytest.raises(ZeroDiagonal):
            check_identifiable_augmented(nds, phi,
                                         p_diag=[F(0)] + [F(1)] * (nds.m_z - 1))

    def test_wrong_case_rejected(self):
        with pytest.raises(WrongCase):
            check_identifiable_augmented(demo_nds(), PHI0)


def _portless(m_u, m_y):
    """One stable state with m_u external inputs and m_y external outputs."""
    one, zero = ((F(1),),), ((F(0),),)
    from ndscope.model import NdsDefinition, SubsystemRealization
    sub = SubsystemRealization(
        E=one, A_xx=((F(-1),),), B_xv=one, B_xu=((F(1),) * m_u,),
        C_zx=one, C_yx=((F(1),),) * m_y, D_zv=zero, D_zu=((F(0),) * m_u,),
        D_yv=((F(0),),) * m_y, D_yu=((F(0),) * m_u,) * m_y)
    return NdsDefinition(subsystems=(sub,))


class TestPortless:
    """With m_u = 0 or m_y = 0 the external TFM is empty at every SCM, so
    every check returns the whole SCM space, whatever the case's frame."""

    PHI = SCMatrix(((F(1, 2),),))

    @pytest.mark.parametrize("m_u,m_y,kind", [(0, 0, A2), (0, 1, DUAL_A3),
                                              (1, 0, A3)])
    def test_direct_verdict_and_region(self, m_u, m_y, kind):
        nds = _portless(m_u, m_y)
        # the oracle: SCMs 0 and 1/2 give the same (empty) external TFM
        assert tfm_equal(nds_tfm(nds, self.PHI),
                         nds_tfm(nds, SCMatrix.zero(1, 1)))
        rep = check_identifiable_at(nds, self.PHI)
        assert (rep.case.kind, rep.verdict) == (kind, NOT_IDENTIFIABLE)
        assert rep.transposed == (kind == DUAL_A3)
        assert rep.null_basis == [[F(1)]]
        region = undiff_region(rep, self.PHI)
        assert verify_region_by_tfm(nds, self.PHI, region, 5, 5, seed=2)

    @pytest.mark.parametrize("m_u,m_y", [(0, 0), (0, 1), (1, 0)])
    def test_constrained_checks(self, m_u, m_y):
        nds = _portless(m_u, m_y)
        free = check_identifiable_known_entries(nds, self.PHI,
                                                KnownEntries(J=()))
        assert free.verdict == NOT_IDENTIFIABLE
        assert free.per_column[1]["null_basis"] == [[F(1)]]
        # an SCM known a priori is its own region
        known = check_identifiable_known_entries(
            nds, self.PHI, KnownEntries(J=(1,), I={1: (1,)}))
        assert known.verdict == IDENTIFIABLE
        line = AffineConstraint(base=SCMatrix.zero(1, 1),
                                directions=(SCMatrix(((F(1),),)),))
        rep = check_identifiable_parameterized(nds, line, (F(1, 2),))
        assert rep.verdict == NOT_IDENTIFIABLE
        assert rep.theta_null_basis == [[F(1)]]
        point = AffineConstraint(base=self.PHI, directions=())
        assert check_identifiable_parameterized(
            nds, point, ()).verdict == IDENTIFIABLE

    def test_augmented(self):
        rep = check_identifiable_augmented(_portless(0, 0), self.PHI)
        assert rep.verdict == NOT_IDENTIFIABLE
        assert rep.null_basis == [[F(1)]]


def _demo_chain(n, rng):
    """n copies of the demo subsystem, copy k + 1 fed by copy k's z."""
    sub = demo_nds().subsystems[0]
    rows = [[F(0)] * n for _ in range(2 * n)]
    for k in range(n - 1):
        rows[2 * (k + 1)][k] = F(rng.choice((1, 2, 3, 5, 7)),
                                 rng.choice((1, 2, 4)))
    return NdsDefinition(subsystems=(sub,) * n), SCMatrix.from_rows(rows)


def _count_calls(monkeypatch):
    """Count the per-subsystem work of one check by name."""
    import ndscope.identifiability as ident
    import ndscope.model as model
    calls = {}
    for mod, name in ((ident, "subsystem_tfms"), (ident, "_pencil_blocks"),
                      (model, "check_subsystem_regular")):
        def counted(*args, _fn=getattr(mod, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    return calls


def _separately_parsed(nds, phi):
    """(an equal network whose subsystems are distinct objects, each parsed
    from its own entry of a model file, and its SCM)."""
    parsed, phi_p, _ = parse_model(json.dumps(model_json(nds, phi)))
    assert parsed == nds and len(set(map(id, parsed.subsystems))) == nds.n
    return parsed, phi_p


def _per_slot(monkeypatch):
    """Turn the sharing off: every slot does its own work."""
    import ndscope.identifiability as ident
    import ndscope.model as model
    for mod in (ident, model):
        monkeypatch.setattr(mod, "per_distinct",
                            lambda fn, items, key=None: [fn(x) for x in items])


class TestPerDistinctSubsystem:
    """Per-subsystem work runs once per distinct subsystem within a call,
    and never leaks from one call into the next."""

    def _dual_repeat(self):
        nds, phi = _demo_chain(3, random.Random(3))
        return transpose_nds(nds), phi.transpose()

    @pytest.mark.parametrize("which", ["chain6", "demo", "dual_a3"])
    def test_once_per_check(self, which, monkeypatch):
        nds, phi = {"chain6": lambda: _demo_chain(6, random.Random(6)),
                    "demo": lambda: (demo_nds(), PHI0),
                    "dual_a3": self._dual_repeat}[which]()
        calls = _count_calls(monkeypatch)
        rep = check_identifiable_at(nds, phi)
        assert rep.case.kind == (DUAL_A3 if which == "dual_a3" else A3)
        assert calls == {"subsystem_tfms": 1, "_pencil_blocks": 1,
                         "check_subsystem_regular": 1}
        # no memo outlives the call
        assert check_identifiable_at(nds, phi) == rep
        assert calls == {"subsystem_tfms": 2, "_pencil_blocks": 2,
                         "check_subsystem_regular": 2}

    def test_aba_slots(self, monkeypatch):
        rng = random.Random(83)
        a, b = rand_nds(rng, "a3").subsystems
        nds = NdsDefinition(subsystems=(a, b, a))
        per_slot = [_pencil_blocks(subsystem_tfms(s), True)
                    for s in nds.subsystems]
        calls = _count_calls(monkeypatch)
        pencil = build_xy_pencil_hat(nds)
        assert calls["subsystem_tfms"] == calls["_pencil_blocks"] == 2
        assert pencil.X == PolyMat.block_diag([d for _, d in per_slot])
        assert pencil.Y == PolyMat.block_diag([n for n, _ in per_slot])

    def test_twists_stay_per_slot(self, monkeypatch):
        rng = random.Random(89)
        nds, _ = _demo_chain(3, rng)
        tfms = [subsystem_tfms(sub) for sub in nds.subsystems[:1]] * 3
        twists = [(rand_unimodular(rng, 2), rand_unimodular(rng, 1))
                  for _ in range(3)]
        calls = _count_calls(monkeypatch)
        _build_pencil(tfms, hat=True, case=classify_case(nds, tfms),
                      twists=twists)
        assert calls["_pencil_blocks"] == 3

    def _networks(self):
        rng = random.Random(97)
        chain, chain_phi = _demo_chain(4, rng)
        a, b = rand_nds(rng, "a2").subsystems
        a2 = NdsDefinition(subsystems=(a, b, a))
        # slots whose G_yv ranks differ (1, 0, 1)
        demo, blind = demo_nds().subsystems[0], _portless(1, 0).subsystems[0]
        mixed = NdsDefinition(subsystems=(demo, blind, demo))
        yield chain, chain_phi
        yield self._dual_repeat()
        yield a2, rand_wellposed_scm(rng, a2)
        mixed_phi = rand_wellposed_scm(rng, mixed)
        yield mixed, mixed_phi
        yield transpose_nds(mixed), mixed_phi.transpose()

    def test_reports_equal_per_slot_reports(self, monkeypatch):
        def reports(nds, phi):
            out = [check_identifiable_at(nds, phi),
                   check_identifiable_known_entries(
                       nds, phi, KnownEntries(J=(1,), I={1: (1, 2)}))]
            dirs = (SCMatrix.from_rows(
                [[int(i == j) for j in range(phi.cols)]
                 for i in range(phi.rows)]),
                SCMatrix.from_rows([[1] * phi.cols] * phi.rows))
            spec = AffineConstraint(base=phi, directions=dirs)
            out.append(check_identifiable_parameterized(nds, spec, (0, 0)))
            if out[0].case.kind == A2:
                out.append(check_identifiable_augmented(nds, phi))
            return out

        shared = [reports(nds, phi) for nds, phi in self._networks()]
        _per_slot(monkeypatch)
        separate = [reports(*_separately_parsed(nds, phi))
                    for nds, phi in self._networks()]
        assert shared == separate
        assert [len(r) for r in shared] == [3, 3, 4, 3, 3]
        assert shared[3][0].case.yv_ranks == (1, 0, 1)
        assert shared[4][0].case.kind == DUAL_A3


# The one-subsystem case-a2 reproducer of the ROADMAP defect list.
A2_DEFECT = {
    "time_domain": "continuous",
    "subsystems": [{
        "E": [["1"]], "A_xx": [["5/4"]], "B_xv": [["-3", "3/2"]],
        "B_xu": [["7/4"]], "C_zx": [["-7/4"], ["3/4"]], "C_yx": [["-7/4"]],
        "D_zv": [["9/4", "-1/2"], ["5/4", "-5/4"]],
        "D_zu": [["5/2"], ["3/2"]], "D_yv": [["1", "-1/2"]], "D_yu": [["3"]],
    }],
    "scm": [["-3", "0"], ["0", "3"]],
}
A2_DEFECT_TWINS = ([["-2", "0"], ["23/19", "3"]],
                   [["-3", "1"], ["0", "80/19"]])


class TestA2Defect:
    def test_twins_share_phi0_tfm(self):
        nds, phi0, _ = parse_model(json.dumps(A2_DEFECT))
        h0 = nds_tfm(nds, phi0)
        for rows in A2_DEFECT_TWINS:
            phi = SCMatrix.from_rows(rows)
            assert phi != phi0
            assert check_nds_regular(nds, phi) and check_well_posed(nds, phi)
            assert tfm_equal(nds_tfm(nds, phi), h0)

    @pytest.mark.xfail(
        strict=True,
        reason="case a2 reports identifiable although other SCMs give "
               "Phi0's exact TFM (ROADMAP direction 1: a witness oracle "
               "and a correct a2 verdict)")
    def test_verdict_is_not_identifiable(self):
        nds, phi0, _ = parse_model(json.dumps(A2_DEFECT))
        rep = check_identifiable_at(nds, phi0)
        assert rep.case.kind == A2
        assert rep.verdict != IDENTIFIABLE
        # the whole SCM space fails the oracle, the witness region
        # Phi0 + [1; 23/19] gamma^T passes it: a verdict alone cannot pass
        region = undiff_region(rep, phi0)
        assert verify_region_by_tfm(nds, phi0, region, n_in=5, n_out=5,
                                    seed=0)


# The one-subsystem case-a3 reproducer of the ROADMAP defect list:
# B_xv = 0 and D_yv = 0, so v never reaches y and H does not depend on Phi.
A3_DEFECT = {
    "time_domain": "continuous",
    "subsystems": [{
        "E": [["1", "0"], ["0", "1"]],
        "A_xx": [["-5/4", "3/2"], ["5/4", "-2"]],
        "B_xv": [["0", "0"], ["0", "0"]],
        "B_xu": [["3/2", "-5/2"], ["7/4", "-3"]],
        "C_zx": [["3/4", "-1"]], "C_yx": [["5/4", "-5/4"]],
        "D_zv": [["-3/2", "5/2"]], "D_zu": [["3/4", "5/4"]],
        "D_yv": [["0", "0"]], "D_yu": [["0", "2"]],
    }],
    "scm": [["1/3"], ["-1/2"]],
}
A3_DEFECT_TWIN = [["5"], ["7"]]


class TestA3Defect:
    def test_twin_shares_phi0_tfm(self):
        nds, phi0, _ = parse_model(json.dumps(A3_DEFECT))
        phi = SCMatrix.from_rows(A3_DEFECT_TWIN)
        assert phi != phi0
        assert check_nds_regular(nds, phi) and check_well_posed(nds, phi)
        assert tfm_equal(nds_tfm(nds, phi), nds_tfm(nds, phi0))

    @pytest.mark.xfail(
        strict=True,
        reason="case a3 reports identifiable when its stacked matrix has "
               "no rows, although every SCM gives Phi0's exact TFM (ROADMAP "
               "direction 1: the empty stacked matrix)")
    def test_verdict_is_not_identifiable(self):
        nds, phi0, _ = parse_model(json.dumps(A3_DEFECT))
        rep = check_identifiable_at(nds, phi0)
        assert rep.case.kind == A3
        assert rep.verdict != IDENTIFIABLE
        # here the region is the whole SCM space, the set of A0 K = 0
        region = undiff_region(rep, phi0)
        assert verify_region_by_tfm(nds, phi0, region, n_in=5, n_out=5,
                                    seed=0)


IDENT_POOL = (Path(__file__).resolve().parents[1] / "perfbench" / "data"
              / "ident_pool.json")


def _stored_pool():
    with open(IDENT_POOL, encoding="utf-8") as fh:
        return json.load(fh)["instances"]


class TestStoredIdentPool:
    """The exact outputs stored with the benchmark's ident pool: case,
    verdict, transposition, null basis and the stacked degree p, which
    the kernels of ``polymat`` must not move."""

    @pytest.mark.parametrize("inst", _stored_pool(), ids=lambda i: i["id"])
    def test_instance_matches_stored_expectation(self, inst):
        nds, phi, _ = parse_model(json.dumps(inst["model"]))
        rep = check_identifiable_at(nds, phi)
        exp = inst["expect"]
        basis = None if rep.null_basis is None else [
            [str(F(x)) for x in row] for row in rep.null_basis]
        got = (rep.case.kind, rep.verdict, rep.transposed, basis,
               None if rep.stacked is None else rep.stacked.p)
        assert got == (exp["case"], exp["verdict"], exp["transposed"],
                       exp["null_basis"], exp["p"])
