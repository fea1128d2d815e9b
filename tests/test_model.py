import json
import random
from fractions import Fraction as F

import pytest

import ndscope.ratmat as rm
from helpers import (
    feedback_tfm, pencil_inverse_subsystem_tfms, pencil_inverse_tfm, rand_nds,
    rand_scm, rand_subsystem, rand_wellposed_scm,
)
from ndscope.fixtures import PHI0, PHI_DIFF, PHI_EQUIV, demo_model_json, demo_nds
from ndscope.model import (
    DimensionError, NotRegular, SCMatrix, SchemaError, SubsystemRealization,
    assemble_block_tfms, check_nds_regular, check_subsystem_regular,
    check_well_posed, descriptor_tfm, lifted_realization, nds_tfm,
    parse_model, parse_rat, pencil_is_regular, subsystem_tfms, tfm_equal,
    transpose_nds,
)
from ndscope.polymat import (
    Poly, PolyMat, RatFun, RatFunMat, ShapeError, normal_rank,
)
from ndscope.reconstruction import lump, lump_descriptor, lumped_tfm


def P(*coeffs):
    return Poly(coeffs)


class TestParsing:
    def test_decimal_and_fraction_strings(self):
        assert parse_rat("-0.3") == F(-3, 10)
        assert parse_rat("−0.3") == F(-3, 10)
        assert parse_rat("11/10") == F(11, 10)
        assert parse_rat(2) == F(2)

    def test_demo_file_dimensions(self):
        nds, phi, constraint = parse_model(json.dumps(demo_model_json()))
        assert (nds.m_v, nds.m_z, nds.m_x, nds.m_u, nds.m_y) == (4, 2, 4, 2, 2)
        assert phi.entries == PHI0.entries
        assert constraint is None

    def test_wrong_row_count(self):
        doc = demo_model_json()
        doc["subsystems"][0]["B_xv"] = [["1", "0"]]
        with pytest.raises(DimensionError):
            parse_model(json.dumps(doc))

    def test_minimal_model(self):
        doc = {
            "time_domain": "continuous",
            "subsystems": [{
                "E": [["1"]], "A_xx": [["-1"]],
                "B_xv": [["1"]], "B_xu": [["1"]],
                "C_zx": [["1"]], "C_yx": [["1"]],
                "D_zv": [["0"]], "D_zu": [["0"]],
                "D_yv": [["0"]], "D_yu": [["0"]],
            }],
        }
        nds, phi, _ = parse_model(json.dumps(doc))
        assert nds.m_x == 1 and phi is None

    def test_malformed_json(self):
        with pytest.raises(SchemaError):
            parse_model(b"{not json")

    def test_missing_field(self):
        doc = demo_model_json()
        del doc["subsystems"][0]["C_zx"]
        with pytest.raises(SchemaError):
            parse_model(json.dumps(doc))

    def test_scm_inline(self):
        phi = SCMatrix.parse_inline("0,0;0,0;1,0;0,0")
        assert phi.entries == PHI0.entries
        phi2 = SCMatrix.parse_inline("1/2,-0.25")
        assert phi2.entries == ((F(1, 2), F(-1, 4)),)


class TestSubsystem:
    def test_fixture_regular(self):
        sub = demo_nds().subsystems[0]
        assert check_subsystem_regular(sub)
        assert sub.pencil().det() == P(18, 9, 1)

    def test_zero_e_identity_a(self):
        sub = SubsystemRealization(
            E=((F(0),),), A_xx=((F(1),),),
            B_xv=((F(1),),), B_xu=((F(1),),),
            C_zx=((F(1),),), C_yx=((F(1),),),
            D_zv=((F(0),),), D_zu=((F(0),),),
            D_yv=((F(0),),), D_yu=((F(0),),))
        assert check_subsystem_regular(sub)

    def test_zero_pencil_not_regular(self):
        sub = SubsystemRealization(
            E=((F(0),),), A_xx=((F(0),),),
            B_xv=((F(1),),), B_xu=((F(1),),),
            C_zx=((F(1),),), C_yx=((F(1),),),
            D_zv=((F(0),),), D_zu=((F(0),),),
            D_yv=((F(0),),), D_yu=((F(0),),))
        assert not check_subsystem_regular(sub)
        with pytest.raises(NotRegular):
            subsystem_tfms(sub)


class TestFixtureTfms:
    def test_g_zu(self):
        t = subsystem_tfms(demo_nds().subsystems[0])
        assert t.G_zu == RatFunMat(1, 1, [[RatFun(P(1, 1), P(18, 9, 1))]])

    def test_g_yv_cancellation(self):
        t = subsystem_tfms(demo_nds().subsystems[0])
        want = RatFunMat(1, 2, [[RatFun(P(F(-7, 5)), P(6, 1)),
                                 RatFun(P(F(-7, 10)), P(6, 1))]])
        assert t.G_yv == want

    def test_g_zv(self):
        t = subsystem_tfms(demo_nds().subsystems[0])
        den = P(18, 9, 1)
        want = RatFunMat(1, 2, [[
            RatFun(P(F(-11, 5), F(4, 5)), den),
            RatFun(P(F(-161, 10), F(-81, 10), -1), den)]])
        assert t.G_zv == want

    def test_realization_identity_random(self):
        # clearing denominators, C adj(pencil) B + det * D matches exactly
        rng = random.Random(2)
        for _ in range(20):
            sub = rand_subsystem(rng, 2, 1, 1, 1, 1)
            t = subsystem_tfms(sub)
            pencil = sub.pencil().to_ratfun()
            det = pencil.det()
            adj = pencil.inverse()
            c = RatFunMat.from_scalars(rm.thaw(sub.C_yx))
            b = RatFunMat.from_scalars(rm.thaw(sub.B_xv))
            d = RatFunMat.from_scalars(rm.thaw(sub.D_yv))
            lhs = (c @ adj @ b).entries[0][0] * det + d.entries[0][0] * det
            assert lhs == t.G_yv.entries[0][0] * det


class TestBlockAssembly:
    def test_block_shapes_and_ranks(self):
        t = assemble_block_tfms(demo_nds())
        assert t.G_yv.shape == (2, 4)
        assert normal_rank(t.G_yv) == 2
        assert t.G_zu.shape == (2, 2)
        assert normal_rank(t.G_zu) == 2     # full normal row rank

    def test_single_subsystem_matches(self):
        nds = demo_nds()
        single = type(nds)(subsystems=(nds.subsystems[0],))
        t1 = assemble_block_tfms(single)
        t2 = subsystem_tfms(nds.subsystems[0])
        assert t1.G_zv == t2.G_zv and t1.G_yu == t2.G_yu


class TestRegularityWellPosedness:
    def test_fixture_scms(self):
        nds = demo_nds()
        for phi in (PHI0, PHI_EQUIV, PHI_DIFF):
            assert check_nds_regular(nds, phi)
            assert check_well_posed(nds, phi)

    def test_zero_scm(self):
        nds = demo_nds()
        zero = SCMatrix.zero(4, 2)
        assert check_nds_regular(nds, zero)
        assert check_well_posed(nds, zero)

    def test_well_posedness_violation(self):
        # [Phi]_{2,1} = -1 makes row 2 of I - Phi D_zv vanish
        nds = demo_nds()
        phi = SCMatrix.from_rows([["0", "0"], ["-1", "0"],
                                  ["0", "0"], ["0", "0"]])
        assert not check_well_posed(nds, phi)

    def test_ill_posed_determinant_structure(self):
        # det(I - Phi0 D_zv) = 1 for the fixture (triangular)
        nds = demo_nds()
        d_zv = nds.block("D_zv")
        m = rm.sub(rm.identity(4), rm.matmul(PHI0.as_lists(), d_zv))
        assert rm.det(m) == 1


class TestDescriptorRoute:
    """The bounded point test and point-evaluation TFM against Q(s) oracles."""

    def test_regular_with_roots_at_first_points(self):
        # det(sI - diag(0, 1, 2)) vanishes at the first rank E = 3 points
        # s = 0, 1, 2; only the (rank E + 1)-th point shows regularity
        e = rm.identity(3)
        a = [[F(i) if i == j else F(0) for j in range(3)] for i in range(3)]
        assert pencil_is_regular(e, a)
        b, c, d = [[F(1)], [F(1)], [F(1)]], [[F(1), F(2), F(3)]], [[F(1)]]
        assert descriptor_tfm(e, a, b, c, d) == \
            pencil_inverse_tfm(e, a, b, c, d)

    def test_singular_pencil_with_singular_e(self):
        # sE - A = (s - 1) [[1, 1], [1, 1]] with rank E = 1
        e = [[F(1), F(1)], [F(1), F(1)]]
        assert not pencil_is_regular(e, e)
        with pytest.raises(NotRegular):
            descriptor_tfm(e, e, [[F(1)], [F(0)]], [[F(1), F(0)]], [[F(0)]])
        sub = SubsystemRealization(
            E=rm.freeze(e), A_xx=rm.freeze(e),
            B_xv=((F(1),), (F(0),)), B_xu=((F(0),), (F(1),)),
            C_zx=((F(1), F(0)),), C_yx=((F(0), F(1)),),
            D_zv=((F(0),),), D_zu=((F(0),),),
            D_yv=((F(0),),), D_yu=((F(0),),))
        assert not check_subsystem_regular(sub)
        nds = type(demo_nds())(subsystems=(sub,))
        with pytest.raises(NotRegular):
            check_nds_regular(nds, SCMatrix.zero(1, 1))

    def test_improper_tfm_of_nilpotent_e(self):
        # (sE - I)^-1 = -[[1, s], [0, 1]] for E = [[0, 1], [0, 0]]
        e = [[F(0), F(1)], [F(0), F(0)]]
        h = descriptor_tfm(e, rm.identity(2), [[F(0)], [F(1)]],
                           [[F(1), F(0)]], [[F(0)]])
        assert h == RatFunMat(1, 1, [[RatFun(P(0, -1))]])

    def test_regularity_matches_det_oracle_random(self):
        rng = random.Random(11)
        seen = set()
        for _ in range(60):
            # sparse 0/1/-1 pencils, many of them singular
            n = rng.randint(1, 4)
            e, a = ([[F(rng.choice([0, 0, 1, -1])) for _ in range(n)]
                     for _ in range(n)] for _ in range(2))
            pencil = PolyMat(n, n, [[P(-a[i][j], e[i][j]) for j in range(n)]
                                    for i in range(n)])
            want = not pencil.det().is_zero
            assert pencil_is_regular(e, a) == want
            seen.add(want)
        assert seen == {True, False}
        for _ in range(10):
            # singular-E networks at random SCMs: det(I - G_zv Phi) over Q(s)
            nds = rand_nds(rng, kind=rng.choice(["a2", "a3"]),
                           allow_singular_e=True)
            phi = rand_scm(rng, nds)
            g_zv = RatFunMat.block_diag(
                [pencil_inverse_subsystem_tfms(s).G_zv
                 for s in nds.subsystems])
            w = RatFunMat.identity(nds.m_z) - \
                (g_zv @ RatFunMat.from_scalars(phi.as_lists()))
            assert check_nds_regular(nds, phi) == (not w.det().is_zero)

    def test_irregular_interconnection(self):
        # C_zx = 0 and D_zv = 1 make I - G_zv Phi = 1 - Phi, zero at Phi = 1
        sub = SubsystemRealization(
            E=((F(1),),), A_xx=((F(-1),),),
            B_xv=((F(1),),), B_xu=((F(1),),),
            C_zx=((F(0),),), C_yx=((F(1),),),
            D_zv=((F(1),),), D_zu=((F(0),),),
            D_yv=((F(0),),), D_yu=((F(0),),))
        nds = type(demo_nds())(subsystems=(sub,))
        assert check_nds_regular(nds, SCMatrix.from_rows([["1/2"]]))
        assert not check_nds_regular(nds, SCMatrix.from_rows([["1"]]))
        with pytest.raises(NotRegular):
            nds_tfm(nds, SCMatrix.from_rows([["1"]]))


class TestNdsTfm:
    def test_zero_scm_gives_g_yu(self):
        nds = demo_nds()
        t = assemble_block_tfms(nds)
        assert tfm_equal(nds_tfm(nds, SCMatrix.zero(4, 2)), t.G_yu)

    def test_fixture_equalities(self):
        nds = demo_nds()
        h0 = nds_tfm(nds, PHI0)
        assert tfm_equal(h0, nds_tfm(nds, PHI_EQUIV))
        assert not tfm_equal(h0, nds_tfm(nds, PHI_DIFF))

    def test_shape_error(self):
        nds = demo_nds()
        h0 = nds_tfm(nds, PHI0)
        with pytest.raises(ShapeError):
            tfm_equal(h0, RatFunMat.zeros(1, 1))

    def test_tfm_via_lifted_pencil_random(self):
        # the point-evaluation route on the lifted and the lumped
        # realizations equals the Eq-(8)-style feedback formula and the
        # Q(s) pencil inverse, including singular-E subsystems
        rng = random.Random(9)
        done = 0
        while done < 15:
            nds = rand_nds(rng, kind=rng.choice(["a3", "both_full"]),
                           allow_singular_e=True)
            try:
                phi = rand_wellposed_scm(rng, nds)
            except RuntimeError:
                continue
            h = nds_tfm(nds, phi)
            assert tfm_equal(h, feedback_tfm(nds, phi))
            assert tfm_equal(
                h, pencil_inverse_tfm(*lifted_realization(nds, phi)))
            assert tfm_equal(h, lumped_tfm(lump(nds, phi)))
            for sub in nds.subsystems:
                assert subsystem_tfms(sub) == \
                    pencil_inverse_subsystem_tfms(sub)
            done += 1

    def test_determinant_factorization_random(self):
        # det(lifted pencil) = det(sE - A_xx) det(I - G_zv Phi)
        rng = random.Random(10)
        done = 0
        while done < 15:
            nds = rand_nds(rng, kind="a3", allow_singular_e=True)
            try:
                phi = rand_wellposed_scm(rng, nds)
            except RuntimeError:
                continue
            lifted = lump_descriptor(nds, phi)
            n = len(lifted.E_hat)
            pencil = PolyMat(n, n, [
                [Poly((-lifted.A_hat[i][j], lifted.E_hat[i][j]))
                 for j in range(n)] for i in range(n)])
            t = assemble_block_tfms(nds)
            w = RatFunMat.identity(nds.m_z) - \
                (t.G_zv @ RatFunMat.from_scalars(phi.as_lists()))
            det_xx = P(1)
            for sub in nds.subsystems:
                det_xx = det_xx * sub.pencil().det()
            assert RatFun(pencil.det()) == RatFun(det_xx) * w.det()
            done += 1

    def test_proper_inverse_when_well_posed(self):
        # well-posedness makes (I - Phi G_zv)^-1 proper entrywise
        nds = demo_nds()
        t = assemble_block_tfms(nds)
        for phi in (PHI0, PHI_EQUIV, PHI_DIFF):
            w = RatFunMat.identity(4) - \
                (RatFunMat.from_scalars(phi.as_lists()) @ t.G_zv)
            winv = w.inverse()
            assert all(e.is_proper for row in winv.entries for e in row)


class TestZeroDimensionSubsystems:
    """Unactuated (m_u = 0) and unmeasured (m_y = 0) subsystems are legal."""

    def _no_output_sub(self):
        return SubsystemRealization(
            E=((F(1),),), A_xx=((F(-2),),),
            B_xv=((F(1), F(0)),), B_xu=((F(1),),),
            C_zx=((F(1),),), C_yx=(),
            D_zv=((F(0), F(1)),), D_zu=((F(0),),),
            D_yv=(), D_yu=())

    def _no_input_sub(self):
        return SubsystemRealization(
            E=((F(1),),), A_xx=((F(-1),),),
            B_xv=((F(1),),), B_xu=((),),
            C_zx=((F(2),),), C_yx=((F(1),),),
            D_zv=((F(0),),), D_zu=((),),
            D_yv=((F(0),),), D_yu=((),))

    def test_tfm_shapes(self):
        t = subsystem_tfms(self._no_output_sub())
        assert t.G_yv.shape == (0, 2) and t.G_yu.shape == (0, 1)
        t2 = subsystem_tfms(self._no_input_sub())
        assert t2.G_zu.shape == (1, 0) and t2.G_yu.shape == (1, 0)

    def test_block_assembly_with_empty_blocks(self):
        from ndscope.fixtures import demo_subsystem
        nds = type(demo_nds())(subsystems=(demo_subsystem(),
                                           self._no_output_sub()))
        assert (nds.m_y, nds.m_v, nds.m_z) == (1, 4, 2)
        t = assemble_block_tfms(nds)
        assert t.G_yv.shape == (1, 4)

    def test_parse_empty_matrices(self):
        doc = {"time_domain": "continuous", "subsystems": [{
            "E": [["1"]], "A_xx": [["-2"]],
            "B_xv": [["1", "0"]], "B_xu": [["1"]],
            "C_zx": [["1"]], "C_yx": [],
            "D_zv": [["0", "1"]], "D_zu": [["0"]],
            "D_yv": [], "D_yu": []}]}
        nds, _, _ = parse_model(json.dumps(doc))
        assert nds.m_y == 0 and nds.m_v == 2

    def test_identifiability_with_unmeasured_subsystem(self):
        from ndscope.fixtures import demo_subsystem
        from ndscope.identifiability import check_identifiable_at
        nds = type(demo_nds())(subsystems=(demo_subsystem(),
                                           self._no_output_sub()))
        rep = check_identifiable_at(nds, SCMatrix.zero(4, 2))
        # the unmeasured subsystem leaves both of its internal inputs
        # free, on top of the measured subsystem's kernel direction
        assert rep.verdict == "not_identifiable"
        assert len(rep.null_basis[0]) == 3


class TestTranspose:
    def test_involution(self):
        nds = demo_nds()
        back = transpose_nds(transpose_nds(nds))
        t0 = subsystem_tfms(nds.subsystems[0])
        t2 = subsystem_tfms(back.subsystems[0])
        assert t0.G_yu == t2.G_yu and t0.G_yv == t2.G_yv
        assert t0.G_zu == t2.G_zu and t0.G_zv == t2.G_zv

    def test_dual_tfms_are_transposes(self):
        nds = demo_nds()
        dual = transpose_nds(nds)
        t = subsystem_tfms(nds.subsystems[0])
        td = subsystem_tfms(dual.subsystems[0])
        assert td.G_zv == t.G_zv.transpose()
        assert td.G_yv == t.G_zu.transpose()
        assert td.G_zu == t.G_yv.transpose()
        assert td.G_yu == t.G_yu.transpose()

    def test_rank_roles_swap(self):
        nds = demo_nds()
        dual = transpose_nds(nds)
        t = assemble_block_tfms(nds)
        td = assemble_block_tfms(dual)
        # original G_zu FNRR <-> dual G_yv FNCR
        assert normal_rank(t.G_zu) == t.G_zu.rows
        assert normal_rank(td.G_yv) == td.G_yv.cols
        # original G_yv not FNCR <-> dual G_zu not FNRR
        assert normal_rank(t.G_yv) < t.G_yv.cols
        assert normal_rank(td.G_zu) < td.G_zu.rows
