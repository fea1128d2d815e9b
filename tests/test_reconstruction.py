import random
from fractions import Fraction as F

import numpy as np
import pytest

import ndscope.ratmat as rm
from helpers import feedback_tfm, rand_reconstructible_nds, rand_wellposed_scm
from ndscope.fixtures import PHI0, PHI_DIFF, PHI_EQUIV, demo_nds
from ndscope.model import (
    NdsDefinition, NotWellPosed, SCMatrix, SubsystemRealization, tfm_equal,
)
from ndscope.polymat import ShapeError
from ndscope.reconstruction import (
    Inconsistent, LumpedModel, NotReconstructible, check_consistency,
    check_reconstructible, lump, lump_descriptor, lumped_tfm, recover_scm,
)


class TestReconstructible:
    def test_fixture(self):
        rep = check_reconstructible(demo_nds())
        assert rep.reconstructible
        for per in rep.per_subsystem:
            assert per["K_fcr"] and per["L_frr"]

    def test_zero_k(self):
        sub = demo_nds().subsystems[0]
        zero_bxv = tuple(tuple(F(0) for _ in row) for row in sub.B_xv)
        bad = SubsystemRealization(
            E=sub.E, A_xx=sub.A_xx, B_xv=zero_bxv, B_xu=sub.B_xu,
            C_zx=sub.C_zx, C_yx=sub.C_yx, D_zv=sub.D_zv, D_zu=sub.D_zu,
            D_yv=sub.D_yv, D_yu=sub.D_yu)
        rep = check_reconstructible(NdsDefinition(subsystems=(bad,)))
        assert not rep.per_subsystem[0]["K_fcr"]
        assert not rep.reconstructible

    def test_zero_l(self):
        sub = demo_nds().subsystems[0]
        zero_czx = tuple(tuple(F(0) for _ in row) for row in sub.C_zx)
        bad = SubsystemRealization(
            E=sub.E, A_xx=sub.A_xx, B_xv=sub.B_xv, B_xu=sub.B_xu,
            C_zx=zero_czx, C_yx=sub.C_yx, D_zv=sub.D_zv, D_zu=sub.D_zu,
            D_yv=sub.D_yv, D_yu=sub.D_yu)
        rep = check_reconstructible(NdsDefinition(subsystems=(bad,)))
        assert not rep.per_subsystem[0]["L_frr"]


class TestLump:
    def test_zero_scm_is_block_diagonal(self):
        nds = demo_nds()
        model = lump(nds, SCMatrix.zero(4, 2))
        assert rm.thaw(model.A_hat) == nds.block("A_xx")
        assert rm.thaw(model.B_hat) == nds.block("B_xu")
        assert rm.thaw(model.C_hat) == nds.block("C_yx")
        assert rm.thaw(model.D_hat) == nds.block("D_yu")

    def test_fixture_shapes(self):
        model = lump(demo_nds(), PHI0)
        assert rm.thaw(model.E_hat) == rm.identity(4)
        assert len(model.A_hat) == 4 and len(model.B_hat[0]) == 2

    def test_lump_tfm_matches_interconnection(self):
        nds = demo_nds()
        for phi in (PHI0, PHI_EQUIV, PHI_DIFF):
            assert tfm_equal(lumped_tfm(lump(nds, phi)),
                             feedback_tfm(nds, phi))

    def test_not_well_posed_rejected(self):
        nds = demo_nds()
        phi = SCMatrix.from_rows([["0", "0"], ["-1", "0"],
                                  ["0", "0"], ["0", "0"]])
        with pytest.raises(NotWellPosed):
            lump(nds, phi)

    def test_descriptor_form_blocks(self):
        nds = demo_nds()
        zero = SCMatrix.zero(4, 2)
        lifted = lump_descriptor(nds, zero)
        # lower-right state block is -I when Phi = 0
        a = rm.thaw(lifted.A_hat)
        for i in range(2):
            for j in range(2):
                want = F(-1) if i == j else F(0)
                assert a[4 + i][4 + j] == want

    def test_schur_elimination_matches_lump(self):
        # eliminating the algebraic states reproduces the direct lumping
        nds = demo_nds()
        for phi in (PHI0, PHI_DIFF):
            lifted = lump_descriptor(nds, phi)
            direct = lump(nds, phi)
            a = rm.thaw(lifted.A_hat)
            m_x, m_z = 4, 2
            a_xx = [row[:m_x] for row in a[:m_x]]
            b_z = [row[m_x:] for row in a[:m_x]]
            c_z = [row[:m_x] for row in a[m_x:]]
            d_z = [row[m_x:] for row in a[m_x:]]
            # z = -(D_zv Phi - I)^(-1) C_zx x  (no inputs enter z here
            # because D_zu = 0 in the fixture)
            inv = rm.inv(rm.scale(d_z, F(-1)))
            a_red = rm.add(a_xx, rm.matmul(rm.matmul(b_z, inv), c_z))
            assert a_red == rm.thaw(direct.A_hat)


class TestConsistency:
    def test_lumped_models_are_consistent(self):
        nds = demo_nds()
        for phi in (PHI0, PHI_EQUIV, PHI_DIFF):
            rep = check_consistency(nds, lump(nds, phi))
            assert rep.consistent and rep.recovery_unique

    def test_zero_deviation(self):
        nds = demo_nds()
        base = LumpedModel(
            E_hat=rm.freeze(nds.block("E")),
            A_hat=rm.freeze(nds.block("A_xx")),
            B_hat=rm.freeze(nds.block("B_xu")),
            C_hat=rm.freeze(nds.block("C_yx")),
            D_hat=rm.freeze(nds.block("D_yu")))
        rep = check_consistency(nds, base)
        assert rep.consistent and rm.is_zero(rep.H_m)
        assert rm.is_zero(recover_scm(nds, base).as_lists())

    def test_k_perp_perturbation_detected(self):
        nds = demo_nds()
        model = lump(nds, PHI0)
        k = rm.vstack(nds.block("B_xv"), nds.block("D_yv"))
        vec = rm.left_null_space(k, cols=4)[0]
        a2 = rm.thaw(model.A_hat)
        c2 = rm.thaw(model.C_hat)
        for i in range(4):
            a2[i][0] += vec[i]
        for i in range(2):
            c2[i][0] += vec[4 + i]
        bad = LumpedModel(E_hat=model.E_hat, A_hat=rm.freeze(a2),
                          B_hat=model.B_hat, C_hat=rm.freeze(c2),
                          D_hat=model.D_hat)
        rep = check_consistency(nds, bad)
        assert not rep.cond_left and not rep.consistent
        with pytest.raises(Inconsistent):
            recover_scm(nds, bad)

    def test_wrong_e_rejected(self):
        nds = demo_nds()
        model = lump(nds, PHI0)
        wrong = LumpedModel(E_hat=rm.freeze(rm.scale(rm.identity(4), F(2))),
                            A_hat=model.A_hat, B_hat=model.B_hat,
                            C_hat=model.C_hat, D_hat=model.D_hat)
        with pytest.raises(ShapeError):
            check_consistency(nds, wrong)

    def test_not_reconstructible_rejected(self):
        sub = demo_nds().subsystems[0]
        zero_bxv = tuple(tuple(F(0) for _ in row) for row in sub.B_xv)
        bad = SubsystemRealization(
            E=sub.E, A_xx=sub.A_xx, B_xv=zero_bxv, B_xu=sub.B_xu,
            C_zx=sub.C_zx, C_yx=sub.C_yx, D_zv=sub.D_zv, D_zu=sub.D_zu,
            D_yv=sub.D_yv, D_yu=sub.D_yu)
        nds = NdsDefinition(subsystems=(bad,))
        model = lump(nds, SCMatrix.zero(2, 1))
        with pytest.raises(NotReconstructible):
            check_consistency(nds, model)


class TestRecovery:
    def test_fixture_round_trips(self):
        nds = demo_nds()
        for phi in (PHI0, PHI_EQUIV, PHI_DIFF):
            got = recover_scm(nds, lump(nds, phi))
            assert got.entries == phi.entries

    def test_equiv_scm_recovered_despite_equal_tfm(self):
        # reconstruction works from the state-space model, so the two
        # transfer-equivalent SCMs recover to their own distinct values
        nds = demo_nds()
        got_u = recover_scm(nds, lump(nds, PHI_EQUIV))
        assert got_u.entries == PHI_EQUIV.entries != PHI0.entries

    def test_random_round_trips(self):
        rng = random.Random(101)
        done = 0
        while done < 30:
            nds = rand_reconstructible_nds(rng)
            try:
                phi = rand_wellposed_scm(rng, nds)
            except RuntimeError:
                continue
            got = recover_scm(nds, lump(nds, phi))
            assert got.entries == phi.entries
            done += 1

    def test_recovery_is_affine_in_consistent_deviation(self):
        # with D_zv = 0 the map (deviation) -> Phi is exactly affine
        sub = demo_nds().subsystems[0]
        zero_dzv = tuple(tuple(F(0) for _ in row) for row in sub.D_zv)
        s0 = SubsystemRealization(
            E=sub.E, A_xx=sub.A_xx, B_xv=sub.B_xv, B_xu=sub.B_xu,
            C_zx=sub.C_zx, C_yx=sub.C_yx, D_zv=zero_dzv, D_zu=sub.D_zu,
            D_yv=sub.D_yv, D_yu=sub.D_yu)
        nds = NdsDefinition(subsystems=(s0, s0))
        base = lump(nds, PHI0)
        k = rm.vstack(nds.block("B_xv"), nds.block("D_yv"))
        latch = rm.hstack(nds.block("C_zx"), nds.block("D_zu"))
        rng = random.Random(5)
        deltas = [[[F(rng.randint(-4, 4), 4) for _ in range(2)]
                   for _ in range(4)] for _ in range(3)]
        for scale_num in (1, 2, 3):
            d = rm.scale(deltas[0], F(scale_num))
            dev = rm.matmul(rm.matmul(k, d), latch)
            full = rm.vstack(
                rm.hstack(rm.thaw(base.A_hat), rm.thaw(base.B_hat)),
                rm.hstack(rm.thaw(base.C_hat), rm.thaw(base.D_hat)))
            pert = rm.add(full, dev)
            m_x = 4
            model = LumpedModel(
                E_hat=base.E_hat,
                A_hat=rm.freeze([row[:m_x] for row in pert[:m_x]]),
                B_hat=rm.freeze([row[m_x:] for row in pert[:m_x]]),
                C_hat=rm.freeze([row[:m_x] for row in pert[m_x:]]),
                D_hat=rm.freeze([row[m_x:] for row in pert[m_x:]]))
            got = recover_scm(nds, model)
            want = rm.add(PHI0.as_lists(), rm.scale(deltas[0], F(scale_num)))
            assert got.as_lists() == want

    def test_nonuniqueness_when_k_deficient(self):
        # K rank-deficient: two different SCMs produce one lumped model
        sub = SubsystemRealization(
            E=((F(1),),), A_xx=((F(-1),),),
            B_xv=((F(1), F(1)),),
            B_xu=((F(1),),),
            C_zx=((F(1),), (F(2),)),
            C_yx=((F(1),),),
            D_zv=((F(0), F(0)), (F(0), F(0))),
            D_zu=((F(0),), (F(1),)),
            D_yv=((F(0), F(0)),),
            D_yu=((F(0),),))
        nds = NdsDefinition(subsystems=(sub,))
        rep = check_reconstructible(nds)
        assert not rep.per_subsystem[0]["K_fcr"]
        assert rep.per_subsystem[0]["L_frr"]
        phi1 = SCMatrix.from_rows([["1/2", "0"], ["0", "1/3"]])
        w, eta = [F(1), F(-1)], [F(2), F(5)]
        phi2 = SCMatrix(rm.freeze(rm.add(
            phi1.as_lists(),
            [[w[i] * eta[j] for j in range(2)] for i in range(2)])))
        assert phi1.entries != phi2.entries
        assert lump(nds, phi1) == lump(nds, phi2)

    def test_svd_construction_agrees(self):
        # floating-point decomposition route of the existence proof
        # matches the exact recovery on full-rank instances
        nds = demo_nds()
        for phi in (PHI0, PHI_DIFF):
            model = lump(nds, phi)
            full = rm.vstack(
                rm.hstack(rm.thaw(model.A_hat), rm.thaw(model.B_hat)),
                rm.hstack(rm.thaw(model.C_hat), rm.thaw(model.D_hat)))
            base = rm.vstack(
                rm.hstack(nds.block("A_xx"), nds.block("B_xu")),
                rm.hstack(nds.block("C_yx"), nds.block("D_yu")))
            e_d = np.array(rm.to_float(rm.sub(full, base)))
            k = np.array(rm.to_float(rm.vstack(nds.block("B_xv"),
                                               nds.block("D_yv"))))
            latch = np.array(rm.to_float(rm.hstack(nds.block("C_zx"),
                                                   nds.block("D_zu"))))
            uk, sk, vkt = np.linalg.svd(k, full_matrices=False)
            ul, sl, vlt = np.linalg.svd(latch, full_matrices=False)
            h0 = np.diag(1 / sk) @ uk.T @ e_d @ vlt.T @ np.diag(1 / sl)
            gain = vkt.T @ h0 @ ul.T          # (I - Phi D_zv)^-1 Phi
            d_zv = np.array(rm.to_float(nds.block("D_zv")))
            phi_num = np.linalg.solve(
                np.eye(4) + gain @ d_zv, gain)
            want = np.array(rm.to_float(phi.as_lists()))
            assert np.allclose(phi_num, want, atol=1e-9)
