import dataclasses
import random
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

import ndscope.ratmat as rm
import ndscope.reconstruction as recon
from helpers import (
    dense_consistency, dense_lump, feedback_tfm, rand_mat,
    rand_reconstructible_nds, rand_subsystem, rand_wellposed_scm,
)
from ndscope.fixtures import PHI0, PHI_DIFF, PHI_EQUIV, demo_nds
from ndscope.model import (
    NdsDefinition, NotWellPosed, SCMatrix, SubsystemRealization,
    check_well_posed, tfm_equal,
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

    @pytest.mark.parametrize("name,row,change", [
        ("B_hat", 1, lambda r: r + (F(1),)), ("D_hat", 1, lambda r: r[:-1]),
        ("A_hat", 3, lambda r: r[:-1]), ("C_hat", 1, lambda r: r + r)])
    def test_every_row_shape_checked(self, name, row, change):
        nds = demo_nds()
        model = lump(nds, PHI0)
        rows = list(getattr(model, name))
        rows[row] = change(rows[row])
        bad = LumpedModel(**{**model.__dict__, name: tuple(rows)})
        with pytest.raises(ShapeError, match=f"lumped {name[0]} must be"):
            check_consistency(nds, bad)

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

    @pytest.mark.parametrize("zeroed", [("B_xv", "D_yv"), ("C_zx", "D_zu")],
                             ids=["K-not-FCR", "L-not-FRR"])
    def test_gram_solves_decide_reconstructibility(self, monkeypatch,
                                                   zeroed):
        # the K_i^T K_i and L_j L_j^T solves decide it; the rank test of
        # check_reconstructible is not run again
        def forbidden(*args):
            raise AssertionError("check_reconstructible ran")
        monkeypatch.setattr(recon, "check_reconstructible", forbidden)
        sub = demo_nds().subsystems[0]
        bad = dataclasses.replace(sub, **{
            name: tuple(tuple(F(0) for _ in row) for row in getattr(sub, name))
            for name in zeroed})
        nds = NdsDefinition(subsystems=(bad,))
        model = lump(nds, SCMatrix.zero(2, 1))
        with pytest.raises(NotReconstructible):
            check_consistency(nds, model)
        # still before the lumped-E check
        wrong = LumpedModel(**{**model.__dict__, "E_hat": rm.freeze(
            rm.scale(rm.identity(len(model.E_hat)), F(2)))})
        with pytest.raises(NotReconstructible):
            recover_scm(nds, wrong)
        # and a reconstructible network passes without it
        nds = demo_nds()
        assert check_consistency(nds, lump(nds, PHI0)).consistent


def scalar_loop_nds():
    """One subsystem with D_zv = 1, K = col{1, 0} FCR and L = [1 0] FRR."""
    one, zero = ((F(1),),), ((F(0),),)
    sub = SubsystemRealization(
        E=one, A_xx=((F(-1),),), B_xv=one, B_xu=one, C_zx=one, C_yx=one,
        D_zv=one, D_zu=zero, D_yv=zero, D_yu=zero)
    return NdsDefinition(subsystems=(sub,))


def dense_k_l(nds):
    return (rm.vstack(nds.block("B_xv"), nds.block("D_yv")),
            rm.hstack(nds.block("C_zx"), nds.block("D_zu")))


def model_with_deviation(nds, dev):
    """Lumped model that deviates from the Phi = 0 model by ``dev``."""
    base = rm.vstack(rm.hstack(nds.block("A_xx"), nds.block("B_xu")),
                     rm.hstack(nds.block("C_yx"), nds.block("D_yu")))
    full = rm.add(base, dev)
    m_x = nds.m_x
    return LumpedModel(
        E_hat=rm.freeze(nds.block("E")),
        A_hat=rm.freeze([row[:m_x] for row in full[:m_x]]),
        B_hat=rm.freeze([row[m_x:] for row in full[:m_x]]),
        C_hat=rm.freeze([row[:m_x] for row in full[m_x:]]),
        D_hat=rm.freeze([row[m_x:] for row in full[m_x:]]))


def model_with_h_m(nds, h):
    """Lumped model whose deviation from the Phi = 0 model is K h L, so
    that check_consistency finds H_m = h."""
    k, latch = dense_k_l(nds)
    return model_with_deviation(nds, rm.matmul(rm.matmul(k, h), latch))


class TestRecoveryMatrix:
    """W = I + H_m D_zv.  A left null vector y of W has y = -y H_m D_zv,
    so cond_hm (y H_m = 0) forces y = 0: cond_hm holds iff W is
    nonsingular."""

    def test_singular_w_fails_cond_hm(self):
        nds = scalar_loop_nds()
        model = model_with_h_m(nds, [[F(-1)]])      # W = 1 - 1 = 0
        rep = check_consistency(nds, model)
        assert rep.H_m == [[F(-1)]]
        assert rep.cond_left and rep.cond_right
        assert not rep.cond_hm and not rep.recovery_unique
        assert not rep.consistent
        with pytest.raises(Inconsistent):
            recover_scm(nds, model)

    def test_nonsingular_w_recovers(self):
        # H_m = 1/2 is Pi = (1 - Phi)^-1 Phi at Phi = 1/3
        nds = scalar_loop_nds()
        model = model_with_h_m(nds, [[F(1, 2)]])
        assert model == lump(nds, SCMatrix.from_rows([["1/3"]]))
        rep = check_consistency(nds, model)
        assert rep.cond_hm and rep.recovery_unique and rep.consistent
        assert recover_scm(nds, model).entries == ((F(1, 3),),)

    def test_two_by_two_w(self):
        # the demo's first subsystem: D_zv = [0 -1], so
        # W = [[1, -h_1], [0, 1 - h_2]] is singular iff h_2 = 1
        nds = NdsDefinition(subsystems=(demo_nds().subsystems[0],))
        for h, singular in (([[F(0)], [F(1)]], True),
                            ([[F(5, 2)], [F(1)]], True),
                            ([[F(3)], [F(-2)]], False)):
            rep = check_consistency(nds, model_with_h_m(nds, h))
            assert rep.H_m == h
            assert rep.cond_hm == rep.recovery_unique == (not singular)


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


def rand_recovery_nds(rng):
    """Reconstructible NDS of one to four subsystems: n_u or n_y may be
    0, E may be singular and n_v, n_z are drawn apart."""
    for _ in range(128):
        subs = []
        for _ in range(rng.randint(1, 4)):
            n_x = rng.randint(1, 4)
            subs.append(rand_subsystem(
                rng, n_x, rng.randint(1, 3), rng.randint(0, 2),
                rng.randint(1, 3), rng.randint(0, 2), allow_singular_e=True))
        nds = NdsDefinition(subsystems=tuple(subs))
        if check_reconstructible(nds).reconstructible:
            return nds
    raise RuntimeError("could not draw a reconstructible NDS")


def outer(col, row):
    return [[x * y for y in row] for x in col]


def combination(rng, vectors, length):
    """Random nonzero combination of ``vectors``, or None if there are
    none."""
    if not vectors:
        return None
    out = [F(0)] * length
    for v in vectors:
        c = F(rng.randint(1, 5), rng.randint(1, 3))
        out = [a + c * b for a, b in zip(out, v)]
    return out


def singular_w_h_m(rng, nds):
    """H_m with W = I + H_m D_zv singular: for q = D_zv w != 0,
    H_m = h - (h q + w) q^T / q^T q maps q to -w, so W w = 0."""
    d_zv = nds.block("D_zv")
    for _ in range(16):
        w = [F(rng.randint(-3, 3)) for _ in range(nds.m_v)]
        q = [row[0] for row in rm.matmul(d_zv, [[x] for x in w])]
        qq = sum(x * x for x in q)
        if qq:
            break
    else:
        return None
    h = [list(row) for row in rand_mat(rng, nds.m_v, nds.m_z)]
    hq = [sum(a * b for a, b in zip(row, q)) for row in h]
    return rm.sub(h, outer([(a + b) / qq for a, b in zip(hq, w)], q))


class TestDenseOracle:
    """The block route against the dense one (helpers.dense_consistency):
    exactly equal H_m, flags and Phi."""

    def check(self, nds, model):
        h_m, left, right, hm, unique, phi = dense_consistency(nds, model)
        rep = check_consistency(nds, model)
        assert rep.H_m == h_m
        assert (rep.cond_left, rep.cond_right, rep.cond_hm,
                rep.recovery_unique) == (left, right, hm, unique)
        if phi is None:
            assert not rep.consistent
            with pytest.raises(Inconsistent):
                recover_scm(nds, model)
        else:
            assert rep.consistent
            assert recover_scm(nds, model).as_lists() == phi
        return rep

    def test_seeded_differential(self):
        rng = random.Random(2024)
        seen = Counter()
        for _ in range(40):
            nds = rand_recovery_nds(rng)
            subs = nds.subsystems
            seen["n_u = 0"] += any(s.n_u == 0 for s in subs)
            seen["n_y = 0"] += any(s.n_y == 0 for s in subs)
            seen["singular E"] += any(rm.rank(s.E) < s.n_x for s in subs)
            seen["n_v != n_z"] += any(s.n_v != s.n_z for s in subs)
            k, latch = dense_k_l(nds)
            dev = rm.matmul(rm.matmul(k, rand_mat(rng, nds.m_v, nds.m_z)),
                            latch)
            rows, cols = len(dev), len(dev[0])
            models = {"K h L": dev}
            y = combination(rng, rm.left_null_space(k, cols=nds.m_v), rows)
            if y is not None:
                models["K_perp"] = rm.add(dev, outer(
                    y, [F(rng.randint(-2, 2)) for _ in range(cols)]))
            l_perp = rm.transpose(rm.null_space(latch), cols=0)
            x = combination(rng, l_perp, cols)
            if x is not None:
                models["L_perp"] = rm.add(dev, outer(
                    [F(rng.randint(-2, 2)) for _ in range(rows)], x))
            h = singular_w_h_m(rng, nds)
            if h is not None:
                models["singular W"] = rm.matmul(rm.matmul(k, h), latch)
            one = [row[:] for row in dev]
            one[rng.randrange(rows)][rng.randrange(cols)] += F(1, 3)
            models["one entry"] = one
            for kind, d in models.items():
                rep = self.check(nds, model_with_deviation(nds, d))
                seen[kind, rep.consistent] += 1
                if kind == "singular W":
                    assert rep.cond_left and rep.cond_right
                    assert not rep.cond_hm
        for key in ("n_u = 0", "n_y = 0", "singular E", "n_v != n_z",
                    ("K h L", True), ("K_perp", False), ("L_perp", False),
                    ("singular W", False), ("one entry", False)):
            assert seen[key] >= 3, (key, seen)


class TestDenseLump:
    """lump on int blocks against the dense field route
    (helpers.dense_lump): equal models, and Fraction entries only."""

    def test_seeded_differential(self):
        rng = random.Random(415)
        seen = Counter()
        for trial in range(40):
            nds = NdsDefinition(subsystems=tuple(
                rand_subsystem(rng, rng.randint(1, 4), rng.randint(1, 3),
                               rng.randint(0, 2), rng.randint(1, 3),
                               rng.randint(0, 2), allow_singular_e=True)
                for _ in range(rng.randint(1, 4))))
            subs = nds.subsystems
            seen["n_u = 0"] += any(s.n_u == 0 for s in subs)
            seen["n_y = 0"] += any(s.n_y == 0 for s in subs)
            seen["singular E"] += any(rm.rank(s.E) < s.n_x for s in subs)
            seen["n_v != n_z"] += any(s.n_v != s.n_z for s in subs)
            if trial % 4 == 0:
                seen["2^40 denominators"] += 1
                entries = [[F(rng.randint(-2 ** 50, 2 ** 50),
                              2 ** 40 + rng.randint(1, 99))
                            for _ in range(nds.m_z)] for _ in range(nds.m_v)]
            else:
                entries = rand_mat(rng, nds.m_v, nds.m_z)
            phi = SCMatrix(rm.freeze(entries))
            try:
                want = dense_lump(nds, phi)
            except NotWellPosed:
                seen["not well posed"] += 1
                with pytest.raises(NotWellPosed):
                    lump(nds, phi)
                continue
            got = lump(nds, phi)
            assert got == want
            for name in ("E_hat", "A_hat", "B_hat", "C_hat", "D_hat"):
                assert all(type(x) is F for row in getattr(got, name)
                           for x in row)
        for key in ("n_u = 0", "n_y = 0", "singular E", "n_v != n_z",
                    "2^40 denominators"):
            assert seen[key] >= 3, (key, seen)

    def test_zero_u_and_y_ports(self):
        # m_u = 0 and m_y = 0: B and D have no columns, C and D no rows
        rng = random.Random(8)
        nds = NdsDefinition(subsystems=tuple(
            rand_subsystem(rng, 2, 1, 0, 1, 0) for _ in range(2)))
        phi = SCMatrix(rm.freeze(rand_mat(rng, 2, 2)))
        got = lump(nds, phi)
        assert got == dense_lump(nds, phi)
        assert got.B_hat == ((),) * nds.m_x
        assert got.C_hat == got.D_hat == ()


def variant0_network(rng, n_subs):
    """Reconstructible, well-posed network of n_subs subsystems in the
    shapes of the benchmark's variant 0 (n_x = 4, n_u = 1, n_v = n_z and
    n_y of one or two), and its SCM."""
    for _ in range(64):
        nds = NdsDefinition(subsystems=tuple(
            rand_subsystem(rng, 4, 1 + j % 2, 1, 1 + j % 2,
                           1 + 2 * j // 3 % 2)
            for j in range(n_subs)))
        if not check_reconstructible(nds).reconstructible:
            continue
        for _ in range(16):
            phi = SCMatrix(rm.freeze(rand_mat(rng, nds.m_v, nds.m_z)))
            if check_well_posed(nds, phi):
                return nds, phi
    raise RuntimeError("could not draw a variant-0 network")


class TestBlockScaling:
    def test_recover_scm_one_pass_no_inverse_block_null_spaces(
            self, monkeypatch):
        nds, phi = variant0_network(random.Random(3), 4)
        model = lump(nds, phi)
        passes, inverses, null_inputs = [], [], []

        def counted(log, fn, arg=False):
            def wrapper(*args, **kwargs):
                log.append((len(args[0]), len(args[0][0])) if arg else 1)
                return fn(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(recon, "_consistency",
                            counted(passes, recon._consistency))
        monkeypatch.setattr(rm, "inv", counted(inverses, rm.inv))
        # left_null_space calls null_space on the transpose
        for name in ("null_space", "left_null_space"):
            monkeypatch.setattr(rm, name,
                                counted(null_inputs, getattr(rm, name), True))
        assert recover_scm(nds, model).entries == phi.entries
        assert (len(passes), len(inverses)) == (1, 0)
        blocks = set()
        for s in nds.subsystems:
            k = (s.n_x + s.n_y, s.n_v)
            blocks |= {k, k[::-1], (s.n_z, s.n_x + s.n_u)}
        assert null_inputs and set(null_inputs) <= blocks

    def test_deviation_rows_cleared_once(self, monkeypatch):
        # the full-size E_d is cleared once per consistency pass, not
        # once per block product
        nds, phi = variant0_network(random.Random(3), 4)
        model = lump(nds, phi)
        rows = []
        monkeypatch.setattr(rm, "_cleared", lambda m, _f=rm._cleared:
                            rows.append(len(m)) or _f(m))
        report = recon._consistency(nds, model)[0]
        assert report.consistent
        assert rows.count(nds.m_x + nds.m_y) == 1

    def test_round_trip_n16(self):
        nds, phi = variant0_network(random.Random(16), 16)
        assert nds.m_x == 64
        model = lump(nds, phi)
        assert check_consistency(nds, model).consistent
        assert recover_scm(nds, model).entries == phi.entries

    def test_scm_beyond_lift_bound_round_trips(self, monkeypatch):
        # entries with 2^40 denominators exceed the rational lift of
        # ratmat.solve_certified, which falls back to ratmat.solve: one
        # solve per K_i^+ and L_j^+, and one for Phi
        rng = random.Random(11)
        nds, _ = variant0_network(rng, 3)
        big = [[F(rng.randint(-2 ** 50, 2 ** 50), 2 ** 40 + rng.randint(1, 99))
                for _ in range(nds.m_z)] for _ in range(nds.m_v)]
        phi = SCMatrix(rm.freeze(big))
        model = lump(nds, phi)
        solves = []
        monkeypatch.setattr(rm, "solve",
                            lambda a, b, _f=rm.solve: solves.append(1) or
                            _f(a, b))
        assert recover_scm(nds, model).entries == phi.entries
        assert len(solves) == 2 * nds.n + 1
