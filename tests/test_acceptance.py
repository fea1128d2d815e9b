"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  The simulation sweep (criterion 7) runs at tau step 1.0 by
default; set NDSCOPE_FULL_SWEEP=1 for the full 0.1 grid.

Criterion 8 is expected to fail and is marked strict-xfail: exact
arithmetic shows the published spot value belongs to a grid sample that
the sweep's own stability rule excludes (see the companion facts test).
"""

import os
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

import ndscope.ratmat as rm
from helpers import (
    feedback_tfm, pencil_inverse_tfm, rand_nds, rand_polymat, rand_ratfunmat,
    rand_reconstructible_nds, rand_unimodular, rand_wellposed_scm,
    realization,
)
from ndscope.fixtures import (
    PHI0, PHI_DIFF, PHI_EQUIV, SWEEP_DIRECTIONS, demo_nds,
)
from ndscope.identifiability import (
    NOT_IDENTIFIABLE, build_xy_pencil_hat, check_identifiable_at,
    check_identifiable_augmented, check_identifiable_known_entries,
    check_identifiable_parameterized, stacked_u2, undiff_region,
)
from ndscope.model import (
    AffineConstraint, KnownEntries, SCMatrix, assemble_block_tfms,
    check_nds_regular, check_well_posed, nds_tfm, tfm_equal,
)
from ndscope.polymat import (
    Poly, PolyMat, RatFun, RatFunMat, is_coprime_right, proper_split,
    right_coprime_mfd, smith_form, smith_mcmillan,
)
from ndscope.reconstruction import (
    check_reconstructible, lump, lump_descriptor, lumped_tfm, recover_scm,
)
from ndscope.sim import (
    SimConfig, SingularE, choose_sampling, distance_freq, hinf_norm,
    is_stable, prbs, relative_error, simulate, stability_margins, stm,
    tau_sweep,
)


def report(number, ok, text):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status}: {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_1_identifiability_fixture():
    t0 = time.time()
    rep = check_identifiable_at(demo_nds(), PHI0)
    ok = (rep.verdict == NOT_IDENTIFIABLE
          and rep.null_basis == [[F(0)], [F(0)], [F(1)], [F(-2)]])
    elapsed = time.time() - t0
    report(1, ok and elapsed < 10.0,
           f"not identifiable at the reference SCM, kernel span (0,0,1,-2)"
           f" [{elapsed:.2f}s]")


def test_criterion_2_region_membership():
    rep = check_identifiable_at(demo_nds(), PHI0)
    region = undiff_region(rep, PHI0)
    ok = region.contains(PHI_EQUIV) and not region.contains(PHI_DIFF)
    report(2, ok, "equivalent SCM inside the region, distinct SCM outside")


def test_criterion_3_tfm_equivalence():
    t0 = time.time()
    nds = demo_nds()
    h0 = nds_tfm(nds, PHI0)
    ok = tfm_equal(h0, nds_tfm(nds, PHI_EQUIV)) \
        and not tfm_equal(h0, nds_tfm(nds, PHI_DIFF))
    elapsed = time.time() - t0
    report(3, ok and elapsed < 10.0,
           f"exact transfer matrix equality/inequality [{elapsed:.2f}s]")


def test_criterion_4_reconstructibility():
    rep = check_reconstructible(demo_nds())
    ok = rep.reconstructible and all(
        p["K_fcr"] and p["L_frr"] for p in rep.per_subsystem)
    report(4, ok, "per-subsystem K is FCR and L is FRR")


def test_criterion_5_round_trip_recovery():
    t0 = time.time()
    nds = demo_nds()
    ok = True
    for phi in (PHI0, PHI_EQUIV, PHI_DIFF):
        ok = ok and recover_scm(nds, lump(nds, phi)).entries == phi.entries
    rng = random.Random(2024)
    done = 0
    while done < 100:
        inst = rand_reconstructible_nds(rng, max_subs=3, max_state=3)
        try:
            phi = rand_wellposed_scm(rng, inst)
        except RuntimeError:
            continue
        got = recover_scm(inst, lump(inst, phi))
        ok = ok and got.entries == phi.entries
        done += 1
    elapsed = time.time() - t0
    report(5, ok and elapsed < 60.0,
           f"exact recovery for the three fixtures and 100 random "
           f"instances [{elapsed:.1f}s]")


def test_criterion_6_simulation_discrimination():
    t0 = time.time()
    nds = demo_nds()
    seed = 0
    a0 = stm(nds, PHI0)

    def pair_error(phi_other):
        a1 = stm(nds, phi_other)
        t, m = choose_sampling(stability_margins(a0), stability_margins(a1))
        u = prbs(seed, m, nds.m_u, 10.0)
        cfg = SimConfig(T=t, M=m, seed=seed)
        tr0 = simulate(realization(nds, PHI0), u, cfg)
        tr1 = simulate(realization(nds, phi_other), u, cfg)
        return float(np.nanmax(relative_error(tr0, tr1))), m

    err_equiv, m1 = pair_error(PHI_EQUIV)
    err_diff, m2 = pair_error(PHI_DIFF)
    ok = err_equiv <= 1e-6 and err_diff >= 10.0 and min(m1, m2) >= 10_000
    elapsed = time.time() - t0
    report(6, ok and elapsed < 120.0,
           f"relative error {err_equiv:.2e} (equivalent pair) vs "
           f"{err_diff:.1f} (distinct pair) at M >= 1e4 [{elapsed:.1f}s]")


def _sweep_grid():
    if os.environ.get("NDSCOPE_FULL_SWEEP"):
        step = F(1, 10)
    else:
        step = F(1)
    taus = []
    t = F(0)
    while t <= 20:
        taus.append(t)
        t += step
    return taus, step


def _single_peak_index(seq, slack=0.05):
    n = len(seq)
    for peak in range(n):
        if all(seq[i + 1] >= seq[i] * (1 - slack) for i in range(peak)) and \
           all(seq[i + 1] <= seq[i] * (1 + slack) for i in range(peak, n - 1)):
            return peak
    return None


def test_criterion_7_sweep_properties():
    t0 = time.time()
    nds = demo_nds()
    rep = check_identifiable_at(nds, PHI0)
    region = undiff_region(rep, PHI0)
    taus, step = _sweep_grid()
    budget = 1800.0 if os.environ.get("NDSCOPE_FULL_SWEEP") else 180.0
    ok_lin = ok_peak = ok_skip = True
    for k, direction in enumerate(SWEEP_DIRECTIONS, start=1):
        rows = tau_sweep(nds, PHI0, direction, taus, region=region, seed=0)
        # (a) d_S is linear in tau
        base = next((r for r in rows if not r.skipped and r.tau != 0), None)
        for r in rows:
            if r.skipped or r.tau == 0:
                continue
            want = float(r.tau / base.tau) * base.d_S
            if abs(r.d_S - want) > 1e-9 * max(1.0, abs(want)):
                ok_lin = False
        # (b) single-peak monotone relation between d_T and d_F
        kept = sorted((r.d_F, r.d_T) for r in rows if not r.skipped)
        if _single_peak_index([p[1] for p in kept]) is None:
            ok_peak = False
        # (c) skips are exactly the stability/regularity failures
        delta = rm.sub(direction.as_lists(), PHI0.as_lists())
        for r in rows:
            phi_tau = SCMatrix(rm.freeze(rm.add(
                PHI0.as_lists(), rm.scale(delta, r.tau))))
            healthy = check_nds_regular(nds, phi_tau) \
                and check_well_posed(nds, phi_tau)
            if healthy:
                try:
                    healthy = is_stable(stm(nds, phi_tau), nds.time_domain)
                except SingularE:
                    healthy = False
            if r.skipped == healthy:
                ok_skip = False
    elapsed = time.time() - t0
    report(7, ok_lin and ok_peak and ok_skip and elapsed < budget,
           f"d_S linear (1e-9), d_T single-peaked in d_F (5%), skips exact "
           f"at step {float(step):g} [{elapsed:.0f}s]")


@pytest.mark.xfail(
    strict=True,
    reason="not attainable on the stated grid: the near-graze sample "
           "tau = 1.1 has an exact real eigenvalue +6.37e-5 and is "
           "excluded by the stability skip rule, leaving max d_F = 2.74; "
           "the published significand 1.7920 appears at the stable "
           "off-grid point tau = 1.11 with value 1792.04 (ten times the "
           "published exponent).  See the facts test below.")
def test_criterion_8_frequency_distance_spot_value():
    nds = demo_nds()
    delta = rm.sub(SWEEP_DIRECTIONS[0].as_lists(), PHI0.as_lists())
    best = -1.0
    for k in range(0, 201):
        tau = F(k, 10)
        phi = SCMatrix(rm.freeze(rm.add(PHI0.as_lists(),
                                        rm.scale(delta, tau))))
        if not check_nds_regular(nds, phi) or not check_well_posed(nds, phi):
            continue
        try:
            a = stm(nds, phi)
        except SingularE:
            continue
        if not is_stable(a, nds.time_domain):
            continue
        best = max(best, distance_freq(nds, phi, PHI0))
    ok = abs(best - 179.20) <= 0.01 * 179.20
    report(8, ok,
           f"max d_F over the retained 0.1 grid is {best:.4f}, "
           f"published value 1.7920e2")


def test_criterion_8_facts_behind_the_spot_value():
    """Pin the exact-arithmetic facts replacing the unattainable spot value."""
    nds = demo_nds()
    delta = rm.sub(SWEEP_DIRECTIONS[0].as_lists(), PHI0.as_lists())

    def char_poly(tau):
        phi = SCMatrix(rm.freeze(rm.add(PHI0.as_lists(),
                                        rm.scale(delta, tau))))
        a = rm.thaw(lump(nds, phi).A_hat)
        n = len(a)
        t = rm.identity(n)
        coeffs = [F(1)]
        for k in range(1, n + 1):
            s = rm.matmul(a, t)
            c = -sum(s[i][i] for i in range(n)) / k
            coeffs.append(c)
            t = rm.add(s, rm.scale(rm.identity(n), c))
        return Poly(list(reversed(coeffs)))

    def root_near_zero(p, lo=F(-1, 500), hi=F(1, 500)):
        assert (p(lo) > 0) != (p(hi) > 0)
        for _ in range(80):
            mid = (lo + hi) / 2
            if (p(lo) > 0) == (p(mid) > 0):
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    # the tau = 1.1 grid sample is genuinely unstable
    r11 = root_near_zero(char_poly(F(11, 10)))
    assert r11 > 0
    assert abs(float(r11) - 6.3674e-5) < 1e-8
    # the stable near-graze point tau = 1.11 reproduces the published
    # significand with the exponent shifted by one
    r111 = root_near_zero(char_poly(F(111, 100)))
    assert r111 < 0
    from ndscope.sim import exact_tfm
    phi_g = SCMatrix(rm.freeze(rm.add(PHI0.as_lists(),
                                      rm.scale(delta, F(111, 100)))))
    diff = exact_tfm(nds, phi_g) - exact_tfm(nds, PHI0)
    sup = hinf_norm(diff)
    assert abs(sup - 1792.04) <= 0.01 * 1792.04
    assert abs(sup / 10.0 - 179.204) <= 0.01 * 179.204
    print(f"[criterion  8] note: tau=1.1 unstable (root {float(r11):.3e}), "
          f"tau=1.11 stable with sup sigma = {sup:.2f} = 10 x 1.7920e2")


def test_criterion_9_property_suites():
    t0 = time.time()
    rng = random.Random(909)

    # Smith reconstruction, unimodularity, divisibility chains
    for _ in range(50):
        m = rand_polymat(rng, rng.randint(1, 3), rng.randint(1, 3), 2)
        sf = smith_form(m)
        assert sf.U @ sf.diagonal(m.rows, m.cols) @ sf.V.transpose() == m
        assert sf.U @ sf.U_inv == PolyMat.identity(m.rows)
        assert sf.V @ sf.V_inv == PolyMat.identity(m.cols)
        for a, b in zip(sf.invariant_factors, sf.invariant_factors[1:]):
            assert a.divides(b)

    # Smith-McMillan reconstruction and chains
    for _ in range(50):
        g = rand_ratfunmat(rng, rng.randint(1, 2), rng.randint(1, 2))
        sm = smith_mcmillan(g)
        assert sm.U.to_ratfun() @ sm.diagonal(g.rows, g.cols) \
            @ sm.V.transpose().to_ratfun() == g
        for a, b in zip(sm.kappas, sm.kappas[1:]):
            assert a.num.divides(b.num) and b.den.divides(a.den)

    # MFD coprimeness and proper-split strictness
    for _ in range(50):
        g = rand_ratfunmat(rng, rng.randint(1, 2), rng.randint(1, 2),
                           num_deg=1)
        mfd = right_coprime_mfd(g)
        assert is_coprime_right(mfd.N, mfd.Den)
        assert mfd.N.to_ratfun() @ mfd.Den.to_ratfun().inverse() == g
        sp = proper_split(g)
        strict = sp.Q.to_ratfun() @ sp.Omega.to_ratfun().inverse()
        assert sp.R.to_ratfun() + strict == g
        assert all(e.is_strictly_proper
                   for row in strict.entries for e in row)

    # factorization-choice invariance of the identifiability verdict
    fixture = demo_nds()
    base = stacked_u2(build_xy_pencil_hat(fixture), PHI0)
    for _ in range(50):
        twists = [(rand_unimodular(rng, 2, ops=3),
                   rand_unimodular(rng, 1, ops=3))
                  for _ in fixture.subsystems]
        st = stacked_u2(build_xy_pencil_hat(fixture, twists=twists), PHI0)
        assert st.null_basis() == base.null_basis()

    # determinant factorization and transfer matrix path equality
    done = 0
    rng2 = random.Random(910)
    while done < 50:
        inst = rand_nds(rng2, rng2.choice(["a3", "both_full"]),
                        allow_singular_e=True)
        try:
            phi = rand_wellposed_scm(rng2, inst)
        except RuntimeError:
            continue
        lifted = lump_descriptor(inst, phi)
        n = len(lifted.E_hat)
        pencil = PolyMat(n, n, [
            [Poly((-lifted.A_hat[i][j], lifted.E_hat[i][j]))
             for j in range(n)] for i in range(n)])
        tfms = assemble_block_tfms(inst)
        w = RatFunMat.identity(inst.m_z) - \
            (tfms.G_zv @ RatFunMat.from_scalars(phi.as_lists()))
        det_xx = Poly.const(1)
        for sub in inst.subsystems:
            det_xx = det_xx * sub.pencil().det()
        assert RatFun(pencil.det()) == RatFun(det_xx) * w.det()
        h = nds_tfm(inst, phi)
        assert tfm_equal(h, feedback_tfm(inst, phi))
        assert tfm_equal(h, pencil_inverse_tfm(
            lifted.E_hat, lifted.A_hat, lifted.B_hat, lifted.C_hat,
            lifted.D_hat))
        assert tfm_equal(h, lumped_tfm(lump(inst, phi)))
        done += 1

    elapsed = time.time() - t0
    report(9, elapsed < 300.0,
           f"five property families, 50 seeded instances each, exact "
           f"assertions [{elapsed:.0f}s]")


def test_criterion_10_constrained_consistency():
    nds = demo_nds()
    base_verdict = check_identifiable_at(nds, PHI0).verdict

    empty = KnownEntries(J=(), I={})
    ok = check_identifiable_known_entries(nds, PHI0, empty).verdict \
        == base_verdict

    dirs = []
    for i in range(4):
        for j in range(2):
            rows = [["0", "0"] for _ in range(4)]
            rows[i][j] = "1"
            dirs.append(SCMatrix.from_rows(rows))
    affine = AffineConstraint(base=PHI0, directions=tuple(dirs))
    ok = ok and check_identifiable_parameterized(
        nds, affine, tuple(F(0) for _ in dirs)).verdict == base_verdict

    rng = random.Random(777)
    done = 0
    while done < 20:
        inst = rand_nds(rng, "a2")
        try:
            phi = rand_wellposed_scm(rng, inst)
        except RuntimeError:
            continue
        direct = check_identifiable_at(inst, phi).verdict
        aug = check_identifiable_augmented(inst, phi, seed=done).verdict
        ok = ok and aug == direct
        done += 1
    report(10, ok,
           "empty known-entries, full affine basis and augmented pencil "
           "all reproduce the direct verdict")
