"""Build the stored inputs and references the benchmark checks against.

    PYTHONPATH=src python3 perfbench/reference.py ident   # data/ident_pool.json
    PYTHONPATH=src python3 perfbench/reference.py sweep   # data/sweep_reference.json

``ident`` draws the ident-ladder pool: for every N = 2..6, dense random
a3 networks (distinct subsystems, dense well-posed SCMs) and open chains
of the demo subsystem with sparse SCMs, plus 2-subsystem a2 and dual-a3
instances.  Draws are filtered only with the exact public predicates
classify_case, check_well_posed and check_nds_regular.  The verdict,
null basis and stacked degree of each instance are stored after the
verify_region_by_tfm oracle (an independent exact nds_tfm route) has
passed on it, for every instance with N <= ORACLE_MAX_N; larger ones
are marked as not oracle-checked.

``sweep`` runs tau_sweep over the full 0.1 grid (0..20) of the four
paper directions on the demo model, exactly as ``ndscope sweep`` does,
and stores skip flags, skip reasons and d_T, d_F, d_S of all 804 rows.

Rebuild both files only when the program's exact outputs are meant to
change; the benchmark fails every op whose output differs from them.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction

import workloads as wl

# instances per (slot, N) of the stored pool; the ident-ladder op pool
# takes the first few of each (workloads.IDENT_PICK).  Dense N = 6
# instances cost 2.5-10 s each (stacked degree 34-79), so that slot holds
# the first three.
POOL_SIZE = {"default": 6, "dense-N6": 3}
ORACLE_MAX_N = 4
# (kind, N) slots of the pool: dense random a3 networks and open chains of
# the demo subsystem for every ladder N, plus small a2 and dual-a3 cases
IDENT_SLOTS = ([("dense", n) for n in wl.LADDER_N]
               + [("chain", n) for n in wl.LADDER_N]
               + [("a2", 2), ("dual_a3", 2)])


def _dense(nd, rng, n):
    for _ in range(256):
        subs = [wl.rand_subsystem(rng, 2, 2, 1, 1, 1) for _ in range(n)]
        nds, _, _ = nd.parse_model(json.dumps(wl.model_doc(subs, None)))
        if nd.classify_case(nds).kind != "a3":
            continue
        for _ in range(32):
            scm = wl.rand_rows(rng, nds.m_v, nds.m_z)
            phi = nd.SCMatrix.from_rows(scm)
            if nd.check_well_posed(nds, phi) and nd.check_nds_regular(nds, phi):
                return wl.model_doc(subs, scm)
    raise RuntimeError("no dense a3 draw")


def _chain(nd, rng, n):
    from ndscope import fixtures
    sub = fixtures.demo_model_json()["subsystems"][0]
    scm = [["0"] * n for _ in range(2 * n)]
    for k in range(n - 1):
        w = Fraction(rng.choice((1, 2, 3, 5, 7)), rng.choice((1, 2, 4)))
        scm[2 * (k + 1)][k] = wl.frac_str(w * rng.choice((1, -1)))
    doc = wl.model_doc([sub] * n, scm)
    nds, phi, _ = nd.parse_model(json.dumps(doc))
    if not (nd.check_well_posed(nds, phi) and nd.check_nds_regular(nds, phi)):
        raise RuntimeError("chain draw is not well-posed")
    return doc


_SMALL_DIMS = {"a2": [(2, 1, 1, 2, 1), (2, 2, 1, 1, 1)],
               "dual_a3": [(2, 1, 1, 2, 1), (2, 1, 1, 2, 1)]}


def _small(nd, rng, kind):
    for _ in range(256):
        subs = [wl.rand_subsystem(rng, *d) for d in _SMALL_DIMS[kind]]
        nds, _, _ = nd.parse_model(json.dumps(wl.model_doc(subs, None)))
        if nd.classify_case(nds).kind != kind:
            continue
        for _ in range(32):
            scm = wl.rand_rows(rng, nds.m_v, nds.m_z)
            phi = nd.SCMatrix.from_rows(scm)
            if nd.check_well_posed(nds, phi) and nd.check_nds_regular(nds, phi):
                return wl.model_doc(subs, scm)
    raise RuntimeError(f"no {kind} draw")


def _expect(nd, doc, n, seed):
    nds, phi, _ = nd.parse_model(json.dumps(doc))
    t0 = time.perf_counter()
    rep = nd.check_identifiable_at(nds, phi)
    elapsed = time.perf_counter() - t0
    if rep.verdict == "not_identifiable":
        region = nd.undiff_region(rep, phi)
    else:
        region = nd.UndiffRegion(phi0=phi, basis=[[] for _ in range(phi.rows)],
                                 transposed=rep.transposed)
    oracle = None
    if n <= ORACLE_MAX_N:
        n_in = 2 if region.dim else 0
        if not nd.verify_region_by_tfm(nds, phi, region, n_in, 2, seed=seed):
            raise RuntimeError("verify_region_by_tfm rejected the verdict")
        oracle = f"verify_region_by_tfm(n_in={n_in}, n_out=2, seed={seed})"
    return {
        "case": rep.case.kind,
        "verdict": rep.verdict,
        "transposed": rep.transposed,
        "null_basis": wl.mat_strs(rep.null_basis)
        if rep.null_basis is not None else None,
        "dim": region.dim,
        "p": rep.stacked.p if rep.stacked is not None else None,
        "bits": wl.stacked_bits(rep.stacked),
        "verdict_s_at_build": round(elapsed, 4),
    }, oracle


def build_ident():
    import ndscope as nd
    instances = []
    for slot, n in IDENT_SLOTS:
        size = POOL_SIZE.get(f"{slot}-N{n}", POOL_SIZE["default"])
        for idx in range(size):
            seed = 1000 * n + idx + {"dense": 0, "chain": 100, "a2": 200,
                                     "dual_a3": 300}[slot]
            rng = random.Random(seed)
            if slot == "dense":
                doc = _dense(nd, rng, n)
            elif slot == "chain":
                doc = _chain(nd, rng, n)
            else:
                doc = _small(nd, rng, slot)
            exp, oracle = _expect(nd, doc, n, seed)
            iid = f"{slot}-N{n}-{idx}"
            print(iid, exp["verdict"], "p=", exp["p"], "bits=", exp["bits"],
                  "dim=", exp["dim"], f"{exp['verdict_s_at_build']:.2f}s",
                  "oracle" if oracle else "", file=sys.stderr, flush=True)
            instances.append({"id": iid, "slot": slot, "N": n, "seed": seed,
                              "model": doc, "expect": exp, "oracle": oracle})
    with open(wl.IDENT_POOL, "w", encoding="utf-8") as fh:
        json.dump({"pool_size": POOL_SIZE, "oracle_max_n": ORACLE_MAX_N,
                   "instances": instances}, fh, indent=1)
        fh.write("\n")


def build_sweep():
    import ndscope as nd
    from ndscope import fixtures
    nds, phi0, _ = nd.parse_model(json.dumps(fixtures.demo_model_json()))
    rep = nd.check_identifiable_at(nds, phi0)
    region = nd.undiff_region(rep, phi0)
    taus = [Fraction(i, 10) for i in range(wl.SWEEP_POINTS)]
    cfg = nd.SimConfig(T=1.0, M=1, seed=0)
    out = {}
    for k, d in enumerate(fixtures.SWEEP_DIRECTIONS, start=1):
        rows = nd.tau_sweep(nds, phi0, d, taus, cfg, region=region)
        out[str(k)] = [{"skipped": r.skipped, "reason": r.reason,
                        "d_T": r.d_T, "d_F": r.d_F, "d_S": r.d_S, "M": r.M}
                       for r in rows]
        print("direction", k, "skipped",
              [(float(r.tau), r.reason) for r in rows if r.skipped],
              file=sys.stderr, flush=True)
    with open(wl.SWEEP_REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"seed": 0, "grid": "0:0.1:20", "directions": out}, fh,
                  indent=1)
        fh.write("\n")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("what", choices=("ident", "sweep"))
    args = ap.parse_args()
    build_ident() if args.what == "ident" else build_sweep()
