"""Command-line front end.

Commands: check-identifiability, region, reconstruct, lump, simulate,
sweep, reproduce-paper.  Reports are JSON on stdout; file artifacts
(CSV, SVG, JSON) go to --out-dir and are written atomically.  Exit
codes: 0 success, 1 negative verdict under --strict (or a failed
reproduction check), 2 input error, 3 numerical failure or a sample
count above ``sim.MAX_SAMPLES``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from fractions import Fraction

import numpy as np

from . import fixtures, ratmat, svgplot
from .identifiability import (
    IDENTIFIABLE, NOT_IDENTIFIABLE, UndiffRegion, check_identifiable_at,
    check_identifiable_known_entries, check_identifiable_parameterized,
    undiff_region,
)
from .model import (
    KnownEntries, SCMatrix, SchemaError, _index, _json_doc, _parse_matrix,
    _rows, nds_tfm, parse_constraints, parse_model, parse_rat, tfm_equal,
)
from .polymat import InputError
from .reconstruction import (
    LUMPED_SHAPES, LumpedModel, check_and_recover, check_reconstructible,
    lump, recover_scm,
)
from .sim import (
    NoConvergence, SimConfig, TooManySamples, choose_sampling, distance_time,
    freq_response, hinf_norm, prbs, relative_error, screen, sigma_max,
    simulate, tau_sweep,
)

DEFAULT_SEED = 0
# longest accepted tau grid: 500 times the paper's 201 points.  A sweep
# row costs tens of milliseconds, so such a grid already runs for hours
# per direction; a longer one is almost surely a mistyped step, and is
# refused before any point is built.
MAX_TAU_POINTS = 100_000

INPUT_ERRORS = (InputError, OSError)


def frac_str(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def mat_strs(m):
    return [[frac_str(x) for x in row] for row in m]


def atomic_write(path, text: str):
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".ndscope-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    return atomic_write(path, "\n".join(lines) + "\n")


def fmt_float(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float) and math.isnan(x):
        return ""
    return repr(float(x))


def default_seed() -> int:
    env = os.environ.get("NDSCOPE_SEED")
    return _index(env, "NDSCOPE_SEED") if env else DEFAULT_SEED


def _load_json(path, what):
    with open(path, "rb") as fh:
        return _json_doc(fh.read(), what)


def load_model(path):
    with open(path, "rb") as fh:
        return parse_model(fh.read())


def load_scm(text_or_path, nds) -> SCMatrix:
    if os.path.exists(text_or_path):
        phi = SCMatrix.from_rows(_load_json(text_or_path, "SCM file"))
    else:
        phi = SCMatrix.parse_inline(text_or_path)
    phi.check_shape(nds)
    return phi


def resolve_scm(text, nds, embedded, flag="--scm") -> SCMatrix:
    if text:
        return load_scm(text, nds)
    if embedded is not None:
        return embedded
    raise SchemaError(f"no SCM: pass {flag} or embed one in the model file")


def emit(report: dict) -> None:
    sys.stdout.write(json.dumps(report, indent=2) + "\n")


def _report(command: str, result: dict, artifacts=()) -> dict:
    return {"command": command, "ok": True, "error": None,
            "result": result, "artifacts": list(artifacts)}


def _region_payload(report, phi0):
    if report.verdict != NOT_IDENTIFIABLE or report.null_basis is None:
        return None
    return {
        "transposed": report.transposed,
        "basis": mat_strs(report.null_basis),
    }


def cmd_check_identifiability(args) -> int:
    nds, embedded, constraint = load_model(args.model)
    phi0 = resolve_scm(args.scm, nds, embedded)
    if args.constraints:
        constraint = parse_constraints(
            _load_json(args.constraints, "constraints file"), nds)
    result: dict = {}
    if constraint is None:
        rep = check_identifiable_at(nds, phi0)
        result["mode"] = "unconstrained"
    elif isinstance(constraint, KnownEntries):
        rep = check_identifiable_known_entries(nds, phi0, constraint)
        result["mode"] = "known_entries"
        result["per_column"] = {
            str(j): {"kept": info["kept"], "fcr": info["fcr"],
                     "null_basis": mat_strs(info["null_basis"])}
            for j, info in rep.per_column.items()}
    else:
        theta0 = constraint.theta if constraint.theta else \
            tuple(Fraction(0) for _ in range(constraint.q))
        rep = check_identifiable_parameterized(nds, constraint, theta0)
        result["mode"] = "affine"
        if rep.theta_null_basis is not None:
            result["theta_null_basis"] = mat_strs(rep.theta_null_basis)
    result["case"] = rep.case.kind
    result["verdict"] = rep.verdict
    result["warnings"] = list(rep.warnings)
    result["null_basis"] = mat_strs(rep.null_basis) \
        if rep.null_basis is not None else None
    result["region"] = _region_payload(rep, phi0)
    emit(_report("check-identifiability", result))
    if args.strict and not rep.identifiable:
        return 1
    return 0


def cmd_region(args) -> int:
    nds, embedded, _ = load_model(args.model)
    phi0 = resolve_scm(args.scm, nds, embedded)
    rep = check_identifiable_at(nds, phi0)
    seed = args.seed if args.seed is not None else default_seed()
    if rep.verdict != NOT_IDENTIFIABLE:
        emit(_report("region", {
            "verdict": rep.verdict, "trivial": True, "basis": None,
            "samples": []}))
        return 1 if args.strict else 0
    region = undiff_region(rep, phi0)
    import random as _random
    rng = _random.Random(seed)
    samples = []
    h0 = nds_tfm(nds, phi0)
    gcols = phi0.rows if region.transposed else phi0.cols
    for _ in range(args.samples):
        gamma = [[Fraction(rng.randint(-24, 24), 8) for _ in range(gcols)]
                 for _ in range(region.dim)]
        member = region.member(gamma)
        samples.append({
            "scm": mat_strs(member.entries),
            "tfm_equal": tfm_equal(nds_tfm(nds, member), h0),
        })
    emit(_report("region", {
        "verdict": rep.verdict,
        "trivial": False,
        "transposed": region.transposed,
        "basis": mat_strs(region.basis),
        "samples": samples,
    }))
    return 0


def _load_lumped(path, nds) -> LumpedModel:
    doc = _load_json(path, "lumped model file")
    if not isinstance(doc, dict):
        raise SchemaError("lumped model file must be a JSON object")
    parsed = {}
    for key, (r, c) in LUMPED_SHAPES.items():
        if key not in doc:
            raise SchemaError(f"lumped model file is missing {key!r}")
        name = f"lumped {key}"
        parsed[key + "_hat"] = _parse_matrix(
            _rows(doc[key], name), nds.total(r), nds.total(c), name)
    return LumpedModel(E_hat=ratmat.freeze(nds.block("E")), **parsed)


def cmd_reconstruct(args) -> int:
    nds, _, _ = load_model(args.model)
    model = _load_lumped(args.lumped, nds)
    recon = check_reconstructible(nds)
    result = {
        "reconstructible": recon.reconstructible,
        "per_subsystem": [dict(p) for p in recon.per_subsystem],
        "consistent": None, "conditions": None, "scm": None,
    }
    exit_code = 0
    if recon.reconstructible:
        rep, scm = check_and_recover(nds, model)
        result["consistent"] = rep.consistent
        result["conditions"] = {
            "cond_left": rep.cond_left, "cond_right": rep.cond_right,
            "cond_hm": rep.cond_hm, "recovery_unique": rep.recovery_unique,
        }
        result["H_m"] = mat_strs(rep.H_m)
        if rep.consistent:
            result["scm"] = mat_strs(scm.entries)
        elif args.strict:
            exit_code = 1
    elif args.strict:
        exit_code = 1
    emit(_report("reconstruct", result))
    return exit_code


def cmd_lump(args) -> int:
    nds, embedded, _ = load_model(args.model)
    phi = resolve_scm(args.scm, nds, embedded)
    model = lump(nds, phi)
    payload = {
        "E": mat_strs(model.E_hat), "A": mat_strs(model.A_hat),
        "B": mat_strs(model.B_hat), "C": mat_strs(model.C_hat),
        "D": mat_strs(model.D_hat),
    }
    artifacts = []
    if args.out_dir:
        path = os.path.join(args.out_dir, "lumped.json")
        atomic_write(path, json.dumps(payload, indent=2) + "\n")
        artifacts.append(path)
    emit(_report("lump", {"lumped": payload}, artifacts))
    return 0


def _simulate_pair(nds, screens, seed):
    """(T, M, u, trajectories) of two passing screenings under one PRBS."""
    t, m = choose_sampling(*(s.margins for s in screens))
    u = prbs(seed, m, nds.m_u)
    cfg = SimConfig(T=t, M=m, seed=seed)
    return t, m, u, tuple(simulate(s.realization, u, cfg) for s in screens)


def cmd_simulate(args) -> int:
    nds, embedded, _ = load_model(args.model)
    phi_a = load_scm(args.scm_a, nds)
    phi_b = load_scm(args.scm_b, nds)
    seed = args.seed if args.seed is not None else default_seed()
    screens = tuple(screen(nds, phi).require(f"system {name}")
                    for name, phi in zip("ab", (phi_a, phi_b)))
    t, m, u, (tr_a, tr_b) = _simulate_pair(nds, screens, seed)
    err = relative_error(tr_a, tr_b)
    with np.errstate(invalid="ignore"):
        max_err = [float(np.nanmax(err[:, j])) if np.any(~np.isnan(err[:, j]))
                   else None for j in range(err.shape[1])]
    d_t = distance_time(tr_a, tr_b)
    # both SCMs passed the checks of distance_freq in the screening
    d_f = hinf_norm(screens[0].tfm - screens[1].tfm, nds.time_domain)
    artifacts = []
    out = args.out_dir or "."
    header = (["t"]
              + [f"u{j + 1}" for j in range(nds.m_u)]
              + [f"y_a{j + 1}" for j in range(nds.m_y)]
              + [f"y_b{j + 1}" for j in range(nds.m_y)]
              + [f"e{j + 1}" for j in range(nds.m_y)])
    table = np.column_stack((tr_a.times, u, tr_a.y, tr_b.y, err))
    rows = [[fmt_float(v) for v in row] for row in table]
    artifacts.append(write_csv(os.path.join(out, "traces.csv"), header, rows))
    metrics = {
        "T": t, "M": m, "seed": seed,
        "d_T": d_t, "d_F": d_f,
        "max_relative_error": max_err,
        "margins_a": screens[0].margins.__dict__,
        "margins_b": screens[1].margins.__dict__,
    }
    path = os.path.join(out, "metrics.json")
    atomic_write(path, json.dumps(metrics, indent=2) + "\n")
    artifacts.append(path)
    times = tr_a.times
    for j in range(nds.m_y):
        artifacts.append(svgplot.line_plot(
            os.path.join(out, f"outputs_y{j + 1}.svg"),
            [("system a", times, tr_a.y[:, j]),
             ("system b", times, tr_b.y[:, j])],
            title=f"external output {j + 1}", xlabel="time",
            ylabel=f"y{j + 1}"))
    artifacts.append(svgplot.line_plot(
        os.path.join(out, "relative_differences.svg"),
        [(f"channel {j + 1}", times, err[:, j]) for j in range(nds.m_y)],
        title="relative output differences", xlabel="time",
        ylabel="|y_b - y_a| / |y_a|", ylog=True))
    emit(_report("simulate", metrics, artifacts))
    return 0


def _parse_tau_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise SchemaError("tau grid must look like start:step:stop")
    start, step, stop = (parse_rat(p) for p in parts)
    if step <= 0:
        raise SchemaError("tau step must be positive")
    # exact rationals: start + k step for every k with the point <= stop
    count = max(0, math.floor((stop - start) / step) + 1)
    if count > MAX_TAU_POINTS:
        raise SchemaError(f"tau grid has {count} points; the limit is "
                          f"{MAX_TAU_POINTS}")
    return [start + k * step for k in range(count)]


def _sweep_one(packed):
    nds, phi0, direction, taus, seed, region = packed
    return tau_sweep(nds, phi0, direction, taus, region=region, seed=seed)


def _chunks(seq, n):
    """At most n slices of seq, and one (empty) slice of an empty seq."""
    size = max(1, -(-len(seq) // n))
    return [seq[i:i + size] for i in range(0, max(len(seq), 1), size)]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        return os.cpu_count() or 1


def cmd_sweep(args) -> int:
    nds, embedded, _ = load_model(args.model)
    phi0 = resolve_scm(args.scm0, nds, embedded, flag="--scm0")
    if args.directions == "paper":
        directions = list(fixtures.SWEEP_DIRECTIONS)
        if (phi0.rows, phi0.cols) != (4, 2):
            raise SchemaError("the bundled directions are 4x2")
    else:
        doc = _load_json(args.directions, "directions file")
        if not isinstance(doc, list):
            raise SchemaError("a directions file must hold a list of SCMs")
        directions = [SCMatrix.from_rows(m, "a direction") for m in doc]
        for d in directions:
            d.check_shape(nds)
    seed = args.seed if args.seed is not None else default_seed()
    taus = _parse_tau_grid(args.tau)
    rep = check_identifiable_at(nds, phi0)
    region = undiff_region(rep, phi0) if rep.verdict == NOT_IDENTIFIABLE \
        else UndiffRegion(phi0=phi0, basis=[[] for _ in range(phi0.rows)])
    jobs = max(args.jobs, 1)
    # rows are seed-deterministic per tau, so any split is safe
    per_dir = max(1, -(-jobs // len(directions)))
    tasks = [(k, (nds, phi0, d, chunk, seed, region))
             for k, d in enumerate(directions)
             for chunk in _chunks(taus, per_dir)]
    # the pool starts every worker at once: no more than there are tasks
    # or CPUs to run them
    workers = min(jobs, len(tasks), _usable_cpus())
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        # spawned workers load BLAS afresh with one thread each; forked
        # ones would keep the parent's threads and oversubscribe the CPUs
        blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        saved = {k: os.environ[k] for k in blas if k in os.environ}
        os.environ.update(dict.fromkeys(blas, "1"))
        try:
            with ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=multiprocessing.get_context("spawn")) as pool:
                results = list(pool.map(_sweep_one, [t for _, t in tasks]))
        finally:
            for k in blas:
                del os.environ[k]
            os.environ.update(saved)
    else:
        results = [_sweep_one(t) for _, t in tasks]
    all_rows = [[] for _ in directions]
    for (k, _), rows in zip(tasks, results):
        all_rows[k].extend(rows)
    out = args.out_dir or "."
    header = ["k", "tau", "d_T", "d_F", "d_S", "s_mr", "s_md", "skipped",
              "reason"]
    csv_rows = []
    for k, rows in enumerate(all_rows, start=1):
        for r in rows:
            csv_rows.append([
                str(k), fmt_float(r.tau),
                fmt_float(r.d_T), fmt_float(r.d_F), fmt_float(r.d_S),
                fmt_float(r.margins.s_mr) if r.margins else "",
                fmt_float(r.margins.s_md) if r.margins else "",
                "1" if r.skipped else "0", r.reason or ""])
    artifacts = [write_csv(os.path.join(out, "sweep.csv"), header, csv_rows)]
    def scaled(kept, factor, margin):
        return [float("nan") if getattr(r.margins, margin) is None
                else factor * getattr(r.margins, margin) for r in kept]
    # per direction: d_T against d_F, d_T and scaled margins against tau,
    # and the kept row of largest d_F over all directions
    series_tf, series_tau, best = [], [], None
    for k, rows in enumerate(all_rows, start=1):
        kept = [r for r in rows if not r.skipped]
        taus_k = [float(r.tau) for r in kept]
        series_tf.append((f"direction {k}",
                          [r.d_F for r in kept], [r.d_T for r in kept]))
        series_tau += [
            (f"d_T, direction {k}", taus_k, [r.d_T for r in kept]),
            (f"0.016 s_mr, direction {k}", taus_k,
             scaled(kept, 0.016, "s_mr")),
            (f"0.002 s_md, direction {k}", taus_k,
             scaled(kept, 0.002, "s_md"))]
        for r in kept:
            if best is None or r.d_F > best[1].d_F:
                best = (k, r)
    artifacts.append(svgplot.line_plot(
        os.path.join(out, "dT_vs_dF.svg"), series_tf,
        title="time distance against frequency distance",
        xlabel="d_F", ylabel="d_T", xlog=True, ylog=True))
    artifacts.append(svgplot.line_plot(
        os.path.join(out, "dT_vs_tau.svg"), series_tau,
        title="time distance and scaled stability margins",
        xlabel="tau", ylabel="d_T and scaled margins", ylog=True))
    # singular values of a representative frequency response difference
    if best is not None:
        k, row = best
        omegas = np.logspace(-3, 3, 400)
        resp = freq_response(row.tfm_diff, 1j * omegas)
        svals = np.linalg.svd(resp, compute_uv=False)
        series_sv = [(f"sigma_{i + 1}", omegas, svals[:, i])
                     for i in range(svals.shape[1])]
        artifacts.append(svgplot.line_plot(
            os.path.join(out, "singular_values.svg"), series_sv,
            title=f"singular values, direction {k}, tau={float(row.tau):g}",
            xlabel="omega", ylabel="singular value", xlog=True, ylog=True))
    n_skip = sum(1 for rows in all_rows for r in rows if r.skipped)
    emit(_report("sweep", {
        "directions": len(directions), "taus": len(taus),
        "skipped": n_skip, "seed": seed,
    }, artifacts))
    return 0


def cmd_reproduce_paper(args) -> int:
    nds = fixtures.demo_nds()
    phi0, phi_u, phi_i = fixtures.PHI0, fixtures.PHI_EQUIV, fixtures.PHI_DIFF
    seed = args.seed if args.seed is not None else default_seed()
    checks = []
    notes = []

    def check(name, ok, detail=""):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    rep = check_identifiable_at(nds, phi0)
    check("not identifiable at Phi0", rep.verdict == NOT_IDENTIFIABLE,
          f"verdict={rep.verdict}")
    expected = [[Fraction(0)], [Fraction(0)], [Fraction(1)], [Fraction(-2)]]
    check("null basis spans (0,0,1,-2)^T",
          rep.null_basis == expected,
          f"basis={mat_strs(rep.null_basis) if rep.null_basis else None}")
    region = undiff_region(rep, phi0)
    check("Phi_u in region", region.contains(phi_u))
    check("Phi_i not in region", not region.contains(phi_i))

    recon = check_reconstructible(nds)
    check("K FCR and L FRR per subsystem", recon.reconstructible,
          str(recon.per_subsystem))

    named = (("Phi0", phi0), ("Phi_u", phi_u), ("Phi_i", phi_i))
    s0, s_u, s_i = (screen(nds, phi).require(name) for name, phi in named)
    check("H(Phi0) = H(Phi_u) exactly", tfm_equal(s0.tfm, s_u.tfm))
    check("H(Phi0) != H(Phi_i)", not tfm_equal(s0.tfm, s_i.tfm))

    for name, phi in named:
        got = recover_scm(nds, lump(nds, phi))
        check(f"round trip recovers {name}", got.entries == phi.entries)

    def max_relative_error(other):
        _, _, _, trajectories = _simulate_pair(nds, (s0, other), seed)
        return float(np.nanmax(relative_error(*trajectories)))
    max_u, max_i = max_relative_error(s_u), max_relative_error(s_i)
    check("max relative error (Phi0, Phi_u) <= 1e-6", max_u <= 1e-6,
          f"max={max_u:.3e}")
    check("max relative error (Phi0, Phi_i) >= 10", max_i >= 10.0,
          f"max={max_i:.3e}")

    taus = _parse_tau_grid("0:1/10:20" if args.full else "0:1:20")
    lin_ok = True
    skip_ok = True
    for k, direction in enumerate(fixtures.SWEEP_DIRECTIONS, start=1):
        rows = tau_sweep(nds, phi0, direction, taus, region=region,
                         seed=seed)
        base = next((r for r in rows if not r.skipped and r.tau == 1), None)
        for r in rows:
            if r.skipped:
                # a stable row is skipped only past the sample limit; a row
                # that failed before the stability check has no margins
                stable = r.margins is not None and r.margins.stable
                skip_ok = skip_ok and stable == \
                    (r.reason == "too_many_samples")
                continue
            if base is not None and r.tau != 0:
                want = float(r.tau) * base.d_S
                if abs(r.d_S - want) > 1e-9 * max(1.0, abs(want)):
                    lin_ok = False
    check("d_S linear in tau over the sweep", lin_ok)
    check("skipped samples are exactly the unstable/irregular ones "
          "and those past the sample limit", skip_ok)

    # published frequency-distance spot value on the 0.1 grid
    spot = _spot_value_scan(nds, phi0, fixtures.SWEEP_DIRECTIONS[0])
    published = 179.20
    ok_spot = abs(spot["max_dF_retained"] - published) <= 0.01 * published
    check("max d_F for direction 1 reproduces 1.7920e2 within 1%", ok_spot,
          f"retained-grid max d_F = {spot['max_dF_retained']:.4f} at "
          f"tau = {spot['argmax_tau']}")
    if not ok_spot:
        notes.append(
            "exact arithmetic shows the tau = 1.1 grid sample has a real "
            "eigenvalue at +6.37e-5 and is discarded as unstable; the "
            "published significand is reproduced at the stable near-graze "
            "point tau = 1.11, where sup sigma = "
            f"{spot['sup_sigma_at_1_11']:.4f} (ten times the published "
            "value; see the acceptance suite for the full analysis)")

    all_ok = all(c["ok"] for c in checks)
    artifacts = []
    if args.out_dir:
        path = os.path.join(args.out_dir, "summary.json")
        atomic_write(path, json.dumps(
            {"checks": checks, "notes": notes}, indent=2) + "\n")
        artifacts.append(path)
    for c in checks:
        status = "ok" if c["ok"] else "MISMATCH"
        sys.stderr.write(f"[{status}] {c['name']}"
                         + (f" ({c['detail']})" if c["detail"] else "") + "\n")
    emit(_report("reproduce-paper",
                 {"checks": checks, "notes": notes, "all_ok": all_ok},
                 artifacts))
    return 0 if all_ok else 1


def _spot_value_scan(nds, phi0, direction):
    """Retained-grid d_F maximum for one direction plus the graze probe;
    a grid point is retained when it passes ``sim.screen``."""
    delta = ratmat.sub(direction.as_lists(), phi0.as_lists())

    def screened(tau):
        return screen(nds, SCMatrix(ratmat.freeze(ratmat.add(
            phi0.as_lists(), ratmat.scale(delta, tau)))))
    grid = [(tau, screened(tau)) for tau in _parse_tau_grid("0:1/10:20")]
    # the grid starts at tau = 0, which is Phi0 itself
    h0 = grid[0][1].require("the reference system of the scan").tfm
    best, best_tau = -1.0, None
    for tau, s in grid:
        if s.reason is not None:
            continue
        d_f = hinf_norm(s.tfm - h0, nds.time_domain)
        if d_f > best:
            best, best_tau = d_f, tau
    diff = screened(Fraction(111, 100)).require("the graze point").tfm - h0
    sup = float(sigma_max(diff, np.array([0.0 + 0.0j]))[0])
    return {"max_dF_retained": best, "argmax_tau": str(best_tau),
            "sup_sigma_at_1_11": sup}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ndscope",
        description="structure identifiability and SCM reconstruction "
                    "for networked descriptor systems")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, scm=True):
        p.add_argument("model", help="model JSON file")
        if scm:
            p.add_argument("--scm", help="inline rows 'a,b;c,d' or JSON file")
        p.add_argument("--strict", action="store_true",
                       help="exit 1 on a negative verdict")

    p = sub.add_parser("check-identifiability",
                       help="decide global identifiability at an SCM")
    add_common(p)
    p.add_argument("--constraints", help="JSON file with a constraints object")
    p.set_defaults(func=cmd_check_identifiability)

    p = sub.add_parser("region", help="emit the undifferentiable region")
    add_common(p)
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("reconstruct",
                       help="recover the SCM from a lumped model file")
    add_common(p, scm=False)
    p.add_argument("--lumped", required=True,
                   help='JSON file {"A":..,"B":..,"C":..,"D":..}')
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("lump", help="lump the NDS at an SCM")
    add_common(p)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_lump)

    p = sub.add_parser("simulate", help="paired simulation of two SCMs")
    p.add_argument("model")
    p.add_argument("--scm-a", required=True)
    p.add_argument("--scm-b", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="distance sweep along SCM rays")
    p.add_argument("model")
    p.add_argument("--scm0", default=None)
    p.add_argument("--directions", required=True,
                   help="JSON file with a list of SCMs, or 'paper'")
    p.add_argument("--tau", default="0:0.1:20")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("reproduce-paper",
                       help="run the bundled study end to end")
    p.add_argument("--out-dir", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--full", action="store_true",
                   help="tau step 0.1 instead of 1.0")
    p.set_defaults(func=cmd_reproduce_paper)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (NoConvergence, TooManySamples) as exc:
        emit({"command": args.command, "ok": False, "error": str(exc),
              "result": {}, "artifacts": []})
        return 3
    except INPUT_ERRORS as exc:
        emit({"command": args.command, "ok": False,
              "error": f"{type(exc).__name__}: {exc}",
              "result": {}, "artifacts": []})
        return 2


if __name__ == "__main__":
    sys.exit(main())
