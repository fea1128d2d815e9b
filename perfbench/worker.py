"""One workload in one fresh process (started by run.py, never directly).

    worker.py setup    WORKLOAD WORKDIR
    worker.py run      WORKLOAD WORKDIR SECONDS TRACE
    worker.py generate WORKLOAD WORKDIR SEED

``setup`` times ``import ndscope`` plus parsing of the generated inputs
and prints {"setup_s": ...}.  ``run`` does the same set-up, then runs
ops for SECONDS of op time with tracing off, checks every op's output
outside the timed section, and writes result.json into WORKDIR.  With
TRACE=1 it runs the untraced phase for half of SECONDS, then replays the
same ops with every layer's public functions wrapped, runs the same
checks, and adds the per-layer metrics.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time

import hostspeed
import workloads as wl
from tracer import LAYERS, Tracer


def setup(workload, workdir):
    """Return (ndscope module, schedule, inputs, set-up seconds,
    set-up wall seconds); the first is normalized (see hostspeed.py)
    by host-speed probes taken just before and just after set-up."""
    schedule = wl.load_schedule(workdir)
    hostspeed.probe()                  # first call pays one-time costs
    before = hostspeed.probe()
    t0 = time.perf_counter()
    import ndscope as nd
    inputs = wl.parse_inputs(nd, workload, workdir, schedule)
    wall = time.perf_counter() - t0
    after = hostspeed.probe()
    return (nd, schedule, inputs,
            wall * hostspeed.REF_PROBE_S / ((before + after) / 2), wall)


def run_ops(nd, workload, workdir, schedule, inputs, seconds, tracer=None,
            replay=None):
    """Run ops until ``seconds`` of op time (or exactly ``replay``).

    An epoch runs every instance of the pool (``schedule["ops"]``) once,
    in the order ``schedule["orders"]`` draws for it.  Runs stop only
    after whole epochs, so every instance runs equally often.

    Returns [(instance index, wall seconds, ok, normalized seconds)].
    Outputs are checked after each op, outside the timed section; the
    host-speed probes that normalize the op time run there too, one
    between every two ops.
    """
    run_op = wl.runner(workload)
    check = wl.checker(nd, workload)
    ops = schedule["ops"]
    expect = schedule["expect"]
    orders = schedule["orders"]
    epoch = len(ops)
    records = []
    probes = [hostspeed.probe()]
    spent = 0.0
    i = 0
    clock = time.perf_counter
    while True:
        if replay is not None:
            if i >= len(replay):
                break
            idx = replay[i]
        else:
            # stop at an epoch boundary once one more epoch (at the mean
            # cost so far) would overrun the budget
            if records and i % epoch == 0 and spent * (1 + epoch / i) > seconds:
                break
            idx = orders[i // epoch % len(orders)][i % epoch]
        op = ops[idx]
        inp = inputs[op["input"]]
        op["out_dir"] = os.path.join(workdir, "out", f"op{idx}")
        # each op starts from a collected heap, so the garbage collection
        # inside an op depends on that op alone, not on the ones before it
        gc.collect()
        if tracer is not None:
            tracer.op = i          # spans carry the op's place in the run
        t0 = clock()
        try:
            out = run_op(nd, op, inp)
            raised = False
        except Exception as exc:      # an op that raises counts as failed
            out = exc
            raised = True
        dt = clock() - t0
        if tracer is not None:
            tracer.op = -1
        if raised:
            ok = False
            sys.stderr.write(f"op {idx} raised {type(out).__name__}: {out}\n")
        else:
            try:
                ok = bool(check(op, inp, out, expect))
            except Exception as exc:  # a check that cannot run fails the op
                sys.stderr.write(f"check of op {idx} raised {exc!r}\n")
                ok = False
            if not ok:
                sys.stderr.write(f"op {idx} output mismatch: {op['input']}\n")
        probes.append(hostspeed.probe())
        records.append((idx, dt, ok, dt * hostspeed.REF_PROBE_S
                        / ((probes[-2] + probes[-1]) / 2)))
        spent += dt
        i += 1
    return records


def e2e_metrics(records, setup_s):
    """End-to-end metrics over normalized op times (see hostspeed.py);
    the detail carries the same statistics over wall times."""
    def stats(col):
        times = sorted(r[col] for r in records)
        return {"op_p50_s": statistics.median(times),
                "op_tail_s": times[wl.tail_rank(len(times))],
                "ops_per_s": len(times) / sum(times)}

    n = len(records)
    failed = sum(1 for _, _, ok, _ in records if not ok)
    e2e = stats(3)
    e2e.update({
        "fail_frac": failed / n,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "setup_s": setup_s,
    })
    instances = len({r[0] for r in records})
    return e2e, {"ops": n, "instances": instances,
                 "epochs": n // instances, "failed": failed,
                 "tail_percentile": wl.TAIL_PERCENT,
                 "timed_wall_s": sum(r[1] for r in records),
                 "wall": stats(1)}


def ladder_metrics(schedule, records, tracer):
    """identifiability.ladder.N{n}.{verdict_s,p,bits} over the dense
    random a3 networks (the chains are cheap and would set the median)."""
    per_op = tracer.op_totals("identifiability.check_identifiable_at")
    out = {}
    for n in wl.LADDER_N:
        runs = [i for i, r in enumerate(records)
                if schedule["ops"][r[0]]["slot"] == "dense"
                and schedule["ops"][r[0]]["N"] == n]
        idxs = [records[i][0] for i in runs]
        times = [per_op[i] for i in runs if i in per_op]
        out[f"identifiability.ladder.N{n}.verdict_s"] = statistics.median(times) \
            if times else 0.0
        out[f"identifiability.ladder.N{n}.p"] = max(
            (schedule["ops"][idx].get("p") or 0 for idx in idxs), default=0)
        out[f"identifiability.ladder.N{n}.bits"] = max(
            (schedule["ops"][idx].get("bits", 0) for idx in idxs), default=0)
    return out


def layer_metrics(workload, schedule, records, tracer):
    funcs, layers = tracer.summary()

    def f(name, key):
        return funcs[name][key]

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layers[layer]
    named = {
        "polymat": (("smith_form", "calls total_s"),
                    ("smith_mcmillan", "total_s"),
                    ("right_coprime_mfd", "total_s"),
                    ("proper_split", "total_s"),
                    ("normal_rank", "calls total_s"),
                    ("RatFunMat.det", "calls total_s"),
                    ("RatFunMat.inverse", "calls total_s"),
                    ("PolyMat.det", "calls total_s")),
        "ratmat": tuple((n, "calls total_s") for n in
                        ("rref", "rank", "null_space", "left_null_space",
                         "det", "inv", "matmul")),
        "model": (("parse_model", "total_s"),
                  ("subsystem_tfms", "calls total_s"),
                  ("assemble_block_tfms", "calls"),
                  ("check_nds_regular", "calls total_s"),
                  ("check_well_posed", "calls total_s"),
                  ("nds_tfm", "calls total_s")),
        "identifiability": (("classify_case", "calls total_s"),
                            ("check_identifiable_at", "calls total_s"),
                            ("stacked_u2", "total_s"),
                            ("StackedCoeffMatrix.is_fcr", "total_s"),
                            ("StackedCoeffMatrix.null_basis", "total_s"),
                            ("undiff_region", "total_s"),
                            ("UndiffRegion.contains", "total_s")),
        "reconstruction": tuple((n, "calls total_s") for n in
                                ("lump", "check_reconstructible",
                                 "check_consistency", "recover_scm",
                                 "lumped_tfm")),
        "sim": (("tau_sweep", "total_s"), ("stm", "total_s"),
                ("stability_margins", "total_s"),
                ("choose_sampling", "total_s"),
                ("zoh_discretize", "total_s"), ("hinf_norm", "total_s"),
                ("distance_scm", "total_s"), ("prbs", "calls total_s"),
                ("simulate", "calls total_s self_s"),
                ("distance_freq", "calls total_s"),
                ("exact_tfm", "calls total_s")),
        "cli": (("main", "total_s"), ("atomic_write", "calls total_s")),
        "svgplot": (("line_plot", "calls total_s"),),
    }
    for layer, items in named.items():
        for fn, keys in items:
            for key in keys.split():
                m[f"{layer}.{fn}.{key}"] = f(f"{layer}.{fn}", key)
    for cname in ("sim.prbs.samples", "sim.simulate.samples",
                  "cli.atomic_write.bytes", "sim.sweep.rows",
                  "sim.sweep.rows_skipped"):
        m[cname] = tracer.counters.get(cname, 0)
    rows = m["sim.sweep.rows"]
    m["sim.sweep.retained_ratio"] = \
        (rows - m["sim.sweep.rows_skipped"]) / rows if rows else 0.0
    m["model.subsystem_tfms.calls_per_row"] = \
        m["model.subsystem_tfms.calls"] / rows if rows else 0.0
    m["sim.tau_sweep.check_nds_regular_share"] = tracer.share_within(
        "sim.tau_sweep", "model.check_nds_regular") if rows else 0.0
    ps = [schedule["ops"][r[0]].get("p") or 0 for r in records]
    bits = [schedule["ops"][r[0]].get("bits", 0) for r in records]
    m["identifiability.stacked_p_max"] = max(ps, default=0)
    m["identifiability.stacked_bits_max"] = max(bits, default=0)
    if workload == "ident-ladder":
        m.update(ladder_metrics(schedule, records, tracer))
    else:
        for n in wl.LADDER_N:
            for key in ("verdict_s", "p", "bits"):
                m[f"identifiability.ladder.N{n}.{key}"] = 0
    largest = max(layers, key=lambda k: layers[k])
    return m, {"largest_self_layer": largest,
               "layer_self_share": {k: v / sum(layers.values())
                                    for k, v in layers.items()}
               if sum(layers.values()) > 0 else {}}


def main(argv):
    mode, workload, workdir = argv[1], argv[2], argv[3]
    if mode == "generate":
        wl.generate(workload, int(argv[4]), workdir)
        return 0
    if mode == "setup":
        setup_s, wall = setup(workload, workdir)[3:]
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": wall}))
        return 0
    seconds, trace = float(argv[4]), argv[5] == "1"
    nd, schedule, inputs, setup_s, setup_wall = setup(workload, workdir)
    wl.prepare(workload, workdir, schedule, inputs)
    import numpy
    import scipy
    # one untimed op first, so lazy imports and first-call set-up inside
    # the package do not land in the first timed op
    warm = run_ops(nd, workload, workdir, schedule, inputs, 0, replay=[0])
    # set-up objects move to the permanent generation, so the collection
    # before each op only scans what earlier ops left behind
    gc.collect()
    gc.freeze()
    records = run_ops(nd, workload, workdir, schedule, inputs,
                      seconds / 2 if trace else seconds)
    e2e, info = e2e_metrics(records, setup_s)
    info["setup_wall_s"] = setup_wall
    result = {"e2e": e2e, "info": info,
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__},
              "attempted": len(records) + len(warm),
              "failed": info["failed"] + sum(1 for r in warm if not r[2])}
    if trace:
        tracer = Tracer()
        with tracer:
            traced = run_ops(nd, workload, workdir, schedule, inputs, 0,
                             tracer=tracer,
                             replay=[r[0] for r in records])
        layers, notes = layer_metrics(workload, schedule, traced, tracer)
        # normalized, so that a change of host speed between the two
        # phases does not read as tracing cost
        layers["trace.overhead_frac"] = \
            sum(r[3] for r in traced) / sum(r[3] for r in records) - 1.0
        result["layers"] = layers
        result["trace_notes"] = notes
        result["attempted"] += len(traced)
        result["failed"] += sum(1 for r in traced if not r[2])
        result["spans"] = len(tracer.spans)
        spans_path = os.path.join(workdir, "spans.jsonl.gz")
        tracer.dump(spans_path)
        result["spans_file"] = spans_path
    with open(os.path.join(workdir, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
