"""ndscope benchmark launcher.

    python3 perfbench/run.py --workload ident-ladder --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The launcher pins BLAS/OpenMP
to one thread before anything imports numpy, then starts fresh,
single-threaded processes: one that generates the seeded inputs, a few
that only time set-up (import plus parsing), and one that runs the
workload.  It prints a detail line (provenance, units, op counts,
the tail percentile used) and, last, one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1).  See perfbench/README.md for what each workload and metric
means.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse        # noqa: E402
import json            # noqa: E402
import shutil          # noqa: E402
import subprocess      # noqa: E402
import sys             # noqa: E402
import time            # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("ident-ladder", "sweep-paper", "recover-roundtrip")
SETUP_PROBES = 4
DEADLINE_S = 170.0

E2E_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s",
             "ops_per_s": "1/s", "peak_rss_mib": "MiB"}


def per_layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith((".calls", ".samples", ".rows", ".rows_skipped",
                      ".p", ".bits", "_max")):
        return "count"
    if name.endswith(".bytes"):
        return "bytes"
    return "ratio"


def loadavg():
    try:
        with open("/proc/loadavg", "r", encoding="ascii") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def child(args, deadline, env):
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise TimeoutError("benchmark deadline reached")
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")]
                          + args, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=remaining)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}")
    return proc.stdout


def main() -> int:
    ap = argparse.ArgumentParser(description="ndscope benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "ndscope", "__init__.py")):
        sys.stderr.write("perfbench: src/ndscope not found; run from the "
                         "root of an ndscope source checkout\n")
        return 2

    started_load = loadavg()
    env = dict(os.environ)
    env.pop("NDSCOPE_SEED", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    workdir = os.path.join(ROOT, ".bench_work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        child(["generate", args.workload, workdir, str(args.seed)],
              deadline, env)
        probes = [json.loads(child(["setup", args.workload, workdir],
                                   deadline, env))
                  for _ in range(SETUP_PROBES)]
        child(["run", args.workload, workdir, repr(args.seconds),
               str(args.trace)], deadline, env)
        with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
            res = json.load(fh)
        spans_out = None
        if args.trace:
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            spans_out = os.path.join(
                out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
            shutil.move(res["spans_file"], spans_out)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"perfbench: {type(exc).__name__}: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = res["info"]
    setups = sorted([p["setup_s"] for p in probes] + [res["e2e"]["setup_s"]])
    setup_walls = sorted([p["setup_wall_s"] for p in probes]
                         + [info["setup_wall_s"]])
    e2e = dict(res["e2e"])
    e2e["setup_s"] = setups[len(setups) // 2]
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": {"nproc": os.cpu_count(),
                       "affinity": len(os.sched_getaffinity(0))
                       if hasattr(os, "sched_getaffinity") else None,
                       "loadavg_at_start": started_load,
                       **res["versions"]},
        "ops": info["ops"], "instances": info["instances"],
        "epochs": info["epochs"],
        "failed": info["failed"], "fail_frac": e2e["fail_frac"],
        "op_tail_percentile": info["tail_percentile"],
        "timed_wall_s": info["timed_wall_s"],
        "setup_samples": setups,
        "wall": {**info["wall"], "setup_s": setup_walls[len(setups) // 2],
                 "setup_samples": setup_walls},
        "e2e": {k: {"value": e2e[k], "unit": u, "samples":
                    len(setups) if k == "setup_s" else info["ops"]}
                for k, u in E2E_UNITS.items()},
    }
    if args.trace:
        detail["trace"] = {**res["trace_notes"], "spans": res["spans"],
                           "spans_file": os.path.relpath(spans_out, ROOT)}
        metrics = {k: {"value": v, "unit": per_layer_units(k)}
                   for k, v in res["layers"].items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u}
                   for k, u in E2E_UNITS.items()}
    print(json.dumps(detail))
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
