"""The coxart benchmark: fold-inject, garside-catalogue and raag-substitution.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload runs in its own fresh
single-threaded worker process (worker.py); with --trace 0 the worker starts
one more fresh process, between its rounds, that only sets up, so that
set-up is measured twice, and times set-up and rounds corrected for the
host's load (contention.py).  The worker's outputs are checked here against
oracles.py, which shares no code with coxart.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"};
with --trace 0 the metrics are setup_s, verify_s and peak_rss_mb, with
--trace 1 the per-layer ones.
Results and traces are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

DEADLINE_S = 170  # a run must end within 180 s
SETUP_PROBES = 1  # fresh processes that only set up, besides the worker's own


def _worker(deadline, *args):
    """Run worker.py to completion and return its last stdout line as JSON."""
    # a fixed hash seed keeps set iteration order, and so the program's work,
    # the same in every run
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise SystemExit("out of time before starting the worker")
    # a process group of its own, so that a timeout also ends its set-up probes
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py")] + [str(a) for a in args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        process_group=0)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("worker %s ran out of time" % " ".join(map(str, args)))
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit("worker %s exited with %d" % (" ".join(map(str, args)), proc.returncode))
    return json.loads(out.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    trace_file = os.path.join(OUT, "trace-%s-seed%d.jsonl" % (name, seed))
    args = ["--workload", name, "--seed", seed, "--seconds", seconds, "--trace", trace]
    if trace:
        args += ["--trace-file", trace_file]
    else:
        args += ["--setup-probes", SETUP_PROBES]
    result = _worker(deadline, *args)
    defects = workloads.check(name, result["observations"], result["complexes"])
    if not result["rounds_agree"]:
        defects.append("rounds of one run gave different outputs")

    if trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": result["setup_s"], "unit": "s"},
            "verify_s": {"value": result["verify_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    summary = {
        "correct": not defects,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    with open(os.path.join(OUT, "result-%s-seed%d-trace%d.json" % (name, seed, trace)), "w") as fh:
        json.dump(dict(summary, defects=defects, round_s=result["round_s"],
                       round_corrected_s=result["round_corrected_s"],
                       setup_samples_s=result["setup_samples_s"],
                       setup_wall_s=result["setup_wall_s"],
                       reference_s=result["reference_s"],
                       operations_per_round=result["operations_per_round"],
                       operation_s=result["operation_s"]), fh, indent=1)
    for defect in defects[:20]:
        print("DEFECT %s: %s" % (name, defect), file=sys.stderr)
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "coxart", "__init__.py")):
        print("error: no coxart sources at %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, args.trace)
        if args.workload == "all":
            print("== %s: correct=%s attempted=%d failed=%d" % (
                name, summary["correct"], summary["attempted"], summary["failed"]))
            for metric, m in summary["metrics"].items():
                print("   %-40s %14.6g %s" % (metric, m["value"], m["unit"]))
        print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
