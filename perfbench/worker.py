"""One workload in one fresh process: set-up, then whole rounds of its
operations, then one JSON line with timings and observations on stdout.

Usage (run.py starts it):
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        [--setup-probes K]
    python3 perfbench/worker.py --workload NAME --setup-only

A set-up probe is this script with --setup-only in a fresh process.  The
probes run between the rounds, so that the rounds, and the set-ups, are
spread over the whole run and not bunched into one stretch of the machine's
load.

Untraced, set-up and rounds are timed with the contention sampler
(contention.py) running, and reported corrected for the host's load; the
plain wall times go into the result file too.  A traced run samples
nothing, so its spans are plain wall time.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from the first line

import sys  # noqa: E402

import contention  # noqa: E402  (the script's directory is on sys.path)

# --trace is read before argparse, so that sampling covers set-up from the
# first line
_TRACED = "--trace" in sys.argv and sys.argv[sys.argv.index("--trace") + 1:][:1] == ["1"]
_SAMPLER = None if _TRACED else contention.Sampler()
if _SAMPLER:
    _SAMPLER.start()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

import workloads  # noqa: E402


def _probe(workload):
    """Set-up of a fresh process: [wall time, median reference time].
    This process samples nothing meanwhile, so one process runs at a time."""
    _SAMPLER.stop()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--setup-only"],
        capture_output=True, text=True, check=True)
    _SAMPLER.start()
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup"]


def _observe(op, raw):
    name, _, observe = op
    if isinstance(raw, Exception):
        return {"op": name, "error": "%s: %s" % (type(raw).__name__, raw)}
    return dict(observe(raw), op=name)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--setup-probes", type=int, default=0)
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import coxart.cli  # noqa: F401  (every module, so the tracer can wrap it)
        import coxart.curves  # noqa: F401
        import coxart.folding  # noqa: F401
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.operation = "setup"
    workloads.setup(args.workload)
    if _SAMPLER:
        setup = list(_SAMPLER.window((_T0, 0, 0.0)))
    else:
        setup = [time.perf_counter() - _T0, None]
    import coxart

    if not os.path.abspath(coxart.__file__).startswith(SRC + os.sep):
        raise SystemExit("coxart imported from %s, not from %s" % (coxart.__file__, SRC))
    if args.setup_only:
        if _SAMPLER:
            _SAMPLER.stop()
        print(json.dumps({"setup": setup}))
        return 0

    if tracer:
        tracer.operation = "prepare"
    ops, complexes = workloads.operations(args.workload, args.seed)

    setups = [setup]
    round_s, round_ref, op_s, observed = [], [], {}, []
    agree = True
    while True:
        state, raws = {}, []
        t = time.perf_counter()
        mark = _SAMPLER.mark() if _SAMPLER else None
        for name, run, _ in ops:
            if tracer:
                tracer.operation = name
            t_op = time.perf_counter()
            try:
                raws.append(run(state))
            except Exception as exc:  # a failed operation is counted, not fatal
                raws.append(exc)
            op_s.setdefault(name, []).append(time.perf_counter() - t_op)
        if _SAMPLER:
            wall, ref = _SAMPLER.window(mark)
            round_s.append(wall)
            round_ref.append(ref)
        else:
            round_s.append(time.perf_counter() - t)
        if tracer:
            tracer.uninstall()
        # results become plain data at once, so no round keeps the engines
        # of an earlier one alive and memory does not grow with the rounds
        obs = [_observe(op, raw) for op, raw in zip(ops, raws)]
        del state, raws
        if observed:
            agree = agree and obs == observed[0]
        observed.append(obs)
        # a traced run makes one round, so its counts are those of one round
        if tracer or sum(round_s) >= args.seconds:
            break
        if len(setups) <= args.setup_probes:
            setups.append(_probe(args.workload))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups) <= args.setup_probes:
        setups.append(_probe(args.workload))
    if _SAMPLER:
        _SAMPLER.stop()
        setup_s = [contention.corrected(w, r) for w, r in setups]
        verify_s = [contention.corrected(w, r) for w, r in zip(round_s, round_ref)]
    else:
        setup_s, verify_s = [w for w, _ in setups], round_s

    attempted = failed = 0
    for obs in observed:
        for o in obs:
            if "error" in o:
                attempted += 1
                failed += 1
            elif o["kind"] == "suite":
                attempted += len(o["checks"])
                failed += sum(1 for c in o["checks"] if c[1] != "pass")
            else:
                attempted += 1

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": statistics.median(setup_s),
        "setup_samples_s": setup_s,
        "setup_wall_s": [w for w, _ in setups],
        "verify_s": statistics.median(verify_s),
        "round_corrected_s": verify_s,
        "round_s": round_s,
        "reference_s": {"setups": [r for _, r in setups], "rounds": round_ref},
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "operations_per_round": len(ops),
        "operation_s": {name: statistics.median(ts) for name, ts in op_s.items()},
        "rounds_agree": agree,
        "observations": observed[0],
        "complexes": complexes,
    }
    if tracer:
        result["per_layer"] = tracer.metrics()
        if args.trace_file:
            tracer.write(args.trace_file, {
                "workload": args.workload, "seed": args.seed,
                "traced_verify_s": round_s[0], "per_layer": result["per_layer"]})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
