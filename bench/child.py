"""One benchmark run of one workload, in a fresh process with cold caches.

Started by run.py as
  child.py --workload W --seed S --seconds T --spawned-ns N [--trace-out STEM]
where N is time.monotonic_ns() just before the parent started this process.
The speedometer (speed.py) starts before anything else and samples the
host's speed until the last round ends.

Untraced: after the set-up, rounds of the workload run until the next one
would end more than T seconds after the spawn; at least one runs.  Traced
(--trace-out): the tracer is installed before the set-up, one traced round
runs, then one untraced round runs for the overhead.  ru_maxrss is read
when the last round ends.  Then the first round's outputs are checked, and
every later round must give the same verdicts.

Prints one JSON object on its last line of standard output: setup_s (scaled
by the speed samples taken during the set-up) and setup_raw_s, the rounds'
wall times and verdict records, the problems the checks found, ru_maxrss,
and with --trace-out the per-layer metrics.  The spans go to STEM.spans and
STEM.json.
"""
# The set-up is timed too, so the speed samples start before anything else.
from speed import METER

METER.start()

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawned-ns", type=int, required=True)
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import nurho

    if Path(nurho.__file__).resolve().parent != SRC / "nurho":
        print(f"imported nurho from {nurho.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if args.trace_out:
        from tracing import Tracer

        tracer = Tracer().install()
    make_inputs, run, check = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    setup_raw, setup = METER.since(METER.mark(args.spawned_ns / 1e9))
    out = {"setup_s": setup, "setup_raw_s": setup_raw}

    rounds, durations = [], []

    def one_round():
        t0 = time.perf_counter()
        rounds.append(run(inputs))
        durations.append(time.perf_counter() - t0)
        return rounds[-1]

    def more() -> bool:
        if tracer is not None:
            return len(rounds) < 2
        elapsed = (time.monotonic_ns() - args.spawned_ns) / 1e9
        return elapsed + statistics.median(durations) <= args.seconds

    first = one_round()
    if tracer is not None:
        tracer.uninstall()
        out["per_layer"] = tracer.metrics()
        tracer.write(args.trace_out)
    while more():
        one_round()
    # The peak of the rounds, before the checks hold their own caches.
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    METER.stop()
    problems = check(inputs, first.records, first.objects)
    for i, rnd in enumerate(rounds[1:], 1):
        if workloads.verdicts(rnd.records) != workloads.verdicts(first.records):
            problems.append(f"round {i} verdicts differ from round 0")
    out["rounds"] = [
        {"wall_s": r.wall, "raw_wall_s": r.raw_wall, "records": r.records} for r in rounds
    ]
    out["problems"] = problems
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        METER.stop()
