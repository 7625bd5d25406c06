"""The nurho benchmark: one workload, one seed, one JSON result.

Usage, from the root of a checkout:

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: corpus, higher_order, synthesis, equivalence (see README.md).

The workload runs in one fresh child process (child.py).  A round is one
pass over the workload's inputs; every unit of a round (a term, a source,
a pair) starts from cold caches.

With --trace 0, rounds run until the next one would end after S seconds;
at least one runs.  The result holds the end-to-end metrics: setup_s, the
child's cold start until its inputs are ready; wall_s, the median over
rounds of a round's time; verdict_p50_s, the median time of one verdict
over all rounds; and peak_rss_mb, the child's ru_maxrss when its last round
ends.  Times are scaled to a reference host speed by a loop that the
child times every 20 ms while it runs (speed.py).  The raw times are in
the line before the result.

With --trace 1, one traced round and then one untraced round run.  The
result holds the per-layer metrics of the traced round and the tracing
overhead against the untraced round.  The traced round writes its spans
under bench/out/.  The verdicts of the two rounds must be identical.

The last line of standard output is the result:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it records the environment and each round.
Exit code 0 when every round ran, 1 when a round failed to run,
2 when the program's source is not found.
"""
import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "nurho"
OUT = HERE / "out"
WORKLOADS = ("corpus", "higher_order", "synthesis", "equivalence")
DEADLINE_S = 170  # every run must end within 180 s


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(hash_seed: str) -> dict:
    return {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "hash_seed": hash_seed,
    }


class RunError(RuntimeError):
    pass


def run_child(args, env: dict, deadline: float) -> dict:
    """The run's child process: its parsed result."""
    # -S: the child needs no site-packages, whose start-up only adds noise.
    cmd = [sys.executable, "-S", str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        OUT.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(OUT / f"{args.workload}-seed{args.seed}")]
    cmd += ["--spawned-ns", str(time.monotonic_ns())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError(f"{args.workload} did not end before the deadline")
    if proc.returncode != 0:
        raise RunError(f"{args.workload} child exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RunError(f"{args.workload} child printed no result")
    return json.loads(lines[-1])


def end_to_end(res: dict) -> dict:
    rounds = res["rounds"]
    times = [v["s"] for r in rounds for v in r["records"] if not v["failed"]]
    return {
        "setup_s": {"value": res["setup_s"], "unit": "s"},
        "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
        "verdict_p50_s": {"value": statistics.median(times) if times else 0.0, "unit": "s"},
        "peak_rss_mb": {"value": res["maxrss_kb"] / 1024, "unit": "MB"},
    }


def per_layer(res: dict) -> dict:
    traced, plain = res["rounds"]
    metrics = dict(res["per_layer"])
    metrics["bench.traced_wall_s"] = {"value": traced["wall_s"], "unit": "s"}
    metrics["bench.trace_overhead"] = {
        "value": traced["wall_s"] / plain["wall_s"] - 1, "unit": "ratio",
    }
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_start = time.monotonic()
    if not (SRC / "__init__.py").is_file():
        print(f"no nurho source at {SRC}", file=sys.stderr)
        return 2
    # Hash randomisation follows the seed unless PYTHONHASHSEED is set, so a
    # seed fixes the whole run.
    hash_seed = os.environ.get("PYTHONHASHSEED") or str(args.seed % 2**32)
    # The child writes no bytecode, so every set-up in a fresh checkout
    # compiles the same sources, whatever ran before it.
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONDONTWRITEBYTECODE="1")
    try:
        res = run_child(args, env, t_start + DEADLINE_S)
    except RunError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    for p in res["problems"][:20]:
        print(f"check failed: {p}", file=sys.stderr)
    rounds = res["rounds"]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "env": environment(hash_seed),
        "setup_s": res["setup_s"], "setup_raw_s": res["setup_raw_s"],
        "round_wall_s": [r["wall_s"] for r in rounds],
        "round_raw_wall_s": [r["raw_wall_s"] for r in rounds],
        "verdicts_per_round": len(rounds[0]["records"]),
    }))
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": sum(len(r["records"]) for r in rounds),
        "failed": sum(1 for r in rounds for v in r["records"] if v["failed"]),
        "metrics": per_layer(res) if args.trace else end_to_end(res),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
