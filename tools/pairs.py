"""Run the benchmark in alternating pairs on two checkouts and summarize.

Usage, from anywhere:

  python3 tools/pairs.py PARENT CHANGE --workload W --seeds 401-412 \
      --out BENCH_12.json

PARENT and CHANGE are the roots of two checkouts.  For each seed, one pair
runs `python3 bench/run.py --workload W --seed N --seconds 30 --trace 0` in
each checkout, one after the other: odd-numbered pairs run the parent
first, even-numbered ones the change first.  When the output file exists,
its runs are kept and the new pairs are numbered after them, so one file
can collect several workloads, one call each; a checkout whose source tree
differs from the one the file records for its side stops the run with
exit status 1.  After every pair the file is
rewritten: the runs in the order they ran, and per workload the median and
quartiles of each end-to-end metric on each side, the ratio of the medians
(change / parent), the number of pairs the change won (ties count for
neither side), whether that shows a gain and whether the change is worse
than the parent beyond the metric's bound in BENCHMARK.json (read only).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("setup_s", "wall_s", "verdict_p50_s", "peak_rss_mb")  # all lower-better
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}  # read, never written
SECONDS = 30  # the benchmark's run length
WHAT = ("bench/run.py result lines for the parent and the change checkout in alternating"
        " pairs (odd-numbered pairs ran the parent first, even-numbered ones the change"
        " first), listed in the order they ran, written by tools/pairs.py")


def metric_summary(parent: list[float], change: list[float], bound: float) -> dict:
    """Medians, inclusive quartiles and pair wins of one metric; the two
    lists hold the sides of the same pairs, in order.  A gain is shown when
    the change wins at least 9 of 10 pairs and its median is lower by more
    than the parent's interquartile range; the change is worse beyond the
    bound when its median exceeds the parent's by more than that fraction."""
    pm, cm = statistics.median(parent), statistics.median(change)

    def quartiles(xs):
        if len(xs) < 2:
            return [xs[0]] * 2
        q = statistics.quantiles(xs, n=4, method="inclusive")
        return [q[0], q[2]]

    pq, wins = quartiles(parent), sum(c < p for p, c in zip(parent, change))
    return {
        "parent_median": round(pm, 4),
        "parent_quartiles": [round(q, 4) for q in pq],
        "change_median": round(cm, 4),
        "change_quartiles": [round(q, 4) for q in quartiles(change)],
        "ratio_of_medians": round(cm / pm, 3),
        "change_better_pairs": wins,
        "pairs": len(parent),
        "gain_shown": 10 * wins >= 9 * len(parent) and pm - cm > pq[1] - pq[0],
        "worse_beyond_bound": cm > pm * (1 + bound),
    }


def summarize(runs: list[dict]) -> dict:
    """Per workload, the summary of its runs: each run is a dict with
    "pair", "side" ("parent" or "change"), "workload", "seed" and "result",
    the last line `bench/run.py` prints.  Only complete pairs count."""
    out = {}
    for w in dict.fromkeys(r["workload"] for r in runs):
        sides = {"parent": {}, "change": {}}
        for r in runs:
            if r["workload"] == w:
                sides[r["side"]][r["pair"]] = r
        pairs = sorted(set(sides["parent"]) & set(sides["change"]))
        both = [sides[s][p] for p in pairs for s in ("parent", "change")]
        summary = {
            "seeds": list(dict.fromkeys(sides["parent"][p]["seed"] for p in pairs)),
            "correct": all(r["result"]["correct"] for r in both),
            "failed": {s: sum(sides[s][p]["result"]["failed"] for p in pairs) for s in sides},
            "attempted": {
                s: sum(sides[s][p]["result"]["attempted"] for p in pairs) for s in sides
            },
        }
        for m in METRICS:
            vals = {
                s: [sides[s][p]["result"]["metrics"][m]["value"] for p in pairs]
                for s in sides
            }
            if pairs:
                summary[m] = metric_summary(vals["parent"], vals["change"], BOUNDS[m])
        out[w] = summary
    return out


def run_once(root: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """One bench/run.py run in checkout `root`: (environment line, result line)."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{root}: {' '.join(cmd[1:])} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def record_checkout(doc: dict, side: str, env: dict) -> None:
    """Record in doc the tree a run on `side` came from (its env line's
    git_sha and src_sha256).  ValueError when doc names another tree."""
    got = {k: env[k] for k in ("git_sha", "src_sha256")}
    had = doc.setdefault(side, got)["src_sha256"]
    if had != got["src_sha256"]:
        raise ValueError(f"the {side} checkout has src_sha256 {got['src_sha256']}, "
                         f"but the file's {side} runs came from {had}")


def parse_seeds(text: str) -> list[int]:
    """'401-405' or '401,403,410'."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args()
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    doc["what"] = WHAT
    doc["command"] = (f"python3 bench/run.py --workload W --seed N --seconds {SECONDS}"
                      " --trace 0, from the root of each checkout")
    runs = doc["runs"]
    done = [r["pair"] for r in runs if r["workload"] == args.workload]
    first = max(done, default=0) + 1
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for pair, seed in enumerate(args.seeds, first):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            env, result = run_once(roots[side], args.workload, seed)
            try:
                record_checkout(doc, side, env["env"])
            except ValueError as e:
                print(f"{args.out}: {e}", file=sys.stderr)
                return 1
            runs.append({"pair": pair, "side": side, "workload": args.workload,
                         "seed": seed, "result": result, "env": env})
            e = env["env"]
            doc["host"] = f"{e['nproc_usable']} vCPUs, Python {e['python']}, one run at a time"
            print(f"pair {pair} {side} {args.workload} seed {seed}: wall_s "
                  f"{result['metrics']['wall_s']['value']:.3f}", file=sys.stderr)
        doc["summary"] = summarize(runs)
        keys = ("what", "command", "host", "parent", "change", "summary", "runs")
        ordered = {k: doc[k] for k in keys}
        tmp = args.out.with_suffix(".tmp")
        tmp.write_text(json.dumps(ordered, indent=1) + "\n")
        os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
