"""The summary that tools/pairs.py writes for alternating benchmark pairs."""
import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
)
pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(pairs)


def run(pair, side, wall, workload="corpus", failed=0, correct=True):
    metrics = {m: {"value": 1.0, "unit": "s"} for m in pairs.METRICS}
    metrics["wall_s"]["value"] = wall
    return {
        "pair": pair, "side": side, "workload": workload, "seed": 400 + pair,
        "result": {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics},
    }


def test_summary_of_alternating_pairs():
    parent = [10.0, 12.0, 11.0, 13.0]
    change = [7.0, 12.0, 8.0, 9.0]
    runs = []
    for k, (p, c) in enumerate(zip(parent, change), 1):
        sides = [run(k, "parent", p), run(k, "change", c, failed=k == 2)]
        runs += sides if k % 2 else sides[::-1]
    runs.append(run(5, "parent", 1.0))  # an unfinished pair does not count
    runs.append(run(1, "change", 2.0, workload="synthesis", correct=False))
    runs.append(run(1, "parent", 4.0, workload="synthesis"))
    out = pairs.summarize(runs)
    assert list(out) == ["corpus", "synthesis"]
    corpus = out["corpus"]
    assert corpus["seeds"] == [401, 402, 403, 404]
    assert corpus["correct"] and not out["synthesis"]["correct"]
    assert corpus["failed"] == {"parent": 0, "change": 1}
    assert corpus["attempted"] == {"parent": 40, "change": 40}
    wall = corpus["wall_s"]
    assert wall["parent_median"] == 11.5 and wall["change_median"] == 8.5
    assert wall["parent_quartiles"] == [10.75, 12.25]
    assert wall["change_quartiles"] == [7.75, 9.75]
    assert wall["ratio_of_medians"] == round(8.5 / 11.5, 3)
    assert wall["change_better_pairs"] == 3 and wall["pairs"] == 4  # a tie wins nothing
    assert corpus["setup_s"]["change_better_pairs"] == 0
    assert out["synthesis"]["wall_s"]["ratio_of_medians"] == 0.5


def test_seed_ranges():
    assert pairs.parse_seeds("401-403") == [401, 402, 403]
    assert pairs.parse_seeds("7,9") == [7, 9]
