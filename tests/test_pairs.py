"""The summary that tools/pairs.py writes for alternating benchmark pairs."""
import importlib.util
from pathlib import Path

import pytest

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


def test_gain_shown_and_worse_beyond_bound():
    """A gain needs 9 of 10 pairs won and a median gap wider than the
    parent's interquartile range; worse beyond the bound compares the ratio
    of medians with the bound BENCHMARK.json gives the metric."""
    assert pairs.BOUNDS == {"setup_s": 0.25, "wall_s": 0.25, "verdict_p50_s": 0.25,
                            "peak_rss_mb": 0.15}
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    gain = pairs.metric_summary(parent, [x - 1.0 for x in parent], 0.25)
    assert gain["gain_shown"] and not gain["worse_beyond_bound"]
    eight = [x - 1.0 for x in parent[:8]] + parent[8:]  # 8 of 10 pairs won
    assert not pairs.metric_summary(parent, eight, 0.25)["gain_shown"]
    narrow = pairs.metric_summary(parent, [x - 0.05 for x in parent], 0.25)
    assert narrow["change_better_pairs"] == 10 and not narrow["gain_shown"]  # gap < IQR
    assert pairs.metric_summary(parent, [x * 1.26 for x in parent], 0.25)["worse_beyond_bound"]
    within = pairs.metric_summary(parent, [x * 1.24 for x in parent], 0.25)
    assert not within["worse_beyond_bound"] and not within["gain_shown"]
    assert pairs.metric_summary(parent, [x * 1.2 for x in parent], 0.15)["worse_beyond_bound"]


def test_seed_ranges():
    assert pairs.parse_seeds("401-403") == [401, 402, 403]
    assert pairs.parse_seeds("7,9") == [7, 9]


def test_a_side_keeps_the_tree_it_came_from():
    doc = {}
    first = {"git_sha": "abc", "src_sha256": "0123"}
    pairs.record_checkout(doc, "change", first)
    pairs.record_checkout(doc, "change", {"git_sha": None, "src_sha256": "0123"})
    pairs.record_checkout(doc, "parent", {"git_sha": None, "src_sha256": "4567"})
    assert doc == {"change": first, "parent": {"git_sha": None, "src_sha256": "4567"}}
    with pytest.raises(ValueError, match="src_sha256 89ab.*came from 0123"):
        pairs.record_checkout(doc, "change", {"git_sha": "abc", "src_sha256": "89ab"})
    assert doc["change"] == first


def test_runs_from_another_tree_stop_with_status_1(tmp_path, monkeypatch, capsys):
    out = tmp_path / "bench.json"
    out.write_text('{"runs": [], "parent": {"git_sha": null, "src_sha256": "0123"}}')
    env = {"env": {"git_sha": None, "src_sha256": "89ab", "nproc_usable": 2,
                   "python": "3"}}
    monkeypatch.setattr(pairs, "run_once", lambda root, w, seed: (env, run(1, "", 1.0)["result"]))
    argv = ["pairs.py", str(tmp_path), str(tmp_path), "--workload", "corpus",
            "--seeds", "1", "--out", str(out)]
    monkeypatch.setattr(pairs.sys, "argv", argv)
    assert pairs.main() == 1
    assert "came from 0123" in capsys.readouterr().err
    assert '"89ab"' not in out.read_text()
