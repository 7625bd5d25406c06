"""Tests for the benchmark: its output checks fail when they should, and the
traced wrappers change no verdict.

Run from the root of the repository:  python3 -m pytest bench/test_bench.py
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads as W  # noqa: E402
from nurho import nominal, plays, strategies  # noqa: E402
from nurho import syntax as S  # noqa: E402
from speed import METER  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402


@pytest.fixture(autouse=True, scope="module")
def speedometer():
    """Rounds time their verdicts with the speedometer, as in child.py."""
    METER.start()
    yield
    METER.stop()


def term(src):
    return S.infer(S.parse_term(src))[0]


# ---------------------------------------------------------------------------
# The comparators report a flipped verdict and a wrong expected value
# ---------------------------------------------------------------------------

def reduction_case():
    inputs = W.Inputs(0, [term("if0 0 then 1 else 0")], {"k": 1, "depth": 4})
    records = [{"term": 0, "step": 0, "rule": "IF0", "equal": True, "failed": False}]
    facts = [{"observable": False, "machine_zero": False}]
    return inputs, records, facts


def test_reduction_comparator_accepts_sound_outputs():
    assert W.problems_reduction(*reduction_case()) == []


def test_reduction_comparator_reports_flipped_verdict():
    inputs, records, facts = reduction_case()
    records[0]["equal"] = False
    assert W.problems_reduction(inputs, records, facts)


def test_reduction_comparator_reports_wrong_expected_value():
    inputs, records, facts = reduction_case()
    facts[0]["machine_zero"] = True
    assert W.problems_reduction(inputs, records, facts)


def synthesis_case():
    inputs = W.synthesis_inputs(0)
    inputs.items = [(src, t, ty) for src, t, ty in inputs.items if src == "succ 1"]
    records = [{"source": "succ 1", "term": "2", "equal": True, "failed": False}]
    facts = [{"source": ["value", "2"], "synthesized": ["value", "2"]}]
    return inputs, records, facts


def test_synthesis_comparator_accepts_sound_outputs():
    assert W.problems_synthesis(*synthesis_case()) == []


def test_synthesis_comparator_reports_flipped_certificate():
    inputs, records, facts = synthesis_case()
    records[0]["equal"] = False
    assert W.problems_synthesis(inputs, records, facts)


def test_synthesis_comparator_reports_wrong_expected_value():
    inputs, records, facts = synthesis_case()
    facts[0]["source"] = ["value", "1"]
    assert W.problems_synthesis(inputs, records, facts)


def equivalence_case():
    inputs = W.equivalence_inputs(0)
    sep = {"test": "L", "left-observable": False, "right-observable": True}
    records = [
        {"pair": i, "rc": 0, "tests": 5, "separators": [], "failed": False}
        for i in range(3)
    ] + [{"pair": 3, "rc": 1, "tests": 5, "separators": [sep], "failed": False}]
    facts = [[], [], [], [(False, True)]]
    return inputs, records, facts


def test_equivalence_comparator_accepts_sound_outputs():
    assert W.problems_equivalence(*equivalence_case()) == []


def test_equivalence_comparator_reports_separator_of_equivalent_pair():
    inputs, records, facts = equivalence_case()
    records[0]["separators"] = list(records[3]["separators"])
    facts[0] = list(facts[3])
    records[0]["rc"] = 1
    assert W.problems_equivalence(inputs, records, facts)


def test_equivalence_comparator_reports_missing_separator():
    inputs, records, facts = equivalence_case()
    records[3].update(rc=0, separators=[])
    facts[3] = []
    assert W.problems_equivalence(inputs, records, facts)


def test_equivalence_comparator_reports_wrong_observable_side():
    inputs, records, facts = equivalence_case()
    facts[3] = [(True, False)]
    assert W.problems_equivalence(inputs, records, facts)


def test_corpus_terms_keep_their_rule_signatures():
    for seed in range(10):
        for term, (rules, _) in zip(W.corpus_inputs(seed).items, W.CORPUS_SHAPES):
            cfg = W.machine.Config.make(W.machine.Store(), term)
            steps = []
            while len(steps) < W.STEPS and (nxt := W.machine.step(cfg)) is not None:
                cfg, rule = nxt
                steps.append(rule)
            assert "-".join(steps) == rules, (seed, str(term))


# ---------------------------------------------------------------------------
# The checks compute their facts independently of the verdicts
# ---------------------------------------------------------------------------

def test_reduction_check_reports_flipped_verdict():
    inputs = W.Inputs(0, [term("pred (if0 1 then 1 else 0)")], {"k": 1, "depth": 4})
    rnd = W.run_reduction(inputs)
    assert W.check_reduction(inputs, rnd.records, rnd.objects) == []
    rnd.records[0]["equal"] = not rnd.records[0]["equal"]
    assert W.check_reduction(inputs, rnd.records, rnd.objects)


def test_equivalence_check_runs_separators_on_the_machine():
    inputs = W.equivalence_inputs(3)
    inputs.items = [it for it in inputs.items if not it[2]]  # the distinct pair
    inputs.params["tests"] = 20
    rnd = W.run_equivalence(inputs)
    seps = rnd.records[0]["separators"]
    assert seps and W.check_equivalence(inputs, rnd.records, None) == []
    seps[0]["left-observable"] = not seps[0]["left-observable"]
    assert W.check_equivalence(inputs, rnd.records, None)


def test_separator_outcomes_follow_the_machine():
    # y skip ; 0 reaches 0 whatever y returns; if0 (y skip) ... tells 0 from 1
    assert W.separator_outcomes("0", "1", S.NAT, "y?0 skip ; 0") == (True, True)
    assert W.separator_outcomes("0", "1", S.NAT, "if0 y?0 skip then 0 else 1") == (
        True, False,
    )


# ---------------------------------------------------------------------------
# Tracing changes no verdict and restores every binding
# ---------------------------------------------------------------------------

def small_slices():
    red = W.Inputs(0, [term("nu a:[N]. a := 1 ; !a"), term("fst <if0 0 then 1 else 0, 1>")],
                   {"k": 1, "depth": 4})
    syn = W.synthesis_inputs(0)
    syn.items = [it for it in syn.items if it[0] in ("nu a:[N]. a := 1 ; !a", "lambda x:N. succ x")]
    eqv = W.equivalence_inputs(5)
    eqv.items = eqv.items[1:]
    eqv.params["tests"] = 4
    return [(W.run_reduction, red), (W.run_synthesis, syn), (W.run_equivalence, eqv)]


def traced_counts(run, inputs):
    tracer = Tracer().install()
    try:
        rnd = run(inputs)
    finally:
        tracer.uninstall()
    counts = {k: v["value"] for k, v in tracer.metrics().items()
              if v["unit"] in ("count", "ratio")}
    return rnd, counts


def test_tracing_leaves_verdicts_unchanged():
    for run, inputs in small_slices():
        plain = run(inputs)
        traced, counts = traced_counts(run, inputs)
        assert W.verdicts(traced.records) == W.verdicts(plain.records)
        assert sum(counts.values()) > 0


def test_tracing_counts_repeat_and_uninstall_restores():
    originals = (nominal.support, plays.pview, plays.Play.canonical,
                 strategies.Strategy.respond, strategies.viewfunction)
    run, inputs = small_slices()[0]
    first = traced_counts(run, inputs)[1]
    second = traced_counts(run, inputs)[1]
    assert first == second
    assert first["strategies.Strategy.respond.calls"] > 0
    assert (nominal.support, plays.pview, plays.Play.canonical,
            strategies.Strategy.respond, strategies.viewfunction) == originals


def test_metrics_cover_every_per_layer_name():
    names = {n for n, _ in PER_LAYER}
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in bench["per_layer"]}
    assert names <= listed
    tracer = Tracer().install()
    tracer.uninstall()
    assert set(tracer.metrics()) == names


@pytest.mark.parametrize("hash_seeds", [("0", "1")])
def test_traced_counts_do_not_depend_on_hash_seed(hash_seeds, tmp_path):
    """Two traced runs of a workload under two PYTHONHASHSEED values."""
    counts = []
    for hs in hash_seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "--workload", "higher_order",
             "--seed", "1", "--seconds", "0", "--spawned-ns", "0",
             "--trace-out", str(tmp_path / f"h{hs}")],
            env=dict(os.environ, PYTHONHASHSEED=hs), capture_output=True, text=True,
            timeout=170, check=True,
        )
        res = json.loads(out.stdout.strip().splitlines()[-1])
        assert res["problems"] == []
        counts.append({k: v["value"] for k, v in res["per_layer"].items()
                       if v["unit"] in ("count", "ratio")})
    assert counts[0] == counts[1]
