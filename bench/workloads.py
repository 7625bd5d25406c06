"""The benchmark's four workloads: inputs from a seed, timed verdicts, checks.

Each workload has three parts:

* ``make_inputs(seed)`` builds the inputs.  It runs inside the timed set-up,
  since it parses, infers and typechecks terms.
* ``run(inputs)`` computes the verdicts and returns a ``Round``: one JSON
  record per verdict with its times, the round's wall time, and the Python
  values the checks need, such as synthesized terms.
* ``check(inputs, records, objects)`` runs after the timed part.  It
  computes independent facts and then calls the pure comparator
  ``problems_<workload>``.  The comparator returns
  one string for each property that does not hold.

Program functions are called through their module (``model.denote`` rather
than a name imported from it), so that the traced run's wrappers see every
call.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import re
from dataclasses import dataclass

from nurho import arenas, cli, machine, model, strategies, tidy
from nurho import syntax as S
from nurho.arenas import Budget
from nurho.nominal import NameList
from nurho.syntax import NAT, UNIT
from speed import METER

BUD = Budget(max_nat=1, atoms=(), fresh_per_family=1, families=(NAT, UNIT))
STEPS = 5  # reduction steps checked per term
FUEL = 500  # machine.evaluate fuel in the checks


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    seed: int
    items: list  # per workload: terms, (source, term, type) or pairs
    params: dict


def cold_caches() -> None:
    """Empty the process-global caches, as a fresh `nurho` process has them.

    The strategies' memos and `_vf_cache`s belong to strategies that only
    the denotation cache keeps alive, so the collection frees them too.
    """
    model._DEN_CACHE.clear()
    model.sden.cache_clear()
    arenas.translate_type.cache_clear()
    gc.collect()


class Round:
    """The verdict records of one round and its wall time.

    A round is made of units (a term, a source, a pair).  Each unit starts
    from cold caches, so its cost does not depend on the units before it.
    A record holds ``raw_s``, the verdict's wall time, and ``s``, the same
    time at the reference speed (``speed.Speedometer``), both without the
    speed samples' own time.  ``wall`` sums ``s``, ``raw_wall`` sums
    ``raw_s``; both leave out the resets.  The speedometer must be started.
    """

    def __init__(self):
        self.records: list = []
        self.objects: list = []
        self.wall = 0.0
        self.raw_wall = 0.0

    def unit(self) -> None:
        cold_caches()

    def verdict(self, record: dict, fn):
        """Run one verdict and store its record with its times.

        A verdict that raises is stored with ``"failed": True`` and the
        error, and None is returned.
        """
        mark = METER.mark()
        try:
            value = fn()
        except Exception as e:  # a failing verdict is counted, not fatal
            record.update(failed=True, error=f"{type(e).__name__}: {e}")
            value = None
        else:
            record["failed"] = False
        raw, record["s"] = METER.since(mark)
        record["raw_s"] = raw
        self.wall += record["s"]
        self.raw_wall += raw
        self.records.append(record)
        return value


def outcome(term: S.Term) -> list:
    """The machine's result for a closed term: ["value", printed value],
    or ["diverges", ""] for a cycle or exhausted fuel, or ["stuck", term]."""
    out = machine.evaluate(machine.Config.make(machine.Store(), term), fuel=FUEL)
    if out.kind == "value":
        return ["value", str(out.config.term)]
    if out.kind in ("cycle", "fuel"):
        return ["diverges", ""]
    return ["stuck", str(out.config.term)]


def reaches_zero(term: S.Term) -> bool:
    return outcome(term) == ["value", "0"]


def verdicts(records: list) -> list:
    """The records without their times: what traced and untraced runs share."""
    return [{k: v for k, v in r.items() if k not in ("s", "raw_s")} for r in records]


# ---------------------------------------------------------------------------
# corpus and higher_order: correctness along reduction
# ---------------------------------------------------------------------------

# The corpus terms: three shapes that test_8's generator (`gen_closed_term`
# in tests/test_acceptance.py) makes, with the machine rules of their first
# STEPS reductions.  The seed draws every numeral from {0, 1}, as the
# generator does, and with them the branches taken; the rules stay the same
# (test_bench.py checks them).  The cost of checking a term follows its shape
# and rules, so fixed shapes keep a round's cost nearly the same from seed to
# seed.  Two terms allocate a cell and one reads it back (DRF); one is pure.
# With these three the median verdict falls between the DRF and FST steps,
# not on the edge between the cheap pure steps and the costly cell steps.
CORPUS_SHAPES = (
    ("NEW-FST-UPD-LAM", "nu a:[N]. a := fst <{}, {}> ; {}"),
    ("NEW-IF0-UPD-LAM-DRF",
     "nu a:[N]. a := (if0 {} then {} else {}) ; (if0 !a then {} else {})"),
    ("IF0-LAM-SUC", "(lambda x:N. succ x) (if0 {} then {} else {})"),
)


def parsed(src: str) -> S.Term:
    """A closed source term, parsed, inferred and typechecked."""
    term, _ = S.infer(S.parse_term(src))
    S.typecheck(NameList(), [], term)
    return term


def corpus_inputs(seed: int) -> Inputs:
    rng = random.Random(seed)
    terms = []
    for _, shape in CORPUS_SHAPES:
        numerals = [rng.randint(0, 1) for _ in range(shape.count("{}"))]
        terms.append(parsed(shape.format(*numerals)))
    return Inputs(seed, terms, {"k": 1, "depth": 6})


# Higher-order store: references holding functions.  The seed fills in the
# function bodies and numerals; the shapes are fixed.  At k=1 the DRF step of
# `nu a:[N->N]. a := (lambda x:N. succ x) ; (!a) 1` is reported unequal (see
# CHANGES.md), so this runs at k=2.  Depth 4: at depth 6 one term takes
# 14-19 s on 2 CPUs, more than a round can hold.
HIGHER_ORDER_SHAPES = (
    "nu a:[N->N]. a := (lambda x:N. {op} x) ; (!a) {n}",
    "nu a:[1->N]. a := (lambda x:1. {n}) ; <(!a) skip, {m}>",
)


def higher_order_inputs(seed: int) -> Inputs:
    rng = random.Random(seed)
    terms = []
    for shape in HIGHER_ORDER_SHAPES:
        src = shape.format(
            op=rng.choice(["pred", "succ"]),
            n=rng.randint(0, 2),
            m=rng.randint(0, 1),
        )
        terms.append(parsed(src))
    return Inputs(seed, terms, {"k": 2, "depth": 4})


def run_reduction(inputs: Inputs) -> Round:
    """One verdict per model.correctness_check step, up to STEPS per term."""
    k, depth = inputs.params["k"], inputs.params["depth"]
    rnd = Round()
    for i, term in enumerate(inputs.items):
        rnd.unit()
        cfg = machine.Config.make(machine.Store(), term)
        for n in range(STEPS):
            nxt = machine.step(cfg)
            if nxt is None:
                break
            rep = rnd.verdict(
                {"term": i, "step": n, "rule": nxt[1]},
                lambda: model.correctness_check(cfg, k=k, depth=depth, budget=BUD),
            )
            if rep is None:
                break
            rnd.records[-1]["equal"] = rep.equal
            cfg = nxt[0]
    return rnd


def check_reduction(inputs: Inputs, records: list, objects) -> list:
    k = inputs.params["k"]
    facts = [
        {
            "observable": model.observable(model.denote(t, k=k)),
            "machine_zero": reaches_zero(t),
        }
        for t in inputs.items
    ]
    return problems_reduction(inputs, records, facts)


def problems_reduction(inputs: Inputs, records: list, facts: list) -> list:
    """Soundness: every checked step is equal; the model's observability of
    each term agrees with the machine reaching the numeral 0."""
    out = []
    for r in records:
        if not r["failed"] and r.get("equal") is not True:
            out.append(f"term {r['term']} step {r['step']} ({r['rule']}) not equal")
    for i, f in enumerate(facts):
        if f["observable"] != f["machine_zero"]:
            out.append(
                f"term {i}: observable={f['observable']} but machine reaches 0: "
                f"{f['machine_zero']}"
            )
    return out


# ---------------------------------------------------------------------------
# synthesis: the definability round trip
# ---------------------------------------------------------------------------

# test_10's corpus.  The seed sets the order in which the round trips run.
SYNTHESIS_CORPUS = (
    "stop:1", "stop:N", "0", "1", "2", "skip", "<0, 1>", "<skip, 0>",
    "<1, <0, skip>>", "succ 1", "pred 2", "if0 0 then 1 else 0",
    "if0 1 then 0 else 2", "nu a:[N]. 0", "nu a:[N]. nu b:[N]. 1",
    "nu a:[N]. a := 1 ; 0", "nu a:[N]. a := 0 ; !a", "nu a:[N]. a := 1 ; !a",
    "nu a:[N]. a := 1 ; succ !a", "nu a:[1]. a := skip ; 0", "lambda x:1. x",
    "lambda x:N. x", "lambda x:N. succ x", "lambda x:N. 3",
    "lambda x:N*N. fst x", "lambda x:1. stop:1", "(lambda x:N. x) 1",
    "fst <2, 0>", "snd <skip, 1>",
    "nu a:[N]. if0 !(nu b:[N]. b := 0 ; b) then 1 else 2",
)


def synthesis_inputs(seed: int) -> Inputs:
    order = list(SYNTHESIS_CORPUS)
    random.Random(seed).shuffle(order)
    items = []
    for src in order:
        term, ty = S.infer(S.parse_term(src))
        S.typecheck(NameList(), [], term)
        items.append((src, term, ty))
    return Inputs(seed, items, {"k": 2, "depth": 8})


def run_synthesis(inputs: Inputs) -> Round:
    """One verdict per round trip: denote, enumerate, restrict, synthesize."""
    k, depth = inputs.params["k"], inputs.params["depth"]
    rnd = Round()

    def round_trip(term, ty):
        sigma = model.denote(term, k=k)
        vf = strategies.viewfunction(sigma, depth, BUD)
        longest = sorted(vf.plays.values(), key=len)[-1]
        restricted = tidy.restrict(sigma, longest)
        return tidy.synthesize_checked(restricted, NameList(), (), ty, k, depth, BUD)

    for src, term, ty in inputs.items:
        rnd.unit()
        cert = rnd.verdict({"source": src}, lambda: round_trip(term, ty))
        rnd.objects.append(None if cert is None else cert.term)
        if cert is not None:
            rnd.records[-1].update(term=str(cert.term), equal=cert.equal)
    return rnd


def is_ground(ty: S.Type) -> bool:
    if isinstance(ty, (S.Unit, S.Nat)):
        return True
    return isinstance(ty, S.Prod) and is_ground(ty.left) and is_ground(ty.right)


def check_synthesis(inputs: Inputs, records: list, objects: list) -> list:
    facts = []
    for (src, term, ty), synth in zip(inputs.items, objects):
        if synth is None or not is_ground(ty):
            facts.append(None)
        else:
            facts.append({"source": outcome(term), "synthesized": outcome(synth)})
    return problems_synthesis(inputs, records, facts)


def problems_synthesis(inputs: Inputs, records: list, facts: list) -> list:
    """Every certificate is equal; a ground-type synthesized term evaluates
    to the same value as its source."""
    out = []
    for r, f in zip(records, facts):
        if r["failed"]:
            continue
        if r.get("equal") is not True:
            out.append(f"{r['source']}: certificate not equal ({r.get('term')})")
        if f is not None and f["source"] != f["synthesized"]:
            out.append(
                f"{r['source']}: source gives {f['source']}, "
                f"synthesized {r.get('term')} gives {f['synthesized']}"
            )
    if len(records) != len(inputs.items):
        out.append(f"{len(records)} round trips for {len(inputs.items)} sources")
    return out


# ---------------------------------------------------------------------------
# equivalence: the CLI's bounded observational harness
# ---------------------------------------------------------------------------

# (M, N, equivalent), known apart from the program: the worked pair, two
# allocations that are never observed, and two distinct numerals.  With 40
# tests, `nurho equiv 0 1 --seed 104` finds no separator (see CHANGES.md);
# with 120 it found 13 or more on each of 75 seeds tried.  The workload runs
# 160, the first 120 of them the same tests.
EQUIVALENCE_PAIRS = (
    ("lambda f:(1->1). stop:1", "lambda f:(1->1). f skip ; stop:1", True),
    ("nu a:[N]. a := 1 ; !a", "1", True),
    ("nu a:[N]. 0", "0", True),
    ("0", "1", False),
)
EQUIVALENCE_TESTS = 160  # test terms per pair


def equivalence_inputs(seed: int) -> Inputs:
    """Each pair with its type and its own CLI --seed.  Pairs of one type
    given one CLI seed would get the same tests, and their costs would rise
    and fall together from seed to seed."""
    items = []
    for i, (m, n, equivalent) in enumerate(EQUIVALENCE_PAIRS):
        _, m_ty = S.infer(S.parse_term(m))
        _, n_ty = S.infer(S.parse_term(n))
        if m_ty != n_ty:
            raise ValueError(f"pair {m} / {n}: types {m_ty} and {n_ty} differ")
        items.append((m, n, equivalent, m_ty, seed * len(EQUIVALENCE_PAIRS) + i))
    return Inputs(seed, items, {"tests": EQUIVALENCE_TESTS})


def run_equivalence(inputs: Inputs) -> Round:
    """One verdict per in-process `nurho equiv M N --json` call."""
    rnd = Round()

    def equiv(m, n, cli_seed):
        buf = io.StringIO()
        argv = ["equiv", m, n, "--json", "--tests", str(inputs.params["tests"]),
                "--seed", str(cli_seed)]
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, json.loads(buf.getvalue())

    for i, (m, n, _, _, cli_seed) in enumerate(inputs.items):
        rnd.unit()
        out = rnd.verdict({"pair": i}, lambda: equiv(m, n, cli_seed))
        if out is not None:
            rc, payload = out
            rnd.records[-1].update(rc=rc, tests=payload["tests"],
                                   separators=payload["separators"])
    return rnd


def separator_outcomes(m: str, n: str, ty: S.Type, test: str) -> tuple[bool, bool]:
    """Run the test L against M and N on the machine: whether
    (lambda y. L) (lambda u. M) and (lambda y. L) (lambda u. N) reach 0."""
    body = re.sub(r"\by\?\d+", "y", test)
    sides = []
    for side in (m, n):
        src = f"(lambda y:(1 -> ({ty})). {body}) (lambda u:1. {side})"
        term, _ = S.infer(S.parse_term(src))
        sides.append(reaches_zero(term))
    return sides[0], sides[1]


def check_equivalence(inputs: Inputs, records: list, objects) -> list:
    facts = []
    for r in records:
        if r["failed"]:
            facts.append(None)
            continue
        m, n, _, ty, _ = inputs.items[r["pair"]]
        facts.append([separator_outcomes(m, n, ty, s["test"]) for s in r["separators"]])
    return problems_equivalence(inputs, records, facts)


def problems_equivalence(inputs: Inputs, records: list, facts: list) -> list:
    """Equivalent pairs report no separator, the distinct pair at least one;
    each separator reaches 0 on the machine exactly on the side the CLI
    reports observable."""
    out = []
    for r, f in zip(records, facts):
        if r["failed"]:
            continue
        m, n, equivalent, _, _ = inputs.items[r["pair"]]
        seps = r["separators"]
        if equivalent and (seps or r["rc"] != 0):
            out.append(f"{m} / {n}: equivalent but {len(seps)} separators, rc {r['rc']}")
        if not equivalent and (not seps or r["rc"] != 1):
            out.append(f"{m} / {n}: distinct but no separator, rc {r['rc']}")
        for s, (zm, zn) in zip(seps, f):
            if (zm, zn) != (s["left-observable"], s["right-observable"]):
                out.append(
                    f"{m} / {n}: test {s['test']} reports "
                    f"{s['left-observable']}/{s['right-observable']}, machine {zm}/{zn}"
                )
    if len(records) != len(inputs.items):
        out.append(f"{len(records)} equiv calls for {len(inputs.items)} pairs")
    return out


# ---------------------------------------------------------------------------

WORKLOADS = {
    "corpus": (corpus_inputs, run_reduction, check_reduction),
    "higher_order": (higher_order_inputs, run_reduction, check_reduction),
    "synthesis": (synthesis_inputs, run_synthesis, check_synthesis),
    "equivalence": (equivalence_inputs, run_equivalence, check_equivalence),
}
