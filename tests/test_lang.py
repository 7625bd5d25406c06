import pytest

from nurho.machine import Config, Outcome, Store, canonical_config, evaluate, step, store_term
from nurho.nominal import Atom, NameList, orbit_equal
from nurho.syntax import (
    App,
    Arrow,
    Assign,
    Deref,
    EqTest,
    Fst,
    If0,
    Lam,
    NAT,
    Name,
    Nu,
    Num,
    Pair,
    Pred,
    Prod,
    Ref,
    Skip,
    Snd,
    Stop,
    Succ,
    Term,
    TypecheckError,
    UNIT,
    Unit,
    Var,
    alpha_eq,
    infer,
    is_value,
    parse_term,
    parse_type,
    pretty,
    seq,
    stop_term,
    typecheck,
    y_combinator,
)

aN = Atom(NAT, 0)
bN = Atom(NAT, 1)


class TestParse:
    def test_skip(self):
        assert parse_term("skip") == Skip()

    def test_nu_assign(self):
        t = parse_term("nu a:[N]. a := 1")
        assert isinstance(t, Nu)
        assert t.atom.family == NAT
        assert t.body == Assign(Name(t.atom), Num(1))

    def test_section_57_term(self):
        t = parse_term("lambda f. f skip ; stop")
        assert isinstance(t, Lam) and t.ty is None
        body = t.body
        assert isinstance(body, App) and isinstance(body.fn, Lam)
        assert body.arg == App(Var(0), Skip())
        assert isinstance(body.fn.body, Stop)

    def test_atom_literals(self):
        assert parse_term("N#3") == Name(Atom(NAT, 3))
        assert parse_term("[N]#0") == Name(Atom(Ref(NAT), 0))
        assert parse_term("1->1#2") == Name(Atom(Arrow(UNIT, UNIT), 2))

    def test_eq_vs_reftype(self):
        t = parse_term("[N#0 = N#1]")
        assert t == EqTest(Name(aN), Name(bN))

    def test_numbers_and_app(self):
        t = parse_term("(lambda x:N. succ x) 4")
        assert t == App(Lam("x", NAT, Succ(Var(0))), Num(4))

    def test_pair_projections(self):
        t = parse_term("fst <1, 2>")
        assert t == Fst(Pair(Num(1), Num(2)))

    def test_errors_carry_position(self):
        from nurho.syntax import ParseError

        with pytest.raises(ParseError) as e:
            parse_term("lambda x. ")
        assert e.value.line == 1

    def test_types(self):
        assert parse_type("1->1") == Arrow(UNIT, UNIT)
        assert parse_type("[N]*N->1") == Arrow(Prod(Ref(NAT), NAT), UNIT)

    def test_roundtrip_through_printer(self):
        samples = [
            "nu a:[N]. a := 1 ; !a",
            "lambda f:(1->1). f skip ; stop",
            "if0 pred 1 then <1, 2> else <0, 0>",
            "nu y:[N]. (lambda x:[N]. [x = y]) y",
            "(lambda x:N. succ x) 4",
        ]
        for src in samples:
            t, _ = infer(parse_term(src))
            t2, _ = infer(parse_term(pretty(t)))
            assert alpha_eq(t, t2), src


class TestTypecheck:
    def test_skip_unit(self):
        assert typecheck(NameList(), [], Skip()) == UNIT

    def test_name_axiom(self):
        assert typecheck(NameList([aN]), [], Name(aN)) == Ref(NAT)
        with pytest.raises(TypecheckError):
            typecheck(NameList(), [], Name(aN))

    def test_update_value_type_mismatch(self):
        with pytest.raises(TypecheckError):
            typecheck(NameList([aN]), [], Assign(Name(aN), Skip()))

    def test_big_rules(self):
        t, ty = infer(parse_term("lambda f:(1->1). f skip ; stop"))
        assert ty == Arrow(Arrow(UNIT, UNIT), UNIT)
        assert typecheck(NameList(), [], t) == ty

    def test_y_combinator_type(self):
        ty = typecheck(NameList(), [], y_combinator(NAT))
        arr = Arrow(NAT, NAT)
        assert ty == Arrow(Arrow(arr, arr), arr)

    def test_stop_infers_expected(self):
        t, ty = infer(Stop(None), expected=NAT)
        assert ty == NAT
        assert typecheck(NameList(), [], t) == NAT


def run(src_or_term, store=Store(), fuel=200, expected=None):
    if isinstance(src_or_term, str):
        term, _ = infer(parse_term(src_or_term), names=store.domain())
    else:
        term = src_or_term
    cfg = Config.make(store, term, expected)
    return evaluate(cfg, fuel=fuel)


class TestStep:
    def test_pred_zero(self):
        out = run("pred 0")
        assert out.kind == "value" and out.config.term == Num(0)

    def test_eq_both_branches(self):
        s = Store(((aN, None), (bN, None)))
        assert run("[N#0 = N#0]", s).config.term == Num(0)
        assert run("[N#0 = N#1]", s).config.term == Num(1)

    def test_deref_unassigned_sticks(self):
        s = Store(((aN, None),))
        out = run("!N#0", s)
        assert out.kind == "stuck"

    def test_new_picks_least_fresh(self):
        cfg = Config.make(Store(((aN, None),)), parse_term("nu a:[N]. skip"))
        nxt, tag = step(cfg)
        assert tag == "NEW"
        assert nxt.store.domain() == NameList([aN, bN])

    def test_value_steps_zero(self):
        out = run("<1, 2>")
        assert out.kind == "value" and out.steps == 0

    def test_update_then_deref(self):
        out = run("nu a:[N]. a := 7 ; !a")
        assert out.kind == "value" and out.config.term == Num(7)

    def test_stop_cycles(self):
        t, _ = infer(Stop(UNIT))
        out = run(t, fuel=50)
        assert out.kind == "cycle"
        assert out.steps <= 50

    def test_subject_reduction_along_traces(self):
        progs = [
            "nu a:[N]. a := 2 ; succ !a",
            "(lambda p:N*N. <snd p, fst p>) <1, 2>",
            "if0 0 then (nu a:[1]. nu b:[1]. [a = b]) else 1",
        ]
        for src in progs:
            term, ty = infer(parse_term(src))
            cfg = Config.make(Store(), term)
            for _ in range(50):
                nxt = step(cfg)
                if nxt is None:
                    break
                cfg = nxt[0]
                assert typecheck(cfg.store.domain(), [], cfg.term) == ty

    def test_determinism_up_to_freshness(self):
        cfg = Config.make(Store(), parse_term("nu a:[N]. [a = a]"))
        c1 = step(cfg)[0]
        c2 = step(cfg)[0]
        assert orbit_equal(c1, c2)

    def test_equivariance_of_step(self):
        from nurho.nominal import Permutation, apply_perm

        s = Store(((aN, Num(5)),))
        cfg = Config.make(s, parse_term("!N#0"))
        pi = Permutation.swap(aN, Atom(NAT, 9))
        stepped = step(cfg)[0]
        stepped_pi = step(apply_perm(pi, cfg))[0]
        assert apply_perm(pi, stepped) == stepped_pi


class TestEvalExamples:
    def test_add_example(self):
        # add <n, m> evaluates to <n+m, 0> with the recursion cell in store
        arr = Arrow(Prod(NAT, NAT), Prod(NAT, NAT))
        add_src = (
            "lambda x:N*N. if0 snd x then x else "
            "h <succ fst x, pred snd x>"
        )
        body = parse_term("lambda h:" + str(arr) + ". " + add_src)
        add = App(y_combinator(Prod(NAT, NAT)), body)
        assert typecheck(NameList(), [], add) == arr
        for n, m in [(0, 0), (2, 3), (5, 1)]:
            out = run(App(add, Pair(Num(n), Num(m))), fuel=500)
            assert out.kind == "value"
            assert out.config.term == Pair(Num(n + m), Num(0))
            entries = out.config.store.entries
            assert len(entries) == 1 and entries[0][1] is not None

    def test_store_term(self):
        assert store_term(Store()) == Skip()
        assert store_term(Store(((aN, None),))) == Skip()
        one = store_term(Store(((aN, Num(1)),)))
        assert one == seq(Assign(Name(aN), Num(1)), Skip())

    def test_cycle_not_fuel(self):
        t, _ = infer(Stop(NAT))
        out = run(t, fuel=1000)
        assert out.kind == "cycle"


# ---------------------------------------------------------------------------
# Typing digest: typecheck's and infer's verdicts on generated terms, their
# one-edit mutants and parsed sources, under empty and non-empty contexts.
# ---------------------------------------------------------------------------

OUT_OF_SCOPE = Atom(NAT, 9)

DIGEST_SOURCES = [
    "nu a:[N]. nu a:[N]. a := 1 ; !a",
    "nu a:[N]. a := 1 ; nu a:[N]. !a",
    "nu a:[N]. (nu a:[N]. a := 2) ; !a",
    "nu a:[N]. a := 1 ; !a",
    "nu a:[N]. nu b:[N]. [a = b]",
    "nu a:[N->N]. a := (lambda x. succ x) ; (!a) 1",
    "nu a:[1->1]. a := (lambda x:1. x) ; (!a) skip",
    "N#0 := 2 ; !N#0",
    "nu a:[N]. [a = N#0]",
    "pred N#0",
    "pred N#3",
    "<N#3, pred skip>",
    "nu a:[N]. a := skip",
    "succ skip",
    "(lambda x:N. x) skip",
    "lambda f. f skip ; stop",
    "lambda f:(1->1). f skip ; stop:1",
    "if0 skip then 1 else 2",
    "if0 0 then skip else 2",
    "if0 N#3 then 1 else skip",
    "fst 1",
    "snd <1, skip>",
    "[1 = 2]",
    "[N#0 = [N]#1]",
    "!skip",
    "skip := 1",
    "N#1 := skip",
    "lambda x. x x",
    "stop:N",
    "(lambda x. x) stop",
    "N#3",
]


def _typing_verdicts(t, names, env, expected=None):
    """typecheck's type or exception class, and infer's elaborated term and
    type or exception class and position.  Any exception typecheck lets
    escape is recorded, so a change of class shows."""
    try:
        checked = repr(typecheck(names, list(env), t))
    except Exception as e:
        checked = type(e).__name__
    try:
        inferred = repr(infer(t, names, list(env), expected))
    except TypecheckError as e:
        inferred = f"{type(e).__name__} {e.pos}"
    return f"{checked} | {inferred}"


def _one_edit_mutants(t):
    """t with one subterm replaced by skip, 0, a name out of scope or stop,
    or with one lambda's annotation dropped."""
    from dataclasses import fields, replace

    yield from (Skip(), Num(0), Name(OUT_OF_SCOPE), Stop())
    if isinstance(t, Lam) and t.ty is not None:
        yield replace(t, ty=None)
    for f in fields(t):
        sub = getattr(t, f.name)
        if f.name != "pos" and isinstance(sub, Term):
            for m in _one_edit_mutants(sub):
                yield replace(t, **{f.name: m})


def test_typing_digest():
    """typecheck's and infer's verdicts on generated terms, their one-edit
    mutants and parsed sources, each under an empty and a non-empty
    context: types, elaborated terms, and each error's class and, for
    infer, position."""
    import hashlib
    import random

    from nurho.cli import TermGen
    from test_acceptance import gen_closed_term

    names = NameList([Atom(NAT, 0), Atom(Arrow(UNIT, NAT), 0)])
    groups = []
    rng, closed = random.Random(23), []
    while len(closed) < 150:
        t = gen_closed_term(rng, rng.randint(2, 6))
        if t not in closed:
            closed.append(t)
    groups.append((closed, [NAT]))
    for b_ty in (UNIT, NAT, Arrow(UNIT, UNIT)):
        gen = TermGen(5, b_ty)
        groups.append(([gen.gen(2) for _ in range(30)], [NAT, Arrow(UNIT, b_ty)]))
    lines = []
    for terms, env in groups:
        for t in terms:
            for m in [t, *_one_edit_mutants(t)]:
                lines.append(repr(m))
                for ctx in ((NameList(), []), (names, env)):
                    lines.append(_typing_verdicts(m, *ctx))
    for src in DIGEST_SOURCES:
        t = parse_term(src)
        lines.append(src)
        for ctx in ((NameList(), []), (names, [NAT])):
            for expected in (None, NAT):
                lines.append(_typing_verdicts(t, *ctx, expected))
    assert len(lines) == 30713
    got = hashlib.md5("\n".join(lines).encode()).hexdigest()
    assert got == "dba859372d87b5c2611d789bd5a641ee"
