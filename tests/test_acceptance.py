"""Acceptance criteria: one test per criterion, each printing a PASS line
with its runtime and asserting the stated budget."""
import itertools
import random
import time

import pytest

from nurho.arenas import (
    Budget,
    Lift,
    MERGE,
    Move,
    Names,
    NatArena,
    One,
    PAIR,
    STAR,
    STORE0,
    Tensor,
    t_arena,
)
from nurho.machine import Config, Store as TermStore, evaluate, step
from nurho.model import (
    check_diagram,
    correctness_check,
    denote,
    drf,
    eta,
    mu,
    observable,
    sden,
    t_map,
    upd,
)
from nurho.nominal import (
    Atom,
    NameList,
    Permutation,
    apply_perm,
    family_permutations,
    find_strong_support_violation,
    orbit_equal,
    strong_support_combine,
    support,
    SupportPreconditionError,
)
from nurho.plays import (
    Board,
    Entry,
    Play,
    SRC,
    TGT,
    check_play,
    compose_plays,
    composable,
    pview,
    set_tagged_equal,
)
from nurho.strategies import (
    Bang,
    Diagonal,
    Dn,
    LambdaC,
    LambdaInv,
    LiftF,
    NameListProj,
    NatFn,
    Numeral,
    Pairing,
    PathProjection,
    Pu,
    St,
    TensorOf,
    Up,
    assoc_rt,
    classify,
    compose,
    identity,
    legal_o_extensions_of_play,
    random_interaction,
    strategy_equal,
    strategy_leq,
    unit_elim_left,
    viewfunction,
)
from nurho.syntax import (
    Arrow,
    NAT,
    Prod,
    Ref,
    Term,
    UNIT,
    infer,
    parse_term,
    stop_term,
    typecheck,
    y_combinator,
)
from nurho import syntax as S
from nurho.tidy import (
    SynthContext,
    check_tidy,
    decompose,
    restrict,
    synthesize_checked,
)

F11 = Arrow(UNIT, UNIT)
aN, bN = Atom(NAT, 0), Atom(NAT, 1)
BUD = Budget(max_nat=1, atoms=(), fresh_per_family=1, families=(NAT, UNIT))
BUD2 = Budget(max_nat=2, atoms=(), fresh_per_family=1, families=(NAT, UNIT))


def budgeted(limit):
    def wrap(fn):
        number = fn.__name__.split("_")[1]

        def run(*args, **kw):
            t0 = time.time()
            fn(*args, **kw)
            dt = time.time() - t0
            verdict = "PASS" if dt < limit else "FAIL"
            print(f"\nACCEPTANCE {number}: {verdict} ({dt:.2f}s, budget {limit}s)")
            assert dt < limit, f"criterion {number} exceeded {limit}s ({dt:.1f}s)"

        run.__name__ = fn.__name__
        return run

    return wrap


def drive(sigma, rows):
    """Feed a golden play: odd prefixes must get exactly the next entry."""
    entries = [Entry(*r) for r in rows]
    play = Play(sigma.board, tuple(entries))
    for i in range(1, len(entries), 2):
        view = pview(Play(sigma.board, tuple(entries[:i])))
        r = sigma.respond(view)
        assert r is not None, f"silent at {i}: {play.pretty()}"
        got = Entry(r.comp, r.move, r.justifier, r.delta)
        want = entries[i]
        assert (got.comp, got.move, got.justifier) == (
            want.comp,
            want.move,
            want.justifier,
        ), f"at {i}: got {got}, want {want}"
        assert len(got.delta) == len(want.delta)
    return play


# ---------------------------------------------------------------------------
# 1. operational goldens
# ---------------------------------------------------------------------------

@budgeted(1.0)
def test_1_operational_goldens():
    def one_step(src, store=TermStore()):
        term, _ = infer(parse_term(src), names=store.domain())
        out = step(Config.make(store, term))
        assert out is not None
        return out

    cfg, tag = one_step("pred 0")
    assert tag == "PRD" and cfg.term == S.Num(0)
    s2 = TermStore(((aN, None), (bN, None)))
    assert one_step("[N#0 = N#0]", s2)[0].term == S.Num(0)
    assert one_step("[N#0 = N#1]", s2)[0].term == S.Num(1)
    cfg, tag = one_step("if0 0 then 1 else 2")
    assert tag == "IF0" and cfg.term == S.Num(1)
    assert one_step("fst <1, 2>")[1] == "FST"
    assert one_step("snd <1, 2>")[0].term == S.Num(2)
    cfg, tag = one_step("(lambda x:N. succ x) 4")
    assert tag == "LAM" and cfg.term == S.Succ(S.Num(4))
    s1 = TermStore(((aN, S.Num(0)),))
    cfg, tag = one_step("N#0 := 5", s1)
    assert tag == "UPD" and cfg.store.lookup(aN) == S.Num(5)
    cfg, tag = one_step("!N#0", s1)
    assert tag == "DRF" and cfg.term == S.Num(0)
    cfg, tag = one_step("nu c:[N]. [c = c]", s2)
    assert tag == "NEW"
    new_atom = [x for x in cfg.store.domain() if x not in (aN, bN)][0]
    assert new_atom == Atom(NAT, 2)  # least fresh index, fresh for the store

    # add <n, m> via the fixed-point cell
    arr = Arrow(Prod(NAT, NAT), Prod(NAT, NAT))
    body = parse_term(
        "lambda h:" + str(arr) + ". lambda x:N*N. "
        "if0 snd x then x else h <succ fst x, pred snd x>"
    )
    add = S.App(y_combinator(Prod(NAT, NAT)), body)
    for n, m in [(0, 0), (1, 4), (3, 2), (5, 5), (2, 5)]:
        out = evaluate(Config.make(TermStore(), S.App(add, S.Pair(S.Num(n), S.Num(m)))), fuel=900)
        assert out.kind == "value" and out.config.term == S.Pair(S.Num(n + m), S.Num(0))

    out = evaluate(Config.make(TermStore(), stop_term(NAT)), fuel=50)
    assert out.kind == "cycle" and out.steps <= 50


# ---------------------------------------------------------------------------
# 2. nominal-core exhaustive properties
# ---------------------------------------------------------------------------

@budgeted(10.0)
def test_2_nominal_exhaustive():
    fams = ("X", "Y")
    universe = [Atom(f, i) for f in fams for i in range(3)]
    perms = list(family_permutations(universe))  # 36
    elements = [()]
    elements += [(a,) for a in universe]
    elements += [tuple(p) for p in itertools.product(universe, repeat=2)]
    sample2 = elements[:]
    triples = list(itertools.product(universe, repeat=3))
    elements += triples[:: max(1, len(triples) // 120)]
    for x in elements:
        assert apply_perm(Permutation.identity(), x) == x
        assert find_strong_support_violation(x, extra=1) is None
    for p1, p2 in itertools.product(perms, repeat=2):
        comp = p1.compose(p2)
        for x in sample2[:40]:
            assert apply_perm(p1, apply_perm(p2, x)) == apply_perm(comp, x)
    for p in perms:
        for x in elements:
            assert support(apply_perm(p, x)) == frozenset(
                p(a) for a in support(x)
            )
    # the set counterexample against the list
    x, y = Atom("X", 0), Atom("X", 1)
    assert find_strong_support_violation(NameList((x, y))) is None
    bad = find_strong_support_violation(frozenset((x, y)))
    assert bad is not None and apply_perm(bad, frozenset((x, y))) == frozenset((x, y))


# ---------------------------------------------------------------------------
# 3. strong-support combiner vs brute force
# ---------------------------------------------------------------------------

@budgeted(30.0)
def test_3_combiner():
    rng = random.Random(11)
    pool = [Atom("N", i) for i in range(6)]
    perms = list(family_permutations(pool))
    checked = 0
    while checked < 500:
        x1 = tuple(rng.sample(pool, rng.randint(0, 2)))
        y1 = tuple(rng.sample(pool, rng.randint(0, 3)))
        z1 = tuple(rng.sample(pool, rng.randint(0, 3)))
        pi_y, pi_z = rng.choice(perms), rng.choice(perms)
        if apply_perm(pi_y, x1) != apply_perm(pi_z, x1):
            continue
        x2 = apply_perm(pi_y, x1)
        y2, z2 = apply_perm(pi_y, y1), apply_perm(pi_z, z1)
        try:
            pi = strong_support_combine(x1, x2, y1, y2, z1, z2)
        except SupportPreconditionError:
            continue
        checked += 1
        assert pi is not None
        assert apply_perm(pi, (x1, y1, z1)) == (x2, y2, z2)
        assert any(
            apply_perm(q, (x1, y1, z1)) == (x2, y2, z2) for q in perms
        )
    print(f"  combiner validated on {checked} instances", end=" ")


# ---------------------------------------------------------------------------
# 4. play composition at scale
# ---------------------------------------------------------------------------

@budgeted(60.0)
def test_4_play_composition():
    tN = t_arena(sden(NAT, 1), 1)
    t1 = t_arena(One(), 1)
    gN = Names((NAT,))
    pool = [
        (drf(NAT, 1), identity(tN)),
        (drf(NAT, 1), t_map(NatFn(lambda n: n + 1), 1)),
        (upd(NAT, 1), identity(t1)),
        (identity(gN), drf(NAT, 1)),
        (Up(NatArena()), LiftF(NatFn(lambda n: n + 1))),
        (Diagonal(NatArena()), PathProjection(Tensor(NatArena(), NatArena()), ("l",))),
        (eta(sden(NAT, 1), 1), identity(tN)),
        (denote(infer(parse_term("nu a:[N]. a := 1 ; !a"))[0], k=1), identity(tN)),
    ]
    bud = Budget(max_nat=1, atoms=(aN,), fresh_per_family=1, families=(NAT, UNIT))
    rng = random.Random(5)
    composites = {}
    count = 0
    while count < 500:
        sig, tau = pool[count % len(pool)]
        s, t, walk = random_interaction(sig, tau, rng, rng.randint(2, 7), bud)
        if len(s) == 0 and len(t) == 0:
            continue
        count += 1
        assert composable(s, t).ok, (sig.name, tau.name)
        u, st = compose_plays(s, t)
        assert check_play(st).ok, st.pretty()
        assert st.entries == walk.entries
        lhs = support(s) | support(t)
        rhs = support(st) | support(u.mix())
        assert lhs == rhs
        key = (s.canonical()[0].entries, t.canonical()[0].entries)
        val = st.canonical()[0].entries
        assert composites.setdefault(key, val) == val  # list-tagged: no collapse
    # the set-tagged determinacy failure, quarantined
    def new_name_play():
        bd = Board(One(), gN)
        return Play(bd, (
            Entry(SRC, Move((), STAR), None, ()),
            Entry(TGT, Move((), (aN,)), 0, (aN, bN)),
        ))

    def apply_play(answer, asked):
        bd = Board(gN, __import__("nurho.arenas", fromlist=["mk_imp"]).mk_imp(gN, gN))
        delta = (answer,) if answer not in (aN, asked) else ()
        return Play(bd, (
            Entry(SRC, Move((), (aN,)), None, ()),
            Entry(TGT, Move((), STAR), 0, ()),
            Entry(TGT, Move(("j",), (MERGE, (asked,))), 1, ()),
            Entry(TGT, Move(("b",), (answer,)), 2, delta),
        ))

    _, st1 = compose_plays(new_name_play(), apply_play(aN, bN))
    _, st2 = compose_plays(new_name_play(), apply_play(aN, aN))
    pre1, pre2 = (Play(st1.board, st1.entries[:3]) for st1 in (st1, st2))
    assert set_tagged_equal(pre1, pre2) and not orbit_equal(pre1, pre2)
    assert not set_tagged_equal(st1, st2)
    print(f"  {count} composable pairs verified", end=" ")


# ---------------------------------------------------------------------------
# 5. category / monad / comonad laws at depth 6
# ---------------------------------------------------------------------------

@budgeted(120.0)
def test_5_categorical_laws():
    arenas = [One(), NatArena(), Names((NAT,)), t_arena(One(), 1), t_arena(sden(NAT, 1), 1)]
    pool = [
        Numeral(3),
        Up(NatArena()),
        drf(NAT, 1),
        identity(t_arena(One(), 1)),
        eta(NatArena(), 1),
    ]
    for s in pool:
        assert strategy_equal(compose(identity(s.board.src), s), s, 6, BUD)
        assert strategy_equal(compose(s, identity(s.board.tgt)), s, 6, BUD)
    f = Up(NatArena())
    g = LiftF(NatFn(lambda n: n + 1))
    h = Up(Lift(NatArena()))
    assert strategy_equal(
        compose(compose(f, g), h), compose(f, compose(g, h)), 6, BUD
    )
    # lifting monad
    for a in arenas:
        ident = identity(Lift(a))
        assert strategy_equal(compose(Up(Lift(a)), Dn(a)), ident, 6, BUD)
        assert strategy_equal(compose(LiftF(Up(a)), Dn(a)), ident, 6, BUD)
        assert strategy_equal(
            compose(Dn(Lift(a)), Dn(a)), compose(LiftF(Dn(a)), Dn(a)), 6, BUD
        )
    for a in [t_arena(One(), 1), Lift(NatArena())]:  # pointed arenas
        assert strategy_equal(compose(Up(a), Pu(a)), identity(a), 6, BUD)
    assert strategy_equal(Pu(Lift(NatArena())), Dn(NatArena()), 6, BUD)
    # strength unit square
    assert strategy_equal(
        compose(TensorOf(identity(NatArena()), Up(One())), St(NatArena(), One())),
        Up(Tensor(NatArena(), One())),
        6,
        BUD,
    )
    # comonad: epsilon/delta laws and the chain rule
    sig3 = (NAT, NAT, UNIT)
    for a in [One(), NatArena()]:
        n3 = Names(sig3)
        p = Tensor(n3, a)
        delta = compose(
            TensorOf(Diagonal(n3), identity(a)), assoc_rt(n3, n3, a)
        )
        eps_outer = PathProjection(Tensor(n3, Tensor(n3, a)), ("r",))
        assert strategy_equal(compose(delta, eps_outer), identity(p), 6, BUD)
        p_eps = TensorOf(identity(n3), PathProjection(Tensor(n3, a), ("r",)))
        assert strategy_equal(compose(delta, p_eps), identity(p), 6, BUD)
        pi21 = TensorOf(NameListProj((0, 1), n3), identity(a))
        pi10 = TensorOf(NameListProj((0,), Names((NAT, NAT))), identity(a))
        pi20 = TensorOf(NameListProj((0,), n3), identity(a))
        assert strategy_equal(compose(pi21, pi10), pi20, 6, BUD)
    assert check_diagram("N1", k=1, depth=6, ty=NAT)
    assert check_diagram("N2-left", k=1, depth=6, ty=NAT, ty2=NAT, budget=BUD)
    assert check_diagram("N2-right", k=1, depth=6, ty=NAT, ty2=UNIT, budget=BUD)
    # currying: inverse and naturality samples
    f2 = compose(
        PathProjection(Tensor(NatArena(), NatArena()), ("r",)), Up(NatArena())
    )
    lam = LambdaC(f2)
    assert strategy_equal(LambdaInv(lam, f2.board.tgt), f2, 8, BUD)
    pre = TensorOf(NatFn(lambda n: n + 1), identity(NatArena()))
    assert strategy_equal(
        compose(NatFn(lambda n: n + 1), LambdaC(f2)),
        LambdaC(compose(pre, f2)),
        8,
        BUD,
    )


# ---------------------------------------------------------------------------
# 6. store-model diagrams at depth 8
# ---------------------------------------------------------------------------

@budgeted(120.0)
def test_6_store_diagrams():
    assert check_diagram("NR-1", k=1, depth=8, ty=NAT, budget=BUD)
    assert check_diagram("NR-2", k=1, depth=8, ty=NAT, budget=BUD)
    assert check_diagram("NR-3", k=1, depth=8, ty=NAT, ty2=UNIT, budget=BUD)
    assert check_diagram("SNR", k=1, depth=8, ty=UNIT, ty2=UNIT, budget=BUD)
    for a in [One(), sden(NAT, 1)]:
        ta = t_arena(a, 1)
        assert strategy_equal(compose(eta(ta, 1), mu(a, 1)), identity(ta), 8, BUD)
        assert strategy_equal(compose(t_map(eta(a, 1), 1), mu(a, 1)), identity(ta), 8, BUD)
        assert strategy_equal(
            compose(mu(ta, 1), mu(a, 1)),
            compose(t_map(mu(a, 1), 1), mu(a, 1)),
            8,
            BUD,
        )


# ---------------------------------------------------------------------------
# 7. denotation goldens (the worked translations)
# ---------------------------------------------------------------------------

@budgeted(60.0)
def test_7_denotation_goldens():
    # stop: a bare point and silence at the store opener
    d = denote(stop_term(UNIT), k=1)
    vf = viewfunction(d, 8, BUD)
    assert len(vf) == 1
    only = next(iter(vf.plays.values()))
    assert [e.move.pay for e in only.entries] == [(PAIR, STAR, STAR), STAR]

    NN = Prod(NAT, NAT)
    t1, _ = infer(parse_term("nu a:[N*N]. a := <fst !a, snd !a>"))
    s1 = denote(t1, k=1)
    init = (PAIR, STAR, STAR)
    opener = Move(("j",), (MERGE, STORE0))
    probe = Play(s1.board, (
        Entry(SRC, Move((), init), None, ()),
        Entry(TGT, Move((), STAR), 0, ()),
        Entry(TGT, opener, 1, ()),
    ))
    r = s1.respond(probe)
    assert r.move.addr == ("a", "q") and len(r.delta) == 1
    a = r.delta[0]
    assert a.family == NN
    rows = [
        (SRC, Move((), init), None, ()),
        (TGT, Move((), STAR), 0, ()),
        (TGT, opener, 1, ()),
        (TGT, Move(("a", "q"), a), 2, (a,)),
        (TGT, Move(("a", "v", NN), (PAIR, 1, 0)), 3, ()),
        (TGT, Move(("a", "q"), a), 2, ()),
        (TGT, Move(("a", "v", NN), (PAIR, 0, 1)), 5, ()),
        (TGT, Move(("b",), (PAIR, STAR, STORE0)), 2, ()),
        (TGT, Move(("b", "r", "q"), a), 7, ()),
        (TGT, Move(("b", "r", "v", NN), (PAIR, 1, 1)), 8, ()),  # <fst r1, snd r2>
    ]
    drive(s1, rows)

    b = Atom(F11, 0)
    names = NameList([b])
    t2, _ = infer(parse_term("1->1#0 := lambda x:1. (!(1->1#0)) skip"), names=names)
    s2 = denote(t2, names, k=3)
    init2 = (PAIR, (b,), STAR)
    call = (MERGE, (PAIR, STAR, STORE0))
    rows2 = [
        (SRC, Move((), init2), None, ()),
        (TGT, Move((), STAR), 0, ()),
        (TGT, opener, 1, ()),
        (TGT, Move(("b",), (PAIR, STAR, STORE0)), 2, ()),
        (TGT, Move(("b", "r", "q"), b), 3, ()),
        (TGT, Move(("b", "r", "v", F11), STAR), 4, ()),
        (TGT, Move(("b", "r", "v", F11, "j"), call), 5, ()),
        (TGT, Move(("b", "r", "v", F11, "a", "r", "q"), b), 6, ()),
        (TGT, Move(("b", "r", "v", F11, "a", "r", "v", F11), STAR), 7, ()),
        (TGT, Move(("b", "r", "v", F11, "a", "r", "v", F11, "j"), call), 8, ()),
    ]
    drive(s2, rows2)

    t3, _ = infer(parse_term("(!(1->1#0)) skip"), names=names)
    s3 = denote(t3, names, k=2)
    rows3 = [
        (SRC, Move((), init2), None, ()),
        (TGT, Move((), STAR), 0, ()),
        (TGT, opener, 1, ()),
        (TGT, Move(("a", "q"), b), 2, ()),
        (TGT, Move(("a", "v", F11), STAR), 3, ()),
        (TGT, Move(("a", "v", F11, "j"), call), 4, ()),
        (TGT, Move(("a", "v", F11, "b"), (PAIR, STAR, STORE0)), 5, ()),
        (TGT, Move(("b",), (PAIR, STAR, STORE0)), 2, ()),
    ]
    drive(s3, rows3)


# ---------------------------------------------------------------------------
# 8. correctness along reduction on a generated corpus
# ---------------------------------------------------------------------------

def gen_closed_term(rng: random.Random, size: int) -> Term:
    """A small well-typed closed term of ground type."""
    def nat(sz, env):
        opts = [lambda: S.Num(rng.randint(0, 1))]
        if sz > 0:
            opts += [
                lambda: S.Succ(nat(sz - 1, env)),
                lambda: S.Pred(nat(sz - 1, env)),
                lambda: S.If0(nat(sz - 2, env), nat(sz - 2, env), nat(sz - 2, env)),
                lambda: S.App(S.Lam("x", NAT, S.Succ(S.Var(0))), nat(sz - 2, env)),
                lambda: S.Fst(S.Pair(nat(sz - 2, env), nat(sz - 2, env))),
            ]
            if env:
                opts.append(lambda: with_cell(sz, env))
        return rng.choice(opts)()

    def with_cell(sz, env):
        a = env[0]
        body = [
            lambda: S.seq(S.Assign(S.Name(a), nat(sz - 3, env)), S.Deref(S.Name(a))),
            lambda: S.Deref(S.Name(a)),
            lambda: S.If0(S.Deref(S.Name(a)), nat(sz - 3, env), S.Num(0)),
        ]
        return rng.choice(body)()

    a = Atom(NAT, 10)
    shape = rng.random()
    if shape < 0.45:
        return S.alpha_normal(
            S.Nu(a, S.seq(S.Assign(S.Name(a), nat(2, [])), nat(size - 4, [a])))
        )
    return S.alpha_normal(nat(size, []))


@budgeted(300.0)
def test_8_correctness_corpus():
    rng = random.Random(23)
    seen = set()
    corpus = []
    while len(corpus) < 100:
        t = gen_closed_term(rng, rng.randint(2, 6))
        if t in seen:
            continue
        seen.add(t)
        try:
            typecheck(NameList(), [], t)
        except Exception:
            continue
        corpus.append(t)
    steps_checked = 0
    for t in corpus:
        cfg = Config.make(TermStore(), t)
        for _ in range(5):
            rep = correctness_check(cfg, k=1, depth=6, budget=BUD)
            if rep is None:
                break
            assert rep.equal, (
                f"{t} at rule {rep.rule} clause {rep.clause}\n" + "\n".join(rep.diffs)
            )
            steps_checked += 1
            cfg = step(cfg)[0]
    assert steps_checked >= 150
    print(f"  {steps_checked} reduction steps validated", end=" ")


# ---------------------------------------------------------------------------
# 9. tidiness: primitives, composites, mutants
# ---------------------------------------------------------------------------

@budgeted(120.0)
def test_9_tidiness():
    tN = t_arena(sden(NAT, 1), 1)
    for s in [identity(t_arena(One(), 1)), drf(NAT, 1), upd(NAT, 1)]:
        assert check_tidy(s, bound=10, budget=BUD).ok, s.name
    for src in ["nu a:[N]. a := 1 ; !a", "0", "skip", "nu a:[N]. 0"]:
        t, _ = infer(parse_term(src))
        assert check_tidy(denote(t, k=1), bound=10, budget=BUD).ok, src
    # 200 composites of tidy pairs stay tidy
    sig_pool = [
        drf(NAT, 1),
        compose(drf(NAT, 1), t_map(NatFn(lambda n: n + 1, "succ"), 1)),
        denote(infer(parse_term("nu a:[N]. !a"))[0], k=1),
        denote(infer(parse_term("nu a:[N]. a := 0 ; !a"))[0], k=1),
        upd(NAT, 1),
    ]
    tau_pool = {
        str(tN): [
            identity(tN),
            t_map(NatFn(lambda n: n + 1, "succ"), 1),
            t_map(NatFn(lambda n: max(0, n - 1), "pred"), 1),
            compose(t_map(eta(sden(NAT, 1), 1), 1), mu(sden(NAT, 1), 1)),
        ],
        str(t_arena(One(), 1)): [
            identity(t_arena(One(), 1)),
            compose(t_map(eta(One(), 1), 1), mu(One(), 1)),
        ],
    }
    checked = 0
    failures = []
    while checked < 200:
        sig = sig_pool[checked % len(sig_pool)]
        taus = tau_pool[str(sig.board.tgt)]
        tau = taus[(checked // len(sig_pool)) % len(taus)]
        rep = check_tidy(compose(sig, tau), bound=6, budget=BUD)
        if not rep.ok:
            failures.append((sig.name, tau.name, rep.violations[:1]))
        checked += 1
    assert not failures, failures[:2]
    # one seeded mutant per condition
    from nurho.strategies import Response, Strategy, TableStrategy

    base = upd(NAT, 1)
    vf = viewfunction(base, 8, BUD)
    plays = []
    for p in vf.plays.values():
        entries = list(p.entries)
        if len(entries) >= 6 and entries[5].move.addr[:3] == ("b", "r", "v"):
            entries[5] = Entry(
                entries[5].comp, entries[5].move, entries[5].justifier, (Atom(NAT, 7),)
            )
        plays.append(Play(p.board, tuple(entries)))
    td1 = TableStrategy(base.board, plays, name="mutant-td1")
    assert any(v.condition == "TD1" for v in check_tidy(td1, 6, BUD).violations)

    based = drf(NAT, 1)

    class BadTD2(Strategy):
        def respond_raw(self, view):
            r = based.respond(view)
            if r is not None and r.move.addr == ("a", "q") and len(view) == 3:
                return Response(r.comp, r.move, 1, r.delta)
            return r

    assert any(
        v.condition == "TD2"
        for v in check_tidy(BadTD2(based.board, "m2"), 4, BUD).violations
    )

    class BadTD3(Strategy):
        def respond_raw(self, view):
            last = view.entries[-1]
            if len(view) >= 7 and last.move.addr == ("a", "v", NAT):
                return Response(
                    TGT, Move(("b", "r", "v", NAT), 0 if last.move.pay else 1),
                    len(view) - 3,
                )
            return base.respond(view)

    assert any(
        v.condition == "TD3"
        for v in check_tidy(BadTD3(base.board, "m3"), 8, BUD).violations
    )
    print(f"  200 composites tidy; 3 mutants caught", end=" ")


# ---------------------------------------------------------------------------
# 10. definability round-trip
# ---------------------------------------------------------------------------

@budgeted(300.0)
def test_10_definability():
    corpus = [
        "stop:1",
        "stop:N",
        "0",
        "1",
        "2",
        "skip",
        "<0, 1>",
        "<skip, 0>",
        "<1, <0, skip>>",
        "succ 1",
        "pred 2",
        "if0 0 then 1 else 0",
        "if0 1 then 0 else 2",
        "nu a:[N]. 0",
        "nu a:[N]. nu b:[N]. 1",
        "nu a:[N]. a := 1 ; 0",
        "nu a:[N]. a := 0 ; !a",
        "nu a:[N]. a := 1 ; !a",
        "nu a:[N]. a := 1 ; succ !a",
        "nu a:[1]. a := skip ; 0",
        "lambda x:1. x",
        "lambda x:N. x",
        "lambda x:N. succ x",
        "lambda x:N. 3",
        "lambda x:N*N. fst x",
        "lambda x:1. stop:1",
        "(lambda x:N. x) 1",
        "fst <2, 0>",
        "snd <skip, 1>",
        "nu a:[N]. if0 !(nu b:[N]. b := 0 ; b) then 1 else 2",
    ]
    assert len(corpus) == 30
    done = 0
    for src in corpus:
        term, ty = infer(parse_term(src))
        sigma = denote(term, k=2)
        vf = viewfunction(sigma, 8, BUD)
        longest = sorted(vf.plays.values(), key=len)[-1]
        restricted = restrict(sigma, longest)
        cert = synthesize_checked(restricted, NameList(), (), ty, 2, 8, BUD)
        assert cert.equal, f"{src} -> {cert.term}\n" + "\n".join(cert.diffs)
        done += 1
    assert done == 30
    # decompose-then-recombine on one instance per case
    ctx = lambda names, gamma, out: SynthContext(
        NameList(names), tuple(gamma), out, 2, 8, BUD
    )
    t, _ = infer(parse_term("nu a:[N]. 0"))
    case = decompose(denote(t, k=2), ctx((), (), NAT), selected=True)
    assert case.kind == "fresh" and strategy_equal(
        case.recombined, denote(t, k=2), 6, BUD
    )
    names = NameList([aN])
    t2, _ = infer(parse_term("(lambda y:N. succ y) !(N#0)"), names=names)
    case2 = decompose(denote(t2, names, k=2), ctx((aN,), (), NAT), selected=True)
    assert case2.kind == "read" and strategy_equal(
        case2.recombined, denote(t2, names, k=2), 8, BUD
    )
    t3, _ = infer(parse_term("N#0 := 2 ; 0"), names=names)
    case3 = decompose(denote(t3, names, k=2), ctx((aN,), (), NAT), selected=True)
    assert case3.kind == "write" and strategy_equal(
        case3.recombined, denote(t3, names, k=2), 8, BUD
    )
    lam, _ = infer(
        parse_term("lambda x:[N]. if0 [x = N#0] then 1 else 2"), names=names
    )
    sigma4 = denote(lam.body, names, (Ref(NAT),), k=2)
    case4 = decompose(sigma4, ctx((aN,), (Ref(NAT),), NAT))
    assert case4.kind == "split" and strategy_equal(case4.recombined, sigma4, 6, BUD)
    print(f"  30 round-trips + 4 case recombinations", end=" ")


# ---------------------------------------------------------------------------
# 11. the worked equivalence
# ---------------------------------------------------------------------------

@budgeted(180.0)
def test_11_worked_equivalence():
    from nurho.cli import TermGen, _lam_hat
    from nurho.strategies import unit_intro_left

    m, ty = infer(parse_term("lambda f:(1->1). stop:1"))
    n, ty2 = infer(parse_term("lambda f:(1->1). f skip ; stop:1"))
    assert ty == ty2 == Arrow(F11, UNIT)
    k = 2
    dm, dn = denote(m, k=k), denote(n, k=k)
    assert strategy_leq(dm, dn, 8, BUD)
    assert not strategy_leq(dn, dm, 8, BUD)
    arrow = Arrow(UNIT, ty)
    lm = _lam_hat(dm, NameList(), arrow, k)
    ln = _lam_hat(dn, NameList(), arrow, k)
    unit_fix = TensorOf(identity(One()), unit_intro_left(sden(arrow, k)))
    gen = TermGen(0, ty)
    checked = 0
    sampled_classes = 0
    while checked < 200:
        l_term = S.alpha_normal(gen.gen(2))
        try:
            typecheck(NameList(), [arrow], l_term)
        except Exception:
            continue
        rho = denote(l_term, NameList(), (arrow,), k)
        if checked < 3:
            cls = classify(rho, depth=6, budget=BUD)
            assert cls.total
            sampled_classes += 1
        checked += 1
        om = observable(compose(lm, unit_fix, rho))
        on = observable(compose(ln, unit_fix, rho))
        assert om == on or (on and not om) is False, l_term
        assert not (om and not on), f"separator: {l_term}"
        assert not (on and not om), f"separator: {l_term}"
    # the well-bracketing obstruction: a test that has called the function
    # (and seen it call its argument) cannot answer the outer observation
    # while those questions are pending
    rho_board = Board(sden(ty, k), t_arena(NatArena(), k))
    call = (MERGE, (PAIR, STAR, STORE0))
    candidate = Play(rho_board, (
        Entry(SRC, Move((), STAR), None, ()),
        Entry(TGT, Move((), STAR), 0, ()),
        Entry(TGT, Move(("j",), (MERGE, STORE0)), 1, ()),
        Entry(SRC, Move(("j",), call), 0, ()),
        Entry(SRC, Move(("a", "l", "j"), call), 3, ()),
        Entry(TGT, Move(("b",), (PAIR, 0, STORE0)), 2, ()),
    ))
    verdict = check_play(candidate, mode="plain")
    assert any(v.condition == "bracketing" for v in verdict.violations), str(verdict)
    # and the denotation of N never answers the second call's question
    probe = Play(dn.board, (
        Entry(SRC, Move((), (PAIR, STAR, STAR)), None, ()),
        Entry(TGT, Move((), STAR), 0, ()),
        Entry(TGT, Move(("j",), (MERGE, STORE0)), 1, ()),
        Entry(TGT, Move(("b",), (PAIR, STAR, STORE0)), 2, ()),
        Entry(TGT, Move(("b", "l", "j"), (MERGE, (PAIR, STAR, STORE0))), 3, ()),
    ))
    r = dn.respond(probe)
    assert r is not None  # N calls its argument: f skip
    nxt = probe.append(r).append(
        Entry(TGT, Move(r.move.addr[:-1] + ("b",), (PAIR, STAR, STORE0)), 5, ())
    )
    assert dn.respond(nxt) is None  # then deadlocks: stop
    print(f"  200 tests, no separator; obstruction demonstrated", end=" ")
