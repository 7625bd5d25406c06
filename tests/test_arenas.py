import hashlib

import pytest

from nurho.arenas import (
    AnyAtomP,
    Budget,
    DepthExceeded,
    ForeignMove,
    Imp,
    INITIAL,
    Lift,
    MERGE,
    Move,
    Names,
    NatArena,
    One,
    PAIR,
    STAR,
    STAR1,
    STAR2,
    STORE0,
    STORE_A,
    STORE_H,
    STORE_Q,
    Store,
    Tensor,
    Zero,
    arena_leq,
    arena_query,
    check_wellformed,
    classify_store_move,
    describe,
    enum_schemas,
    mk_merge,
    mk_names,
    mk_tensor,
    p_arena,
    sden,
    t_arena,
    translate_type,
)
from nurho.nominal import Atom
from nurho.syntax import Arrow, NAT, Prod, Ref, UNIT

aN = Atom(NAT, 0)
bN = Atom(NAT, 1)
BUD = Budget(max_nat=2, atoms=(aN,), fresh_per_family=1, families=(NAT,))


class TestBasicArenas:
    def test_unit_initials(self):
        q = arena_query(One())
        moves = list(enum_schemas(q["initials"], BUD))
        assert moves == [Move((), STAR)]
        assert One().label(moves[0]) == ("P", "A")

    def test_lift_of_nat(self):
        a = Lift(NatArena())
        star2 = Move(("u",), STAR2)
        q = arena_query(a, star2)
        assert q["label"] == ("O", "Q")
        kids = list(enum_schemas(q["children"], BUD))
        assert Move(("a",), 0) in kids and Move(("a",), 2) in kids

    def test_merge_into_flat_collapses(self):
        assert mk_merge(Lift(One()), NatArena()) == NatArena()
        assert mk_merge(Zero(), Lift(One())) == Lift(One())

    def test_merge_of_merge_becomes_tensor_source(self):
        inner = mk_merge(NatArena(), Lift(One()))
        outer = mk_merge(Names((NAT,)), inner)
        assert outer == Imp(Tensor(Names((NAT,)), NatArena()), One())

    def test_names_distinctness(self):
        a = Names((NAT, NAT))
        ok = Move((), (aN, bN))
        bad = Move((), (aN, aN))
        assert a.has_move(ok) and not a.has_move(bad)

    def test_foreign_move_rejected(self):
        with pytest.raises(ForeignMove):
            arena_query(One(), Move((), 3))


class TestTypeTranslation:
    def test_unit_all_depths(self):
        for k in range(4):
            assert translate_type(UNIT, k) == One()

    def test_ref_is_names(self):
        assert translate_type(Ref(NAT), 3) == Names((NAT,))

    def test_arrow_at_depth_zero_is_unit(self):
        assert translate_type(Arrow(UNIT, UNIT), 0) == One()

    def test_arrow_shape(self):
        a = translate_type(Arrow(NAT, UNIT), 1)
        assert a == Imp(Tensor(NatArena(), Store(1)), Tensor(One(), Store(1)))

    def test_product_keeps_depth(self):
        a = translate_type(Prod(Arrow(UNIT, UNIT), NAT), 1)
        assert isinstance(a, Tensor) and isinstance(a.left, Imp)

    def test_wellformed(self):
        zoo = [
            One(),
            NatArena(),
            Names((NAT,)),
            Lift(NatArena()),
            t_arena(One(), 1),
            translate_type(Arrow(NAT, NAT), 2),
            p_arena((NAT,), NatArena()),
            Store(1),
        ]
        for a in zoo:
            assert check_wellformed(a, BUD) == [], str(a)


class TestStoreArena:
    def test_depth_zero_questions_have_no_answers(self):
        xi = Store(0)
        q = Move(("q",), aN)
        assert xi.justifies(Move((), STORE0), q)
        assert list(enum_schemas(xi.children(q), BUD)) == []

    def test_depth_one_numeric_answers(self):
        xi = Store(1)
        q = Move(("q",), aN)
        kids = list(enum_schemas(xi.children(q), BUD))
        assert Move(("v", NAT), 0) in kids
        assert Move(("v", NAT), 2) in kids

    def test_labels(self):
        xi = Store(1)
        assert xi.label(Move((), STORE0)) == ("P", "A")
        assert xi.label(Move(("q",), aN)) == ("O", "Q")
        assert xi.label(Move(("v", NAT), 1)) == ("P", "A")

    def test_any_family_questions(self):
        xi = Store(1)
        arrow_atom = Atom(Arrow(UNIT, UNIT), 0)
        assert xi.has_move(Move(("q",), arrow_atom))


class TestArenaOrder:
    def test_reflexive(self):
        a = translate_type(Arrow(NAT, NAT), 2)
        assert arena_leq(a, a)

    def test_one_not_leq_lift_one(self):
        assert not arena_leq(One(), Lift(One()))

    def test_chain_monotone(self):
        types = [
            UNIT,
            NAT,
            Ref(NAT),
            Arrow(UNIT, UNIT),
            Arrow(NAT, Arrow(UNIT, NAT)),
            Prod(Arrow(UNIT, UNIT), Ref(NAT)),
        ]
        for t in types:
            for k in range(3):
                lo, hi = translate_type(t, k), translate_type(t, k + 1)
                assert arena_leq(lo, hi), (t, k)
                assert arena_leq(lo, hi, k=1), (t, k)
        for k in range(3):
            assert arena_leq(Store(k), Store(k + 1), k=1)

    def test_hidden_lemma_d0_leq1_d1(self):
        t = Arrow(UNIT, UNIT)
        assert arena_leq(translate_type(t, 0), translate_type(t, 1), k=1)


class TestDepthPolicies:
    """The approximant (store values) and the saturated translation
    (denotations) differ only in the depth of an arrow's components."""

    N_TN = Imp(Tensor(NatArena(), Store(1)), Tensor(NatArena(), Store(1)))

    def test_higher_order_arrow_at_depth_one(self):
        t = Arrow(Arrow(NAT, NAT), NAT)
        assert translate_type(t, 1) == Imp(
            Tensor(One(), Store(1)), Tensor(NatArena(), Store(1))
        )
        assert sden(t, 1) == Imp(
            Tensor(self.N_TN, Store(1)), Tensor(NatArena(), Store(1))
        )

    def test_first_order_arrow_agrees_at_depth_one(self):
        assert translate_type(Arrow(NAT, NAT), 1) == self.N_TN
        assert sden(Arrow(NAT, NAT), 1) == self.N_TN

    def test_only_the_approximant_cuts_arrows_at_depth_zero(self):
        assert translate_type(Arrow(NAT, NAT), 0) == One()
        assert sden(Arrow(NAT, NAT), 0) == Imp(
            Tensor(NatArena(), Store(0)), Tensor(NatArena(), Store(0))
        )


class TestStoreMoveClasses:
    def test_t1_examples(self):
        t1 = t_arena(One(), 1)
        star = Move((), STAR)
        opener = Move(("j",), ("▷", STORE0))
        answer = Move(("b",), ("⊗", STAR, STORE0))
        q = Move(("a", "q"), aN)
        assert classify_store_move(t1, star) == INITIAL
        assert classify_store_move(t1, opener) == STORE_H
        assert classify_store_move(t1, answer) == STORE_H
        assert classify_store_move(t1, q) == STORE_Q
        value = Move(("a", "v", NAT), 3)
        assert classify_store_move(t1, value) == STORE_A

    def test_partition_covers_tnat(self):
        board = t_arena(NatArena(), 1)
        frontier = list(enum_schemas(board.initials(), BUD))
        seen = set()
        while frontier:
            m = frontier.pop()
            if m in seen or board.level(m) > 5:
                continue
            seen.add(m)
            classify_store_move(board, m)  # must not raise, exactly one class
            try:
                frontier.extend(enum_schemas(board.children(m), BUD))
            except DepthExceeded:
                pass
        assert len(seen) > 10


def test_describe_runs():
    out = describe(t_arena(One(), 1))
    assert "⇒" in out and "⊛" in out


# ---------------------------------------------------------------------------
# Every arena query, pinned
# ---------------------------------------------------------------------------

N_N = Arrow(NAT, NAT)
DIGEST_TYPES = (UNIT, NAT, Ref(NAT), Ref(N_N), N_N, Arrow(N_N, NAT),
                Prod(NAT, Arrow(UNIT, NAT)))
DIGEST_BUDGET = Budget(max_nat=1, atoms=(aN,), fresh_per_family=1, families=(NAT, N_N))
TAGS = ("l", "r", "a", "b", "j", "u", "q", "v")
PAYS = (STAR, STAR1, STAR2, STORE0, 7, aN, (MERGE, STAR), (PAIR, STAR, STORE0))


def digest_arenas():
    out = [a for t in DIGEST_TYPES for k in range(3)
           for a in (translate_type(t, k), sden(t, k), t_arena(sden(t, k), k))]
    out += [Store(k) for k in range(3)]
    out += [Lift(Lift(NatArena())),
            Imp(Lift(NatArena()), Store(1)),
            Imp(Tensor(Names((NAT,)), Store(1)), Imp(NatArena(), One()))]
    return list(dict.fromkeys(out))


def enumerated(a, max_level=5, cap=150):
    """Moves of `a` in breadth-first order, to `max_level`, at most `cap`."""
    out, seen = [], set()
    frontier = list(enum_schemas(a.initials(), DIGEST_BUDGET))
    while frontier and len(out) < cap:
        m = frontier.pop(0)
        if m in seen:
            continue
        seen.add(m)
        out.append(m)
        if a.level(m) < max_level:
            try:
                frontier.extend(enum_schemas(a.children(m), DIGEST_BUDGET))
            except DepthExceeded:
                pass
    return out


def mutations(m):
    """Moves one edit away from m: an address step added, dropped or
    replaced, a value component put in front, another payload, or a part of
    a pair or merged payload put at its component's address."""
    addr, pay = m.addr, m.pay
    out = [Move(addr + ("a",), pay), Move(addr + ("x",), pay),
           Move(("v", "x") + addr, pay), Move(("v", NAT) + addr, pay)]
    if addr:
        out.append(Move(addr[:-1], pay))
        out += [Move((t,) + addr[1:], pay) for t in TAGS if t != addr[0]]
    if isinstance(pay, tuple) and pay[:1] == (PAIR,):
        out += [Move(addr + ("l",), pay[1]), Move(addr + ("r",), pay[2])]
    if isinstance(pay, tuple) and pay[:1] == (MERGE,):
        out.append(Move(addr[:-1] + ("a",), pay[1]))
    out += [Move(addr, p) for p in PAYS if p != pay]
    return out


def answer(f, *args):
    try:
        return repr(f(*args))
    except (ForeignMove, DepthExceeded) as e:
        return type(e).__name__


def query_lines(a, m, probes=()):
    if not a.has_move(m):
        return [f"{m} foreign initial={answer(a.is_initial, m)} "
                f"class={answer(classify_store_move, a, m)}"]
    kids = answer(a.children, m)
    just = kids
    if kids.startswith("["):
        just = "".join("1" if a.justifies(m, p) else "0" for p in probes)
    return [f"{m} label={answer(a.label, m)} level={answer(a.level, m)} "
            f"initial={answer(a.is_initial, m)} class={answer(classify_store_move, a, m)}",
            f"  children={kids} justifies={just}"]


def test_arena_queries_digest():
    """has_move, label, level, children, is_initial, justifies and
    classify_store_move on the moves of 43 arenas to level 5 and on every
    mutation of them.  A mutation the arena rejects records only has_move,
    is_initial and the class."""
    lines, probed = [], 0
    for a in digest_arenas():
        lines.append(str(a))
        moves = enumerated(a)
        for m in moves:
            edits = mutations(m)
            lines += query_lines(a, m, edits + moves[:20])
            for p in edits:
                lines += query_lines(a, p)
            probed += 1 + len(edits)
    assert probed == 16488
    got = hashlib.md5("\n".join(lines).encode()).hexdigest()
    assert got == "07e0305c376ba1f4c21f46d7707d3c5f"


def test_foreign_moves_have_no_label_level_or_children():
    """Where has_move is False, label, level and children raise: ForeignMove,
    or DepthExceeded for a value move of a depth-0 store."""
    arenas = digest_arenas() + [Tensor(NatArena(), Lift(One()))]
    untyped_question = Move(("q",), Atom("x", 0))  # a family that is not a type
    for k in range(3):
        assert not Store(k).has_move(untyped_question), k
    arenas += [Store(k) for k in range(3)]
    for a in arenas:
        probes = [Move((), 7), Move(("l",), 0), Move(("q",), 7), untyped_question]
        probes += [p for m in enumerated(a, cap=60) for p in mutations(m)]
        for p in probes:
            if a.has_move(p):
                continue
            for query in (a.label, a.level, a.children):
                with pytest.raises((ForeignMove, DepthExceeded)) as e:
                    query(p)
                assert e.type is ForeignMove or "v" in p.addr, (a, p, query)
