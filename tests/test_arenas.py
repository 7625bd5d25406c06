import pytest

from nurho.arenas import (
    AnyAtomP,
    Budget,
    DepthExceeded,
    ForeignMove,
    Imp,
    INITIAL,
    Lift,
    Move,
    Names,
    NatArena,
    One,
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
    store_arena,
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
            store_arena(1),
        ]
        for a in zoo:
            assert check_wellformed(a, BUD) == [], str(a)


class TestStoreArena:
    def test_depth_zero_questions_have_no_answers(self):
        xi = store_arena(0)
        q = Move(("q",), aN)
        assert xi.justifies(Move((), STORE0), q)
        assert list(enum_schemas(xi.children(q), BUD)) == []

    def test_depth_one_numeric_answers(self):
        xi = store_arena(1)
        q = Move(("q",), aN)
        kids = list(enum_schemas(xi.children(q), BUD))
        assert Move(("v", NAT), 0) in kids
        assert Move(("v", NAT), 2) in kids

    def test_labels(self):
        xi = store_arena(1)
        assert xi.label(Move((), STORE0)) == ("P", "A")
        assert xi.label(Move(("q",), aN)) == ("O", "Q")
        assert xi.label(Move(("v", NAT), 1)) == ("P", "A")

    def test_any_family_questions(self):
        xi = store_arena(1)
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
            assert arena_leq(store_arena(k), store_arena(k + 1), k=1)

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
