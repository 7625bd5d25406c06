import hashlib
import random
import sys

import pytest

from nurho.arenas import (
    ForeignMove,
    MERGE,
    PAIR,
    STORE0,
    Budget,
    Imp,
    Lift,
    Move,
    Names,
    NatArena,
    One,
    STAR,
    STAR1,
    STAR2,
    Store,
    Tensor,
    mk_merge,
    t_arena,
    translate_type,
)
from nurho.nominal import Atom, Permutation, apply_perm, atoms_of, canonical_perm, support
from nurho.plays import (
    Board, Entry, IEntry, Interaction, Play, SRC, TGT, check_play, compose_plays, hide,
    is_innocent_play, pview, view_indices,
)
from nurho.strategies import (
    Bang,
    Binom,
    ChainStrategy,
    CndStrategy,
    CompositionBudget,
    Copycat,
    Diagonal,
    DrfStrategy,
    Dn,
    EqStrat,
    Ev,
    LambdaC,
    LambdaInv,
    LiftF,
    MachineStrategy,
    NameListProj,
    NatFn,
    NewName,
    Numeral,
    OracleError,
    Pairing,
    PathProjection,
    Projection,
    Pu,
    SeparateHead,
    St,
    Strategy,
    TableStrategy,
    TensorOf,
    TotalRestrict,
    Up,
    UpdStrategy,
    ZonedTransform,
    assoc_lt,
    assoc_rt,
    classify,
    compose,
    determinacy_fuzz,
    ev,
    identity,
    random_interaction,
    strat_of_viewf,
    strategy_equal,
    strategy_leq,
    symm,
    unit_elim_left,
    unit_elim_right,
    unit_intro_left,
    viewfunction,
)
from nurho import model, strategies
from nurho.model import denote, eta, ev_t, sden
from nurho.nominal import NameList
from nurho.syntax import NAT, UNIT, Arrow, infer, parse_term
from nurho.tidy import SynthContext, decompose, value_case_strategy

aN, bN = Atom(NAT, 0), Atom(NAT, 1)
BUD = Budget(max_nat=2, atoms=(aN,), fresh_per_family=1, families=(NAT,))
GN = Names((NAT,))


def eq6(s1, s2, depth=6, budget=BUD):
    return strategy_equal(s1, s2, depth, budget)


def run_view(sigma, *entries):
    """Feed an odd view built from (comp, move, justifier, delta?) rows."""
    rows = [Entry(*e) for e in entries]
    return sigma.respond(Play(sigma.board, tuple(rows)))


class TestBasics:
    def test_numeral_table(self):
        vf = viewfunction(Numeral(7), 4, Budget(max_nat=8))
        plays = list(vf.plays.values())
        assert len(plays) == 1
        assert [e.move.pay for e in plays[0].entries] == [STAR, 7]

    def test_bang(self):
        vf = viewfunction(Bang(NatArena()), 4, BUD)
        assert all(p.entries[-1].move.pay == STAR for p in vf.plays.values())

    def test_name_projection(self):
        src = Names((NAT, NAT))
        pi = NameListProj((0,), src)
        r = run_view(pi, (SRC, Move((), (aN, bN)), None))
        assert r.move.pay == (aN,)
        drop = NameListProj((), src)
        r2 = run_view(drop, (SRC, Move((), (aN, bN)), None))
        assert r2.move.pay == STAR

    def test_eq_answers(self):
        e = EqStrat(Tensor(GN, GN))
        r_same = run_view(e, (SRC, Move((), ("⊗", (aN,), (aN,))), None))
        r_diff = run_view(e, (SRC, Move((), ("⊗", (aN,), (bN,))), None))
        assert r_same.move.pay == 0 and r_diff.move.pay == 1

    def test_identity_on_nat(self):
        i = identity(NatArena())
        r = run_view(i, (SRC, Move((), 5), None))
        assert r.move == Move((), 5) and r.justifier == 0

    def test_copycat_deep(self):
        a = Lift(NatArena())
        i = identity(a)
        vf = viewfunction(i, 8, BUD)
        # the full copycat unfolding reaches the numerals on both sides
        lens = {len(p) for p in vf.plays.values()}
        assert 6 in lens
        for p in vf.plays.values():
            assert is_innocent_play(p)


class TestComposition:
    def test_id_then_numeral(self):
        n = Numeral(3)
        comp = compose(identity(One()), n)
        assert eq6(comp, n)

    def test_id_left_right(self):
        for s in [Numeral(2), identity(Lift(NatArena())), Up(NatArena())]:
            assert eq6(compose(Copycat(Board(s.board.src, s.board.src)), s), s)
            assert eq6(compose(s, Copycat(Board(s.board.tgt, s.board.tgt))), s)

    def test_associativity_samples(self):
        f = Up(NatArena())  # N -> lift N
        g = LiftF(NatFn(lambda n: n + 1))  # lift N -> lift N
        h = Up(Lift(NatArena()))  # lift N -> lift lift N
        assert eq6(compose(compose(f, g), h), compose(f, compose(g, h)), depth=8)

    def test_projections_after_pairing(self):
        f, g = Numeral(1), Numeral(2)
        pair = Pairing(f, g)
        p1 = PathProjection(pair.board.tgt, ("l",))
        p2 = PathProjection(pair.board.tgt, ("r",))
        assert eq6(compose(pair, p1), f)
        assert eq6(compose(pair, p2), g)

    def test_diagonal_projection(self):
        d = Diagonal(NatArena())
        p1 = PathProjection(d.board.tgt, ("l",))
        assert eq6(compose(d, p1), identity(NatArena()))


class TestLiftingMonad:
    def test_up_then_pu(self):
        a = Lift(NatArena())  # pointed arena
        assert eq6(compose(Up(a), Pu(a)), identity(a))

    def test_pu_of_lift_is_dn(self):
        a = NatArena()
        assert eq6(Pu(Lift(a)), Dn(a), depth=8)

    def test_monad_unit_laws(self):
        a = NatArena()
        # up_lift;dn = id and lift(up);dn = id on lift(a)
        left = compose(Up(Lift(a)), Dn(a))
        right = compose(LiftF(Up(a)), Dn(a))
        ident = identity(Lift(a))
        assert eq6(left, ident, depth=8)
        assert eq6(right, ident, depth=8)

    def test_monad_assoc(self):
        a = One()
        lhs = compose(Dn(Lift(a)), Dn(a))
        rhs = compose(LiftF(Dn(a)), Dn(a))
        assert eq6(lhs, rhs, depth=10)

    def test_strength_unit_square(self):
        a, b = NatArena(), One()
        lhs = compose(TensorOf(identity(a), Up(b)), St(a, b))
        rhs = Up(Tensor(a, b))
        assert eq6(lhs, rhs, depth=8)

    def test_lift_functor_total(self):
        f = LiftF(Numeral(4))
        cls = classify(f, depth=6, budget=BUD)
        assert cls.ttotal


class TestExponentials:
    def test_lambda_inverse_roundtrip(self):
        # f : N ⊗ N -> lift(N): strict pairing-eater built from copycat bits
        f = compose(PathProjection(Tensor(NatArena(), NatArena()), ("r",)),
                    Up(NatArena()))
        lam = LambdaC(f)
        back = LambdaInv(lam, f.board.tgt)
        assert eq6(back, f, depth=8)

    def test_lambda_beta(self):
        f = compose(PathProjection(Tensor(NatArena(), NatArena()), ("l",)),
                    Up(NatArena()))
        lam_tensor_id = TensorOf(LambdaC(f), identity(NatArena()))
        beta = compose(lam_tensor_id, ev(NatArena(), f.board.tgt))
        assert eq6(beta, f, depth=8)

    def test_ev_shape(self):
        e = ev(NatArena(), Lift(NatArena()))
        assert isinstance(e.board.src, Tensor)
        assert determinacy_fuzz(e, 6, BUD) is None


class TestNames:
    def test_new_plays_fresh_atom(self):
        new = NewName((), NAT, One())
        vf = viewfunction(new, 6, BUD)
        finals = [p for p in vf.plays.values() if len(p) == 4]
        assert finals, "new must reach its fresh-name answer"
        for p in finals:
            last = p.entries[-1]
            assert last.delta and last.delta[0].family == NAT
            assert last.move.pay[1] == (last.delta[0],)

    def test_binom(self):
        b = Binom((NAT,), (0, None), (None, NAT))
        r = run_view(
            b,
            (SRC, Move((), (aN,)), None),
            (TGT, Move((), "*1"), 0),
            (TGT, Move(("u",), "*2"), 1),
        )
        assert r.move.pay[0] == aN and r.move.pay[1].family == NAT
        assert r.delta == (r.move.pay[1],)

    def test_update_serves_written_value(self):
        upd = UpdStrategy(NAT, 1)
        vf = viewfunction(upd, 8, BUD)
        served = [
            p
            for p in vf.plays.values()
            if len(p) == 6 and p.entries[5].move.addr[:3] == ("b", "r", "v")
        ]
        assert served
        for p in served:
            assert p.entries[5].move.pay == p.entries[0].move.pay[2]

    def test_update_copycats_other_names(self):
        upd = UpdStrategy(NAT, 1)
        init = Move((), ("⊗", (aN,), 5))
        r = run_view(
            upd,
            (SRC, init, None),
            (TGT, Move((), STAR), 0),
            (TGT, Move(("j",), ("▷", "⊛")), 1),
            (TGT, Move(("b",), ("⊗", STAR, "⊛")), 2),
            (TGT, Move(("b", "r", "q"), bN), 3),
        )
        assert r.move == Move(("a", "q"), bN) and r.justifier == 2

    def test_deref_asks_then_answers(self):
        drf = DrfStrategy(NAT, 1)
        r1 = run_view(
            drf,
            (SRC, Move((), (aN,)), None),
            (TGT, Move((), STAR), 0),
            (TGT, Move(("j",), ("▷", "⊛")), 1),
        )
        assert r1.move == Move(("a", "q"), aN)
        r2 = run_view(
            drf,
            (SRC, Move((), (aN,)), None),
            (TGT, Move((), STAR), 0),
            (TGT, Move(("j",), ("▷", "⊛")), 1),
            (TGT, Move(("a", "q"), aN), 2),
            (TGT, Move(("a", "v", NAT), 7), 3),
        )
        assert r2.move == Move(("b",), ("⊗", 7, "⊛")) and r2.justifier == 2

    def test_cnd_dispatch(self):
        ta = t_arena(NatArena(), 1)
        cnd = CndStrategy(NatArena(), 1)
        for n, branch in [(0, ("r", "l")), (2, ("r", "r"))]:
            r = run_view(
                cnd,
                (SRC, Move((), ("⊗", n, ("⊗", STAR, STAR))), None),
                (TGT, Move((), STAR), 0),
                (TGT, Move(("j",), ("▷", "⊛")), 1),
            )
            assert r.comp == SRC and r.move.addr[:2] == branch


class TestClassification:
    def test_numeral_ttotal(self):
        cls = classify(Numeral(3), 6, BUD)
        assert cls.ttotal and cls.total

    def test_partial_copycat_not_total(self):
        # projection lift(1) -> 1-as-embedded is partial on the nose
        s = Copycat(Board(Lift(One()), One()), name="proj")
        cls = classify(s, 4, BUD)
        assert not cls.total

    def test_separate_head(self):
        # f : lift(N) -> lift(N) identity is t4; its separation recombines
        a = Lift(NatArena())
        f = identity(a)
        sep = SeparateHead(f)
        recomposed = compose(Diagonal(a), sep)
        assert eq6(recomposed, f, depth=8)
        cls = classify(sep, depth=6, budget=BUD)
        assert cls.starred and cls.starred[2]


class TestTableRoundTrip:
    def test_viewf_strat_roundtrip(self):
        for s in [Numeral(5), Up(NatArena()), DrfStrategy(NAT, 1)]:
            vf = viewfunction(s, 6, BUD)
            back = strat_of_viewf(vf)
            assert viewfunction(back, 6, BUD).table == vf.table

    def test_restrict_total(self):
        upd = UpdStrategy(NAT, 1)
        init = ("⊗", (aN,), 3)
        r = TotalRestrict(upd, init)
        other = run_view(r, (SRC, Move((), ("⊗", (aN,), 4)), None))
        assert other.move.pay == STAR
        same = run_view(r, (SRC, Move((), init), None))
        assert same.move.pay == STAR


class TestInnocenceInvariants:
    def test_tables_are_innocent_plays(self):
        zoo = [
            Up(NatArena()),
            Dn(One()),
            St(NatArena(), One()),
            Pu(Lift(NatArena())),
            DrfStrategy(NAT, 1),
            UpdStrategy(NAT, 1),
            NewName((NAT,), NAT, GN),
        ]
        for s in zoo:
            vf = viewfunction(s, 8, BUD)
            assert vf.plays, s.name
            for p in vf.plays.values():
                assert is_innocent_play(p), f"{s.name}:\n{p.pretty()}"

    def test_determinacy_fuzz_clean(self):
        for s in [DrfStrategy(NAT, 1), UpdStrategy(NAT, 1), NewName((), NAT, One())]:
            assert determinacy_fuzz(s, 6, BUD) is None


class TestCachedAtoms:
    """Moves cache their atom tuple; canonical keys depend on first-occurrence
    order, so the cache must reproduce the structural walk exactly."""

    @staticmethod
    def zoo_plays():
        from nurho.model import denote
        from nurho.syntax import infer, parse_term

        zoo = [
            UpdStrategy(NAT, 1),
            DrfStrategy(NAT, 1),
            NewName((NAT,), NAT, GN),
            Binom((NAT,), (0, None), (None, NAT)),
            denote(infer(parse_term("nu a:[N]. a := 1 ; !a"))[0], k=1),
        ]
        for s in zoo:
            yield from viewfunction(s, 8, BUD).plays.values()

    @staticmethod
    def structural(e):
        return tuple(atoms_of(e.move.pay)) + tuple(e.delta)

    def test_atom_order_matches_structural_walk(self):
        seen = 0
        for p in self.zoo_plays():
            walk = ()
            for e in p.entries:
                assert tuple(atoms_of(e.move)) == tuple(atoms_of(e.move.pay))
                assert tuple(atoms_of(e)) == self.structural(e)
                walk += self.structural(e)
            assert tuple(atoms_of(p)) == walk, p.pretty()
            seen += bool(walk)
        assert seen, "the zoo must produce plays that carry atoms"

    def test_canonical_matches_structural_renaming(self):
        for p in self.zoo_plays():
            walk = tuple(a for e in p.entries for a in self.structural(e))
            pi = canonical_perm(walk)
            expected = tuple(
                Entry(
                    e.comp,
                    Move(e.move.addr, apply_perm(pi, e.move.pay)),
                    e.justifier,
                    tuple(pi(a) for a in e.delta),
                )
                for e in p.entries
            )
            canon, got_pi = p.canonical()
            assert got_pi == pi and canon.entries == expected, p.pretty()
            for ce, xe in zip(canon.entries, expected):
                assert ce.move.atoms == tuple(atoms_of(xe.move.pay))


def test_viewfunction_cache_returns_same_table():
    s = UpdStrategy(NAT, 1)
    vf = viewfunction(s, 6, BUD)
    assert viewfunction(s, 6, BUD) is vf
    other = viewfunction(s, 4, BUD)
    assert other is not vf and viewfunction(s, 4, BUD) is other


def test_dispatchers():
    """The basic arrows, combinators and monad pieces by their constructors."""
    n = Numeral(4)
    assert eq6(n, Numeral(4))
    e = EqStrat(Tensor(GN, GN))
    assert e.board.tgt == NatArena()
    up = Up(NatArena())
    lifted = LiftF(identity(NatArena()))
    assert eq6(compose(up, lifted), up)
    eps = PathProjection(Tensor(Names((NAT,)), One()), ("r",))
    assert eps.board.tgt == One()


# ---------------------------------------------------------------------------
# The zone-table engine behind every view transformer
# ---------------------------------------------------------------------------

GOLD = Budget(max_nat=2, atoms=(aN,), fresh_per_family=1, families=(NAT, UNIT))


def _den(src, names=(), k=2):
    nl = NameList(names)
    return denote(infer(parse_term(src), names=nl)[0], nl, k=k)


def _case(src, kind):
    ctx = SynthContext(NameList([aN]), (), NAT, 2, 8, GOLD)
    case = decompose(_den(src, (aN,)), ctx, selected=True)
    assert case.kind == kind
    return case.components


def _value_case(src, gamma, call):
    """The continuation after a returned lambda ('body') or after a call
    of a context function ('call')."""
    lam, _ = infer(parse_term(src))
    sigma = denote(lam.body if gamma else lam, NameList(), gamma, 2)
    ctx = SynthContext(NameList(), gamma, NAT if call else UNIT, 2, 8, GOLD)
    case = decompose(sigma, ctx)
    assert case.kind == "value"
    m0 = case.components["head"]
    if call:
        return value_case_strategy(
            sigma, NameList(), gamma, m0, m0.addr[:-1] + ("b",),
            lambda p: (PAIR, p, STORE0), NAT, sden(NAT, 2), 2, "call",
        )
    return value_case_strategy(
        sigma, NameList(), gamma, m0, ("b", "l", "j"),
        lambda p: (MERGE, (PAIR, p, STORE0)), UNIT, sden(UNIT, 2), 2, "body",
    )


def transformer_zoo() -> dict:
    """Builders of the view transformers the suite uses, plus three term
    denotations that are composites of them."""
    N = NatArena()
    f_r = compose(PathProjection(Tensor(N, N), ("r",)), Up(N))
    f_l = compose(PathProjection(Tensor(N, N), ("l",)), Up(N))
    f_st = compose(PathProjection(Tensor(One(), N), ("r",)), eta(N, 1))
    n3 = Names((NAT, NAT, UNIT))
    arrow = Arrow(UNIT, Arrow(Arrow(UNIT, UNIT), UNIT))
    zoo = {
        "lift-succ": lambda: LiftF(NatFn(lambda n: n + 1)),
        "lift-num4": lambda: LiftF(Numeral(4)),
        "lift-id-N": lambda: LiftF(identity(N)),
        "pair-1-2": lambda: Pairing(Numeral(1), Numeral(2)),
        "pair-up-up": lambda: Pairing(Up(N), Up(N)),
        "tensor-up-up": lambda: TensorOf(Up(N), Up(One())),
        "tensor-id-up": lambda: TensorOf(identity(N), Up(One())),
        "tensor-diag-id": lambda: TensorOf(Diagonal(n3), identity(N)),
        "tensor-namesproj": lambda: TensorOf(NameListProj((0, 1), n3), identity(N)),
        "tensor-succ-id": lambda: TensorOf(NatFn(lambda n: n + 1), identity(N)),
        "tensor-unit-fix": lambda: TensorOf(
            identity(One()), unit_intro_left(sden(arrow, 2))
        ),
        "lam-nostore": lambda: LambdaC(f_r),
        "laminv-nostore": lambda: LambdaInv(LambdaC(f_r), f_r.board.tgt),
        "lam-tensor-id": lambda: TensorOf(LambdaC(f_l), identity(N)),
        "ev-N-liftN": lambda: ev(N, Lift(N)),
        "lam-store": lambda: LambdaC(f_st),
        "laminv-store": lambda: LambdaInv(LambdaC(f_st), f_st.board.tgt),
        "ev-t-N": lambda: ev_t(N, N, 1),
        "sep-id-liftN": lambda: SeparateHead(identity(Lift(N))),
        "read-cont": lambda: _case("(lambda y:N. succ y) !(N#0)", "read")["continuation"],
        "write-value": lambda: _case("N#0 := 2 ; 0", "write")["value"],
        "write-rest": lambda: _case("N#0 := 2 ; 0", "write")["rest"],
        "value-body": lambda: _value_case("lambda x:1. x", (), False),
        "value-call": lambda: _value_case("lambda f:N->N. f 1", (Arrow(NAT, NAT),), True),
        "strip-names": lambda: _case("nu b:[N]. b := 1 ; !b", "fresh")["inner"],
        "den-nu-assign-deref": lambda: _den("nu a:[N]. a := 1 ; !a", k=1),
        "den-lam-succ": lambda: _den("lambda x:N. succ x"),
        "den-lam-call": lambda: _den("lambda f:(1->1). f skip ; stop:1"),
    }
    for a in [One(), N]:
        zoo[f"lift-up-{a}"] = lambda a=a: LiftF(Up(a))
        zoo[f"lift-dn-{a}"] = lambda a=a: LiftF(Dn(a))
    return zoo


# md5 prefix and size of the sorted pretty() lines of each depth-8 table
# under GOLD, recorded before the transformers moved onto zone tables.
GOLDEN = {
    "lift-succ": ("f96553f6081cdd66", 5),
    "lift-num4": ("3b33704c52fdeb3c", 3),
    "lift-id-N": ("c8164688b342448a", 5),
    "pair-1-2": ("c49eed11542e1b1c", 1),
    "pair-up-up": ("ad7e12fa76dfe82b", 9),
    "tensor-up-up": ("17a0e10f984a88f2", 9),
    "tensor-id-up": ("2fc1b011d707d271", 6),
    "tensor-diag-id": ("b4a689008914030f", 3),
    "tensor-namesproj": ("64c4714556f1e451", 3),
    "tensor-succ-id": ("c7a632dd53748ee9", 9),
    "tensor-unit-fix": ("9c3da72bb2dcea79", 12),
    "lam-nostore": ("46c5984a6ce5a914", 12),
    "laminv-nostore": ("0f82c69be1235211", 18),
    "lam-tensor-id": ("439f648260ffd27c", 36),
    "ev-N-liftN": ("bf13ae9a89922522", 15),
    "lam-store": ("a36cc7b4817d9e8e", 22),
    "laminv-store": ("24169618d39a4081", 24),
    "ev-t-N": ("9b3a44b3c5ccca87", 51),
    "sep-id-liftN": ("3deacf19d6b35784", 5),
    "read-cont": ("e9f30ce091fec133", 36),
    "write-value": ("9100090e85750b24", 12),
    "write-rest": ("d003c1d8a4fc85cd", 12),
    "value-body": ("9ab363dc1d7f68b8", 8),
    "value-call": ("c7af30dabb034719", 24),
    "strip-names": ("ad1ff520196cebc0", 13),
    "den-nu-assign-deref": ("475822acfca2190c", 9),
    "den-lam-succ": ("3bf3d9e674dee08d", 17),
    "den-lam-call": ("e42e0884373238df", 11),
    "lift-up-1": ("a038292f9684ea4e", 4),
    "lift-dn-1": ("2ae7677a13b5f450", 4),
    "lift-up-N": ("f52a8c6dabbb5140", 8),
    "lift-dn-N": ("3a880f847b396cc4", 4),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_tables(name):
    vf = viewfunction(transformer_zoo()[name](), 8, GOLD)
    lines = sorted(Play(vf.board, key).pretty() for key in vf.table)
    got = hashlib.md5("\n\n".join(lines).encode()).hexdigest()[:16]
    assert (got, len(lines)) == GOLDEN[name]


def _zoned(s):
    """The zone-table transformers in s: itself or its chain's parts."""
    return [p for p in getattr(s, "parts", [s]) if isinstance(p, ZonedTransform)]


# every transformer in the zoo whose views go past its prefix (ForgetUpdate
# and Ev are copycat machines; flat components end at the paired answer)
ROUND_TRIP = sorted(
    set(GOLDEN)
    - {"pair-1-2", "tensor-diag-id", "tensor-namesproj", "tensor-succ-id", "write-rest"}
    - {"ev-N-liftN", "ev-t-N"}
    - {n for n in GOLDEN if n.startswith("den-")}
)


@pytest.mark.parametrize("name", ROUND_TRIP)
def test_zone_tables_round_trip(name):
    """bwd(fwd(e)) == e on every renamed entry of the depth-6 views, with the
    table each view selects."""
    s = _zoned(transformer_zoo()[name]())[0]
    checked = 0
    for v in viewfunction(s, 6, GOLD).plays.values():
        if len(v) <= s.start:
            continue
        inner, entries, table = s.prefix(Play(s.board, v.entries[:-1]))
        shift = len(entries) - s.start
        for e in v.entries[s.start:]:
            want = e
            if table is SeparateHead.TABLE and e.comp == SRC:
                # both source copies fold onto f's one source
                want = Entry(SRC, Move(("l",) + e.move.addr[1:], e.move.pay),
                             e.justifier, e.delta)
            assert table.bwd(table.fwd(e, shift), shift) == want, v.pretty()
            checked += 1
    assert checked


def test_zone_tables_cover_threads_and_store_variants():
    zoo = transformer_zoo()
    for name in ["pair-up-up", "tensor-up-up"]:
        s = zoo[name]()
        sides = {
            v.entries[2].move.addr[0]
            for v in viewfunction(s, 6, GOLD).plays.values()
            if len(v) > 2
        }
        assert sides == {"l", "r"}, name
    stores = {
        (type(s).__name__, s.with_store)
        for name in ["lam-nostore", "laminv-nostore", "lam-store", "laminv-store"]
        for s in _zoned(zoo[name]())
    }
    assert stores == {(c, w) for c in ("LambdaC", "LambdaInv") for w in (False, True)}
    # SeparateHead answers in the source's right copy until the view has
    # touched the source, and in the left copy after that
    copies = set()
    seps = [zoo["sep-id-liftN"](), SeparateHead(identity(Lift(Lift(NatArena()))))]
    for v in (v for s in seps for v in viewfunction(s, 8, GOLD).plays.values()):
        r = v.entries[-1]
        if len(v) > 1 and r.comp == SRC:
            touched = any(e.comp == SRC for e in v.entries[1:-1])
            assert r.move.addr[0] == ("l" if touched else "r"), v.pretty()
            copies.add(r.move.addr[0])
    assert copies == {"l", "r"}


def _scratch_projection(u, proj):
    """The play part proj.i sees, projected afresh from the whole of u."""
    i, at, entries = proj.i, {}, []
    for idx, e in enumerate(u):
        if e.iface in (i - 1, i):
            j = None if e.justifier is None else at.get(e.justifier)
            comp = SRC if e.iface == i - 1 else TGT
            entries.append(Entry(comp, e.move, j, e.delta if e.owner == i else ()))
            at[idx] = len(entries) - 1
    return Play(proj.board, tuple(entries))


def test_chain_views_grow_like_fresh_projections(monkeypatch):
    """At every bounce step of the golden-table composites, the P-view a part
    is asked on, grown one entry at a time, is the P-view of the projection
    rebuilt from the whole interaction, and it carries that view's canonical
    form.  Some replays rename the deltas they added."""
    project, truncate = ChainStrategy._project, Projection.truncate
    seen = {"steps": 0, "renamed": 0}

    def checked_project(self, u, proj):
        proj = project(self, u, proj)
        play = _scratch_projection(u, proj)
        view, idx = proj.views[-1]
        assert view == pview(play) and list(idx) == view_indices(play)
        assert view.canon()[2] == apply_perm(canonical_perm(view), view).entries
        seen["steps"] += 1
        return proj

    def counted_truncate(self, origin):
        seen["renamed"] += origin < self.scanned
        truncate(self, origin)

    monkeypatch.setattr(model, "_DEN_CACHE", {})  # fresh memos for the denotations
    monkeypatch.setattr(ChainStrategy, "_project", checked_project)
    monkeypatch.setattr(Projection, "truncate", counted_truncate)
    for build in transformer_zoo().values():
        viewfunction(build(), 8, GOLD)
    assert seen["steps"] > 1000 and seen["renamed"] > 0, seen


def _zoo_tables(monkeypatch, fresh: bool) -> dict:
    """The depth-8 tables and plays of the zoo, built on fresh memos; with
    `fresh`, every chain answers every view from a new working interaction,
    and every transformer and machine from no kept state, as fresh ones do."""
    raw, zoned, replay = ChainStrategy.respond_raw, ZonedTransform.respond_raw, MachineStrategy.replay

    def fresh_raw(self, view):
        self._work = None
        return raw(self, view)

    def fresh_zoned(self, view):
        self._kept = None
        return zoned(self, view)

    def fresh_replay(self, view):
        self._steps = self._kept = None
        return replay(self, view)

    out = {}
    with monkeypatch.context() as m:
        if fresh:
            m.setattr(ChainStrategy, "respond_raw", fresh_raw)
            m.setattr(ZonedTransform, "respond_raw", fresh_zoned)
            m.setattr(MachineStrategy, "replay", fresh_replay)
        m.setattr(model, "_DEN_CACHE", {})
        for name, build in transformer_zoo().items():
            vf = viewfunction(build(), 8, GOLD)
            out[name] = (vf.table, list(vf.plays.items()))
    return out


def test_chains_resume_and_answer_like_fresh_chains(monkeypatch):
    """A chain resumes the interaction it played for the view it answered
    last; the zoo's tables and plays are those of chains that replay every
    view from scratch, and most calls resume."""
    raw, bounce = ChainStrategy.respond_raw, ChainStrategy._bounce
    first, seen = set(), {"calls": 0, "resumed": 0}

    def counted_raw(self, view):
        first.add(self)
        seen["calls"] += 1
        return raw(self, view)

    def counted_bounce(self, u, *rest):
        if self in first:  # a replay from scratch starts on u = [the O-move]
            first.discard(self)
            seen["resumed"] += len(u) > 1
        return bounce(self, u, *rest)

    monkeypatch.setattr(ChainStrategy, "respond_raw", counted_raw)
    monkeypatch.setattr(ChainStrategy, "_bounce", counted_bounce)
    resumed = _zoo_tables(monkeypatch, fresh=False)
    assert seen["calls"] > 1000 and 2 * seen["resumed"] >= seen["calls"], seen
    assert resumed == _zoo_tables(monkeypatch, fresh=True)


def test_transformers_and_machines_resume_and_answer_like_fresh_ones(monkeypatch):
    """A transformer grows the inner view it kept for the prefix a view
    shares with the view it answered last, and a machine replays only the
    steps after that prefix.  The zoo's tables and plays are those of
    strategies that keep nothing, and most calls of each kind resume."""
    resume, stack = strategies._resume, []
    seen = {ZonedTransform: [0, 0], MachineStrategy: [0, 0]}  # calls, resumed

    def tracked(fn, kind):
        def run(self, view):
            first = self.first if kind is MachineStrategy else getattr(self, "start", 0)
            stack.append((kind, first))
            try:
                return fn(self, view)
            finally:
                stack.pop()
        return run

    def counted_resume(kept, view):
        ids, s = resume(kept, view)
        kind, start = stack[-1]
        if kind is ZonedTransform and len(view) > start:
            seen[kind][0] += 1
            seen[kind][1] += s > start  # an inner view grown before is reused
        elif kind is MachineStrategy and len(view) > start + 1:
            seen[kind][0] += 1
            seen[kind][1] += s >= start  # the steps up to s are reused
        return ids, s

    monkeypatch.setattr(strategies, "_resume", counted_resume)
    monkeypatch.setattr(
        ZonedTransform, "respond_raw", tracked(ZonedTransform.respond_raw, ZonedTransform)
    )
    monkeypatch.setattr(
        MachineStrategy, "replay", tracked(MachineStrategy.replay, MachineStrategy)
    )
    monkeypatch.setattr(ChainStrategy, "respond_raw", tracked(ChainStrategy.respond_raw, None))
    resumed = _zoo_tables(monkeypatch, fresh=False)
    for calls, hits in seen.values():
        assert calls > 500 and 2 * hits >= calls, seen
    assert resumed == _zoo_tables(monkeypatch, fresh=True)


def test_transformers_run_prefix_once_per_head(monkeypatch):
    """A transformer runs `prefix` only on a view whose first `start` entries
    differ from those of the last view past its head it answered, when asked
    or as a machine's prelude; across the zoo most such views reuse the
    prefix of the view before."""
    raw, prelude = ZonedTransform.respond_raw, ZonedTransform.prelude
    last, seen = {}, {"views": 0, "prefix": 0, "preludes": 0}

    def answered(self, view, run):
        try:
            r = run()
        except Exception:
            last.pop(self, None)  # a raise drops what the transformer kept
            raise
        if len(view) >= self.start:
            seen["views"] += 1
            last[self] = view
        return r

    def counted_raw(self, view):
        return answered(self, view, lambda: raw(self, view))

    def counted_prelude(self, view, i):
        seen["preludes"] += i >= self.start - 1
        return answered(self, view, lambda: prelude(self, view, i))

    def checked(prefix):
        def run(self, view):
            seen["prefix"] += 1
            before = last.get(self)
            assert before is None or before.entries[: self.start] != view.entries[: self.start]
            return prefix(self, view)
        return run

    kinds = [ZonedTransform]
    for cls in kinds:
        kinds.extend(cls.__subclasses__())
        if "prefix" in vars(cls):
            monkeypatch.setattr(cls, "prefix", checked(vars(cls)["prefix"]))
    monkeypatch.setattr(ZonedTransform, "respond_raw", counted_raw)
    monkeypatch.setattr(ZonedTransform, "prelude", counted_prelude)
    monkeypatch.setattr(model, "_DEN_CACHE", {})
    for build in transformer_zoo().values():
        viewfunction(build(), 8, GOLD)
    for build in DERIVED.values():
        d = build()
        viewfunction(ChainStrategy([d, Up(d.board.tgt)]), 8, GOLD)
    assert seen["views"] > 1000 and 4 * seen["prefix"] < seen["views"], seen
    assert seen["preludes"] > 500, seen


def test_raw_views_resume_on_their_own_entries_only():
    """respond_raw on a view that is not canonical resumes from the entries
    it shares with the view answered last, not from a canonical key that
    matches: a view renamed after it was answered gets the renamed answer."""
    swap = Permutation.swap(aN, bN)
    den = transformer_zoo()["den-nu-assign-deref"]()
    kinds = {
        "machine": (DrfStrategy(NAT, 1), lambda: DrfStrategy(NAT, 1)),
        "transformer": (LiftF(DrfStrategy(NAT, 1)), lambda: LiftF(DrfStrategy(NAT, 1))),
        "chain": (den, lambda: ChainStrategy(den.parts)),
    }
    for kind, (s, fresh) in kinds.items():
        renamed = 0
        for v in viewfunction(s, 8, GOLD).plays.values():
            for cut in range(1, len(v), 2):
                view = Play(s.board, v.entries[:cut])
                moved = apply_perm(swap, view)
                r = s.respond_raw(view)
                got = s.respond_raw(moved)
                assert got == fresh().respond_raw(moved), (kind, moved.pretty())
                renamed += got != r and support(got) != support(r)
        assert renamed, kind


def test_moves_carry_their_atoms_in_walk_order():
    """A permuted move carries the permuted atom tuple, which is the order
    atoms_of walks, on every move of the golden tables; the atoms of a
    payload that holds a frozenset are walked again."""
    zoo = transformer_zoo()
    for name in sorted(GOLDEN):
        vf = viewfunction(zoo[name](), 8, GOLD)
        for entries in [*vf.table, *(p.entries for p in vf.plays.values())]:
            for e in entries:
                assert e.move.atoms == tuple(atoms_of(e.move.pay)), (name, e)
    m = Move(("q",), frozenset({(aN, 0), (bN, 1)}))._map_atoms_(Permutation.swap(aN, bN))
    assert m.atoms == tuple(atoms_of(m.pay)) == (aN, bN)


def test_chain_drops_its_interaction_when_a_bounce_raises(monkeypatch):
    """Under a tiny step budget some views raise; every view answered after
    one is answered as a fresh chain with that budget answers it."""
    monkeypatch.setattr(model, "_DEN_CACHE", {})
    s = transformer_zoo()["den-lam-succ"]()
    keys = list(viewfunction(s, 8, GOLD).plays)
    tight = ChainStrategy(s.parts, step_budget=2)
    raised = answered_after = 0
    for key in keys:
        for cut in range(1, len(key), 2):
            view = Play(s.board, key[:cut])
            try:
                r = tight.respond_raw(view)
            except CompositionBudget:
                raised += 1
                continue
            assert r == ChainStrategy(s.parts, step_budget=2).respond_raw(view)
            assert r == s.respond_raw(view)
            answered_after += raised > 0
    assert raised and answered_after, (raised, answered_after)


def test_chain_answers_are_the_hidden_interaction(monkeypatch):
    """After each answer of a zoo chain, the whole working interaction,
    hidden as compose_plays hides it, is the view followed by the answer."""
    raw, seen = ChainStrategy.respond_raw, {"answers": 0}

    def checked_raw(self, view):
        r = raw(self, view)
        if r is not None:
            arenas = (self.parts[0].board.src, *(p.board.tgt for p in self.parts))
            u = Interaction(arenas, tuple(self._work.u))
            assert hide(u, self.board).entries == view.entries + (r,)
            seen["answers"] += 1
        return r

    monkeypatch.setattr(model, "_DEN_CACHE", {})
    monkeypatch.setattr(ChainStrategy, "respond_raw", checked_raw)
    for build in transformer_zoo().values():
        viewfunction(build(), 8, GOLD)
    assert seen["answers"] > 2000, seen


def test_random_interaction_forgets_a_dead_bounce():
    """A walk whose first O-move the chain refuses leaves no trace in the
    component plays: they compose to the (empty) walk."""
    nat = NatArena()
    s, t, walk = random_interaction(
        identity(nat), TableStrategy(Board(nat, nat), []), random.Random(0), 3,
        Budget(max_nat=1),
    )
    assert len(s) == len(t) == len(walk) == 0
    assert compose_plays(s, t)[1].entries == walk.entries


def test_nominal_values_are_slotted():
    """Atoms, moves and entries carry no instance dict, and a move computes
    its atom tuple once, outside eq, hash and repr."""
    import nurho.arenas as arenas

    calls = []
    walk = arenas.atoms_of

    def counted(x):
        calls.append(x)
        return walk(x)

    m = Move(("q",), (PAIR, aN, bN))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arenas, "atoms_of", counted)
        assert m.atoms == (aN, bN) and m.atoms is m.atoms
        assert m.at(("r",)).atoms is m.atoms  # a readdressed copy keeps them
    assert len(calls) == 1
    twin = Move(("q",), (PAIR, aN, bN))
    assert m == twin and hash(m) == hash(twin) and repr(m) == repr(twin)
    e = Entry(SRC, m, None, (aN,))
    for x in (aN, m, e, IEntry(0, m, None, (), 0)):
        assert not hasattr(x, "__dict__"), type(x).__name__


# ---------------------------------------------------------------------------
# Machine parts answered from the interaction; guarded entries
# ---------------------------------------------------------------------------

class Forward(Strategy):
    """Asks `inner` on every view, so a chain asks it through its projection."""

    def __init__(self, inner: Strategy):
        super().__init__(inner.board, f"fwd({inner.name})")
        self.inner = inner

    def respond_raw(self, view):
        return self.inner.respond(view)


LN = Lift(NatArena())
ANSWERS = {
    "copycat": lambda: Copycat(Board(LN, LN)),
    "path": lambda: PathProjection(Tensor(One(), LN), ("r",)),
    "names": lambda: NameListProj((1,), Names((NAT, NAT))),
    "names-drop": lambda: NameListProj((), Names((NAT, NAT))),
    "bang": lambda: Bang(LN),
    "numeral": lambda: Numeral(2),
    "natfn": lambda: NatFn(lambda n: n + 1),
    "eq": lambda: EqStrat(Tensor(GN, GN)),
    "diagonal": lambda: Diagonal(LN),
    "symm": lambda: symm(One(), LN),
    "assoc-rt": lambda: assoc_rt(One(), LN, One()),
    "assoc-lt": lambda: assoc_lt(One(), One(), LN),
    "unit-intro-left": lambda: unit_intro_left(LN),
    "unit-elim-left": lambda: unit_elim_left(LN),
    "unit-elim-right": lambda: unit_elim_right(LN),
    "refuses-0": lambda: NatFn(lambda n: n - 1, "pred-or-refuse"),
}
# one of each machine with a horizon, and Ev on both target shapes
MACHINES = {
    "up": lambda: Up(NatArena()),
    "dn": lambda: Dn(NatArena()),
    "st": lambda: St(NatArena(), NatArena()),
    "pu": lambda: Pu(LN),
    "new": lambda: NewName((NAT,), NAT, NatArena()),
    "binom": lambda: Binom((NAT,), (0, None), (NAT, NAT)),
    "drf": lambda: DrfStrategy(NAT, 1),
    "cnd": lambda: CndStrategy(NatArena(), 1),
    "ev-lift": lambda: Ev(NatArena(), LN),
    "ev-t": lambda: Ev(GN, t_arena(NatArena(), 1)),
}
# transformers over machines, of the shapes the store monad's pieces take
DERIVED = {
    "lift-answer": lambda: LiftF(NatFn(lambda n: n + 1)),
    "lift-ev": lambda: LiftF(Ev(NatArena(), LN)),
    "tensor-answer-ev": lambda: TensorOf(identity(LN), Ev(NatArena(), LN)),
    "tensor-drf-answer": lambda: TensorOf(DrfStrategy(NAT, 1), identity(NatArena())),
    "lift-tensor": lambda: LiftF(TensorOf(identity(LN), NatFn(lambda n: n + 1))),
    "lam-up": lambda: LambdaC(Up(Tensor(NatArena(), NatArena()))),
    "pair-up-up": lambda: Pairing(Up(NatArena()), Up(NatArena())),
}
# permutations of the flat sources, asked as tables through their projections
FLAT_BEFORE = {
    NatArena(): lambda: NatFn(lambda n: 2 - n if n <= 2 else n),
    Names((NAT, NAT)): lambda: NameListProj((1, 0), Names((NAT, NAT))),
    Tensor(GN, GN): lambda: symm(GN, GN),
}


def _neighbours(a: MachineStrategy) -> tuple[Strategy, Strategy]:
    """A strategy before a: Pu on a pointed source, a table of a permutation
    on a flat one, else the identity; and Up after it."""
    src = a.board.src
    if src.is_pointed():
        before = Pu(src)
    elif src in FLAT_BEFORE:
        before = strat_of_viewf(viewfunction(FLAT_BEFORE[src](), 8, GOLD))
    else:
        before = identity(src)
    return before, Up(a.board.tgt)


@pytest.mark.parametrize("name", sorted(ANSWERS) + sorted(MACHINES) + sorted(DERIVED))
def test_answer_parts_answer_as_when_asked(name):
    """An Answer, other machine or transformer over machines answers from
    the interaction as it answers when a chain asks it through its
    projection: the depth-8 tables of the chains with it at either end and
    in the middle are those of the chains with it hidden behind a
    forwarding strategy."""
    a = {**ANSWERS, **MACHINES, **DERIVED}[name]()
    assert a.horizon is not None
    before, after = _neighbours(a)
    sizes = []
    for shape in ((a, after), (before, a), (before, a, after)):
        hidden = [Forward(p) if p is a else p for p in shape]
        direct = viewfunction(ChainStrategy(list(shape)), 8, GOLD)
        asked = viewfunction(ChainStrategy(hidden), 8, GOLD)
        assert direct.table == asked.table, (name, len(shape))
        sizes.append(len(direct))
    assert min(sizes) > 0, sizes


def test_chains_answer_for_their_machine_parts(monkeypatch):
    """No machine with a horizon is asked through `respond` by a chain: the
    chains of the transformer zoo and of the Answer builders and machines
    above answer for every such part from the interaction."""
    bounce, answer, respond = ChainStrategy._bounce, ChainStrategy._answer, Strategy.respond
    seen = {"asked": 0, "answered": set()}

    def counted_respond(self, view):
        if self.horizon is not None and sys._getframe(1).f_code is bounce.__code__:
            seen["asked"] += 1
        return respond(self, view)

    def counted_answer(u, i, part, played):
        seen["answered"].add(type(part))
        return answer(u, i, part, played)

    monkeypatch.setattr(model, "_DEN_CACHE", {})
    monkeypatch.setattr(Strategy, "respond", counted_respond)
    monkeypatch.setattr(ChainStrategy, "_answer", staticmethod(counted_answer))
    for build in transformer_zoo().values():
        viewfunction(build(), 8, GOLD)
    builds = [*ANSWERS.values(), *MACHINES.values(), *DERIVED.values()]
    for build in builds:
        a = build()
        viewfunction(ChainStrategy([*_neighbours(a)[:1], a, Up(a.board.tgt)]), 8, GOLD)
    horizons = {type(build()) for build in builds}
    assert seen["asked"] == 0 and seen["answered"] == horizons, seen


def test_transformer_over_a_non_machine_is_asked(monkeypatch):
    """A transformer with an inner strategy that has no horizon has none
    either, and a chain asks it through its projection."""
    lifted = LiftF(TensorOf(UpdStrategy(NAT, 1), identity(NatArena())))
    assert lifted.horizon is None and lifted.f.horizon is None
    respond, asked = Strategy.respond, []

    def counted_respond(self, view):
        asked.append(self)
        return respond(self, view)

    monkeypatch.setattr(Strategy, "respond", counted_respond)
    assert len(viewfunction(ChainStrategy([identity(lifted.board.src), lifted]), 6, GOLD)) > 0
    assert lifted in asked


def test_machine_replay_takes_the_names_the_view_chose():
    """A chain renames the name NewName introduces when the interaction
    already holds it: the projection to y puts only y in NewName's P-view,
    so it picks x's index.  Replaying that step for a later O-move within
    the tensor's horizon takes the chain's name, and the tables are those
    of the chain that asks the tensor."""
    N = NatArena()
    t = TensorOf(NewName((NAT,), NAT, LN), Dn(N))
    p = TensorOf(TensorOf(NameListProj((1,), Names((NAT, NAT))), identity(LN)),
                 identity(Lift(LN)))
    for parts in ([p, t], [p, t, Up(t.board.tgt)]):
        hidden = [Forward(x) if x is t else x for x in parts]
        direct = viewfunction(ChainStrategy(parts), 8, GOLD)
        assert direct.table == viewfunction(ChainStrategy(hidden), 8, GOLD).table
        assert len(direct) > 0


def test_machines_answer_within_their_horizon(monkeypatch):
    """No machine's prelude answers at a P-view index past its horizon, over
    the transformer zoo and each machine alone at depth 10, and each one
    answers at its horizon.  The same holds of the horizon each transformer
    over machines derives, in a chain before Up."""
    reached, derived, zoned = {}, {}, ZonedTransform.prelude

    def derived_prelude(self, view, i):
        out = zoned(self, view, i)
        if out is not None:
            assert i <= self.horizon, (self.name, i, view.pretty())
            derived[self] = max(derived.get(self, 0), i)
        return out

    def wrapped(cls, prelude):
        def run(self, view, i):
            out = prelude(self, view, i)
            if out is not None:
                assert i <= cls.horizon, (cls.__name__, i, view.pretty())
                reached[cls] = max(reached.get(cls, 0), i)
            return out
        return run

    kinds = [MachineStrategy]
    for cls in kinds:
        kinds.extend(cls.__subclasses__())
    horizons = {cls for cls in kinds if cls.horizon is not None}
    for cls in horizons:
        monkeypatch.setattr(cls, "prelude", wrapped(cls, vars(cls)["prelude"]))
    monkeypatch.setattr(model, "_DEN_CACHE", {})
    monkeypatch.setattr(ZonedTransform, "prelude", derived_prelude)
    for build in [*transformer_zoo().values(), *ANSWERS.values(), *MACHINES.values()]:
        viewfunction(build(), 10, GOLD)
    assert reached == {cls: cls.horizon for cls in horizons}, reached
    for name, build in DERIVED.items():
        d = build()
        viewfunction(ChainStrategy([d, Up(d.board.tgt)]), 10, GOLD)
        assert derived[d] == d.horizon, (name, derived[d], d.horizon)


def test_ev_is_lambda_inverse_of_the_identity():
    """Ev(b, c) has the depth-8 table of its reference, Λ⁻¹ of the identity
    on b ⊸⊗ c, for lifted and arrow-shaped targets."""
    N = NatArena()
    for b in (N, GN, Tensor(N, GN)):
        for c in (LN, Lift(Tensor(N, GN)), t_arena(N, 1), t_arena(GN, 1)):
            ref = LambdaInv(identity(mk_merge(b, c)), c)
            assert strategy_equal(Ev(b, c), ref, 8, GOLD), (b, c)


def test_machine_part_raises_on_an_o_move_under_a_move_it_did_not_play():
    """A table T over 1 -> lift(N) answers t:a:0 justified by its own t:*1.
    The machine after T sees an O-move justified by a move it did not play:
    the chain raises OracleError naming that part."""
    N = NatArena()
    start = [(SRC, Move((), STAR), None), (TGT, Move((), STAR1), 0),
             (TGT, Move(("u",), STAR2), 1)]
    bad = Play(Board(One(), LN), tuple(Entry(*e) for e in start) + (
        Entry(TGT, Move(("a",), 0), 1),))
    t = TableStrategy(Board(One(), LN), [bad], "T")
    with pytest.raises(OracleError, match="id: s:.*a.* is justified by a move it did not play"):
        run_view(ChainStrategy([t, identity(LN)]), *start)
    up_view = start + [(TGT, Move(("a",), STAR1), 2), (TGT, Move(("a", "u"), STAR2), 3)]
    with pytest.raises(OracleError, match="up: s:.*a.* is justified by a move it did not play"):
        run_view(ChainStrategy([t, Up(LN)]), *up_view)


def test_chain_refuses_where_its_answer_part_refuses():
    """A payload outside the Answer's target schema gets no answer, at the
    chain's start and in its middle; the next payload does."""
    nat = NatArena()
    a = ANSWERS["refuses-0"]()
    chains = [
        ChainStrategy([a, Up(nat)]),
        ChainStrategy([strat_of_viewf(viewfunction(FLAT_BEFORE[nat](), 4, GOLD)), a, Up(nat)]),
    ]
    for chain, refused in zip(chains, (0, 2)):
        for n in range(3):
            r = run_view(chain, (SRC, Move((), n), None))
            assert (r is None) == (n == refused), (chain.name, n)


class Fixed(Strategy):
    """Answers every view with one entry."""

    def __init__(self, board: Board, r: Entry):
        super().__init__(board, "fixed")
        self.r = r

    def respond_raw(self, view):
        return self.r


def test_chain_refuses_foreign_answers_and_o_moves():
    """A part's answer enters the interaction labelled on its board: a
    foreign move raises ForeignMove, and an O-move raises OracleError; an
    outer P-move raises OracleError too."""
    nat = NatArena()
    foreign = Fixed(Board(nat, nat), Entry(TGT, Move(("zz",), 0), 0))
    o_move = Fixed(Board(nat, nat), Entry(SRC, Move((), 3), 0))
    for bad, err in ((foreign, ForeignMove), (o_move, OracleError)):
        for parts in ([bad, identity(nat)], [identity(nat), bad], [bad, Up(nat)]):
            with pytest.raises(err):
                run_view(ChainStrategy(parts), (SRC, Move((), 1), None))
    chain = ChainStrategy([identity(nat), Forward(identity(nat))])
    answer = (TGT, Move((), 1), 0)
    assert run_view(chain, (SRC, Move((), 1), None)) == Entry(*answer)
    with pytest.raises(OracleError, match="is a P-move"):
        run_view(chain, (SRC, Move((), 1), None), answer, answer)


def test_atoms_hash_once_and_compare_on_family_and_index():
    """Atoms built separately over compound families are equal, hash equal
    and collapse in a set, whether or not one was hashed before; the hash
    slot shows in neither repr nor equality, and is filled on first use."""
    from nurho.syntax import Prod, Ref

    for fam in (Ref(NAT), Arrow(NAT, Arrow(UNIT, NAT)), Prod(Ref(UNIT), NAT)):
        a, b = Atom(fam, 3), Atom(fam, 3)
        assert a._hash is None
        h = hash(a)
        assert a._hash == h == hash((fam, 3)) and b._hash is None
        assert a == b and repr(a) == repr(b) == f"{fam}#3"
        assert hash(b) == h and {a, b} == {a} and len({a, b}) == 1
        assert a != Atom(fam, 4) and Atom(fam, 4) not in {a}
