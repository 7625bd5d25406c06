import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nurho import plays
from nurho.arenas import (
    ForeignMove,
    Imp,
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
    Tensor,
    mk_imp,
)
from nurho.nominal import Atom, Permutation, apply_perm, canonical_perm, support
from nurho.plays import (
    SRC,
    TGT,
    Board,
    Entry,
    Play,
    check_play,
    compose_plays,
    composable,
    introduced_names,
    is_innocent_play,
    NotComposable,
    oview,
    play_to_json,
    pview,
    set_tagged_equal,
)
from nurho.syntax import NAT

a, b, c, d = (Atom(NAT, i) for i in range(4))
GN = Names((NAT,))


def mk(board, *rows):
    return Play(board, tuple(Entry(*r) for r in rows))


class TestViews:
    def test_view_of_initial(self):
        p = mk(Board(One(), One()), ("s", Move((), STAR), None))
        assert pview(p) == p

    def test_view_closed_play_is_itself(self):
        bd = Board(NatArena(), NatArena())
        p = mk(bd, ("s", Move((), 3), None), ("t", Move((), 3), 0))
        assert pview(p) == p
        assert oview(p).entries == p.entries[0:]

    def test_paper_side_figure_view_violates_nc2(self):
        # board 1 -> lift(1) ⊗ (1 => names): the P-view of a legal play can
        # mention a name introduced in a dropped chunk.
        tgt = Tensor(Lift(One()), mk_imp(One(), GN))
        bd = Board(One(), tgt)
        p = mk(
            bd,
            ("s", Move((), STAR), None),
            ("t", Move((), (PAIR, STAR1, STAR)), 0),
            ("t", Move(("l", "u"), STAR2), 1),
            ("t", Move(("l", "a"), STAR), 2, (a,)),
            ("t", Move(("r", "j"), (MERGE, STAR)), 1),
            ("t", Move(("r", "b"), (a,)), 4),
        )
        assert check_play(p, mode="plain").ok
        view = pview(p)
        assert [e.move for e in view.entries] == [
            p.entries[i].move for i in (0, 1, 4, 5)
        ]
        codes = {v.condition for v in check_play(view, mode="plain").violations}
        assert "NC2" in codes
        assert not is_innocent_play(p)
        codes2 = {v.condition for v in check_play(p, mode="innocent").violations}
        assert "NC2'" in codes2


class TestCheckPlay:
    def test_nc1_stale_atom(self):
        bd = Board(One(), GN)
        p = mk(
            bd,
            ("s", Move((), STAR), None),
            ("t", Move((), (a,)), 0, (a, a)),
        )
        codes = {v.condition for v in check_play(p).violations}
        assert "NC1" in codes

    def test_alternation_flagged(self):
        bd = Board(One(), Lift(One()))
        p = mk(
            bd,
            ("s", Move((), STAR), None),
            ("t", Move((), STAR1), 0),
            ("t", Move(("a",), STAR), 1),  # P-answer in an O slot
        )
        codes = {v.condition for v in check_play(p).violations}
        assert "alternation" in codes or "justification" in codes

    def test_fresh_payload_needs_listing(self):
        bd = Board(One(), GN)
        good = mk(bd, ("s", Move((), STAR), None), ("t", Move((), (a,)), 0, (a,)))
        bad = mk(bd, ("s", Move((), STAR), None), ("t", Move((), (a,)), 0, ()))
        assert check_play(good).ok
        assert {v.condition for v in check_play(bad).violations} == {"NC2"}

    def test_introduced_names(self):
        bd = Board(One(), GN)
        p = mk(bd, ("s", Move((), STAR), None), ("t", Move((), (a,)), 0, (a, b)))
        assert introduced_names(p) == {a, b}
        copycat = mk(
            Board(GN, GN), ("s", Move((), (a,)), None), ("t", Move((), (a,)), 0)
        )
        assert introduced_names(copycat) == set()


def new_name_play():
    # sigma : 1 -> names, playing a fresh name with a second private one
    bd = Board(One(), GN)
    return mk(bd, ("s", Move((), STAR), None), ("t", Move((), (a,)), 0, (a, b)))


def apply_play(answer: Atom, asked: Atom):
    # tau : names -> (names => names), answering `answer` to question `asked`
    bd = Board(GN, mk_imp(GN, GN))
    delta = (answer,) if answer not in (a, asked) else ()
    return mk(
        bd,
        ("s", Move((), (a,)), None),
        ("t", Move((), STAR), 0),
        ("t", Move(("j",), (MERGE, (asked,))), 1),
        ("t", Move(("b",), (answer,)), 2, delta),
    )


class TestComposition:
    def test_empty_plays_composable(self):
        s = Play(Board(One(), GN))
        t = Play(Board(GN, One()))
        assert composable(s, t).ok
        u, st = compose_plays(s, t)
        assert len(st) == 0

    def test_list_tagged_composite_is_deterministic(self):
        s = new_name_play()
        t = apply_play(a, c)
        assert composable(s, t).ok
        u, st = compose_plays(s, t)
        assert [e.move.pay for e in st.entries] == [
            STAR, STAR, (MERGE, (c,)), (a,)
        ]
        assert st.entries[1].delta == (a, b)
        assert check_play(st).ok
        # support accounting: S(s) u S(t) = S(s;t) u S(s.t)
        lhs = support(s) | support(t)
        rhs = support(st) | support(u.mix())
        assert lhs == rhs

    def test_composite_passes_checks(self):
        s = new_name_play()
        for answered, asked in [(a, c), (a, d)]:
            _, st = compose_plays(s, apply_play(answered, asked))
            assert check_play(st).ok

    def test_c1_violation_detected(self):
        # t mentions sigma's private name b before it could know it
        s = new_name_play()
        t = apply_play(b, c)
        verdict = composable(s, t)
        assert not verdict.ok

    def test_board_mismatch(self):
        s = new_name_play()
        t = Play(Board(One(), GN))
        assert not composable(s, t).ok

    def test_set_tagged_collapse_vs_list_tagged(self):
        # With name-sets the two O-questions are indistinguishable, yet get
        # different answers: the determinacy failure.  With lists they are
        # distinguishable and no collapse happens.
        s = new_name_play()
        u1, st1 = compose_plays(s, apply_play(a, b))
        u2, st2 = compose_plays(s, apply_play(a, a))
        pre1 = Play(st1.board, st1.entries[:3])
        pre2 = Play(st2.board, st2.entries[:3])
        assert set_tagged_equal(pre1, pre2)
        assert not set_tagged_equal(st1, st2)
        from nurho.nominal import orbit_equal

        assert not orbit_equal(pre1, pre2)  # lists keep them apart

    def test_mix_returns_final_namelist(self):
        s = new_name_play()
        u, st = compose_plays(s, apply_play(a, c))
        assert set(u.mix()) == {a, b}

    def test_injectivity_on_samples(self):
        s = new_name_play()
        pairs = [(a, c), (a, d), (a, a)]
        seen = {}
        for answered, asked in pairs:
            u, _ = compose_plays(s, apply_play(answered, asked))
            key = tuple((e.iface, e.move, e.justifier) for e in u.entries)
            assert key not in seen
            seen[key] = (answered, asked)


def test_json_shape():
    p = new_name_play()
    js = play_to_json(p)
    assert js["entries"][1]["nlist"] == ["N#0", "N#1"]
    assert js["entries"][1]["justifier"] == 0


# ---------------------------------------------------------------------------
# The canonical state a play carries through `append`
# ---------------------------------------------------------------------------

def _entries():
    atom = st.builds(Atom, st.sampled_from([NAT, "1"]), st.integers(0, 4))
    pay = st.recursive(
        st.one_of(atom, st.integers(0, 2)), lambda c: st.tuples(c, c), max_leaves=4
    )
    return st.builds(
        lambda comp, pay, delta: Entry(comp, Move(("q",), pay), 0, tuple(delta)),
        st.sampled_from(["s", "t"]), pay, st.lists(atom, max_size=2),
    )


@given(st.lists(_entries(), max_size=8))
@settings(max_examples=150, deadline=None)
def test_appended_canonical_state_matches_structural(entries):
    plays = [Play(Board(One(), One()))]
    for e in entries:
        plays.append(plays[-1].append(e))
    # checked once all are built, so a later append must not disturb a prefix
    for p in plays:
        ren, counts, canon = p.canon()
        pi = canonical_perm(p)
        assert canon == apply_perm(pi, p).entries
        assert set(ren) == support(p)
        assert set(ren.values()) == support(canon)
        assert p.canonical() == (Play(p.board, canon), pi)
        assert Play(p.board, p.entries).canon() == (ren, counts, canon)


@given(st.lists(_entries(), max_size=6), st.lists(_entries(), max_size=6))
@settings(max_examples=100, deadline=None)
def test_keys_name_canonical_entries(xs, ys):
    """An appended play's key is the key of the same play built directly, a
    renamed play has the same key, and two plays have equal keys exactly
    when their canonical entries are equal."""
    swap = Permutation.swap(Atom(NAT, 0), Atom(NAT, 2))
    built = []
    for entries in (xs, ys):
        p = Play(Board(One(), One()))
        for e in entries:
            p = p.append(e)
            built += [p, apply_perm(swap, p)]
    for p in built:
        assert p.key() == Play(p.board, p.entries).key()
        for q in built:
            assert (p.key() == q.key()) == (p.canon()[2] == q.canon()[2])
    assert all(p.key() == q.key() for p, q in zip(built[::2], built[1::2]))


def test_equal_boards_share_one_label_table():
    """Equal live boards share one label memo, which goes with the last of
    them; a foreign move is walked, and raises, on every call."""
    src, tgt = Names(("label-test",)), Lift(NatArena())
    b1, b2 = Board(src, tgt), Board(src, tgt)
    assert b1._labels is b2._labels and Board(One(), One())._labels is not b1._labels
    assert b1.label(SRC, Move((), (Atom("label-test", 0),))) == ("O", "Q")
    assert b1.label(TGT, Move((), STAR1)) == ("P", "A")
    foreign = Move(("x",), 0)
    for _ in range(2):
        with pytest.raises(ForeignMove):
            b2.label(TGT, foreign)
    assert not b2.has_move(TGT, foreign) and b2.has_move(TGT, Move((), STAR1))
    assert len(b1._labels) == 2
    del b1, b2
    gc.collect()
    assert (src, tgt) not in plays._LABELS
