"""Innocent strategies as deterministic oracles on P-views.

A strategy answers odd-length P-views (as plays) with the next move, its
justifier inside the view, and the list of freshly introduced names.
Responses are memoized on the keys of orbit-canonical views, which both
enforces determinacy up to renaming and keeps fresh-name choices
reproducible.  Every kind keeps what it computed for the view it answered
last and redoes the work after the prefix a new view shares with it.

Three kinds of strategies cover everything downstream:

* machines: a small prelude automaton plus *copycat zones*, the uniform
  mechanism behind the lifting monad pieces and the reference primitives.
  One machine, `Answer`, is every strategy that only answers the initial
  move (identities, projections, the diagonal, the structural
  isomorphisms, constants): it answers with a function of the initial
  payload, refused when outside the target's initial schema, and copies
  moves between fixed prefixes from then on.  A machine keeps the steps
  of its last replay;
* view transformers: combinators (pairing, tensor, lifting, currying,
  head separation) on one engine that renames the view zone by zone into
  an inner strategy's view and the inner answer back, growing the inner
  view kept for the shared prefix;
* chains: composites that replay the view through an n-ary parallel
  interaction of their parts, kept and resumed from the prefix shared.
  One walk step, `ChainStrategy._play`, plays an outer O-move and bounces
  it to its exit, which `plays.expose`, the one hiding step, turns into
  the composite's move.  It answers for every machine part from the
  interaction itself, and asks every other part on the P-view of its
  projection, for a P-move; `random_interaction` walks with it too.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

from .arenas import (
    Arena,
    Budget,
    DepthExceeded,
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
    STORE0,
    Tensor,
    enum_schemas,
    mk_merge,
    mk_tensor,
    sden,
    t_arena,
)
from .nominal import (
    Atom,
    _complete_to_permutation,
    atoms_of,
    canonical_perm,
    fresh_atom,
    orbit_canon,
    renaming,
    support,
)
from .plays import Board, Entry, IEntry, Play, SRC, TGT, check_play, entry_id, expose
from .plays import view_indices


# A response is the entry that extends the view it answers, justified inside it.
Response = Entry


class CompositionBudget(Exception):
    """The interaction did not settle within the step budget (distinct from
    a definitive non-response)."""


class OracleError(RuntimeError):
    pass


def _freshen(r: Response, taboo: set[Atom]) -> Response:
    """Rename the introduced atoms of r away from `taboo` (deterministic)."""
    if not r.delta:
        return r
    mapping: dict[Atom, Atom] = {}
    pool = set(taboo) | set(r.delta) | set(r.move.atoms)
    for a in r.delta:
        if a in taboo:
            b = fresh_atom(a.family, pool)
            mapping[a] = b
            pool.add(b)
    if not mapping:
        return r
    return r._map_atoms_(_complete_to_permutation(mapping))


_UNSEEN = object()


def _resume(kept: tuple, view: Play) -> tuple[tuple[int, ...], int]:
    """The ids of the view's own entries, and how many leading ones it shares
    with the ids `kept`.  A view as `respond` passes it on is its own
    canonical form, and its ids are its key."""
    own = view.canon()[2] is view.entries
    ids = view.key() if own else tuple(map(entry_id, view.entries))
    s, top = 0, min(len(ids), len(kept))
    while s < top and ids[s] == kept[s]:
        s += 1
    return ids, s


class Strategy:
    """Base class: deterministic innocent oracle over a fixed board."""

    horizon: Optional[int] = None  # a machine's last prelude index; None: chains ask it

    def __init__(self, board: Board, name: str = "?"):
        self.board = board
        self.name = name
        self._memo: dict[tuple[int, ...], Optional[Response]] = {}

    def __repr__(self):
        return f"<{self.name} : {self.board}>"

    # -- the oracle ---------------------------------------------------------
    def respond(self, view: Play) -> Optional[Response]:
        if len(view) % 2 != 1:
            raise OracleError(f"{self.name}: view length {len(view)} not odd")
        ren, counts, canon = view.canon()
        key = view.key()
        r = self._memo.get(key, _UNSEEN)
        if r is _UNSEEN:
            own = {b: b for b in ren.values()}  # a canonical view renames nothing
            r = self.respond_raw(Play(view.board, canon, (own, counts, canon), key))
            if r is not None and r.delta:
                r = _freshen(r, set(ren.values()))
            self._memo[key] = r
        if r is None or not (r.move.atoms or r.delta):
            return r
        back = {b: a for a, b in ren.items()}
        if all(a in back for a in r._iter_atoms_()):
            out = r._map_atoms_(renaming(back))
        else:
            out = r._map_atoms_(_complete_to_permutation(ren).inverse())
        return _freshen(out, ren)

    def respond_raw(self, view: Play) -> Optional[Response]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Machines: prelude automaton + copycat zones
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Zone:
    """Moves in (own_comp, own_prefix·rest) mirror to
    (tgt_comp, tgt_prefix·rest) justified by tgt_idx."""

    own_comp: str
    own_prefix: tuple
    tgt_idx: int
    tgt_comp: str
    tgt_prefix: tuple

    def flip(self, o_idx: int) -> "Zone":
        return Zone(self.tgt_comp, self.tgt_prefix, o_idx, self.own_comp, self.own_prefix)


class MachineStrategy(Strategy):
    """Prelude hook + generic zone mirroring.

    `prelude(view, i)` inspects the O-move at index i and returns a
    (Response, zones) pair, or None to fall through to the zone machinery.
    Zones returned are anchored at the response's index.  A chain answers
    for a machine with a `horizon` from the interaction (`ChainStrategy._answer`).
    """

    start = 1  # the index of the first response decided
    links: dict = {}  # the zones open before start, by the index opening them
    _kept: Optional[tuple] = None  # (view ids, responses, links) of the last replay

    def prelude(self, view, i):
        return None

    def respond_raw(self, view: Play) -> Optional[Response]:
        """Decide the responses at indices start, start + 2, ... of the view,
        each checked against it.  The steps shared with the view replayed
        last, and the zones they opened, are kept; a raise drops them."""
        start = self.start
        (kept, rs, links), self._kept = self._kept or ((), [], dict(self.links)), None
        ids, s = _resume(kept, view)
        del rs[max((s - start) // 2 + 1, 0):]  # the steps at indices up to s
        for k in [k for k in links if k >= start + 2 * len(rs)]:
            del links[k]
        for k in range(start + 2 * max(len(rs) - 1, 0), len(view) + 1, 2):
            if len(rs) == (k - start) // 2:
                x = view.entries[k - 1]
                out = self.prelude(Play(view.board, view.entries[:k]), k - 1)
                out = out or mirror(self.board, x, k - 1, links.get(x.justifier, ()))
                if out is None:
                    if k < len(view):
                        raise OracleError(f"{self.name}: view extends a non-response")
                    self._kept = (ids, rs, links)
                    return None
                rs.append(out[0])
                links[k] = out[1]
            r = rs[(k - start) // 2]
            x = view.entries[k] if k < len(view) else r
            if (x.comp, x.move, x.justifier) != (r.comp, r.move, r.justifier):
                raise OracleError(f"{self.name}: view disagrees with oracle at {k}: {x} vs {r}")
        self._kept = (ids, rs, links)
        return r


def mirror(board: Board, x: Entry, i: int, zones: Iterable[Zone]):
    """Copy the O-move x at index i through the longest zone holding it:
    (response, [the zone flipped back to x]), or None."""
    best: Optional[Zone] = None
    for z in zones:
        if x.comp == z.own_comp and x.move.addr[: len(z.own_prefix)] == z.own_prefix:
            if best is None or len(z.own_prefix) > len(best.own_prefix):
                best = z
    if best is None:
        return None
    moved = x.move.at(best.tgt_prefix + x.move.addr[len(best.own_prefix):])
    if not board.has_move(best.tgt_comp, moved):
        return None
    return Response(best.tgt_comp, moved, best.tgt_idx), [best.flip(i)]


class Answer(MachineStrategy):
    """Answer the initial move with `pay` of its payload, then copy moves
    between each (source prefix, target prefix) pair of `zones`.  A payload
    outside the target's initial schema gets no answer."""

    horizon = 0

    def __init__(self, board: Board, name: str, pay, zones=()):
        super().__init__(board, name)
        self.pay, self.pairs = pay, tuple(zones)

    def prelude(self, view, i):
        if i:
            return None
        p = self.pay(view.entries[0].move.pay)
        if self.board.tgt.initial_schema().contains(p):
            return Response(TGT, Move((), p), 0), [Zone(TGT, t, 0, SRC, s) for s, t in self.pairs]
        return None


def Copycat(board: Board, name: str = "id") -> Strategy:
    """Identity / embedding / projection: mirror everything verbatim."""
    return Answer(board, name, lambda p: p, [((), ())])


def identity(a: Arena) -> Strategy:
    return Copycat(Board(a, a))


def PathProjection(src: Arena, path: tuple, name: str = "pi") -> Strategy:
    """Tensor projection onto the component at `path` ('l'/'r' steps)."""
    tgt = src
    for step in path:
        assert isinstance(tgt, Tensor), f"no component {path} in {src}"
        tgt = tgt.left if step == "l" else tgt.right
    path = tuple(path)
    return Answer(
        Board(src, tgt), f"{name}{''.join(path)}", lambda p: pay_at(p, path), [(path, ())]
    )


def pay_at(pay, path: tuple):
    for step in path:
        assert isinstance(pay, tuple) and pay[0] == PAIR, f"no {path} in {pay}"
        pay = pay[1] if step == "l" else pay[2]
    return pay


def NameListProj(positions: tuple[int, ...], src: Names) -> Strategy:
    """pi^{abar}_{abar'}: project an ambient name tuple onto a subtuple."""
    if not positions:
        return Answer(Board(src, One()), "pi-names", lambda xs: STAR)
    tgt = Names(tuple(src.signature[p] for p in positions))
    return Answer(Board(src, tgt), "pi-names", lambda xs: tuple(xs[p] for p in positions))


def Bang(src: Arena) -> Strategy:
    """The unique arrow to the unit arena."""
    return Answer(Board(src, One()), "!", lambda p: STAR)


def Numeral(n: int) -> Strategy:
    return Answer(Board(One(), NatArena()), f"num{n}", lambda p: n)


def NatFn(fn: Callable[[int], int], name: str = "natfn") -> Strategy:
    return Answer(Board(NatArena(), NatArena()), name, fn)


def EqStrat(src: Tensor) -> Strategy:
    """Name equality: initial move holds two name payloads, answer 0 or 1."""

    def eq(p):
        left, right = list(atoms_of(p[1])), list(atoms_of(p[2]))
        assert len(left) == 1 and len(right) == 1, "eq expects single names"
        return 0 if left == right else 1

    return Answer(Board(src, NatArena()), "eq", eq)


def Diagonal(a: Arena) -> Strategy:
    return Answer(
        Board(a, Tensor(a, a)), "delta", lambda p: (PAIR, p, p), [((), ("l",)), ((), ("r",))]
    )


def symm(a: Arena, b: Arena) -> Strategy:
    return Answer(
        Board(Tensor(a, b), Tensor(b, a)),
        "symm",
        lambda p: (PAIR, p[2], p[1]),
        [(("l",), ("r",)), (("r",), ("l",))],
    )


def assoc_rt(a: Arena, b: Arena, c: Arena) -> Strategy:
    """(a⊗b)⊗c -> a⊗(b⊗c)."""
    return Answer(
        Board(Tensor(Tensor(a, b), c), Tensor(a, Tensor(b, c))),
        "assoc",
        lambda p: (PAIR, p[1][1], (PAIR, p[1][2], p[2])),
        [(("l", "l"), ("l",)), (("l", "r"), ("r", "l")), (("r",), ("r", "r"))],
    )


def assoc_lt(a: Arena, b: Arena, c: Arena) -> Strategy:
    """a⊗(b⊗c) -> (a⊗b)⊗c."""
    return Answer(
        Board(Tensor(a, Tensor(b, c)), Tensor(Tensor(a, b), c)),
        "assoc'",
        lambda p: (PAIR, (PAIR, p[1], p[2][1]), p[2][2]),
        [(("l",), ("l", "l")), (("r", "l"), ("l", "r")), (("r", "r"), ("r",))],
    )


def unit_intro_left(a: Arena) -> Strategy:
    """a -> 1⊗a."""
    return Answer(Board(a, Tensor(One(), a)), "unitl", lambda p: (PAIR, STAR, p), [((), ("r",))])


def unit_elim_left(a: Arena) -> Strategy:
    return Answer(Board(Tensor(One(), a), a), "unitl'", lambda p: p[2], [(("r",), ())])


def unit_elim_right(a: Arena) -> Strategy:
    return Answer(Board(Tensor(a, One()), a), "unitr'", lambda p: p[1], [(("l",), ())])


# -- lifting monad pieces ----------------------------------------------------

class Up(MachineStrategy):
    horizon = 2

    def __init__(self, a: Arena):
        super().__init__(Board(a, Lift(a)), "up")

    def prelude(self, view, i):
        if i == 0:
            return Response(TGT, Move((), STAR1), 0), []
        if i == 2:
            p = view.entries[0].move.pay
            r = Response(TGT, Move(("a",), p), 2)
            return r, [Zone(TGT, ("a",), 0, SRC, ())]
        return None


class Dn(MachineStrategy):
    horizon = 4

    def __init__(self, a: Arena):
        super().__init__(Board(Lift(Lift(a)), Lift(a)), "dn")

    def prelude(self, view, i):
        if i == 0:
            return Response(TGT, Move((), STAR1), 0), []
        if i == 2:
            return Response(SRC, Move(("u",), STAR2), 0), []
        if i == 4:
            r = Response(SRC, Move(("a", "u"), STAR2), 4)
            return r, [Zone(SRC, ("a", "a"), 2, TGT, ("a",))]
        return None


class St(MachineStrategy):
    """Strength of lifting: a ⊗ lift(b) -> lift(a ⊗ b)."""

    horizon = 4

    def __init__(self, a: Arena, b: Arena):
        super().__init__(Board(Tensor(a, Lift(b)), Lift(Tensor(a, b))), "st")

    def prelude(self, view, i):
        if i == 0:
            return Response(TGT, Move((), STAR1), 0), []
        if i == 2:
            return Response(SRC, Move(("r", "u"), STAR2), 0), []
        if i == 4:
            pa = view.entries[0].move.pay[1]
            pb = view.entries[4].move.pay
            r = Response(TGT, Move(("a",), (PAIR, pa, pb)), 2)
            return r, [
                Zone(TGT, ("a", "l"), 0, SRC, ("l",)),
                Zone(TGT, ("a", "r"), 4, SRC, ("r", "a")),
            ]
        return None


class Pu(MachineStrategy):
    """lift(a) -> a for pointed a."""

    horizon = 4

    def __init__(self, a: Arena):
        assert a.is_pointed(), f"pu needs a pointed arena, got {a}"
        super().__init__(Board(Lift(a), a), "pu")

    def prelude(self, view, i):
        if i == 0:
            return Response(TGT, Move((), self.board.tgt.point()), 0), []
        if i == 2 and view.entries[2].comp == TGT and view.entries[2].justifier == 1:
            return Response(SRC, Move(("u",), STAR2), 0), []
        if i == 4 and view.entries[4].comp == SRC:
            j_move = view.entries[2].move
            r = Response(SRC, Move(("a",) + j_move.addr, j_move.pay), 4)
            return r, [Zone(SRC, ("a",), 2, TGT, ())]
        return None


# -- fresh names --------------------------------------------------------------

class NewName(MachineStrategy):
    """new: (names ⊗ a) -> lift(names+1 ⊗ a), introducing the new atom."""

    horizon = 2

    def __init__(self, sig: tuple, family, a: Arena):
        src = mk_tensor(Names(sig) if sig else One(), a)
        tgt = Lift(mk_tensor(Names(tuple(sig) + (family,)), a))
        super().__init__(Board(src, tgt), "new")
        self.sig = tuple(sig)
        self.family = family

    def prelude(self, view, i):
        if i == 0:
            return Response(TGT, Move((), STAR1), 0), []
        if i == 2:
            p0 = view.entries[0].move.pay
            if self.sig:
                names, pa = p0[1], p0[2]
            else:
                names, pa = (), p0[2]
            c = fresh_atom(self.family, support(view))
            r = Response(
                TGT, Move(("a",), (PAIR, tuple(names) + (c,), pa)), 2, (c,)
            )
            return r, [Zone(TGT, ("a", "r"), 0, SRC, ("r",))]
        return None


class Binom(MachineStrategy):
    """Generalized fresh-name constructor names(sig) -> lift(names(sig'))
    where sig extends to sig' via `positions` (old index or None=fresh)."""

    horizon = 2

    def __init__(self, src_sig: tuple, positions: tuple[Optional[int], ...], families: tuple):
        src = Names(src_sig) if src_sig else One()
        tgt_sig = tuple(
            src_sig[p] if p is not None else families[i]
            for i, p in enumerate(positions)
        )
        super().__init__(Board(src, Lift(Names(tgt_sig))), "binom")
        self.positions = positions
        self.tgt_sig = tgt_sig

    def prelude(self, view, i):
        if i == 0:
            return Response(TGT, Move((), STAR1), 0), []
        if i == 2:
            xs = view.entries[0].move.pay
            xs = xs if isinstance(xs, tuple) else ()
            out, delta = [], []
            for pos, fam in zip(self.positions, self.tgt_sig):
                if pos is not None:
                    out.append(xs[pos])
                else:
                    c = fresh_atom(fam, set(support(view)) | set(out))
                    out.append(c)
                    delta.append(c)
            return Response(TGT, Move(("a",), tuple(out)), 2, tuple(delta)), []
        return None


# -- reference primitives ------------------------------------------------------

class DrfStrategy(MachineStrategy):
    """Dereference: ask the name at the store, return and thread the value."""

    horizon = 4

    def __init__(self, c_type, k: int):
        self.c_type = c_type
        super().__init__(
            Board(Names((c_type,)), t_arena(sden(c_type, k), k)), f"drf[{c_type}]"
        )

    def prelude(self, view, i):
        if i == 0:
            return Response(TGT, Move((), STAR), 0), []
        if i == 2:
            a = view.entries[0].move.pay[0]
            return Response(TGT, Move(("a", "q"), a), 2), []
        if i == 4:
            pv = view.entries[4].move.pay
            r = Response(TGT, Move(("b",), (PAIR, pv, STORE0)), 2)
            return r, [
                Zone(TGT, ("b", "l"), 4, TGT, ("a", "v", self.c_type)),
                Zone(TGT, ("b", "r"), 2, TGT, ("a",)),
            ]
        return None


class UpdStrategy(MachineStrategy):
    """Update: answer the store immediately; serve the written name from the
    held value, pass every other name to the previous store."""

    def __init__(self, c_type, k: int):
        self.c_type = c_type
        super().__init__(
            Board(Tensor(Names((c_type,)), sden(c_type, k)), t_arena(One(), k)),
            f"upd[{c_type}]",
        )

    def prelude(self, view, i):
        if i == 0:
            return Response(TGT, Move((), STAR), 0), []
        if i == 2:
            r = Response(TGT, Move(("b",), (PAIR, STAR, STORE0)), 2)
            return r, [Zone(TGT, ("b", "r"), 2, TGT, ("a",))]
        x = view.entries[i]
        held = view.entries[0].move.pay[1][0]
        if (
            x.comp == TGT
            and x.move.addr == ("b", "r", "q")
            and x.move.pay == held
            and view.entries[x.justifier].move.addr == ("b",)
        ):
            value_pay = view.entries[0].move.pay[2]
            r = Response(
                TGT, Move(("b", "r", "v", self.c_type), value_pay), i
            )
            return r, [Zone(TGT, ("b", "r", "v", self.c_type), 0, SRC, ("r",))]
        return None


class CndStrategy(MachineStrategy):
    """Zero-test dispatch: n ⊗ (T a)² -> T a, total copycat of the branch."""

    horizon = 0

    def __init__(self, value: Arena, k: int):
        ta = t_arena(value, k)
        super().__init__(Board(Tensor(NatArena(), Tensor(ta, ta)), ta), "cnd")

    def prelude(self, view, i):
        if i == 0:
            n = view.entries[0].move.pay[1]
            branch = ("r", "l") if n == 0 else ("r", "r")
            r = Response(TGT, Move((), STAR), 0)
            return r, [Zone(TGT, (), 0, SRC, branch)]
        return None


# ---------------------------------------------------------------------------
# View transformers: one zone-table engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TZone:
    """Outer moves in (o_comp, o_prefix·rest) are inner moves in
    (i_comp, i_prefix·rest).  A justifier listed in `anchors` as a pair
    (outer_j, inner_j) maps to its partner; every other one shifts."""

    o_comp: str
    o_prefix: tuple
    i_comp: str
    i_prefix: tuple
    anchors: tuple = ()

    def inverse(self) -> "TZone":
        back = tuple((ij, oj) for oj, ij in self.anchors)
        return TZone(self.i_comp, self.i_prefix, self.o_comp, self.o_prefix, back)


class ZoneTable:
    """Zones sorted once by prefix length, longest first, in each direction.
    Where inner prefixes coincide, the zone listed first wins backwards."""

    def __init__(self, *zones: TZone):
        self._fwd = sorted(zones, key=lambda z: -len(z.o_prefix))
        self._bwd = sorted((z.inverse() for z in zones), key=lambda z: -len(z.o_prefix))

    def fwd(self, e: Entry, shift: int) -> Entry:
        """An outer entry as an inner one; `shift` is inner minus outer index."""
        return _relabel(self._fwd, e, shift)

    def bwd(self, r: Response, shift: int) -> Response:
        """An inner response (or entry) as an outer one."""
        return _relabel(self._bwd, r, -shift)


def _relabel(zones: list[TZone], x, shift: int):
    for z in zones:
        n = len(z.o_prefix)
        if x.comp == z.o_comp and x.move.addr[:n] == z.o_prefix:
            j = x.justifier
            for oj, ij in z.anchors:
                if j == oj:
                    j = ij
                    break
            else:
                j += shift
            move = x.move  # kept when the address stays: its atoms are cached
            if z.i_prefix != z.o_prefix:
                move = move.at(z.i_prefix + move.addr[n:])
            return type(x)(z.i_comp, move, j, x.delta)
    raise OracleError(f"no zone holds {x}")


class ZonedTransform(Strategy):
    """Delegate to an inner strategy through a zone table.

    Views shorter than `start` go to `head`.  For the others `prefix`
    returns the inner strategy, the inner entries replacing the outer
    entries [0, start), and the table renaming every later entry; the
    inner response comes back through the same table.  `prefix` runs once
    for each head (first `start` entries) of the views answered; the inner
    view of each prefix of the view answered last is kept, and a view with
    the same head grows the inner view of the prefix it shares by its later
    entries.  A raise drops them."""

    start = 1
    _kept: Optional[tuple] = None  # (view ids, (inner, table, shift) or None, inner views)

    def head(self, view: Play) -> Optional[Response]:
        raise NotImplementedError

    def prefix(self, view: Play):
        """(inner strategy, inner prefix entries, ZoneTable), or None.  It
        reads only the view's first `start` entries."""
        raise NotImplementedError

    def respond_raw(self, view: Play) -> Optional[Response]:
        if len(view) < self.start:
            return self.head(view)
        kept, self._kept = self._kept, None
        ids, s = _resume(kept[0] if kept else (), view)
        if s < self.start:
            out = self.prefix(view)
            if out is None:
                kept = (ids, None, [])
            else:
                inner, entries, table = out
                shift = len(entries) - self.start
                kept = (ids, (inner, table, shift), [Play(inner.board, entries)])
        _, through, views = kept  # views[i]: the inner view of the first start + i entries
        if through is None:
            self._kept = (ids, None, views)
            return None
        inner, table, shift = through
        del views[max(s - self.start, 0) + 1:]
        for e in view.entries[self.start + len(views) - 1:]:
            views.append(views[-1].append(table.fwd(e, shift)))
        r = inner.respond(views[-1])
        self._kept = (ids, through, views)
        return None if r is None else table.bwd(r, shift)


class Pairing(ZonedTransform):
    """<f, g> : c -> a ⊗ b.  After the paired initial answer, the view's
    3rd move fixes the thread: side 'l' runs in f, 'r' in g."""

    start = 3
    TABLES = {
        side: ZoneTable(TZone(SRC, (), SRC, ()), TZone(TGT, (side,), TGT, ()))
        for side in "lr"
    }

    def __init__(self, f: Strategy, g: Strategy):
        assert f.board.src == g.board.src, "pairing needs a common source"
        self._setup(f, g, f.board.src, f"<{f.name},{g.name}>")

    def _setup(self, f, g, src, name):
        super().__init__(Board(src, Tensor(f.board.tgt, g.board.tgt)), name)
        self.f, self.g = f, g

    def inits(self, view) -> tuple:
        """The initial views of f and g."""
        return (view.entries[:1],) * 2

    def head(self, view):
        fv, gv = self.inits(view)
        rf = self.f.respond(Play(self.f.board, fv))
        if rf is None:
            return None
        rg = self.g.respond(Play(self.g.board, gv))
        if rg is None:
            return None
        rg = _freshen(rg, set(support(view)) | set(atoms_of(rf)) | set(rf.delta))
        pay = (PAIR, rf.move.pay, rg.move.pay)
        return Response(TGT, Move((), pay), 0, tuple(rf.delta) + tuple(rg.delta))

    def prefix(self, view):
        side = view.entries[2].move.addr[0]
        inner = self.f if side == "l" else self.g
        init = self.inits(view)[side == "r"]
        r = inner.respond(Play(inner.board, init))
        table = self.TABLES[side]
        return inner, init + (Entry(TGT, r.move, 0, r.delta), table.fwd(view.entries[2], 0)), table


class TensorOf(Pairing):
    """f ⊗ g : a ⊗ b -> a' ⊗ b', threaded like <π_l;f, π_r;g>."""

    TABLES = {
        side: ZoneTable(TZone(SRC, (side,), SRC, ()), TZone(TGT, (side,), TGT, ()))
        for side in "lr"
    }

    def __init__(self, f: Strategy, g: Strategy):
        src = Tensor(f.board.src, g.board.src)
        self._setup(f, g, src, f"({f.name}⊗{g.name})")

    def inits(self, view) -> tuple:
        pay = view.entries[0].move.pay
        return tuple((Entry(SRC, Move((), p), None, ()),) for p in pay[1:])


class LiftF(ZonedTransform):
    """f_⊥ : lift(a) -> lift(a'):  four stars, then behave like f."""

    start = 4
    TABLE = ZoneTable(
        TZone(SRC, ("a",), SRC, (), ((3, None),)),
        TZone(TGT, ("a",), TGT, (), ((2, 0),)),
    )

    def __init__(self, f: Strategy):
        super().__init__(
            Board(Lift(f.board.src), Lift(f.board.tgt)), f"lift({f.name})"
        )
        self.f = f

    def head(self, view):
        if len(view) == 1:
            return Response(TGT, Move((), STAR1), 0)
        return Response(SRC, Move(("u",), STAR2), 0)

    def prefix(self, view):
        return self.f, (), self.TABLE


def _imp_parts(c: Arena):
    """Shape analysis for currying targets: Lift(z) or Imp(s, z)."""
    if isinstance(c, Lift):
        return None, c.inner
    if isinstance(c, Imp):
        return c.src, c.tgt
    raise ValueError(f"currying needs a lifted or arrow-shaped target, got {c}")


def _curry_zones(with_store: bool) -> tuple:
    """Λ's zones from x and (b [⊗ s] => z) to f's x ⊗ b and c; Λ⁻¹ reads
    them backwards."""
    if with_store:
        rest = (
            TZone(TGT, ("a", "l"), SRC, ("r",), ((2, 0),)),
            TZone(TGT, ("a", "r"), TGT, ("a",)),
            TZone(TGT, ("b",), TGT, ("b",)),
        )
    else:
        rest = (
            TZone(TGT, ("a",), SRC, ("r",), ((2, 0),)),
            TZone(TGT, ("b",), TGT, ("a",)),
        )
    return (TZone(SRC, (), SRC, ("l",)),) + rest


class LambdaC(ZonedTransform):
    """Λ(f) : x -> (b => z-ish)  from  f : x ⊗ b -> c."""

    start = 3
    TABLES = {ws: ZoneTable(*_curry_zones(ws)) for ws in (False, True)}

    def __init__(self, f: Strategy):
        src = f.board.src
        assert isinstance(src, Tensor), f"currying needs a tensor source: {src}"
        x, b = src.left, src.right
        s, _ = _imp_parts(f.board.tgt)
        super().__init__(Board(x, mk_merge(b, f.board.tgt)), f"Λ({f.name})")
        self.f = f
        self.with_store = s is not None

    def head(self, view):
        return Response(TGT, Move((), STAR), 0)

    def prefix(self, view):
        merged = view.entries[2].move
        assert merged.addr == ("j",), f"expected a merged move, got {merged}"
        delta = view.entries[1].delta
        if self.with_store:
            pb, ps = merged.pay[1][1], merged.pay[1][2]
            opened = (
                Entry(TGT, Move((), STAR), 0, delta),
                Entry(TGT, Move(("j",), (MERGE, ps)), 1, ()),
            )
        else:
            pb = merged.pay[1]
            opened = (
                Entry(TGT, Move((), STAR1), 0, delta),
                Entry(TGT, Move(("u",), STAR2), 1, ()),
            )
        init = Entry(SRC, Move((), (PAIR, view.entries[0].move.pay, pb)), None, ())
        return self.f, (init, *opened), self.TABLES[self.with_store]


class LambdaInv(ZonedTransform):
    """Λ⁻¹(g) : x ⊗ b -> c  from  g : x -> (b => z-ish)."""

    start = 3
    TABLES = {
        ws: ZoneTable(*(z.inverse() for z in _curry_zones(ws))) for ws in (False, True)
    }

    def __init__(self, g: Strategy, c: Arena):
        tgt = g.board.tgt
        assert isinstance(tgt, Imp), f"uncurrying needs an arrow target: {tgt}"
        s, _ = _imp_parts(c)
        if s is None:
            b = tgt.src
        else:
            assert isinstance(tgt.src, Tensor)
            b = tgt.src.left
        super().__init__(Board(Tensor(g.board.src, b), c), f"Λ'({g.name})")
        self.g = g
        self.with_store = s is not None

    @staticmethod
    def _x_view(view) -> tuple:
        return (Entry(SRC, Move((), view.entries[0].move.pay[1]), None, ()),)

    def head(self, view):
        r = self.g.respond(Play(self.g.board, self._x_view(view)))
        if r is None:
            return None
        pt = STAR1 if not self.with_store else STAR
        return Response(TGT, Move((), pt), 0, r.delta)

    def prefix(self, view):
        pb = view.entries[0].move.pay[2]
        lvl1 = view.entries[2].move
        if self.with_store:
            assert lvl1.addr == ("j",)
            pb = (PAIR, pb, lvl1.pay[1])
        else:
            assert lvl1.addr == ("u",)
        return self.g, self._x_view(view) + (
            Entry(TGT, Move((), STAR), 0, view.entries[1].delta),
            Entry(TGT, Move(("j",), (MERGE, pb)), 1, ()),
        ), self.TABLES[self.with_store]


class Ev(MachineStrategy):
    """Evaluation (b ⊸⊗ c) ⊗ b -> c, for a lifted or arrow-shaped c: Λ⁻¹ of
    the identity as a machine.  It answers the target's point, then asks the
    function with b's payload (and the store's, for an arrow c) and copies
    through the zones of `_curry_zones` read backwards."""

    horizon = 2
    ZONES = {ws: [Zone(SRC, ("l",) + z.o_prefix, 0 if z.i_comp == SRC else 2, z.i_comp,
                       z.i_prefix) for z in _curry_zones(ws)[1:]] for ws in (False, True)}

    def __init__(self, b: Arena, c: Arena):
        super().__init__(Board(Tensor(mk_merge(b, c), b), c), "ev")
        self.with_store = _imp_parts(c)[0] is not None

    def prelude(self, view, i):
        if i == 0:
            return Response(TGT, Move((), STAR if self.with_store else STAR1), 0), []
        if i == 2:
            pb = view.entries[0].move.pay[2]
            if self.with_store:
                pb = (PAIR, pb, view.entries[2].move.pay[1])
            return Response(SRC, Move(("l", "j"), (MERGE, pb)), 0), self.ZONES[self.with_store]
        return None


ev = Ev


class SeparateHead(ZonedTransform):
    """f~ : a ⊗ a -> b with the first source interrogation in the right copy
    and all later ones in the left, so that Δ;f~ = f."""

    # Both copies fold onto f's one source; backwards, the left copy wins.
    TABLE = ZoneTable(
        TZone(SRC, ("l",), SRC, ()), TZone(SRC, ("r",), SRC, ()), TZone(TGT, (), TGT, ())
    )

    def __init__(self, f: Strategy):
        a = f.board.src
        assert a.is_pointed(), "head separation needs a pointed source"
        super().__init__(Board(Tensor(a, a), f.board.tgt), f"sep({f.name})")
        self.f = f

    def prefix(self, view):
        init = Entry(SRC, Move((), view.entries[0].move.pay[2]), None, ())
        return self.f, (init,), self.TABLE

    def respond_raw(self, view):
        """A source answer goes to the right copy until the view has
        touched the source."""
        r = super().respond_raw(view)
        if r is None or r.comp != SRC or any(e.comp == SRC for e in view.entries[1:]):
            return r
        return Response(SRC, r.move.at(("r",) + r.move.addr[1:]), r.justifier, r.delta)


class TotalRestrict(Strategy):
    """Restrict to one initial orbit, or with `outside` to every other one;
    the initials left out get the bare point."""

    def __init__(self, inner: Strategy, init_pay, outside: bool = False):
        super().__init__(inner.board, f"{inner.name}|{'rest' if outside else 'init'}")
        self.inner = inner
        self.init_key = orbit_canon(init_pay)[0]
        self.outside = outside

    def respond_raw(self, view):
        if (orbit_canon(view.entries[0].move.pay)[0] == self.init_key) != self.outside:
            return self.inner.respond(view)
        if len(view) == 1 and self.board.tgt.is_pointed():
            return Response(TGT, Move((), self.board.tgt.point()), 0)
        return None


# ---------------------------------------------------------------------------
# Composition: n-ary parallel interaction replayed against the view
# ---------------------------------------------------------------------------

class Projection:
    """Part i's projection of an interaction (its interfaces i-1 and i),
    grown as the interaction grows, with the P-view at every projected
    index: a play, which carries its canonical state, and its indices."""

    def __init__(self, board: Board, i: int):
        self.board, self.i = board, i
        self.scanned = 0  # interaction entries seen
        self.entries: list[Entry] = []
        self.origins: list[int] = []  # projected index -> interaction index
        self.is_p: list[bool] = []
        self.views: list[tuple[Play, tuple[int, ...]]] = []
        self.empty: tuple[Play, tuple[int, ...]] = (Play(board), ())

    def _grow(self, base: tuple[Play, tuple[int, ...]], k: int):
        """The view `base` followed by projected entry k."""
        view, idx = base
        e = self.entries[k]
        j = None if e.justifier is None else bisect.bisect_left(idx, e.justifier)
        return view.append(Entry(e.comp, e.move, j, e.delta)), idx + (k,)

    def add(self, origin: int, e: Entry, is_p: bool) -> None:
        """Project entry `origin` of the interaction as e, a P-move if `is_p`;
        its P-view is the one before plus e for a P-move, else the justifier's."""
        m = len(self.entries)
        self.entries.append(e)
        self.origins.append(origin)
        self.is_p.append(is_p)
        j = e.justifier
        if self.is_p[m]:
            base = self.views[m - 1] if m else self.empty
        elif j is None:
            base = self.empty
        elif self.is_p[j]:
            base = self.views[j]
        else:
            base = self._grow(self.views[j - 1] if j else self.empty, j)
        self.views.append(self._grow(base, m))

    def truncate(self, origin: int) -> None:
        """Forget the entries from interaction index `origin` on."""
        m = bisect.bisect_left(self.origins, origin)
        del self.entries[m:], self.origins[m:], self.is_p[m:], self.views[m:]
        self.scanned = min(self.scanned, origin)


class _Work:
    """A chain's working interaction: the ids of the view answered last, the
    interaction u played for it, view index <-> u index, the projection of
    each part asked so far, by part, for each move a machine part played the
    u indices of its P-view (None past the part's horizon) and the zones it
    opened, a mark (len(u), prefix support, atoms of u) per even prefix, and
    the pending answer with the view index of the O-move it answers."""

    __slots__ = ("view", "u", "vmap", "inv", "projs", "played", "marks", "pending")

    def __init__(self):
        self.view, self.u, self.vmap, self.inv, self.played = (), [], [], {}, {}
        self.projs: dict[int, Projection] = {}
        self.marks, self.pending = [(0, frozenset(), frozenset())], None

    def cut(self, n: int) -> None:
        """Forget the entries of u from index n on."""
        del self.u[n:]
        for proj in self.projs.values():
            proj.truncate(n)
        while self.played and next(reversed(self.played)) >= n:  # keys grow with u
            self.played.popitem()


def _seen_by(u: list[IEntry], i: int, e: IEntry, board: Board) -> tuple:
    """Entry e of u as part i sees it: its component, and its justifier in u,
    None for an initial move (only the initial-move cascade crosses)."""
    comp, j = SRC if e.iface == i - 1 else TGT, e.justifier
    if j is not None and u[j].iface not in (i - 1, i):
        if not (comp == SRC and board.src.is_initial(e.move)):
            raise OracleError("projection crosses the interface")
        j = None
    return comp, j


class ChainStrategy(Strategy):
    """Composite of a chain of strategies, each on adjacent interfaces."""

    def __init__(self, parts: list[Strategy], step_budget: Optional[int] = None):
        assert parts
        for a, b in zip(parts, parts[1:]):
            if a.board.tgt != b.board.src:
                raise ValueError(
                    f"cannot chain {a.name}:{a.board} with {b.name}:{b.board}"
                )
        board = Board(parts[0].board.src, parts[-1].board.tgt)
        super().__init__(board, ";".join(p.name for p in parts))
        self.parts = parts
        self.step_budget = step_budget
        self._work: Optional[_Work] = None

    # -- projections ---------------------------------------------------------
    def _project(self, u: list[IEntry], proj: Projection) -> Projection:
        """Extend part proj.i's projection over the entries of u it has not
        seen: the moves on its interfaces i-1 and i, with its own deltas."""
        i = proj.i
        for idx in range(proj.scanned, len(u)):
            e = u[idx]
            if e.iface not in (i - 1, i):
                continue
            comp, j = _seen_by(u, i, e, proj.board)
            j = None if j is None else bisect.bisect_left(proj.origins, j)
            proj.add(idx, Entry(comp, e.move, j, e.delta if e.owner == i else ()), e.owner == i)
        proj.scanned = len(u)
        return proj

    @staticmethod
    def _answer(u: list[IEntry], i: int, part: MachineStrategy, played: dict) -> Optional[tuple]:
        """Machine part i's answer to the last entry of u, justified in u, and
        what `played` keeps for it: the u indices of its P-view while the
        O-moves it justifies fall within the part's horizon, and its zones.
        Within the horizon the prelude answers on the P-view rebuilt from u;
        past it, or where the prelude passes, `mirror` copies."""
        x, at = u[-1], len(u) - 1
        comp, j = _seen_by(u, i, x, part.board)
        path, zones, out = (), (), None
        if j is not None:
            if u[j].owner != i:
                raise OracleError(f"{part.name}: {comp}:{x.move} is justified by a move "
                                  "it did not play")
            path, zones = played[j]
        if path is not None:
            path += (at,)
            pos = {k: p for p, k in enumerate(path)}  # the initial's justifier is not in it
            view = tuple(Entry(SRC if e.iface == i - 1 else TGT, e.move, pos.get(e.justifier),
                               e.delta if e.owner == i else ()) for e in map(u.__getitem__, path))
            out = part.prelude(Play(part.board, view), len(path) - 1)
        if out is None:
            out = mirror(part.board, Entry(comp, x.move, j), at, zones)
            if out is None:
                return None
            r, zones = out
        else:
            r, opened = out
            r = Response(r.comp, r.move, path[r.justifier], r.delta)
            zones = [Zone(z.own_comp, z.own_prefix, path[z.tgt_idx], z.tgt_comp, z.tgt_prefix)
                     for z in opened]
        keep = path + (len(u),) if path is not None and len(path) < part.horizon else None
        return r, (keep, zones)

    def _bounce(
        self, u: list[IEntry], receiver: int, live: set[Atom], w: _Work
    ) -> Optional[int]:
        """Let strategies react until the ball leaves to an outer interface.
        `live` holds every atom of u and grows with it; w holds u.  A machine
        part with a horizon is answered from u; every other part is asked on
        its P-view, for a P-move.

        Returns the index in u of the exit move, the last one added, or None.
        """
        budget = self.step_budget or max(64, 16 * len(self.parts) * (len(u) + 2))
        steps = 0
        n = len(self.parts)
        while True:
            steps += 1
            if steps > budget:
                raise CompositionBudget(f"{self.name}: no exit within {budget} steps")
            part = self.parts[receiver - 1]
            if part.horizon is not None:
                out = self._answer(u, receiver, part, w.played)
                if out is None:
                    return None
                r, w.played[len(u)] = out
            else:
                proj = self._project(u, w.projs.get(receiver) or w.projs.setdefault(
                    receiver, Projection(part.board, receiver)))
                view, view_idx = proj.views[-1]
                r = part.respond(view)
                if r is None:
                    return None
                if part.board.label(r.comp, r.move)[0] != "P":
                    raise OracleError(f"{part.name}: answer {r.comp}:{r.move} is an O-move")
                r = Response(r.comp, r.move, proj.origins[view_idx[r.justifier]], r.delta)
            r = _freshen(r, live)  # r is justified in u from here on
            live.update(r._iter_atoms_())
            iface = (receiver - 1) if r.comp == SRC else receiver
            u.append(IEntry(iface, r.move, r.justifier, r.delta, receiver))
            if iface == 0 or iface == n:
                return len(u) - 1
            receiver = iface if r.comp == SRC else iface + 1

    def _play(self, w: _Work, e: Entry, live: set[Atom]) -> Optional[Entry]:
        """Play the outer O-move e, justified by a play index, on w.u and
        bounce.  The exit as the composite play sees it, both moves recorded
        in w.vmap and w.inv; None on a refusal."""
        u, n, o = w.u, len(self.parts), len(w.u)
        if self.board.label(e.comp, e.move)[0] != "O":
            raise OracleError(f"{self.name}: outer move {e.comp}:{e.move} is a P-move")
        iface = 0 if e.comp == SRC else n
        just = None if e.justifier is None else w.vmap[e.justifier]
        u.append(IEntry(iface, e.move, just, (), 0))
        live.update(e.move.atoms)
        x = self._bounce(u, 1 if iface == 0 else n, live, w)
        if x is None:
            return None
        for k in (o, x):
            w.inv[k] = len(w.vmap)
            w.vmap.append(k)
        return expose(u, n, o + 1, x, w.inv)

    def respond_raw(self, view: Play) -> Optional[Response]:
        """Cut the working interaction back to the longest even prefix the
        view shares with the one walked, settling the pending answer when the
        view extends it, and play only the view's O-moves after that prefix.
        u then is what a replay from scratch builds, so the answer is the
        same.  A raise or a refusal drops the interaction."""
        w, self._work = self._work or _Work(), None
        es = view.entries
        vmap, inv, marks = w.vmap, w.inv, w.marks
        ids, s = _resume(w.view, view)
        if w.pending and s == len(w.view) < len(es):
            s += 1
            self._settle(w, es, *w.pending)
        at = max(min(s, len(es) - 1), 0) & ~1
        nu, sup, uat = marks[at // 2]
        if not (uat - sup).isdisjoint(support(es[at:])):
            at, (nu, sup, uat) = 0, marks[0]  # the suffix meets a hidden atom
        for ui in vmap[at:]:
            del inv[ui]
        del marks[at // 2 + 1:], vmap[at:]
        w.cut(nu)
        w.view, w.pending = ids, None
        taboo = frozenset(view.canon()[0])  # the atoms of the view
        live = set(taboo).union(uat)
        for i in range(at, len(es), 2):
            r = self._play(w, es[i], live)
            if r is None:
                return None
            if i + 1 == len(es):
                w.pending, self._work = (i, r), w
                return r
            live = set(taboo).union(self._settle(w, es, i, r))
        raise OracleError("even-length view fed to a strategy")

    def _settle(self, w: _Work, es: tuple, i: int, r: Entry):
        """Check the answer r to view entry i against es[i + 1], with the
        names its bounce introduced renamed to the view's; mark the prefix
        ending there.  The atoms of u."""
        u, expected, lo = w.u, es[i + 1], w.vmap[i] + 1
        if len(r.delta) != len(expected.delta):
            raise OracleError(f"{self.name}: delta arity mismatch replaying the view")
        if r.delta != expected.delta:
            pi = _complete_to_permutation(dict(zip(r.delta, expected.delta)))
            for j in range(lo, len(u)):
                u[j] = u[j]._map_atoms_(pi)
            for proj in w.projs.values():
                proj.truncate(lo)
            r = r._map_atoms_(pi)
        if r != expected:
            raise OracleError(
                f"{self.name}: view replay mismatch at {i + 1}: got {r.comp}:{r.move}@"
                f"{r.justifier}, expected {expected.comp}:{expected.move}@{expected.justifier}"
            )
        nu, sup, uat = w.marks[-1]
        uat = uat.union(a for x in u[nu:] for a in x._iter_atoms_())
        w.marks.append((len(u), sup.union(support(es[i:i + 2])), uat))
        return uat


def compose(*parts: Strategy) -> Strategy:
    """Flatten nested chains so interactions stay one level deep."""
    flat: list[Strategy] = []
    for p in parts:
        if isinstance(p, ChainStrategy):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if len(flat) == 1:
        return flat[0]
    return ChainStrategy(flat)


# ---------------------------------------------------------------------------
# Viewfunctions: enumeration, tables, equality
# ---------------------------------------------------------------------------

@dataclass
class Viewfunction:
    """Canonical table of the even-length P-views reached within a bound."""

    board: Board
    depth: int
    table: frozenset
    plays: dict = field(default_factory=dict, repr=False)

    def __contains__(self, play: Play) -> bool:
        return play.canon()[2] in self.table

    def __len__(self) -> int:
        return len(self.table)


def o_extensions(view: Play, budget: Budget) -> Iterator[Entry]:
    """Legal opponent extensions of an even view: children of its last move."""
    bd = view.board
    if len(view) == 0:
        for m in enum_schemas(bd.src.initials(), budget):
            yield Entry(SRC, m, None, ())
        return
    last = view.entries[-1]
    arena = bd.arena(last.comp)
    here = budget.with_atoms(sorted(support(view), key=Atom._sort_key))
    try:
        kids = list(enum_schemas(arena.children(last.move), here))
    except DepthExceeded:
        kids = []
    for m in kids:
        yield Entry(last.comp, m, len(view) - 1, ())
    if last.comp == SRC and bd.src.is_initial(last.move):
        for m in enum_schemas(bd.tgt.initials(), here):
            yield Entry(TGT, m, len(view) - 1, ())


def viewfunction(
    sigma: Strategy, depth: int, budget: Optional[Budget] = None
) -> Viewfunction:
    """Enumerate viewf(sigma) to views of length <= depth under the budget."""
    budget = budget or Budget()
    cache = getattr(sigma, "_vf_cache", None)
    if cache is None:
        cache = sigma._vf_cache = {}
    cache_key = (depth, budget)
    if cache_key in cache:
        return cache[cache_key]
    table = set()
    plays: dict = {}
    frontier: list[Play] = [Play(sigma.board)]
    while frontier:
        v = frontier.pop()
        for ext in o_extensions(v, budget):
            odd = v.append(ext)
            r = sigma.respond(odd)
            if r is None:
                continue
            even = odd.append(r)
            key = even.canon()[2]
            if key in table:
                continue
            table.add(key)
            plays[key] = even
            if len(even) < depth:
                frontier.append(even)
    out = Viewfunction(sigma.board, depth, frozenset(table), plays)
    cache[cache_key] = out
    return out


class TableStrategy(Strategy):
    """An innocent strategy induced by an explicit viewfunction table."""

    def __init__(self, board: Board, table_plays: Iterable[Play], name="table"):
        super().__init__(board, name)
        self.by_prefix: dict = {}
        for p in table_plays:
            if len(p) % 2 != 0:
                raise ValueError("viewfunction entries must be even-length")
            for cut in range(2, len(p) + 1, 2):
                q = Play(board, p.entries[:cut])
                ckey = Play(board, q.entries[:-1]).canon()[2]
                prev = self.by_prefix.get(ckey)
                if prev is not None:
                    if prev.canon()[2] != q.canon()[2]:
                        raise ValueError(
                            "determinacy collision inserting a table entry"
                        )
                    continue
                self.by_prefix[ckey] = q

    def respond_raw(self, view):
        hit = self.by_prefix.get(view.canon()[2])
        if hit is None:
            return None
        # transport the stored answer onto this (canonical) view
        return hit.entries[-1]._map_atoms_(canonical_perm(Play(hit.board, hit.entries[:-1])))


def strat_of_viewf(vf: Viewfunction) -> Strategy:
    return TableStrategy(vf.board, list(vf.plays.values()), name="strat(f)")


def strategy_equal(s1: Strategy, s2: Strategy, depth: int, budget=None) -> bool:
    if s1.board != s2.board:
        raise ValueError(f"board mismatch: {s1.board} vs {s2.board}")
    return (
        viewfunction(s1, depth, budget).table == viewfunction(s2, depth, budget).table
    )


def strategy_leq(s1: Strategy, s2: Strategy, depth: int, budget=None) -> bool:
    if s1.board != s2.board:
        raise ValueError(f"board mismatch: {s1.board} vs {s2.board}")
    return viewfunction(s1, depth, budget).table <= viewfunction(s2, depth, budget).table


def strategy_diff(s1: Strategy, s2: Strategy, depth: int, budget=None) -> list[str]:
    v1, v2 = viewfunction(s1, depth, budget), viewfunction(s2, depth, budget)
    out = []
    for key in sorted(v1.table - v2.table, key=repr)[:3]:
        out.append("only-left:\n" + v1.plays[key].pretty())
    for key in sorted(v2.table - v1.table, key=repr)[:3]:
        out.append("only-right:\n" + v2.plays[key].pretty())
    return out


# ---------------------------------------------------------------------------
# Totality classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TotalityClass:
    total: bool
    l4: bool
    t4: bool
    tl4: bool
    ttotal: bool
    starred: Optional[tuple[bool, bool, bool]]  # (l4*, t4*, tl4*)
    bound: int

    def __post_init__(self):
        if self.ttotal:
            assert self.tl4
        if self.tl4:
            assert self.t4 and self.l4
        if self.t4 or self.l4:
            assert self.total


def classify(sigma: Strategy, depth: int = 6, budget=None) -> TotalityClass:
    """Bounded verification of the totality classes.  The starred classes,
    for a tensor source, ask the same of the source's right component."""
    budget = budget or Budget()
    vf = viewfunction(sigma, depth, budget)
    src, tgt = sigma.board.src, sigma.board.tgt
    total = True
    for ext in o_extensions(Play(sigma.board), budget):
        if sigma.respond(Play(sigma.board, (ext,))) is None:
            total = False
    t4 = ttotal_extra = l4 = t4s = l4s = total
    # t4 / ttotal / t4*: responses to [i_A i_B j_B]
    twos = dict.fromkeys(p.entries[:2] for p in vf.plays.values() if len(p) >= 2)
    for entries in twos:
        two = Play(sigma.board, entries)
        here = budget.with_atoms(sorted(support(two), key=Atom._sort_key))
        for ext in o_extensions(two, here):
            if ext.comp != TGT or tgt.level(ext.move) != 1:
                continue
            r = sigma.respond(two.append(ext))
            if r is None or r.comp != SRC:
                t4 = ttotal_extra = t4s = False
                continue
            if src.level(r.move) != 1:
                t4 = ttotal_extra = False
            elif r.delta:
                ttotal_extra = False
            if r.move.addr[:1] != ("r",):
                t4s = False
    # l4 / l4*: any view ending with a source level-1 move has length exactly 4
    for play in vf.plays.values():
        last = play.entries[-1]
        if last.comp != SRC or len(play) == 4:
            continue
        try:
            lvl = src.level(last.move)
        except (ForeignMove, DepthExceeded):
            continue
        if lvl == 1:
            l4 = False
            if last.move.addr[:1] == ("r",):
                l4s = False
    tl4 = t4 and l4
    ttotal = tl4 and ttotal_extra
    starred = (l4s, t4s, l4s and t4s) if isinstance(src, Tensor) else None
    return TotalityClass(total, l4, t4, tl4, ttotal, starred, depth)


def determinacy_fuzz(sigma: Strategy, depth: int, budget=None) -> Optional[str]:
    """Search for an orbit-collision: two equivalent views with inequivalent
    responses.  Returns a description or None."""
    budget = budget or Budget()
    seen: dict = {}
    frontier: list[Play] = [Play(sigma.board)]
    while frontier:
        v = frontier.pop()
        for ext in o_extensions(v, budget):
            odd = v.append(ext)
            r = sigma.respond(odd)
            if r is None:
                continue
            ckey = odd.canon()[2]
            even = odd.append(r)
            if ckey in seen and seen[ckey] != even.canon()[2]:
                return f"determinacy broken after {odd.pretty()}"
            seen[ckey] = even.canon()[2]
            if len(even) < depth:
                frontier.append(even)
    return None



# ---------------------------------------------------------------------------
# Random play-level interactions (test fuel for composition and tidiness)
# ---------------------------------------------------------------------------

def legal_o_extensions_of_play(p: Play, budget: Budget):
    """Opponent extensions of an even-length *play* (not just a view)."""
    bd = p.board
    if len(p) == 0:
        yield from (Entry(SRC, m, None, ()) for m in enum_schemas(bd.src.initials(), budget))
        return
    here = budget.with_atoms(sorted(support(p), key=Atom._sort_key))
    seen = set()
    for j in view_indices(p, player=False):
        if p.polarity(j) != "P":
            continue
        e = p.entries[j]
        try:
            kids = list(enum_schemas(bd.arena(e.comp).children(e.move), here))
        except DepthExceeded:
            continue
        for m in kids:
            cand = Entry(e.comp, m, j, ())
            key = (cand.comp, cand.move, cand.justifier)
            if key in seen:
                continue
            seen.add(key)
            if check_play(p.append(cand), mode="plain").ok:
                yield cand


def random_interaction(sigma: Strategy, tau: Strategy, rng, steps: int, budget: Budget):
    """Random legal environment against sigma;tau, walked with the chain's
    `_play`: the component plays (s, t) it induces and the composite play.
    An O-move the chain refuses ends the walk and leaves no trace."""
    chain = ChainStrategy([sigma, tau])
    w, live = _Work(), set()
    composite = Play(chain.board)
    for _ in range(steps):
        opts = list(legal_o_extensions_of_play(composite, budget))
        if not opts:
            break
        ext, o = rng.choice(opts), len(w.u)
        r = chain._play(w, ext, live)
        if r is None:
            w.cut(o)
            break
        composite = composite.append(ext).append(r)
    s_play, t_play = (Play(p.board, tuple(chain._project(w.u, Projection(p.board, i)).entries))
                      for i, p in enumerate(chain.parts, 1))
    return s_play, t_play, composite
