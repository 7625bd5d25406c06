"""Tidiness, truncation, decomposition and term synthesis.

Tidy strategies treat the store as layered memory cells: a questioned name
is either answered immediately with a value introducing nothing, or passed
verbatim to the previous store and copycatted from there on.  Checking is
by bounded enumeration of P-views.  On finitary tidy strategies the
decomposition case split applies, and iterating it synthesizes a term
whose denotation reproduces the strategy at the verification bound.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .arenas import (
    Arena,
    Budget,
    ForeignMove,
    MERGE,
    Move,
    Names,
    NatArena,
    One,
    PAIR,
    STAR,
    STORE0,
    Tensor,
    classify_store_move,
    INITIAL,
    STORE_A,
    STORE_H,
    STORE_Q,
    p_arena,
    sden,
    t_arena,
)
from .nominal import Atom, NameList, _complete_to_permutation, atoms_of, orbit_canon, support
from .plays import Board, Entry, Play, SRC, TGT, pview
from .strategies import (
    Answer,
    CndStrategy,
    Diagonal,
    MachineStrategy,
    NameListProj,
    Pairing,
    PathProjection,
    Response,
    Strategy,
    TensorOf,
    TotalRestrict,
    TZone,
    Zone,
    ZonedTransform,
    ZoneTable,
    assoc_rt,
    compose,
    identity,
    o_extensions,
    pay_at,
    strategy_diff,
    strategy_equal,
    unit_elim_right,
    viewfunction,
)
from . import syntax as S
from .model import abs_strategy, denote, drf, eta, gden, mu, t_map, tau, upd
from .syntax import Arrow, NAT, Prod, Ref, Type, UNIT


# ---------------------------------------------------------------------------
# Move classification relative to a prearena
# ---------------------------------------------------------------------------

def classify_entry(board: Board, e: Entry) -> str:
    arena = board.src if e.comp == SRC else board.tgt
    try:
        out = classify_store_move(arena, e.move)
    except ForeignMove:
        return "Plain"
    if out == INITIAL and e.comp == TGT:
        # the target initial of a prearena is not the play's first move,
        # but it is not store machinery either
        return INITIAL
    return out


# ---------------------------------------------------------------------------
# Tidiness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TidyViolation:
    condition: str
    view: Play
    index: int
    detail: str

    def __str__(self):
        return f"{self.condition}@{self.index}: {self.detail}"


@dataclass
class TidyReport:
    violations: list[TidyViolation]
    bound: int
    checked: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        head = "tidy" if self.ok else "untidy"
        return f"{head} (bound {self.bound}, {self.checked} views)"


def last_o_store_handle(board: Board, view: Play) -> Optional[int]:
    for i in range(len(view.entries) - 1, -1, -1):
        if view.polarity(i) == "O" and classify_entry(board, view.entries[i]) == STORE_H:
            return i
    return None


def _copycat_mode(board: Board, view: Play) -> Optional[int]:
    """Index of the P-copy starting a store copycat the view is inside."""
    for i in range(len(view.entries) - 1):
        x, y = view.entries[i], view.entries[i + 1]
        if (
            view.polarity(i) == "O"
            and view.polarity(i + 1) == "P"
            and classify_entry(board, x) == STORE_Q
            and classify_entry(board, y) == STORE_Q
            and x.move.pay == y.move.pay
        ):
            return i + 1
    return None


def check_tidy(sigma: Strategy, bound: int = 8, budget: Optional[Budget] = None) -> TidyReport:
    """Enumerate odd views to `bound` moves and check the three conditions,
    plus the store-handle alternation of the good store discipline."""
    budget = budget or Budget()
    board = sigma.board
    violations: list[TidyViolation] = []
    checked = 0
    frontier: list[Play] = [Play(board)]
    while frontier:
        v = frontier.pop()
        for ext in o_extensions(v, budget):
            odd = v.append(ext)
            r = sigma.respond(odd)
            checked += 1
            i = len(odd) - 1
            cls_x = classify_entry(board, ext)
            if cls_x == STORE_Q:
                if r is None:
                    violations.append(
                        TidyViolation("TD1", odd, i, "no reply to a store question")
                    )
                    continue
                r_cls = classify_entry(board, r)
                is_answer = (
                    r_cls == STORE_A and r.justifier == i and not r.delta
                )
                is_copy = r_cls == STORE_Q and r.move.pay == ext.move.pay
                if not (is_answer or is_copy):
                    violations.append(
                        TidyViolation(
                            "TD1", odd, i,
                            f"reply {r.move} neither a clean answer nor a copy",
                        )
                    )
                else:
                    fresh = ext.move.pay not in support(Play(board, odd.entries[:-1]))
                    if fresh and not is_copy:
                        violations.append(
                            TidyViolation(
                                "TD1", odd, i, "fresh name answered, must copycat"
                            )
                        )
            if r is None:
                continue
            r_cls = classify_entry(board, r)
            if r_cls == STORE_Q:
                want = last_o_store_handle(board, odd)
                if want is None or r.justifier != want:
                    violations.append(
                        TidyViolation(
                            "TD2", odd, i,
                            f"store question justified by {r.justifier}, "
                            f"last O-handle is {want}",
                        )
                    )
            cc = _copycat_mode(board, odd)
            if cc is not None and i >= cc:
                ok = (
                    r.move.pay == ext.move.pay
                    and r.justifier == len(odd) - 3
                    and not r.delta
                )
                if not ok:
                    violations.append(
                        TidyViolation("TD3", odd, i, f"copycat broken by {r.move}")
                    )
            even = odd.append(r)
            if len(even) < bound:
                frontier.append(even)
            # good store discipline: handles alternate, O first
            handles = [
                (j, even.polarity(j))
                for j in range(len(even.entries))
                if classify_entry(board, even.entries[j]) == STORE_H
            ]
            for (_, p1), (j2, p2) in zip(handles, handles[1:]):
                if p1 == p2:
                    violations.append(
                        TidyViolation("GSD", even, j2, "store handles not alternating")
                    )
            if handles and handles[0][1] != "O":
                violations.append(
                    TidyViolation("GSD", even, handles[0][0], "P opens first store")
                )
    return TidyReport(violations, bound, checked)


# ---------------------------------------------------------------------------
# Truncation and finitary strategies
# ---------------------------------------------------------------------------

def trunc_view(board: Board, s: Play, primed: bool = False) -> Play:
    """Remove store-copycats (and with `primed` the default tails)."""
    out: list[Entry] = []
    n = len(s.entries)
    for i in range(0, n - 1, 2):
        x, y = s.entries[i], s.entries[i + 1]
        cx, cy = classify_entry(board, x), classify_entry(board, y)
        if cx == STORE_Q and cy == STORE_Q and x.move.pay == y.move.pay:
            break
        if primed and i + 2 == n:
            if cx == STORE_Q and cy == STORE_A:
                break
            if i == 0:
                break
        out.extend([x, y])
    return Play(board, tuple(out))


def trunc_table(sigma: Strategy, depth: int, budget=None) -> set:
    vf = viewfunction(sigma, depth, budget)
    out = set()
    for play in vf.plays.values():
        if len(play) > 3:
            t = trunc_view(sigma.board, play)
            out.add(t.canon()[2])
    return out


def is_finitary(sigma: Strategy, depth: int = 8, budget=None) -> tuple[bool, int]:
    """Bounded finitarity: the truncated table stops growing with depth."""
    small = trunc_table(sigma, depth - 2, budget)
    big = trunc_table(sigma, depth, budget)
    return small == big, len(big)


def restrict(sigma: Strategy, t: Play, depth: int = 10, budget=None) -> Strategy:
    """sigma|t : keep the branches truncating into a view of a prefix of t."""
    keys = set()
    for j in range(0, len(t.entries) + 1, 2):
        keys.add(pview(Play(t.board, t.entries[:j])).canon()[2])

    board = sigma.board

    class Restricted(Strategy):
        def respond_raw(self, view):
            r = sigma.respond(view)
            if r is None:
                return None
            even = view.append(r)
            cut = trunc_view(board, even, primed=True)
            if cut.canon()[2] in keys:
                return r
            if len(even) == 2:
                return r  # totality: keep default initial answers
            return None

    return Restricted(board, name=f"{sigma.name}|t")


# ---------------------------------------------------------------------------
# Leaf bookkeeping for synthesis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Leaf:
    ty: Type
    var_index: int  # de Bruijn index of the variable this leaf projects
    proj: tuple  # 'l'/'r' steps inside the variable's type
    gpath: tuple  # path inside the context arena (under the value part)


def flatten_type(t: Type, proj=()) -> list[tuple[Type, tuple]]:
    if isinstance(t, Prod):
        return flatten_type(t.left, proj + ("l",)) + flatten_type(
            t.right, proj + ("r",)
        )
    return [(t, proj)]


def context_leaves(gamma: tuple[Type, ...]) -> list[Leaf]:
    out = []
    n = len(gamma)
    for pos, t in enumerate(gamma):
        idx = n - 1 - pos
        base = ("l",) * (n - 1 - pos) + ("r",)
        for ty, proj in flatten_type(t):
            out.append(Leaf(ty, idx, proj, base + proj))
    return out


def leaf_term(leaf: Leaf) -> S.Term:
    t: S.Term = S.Var(leaf.var_index)
    for step in leaf.proj:
        t = S.Fst(t) if step == "l" else S.Snd(t)
    return t


def leaf_payload(init_pay, leaf: Leaf):
    """Extract the leaf's component from the initial payload (⊗ names gval)."""
    return pay_at(init_pay, ("r",) + leaf.gpath)


def _nat_eq_term(z: S.Term, kappa: int) -> S.Term:
    if kappa == 0:
        return S.If0(z, S.Num(0), S.Num(1))
    return S.If0(z, S.Num(1), _nat_eq_term(S.Pred(z), kappa - 1))


def _and_term(p: S.Term, q: S.Term) -> S.Term:
    return S.If0(p, q, S.Num(1))


def _neq_term(p: S.Term) -> S.Term:
    return S.If0(p, S.Num(1), S.Num(0))


def scrutinizer(
    names: NameList, gamma: tuple[Type, ...], init_pay
) -> tuple[S.Term, bool]:
    """The equality test deciding whether the context instance matches the
    initial payload's orbit.  Returns (term of type N, vacuous?)."""
    leaves = context_leaves(gamma)
    tests: list[S.Term] = []
    seen_fresh: dict[Atom, Leaf] = {}
    for leaf in leaves:
        pay = leaf_payload(init_pay, leaf)
        if isinstance(leaf.ty, S.Nat):
            tests.append(_nat_eq_term(leaf_term(leaf), pay))
        elif isinstance(leaf.ty, Ref):
            atom = pay[0]
            z = leaf_term(leaf)
            if atom in names:
                tests.append(S.EqTest(z, S.Name(atom)))
            elif atom in seen_fresh:
                tests.append(S.EqTest(z, leaf_term(seen_fresh[atom])))
            else:
                # fresh(i): distinct from the ambient names and the
                # previously introduced fresh leaves
                ineqs: list[S.Term] = []
                for a in names:
                    if a.family == atom.family:
                        ineqs.append(_neq_term(S.EqTest(z, S.Name(a))))
                for other, lf in seen_fresh.items():
                    if other.family == atom.family:
                        ineqs.append(_neq_term(S.EqTest(z, leaf_term(lf))))
                seen_fresh[atom] = leaf
                tests.extend(ineqs)
    if not tests:
        return S.Num(0), True
    out = tests[0]
    for t in tests[1:]:
        out = _and_term(out, t)
    return out, False


# ---------------------------------------------------------------------------
# Case strategies (view transformers around the decomposed strategy)
# ---------------------------------------------------------------------------

def OrbitTest(src: Arena, init_pay) -> Strategy:
    """[x = i0] : answer 0 on the distinguished initial orbit, 1 elsewhere."""
    key = orbit_canon(init_pay)[0]
    return Answer(
        Board(src, NatArena()), "orbit-test", lambda p: 0 if orbit_canon(p)[0] == key else 1
    )


class CaseTransform(ZonedTransform):
    """A decomposition case on the zone-table engine: sigma behind the
    inner prefix `build(view)` (None: no response), renamed by `zones`.
    Views shorter than `start` get the arrow's initial answer."""

    def __init__(self, sigma: Strategy, board: Board, name: str, start: int, build, *zones):
        super().__init__(board, name)
        self.sigma, self.start, self.build = sigma, start, build
        self.table = ZoneTable(*zones)

    def head(self, view):
        return Response(TGT, Move((), STAR), 0)

    def prefix(self, view):
        entries = self.build(view)
        return None if entries is None else (self.sigma, entries, self.table)


def _opened(init_pay, *extra: Entry) -> tuple[Entry, ...]:
    """A view opening the store arrow on `init_pay`, then `extra`."""
    return (
        Entry(SRC, Move((), init_pay), None, ()),
        Entry(TGT, Move((), STAR), 0, ()),
        Entry(TGT, Move(("j",), (MERGE, STORE0)), 1, ()),
        *extra,
    )


class StripNames(ZonedTransform):
    """Case 2: the fresh names of the head response become ambient.  They
    follow the first `n` names in the initial payload, and sigma's view
    gets them back as the delta of its 4th entry."""

    start = 4
    TABLE = ZoneTable(TZone(SRC, (), SRC, ()), TZone(TGT, (), TGT, ()))

    def __init__(self, sigma: Strategy, names: NameList, fresh: tuple[Atom, ...], gamma, k: int):
        src = p_arena(tuple(a.family for a in (*names, *fresh)), gden(gamma, k))
        super().__init__(Board(src, sigma.board.tgt), f"{sigma.name}∖names")
        self.sigma, self.n = sigma, len(names)

    def _init(self, view) -> tuple[Entry, tuple[Atom, ...]]:
        """sigma's initial entry, and the fresh names the view carries."""
        pay = view.entries[0].move.pay
        amb = pay[1]
        names_pay = tuple(amb[: self.n]) if self.n else STAR
        return Entry(SRC, Move((), (PAIR, names_pay, pay[2])), None, ()), tuple(amb[self.n:])

    def head(self, view):
        init, fresh = self._init(view)
        r = self.sigma.respond(Play(self.sigma.board, (init,) + view.entries[1:]))
        if r is None or len(view) == 1:
            return r
        moved = r._map_atoms_(_complete_to_permutation(dict(zip(r.delta, fresh))))
        return Response(moved.comp, moved.move, moved.justifier, ())

    def prefix(self, view):
        init, fresh = self._init(view)
        e = view.entries[3]
        opened = Entry(e.comp, e.move, e.justifier, fresh + e.delta)
        return self.sigma, (init, *view.entries[1:3], opened), self.TABLE


def deref_case_strategy(sigma, names, gamma, c_ty: Type, k: int) -> Strategy:
    """Case 3a's sigma_a : the continuation with the read value as an extra
    context variable."""
    sig = tuple(a.family for a in names)
    board = Board(p_arena(sig, gden(gamma + (c_ty,), k)), sigma.board.tgt)

    def _question_atom(init_pay):
        r = sigma.respond(Play(sigma.board, _opened(init_pay)))
        if r is None or r.move.addr != ("a", "q"):
            return None
        return r.move.pay

    def build(view):
        pay = view.entries[0].move.pay
        gval = pay[2]
        inner_g, c_val = gval[1], gval[2]
        inner_init = (PAIR, pay[1], inner_g)
        a = _question_atom(inner_init)
        if a is None:
            return None
        return _opened(
            inner_init,
            Entry(TGT, Move(("a", "q"), a), 2, ()),
            Entry(TGT, Move(("a", "v", c_ty), c_val), 3, ()),
        )

    return CaseTransform(
        sigma, board, f"{sigma.name}@drf", 3, build,
        TZone(SRC, ("l",), SRC, ("l",), ((0, 0),)),
        TZone(SRC, ("r", "l"), SRC, ("r",), ((0, 0),)),
        TZone(SRC, ("r", "r"), TGT, ("a", "v", c_ty), ((0, 4),)),
        TZone(TGT, (), TGT, (), ((0, 0), (1, 1), (2, 2))),
    )


def written_value_strategy(sigma, names, gamma, m0: Move, q_atom: Atom, c_ty: Type, k: int):
    """Case 3b's written value: P^names(gamma) -> T(C), built as a value
    strategy followed by the monad unit."""
    sig = tuple(a.family for a in names)
    src = p_arena(sig, gden(gamma, k))
    store_zone = _store_zone_of(m0)
    m0_comp = _comp_of(m0)
    value_zone = store_zone + ("v", c_ty)

    def build(view):
        return _opened(
            view.entries[0].move.pay,
            _m0_entry(m0),
            Entry(m0_comp, Move(store_zone + ("q",), q_atom), 3, ()),
        )

    # the value's own moves live in the store answer to the written name
    raw = CaseTransform(
        sigma, Board(src, sden(c_ty, k)), f"{sigma.name}@wrote", 1, build,
        TZone(SRC, (), SRC, (), ((0, 0),)),
        TZone(TGT, (), m0_comp, value_zone, ((0, 4),)),
    )
    return compose(raw, eta(sden(c_ty, k), k))


def _comp_of(m0: Move) -> str:
    """The component of the handle m0: the target's store opener or answer,
    or else a source-side interrogation."""
    return TGT if m0.addr[0] in ("j", "b") else SRC


def _m0_entry(m0: Move) -> Entry:
    return Entry(TGT, m0, 2, ()) if _comp_of(m0) == TGT else Entry(SRC, m0, 0, ())


def _store_zone_of(m0: Move) -> tuple:
    """The store zone opened by the handle m0, in its own component."""
    if m0.addr[:1] == ("b",):
        return ("b", "r")
    if m0.addr[:1] == ("j",):
        return ("a",)
    # source-side handle (an argument interrogation): its store is the
    # 'a','r' zone of the questioned arrow component
    return m0.addr[:-1] + ("a", "r")


class ForgetUpdate(MachineStrategy):
    """Case 3b's sigma': behave like sigma but pass the updated name to the
    previous store instead of answering it."""

    first = 5  # in the thread, copycat the question and all that follows it

    def __init__(self, inner: Strategy, m0: Move, q_atom: Atom):
        super().__init__(inner.board, f"{inner.name}∖upd")
        self.inner = inner
        self.m0 = m0
        self.q_atom = q_atom
        self.zone = _store_zone_of(m0)
        self.m0_comp = _comp_of(m0)
        self.links = {3: [Zone(self.m0_comp, self.zone, 2, TGT, ("a",))]}

    def _in_thread(self, view) -> bool:
        if len(view) < 5:
            return False
        e4 = view.entries[4]
        return (
            e4.comp == self.m0_comp
            and e4.move.addr == self.zone + ("q",)
            and e4.move.pay == self.q_atom
            and e4.justifier == 3
        )

    def respond_raw(self, view):
        if not self._in_thread(view):
            return self.inner.respond(view)
        return super().respond_raw(view)


def value_case_strategy(sigma, names, gamma, m0: Move, w_addr: tuple, w_extra,
                        new_ty: Type, out_value: Arena, k: int,
                        result_anchor: str) -> Strategy:
    """Continuations that extend the context by one variable bound to a
    component reachable after m0 (lambda bodies and call continuations).

    `w_addr` is the address of the O-move w opening that component;
    `result_anchor` is 'w' when the continuation answers w's store, or
    'root' when it still answers the ambient store opener.
    """
    sig = tuple(a.family for a in names)
    board_src = p_arena(sig, gden(gamma + (new_ty,), k))

    w_comp = _comp_of(m0)

    def build(view):
        pay = view.entries[0].move.pay
        gval = pay[2]
        inner_g, new_val = gval[1], gval[2]
        return _opened(
            (PAIR, pay[1], inner_g),
            _m0_entry(m0),
            Entry(w_comp, Move(w_addr, w_extra(new_val)), 3, ()),
        )

    zones = [
        TZone(SRC, ("l",), SRC, ("l",), ((0, 0),)),
        TZone(SRC, ("r", "l"), SRC, ("r",), ((0, 0),)),
    ]
    if w_addr[-1] == "j":
        # w is a merged question: the new variable is its argument part
        zones.append(
            TZone(SRC, ("r", "r"), w_comp, w_addr[:-1] + ("a", "l"), ((0, 4),))
        )
        zones.append(TZone(TGT, ("a",), w_comp, w_addr[:-1] + ("a", "r"), ((2, 4),)))
        zones.append(TZone(TGT, ("b",), w_comp, w_addr[:-1] + ("b",), ((2, 4),)))
    else:
        # w is an answer pair: the new variable is its value part
        zones.append(TZone(SRC, ("r", "r"), w_comp, w_addr + ("l",), ((0, 4),)))
        zones.append(TZone(TGT, ("a",), w_comp, w_addr + ("r",), ((2, 4),)))
        zones.append(TZone(TGT, ("b",), TGT, ("b",), ((2, 2),)))

    board = Board(board_src, t_arena(out_value, k))
    return CaseTransform(sigma, board, f"{sigma.name}@{result_anchor}", 3, build, *zones)


# ---------------------------------------------------------------------------
# Decomposition driver
# ---------------------------------------------------------------------------

@dataclass
class DecompositionCase:
    kind: str
    init_pay: object
    components: dict
    recombined: Optional[Strategy] = None


@dataclass
class SynthContext:
    names: NameList
    gamma: tuple[Type, ...]
    out_ty: Type
    k: int
    depth: int
    budget: Budget
    fuel: int = 24

    def board_src(self):
        return p_arena(tuple(a.family for a in self.names), gden(self.gamma, self.k))


def head_responses(sigma: Strategy, ctx: SynthContext) -> dict:
    """Map canonical initial payloads to the strategy's ⊛-response."""
    out = {}
    budget = ctx.budget.with_atoms(tuple(ctx.names))
    for ext in o_extensions(Play(sigma.board), budget):
        v1 = Play(sigma.board, (ext,))
        r1 = sigma.respond(v1)
        if r1 is None or r1.move != Move((), STAR):
            continue
        v3 = v1.append(r1).append(
            Entry(TGT, Move(("j",), (MERGE, STORE0)), 1, ())
        )
        r2 = sigma.respond(v3)
        if r2 is None:
            continue
        key = orbit_canon(ext.move.pay)[0]
        if key not in out:
            out[key] = (ext.move.pay, r2)
    return out


def decompose(
    sigma: Strategy, ctx: SynthContext, selected: bool = False
) -> DecompositionCase:
    heads = head_responses(sigma, ctx)
    if not heads:
        return DecompositionCase("stop", None, {})
    key = sorted(heads, key=repr)[0]
    init_pay, x0 = heads[key]
    if not selected and not _single_orbit_context(ctx):
        sigma0 = TotalRestrict(sigma, init_pay)
        sigma_rest = TotalRestrict(sigma, init_pay, outside=True)
        case = DecompositionCase(
            "split", init_pay, {"test": OrbitTest(sigma.board.src, init_pay),
                                "selected": sigma0, "rest": sigma_rest}
        )
        out_value = sden(ctx.out_ty, ctx.k)
        case.recombined = compose(
            Pairing(case.components["test"],
                    Pairing(sigma0, sigma_rest)),
            CndStrategy(out_value, ctx.k),
        )
        return case
    if x0.delta:
        stripped = StripNames(sigma, ctx.names, x0.delta, ctx.gamma, ctx.k)
        case = DecompositionCase(
            "fresh", init_pay, {"names": x0.delta, "inner": stripped}
        )
        sig = tuple(a.family for a in ctx.names)
        rec = stripped
        for i in range(len(x0.delta) - 1, -1, -1):
            prefix_sig = sig + tuple(a.family for a in x0.delta[:i])
            rec = abs_strategy(rec, prefix_sig, x0.delta[i].family, ctx.k)
        case.recombined = rec
        return case
    m0 = x0.move
    cls = classify_entry(sigma.board, x0)
    if cls == STORE_Q:
        c_ty = m0.pay.family
        inner = deref_case_strategy(sigma, ctx.names, ctx.gamma, c_ty, ctx.k)
        case = DecompositionCase(
            "read", init_pay, {"atom": m0.pay, "continuation": inner}
        )
        case.recombined = _recombine_read(sigma, inner, ctx, m0.pay, c_ty, init_pay)
        return case
    update = _find_update(sigma, ctx, init_pay, m0)
    if update is not None:
        q_atom, c_ty = update
        val = written_value_strategy(
            sigma, ctx.names, ctx.gamma, m0, q_atom, c_ty, ctx.k
        )
        rest = ForgetUpdate(sigma, m0, q_atom)
        case = DecompositionCase(
            "write", init_pay,
            {"atom": q_atom, "value": val, "rest": rest},
        )
        case.recombined = _recombine_write(val, rest, ctx, q_atom, c_ty, init_pay)
        return case
    return DecompositionCase("value", init_pay, {"head": m0})


def _single_orbit_context(ctx: SynthContext) -> bool:
    return all(
        isinstance(leaf.ty, (S.Unit, Arrow)) for leaf in context_leaves(ctx.gamma)
    )


def _find_update(sigma, ctx, init_pay, m0: Move):
    """Does sigma answer a store question right under m0's store?"""
    zone = _store_zone_of(m0)
    comp = _comp_of(m0)
    budget = ctx.budget.with_atoms(
        tuple(ctx.names) + tuple(a for a in atoms_of(init_pay))
    )
    base = Play(sigma.board, _opened(init_pay, _m0_entry(m0)))
    fams = set(budget.families) | {a.family for a in ctx.names}
    seen = set()
    for fam in fams:
        for a in budget.atoms_for(fam):
            if a in seen:
                continue
            seen.add(a)
            probe = base.append(Entry(comp, Move(zone + ("q",), a), 3, ()))
            r = sigma.respond(probe)
            if r is None:
                continue
            if classify_entry(sigma.board, r) == STORE_A and r.justifier == 4:
                return a, a.family
    return None


# t_map unshared: the shared one keys on its argument strategy's identity,
# and the arguments below are built afresh for every case
_t_map = t_map.__wrapped__


def _recombine_read(sigma, inner, ctx, atom, c_ty, init_pay):
    src = ctx.board_src()
    phi = _phi_read(ctx, atom, c_ty, init_pay)
    sig_names = Names(tuple(a.family for a in ctx.names))
    composite = compose(
        Pairing(identity(src), phi),
        tau(src, sden(c_ty, ctx.k), ctx.k),
        _t_map(
            compose(
                assoc_rt(sig_names, gden(ctx.gamma, ctx.k), sden(c_ty, ctx.k)),
                inner,
            ),
            ctx.k,
        ),
        mu(sden(ctx.out_ty, ctx.k), ctx.k),
    )
    return TotalRestrict(composite, init_pay)


def _name_of(ctx, atom, init_pay) -> Strategy:
    """P^names(gamma) -> the name `atom`: ambient, or a context leaf."""
    src = ctx.board_src()
    if atom in ctx.names:
        pos = tuple(ctx.names).index(atom)
        return compose(
            PathProjection(src, ("l",)),
            NameListProj((pos,), Names(tuple(a.family for a in ctx.names))),
        )
    leaf = _leaf_by_payload(init_pay, ctx.gamma, atom)
    assert leaf is not None, f"no context leaf holds {atom}"
    return PathProjection(src, ("r",) + leaf.gpath)


def _phi_read(ctx, atom, c_ty, init_pay):
    return compose(_name_of(ctx, atom, init_pay), drf(c_ty, ctx.k))


def _leaf_by_payload(init_pay, gamma, atom):
    for leaf in context_leaves(gamma):
        if isinstance(leaf.ty, Ref) and leaf_payload(init_pay, leaf) == (atom,):
            return leaf
    return None


def _phi_write(ctx, atom, c_ty, init_pay):
    return compose(
        TensorOf(_name_of(ctx, atom, init_pay), identity(sden(c_ty, ctx.k))),
        upd(c_ty, ctx.k),
    )


def _recombine_write(val_strat, rest, ctx, atom, c_ty, init_pay):
    src = ctx.board_src()
    k = ctx.k
    cval = sden(c_ty, k)
    phi = _phi_write(ctx, atom, c_ty, init_pay)
    composite = compose(
        Pairing(Diagonal(src), val_strat),
        tau(Tensor(src, src), cval, k),
        _t_map(assoc_rt(src, src, cval), k),
        _t_map(TensorOf(identity(src), phi), k),
        _t_map(tau(src, One(), k), k),
        mu(Tensor(src, One()), k),
        _t_map(unit_elim_right(src), k),
        _t_map(rest, k),
        mu(sden(ctx.out_ty, k), k),
    )
    return TotalRestrict(composite, init_pay)


# ---------------------------------------------------------------------------
# Synthesis (definability)
# ---------------------------------------------------------------------------

class SynthesisError(Exception):
    pass


def synthesize(sigma: Strategy, ctx: SynthContext, selected: bool = False) -> S.Term:
    """Turn a finitary tidy strategy back into a term; bounded-faithful."""
    if ctx.fuel <= 0:
        raise SynthesisError("synthesis recursion budget exhausted")
    case = decompose(sigma, ctx, selected=selected)
    if case.kind == "stop":
        return S.stop_term(ctx.out_ty)
    init_pay = case.init_pay
    if case.kind == "split":
        n0, vacuous = scrutinizer(ctx.names, ctx.gamma, init_pay)
        m0 = synthesize(case.components["selected"], _spend(ctx), selected=True)
        if vacuous:
            return m0
        m_rest = synthesize(case.components["rest"], _spend(ctx))
        return S.If0(n0, m0, m_rest)
    if case.kind == "fresh":
        fresh = case.components["names"]
        inner_ctx = _spend(ctx, names=NameList(tuple(ctx.names) + tuple(fresh)))
        body = synthesize(case.components["inner"], inner_ctx, selected=True)
        for a in reversed(fresh):
            body = S.Nu(a, body)
        return body
    if case.kind == "read":
        atom = case.components["atom"]
        c_ty = atom.family
        m_a = synthesize(case.components["continuation"],
                         _spend(ctx, gamma=ctx.gamma + (c_ty,)))
        return S.App(S.Lam("y", c_ty, m_a), S.Deref(_name_term(ctx, init_pay, atom)))
    if case.kind == "write":
        atom = case.components["atom"]
        c_ty = atom.family
        m_val = synthesize(case.components["value"], _spend(ctx, out_ty=c_ty), selected=True)
        m_rest = synthesize(case.components["rest"], _spend(ctx), selected=True)
        return S.seq(S.Assign(_name_term(ctx, init_pay, atom), m_val), m_rest)
    if case.kind == "value":
        return _synthesize_value(sigma, ctx, init_pay, case.components["head"])
    raise SynthesisError(f"unhandled case {case.kind}")


def _spend(ctx: SynthContext, **changes) -> SynthContext:
    """A sub-problem's context: one unit of fuel less, and `changes`."""
    return replace(ctx, fuel=ctx.fuel - 1, **changes)


def _name_term(ctx: SynthContext, init_pay, atom: Atom) -> S.Term:
    if atom in ctx.names:
        return S.Name(atom)
    leaf = _leaf_by_payload(init_pay, ctx.gamma, atom)
    if leaf is None:
        raise SynthesisError(f"name {atom} unreachable from the context")
    return leaf_term(leaf)


def _synthesize_value(sigma, ctx, init_pay, m0: Move) -> S.Term:
    if m0.addr[:1] == ("b",):
        # returning a value of the output type
        val_pay = m0.pay[1]
        return _value_term(sigma, ctx, init_pay, m0, ctx.out_ty, val_pay, ("b", "l"), "body")
    # interrogating an argument: m0 is a source-side merged question
    leaf, _ = _arrow_leaf_for(ctx, m0)
    arg_pay = m0.pay[1][1]
    assert isinstance(leaf.ty, Arrow)
    arg_term = _value_term(
        sigma, ctx, init_pay, m0, leaf.ty.src, arg_pay, m0.addr[:-1] + ("a", "l"), "arg"
    )
    w_addr = m0.addr[:-1] + ("b",)
    cont = value_case_strategy(
        sigma, ctx.names, ctx.gamma, m0, w_addr,
        lambda payload: (PAIR, payload, STORE0),
        leaf.ty.tgt, sden(ctx.out_ty, ctx.k), ctx.k, "call",
    )
    m_a = synthesize(cont, _spend(ctx, gamma=ctx.gamma + (leaf.ty.tgt,)))
    call = S.App(leaf_term(leaf), arg_term)
    return S.App(S.Lam("y", leaf.ty.tgt, m_a), call)


def _arrow_leaf_for(ctx: SynthContext, m0: Move):
    assert m0.addr[-1] == "j"
    leafpath = m0.addr[:-1]
    for leaf in context_leaves(ctx.gamma):
        if ("r",) + leaf.gpath == leafpath and isinstance(leaf.ty, Arrow):
            return leaf, leafpath
    raise SynthesisError(f"no arrow leaf at {leafpath}")


def _value_term(sigma, ctx, init_pay, m0, ty: Type, pay, addr: tuple, tag: str) -> S.Term:
    """A term denoting the value component `pay` at type `ty` whose moves
    live under `addr`: the returned value, or the argument of a call."""
    if isinstance(ty, Prod):
        return S.Pair(
            _value_term(sigma, ctx, init_pay, m0, ty.left, pay[1], addr + ("l",), tag),
            _value_term(sigma, ctx, init_pay, m0, ty.right, pay[2], addr + ("r",), tag),
        )
    if isinstance(ty, S.Nat):
        return S.Num(pay)
    if isinstance(ty, S.Unit):
        return S.Skip()
    if isinstance(ty, Ref):
        return _name_term(ctx, init_pay, pay[0])
    if isinstance(ty, Arrow):
        cont = value_case_strategy(
            sigma, ctx.names, ctx.gamma, m0, addr + ("j",),
            lambda payload: (MERGE, (PAIR, payload, STORE0)),
            ty.src, sden(ty.tgt, ctx.k), ctx.k, tag,
        )
        body = synthesize(cont, _spend(ctx, gamma=ctx.gamma + (ty.src,), out_ty=ty.tgt))
        return S.Lam("y", ty.src, body)
    raise SynthesisError(f"cannot realize a value of type {ty}")


def synthesize_term(
    sigma: Strategy,
    names: NameList,
    gamma: tuple[Type, ...],
    out_ty: Type,
    k: int = 2,
    depth: int = 8,
    budget: Optional[Budget] = None,
) -> S.Term:
    ctx = SynthContext(
        names, gamma, out_ty, k, depth,
        budget or Budget(max_nat=2, atoms=tuple(names), fresh_per_family=1,
                         families=(UNIT, NAT)),
    )
    return synthesize(sigma, ctx)


@dataclass
class SynthCertificate:
    term: S.Term
    depth: int
    equal: bool
    diffs: list[str]


def synthesize_checked(sigma, names, gamma, out_ty, k=2, depth=8, budget=None):
    term = synthesize_term(sigma, names, gamma, out_ty, k, depth, budget)
    d = denote(term, names, gamma, k)
    eqs = strategy_equal(d, sigma, depth, budget)
    diffs = [] if eqs else strategy_diff(d, sigma, depth, budget)
    return SynthCertificate(term, depth, eqs, diffs)
