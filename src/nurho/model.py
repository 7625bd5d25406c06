"""The store-monad model and the denotational translation.

Strategies here are the displayed composites: the monad structure is built
from the lifting monad and currying, references from the three store
machines, and term denotations from the compositional translation clauses.
Every equality this module reports is a bounded-depth table equality.

Arenas: term-level types are translated with the saturated policy
(`arenas.sden`: arrow components at the same store depth k), which agrees
with the approximant chain on first-order types while sparing the
embedding plumbing between adjacent approximants.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from typing import Optional

from .arenas import (
    Arena,
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
    Store,
    Tensor,
    mk_names,
    p_arena,
    sden,
    t_arena,
)
from .machine import Config, Store as TermStore, step, store_term
from .nominal import Atom, NameList, Permutation, fresh_atom
from .plays import Board, Entry, Play, SRC, TGT
from .strategies import (
    Bang,
    CndStrategy,
    Dn,
    DrfStrategy,
    EqStrat,
    LambdaC,
    LiftF,
    NameListProj,
    NatFn,
    NewName,
    Numeral,
    Pairing,
    PathProjection,
    Pu,
    St,
    Strategy,
    TensorOf,
    Up,
    UpdStrategy,
    assoc_lt,
    assoc_rt,
    compose,
    ev,
    identity,
    strategy_diff,
    strategy_equal,
    symm,
    unit_elim_right,
)
from . import syntax as S
from .syntax import Arrow, Prod, Ref, Type, UNIT


def gden(gamma: tuple[Type, ...], k: int) -> Arena:
    out: Arena = One()
    for t in gamma:
        out = Tensor(out, sden(t, k))
    return out


def var_path(index: int) -> tuple:
    return ("r",) + ("l",) * index + ("r",)


# ---------------------------------------------------------------------------
# Store monad operations (Fig.-5-style composites)
# ---------------------------------------------------------------------------

# Denotations by (names, gamma, term, k) and shared strategies by
# (builder, *args).  Always read through the module global: clearing or
# replacing it gives the next calls fresh strategies with empty memos.
_DEN_CACHE: dict = {}


def _shared(build):
    """Build one strategy per argument tuple, so that equal morphisms are
    one object with one memo.  The unshared builder is `__wrapped__`."""

    @wraps(build, updated=())
    def shared(*args):
        key = (build, *args)
        hit = _DEN_CACHE.get(key)
        if hit is None:
            hit = _DEN_CACHE[key] = build(*args)
        return hit

    return shared


@_shared
def ev_lift(a: Arena, k: int) -> Strategy:
    """ev : T a ⊗ store -> lift(a ⊗ store)."""
    return ev(Store(k), Lift(Tensor(a, Store(k))))


@_shared
def t_map(f: Strategy, k: int) -> Strategy:
    """The monad's functor action on f : a -> b."""
    a = f.board.src
    body = compose(
        ev_lift(a, k),
        LiftF(TensorOf(f, identity(Store(k)))),
    )
    return LambdaC(body)


@_shared
def eta(a: Arena, k: int) -> Strategy:
    return LambdaC(Up(Tensor(a, Store(k))))


@_shared
def mu(a: Arena, k: int) -> Strategy:
    ta = t_arena(a, k)
    body = compose(
        ev_lift(ta, k),
        LiftF(ev_lift(a, k)),
        Dn(Tensor(a, Store(k))),
    )
    return LambdaC(body)


def tau(a: Arena, b: Arena, k: int) -> Strategy:
    xi = Store(k)
    body = compose(
        assoc_rt(a, t_arena(b, k), xi),
        TensorOf(identity(a), ev_lift(b, k)),
        St(a, Tensor(b, xi)),
        LiftF(assoc_lt(a, b, xi)),
    )
    return LambdaC(body)


@_shared
def tau_prime(a: Arena, b: Arena, k: int) -> Strategy:
    return compose(symm(t_arena(a, k), b), tau(b, a, k), t_map(symm(b, a), k))


@_shared
def psi(a: Arena, b: Arena, k: int) -> Strategy:
    return compose(
        tau_prime(a, t_arena(b, k), k), t_map(tau(a, b, k), k), mu(Tensor(a, b), k)
    )


@_shared
def psi_prime(a: Arena, b: Arena, k: int) -> Strategy:
    return compose(
        tau(t_arena(a, k), b, k), t_map(tau_prime(a, b, k), k), mu(Tensor(a, b), k)
    )


@_shared
def st_prime(a: Arena, b: Arena) -> Strategy:
    return compose(symm(Lift(a), b), St(b, a), LiftF(symm(b, a)))


@_shared
def alpha(a: Arena, k: int) -> Strategy:
    """lift(a) -> T a, the monad morphism."""
    return LambdaC(st_prime(a, Store(k)))


@_shared
def ev_t(b_arena: Arena, c_value: Arena, k: int) -> Strategy:
    """T-evaluation: (b => T c) ⊗ b -> T c."""
    return ev(b_arena, t_arena(c_value, k))


def nu_strategy(sig: tuple, family: Type, a: Arena, k: int) -> Strategy:
    tgt_p = p_arena(tuple(sig) + (family,), a)
    return compose(NewName(sig, family, a), alpha(tgt_p, k))


def abs_strategy(f: Strategy, sig: tuple, family: Type, k: int) -> Strategy:
    """Name abstraction: f : P^(sig+a) x -> T b  to  P^sig x -> T b."""
    src = f.board.src
    assert isinstance(src, Tensor), src
    inner_value = src.right
    return compose(
        NewName(sig, family, inner_value), LiftF(f), Pu(f.board.tgt)
    )


# the leaves `_denote` lifts with t_map, shared so that t_map's key repeats;
# the reference primitives are values at the saturated arena sden(C, k)
drf, upd = _shared(DrfStrategy), _shared(UpdStrategy)
cnd, projection = _shared(CndStrategy), _shared(PathProjection)


@_shared
def succ() -> Strategy:
    return NatFn(lambda n: n + 1, "succ")


@_shared
def pred() -> Strategy:
    return NatFn(lambda n: max(0, n - 1), "pred")


@_shared
def eq_strategy(fam: Type) -> Strategy:
    g = Names((fam,))
    return EqStrat(Tensor(g, g))


# ---------------------------------------------------------------------------
# The denotational translation
# ---------------------------------------------------------------------------

def denote(
    term: S.Term,
    names: NameList = NameList(),
    gamma: tuple[Type, ...] = (),
    k: Optional[int] = None,
) -> Strategy:
    """The translation of  names | gamma |- term  as a strategy
    P^names(gamma) -> T(type), by default at store depth type order + 2."""
    ty = S.typecheck(names, list(gamma), term)
    if k is None:
        k = S.type_order(ty) + 2
    key = (tuple(names), tuple(gamma), term, k)
    hit = _DEN_CACHE.get(key)
    if hit is None:
        hit = _denote(term, names, tuple(gamma), ty, k)
        _DEN_CACHE[key] = hit
    return hit


def _denote(term, names, gamma, ty: Type, k: int) -> Strategy:
    sig = tuple(a.family for a in names)
    src = p_arena(sig, gden(gamma, k))

    def val0(v: S.Term, vty: Type) -> Strategy:
        # the value translation (eta is appended by the caller)
        if isinstance(v, S.Var):
            return PathProjection(src, var_path(v.index))
        if isinstance(v, S.Num):
            return compose(Bang(src), Numeral(v.value))
        if isinstance(v, S.Skip):
            return Bang(src)
        if isinstance(v, S.Name):
            pos = tuple(names).index(v.atom)
            return compose(
                PathProjection(src, ("l",)),
                NameListProj((pos,), Names(sig)),
            )
        if isinstance(v, S.Lam):
            inner = denote(v.body, names, gamma + (v.ty,), k)
            curried = compose(assoc_rt(mk_names(sig), gden(gamma, k), sden(v.ty, k)), inner)
            return LambdaC(curried)
        if isinstance(v, S.Pair):
            assert isinstance(vty, Prod)
            return Pairing(val0(v.left, vty.left), val0(v.right, vty.right))
        raise TypeError(f"not a value: {v}")

    if S.is_value(term):
        return compose(val0(term, ty), eta(sden(ty, k), k))

    if isinstance(term, S.App):
        fn_ty = S.typecheck(names, list(gamma), term.fn)
        assert isinstance(fn_ty, Arrow)
        m = denote(term.fn, names, gamma, k)
        n = denote(term.arg, names, gamma, k)
        f_arena = sden(fn_ty, k)
        a_arena = sden(fn_ty.src, k)
        return compose(
            Pairing(m, n),
            psi(f_arena, a_arena, k),
            t_map(ev_t(a_arena, sden(fn_ty.tgt, k), k), k),
            mu(sden(fn_ty.tgt, k), k),
        )
    if isinstance(term, S.Pair):
        lt = S.typecheck(names, list(gamma), term.left)
        rt = S.typecheck(names, list(gamma), term.right)
        return compose(
            Pairing(
                denote(term.left, names, gamma, k),
                denote(term.right, names, gamma, k),
            ),
            psi(sden(lt, k), sden(rt, k), k),
        )
    if isinstance(term, (S.Fst, S.Snd)):
        pt = S.typecheck(names, list(gamma), term.body)
        assert isinstance(pt, Prod)
        side = ("l",) if isinstance(term, S.Fst) else ("r",)
        proj = projection(sden(pt, k), side)
        return compose(denote(term.body, names, gamma, k), t_map(proj, k))
    if isinstance(term, (S.Succ, S.Pred)):
        fn = succ() if isinstance(term, S.Succ) else pred()
        return compose(denote(term.body, names, gamma, k), t_map(fn, k))
    if isinstance(term, S.If0):
        branch_ty = ty
        val = sden(branch_ty, k)
        ta = t_arena(val, k)
        legs = Pairing(
            denote(term.scrutinee, names, gamma, k),
            Pairing(
                denote(term.then, names, gamma, k),
                denote(term.orelse, names, gamma, k),
            ),
        )
        return compose(
            legs,
            tau_prime(NatArena(), Tensor(ta, ta), k),
            t_map(cnd(val, k), k),
            mu(val, k),
        )
    if isinstance(term, S.EqTest):
        rt = S.typecheck(names, list(gamma), term.left)
        assert isinstance(rt, Ref)
        g = Names((rt.inner,))
        return compose(
            Pairing(
                denote(term.left, names, gamma, k),
                denote(term.right, names, gamma, k),
            ),
            psi(g, g, k),
            t_map(eq_strategy(rt.inner), k),
        )
    if isinstance(term, S.Assign):
        rt = S.typecheck(names, list(gamma), term.ref)
        assert isinstance(rt, Ref)
        g = Names((rt.inner,))
        return compose(
            Pairing(
                denote(term.ref, names, gamma, k),
                denote(term.value, names, gamma, k),
            ),
            psi(g, sden(rt.inner, k), k),
            t_map(upd(rt.inner, k), k),
            mu(One(), k),
        )
    if isinstance(term, S.Deref):
        rt = S.typecheck(names, list(gamma), term.ref)
        assert isinstance(rt, Ref)
        return compose(
            denote(term.ref, names, gamma, k),
            t_map(drf(rt.inner, k), k),
            mu(sden(rt.inner, k), k),
        )
    if isinstance(term, S.Nu):
        a = term.atom
        if a in names:
            fresh = fresh_atom(a.family, set(names) | set(S.all_atoms(term)))
            term = S.Nu(fresh, term.body._map_atoms_(Permutation.swap(a, fresh)))
            a = term.atom
        inner = denote(term.body, NameList(tuple(names) + (a,)), gamma, k)
        return abs_strategy(inner, sig, a.family, k)
    raise TypeError(f"cannot denote {term}")


# ---------------------------------------------------------------------------
# Observability and the worked predicates
# ---------------------------------------------------------------------------

def initial_entry(board: Board) -> Entry:
    src = board.src
    assert isinstance(src, Tensor)
    names_part = src.left
    if isinstance(names_part, Names):
        sig = names_part.signature
        seen: dict = {}
        fixed = []
        for f in sig:
            n = seen.get(f, 0)
            seen[f] = n + 1
            fixed.append(Atom(f, n))
        pay = (PAIR, tuple(fixed), src.right.point())
    else:
        pay = (PAIR, STAR, src.right.point())
    return Entry(SRC, Move((), pay), None, ())


def observable(f: Strategy, budget: int = 8, init: Optional[Entry] = None) -> bool:
    """Whether f contains the immediate-zero observation play."""
    e0 = init or initial_entry(f.board)
    v1 = Play(f.board, (e0,))
    r1 = f.respond(v1)
    if r1 is None or r1.move != Move((), STAR):
        return False
    v2 = v1.append(r1)
    opener = Entry(TGT, Move(("j",), (MERGE, STORE0)), 1, ())
    r2 = f.respond(v2.append(opener))
    if r2 is None:
        return False
    return (
        r2.move == Move(("b",), (PAIR, 0, STORE0))
        and r2.justifier == 2
        and len(r2.delta) <= budget
    )


def guard_derefs(term: S.Term) -> S.Term:
    """Insert a throwaway fresh-name creation before every dereference (the
    transform used to trade endless reads for endless allocations)."""
    avoid = set(S.all_atoms(term))

    def go(t: S.Term) -> S.Term:
        if isinstance(t, S.Deref):
            inner = go(t.ref)
            b = fresh_atom(UNIT, avoid)
            avoid.add(b)
            return S.Nu(b, S.Deref(inner))
        subs = [go(c) for c in S._children(t)]
        return S._rebuild(t, subs)

    return S.alpha_normal(go(term))


# ---------------------------------------------------------------------------
# Diagram checks
# ---------------------------------------------------------------------------

@dataclass
class DiagramReport:
    name: str
    equal: bool
    depth: int
    diffs: list[str]

    def __bool__(self):
        return self.equal


def _report(name, lhs, rhs, depth, budget) -> DiagramReport:
    same = strategy_equal(lhs, rhs, depth, budget)
    diffs = [] if same else strategy_diff(lhs, rhs, depth, budget)
    return DiagramReport(name, same, depth, diffs)


def check_diagram(
    name: str,
    k: int = 1,
    depth: int = 8,
    budget: Optional[Budget] = None,
    ty: Type = UNIT,
    ty2: Type = UNIT,
) -> DiagramReport:
    budget = budget or Budget(max_nat=1, fresh_per_family=1, families=(ty, ty2))
    g = Names((ty,))
    a = sden(ty, k)
    b = sden(ty2, k)
    if name == "N1":
        src_same = Tensor(Names((ty,)), One())
        np_ = PathProjection(src_same, ("l",))
        lhs = compose(Pairing(np_, np_), eq_strategy(ty))
        rhs = compose(Bang(src_same), Numeral(0))
        rep0 = _report("N1-same", lhs, rhs, depth, budget)
        src_diff = Tensor(Names((ty, ty)), One())
        nm = lambda pos: compose(
            PathProjection(src_diff, ("l",)), NameListProj((pos,), Names((ty, ty)))
        )
        lhs2 = compose(Pairing(nm(0), nm(1)), eq_strategy(ty))
        rhs2 = compose(Bang(src_diff), Numeral(1))
        rep1 = _report("N1-diff", lhs2, rhs2, depth, budget)
        return DiagramReport("N1", rep0.equal and rep1.equal, depth, rep0.diffs + rep1.diffs)
    if name == "N2-left":
        # pi then new  =  new then T(pi)
        sig_small, sig_big = (ty,), (ty2, ty)
        pit = TensorOf(NameListProj((1,), Names(sig_big)), identity(a))
        lhs = compose(pit, nu_strategy(sig_small, ty, a, k))
        pit_after = TensorOf(
            NameListProj((1, 2), Names((ty2, ty, ty))), identity(a)
        )
        rhs = compose(nu_strategy(sig_big, ty, a, k), t_map(pit_after, k))
        return _report("N2-left", lhs, rhs, depth, budget)
    if name == "N2-right":
        # zeta then new  =  (id x new) then tau then T(zeta)
        sig = (ty,)
        n_arena = Names(sig)
        zeta = compose(
            assoc_lt(a, n_arena, b),
            TensorOf(symm(a, n_arena), identity(b)),
            assoc_rt(n_arena, a, b),
        )
        lhs = compose(zeta, nu_strategy(sig, ty, Tensor(a, b), k))
        sig2 = tuple(sig) + (ty,)
        zeta2 = compose(
            assoc_lt(a, Names(sig2), b),
            TensorOf(symm(a, Names(sig2)), identity(b)),
            assoc_rt(Names(sig2), a, b),
        )
        rhs = compose(
            TensorOf(identity(a), nu_strategy(sig, ty, b, k)),
            tau(a, p_arena(sig2, b), k),
            t_map(zeta2, k),
        )
        return _report("N2-right", lhs, rhs, depth, budget)
    if name == "NR-1":
        src = Tensor(g, a)
        write = compose(
            Pairing(identity(src), upd(ty, k)),
            tau(src, One(), k),
            t_map(unit_elim_right(src), k),
        )
        lhs = compose(
            write, t_map(compose(PathProjection(src, ("l",)), drf(ty, k)), k),
            mu(a, k),
        )
        rhs = compose(write, t_map(PathProjection(src, ("r",)), k))
        return _report("NR-1", lhs, rhs, depth, budget)
    if name == "NR-2":
        src = Tensor(g, Tensor(a, a))
        arm = lambda side: compose(
            TensorOf(identity(g), PathProjection(Tensor(a, a), side)),
            upd(ty, k),
        )
        arms = Pairing(arm(("l",)), arm(("r",)))
        elim = t_map(PathProjection(Tensor(One(), One()), ("r",)), k)
        lhs = compose(arms, psi(One(), One(), k), elim)
        rhs = compose(arms, PathProjection(Tensor(t_arena(One(), k), t_arena(One(), k)), ("r",)))
        return _report("NR-2", lhs, rhs, depth, budget)
    if name == "NR-3":
        names2 = Names((ty, ty2))
        src = Tensor(Tensor(names2, One()), Tensor(a, b))
        pick = lambda pos, t_: compose(
            PathProjection(src, ("l",)),
            PathProjection(Tensor(names2, One()), ("l",)),
            NameListProj((pos,), names2),
        )
        arm1 = compose(
            Pairing(pick(0, ty), PathProjection(src, ("r", "l"))), upd(ty, k)
        )
        arm2 = compose(
            Pairing(pick(1, ty2), PathProjection(src, ("r", "r"))), upd(ty2, k)
        )
        unit_proj = t_map(PathProjection(Tensor(One(), One()), ("r",)), k)
        lhs = compose(Pairing(arm1, arm2), psi(One(), One(), k), unit_proj)
        rhs = compose(Pairing(arm1, arm2), psi_prime(One(), One(), k), unit_proj)
        return _report("NR-3", lhs, rhs, depth, budget)
    if name == "SNR":
        sig = (ty,)
        pa = p_arena(sig, a)
        gb = Tensor(Names((ty2,)), b)
        src = Tensor(pa, gb)
        left = compose(PathProjection(src, ("l",)), nu_strategy(sig, ty, a, k))
        right = compose(PathProjection(src, ("r",)), upd(ty2, k))
        paa = p_arena(tuple(sig) + (ty,), a)
        lhs = compose(Pairing(left, right), psi(paa, One(), k))
        rhs = compose(Pairing(left, right), psi_prime(paa, One(), k))
        return _report("SNR", lhs, rhs, depth, budget)
    raise ValueError(f"unknown diagram {name}")


# ---------------------------------------------------------------------------
# Correctness along reduction
# ---------------------------------------------------------------------------

@dataclass
class CorrectnessReport:
    rule: str
    clause: int
    equal: bool
    depth: int
    diffs: list[str]

    def __bool__(self):
        return self.equal


def seq_term(store: TermStore, m: S.Term) -> S.Term:
    return S.seq(store_term(store), m, ty=UNIT)


def correctness_check(
    cfg: Config, k: int = 2, depth: int = 6, budget: Optional[Budget] = None
) -> Optional[CorrectnessReport]:
    """One步 of Prop-style correctness: compare the two sides of the
    applicable clause after a single reduction step.  None when terminal."""
    nxt = step(cfg)
    if nxt is None:
        return None
    (cfg2, rule) = nxt
    names = NameList(cfg.store.domain())
    budget = budget or Budget(
        max_nat=2,
        atoms=tuple(names),
        fresh_per_family=1,
        families=tuple({a.family for a in names} | {UNIT}),
    )
    if rule == "NEW":
        new_atom = [a for a in cfg2.store.domain() if a not in names][0]
        lhs = denote(seq_term(cfg.store, cfg.term), names, (), k)
        inner = denote(
            seq_term(cfg.store, cfg2.term),
            NameList(tuple(names) + (new_atom,)),
            (),
            k,
        )
        sig = tuple(a.family for a in names)
        rhs = abs_strategy(inner, sig, new_atom.family, k)
        rep = _report("NEW", lhs, rhs, depth, budget)
        return CorrectnessReport(rule, 3, rep.equal, depth, rep.diffs)
    if rule in ("UPD", "DRF"):
        lhs = denote(seq_term(cfg.store, cfg.term), names, (), k)
        rhs = denote(seq_term(cfg2.store, cfg2.term), names, (), k)
        rep = _report(rule, lhs, rhs, depth, budget)
        return CorrectnessReport(rule, 2, rep.equal, depth, rep.diffs)
    lhs = denote(cfg.term, names, (), k)
    rhs = denote(cfg2.term, names, (), k)
    rep = _report(rule, lhs, rhs, depth, budget)
    return CorrectnessReport(rule, 1, rep.equal, depth, rep.diffs)
