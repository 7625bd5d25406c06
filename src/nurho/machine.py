"""Stores, configurations and the small-step machine.

One step at a time via evaluation-context decomposition; fresh names are
chosen with the least unused index of the demanded family so traces are
reproducible.  `evaluate` iterates `step` and distinguishes values, stuck
dereferences, fuel exhaustion and cycles (detected on orbit-canonical,
alpha-normal configurations).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .nominal import (
    Atom,
    NameList,
    Permutation,
    atoms_of,
    fresh_atom,
    orbit_canon,
)
from .syntax import (
    App,
    Assign,
    Deref,
    EqTest,
    Fst,
    If0,
    Lam,
    Name,
    Nu,
    Num,
    Pair,
    Pred,
    Skip,
    Snd,
    Succ,
    Term,
    Type,
    TypecheckError,
    all_atoms,
    is_value,
    rename_bound_atoms,
    seq,
    subst,
    typecheck,
)


@dataclass(frozen=True)
class Store:
    """Ordered store environment; entries are (name, value-or-None)."""

    entries: tuple[tuple[Atom, Optional[Term]], ...] = ()

    def __post_init__(self):
        self.domain()  # raises if duplicated

    def domain(self) -> NameList:
        return NameList(a for a, _ in self.entries)

    def lookup(self, a: Atom) -> Optional[Term]:
        for b, v in self.entries:
            if b == a:
                return v
        return None

    def has(self, a: Atom) -> bool:
        return any(b == a for b, _ in self.entries)

    def updated(self, a: Atom, v: Term) -> "Store":
        out = tuple(
            (b, v if b == a else old) for b, old in self.entries
        )
        return Store(out)

    def extended(self, a: Atom) -> "Store":
        return Store(self.entries + ((a, None),))

    def _map_atoms_(self, pi: Permutation) -> "Store":
        return Store(
            tuple(
                (pi(a), None if v is None else v._map_atoms_(pi))
                for a, v in self.entries
            )
        )

    def _iter_atoms_(self) -> Iterator[Atom]:
        for a, v in self.entries:
            yield a
            if v is not None:
                yield from atoms_of(v)

    def __str__(self) -> str:
        cells = [f"{a}" if v is None else f"{a}::{v}" for a, v in self.entries]
        return ", ".join(cells) if cells else "(empty store)"


@dataclass(frozen=True)
class Config:
    store: Store
    term: Term

    @staticmethod
    def make(store: Store, term: Term, ty: Optional[Type] = None) -> "Config":
        got = typecheck(store.domain(), [], term)
        if ty is not None and got != ty:
            raise TypecheckError(f"configuration has type {got}, wanted {ty}")
        return Config(store, term)

    def _map_atoms_(self, pi: Permutation) -> "Config":
        return Config(self.store._map_atoms_(pi), self.term._map_atoms_(pi))

    def _iter_atoms_(self) -> Iterator[Atom]:
        yield from atoms_of(self.store)
        yield from atoms_of(self.term)

    def __str__(self) -> str:
        return f"{self.store} |- {self.term}"


def store_term(s: Store) -> Term:
    """The store as a command: unassigned cells dropped, assignments chained."""
    t: Term = Skip()
    for a, v in reversed(s.entries):
        if v is not None:
            t = seq(Assign(Name(a), v), t)
    return t


# ---------------------------------------------------------------------------
# Evaluation contexts and one-step reduction
# ---------------------------------------------------------------------------

_HOLE = object()


def _decompose(t: Term) -> Optional[tuple[list, Term]]:
    """Find the redex under evaluation contexts; returns (frame path, redex).

    Frames are (constructor, field-name) pairs used by `_plug`.
    """
    if is_value(t):
        return None
    if isinstance(t, (Pred, Succ, Fst, Snd)):
        return _first_of(t, [("body", t.body)])
    if isinstance(t, Deref):
        return _first_of(t, [("ref", t.ref)])
    if isinstance(t, EqTest):
        return _first_of(t, [("left", t.left), ("right", t.right)])
    if isinstance(t, Assign):
        return _first_of(t, [("ref", t.ref), ("value", t.value)])
    if isinstance(t, If0):
        return _first_of(t, [("scrutinee", t.scrutinee)])
    if isinstance(t, App):
        return _first_of(t, [("fn", t.fn), ("arg", t.arg)])
    if isinstance(t, Pair):
        return _first_of(t, [("left", t.left), ("right", t.right)])
    if isinstance(t, Nu):
        return [], t
    return None


def _first_of(t: Term, parts: list[tuple[str, Term]]):
    for fname, sub in parts:
        if not is_value(sub):
            d = _decompose(sub)
            if d is None:
                return None
            d[0].insert(0, (t, fname))
            return d
    return [], t


def _plug(frames: list, redex: Term) -> Term:
    for node, fname in reversed(frames):
        vals = dict(vars(node))
        vals[fname] = redex
        vals.pop("pos", None)
        redex = type(node)(**vals, pos=node.pos)
    return redex


def step(cfg: Config) -> Optional[tuple[Config, str]]:
    """One small step, or None when the configuration is terminal/stuck."""
    d = _decompose(cfg.term)
    if d is None:
        return None
    frames, r = d
    s = cfg.store

    def done(s2: Store, r2: Term, tag: str):
        return Config(s2, _plug(frames, r2)), tag

    if isinstance(r, Nu):
        taken = set(atoms_of(s)) | set(all_atoms(cfg.term))
        a = fresh_atom(r.atom.family, taken)
        body = r.body if a == r.atom else r.body._map_atoms_(
            Permutation.swap(r.atom, a)
        )
        return Config(s.extended(a), _plug(frames, body)), "NEW"
    if isinstance(r, Succ) and isinstance(r.body, Num):
        return done(s, Num(r.body.value + 1), "SUC")
    if isinstance(r, Pred) and isinstance(r.body, Num):
        return done(s, Num(max(0, r.body.value - 1)), "PRD")
    if isinstance(r, EqTest) and isinstance(r.left, Name) and isinstance(r.right, Name):
        return done(s, Num(0 if r.left.atom == r.right.atom else 1), "EQ")
    if isinstance(r, If0) and isinstance(r.scrutinee, Num):
        branch = r.then if r.scrutinee.value == 0 else r.orelse
        return done(s, branch, "IF0")
    if isinstance(r, Assign) and isinstance(r.ref, Name) and is_value(r.value):
        if not s.has(r.ref.atom):
            return None
        return done(s.updated(r.ref.atom, r.value), Skip(), "UPD")
    if isinstance(r, Deref) and isinstance(r.ref, Name):
        v = s.lookup(r.ref.atom)
        if v is None:
            return None  # unassigned cell: stuck by the side condition
        return done(s, v, "DRF")
    if isinstance(r, Fst) and isinstance(r.body, Pair):
        return done(s, r.body.left, "FST")
    if isinstance(r, Snd) and isinstance(r.body, Pair):
        return done(s, r.body.right, "SND")
    if isinstance(r, App) and isinstance(r.fn, Lam) and is_value(r.arg):
        return done(s, subst(r.fn.body, r.arg), "LAM")
    return None


def canonical_config(cfg: Config) -> Config:
    """Alpha-normal, orbit-canonical representative (hashable)."""
    canon, _ = orbit_canon(cfg)
    taken = set(atoms_of(canon))
    term = rename_bound_atoms(canon.term, taken)
    return Config(canon.store, term)


@dataclass(frozen=True)
class Outcome:
    kind: str  # 'value' | 'stuck' | 'fuel' | 'cycle'
    config: Config
    steps: int
    trace: tuple[tuple[str, Config], ...] = field(default=(), repr=False)


def evaluate(cfg: Config, fuel: int = 1000, trace: bool = False) -> Outcome:
    """Iterate `step` with cycle detection on canonical configurations."""
    seen = {canonical_config(cfg)}
    log: list[tuple[str, Config]] = []
    n = 0
    while n < fuel:
        nxt = step(cfg)
        if nxt is None:
            kind = "value" if is_value(cfg.term) else "stuck"
            return Outcome(kind, cfg, n, tuple(log))
        cfg, tag = nxt
        n += 1
        if trace:
            log.append((tag, cfg))
        key = canonical_config(cfg)
        if key in seen:
            return Outcome("cycle", cfg, n, tuple(log))
        seen.add(key)
    return Outcome("fuel", cfg, n, tuple(log))
