"""Symbolic nominal arenas: boards with labelled, levelled, justified moves.

Arenas are intensional expressions (unit, naturals, name orbits, tensor,
lifting, arrow-merge, the depth-indexed store).  Moves are (address,
payload) pairs addressed into the expression; breadth (all naturals, all
atoms) is exposed through schemas that enumerate only under an explicit
budget.

Encoding conventions, fixed once for all modules:

  One         ((), '*')
  Nat         ((), n)
  Names(sig)  ((), (a_1, .., a_k))                  distinct atoms per sig
  Tensor      initial ((), ('⊗', pl, pr)); components under 'l' / 'r'
  Lift        ((), '*1'), (('u',), '*2'), inner arena under 'a'
  Imp(S, Z)   S => Z  (merge-arrow with lifted target, the only merge shape
              surviving normalization): initial ((), '*'), merged level-1
              (('j',)+adr_j, ('▷', pS)), source under 'a', Z under 'b'
  Store(k)    ((), '⊛'), questions (('q',), atom), stored values under
              ('v', C) for the questioned family C at depth k-1

The normalization pass applies the constructor identities (flat targets
absorb, zero sources vanish, merge of merge becomes tensor-source merge),
so equality of normalized expressions is the identification of
graph-isomorphic presentations used throughout.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Hashable, Iterator, Optional

from .nominal import Atom, Permutation, apply_perm, atoms_of
from .syntax import Arrow, NAT, Nat, Prod, Ref, Type, UNIT, Unit

STAR = "*"
STAR1 = "*1"
STAR2 = "*2"
STORE0 = "⊛"
PAIR = "⊗"
MERGE = "▷"


# ---------------------------------------------------------------------------
# Moves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Move:
    addr: tuple = ()
    pay: object = STAR

    @cached_property
    def atoms(self) -> tuple[Atom, ...]:
        """The atom occurrences of the payload in `atoms_of` order, computed
        once; it lives in the instance dict, outside eq, hash and repr."""
        return tuple(atoms_of(self.pay))

    def _map_atoms_(self, pi: Permutation) -> "Move":
        if pi.fixes(self.atoms):
            return self
        return Move(self.addr, apply_perm(pi, self.pay))

    def _iter_atoms_(self) -> Iterator[Atom]:
        return iter(self.atoms)

    def __str__(self) -> str:
        return f"{'.'.join(map(str, self.addr)) or 'ε'}:{pay_str(self.pay)}"

    __repr__ = __str__


def pay_str(p) -> str:
    if isinstance(p, tuple):
        if p and p[0] == PAIR:
            return "(" + ",".join(pay_str(q) for q in p[1:]) + ")"
        if p and p[0] == MERGE:
            return "(" + pay_str(p[1]) + ",⊛)" if p[1] != STORE0 else "⊛"
        return "(" + " ".join(pay_str(q) for q in p) + ")"
    return str(p)


class ForeignMove(ValueError):
    pass


class DepthExceeded(Exception):
    """The move requires unfolding the store beyond the chosen depth."""


# ---------------------------------------------------------------------------
# Budgets and schemas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Budget:
    """Bounds for enumerating infinite-breadth move families."""

    max_nat: int = 2
    atoms: tuple[Atom, ...] = ()
    fresh_per_family: int = 1
    families: tuple[Hashable, ...] = ()

    def atoms_for(self, family: Hashable) -> list[Atom]:
        have = [a for a in self.atoms if a.family == family]
        used = set(self.atoms)
        for _ in range(self.fresh_per_family):
            from .nominal import fresh_atom

            a = fresh_atom(family, used)
            used.add(a)
            have.append(a)
        return have

    def with_atoms(self, extra) -> "Budget":
        merged = tuple(dict.fromkeys(tuple(self.atoms) + tuple(extra)))
        return Budget(self.max_nat, merged, self.fresh_per_family, self.families)


class PaySchema:
    def contains(self, pay) -> bool:
        raise NotImplementedError

    def enum(self, budget: Budget) -> Iterator:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstP(PaySchema):
    value: object

    def contains(self, pay):
        return pay == self.value

    def enum(self, budget):
        yield self.value


@dataclass(frozen=True)
class NatP(PaySchema):
    def contains(self, pay):
        return isinstance(pay, int) and not isinstance(pay, bool) and pay >= 0

    def enum(self, budget):
        yield from range(budget.max_nat + 1)


@dataclass(frozen=True)
class AtomTupleP(PaySchema):
    """Tuples of pairwise distinct atoms matching a family signature."""

    signature: tuple[Hashable, ...]

    def contains(self, pay):
        if not isinstance(pay, tuple) or len(pay) != len(self.signature):
            return False
        if not all(isinstance(a, Atom) and a.family == f
                   for a, f in zip(pay, self.signature)):
            return False
        return len(set(pay)) == len(pay)

    def enum(self, budget):
        pools = [budget.atoms_for(f) for f in self.signature]
        for combo in itertools.product(*pools):
            if len(set(combo)) == len(combo):
                yield combo


@dataclass(frozen=True)
class AnyAtomP(PaySchema):
    """A single atom of any family in the budget (store questions)."""

    def contains(self, pay):
        return isinstance(pay, Atom)

    def enum(self, budget):
        fams = list(dict.fromkeys(
            tuple(budget.families) + tuple(a.family for a in budget.atoms)
        ))
        for f in fams:
            yield from budget.atoms_for(f)


@dataclass(frozen=True)
class TupleP(PaySchema):
    """A tagged tuple of component schemas, e.g. ('⊗', l, r)."""

    tag: str
    parts: tuple[PaySchema, ...]

    def contains(self, pay):
        if not isinstance(pay, tuple) or len(pay) != len(self.parts) + 1:
            return False
        if pay[0] != self.tag:
            return False
        return all(s.contains(p) for s, p in zip(self.parts, pay[1:]))

    def enum(self, budget):
        for combo in itertools.product(*(s.enum(budget) for s in self.parts)):
            yield (self.tag, *combo)


@dataclass(frozen=True)
class MoveSchema:
    """A family of moves: a payload schema at a fixed address."""

    addr: tuple
    pays: PaySchema

    def contains(self, m: Move) -> bool:
        return m.addr == self.addr and self.pays.contains(m.pay)

    def enum(self, budget: Budget) -> Iterator[Move]:
        for p in self.pays.enum(budget):
            yield Move(self.addr, p)


def enum_schemas(schemas: list[MoveSchema], budget: Budget) -> Iterator[Move]:
    for s in schemas:
        yield from s.enum(budget)


def schemas_contain(schemas: list[MoveSchema], m: Move) -> bool:
    return any(s.contains(m) for s in schemas)


def _prefix(schemas: list[MoveSchema], tag) -> list[MoveSchema]:
    return [MoveSchema((tag,) + s.addr, s.pays) for s in schemas]


# ---------------------------------------------------------------------------
# Arena expressions
# ---------------------------------------------------------------------------

class Arena:
    _atomless_ = True

    # --- structure -------------------------------------------------------
    def initial_schema(self) -> PaySchema:
        raise NotImplementedError

    def children(self, m: Move) -> list[MoveSchema]:
        """Schemas of the moves justified by m."""
        raise NotImplementedError

    def label(self, m: Move) -> tuple[str, str]:
        """Arena-intrinsic (O/P, Q/A) label."""
        raise NotImplementedError

    def level(self, m: Move) -> int:
        raise NotImplementedError

    def has_move(self, m: Move) -> bool:
        raise NotImplementedError

    def is_pointed(self) -> bool:
        """A unique (equivariant) initial move."""
        raise NotImplementedError

    def point(self):
        raise NotImplementedError

    # --- conveniences ------------------------------------------------------
    def initials(self) -> list[MoveSchema]:
        return [MoveSchema((), self.initial_schema())]

    def is_initial(self, m: Move) -> bool:
        return m.addr == () and self.initial_schema().contains(m.pay)

    def justifies(self, m1: Move, m2: Move) -> bool:
        return schemas_contain(self.children(m1), m2)

    def __str__(self) -> str:
        return arena_str(self)

    __repr__ = __str__


@dataclass(frozen=True, repr=False)
class Zero(Arena):
    def initial_schema(self):
        raise ForeignMove("the empty arena has no moves")

    def initials(self):
        return []

    def children(self, m):
        raise ForeignMove(f"{m} not in 0")

    def label(self, m):
        raise ForeignMove(f"{m} not in 0")

    def level(self, m):
        raise ForeignMove(f"{m} not in 0")

    def has_move(self, m):
        return False

    def is_pointed(self):
        return False


@dataclass(frozen=True, repr=False)
class One(Arena):
    def initial_schema(self):
        return ConstP(STAR)

    def children(self, m):
        self._check(m)
        return []

    def label(self, m):
        self._check(m)
        return ("P", "A")

    def level(self, m):
        self._check(m)
        return 0

    def has_move(self, m):
        return m == Move((), STAR)

    def _check(self, m):
        if not self.has_move(m):
            raise ForeignMove(f"{m} not in 1")

    def is_pointed(self):
        return True

    def point(self):
        return STAR


@dataclass(frozen=True, repr=False)
class NatArena(Arena):
    def initial_schema(self):
        return NatP()

    def children(self, m):
        self._check(m)
        return []

    def label(self, m):
        self._check(m)
        return ("P", "A")

    def level(self, m):
        self._check(m)
        return 0

    def has_move(self, m):
        return m.addr == () and NatP().contains(m.pay)

    def _check(self, m):
        if not self.has_move(m):
            raise ForeignMove(f"{m} not in N")

    def is_pointed(self):
        return False


@dataclass(frozen=True, repr=False)
class Names(Arena):
    signature: tuple[Hashable, ...]

    def initial_schema(self):
        return AtomTupleP(self.signature)

    def children(self, m):
        self._check(m)
        return []

    def label(self, m):
        self._check(m)
        return ("P", "A")

    def level(self, m):
        self._check(m)
        return 0

    def has_move(self, m):
        return m.addr == () and AtomTupleP(self.signature).contains(m.pay)

    def _check(self, m):
        if not self.has_move(m):
            raise ForeignMove(f"{m} not in names arena")

    def is_pointed(self):
        return False


@dataclass(frozen=True, repr=False)
class Tensor(Arena):
    left: Arena
    right: Arena

    def initial_schema(self):
        return TupleP(PAIR, (self.left.initial_schema(), self.right.initial_schema()))

    def children(self, m):
        if m.addr == ():
            if not self.is_initial(m):
                raise ForeignMove(f"{m} not initial in tensor")
            _, pl, pr = m.pay
            return (
                _prefix(self.left.children(Move((), pl)), "l")
                + _prefix(self.right.children(Move((), pr)), "r")
            )
        side, sub = self._split(m)
        return _prefix(side.children(sub), m.addr[0])

    def label(self, m):
        if m.addr == ():
            if not self.is_initial(m):
                raise ForeignMove(f"{m} not initial in tensor")
            return ("P", "A")
        side, sub = self._split(m)
        return side.label(sub)

    def level(self, m):
        if m.addr == ():
            return 0
        side, sub = self._split(m)
        return side.level(sub)

    def has_move(self, m):
        if m.addr == ():
            return self.is_initial(m)
        if m.addr[0] not in ("l", "r"):
            return False
        side, sub = self._split(m)
        return side.has_move(sub) and not side.is_initial(sub)

    def _split(self, m):
        if m.addr[0] == "l":
            return self.left, Move(m.addr[1:], m.pay)
        if m.addr[0] == "r":
            return self.right, Move(m.addr[1:], m.pay)
        raise ForeignMove(f"{m} not in tensor")

    def is_pointed(self):
        return self.left.is_pointed() and self.right.is_pointed()

    def point(self):
        return (PAIR, self.left.point(), self.right.point())


@dataclass(frozen=True, repr=False)
class Lift(Arena):
    inner: Arena

    def initial_schema(self):
        return ConstP(STAR1)

    def children(self, m):
        if m == Move((), STAR1):
            return [MoveSchema(("u",), ConstP(STAR2))]
        if m == Move(("u",), STAR2):
            return [MoveSchema(("a",), self.inner.initial_schema())]
        sub = self._inner_move(m)
        return _prefix(self.inner.children(sub), "a")

    def label(self, m):
        if m == Move((), STAR1):
            return ("P", "A")
        if m == Move(("u",), STAR2):
            return ("O", "Q")
        return self.inner.label(self._inner_move(m))

    def level(self, m):
        if m == Move((), STAR1):
            return 0
        if m == Move(("u",), STAR2):
            return 1
        return 2 + self.inner.level(self._inner_move(m))

    def has_move(self, m):
        if m in (Move((), STAR1), Move(("u",), STAR2)):
            return True
        return bool(m.addr) and m.addr[0] == "a" and self.inner.has_move(
            Move(m.addr[1:], m.pay)
        )

    def _inner_move(self, m):
        if not m.addr or m.addr[0] != "a":
            raise ForeignMove(f"{m} not in lift")
        return Move(m.addr[1:], m.pay)

    def is_pointed(self):
        return True

    def point(self):
        return STAR1


@dataclass(frozen=True, repr=False)
class Imp(Arena):
    """source => target: the merge-arrow with lifted target."""

    src: Arena
    tgt: Arena

    def initial_schema(self):
        return ConstP(STAR)

    def merged_schemas(self) -> list[MoveSchema]:
        out = []
        for s in self.src.initials():
            assert s.addr == ()
            out.append(MoveSchema(("j",), TupleP(MERGE, (s.pays,))))
        return out

    def children(self, m):
        if m == Move((), STAR):
            return self.merged_schemas()
        if m.addr and m.addr[0] == "j":
            if not self.has_move(m):
                raise ForeignMove(f"{m} not in =>")
            p_src = m.pay[1]
            out = _prefix(self.src.children(Move((), p_src)), "a")
            out.append(MoveSchema(("b",), self.tgt.initial_schema()))
            return out
        side, sub, tag = self._split(m)
        return _prefix(side.children(sub), tag)

    def label(self, m):
        if m == Move((), STAR):
            return ("P", "A")
        if m.addr and m.addr[0] == "j":
            self._check_merged(m)
            return ("O", "Q")
        side, sub, tag = self._split(m)
        o, q = side.label(sub)
        if tag == "a":
            o = "O" if o == "P" else "P"
        return (o, q)

    def level(self, m):
        if m == Move((), STAR):
            return 0
        if m.addr and m.addr[0] == "j":
            self._check_merged(m)
            return 1
        side, sub, tag = self._split(m)
        if tag == "a":
            return 1 + side.level(sub)
        return 2 + side.level(sub)

    def has_move(self, m):
        if m == Move((), STAR):
            return True
        if not m.addr:
            return False
        if m.addr[0] == "j":
            return (
                m.addr[1:] == ()
                and isinstance(m.pay, tuple)
                and len(m.pay) == 2
                and m.pay[0] == MERGE
                and self.src.initial_schema().contains(m.pay[1])
            )
        if m.addr[0] == "a":
            sub = Move(m.addr[1:], m.pay)
            return self.src.has_move(sub) and not self.src.is_initial(sub)
        if m.addr[0] == "b":
            return self.tgt.has_move(Move(m.addr[1:], m.pay))
        return False

    def _check_merged(self, m):
        if not self.has_move(m):
            raise ForeignMove(f"{m} not in =>")

    def _split(self, m):
        if m.addr and m.addr[0] == "a":
            return self.src, Move(m.addr[1:], m.pay), "a"
        if m.addr and m.addr[0] == "b":
            return self.tgt, Move(m.addr[1:], m.pay), "b"
        raise ForeignMove(f"{m} not in =>")

    def is_pointed(self):
        return True

    def point(self):
        return STAR


@dataclass(frozen=True, repr=False)
class Store(Arena):
    """The store arena at unfolding depth k.

    An initial ⊛ justifies a question a for every atom a; for k >= 1 the
    answers open the depth-(k-1) translation of the questioned type.
    """

    depth: int

    def initial_schema(self):
        return ConstP(STORE0)

    def component(self, family: Hashable) -> Arena:
        if self.depth <= 0:
            raise DepthExceeded(f"store at depth 0 has no value arenas")
        if not isinstance(family, Type):
            raise ForeignMove(f"atom family {family!r} is not a type")
        return translate_type(family, self.depth - 1)

    def children(self, m):
        if m == Move((), STORE0):
            return [MoveSchema(("q",), AnyAtomP())]
        if m.addr == ("q",):
            if not isinstance(m.pay, Atom):
                raise ForeignMove(f"{m} not a store question")
            if self.depth <= 0:
                return []
            comp = self.component(m.pay.family)
            return [
                MoveSchema(("v", m.pay.family) + s.addr, s.pays)
                for s in comp.initials()
            ]
        fam, sub = self._value_move(m)
        comp = self.component(fam)
        return [
            MoveSchema(("v", fam) + s.addr, s.pays)
            for s in comp.children(sub)
        ]

    def label(self, m):
        if m == Move((), STORE0):
            return ("P", "A")
        if m.addr == ("q",):
            return ("O", "Q")
        fam, sub = self._value_move(m)
        return self.component(fam).label(sub)

    def level(self, m):
        if m == Move((), STORE0):
            return 0
        if m.addr == ("q",):
            return 1
        fam, sub = self._value_move(m)
        return 2 + self.component(fam).level(sub)

    def has_move(self, m):
        if m == Move((), STORE0):
            return True
        if m.addr == ("q",):
            return isinstance(m.pay, Atom)
        if len(m.addr) >= 2 and m.addr[0] == "v":
            if self.depth <= 0:
                return False
            fam = m.addr[1]
            if not isinstance(fam, Type):
                return False
            return self.component(fam).has_move(Move(m.addr[2:], m.pay))
        return False

    def _value_move(self, m):
        if len(m.addr) >= 2 and m.addr[0] == "v":
            if self.depth <= 0:
                raise DepthExceeded("value move in a depth-0 store")
            return m.addr[1], Move(m.addr[2:], m.pay)
        raise ForeignMove(f"{m} not in store arena")

    def is_pointed(self):
        return True

    def point(self):
        return STORE0


# ---------------------------------------------------------------------------
# Smart constructors (normalization)
# ---------------------------------------------------------------------------

def mk_tensor(left: Arena, right: Arena) -> Arena:
    if isinstance(left, Zero) or isinstance(right, Zero):
        return Zero()
    return Tensor(left, right)


def mk_names(sig: tuple[Hashable, ...]) -> Arena:
    if not sig:
        return One()
    return Names(tuple(sig))


def mk_merge(src: Arena, tgt: Arena) -> Arena:
    """src ⊸⊗ tgt with the constructor identities applied."""
    if isinstance(tgt, (One, NatArena, Names, Zero)):
        return tgt  # no level-1 moves to merge with (A ⊸⊗ N = N)
    if isinstance(src, Zero):
        return tgt
    if isinstance(tgt, Lift):
        return Imp(src, tgt.inner)
    if isinstance(tgt, Imp):
        return Imp(mk_tensor(src, tgt.src), tgt.tgt)
    if isinstance(tgt, Tensor):
        raise ValueError("merge-arrow into a bare tensor is outside the model")
    if isinstance(tgt, Store):
        return Imp(src, tgt)  # not used by the model; kept total
    raise TypeError(tgt)


def mk_imp(src: Arena, tgt: Arena) -> Arena:
    """src => tgt  (arrow: src ⊸⊗ tgt_⊥)."""
    return mk_merge(src, Lift(tgt))


# ---------------------------------------------------------------------------
# The type translation at finite store depth, under two depth policies
# ---------------------------------------------------------------------------

def _translate(t: Type, k: int, rec, arrow_k: int) -> Arena:
    """One structural step of the type translation.  `rec` translates the
    components: a product's at depth k, an arrow's at depth `arrow_k`."""
    if isinstance(t, Unit):
        return One()
    if isinstance(t, Nat):
        return NatArena()
    if isinstance(t, Ref):
        return Names((t.inner,))
    if isinstance(t, Prod):
        return mk_tensor(rec(t.left, k), rec(t.right, k))
    if isinstance(t, Arrow):
        # the arrow  a => T b,  the one place it is built
        return mk_merge(rec(t.src, arrow_k), t_arena(rec(t.tgt, arrow_k), k))
    raise TypeError(f"not a type: {t!r}")


@lru_cache(maxsize=None)
def translate_type(t: Type, k: int) -> Arena:
    """The depth-k approximant of the type's arena: arrow components one
    level shallower, arrows cut off to 1 at k <= 0.  Store values use it."""
    if isinstance(t, Arrow) and k <= 0:
        return One()
    return _translate(t, k, translate_type, k - 1)


@lru_cache(maxsize=None)
def sden(t: Type, k: int) -> Arena:
    """The saturated translation at store depth k: arrow components at the
    same depth k.  Term denotations use it."""
    return _translate(t, k, sden, k)


def store_arena(k: int) -> Arena:
    return Store(k)


def t_arena(value: Arena, k: int) -> Arena:
    """T A  =  store => A ⊗ store   at store depth k."""
    return mk_imp(Store(k), mk_tensor(value, Store(k)))


def p_arena(sig: tuple[Hashable, ...], value: Arena) -> Arena:
    """Initial-state comonad on objects: the ambient name list in front."""
    return mk_tensor(mk_names(sig), value)


# ---------------------------------------------------------------------------
# Arena order (chain of approximants)
# ---------------------------------------------------------------------------

def arena_leq(a: Arena, b: Arena, k: Optional[int] = None) -> bool:
    """Componentwise subset of the symbolic encodings; with k, additionally
    every b-move of level < k must already be an a-move."""
    if not _leq(a, b):
        return False
    if k is not None and k > 0:
        return _lower_levels_subset(a, b, k)
    return True


def _leq(a: Arena, b: Arena) -> bool:
    if a == b:
        return True
    if isinstance(a, Zero):
        return isinstance(b, (Zero, One, NatArena, Names, Tensor, Lift, Imp, Store)) \
            and not isinstance(b, (One, NatArena, Names))  # I_A ⊆ I_B forces no initials
    if isinstance(a, One):
        # the unit seed embeds into any pointed arrow-shape with initial '*'
        return isinstance(b, Imp)
    if isinstance(a, NatArena) or isinstance(a, Names):
        return a == b
    if isinstance(a, Tensor) and isinstance(b, Tensor):
        return _leq(a.left, b.left) and _leq(a.right, b.right)
    if isinstance(a, Lift) and isinstance(b, Lift):
        return _leq(a.inner, b.inner)
    if isinstance(a, Imp) and isinstance(b, Imp):
        return _leq(a.src, b.src) and _leq(a.tgt, b.tgt)
    if isinstance(a, Store) and isinstance(b, Store):
        return a.depth <= b.depth
    return False


def _lower_levels_subset(a: Arena, b: Arena, k: int) -> bool:
    # Enumerate b's moves to level < k under a token budget and check
    # membership in a.  The inclusions the chain needs are structural, so a
    # small budget is enough to witness failures.
    budget = Budget(max_nat=1, fresh_per_family=1, families=(UNIT, NAT))
    frontier = list(enum_schemas(b.initials(), budget))
    seen = 0
    while frontier and seen < 500:
        m = frontier.pop()
        seen += 1
        if b.level(m) < k and not a.has_move(m):
            return False
        if b.level(m) < k - 1:
            try:
                frontier.extend(enum_schemas(b.children(m), budget))
            except DepthExceeded:
                pass
    return True


# ---------------------------------------------------------------------------
# Store-move classification
# ---------------------------------------------------------------------------

INITIAL, STORE_H, STORE_Q, STORE_A, PLAIN = (
    "Initial", "StoreH", "StoreQ", "StoreA", "Plain"
)


def classify_store_move(a: Arena, m: Move) -> str:
    """Partition of moves in model arenas: initial, store-handle,
    store-question or store-answer."""
    if not a.has_move(m):
        raise ForeignMove(f"{m} not in {a}")
    if a.is_initial(m):
        return INITIAL
    out = _classify(a, m)
    if out == PLAIN:
        raise ForeignMove(f"{m} is outside the store grammar of {a}")
    return out


def _classify(a: Arena, m: Move) -> str:
    if isinstance(a, (One, NatArena, Names, Zero)):
        return PLAIN
    if isinstance(a, Tensor):
        if m.addr == ():
            return PLAIN
        side, sub = a._split(m)
        return _classify(side, sub)
    if isinstance(a, Imp):
        # only T-shapes (store on the source side) host store machinery
        if m.addr == ():
            return PLAIN
        if m.addr[0] == "j":
            return STORE_H if _imp_has_store(a) else PLAIN
        if m.addr[0] == "b":
            sub = Move(m.addr[1:], m.pay)
            if a.tgt.is_initial(sub):
                return STORE_H if _imp_has_store(a) else PLAIN
            return _classify(a.tgt, sub)
        side_move = Move(m.addr[1:], m.pay)
        if isinstance(a.src, (Store, Tensor)):
            return _classify(a.src, side_move)
        return _classify(a.src, side_move)
    if isinstance(a, Store):
        if m.addr == ():
            return PLAIN
        if m.addr == ("q",):
            return STORE_Q
        fam, sub = a._value_move(m)
        comp = a.component(fam)
        if comp.is_initial(sub):
            return STORE_A
        return _classify(comp, sub)
    if isinstance(a, Lift):
        if m.addr and m.addr[0] == "a":
            return _classify(a.inner, Move(m.addr[1:], m.pay))
        return PLAIN
    return PLAIN


def _imp_has_store(a: Imp) -> bool:
    """T-shaped arrows carry ⊛-handles; a plain exponential does not."""
    def has_store(x: Arena) -> bool:
        if isinstance(x, Store):
            return True
        if isinstance(x, Tensor):
            return has_store(x.left) or has_store(x.right)
        return False

    return has_store(a.src) or has_store(a.tgt)


# ---------------------------------------------------------------------------
# Queries, well-formedness, printing
# ---------------------------------------------------------------------------

def arena_query(a: Arena, m: Optional[Move] = None) -> dict:
    """Initial schemas, or a move's children together with label and level."""
    if m is None:
        return {"initials": a.initials()}
    if not a.has_move(m):
        raise ForeignMove(f"{m} not in {a}")
    return {"children": a.children(m), "label": a.label(m), "level": a.level(m)}


def check_wellformed(a: Arena, budget: Budget, max_level: int = 4) -> list[str]:
    """Bounded check of the arena axioms: unique levels, initial P-answers,
    alternating labels along justification, answers justify only questions."""
    problems: list[str] = []
    frontier: list[Move] = list(enum_schemas(a.initials(), budget))
    for m in frontier:
        if a.label(m) != ("P", "A"):
            problems.append(f"initial {m} not a P-answer")
        if a.level(m) != 0:
            problems.append(f"initial {m} at level {a.level(m)}")
    while frontier:
        m = frontier.pop()
        if a.level(m) >= max_level:
            continue
        try:
            kids = list(enum_schemas(a.children(m), budget))
        except DepthExceeded:
            continue
        for c in kids:
            if a.level(c) != a.level(m) + 1:
                problems.append(f"{c} level {a.level(c)} under {m} level {a.level(m)}")
            if a.label(m)[0] == a.label(c)[0]:
                problems.append(f"consecutive moves {m} -> {c} same polarity")
            if a.label(m)[1] == "A" and a.label(c)[1] != "Q":
                problems.append(f"answer {m} justifies non-question {c}")
            if not a.has_move(c):
                problems.append(f"child {c} not a move")
            frontier.append(c)
    return problems


def arena_str(a: Arena, depth: int = 3) -> str:
    if isinstance(a, Zero):
        return "0"
    if isinstance(a, One):
        return "1"
    if isinstance(a, NatArena):
        return "N"
    if isinstance(a, Names):
        return "A[" + ",".join(str(f) for f in a.signature) + "]"
    if isinstance(a, Tensor):
        return f"({arena_str(a.left)} ⊗ {arena_str(a.right)})"
    if isinstance(a, Lift):
        return f"lift({arena_str(a.inner)})"
    if isinstance(a, Imp):
        return f"({arena_str(a.src)} ⇒ {arena_str(a.tgt)})"
    if isinstance(a, Store):
        return f"ξ{a.depth}"
    return repr(a)


def describe(a: Arena, budget: Optional[Budget] = None, max_level: int = 3) -> str:
    """Level-indented move listing with labels, for docs and debugging."""
    budget = budget or Budget()
    lines = [arena_str(a)]

    def walk(m: Move, indent: int):
        o, q = a.label(m)
        lines.append("  " * indent + f"{m}  {o}{q}")
        if a.level(m) >= max_level:
            return
        try:
            kids = list(enum_schemas(a.children(m), budget))
        except DepthExceeded:
            return
        for c in kids[:12]:
            walk(c, indent + 1)

    for m in list(enum_schemas(a.initials(), budget))[:8]:
        walk(m, 1)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# JSON serialization of arena expressions
# ---------------------------------------------------------------------------

def arena_to_json(a: Arena):
    from .syntax import type_str

    if isinstance(a, Zero):
        return "0"
    if isinstance(a, One):
        return "1"
    if isinstance(a, NatArena):
        return "N"
    if isinstance(a, Names):
        return {"names": [type_str(f) if isinstance(f, Type) else str(f)
                          for f in a.signature]}
    if isinstance(a, Tensor):
        return {"tensor": [arena_to_json(a.left), arena_to_json(a.right)]}
    if isinstance(a, Lift):
        return {"lift": arena_to_json(a.inner)}
    if isinstance(a, Imp):
        return {"imp": [arena_to_json(a.src), arena_to_json(a.tgt)]}
    if isinstance(a, Store):
        return {"store": a.depth}
    raise TypeError(a)


def arena_from_json(js) -> Arena:
    from .syntax import parse_type

    if js == "0":
        return Zero()
    if js == "1":
        return One()
    if js == "N":
        return NatArena()
    if "names" in js:
        return Names(tuple(parse_type(f) for f in js["names"]))
    if "tensor" in js:
        l, r = js["tensor"]
        return Tensor(arena_from_json(l), arena_from_json(r))
    if "lift" in js:
        return Lift(arena_from_json(js["lift"]))
    if "imp" in js:
        s, t = js["imp"]
        return Imp(arena_from_json(s), arena_from_json(t))
    if "store" in js:
        return Store(js["store"])
    raise ValueError(f"not an arena: {js!r}")
