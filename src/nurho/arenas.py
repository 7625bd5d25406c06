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

Every query on a move reads one walk of its address (`Arena._locate`).
Each constructor's `_step` says how an address step enters a component:

  step        component       polarity   level   initial moves
  Tensor l/r  left / right    kept       +0      merged
  Lift a      inner           kept       +2      own moves
  Imp a       source          flipped    +1      merged
  Imp b       target          kept       +2      own moves
  Store v, C  value arena     kept       +2      own moves

A merged component's initial moves are part of the parent's move (the
tensor's pair, the arrow's j-question), so the walk rejects them.  The walk
ends at the owner's initial move, a P-answer at the offsets' sum, or at its
own level-1 question (Lift u, Imp j, Store q), an O-question one level
deeper; each flip swaps the polarity.  The owner's `_kids` lists what its
two kinds of move justify; `children` puts the consumed address in front.
A move the walk cannot place is foreign: `has_move` is False, and `label`,
`level` and `children` raise ForeignMove (DepthExceeded for a value move of
a depth-0 store).

The normalization pass applies the constructor identities (flat targets
absorb, zero sources vanish, merge of merge becomes tensor-source merge),
so equality of normalized expressions is the identification of
graph-isomorphic presentations used throughout.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Hashable, Iterator, Optional

from .nominal import Atom, Permutation, apply_perm, atoms_of, fresh_atom
from .syntax import Arrow, NAT, Nat, Prod, Ref, Type, UNIT, Unit, parse_type, type_str

STAR = "*"
STAR1 = "*1"
STAR2 = "*2"
STORE0 = "⊛"
PAIR = "⊗"
MERGE = "▷"


# ---------------------------------------------------------------------------
# Moves
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Move:
    addr: tuple = ()
    pay: object = STAR
    _atoms: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    @property
    def atoms(self) -> tuple[Atom, ...]:
        """The payload's atoms in `atoms_of` order, computed once into a slot."""
        if self._atoms is None:
            object.__setattr__(self, "_atoms", tuple(atoms_of(self.pay)))
        return self._atoms

    def at(self, addr: tuple) -> "Move":
        """The payload at another address, its atom tuple carried over."""
        m = Move(addr, self.pay)
        object.__setattr__(m, "_atoms", self._atoms)
        return m

    def _map_atoms_(self, pi: Permutation) -> "Move":
        if pi.fixes(self.atoms):
            return self
        m = Move(self.addr, apply_perm(pi, self.pay))
        if _in_order(self.pay):
            object.__setattr__(m, "_atoms", tuple(map(pi, self._atoms)))
        return m

    def _iter_atoms_(self) -> Iterator[Atom]:
        return iter(self.atoms)

    def __str__(self) -> str:
        return f"{'.'.join(map(str, self.addr)) or 'ε'}:{pay_str(self.pay)}"

    __repr__ = __str__


def _in_order(pay) -> bool:
    """atoms_of walks pay in an order that a permutation keeps: no frozenset,
    whose atoms it sorts by repr, and no object with its own walk."""
    if isinstance(pay, tuple):
        return all(map(_in_order, pay))
    return not isinstance(pay, frozenset) and not hasattr(pay, "_iter_atoms_")


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
    """A single atom of any type family in the budget (store questions)."""

    def contains(self, pay):
        return isinstance(pay, Atom) and isinstance(pay.family, Type)

    def enum(self, budget):
        fams = list(dict.fromkeys(
            tuple(budget.families) + tuple(a.family for a in budget.atoms)
        ))
        for f in fams:
            if isinstance(f, Type):
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


def _prefix(schemas: list[MoveSchema], prefix: tuple) -> list[MoveSchema]:
    return [MoveSchema(prefix + s.addr, s.pays) for s in schemas]


# ---------------------------------------------------------------------------
# Arena expressions
# ---------------------------------------------------------------------------

class Arena:
    _atomless_ = True

    # --- structure -------------------------------------------------------
    def initial_schema(self) -> PaySchema:
        raise NotImplementedError

    def _step(self, addr: tuple, i: int, pay):
        """How the address step addr[i] enters a component: (component,
        index past the step, polarity flips, level offset, the component's
        initial moves are merged into ours).  None when addr[i:] is this
        arena's own level-1 question.  Leaves have no steps."""
        raise ForeignMove(f"{Move(addr[i:], pay)} not in {self}")

    def _kids(self, m: Move) -> list[MoveSchema]:
        """Schemas justified by one of this arena's own moves: its initial
        move (address ()) or its level-1 question.  Leaves justify none."""
        return []

    # --- the walk ----------------------------------------------------------
    def _locate(self, m: Move):
        """Walk m's address down to the arena that owns m.  Returns (owner,
        index where the owner's part of the address starts, the arena that
        took the last step or None, m is the owner's question, polarity
        flipped, level).  Raises ForeignMove when m is not a move here."""
        addr, pay = m.addr, m.pay
        a, i, n = self, 0, len(addr)
        last, flip, level, merged = None, False, 0, False
        while i < n:
            step = a._step(addr, i, pay)
            if step is None:
                return a, i, last, True, flip, level + 1
            last = a
            a, i, flips, offset, merged = step
            flip ^= flips
            level += offset
        if merged or not a.initial_schema().contains(pay):
            raise ForeignMove(f"{m} not in {self}")
        return a, i, last, False, flip, level

    def children(self, m: Move) -> list[MoveSchema]:
        """Schemas of the moves justified by m."""
        owner, i, _, _, _, _ = self._locate(m)
        return _prefix(owner._kids(Move(m.addr[i:], m.pay)), m.addr[:i])

    def label(self, m: Move) -> tuple[str, str]:
        """Arena-intrinsic (O/P, Q/A) label: initial moves are P-answers and
        questions O-questions, with the polarity flipped along the walk."""
        _, _, _, question, flip, _ = self._locate(m)
        return ("O" if question != flip else "P", "Q" if question else "A")

    def level(self, m: Move) -> int:
        return self._locate(m)[5]

    def has_move(self, m: Move) -> bool:
        try:
            self._locate(m)
        except (ForeignMove, DepthExceeded):
            return False
        return True

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

    def is_pointed(self):
        return False


@dataclass(frozen=True, repr=False)
class One(Arena):
    def initial_schema(self):
        return ConstP(STAR)

    def is_pointed(self):
        return True

    def point(self):
        return STAR


@dataclass(frozen=True, repr=False)
class NatArena(Arena):
    def initial_schema(self):
        return NatP()

    def is_pointed(self):
        return False


@dataclass(frozen=True, repr=False)
class Names(Arena):
    signature: tuple[Hashable, ...]

    def initial_schema(self):
        return AtomTupleP(self.signature)

    def is_pointed(self):
        return False


@dataclass(frozen=True, repr=False)
class Tensor(Arena):
    left: Arena
    right: Arena

    def initial_schema(self):
        return TupleP(PAIR, (self.left.initial_schema(), self.right.initial_schema()))

    def _step(self, addr, i, pay):
        if addr[i] == "l":
            return self.left, i + 1, False, 0, True
        if addr[i] == "r":
            return self.right, i + 1, False, 0, True
        return super()._step(addr, i, pay)

    def _kids(self, m):
        _, pl, pr = m.pay
        return (_prefix(self.left._kids(Move((), pl)), ("l",))
                + _prefix(self.right._kids(Move((), pr)), ("r",)))

    def is_pointed(self):
        return self.left.is_pointed() and self.right.is_pointed()

    def point(self):
        return (PAIR, self.left.point(), self.right.point())


@dataclass(frozen=True, repr=False)
class Lift(Arena):
    inner: Arena

    def initial_schema(self):
        return ConstP(STAR1)

    def _step(self, addr, i, pay):
        if addr[i] == "a":
            return self.inner, i + 1, False, 2, False
        if addr[i] == "u" and i + 1 == len(addr) and pay == STAR2:
            return None
        return super()._step(addr, i, pay)

    def _kids(self, m):
        if m.addr:
            return [MoveSchema(("a",), self.inner.initial_schema())]
        return [MoveSchema(("u",), ConstP(STAR2))]

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

    def _step(self, addr, i, pay):
        tag = addr[i]
        if tag == "a":
            return self.src, i + 1, True, 1, True
        if tag == "b":
            return self.tgt, i + 1, False, 2, False
        if (tag == "j" and i + 1 == len(addr) and isinstance(pay, tuple)
                and len(pay) == 2 and pay[0] == MERGE
                and self.src.initial_schema().contains(pay[1])):
            return None
        return super()._step(addr, i, pay)

    def _kids(self, m):
        if m.addr:
            return (_prefix(self.src._kids(Move((), m.pay[1])), ("a",))
                    + [MoveSchema(("b",), self.tgt.initial_schema())])
        return [MoveSchema(("j",), TupleP(MERGE, (self.src.initial_schema(),)))]

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

    def _step(self, addr, i, pay):
        tag = addr[i]
        if tag == "v" and i + 2 <= len(addr):
            return self.component(addr[i + 1]), i + 2, False, 2, False
        if tag == "q" and i + 1 == len(addr) and AnyAtomP().contains(pay):
            return None
        return super()._step(addr, i, pay)

    def _kids(self, m):
        if not m.addr:
            return [MoveSchema(("q",), AnyAtomP())]
        if self.depth <= 0:
            return []
        fam = m.pay.family
        return [MoveSchema(("v", fam), self.component(fam).initial_schema())]

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

INITIAL, STORE_H, STORE_Q, STORE_A = "Initial", "StoreH", "StoreQ", "StoreA"


def classify_store_move(a: Arena, m: Move) -> str:
    """Partition of moves in model arenas: initial, store-handle,
    store-question or store-answer.  A question is classed by the arena that
    owns it, any other move by the arena whose step led to it: a store's
    questions and the values they open, and an arrow's opening question and
    target answer when the arrow is T-shaped (a store on either side)."""
    if not a.has_move(m):
        raise ForeignMove(f"{m} not in {a}")
    owner, _, last, question, _, _ = a._locate(m)
    if last is None and not question:
        return INITIAL
    host = owner if question else last
    if isinstance(host, Store):
        out = STORE_Q if question else STORE_A
    elif isinstance(host, Imp) and (_holds_store(host.src) or _holds_store(host.tgt)):
        out = STORE_H
    else:
        raise ForeignMove(f"{m} is outside the store grammar of {a}")
    return out


def _holds_store(a: Arena) -> bool:
    if isinstance(a, Tensor):
        return _holds_store(a.left) or _holds_store(a.right)
    return isinstance(a, Store)


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
