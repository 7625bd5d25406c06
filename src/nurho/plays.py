"""Plays: justified move-with-name sequences over a prearena.

Entries store the *delta* of freshly introduced names instead of the full
name-list; name-lists are recovered by the local rules (a player move
extends its predecessor's list with the delta, an opponent move copies its
justifier's list).  This keeps the name-change conditions structural and
makes projections of interactions well-behaved.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .arenas import Arena, DepthExceeded, ForeignMove, Move, arena_from_json, arena_str
from .arenas import arena_to_json
from .nominal import (
    Atom,
    Permutation,
    _complete_to_permutation,
    apply_perm,
    atoms_of,
    family_permutations,
    renaming,
    support,
)
from .syntax import parse_type

SRC, TGT = "s", "t"


class _Labels(dict):
    """A label memo, (comp, move) -> (polarity, Q/A)."""


_LABELS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@dataclass(frozen=True)
class Board:
    """A prearena: source and target arena; initial moves are O-questions."""

    src: Arena
    tgt: Arena
    _labels: dict = field(init=False, repr=False, compare=False)
    _atomless_ = True

    def __post_init__(self):
        # equal live boards share one memo, kept while one of them lives
        labels = _LABELS.setdefault((self.src, self.tgt), _Labels())
        object.__setattr__(self, "_labels", labels)

    def arena(self, comp: str) -> Arena:
        return self.src if comp == SRC else self.tgt

    def label(self, comp: str, m: Move) -> tuple[str, str]:
        """(polarity, Q/A) of m in component comp, memoised for equal boards;
        a foreign move raises each time."""
        key = (comp, m)
        out = self._labels.get(key)
        if out is None:
            out = self._labels[key] = self._label(comp, m)
        return out

    def has_move(self, comp: str, m: Move) -> bool:
        """m is a move of component comp: its label is found."""
        try:
            self.label(comp, m)
        except (ForeignMove, DepthExceeded):
            return False
        return True

    def _label(self, comp: str, m: Move) -> tuple[str, str]:
        o, q = self.arena(comp).label(m)
        if comp == SRC:
            if self.src.is_initial(m):
                return ("O", "Q")
            o = "O" if o == "P" else "P"
        return (o, q)

    def __str__(self) -> str:
        return f"{arena_str(self.src)} -> {arena_str(self.tgt)}"


@dataclass(frozen=True, slots=True)
class Entry:
    comp: str  # 's' | 't'
    move: Move
    justifier: Optional[int]  # absolute index; None for the initial move
    delta: tuple[Atom, ...] = ()

    def _map_atoms_(self, pi: Permutation) -> "Entry":
        if pi.fixes(self.move.atoms) and pi.fixes(self.delta):
            return self
        return Entry(
            self.comp,
            self.move._map_atoms_(pi),
            self.justifier,
            tuple(pi(a) for a in self.delta),
        )

    def _iter_atoms_(self) -> Iterator[Atom]:
        yield from self.move.atoms
        yield from self.delta


@dataclass(frozen=True)
class Play:
    board: Board
    entries: tuple[Entry, ...] = ()
    # (renaming, per-family counts, canonical entries); see `canon`
    _canon: Optional[tuple] = field(default=None, compare=False, repr=False)
    _key: Optional[tuple] = field(default=None, compare=False, repr=False)

    def _map_atoms_(self, pi: Permutation) -> "Play":
        return Play(self.board, tuple(e._map_atoms_(pi) for e in self.entries))

    def _iter_atoms_(self) -> Iterator[Atom]:
        for e in self.entries:
            yield from e.move.atoms
            yield from e.delta

    def __len__(self) -> int:
        return len(self.entries)

    def append(self, e: Entry) -> "Play":
        """The play followed by e; its canonical state and key grow by e alone."""
        ren, counts, canon = self.canon()
        if not all(map(ren.__contains__, e.move.atoms + e.delta)):
            ren, counts = dict(ren), dict(counts)
        ce = _canon_step(ren, counts, e)
        key = self.key() + (entry_id(ce),)
        return Play(self.board, self.entries + (e,), (ren, counts, canon + (ce,)), key)

    def canon(self) -> tuple[dict[Atom, Atom], dict, tuple[Entry, ...]]:
        """The renaming of the atoms to 0, 1, ... per family in order of first
        occurrence, the per-family counts, and the renamed entries."""
        if self._canon is None:
            ren: dict[Atom, Atom] = {}
            counts: dict = {}
            canon = tuple(_canon_step(ren, counts, e) for e in self.entries)
            object.__setattr__(self, "_canon", (ren, counts, canon))
        return self._canon

    def key(self) -> tuple[int, ...]:
        """The canonical entries as ids: two plays have equal keys exactly
        when their canonical entries are equal."""
        if self._key is None:
            object.__setattr__(self, "_key", tuple(map(entry_id, self.canon()[2])))
        return self._key

    def polarity(self, i: int) -> str:
        return self.board.label(self.entries[i].comp, self.entries[i].move)[0]

    def qa(self, i: int) -> str:
        return self.board.label(self.entries[i].comp, self.entries[i].move)[1]

    def nlists(self) -> list[tuple[Atom, ...]]:
        out: list[tuple[Atom, ...]] = []
        for i, e in enumerate(self.entries):
            if i == 0:
                out.append(tuple(e.delta))
            elif self.polarity(i) == "P":
                out.append(out[i - 1] + e.delta)
            else:
                j = e.justifier
                out.append(out[j] if j is not None else ())
        return out

    def canonical(self) -> tuple["Play", Permutation]:
        ren, _, canon = self.canon()
        return Play(self.board, canon), _complete_to_permutation(ren)

    def pretty(self) -> str:
        ns = self.nlists()
        lines = [str(self.board)]
        for i, e in enumerate(self.entries):
            o, q = self.board.label(e.comp, e.move)
            nl = "" if not ns[i] else "^[" + " ".join(map(str, ns[i])) + "]"
            ptr = "" if e.justifier is None else f" -> {e.justifier}"
            side = "  " * (0 if e.comp == SRC else 1)
            lines.append(f"{i:3} {side}{e.comp}:{e.move}{nl}  {o}{q}{ptr}")
        return "\n".join(lines)


# One id per distinct entry, for the life of the process.  The table names
# entries and caches no result, so no reset needs to clear it.
_IDS: dict[tuple, int] = {}


def entry_id(e: Entry) -> int:
    # keyed on the fields Entry's eq compares: a plain tuple hashes faster
    return _IDS.setdefault((e.comp, e.move.addr, e.move.pay, e.justifier, e.delta), len(_IDS))


def _canon_step(ren: dict, counts: dict, e: Entry) -> Entry:
    """Number e's new atoms after the ones in ren, in place; e renamed."""
    moved = {}
    for a in e.move.atoms + e.delta:
        b = ren.get(a)
        if b is None:
            k = counts.get(a.family, 0)
            counts[a.family] = k + 1
            b = ren[a] = Atom(a.family, k)
        if b.index != a.index:
            moved[a] = b
    return e._map_atoms_(renaming(moved)) if moved else e


# ---------------------------------------------------------------------------
# Views
# ---------------------------------------------------------------------------

def view_indices(p: Play, player: bool = True) -> list[int]:
    """Indices of the P-view (or O-view) of p, in order."""
    idx: list[int] = []
    i = len(p.entries) - 1
    want = "P" if player else "O"
    while i >= 0:
        e = p.entries[i]
        idx.append(i)
        if p.polarity(i) == want:
            i -= 1
            continue
        if e.justifier is None:
            break
        j = e.justifier
        idx.append(j)
        i = j - 1
    idx.reverse()
    return idx


def extract(p: Play, indices: list[int]) -> Play:
    """Re-indexed subsequence; justifiers must fall inside the selection."""
    remap = {old: new for new, old in enumerate(indices)}
    out = []
    for old in indices:
        e = p.entries[old]
        j = e.justifier
        if j is not None:
            if j not in remap:
                raise ValueError(f"dangling justifier {j} in view {indices}")
            j = remap[j]
        out.append(Entry(e.comp, e.move, j, e.delta))
    return Play(p.board, tuple(out))


def pview(p: Play) -> Play:
    return extract(p, view_indices(p, player=True))


def oview(p: Play) -> Play:
    return extract(p, view_indices(p, player=False))


# ---------------------------------------------------------------------------
# Legality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    condition: str
    index: int
    detail: str

    def __str__(self) -> str:
        return f"{self.condition}@{self.index}: {self.detail}"


@dataclass(frozen=True)
class Verdict:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        return "ok" if self.ok else "; ".join(map(str, self.violations))


def check_play(p: Play, mode: str = "plain") -> Verdict:
    """All play conditions; `mode` picks the name-change flavour
    ('plain' for NC2, 'innocent' for NC2'), or 'unbracketed' for NC2 and
    every condition but bracketing, which is what the paper asks of a play
    with general references."""
    v: list[Violation] = []
    bd = p.board
    open_q: list[int] = []  # pending-question stack for bracketing
    for i, e in enumerate(p.entries):
        # structure: move exists, justifier enables, first move initial
        if not bd.has_move(e.comp, e.move):
            v.append(Violation("structure", i, f"foreign move {e.move}"))
            return Verdict(tuple(v))
        if i == 0:
            if not (e.comp == SRC and bd.src.is_initial(e.move)):
                v.append(Violation("structure", 0, "first move not source-initial"))
            if e.delta or e.justifier is not None:
                v.append(Violation("NC1", 0, "initial move must be bare"))
        else:
            if e.justifier is None or not 0 <= e.justifier < i:
                v.append(Violation("justification", i, "missing justifier"))
                return Verdict(tuple(v))
            je = p.entries[e.justifier]
            if e.comp == je.comp:
                if not bd.arena(e.comp).justifies(je.move, e.move):
                    v.append(Violation("justification", i, f"{je.move} ⊬ {e.move}"))
            elif (
                je.comp == SRC
                and e.comp == TGT
                and bd.src.is_initial(je.move)
                and bd.tgt.is_initial(e.move)
            ):
                pass  # i_src justifies i_tgt across the board
            else:
                v.append(Violation("justification", i, "cross-component pointer"))
        # alternation
        expected = "O" if i % 2 == 0 else "P"
        if bd.label(e.comp, e.move)[0] != expected:
            v.append(Violation("alternation", i, f"expected an {expected}-move"))
        # bracketing
        if i > 0 and mode != "unbracketed" and p.qa(i) == "A":
            if not open_q or open_q[-1] != e.justifier:
                v.append(Violation("bracketing", i, "answer not to pending question"))
        if p.qa(i) == "Q":
            open_q.append(i)
        elif i > 0 and open_q and open_q[-1] == e.justifier:
            open_q.pop()
        # visibility
        if i > 0:
            prefix = Play(bd, p.entries[:i])
            vis = view_indices(prefix, player=(i % 2 == 1))
            if e.justifier not in vis:
                v.append(Violation("visibility", i, f"justifier {e.justifier} unseen"))
    # name-change conditions
    if p.entries:
        sup_so_far: set[Atom] = set()
        for i, e in enumerate(p.entries):
            if i % 2 == 1:  # P-move
                fresh = [a for a in e.delta if a in sup_so_far]
                if fresh or len(set(e.delta)) != len(e.delta):
                    v.append(Violation("NC1", i, f"stale or repeated delta {e.delta}"))
                scope = (
                    set(atoms_of(pview(Play(bd, p.entries[:i]))))
                    if mode == "innocent"
                    else sup_so_far
                )
                missing = [
                    a for a in atoms_of(e.move) if a not in scope and a not in e.delta
                ]
                if missing:
                    cond = "NC2'" if mode == "innocent" else "NC2"
                    v.append(Violation(cond, i, f"unlisted fresh names {missing}"))
            else:
                if e.delta:
                    v.append(Violation("NC3", i, "opponent move introduces names"))
            sup_so_far.update(atoms_of(e))
    return Verdict(tuple(v))


def is_innocent_play(p: Play) -> bool:
    if not check_play(p, mode="innocent").ok:
        return False
    for i in range(1, len(p.entries) + 1):
        prefix = Play(p.board, p.entries[:i])
        if not check_play(pview(prefix), mode="innocent").ok:
            return False
    return True


def introduced_names(p: Play) -> set[Atom]:
    """L(p): the names introduced by Player."""
    out: set[Atom] = set()
    for i, e in enumerate(p.entries):
        if i % 2 == 1:
            out.update(e.delta)
    return out


# ---------------------------------------------------------------------------
# Composition: parallel interaction, mix, hiding
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class IEntry:
    """An entry of an interaction of plays 1..n over arenas 0..n: played in
    arena `iface` (0 and n are the outer ones) by `owner` (0 for the
    environment, else a play)."""

    iface: int
    move: Move
    justifier: Optional[int]
    delta: tuple[Atom, ...]
    owner: int

    def _map_atoms_(self, pi):
        move, delta = self.move._map_atoms_(pi), tuple(map(pi, self.delta))
        return IEntry(self.iface, move, self.justifier, delta, self.owner)

    def _iter_atoms_(self):
        yield from self.move.atoms
        yield from self.delta


@dataclass(frozen=True)
class Interaction:
    """A parallel interaction over its arenas with its final name-list."""

    arenas: tuple[Arena, ...]
    entries: tuple[IEntry, ...] = ()

    def _iter_atoms_(self):
        for e in self.entries:
            yield from atoms_of(e)

    def _map_atoms_(self, pi):
        return Interaction(
            self.arenas, tuple(e._map_atoms_(pi) for e in self.entries)
        )

    def nlists(self) -> list[tuple[Atom, ...]]:
        out: list[tuple[Atom, ...]] = []
        for i, e in enumerate(self.entries):
            if e.owner:
                prev = out[i - 1] if i else ()
                out.append(prev + e.delta)
            elif e.justifier is None:
                out.append(tuple(e.delta))
            else:
                out.append(out[e.justifier])
        return out

    def mix(self) -> tuple[Atom, ...]:
        ns = self.nlists()
        return ns[-1] if ns else ()


class NotComposable(ValueError):
    pass


def _matched_prefixes(s: Play, t: Play) -> list[tuple[int, int]]:
    """(i, j) pairs with s[:i] almost-composable with t[:j], per the zipper."""
    pairs = [(len(s.entries), len(t.entries))]
    i, j = len(s.entries), len(t.entries)
    while i > 0 or j > 0:
        if i > 0 and s.entries[i - 1].comp == SRC:  # s ends in A
            i -= 1
        elif j > 0 and t.entries[j - 1].comp == TGT:  # t ends in C
            j -= 1
        elif i > 0 and j > 0:
            if s.entries[i - 1].move != t.entries[j - 1].move:
                raise NotComposable(
                    f"B-projections disagree: {s.entries[i-1].move} vs "
                    f"{t.entries[j-1].move}"
                )
            i -= 1
            j -= 1
        else:
            raise NotComposable("unmatched interface moves")
        pairs.append((i, j))
    pairs.reverse()
    return pairs


def composable(s: Play, t: Play) -> Verdict:
    """Both are plays (`check_play` in mode 'unbracketed'), then
    almost-composability plus the name conditions C1/C2."""
    if s.board.tgt != t.board.src:
        return Verdict((Violation("board", 0, "shared arena differs"),))
    for side, p in (("left", s), ("right", t)):
        bad = check_play(p, mode="unbracketed").violations
        if bad:
            return Verdict(tuple(Violation(x.condition, x.index, f"{side} play: {x.detail}")
                                 for x in bad))
    try:
        pairs = _matched_prefixes(s, t)
    except NotComposable as e:
        return Verdict((Violation("projection", 0, str(e)),))
    v: list[Violation] = []
    for i, j in pairs:
        if i == 0 and j == 0:
            continue
        sp = s.entries[:i]
        tp = t.entries[:j]
        s_sup = support(tuple(sp))
        t_sup = support(tuple(tp))
        # C1: an exposed move's fresh names avoid the other play entirely
        if sp and sp[-1].comp == SRC and sp[-1].delta:
            intro = set(sp[-1].delta)
            if intro & t_sup:
                v.append(Violation("C1", i, f"{intro & t_sup} not fresh for t"))
        if tp and tp[-1].comp == TGT and tp[-1].delta:
            intro = set(tp[-1].delta)
            if intro & s_sup:
                v.append(Violation("C1", j, f"{intro & s_sup} not fresh for s"))
        # C2: matched interface moves' fresh names avoid the other side's past
        if sp and tp and sp[-1].comp == TGT and tp[-1].comp == SRC:
            if sp[-1].move == tp[-1].move:
                intro_s = set(sp[-1].delta)
                if intro_s & support(tuple(tp[:-1])):
                    v.append(Violation("C2", i, f"{intro_s} seen in t's past"))
                intro_t = set(tp[-1].delta)
                if intro_t & support(tuple(sp[:-1])):
                    v.append(Violation("C2", j, f"{intro_t} seen in s's past"))
    return Verdict(tuple(v))


def compose_plays(s: Play, t: Play) -> tuple[Interaction, Play]:
    """Parallel interaction s‖t and the composite s;t = (s‖t) restricted to
    the outer components."""
    verdict = composable(s, t)
    if not verdict.ok:
        raise NotComposable(str(verdict))
    pairs = _matched_prefixes(s, t)
    entries: list[IEntry] = []
    s_at: dict[int, int] = {}  # s-index -> u-index
    t_at: dict[int, int] = {}
    for (i0, j0), (i, j) in zip(pairs, pairs[1:]):
        u_idx = len(entries)
        s_adv = i > i0
        t_adv = j > j0
        if s_adv and t_adv:  # shared B-move
            se, te = s.entries[i - 1], t.entries[j - 1]
            owner = 1 if (i - 1) % 2 == 1 else 2
            delta = se.delta if owner == 1 else te.delta
            just = (
                s_at.get(se.justifier) if se.justifier is not None else None
            )
            entries.append(IEntry(1, se.move, just, tuple(delta), owner))
            s_at[i - 1] = u_idx
            t_at[j - 1] = u_idx
        elif s_adv:
            se = s.entries[i - 1]
            owner = 1 if (i - 1) % 2 == 1 else 0
            just = s_at.get(se.justifier) if se.justifier is not None else None
            entries.append(IEntry(0, se.move, just, tuple(se.delta), owner))
            s_at[i - 1] = u_idx
        elif t_adv:
            te = t.entries[j - 1]
            owner = 2 if (j - 1) % 2 == 1 else 0
            just = t_at.get(te.justifier) if te.justifier is not None else None
            entries.append(IEntry(2, te.move, just, tuple(te.delta), owner))
            t_at[j - 1] = u_idx
    u = Interaction((s.board.src, s.board.tgt, t.board.tgt), tuple(entries))
    return u, hide(u, Board(s.board.src, t.board.tgt))


def expose(u, n: int, lo: int, idx: int, at: dict[int, int]) -> Entry:
    """Outer entry idx of an interaction u over arenas 0..n as the composite
    play sees it.  `at` maps outer u indices to play indices.  A move whose
    justifier is hidden (a target initial) re-anchors through hidden
    justifiers, and a move played by a part carries the names the hidden
    moves u[lo:idx] introduced before its own."""
    e = u[idx]
    just = e.justifier
    while just is not None and 0 < u[just].iface < n:
        just = u[just].justifier
    delta = e.delta
    if e.owner:
        delta = tuple(a for x in u[lo:idx] for a in x.delta) + delta
    jv = None if just is None else at[just]
    return Entry(SRC if e.iface == 0 else TGT, e.move, jv, delta)


def hide(u: Interaction, board: Board) -> Play:
    """Project an interaction to its outer arenas, one `expose` per outer entry."""
    n, es = len(u.arenas) - 1, u.entries
    visible: list[Entry] = []
    at: dict[int, int] = {}
    lo = 0
    for idx, e in enumerate(es):
        if 0 < e.iface < n:
            continue
        visible.append(expose(es, n, lo, idx, at))
        at[idx], lo = len(visible) - 1, idx + 1
    return Play(board, tuple(visible))


# ---------------------------------------------------------------------------
# Set-tagged simulation (the determinacy pathology, quarantined)
# ---------------------------------------------------------------------------

def set_tagged_classes(p: Play) -> tuple:
    """The play with name-lists coarsened to name-sets, canonicalized by
    brute-force orbit search (name-sets are not strongly supported)."""
    ns = [frozenset(nl) for nl in p.nlists()]
    shape = tuple(
        (e.comp, e.move, e.justifier, ns[i]) for i, e in enumerate(p.entries)
    )
    atoms = sorted(support(p), key=Atom._sort_key)
    best = None
    for pi in family_permutations(atoms):
        cand = apply_perm(pi, shape)
        key = repr(cand)
        if best is None or key < repr(best):
            best = cand
    return best if best is not None else shape


def set_tagged_equal(p: Play, q: Play) -> bool:
    return set_tagged_classes(p) == set_tagged_classes(q)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def _pay_to_json(p):
    if isinstance(p, Atom):
        return {"atom": str(p.family), "index": p.index}
    if isinstance(p, tuple):
        return {"tuple": [_pay_to_json(q) for q in p]}
    return p


def _addr_to_json(addr):
    out = []
    for step in addr:
        out.append(step if isinstance(step, (str, int)) else {"type": str(step)})
    return out


def play_to_json(p: Play) -> dict:
    ns = p.nlists()
    return {
        "board": str(p.board),
        "entries": [
            {
                "comp": e.comp,
                "move-path": _addr_to_json(e.move.addr),
                "payload": _pay_to_json(e.move.pay),
                "nlist": [str(a) for a in ns[i]],
                "delta": [str(a) for a in e.delta],
                "justifier": e.justifier,
            }
            for i, e in enumerate(p.entries)
        ],
    }


def _pay_from_json(js):
    if isinstance(js, dict) and "atom" in js:
        return Atom(parse_type(js["atom"]), js["index"])
    if isinstance(js, dict) and "tuple" in js:
        return tuple(_pay_from_json(q) for q in js["tuple"])
    return js


def _addr_from_json(js):
    out = []
    for step in js:
        out.append(parse_type(step["type"]) if isinstance(step, dict) else step)
    return tuple(out)


def board_to_json(b: Board) -> dict:
    return {"src": arena_to_json(b.src), "tgt": arena_to_json(b.tgt)}


def board_from_json(js) -> Board:
    return Board(arena_from_json(js["src"]), arena_from_json(js["tgt"]))


def play_to_json_full(p: Play) -> dict:
    js = play_to_json(p)
    js["board"] = board_to_json(p.board)
    return js


def play_from_json(js) -> Play:
    """Read a play in the form `play_to_json_full` writes.  A shape it
    cannot read raises ValueError."""
    try:
        board = board_from_json(js["board"])
        entries = []
        for e in js["entries"]:
            if e["comp"] not in (SRC, TGT):
                raise ValueError(f"not a play: component {e['comp']!r}")
            j = e["justifier"]
            if j is not None and (not isinstance(j, int) or isinstance(j, bool)):
                raise ValueError(f"not a play: justifier {j!r}")
            delta = []
            for s in e.get("delta", []):
                fam, idx = s.rsplit("#", 1)
                delta.append(Atom(parse_type(fam), int(idx)))
            entries.append(
                Entry(
                    e["comp"],
                    Move(_addr_from_json(e["move-path"]), _pay_from_json(e["payload"])),
                    j,
                    tuple(delta),
                )
            )
    except (TypeError, AttributeError) as e:
        raise ValueError(f"not a play: {e}") from None
    return Play(board, tuple(entries))
