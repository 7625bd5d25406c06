"""Typed atoms, finite permutations, support, freshness and orbits.

Atoms come in pairwise disjoint families (one family per reference type
downstream).  Permutations are finite family-respecting bijections.  Every
value manipulated by the workbench is built from atoms, plain data and
containers, so support and the permutation action can be computed
structurally; this is sound because all values in scope are strongly
supported (lists, not sets, of names everywhere).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Iterator, Optional


@dataclass(frozen=True, slots=True)
class Atom:
    """A typed atomic name.  Equality is (family, index) equality, hashed once."""

    family: Hashable
    index: int
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.family, self.index)))
        return self._hash

    def __str__(self) -> str:
        return f"{self.family}#{self.index}"

    __repr__ = __str__

    def _sort_key(self):
        return (str(self.family), self.index)


class NameList(tuple):
    """An ordered list of pairwise distinct atoms."""

    def __new__(cls, atoms: Iterable[Atom] = ()):
        t = super().__new__(cls, tuple(atoms))
        for a in t:
            if not isinstance(a, Atom):
                raise TypeError(f"NameList entries must be atoms, got {a!r}")
        if len(set(t)) != len(t):
            raise ValueError(f"NameList entries must be distinct: {list(t)}")
        return t

    def __repr__(self) -> str:
        return "[" + " ".join(str(a) for a in self) + "]"


class PermutationError(ValueError):
    pass


class Permutation:
    """A finite family-respecting bijection on atoms (identity elsewhere)."""

    __slots__ = ("_map",)

    def __init__(self, mapping: dict[Atom, Atom] | None = None):
        m = {a: b for a, b in (mapping or {}).items() if a != b}
        for a, b in m.items():
            if a.family != b.family:
                raise PermutationError(f"{a} -> {b} crosses atom families")
        if len(set(m.values())) != len(m):
            raise PermutationError("mapping is not injective")
        if set(m.values()) != set(m.keys()):
            raise PermutationError("mapping is not a bijection on its carrier")
        object.__setattr__(self, "_map", m)

    def __call__(self, a: Atom) -> Atom:
        return self._map.get(a, a)

    def is_identity(self) -> bool:
        return not self._map

    def fixes(self, atoms: Iterable[Atom]) -> bool:
        """True when every atom in `atoms` is mapped to itself."""
        m = self._map
        return not any(a in m for a in atoms)

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other:  (self.compose(other))(a) = self(other(a))."""
        carrier = set(self._map) | set(other._map)
        return Permutation({a: self(other(a)) for a in carrier})

    def inverse(self) -> "Permutation":
        return Permutation({b: a for a, b in self._map.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    def __repr__(self) -> str:
        if not self._map:
            return "id"
        pairs = sorted(self._map.items(), key=lambda ab: ab[0]._sort_key())
        return "{" + ", ".join(f"{a}->{b}" for a, b in pairs) + "}"

    @staticmethod
    def identity() -> "Permutation":
        return Permutation()

    @staticmethod
    def swap(a: Atom, b: Atom) -> "Permutation":
        if a == b:
            return Permutation()
        return Permutation({a: b, b: a})


# ---------------------------------------------------------------------------
# Structural permutation action and atom traversal.
#
# A value is *nominal* if it is an Atom, an atomless scalar (int, str, bool,
# None, or any object with `_atomless_ = True`), a tuple / NameList /
# frozenset of nominal values, or an object implementing `_map_atoms_(f)`
# and `_iter_atoms_()`.
# ---------------------------------------------------------------------------

_SCALARS = (int, str, bool, float, type(None))


def apply_perm(pi: Permutation, x: Any) -> Any:
    """Apply a permutation structurally: the group action on values."""
    if isinstance(x, Atom):
        return pi(x)
    if isinstance(x, NameList):
        return NameList(pi(a) for a in x)
    if isinstance(x, tuple):
        return tuple(apply_perm(pi, e) for e in x)
    if isinstance(x, frozenset):
        return frozenset(apply_perm(pi, e) for e in x)
    if isinstance(x, _SCALARS) or getattr(x, "_atomless_", False):
        return x
    mapper = getattr(x, "_map_atoms_", None)
    if mapper is not None:
        return mapper(pi)
    raise TypeError(f"not a nominal value: {x!r}")


def atoms_of(x: Any) -> Iterator[Atom]:
    """All atom occurrences of x, in deterministic traversal order."""
    if isinstance(x, Atom):
        yield x
        return
    if isinstance(x, (tuple, NameList)):
        for e in x:
            yield from atoms_of(e)
        return
    if isinstance(x, frozenset):
        for e in sorted(x, key=lambda v: repr(v)):
            yield from atoms_of(e)
        return
    if isinstance(x, _SCALARS) or getattr(x, "_atomless_", False):
        return
    it = getattr(x, "_iter_atoms_", None)
    if it is not None:
        yield from it()
        return
    raise TypeError(f"not a nominal value: {x!r}")


def support(x: Any) -> frozenset[Atom]:
    """The least support; structural, valid for strongly supported values."""
    return frozenset(atoms_of(x))


def is_fresh(a: Atom, x: Any) -> bool:
    return a not in support(x)


def fresh_atom(family: Hashable, avoid: Iterable[Atom]) -> Atom:
    """Least-index atom of `family` not among `avoid`."""
    used = {a.index for a in avoid if isinstance(a, Atom) and a.family == family}
    i = 0
    while i in used:
        i += 1
    return Atom(family, i)


def fresh_atoms(family: Hashable, n: int, avoid: Iterable[Atom]) -> list[Atom]:
    out: list[Atom] = []
    pool = set(avoid)
    for _ in range(n):
        a = fresh_atom(family, pool)
        out.append(a)
        pool.add(a)
    return out


# ---------------------------------------------------------------------------
# Orbit canonicalization.
# ---------------------------------------------------------------------------

def canonical_perm(x: Any) -> Permutation:
    """A permutation renaming the atoms of x to 0,1,2,... per family, in
    order of first occurrence."""
    mapping: dict[Atom, Atom] = {}
    counters: dict[Hashable, int] = {}
    for a in atoms_of(x):
        if a not in mapping:
            k = counters.get(a.family, 0)
            counters[a.family] = k + 1
            mapping[a] = Atom(a.family, k)
    return _complete_to_permutation(mapping)


def renaming(mapping: dict[Atom, Atom]) -> Permutation:
    """Act by an injective map, uncompleted: on values whose atoms all lie in
    its domain it agrees with every permutation extending it."""
    pi = object.__new__(Permutation)
    object.__setattr__(pi, "_map", {a: b for a, b in mapping.items() if a != b})
    return pi


def _complete_to_permutation(mapping: dict[Atom, Atom]) -> Permutation:
    """Extend an injective family-respecting map to a finite permutation."""
    full = dict(mapping)
    families = {a.family for a in mapping}
    for fam in families:
        src = [a for a in mapping if a.family == fam]
        tgt = [mapping[a] for a in src]
        missing_dom = [t for t in tgt if t not in set(src)]
        missing_ran = [s for s in src if s not in set(tgt)]
        missing_dom.sort(key=Atom._sort_key)
        missing_ran.sort(key=Atom._sort_key)
        for d, r in zip(missing_dom, missing_ran):
            full[d] = r
    return Permutation(full)


def orbit_canon(x: Any) -> tuple[Any, Permutation]:
    """Canonical orbit representative of x, with a witness pi, pi*x = canon."""
    pi = canonical_perm(x)
    return apply_perm(pi, x), pi


def orbit_equal(x: Any, y: Any) -> bool:
    """[x] = [y]: equality up to a permutation of atoms."""
    return orbit_canon(x)[0] == orbit_canon(y)[0]


def find_permutation(x: Any, y: Any) -> Permutation | None:
    """Some pi with pi*x = y, or None.  Relies on strong support of x, y."""
    cx, px = orbit_canon(x)
    cy, py = orbit_canon(y)
    if cx != cy:
        return None
    return py.inverse().compose(px)


# ---------------------------------------------------------------------------
# Exhaustive permutation machinery (small carriers only).
# ---------------------------------------------------------------------------

def family_permutations(atoms: Iterable[Atom]) -> Iterator[Permutation]:
    """All family-respecting permutations of a finite atom carrier."""
    by_fam: dict[Hashable, list[Atom]] = {}
    for a in set(atoms):
        by_fam.setdefault(a.family, []).append(a)
    for fam in by_fam:
        by_fam[fam].sort(key=Atom._sort_key)
    fams = sorted(by_fam, key=str)
    pools = [list(itertools.permutations(by_fam[f])) for f in fams]
    for combo in itertools.product(*pools):
        mapping: dict[Atom, Atom] = {}
        for f, perm in zip(fams, combo):
            mapping.update(dict(zip(by_fam[f], perm)))
        yield Permutation(mapping)


def find_strong_support_violation(x: Any, extra: int = 2) -> Permutation | None:
    """Check the strong-support biconditional exhaustively.

    Returns a violating permutation (over support(x) plus `extra` fresh
    atoms per involved family) or None if support(x) strongly supports x.
    """
    sup = support(x)
    carrier = set(sup)
    for fam in {a.family for a in sup}:
        carrier.update(fresh_atoms(fam, extra, carrier))
    for pi in family_permutations(carrier):
        fixes = all(pi(a) == a for a in sup)
        fixed = apply_perm(pi, x) == x
        if fixes != fixed:
            return pi
    return None


class SupportPreconditionError(ValueError):
    """S(y_i) & S(z_i) not included in S(x_i): the combiner's hypotheses fail."""


def strong_support_combine(x1, x2, y1, y2, z1, z2) -> Permutation | None:
    """Merge two partial renamings into one.

    Given pi_y with pi_y*(x1,y1) = (x2,y2) and pi_z with pi_z*(x1,z1) =
    (x2,z2) (found here from orbit representatives), build a single pi with
    pi*x1 = x2, pi*y1 = y2 and pi*z1 = z2 by the swap recursion.  Returns
    None when no such witnesses exist; raises SupportPreconditionError when
    the side condition S(y_i) & S(z_i) <= S(x_i) fails.
    """
    for i, (x, y, z) in enumerate(((x1, y1, z1), (x2, y2, z2)), start=1):
        bad = (support(y) & support(z)) - support(x)
        if bad:
            raise SupportPreconditionError(
                f"side {i}: atoms {sorted(bad, key=Atom._sort_key)} shared by y,z "
                "but not in the support of x"
            )
    pi_y = find_permutation((x1, y1), (x2, y2))
    pi_z = find_permutation((x1, z1), (x2, z2))
    if pi_y is None or pi_z is None:
        return None
    delta1 = sorted(support(z1) - support(x1), key=Atom._sort_key)
    pi_prime = pi_y.inverse().compose(pi_z)
    pi_i = Permutation.identity()
    for b in delta1:
        image = pi_i(pi_prime(b))
        pi_i = Permutation.swap(b, image).compose(pi_i)
    pi = pi_y.compose(pi_i.inverse())
    assert apply_perm(pi, x1) == x2
    assert apply_perm(pi, y1) == y2
    assert apply_perm(pi, z1) == z2
    return pi
