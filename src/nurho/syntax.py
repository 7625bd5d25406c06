"""Syntax of the calculus: types, terms, typing, parsing and printing.

Terms use de Bruijn indices for variables (binding-safe) while names are
concrete atoms; the nu binder stores its bound atom.  The typing rules are
one walk, `_type_walk`.  Without a unifier it is `typecheck`, on core
terms.  With one it is `infer`, which gives unannotated lambdas and `stop`
type variables, and then elaborates the surface conveniences (unannotated
lambdas, the `stop` constant, `;` sequencing) into core constructors.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .nominal import Atom, NameList, Permutation, atoms_of, fresh_atom


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

class Type:
    _atomless_ = True

    def __str__(self) -> str:
        return type_str(self)

    __repr__ = __str__


@dataclass(frozen=True, repr=False)
class Unit(Type):
    pass


@dataclass(frozen=True, repr=False)
class Nat(Type):
    pass


@dataclass(frozen=True, repr=False)
class Ref(Type):
    inner: Type


@dataclass(frozen=True, repr=False)
class Arrow(Type):
    src: Type
    tgt: Type


@dataclass(frozen=True, repr=False)
class Prod(Type):
    left: Type
    right: Type


UNIT = Unit()
NAT = Nat()


def type_str(t: Type, prec: int = 0) -> str:
    # prec 0: arrow position, 1: product, 2: atomic
    if isinstance(t, _TVar):
        return f"?{t.id}"
    if isinstance(t, Unit):
        return "1"
    if isinstance(t, Nat):
        return "N"
    if isinstance(t, Ref):
        return f"[{type_str(t.inner)}]"
    if isinstance(t, Arrow):
        s = f"{type_str(t.src, 1)}->{type_str(t.tgt, 0)}"
        return f"({s})" if prec > 0 else s
    if isinstance(t, Prod):
        s = f"{type_str(t.left, 2)}*{type_str(t.right, 1)}"
        return f"({s})" if prec > 1 else s
    raise TypeError(f"not a type: {t!r}")


def type_order(t: Type) -> int:
    """Syntactic order: nesting depth through arrows and references."""
    if isinstance(t, (Unit, Nat)):
        return 0
    if isinstance(t, Ref):
        return 1 + type_order(t.inner)
    if isinstance(t, Arrow):
        return max(type_order(t.src) + 1, type_order(t.tgt))
    if isinstance(t, Prod):
        return max(type_order(t.left), type_order(t.right))
    raise TypeError(t)


# ---------------------------------------------------------------------------
# Terms (core constructors; Stop and untyped Lam are surface forms)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Term:
    pos: Optional[tuple[int, int]] = field(
        default=None, compare=False, repr=False, kw_only=True
    )

    def _map_atoms_(self, pi: Permutation) -> "Term":
        return _map_term(self, pi)

    def _iter_atoms_(self) -> Iterator[Atom]:
        # Support of a term: atoms occurring *free* (nu subtracts its binder).
        yield from free_atoms_ordered(self)

    def __str__(self) -> str:
        return pretty(self)


@dataclass(frozen=True)
class Var(Term):
    index: int = 0
    hint: str = field(default="x", compare=False)


@dataclass(frozen=True)
class Lam(Term):
    hint: str = field(default="x", compare=False)
    ty: Optional[Type] = None
    body: Term = None  # type: ignore[assignment]


@dataclass(frozen=True)
class App(Term):
    fn: Term = None  # type: ignore[assignment]
    arg: Term = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Pair(Term):
    left: Term = None  # type: ignore[assignment]
    right: Term = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Fst(Term):
    body: Term = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Snd(Term):
    body: Term = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Num(Term):
    value: int = 0


@dataclass(frozen=True)
class Pred(Term):
    body: Term = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Succ(Term):
    body: Term = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Skip(Term):
    pass


@dataclass(frozen=True)
class If0(Term):
    scrutinee: Term = None  # type: ignore[assignment]
    then: Term = None  # type: ignore[assignment]
    orelse: Term = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Name(Term):
    atom: Atom = None  # type: ignore[assignment]


@dataclass(frozen=True)
class EqTest(Term):
    left: Term = None  # type: ignore[assignment]
    right: Term = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Nu(Term):
    atom: Atom = None  # type: ignore[assignment]
    body: Term = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Assign(Term):
    ref: Term = None  # type: ignore[assignment]
    value: Term = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Deref(Term):
    ref: Term = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Stop(Term):
    """Surface-only constant; elaborates to the diverging nu-term."""

    ty: Optional[Type] = None


def _children(t: Term) -> list[Term]:
    return [v for v in vars(t).values() if isinstance(v, Term)]


def _rebuild(t: Term, subs: list[Term]) -> Term:
    vals = {}
    it = iter(subs)
    for k, v in vars(t).items():
        vals[k] = next(it) if isinstance(v, Term) else v
    vals.pop("pos", None)
    return type(t)(**vals, pos=t.pos)


def _map_term(t: Term, pi: Permutation) -> Term:
    if isinstance(t, Name):
        return Name(pi(t.atom), pos=t.pos)
    if isinstance(t, Nu):
        return Nu(pi(t.atom), _map_term(t.body, pi), pos=t.pos)
    return _rebuild(t, [_map_term(c, pi) for c in _children(t)])


def free_atoms_ordered(t: Term, bound: frozenset[Atom] = frozenset()) -> Iterator[Atom]:
    if isinstance(t, Name):
        if t.atom not in bound:
            yield t.atom
        return
    if isinstance(t, Nu):
        yield from free_atoms_ordered(t.body, bound | {t.atom})
        return
    for c in _children(t):
        yield from free_atoms_ordered(c, bound)


def all_atoms(t: Term) -> Iterator[Atom]:
    if isinstance(t, Name):
        yield t.atom
    elif isinstance(t, Nu):
        yield t.atom
        yield from all_atoms(t.body)
    else:
        for c in _children(t):
            yield from all_atoms(c)


def is_value(t: Term) -> bool:
    if isinstance(t, (Num, Skip, Name, Var, Lam)):
        return True
    if isinstance(t, Pair):
        return is_value(t.left) and is_value(t.right)
    return False


# ---------------------------------------------------------------------------
# de Bruijn plumbing and alpha machinery
# ---------------------------------------------------------------------------

def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    if isinstance(t, Var):
        return Var(t.index + by, hint=t.hint, pos=t.pos) if t.index >= cutoff else t
    if isinstance(t, Lam):
        return Lam(t.hint, t.ty, shift(t.body, by, cutoff + 1), pos=t.pos)
    return _rebuild(t, [shift(c, by, cutoff) for c in _children(t)])


def subst(t: Term, value: Term, index: int = 0) -> Term:
    """Capture-free substitution of `value` for variable `index` in t."""
    if isinstance(t, Var):
        if t.index == index:
            return shift(value, index)
        if t.index > index:
            return Var(t.index - 1, hint=t.hint, pos=t.pos)
        return t
    if isinstance(t, Lam):
        return Lam(t.hint, t.ty, subst(t.body, value, index + 1), pos=t.pos)
    return _rebuild(t, [subst(c, value, index) for c in _children(t)])


def rename_bound_atoms(t: Term, taken: set[Atom]) -> Term:
    """Deterministic alpha-normal form for nu binders.

    Each nu binder is renamed to the least atom index of its family unused
    anywhere so far; combined with de Bruijn variables this makes raw
    structural equality decide alpha-equivalence.
    """
    def go(t: Term) -> Term:
        if isinstance(t, Nu):
            fresh = fresh_atom(t.atom.family, taken)
            taken.add(fresh)
            body = t.body if fresh == t.atom else _map_term(
                t.body, Permutation.swap(t.atom, fresh)
            )
            return Nu(fresh, go(body), pos=t.pos)
        return _rebuild(t, [go(c) for c in _children(t)])

    return go(t)


def alpha_normal(t: Term) -> Term:
    return rename_bound_atoms(t, set(atoms_of(t)))


def alpha_eq(t1: Term, t2: Term) -> bool:
    return alpha_normal(t1) == alpha_normal(t2)


# ---------------------------------------------------------------------------
# Typing: `typecheck` is the typing walk without a unifier
# ---------------------------------------------------------------------------

class TypecheckError(Exception):
    def __init__(self, msg: str, pos: Optional[tuple[int, int]] = None):
        super().__init__(msg if pos is None else f"{msg} at {pos[0]}:{pos[1]}")
        self.reason = msg
        self.pos = pos


def typecheck(names: NameList, env: list[Type], t: Term) -> Type:
    """Return the unique type of t under name context `names` and variable
    context `env` (de Bruijn: env[-1] is index 0).  This is `_type_walk`
    without a unifier: every lambda must be annotated and `stop` is
    refused."""
    return _type_walk(t, names, env)[0]


# ---------------------------------------------------------------------------
# Sugar builders
# ---------------------------------------------------------------------------

def seq(m: Term, n: Term, ty: Optional[Type] = UNIT) -> Term:
    """CBV sequencing  m ; n  =  (lambda z. n) m  with z unused."""
    return App(Lam("_", ty, shift(n, 1)), m)


def stop_term(a_ty: Type) -> Term:
    """The canonical diverging term of the given type."""
    fam = Arrow(UNIT, a_ty)
    b = Atom(fam, 0)
    bang = lambda: App(Deref(Name(b)), Skip())
    return Nu(b, seq(Assign(Name(b), Lam("x", UNIT, bang())), bang()))


def y_combinator(a_ty: Type) -> Term:
    """Landin's knot: a fixed-point combinator via a higher-order reference."""
    fam = Arrow(a_ty, a_ty)
    a = Atom(fam, 0)
    # lambda f. nu a. (a := lambda x. f (!a) x) ; !a
    inner = Lam(
        "x",
        a_ty,
        App(App(Var(1, hint="f"), Deref(Name(a))), Var(0, hint="x")),
    )
    return Lam(
        "f",
        Arrow(fam, fam),
        Nu(a, seq(Assign(Name(a), inner), Deref(Name(a)), ty=UNIT)),
    )


# ---------------------------------------------------------------------------
# Parser (recursive descent with backtracking for atom literals)
# ---------------------------------------------------------------------------

class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{msg} at {line}:{col}")
        self.line, self.col = line, col


_KEYWORDS = {
    "skip", "pred", "succ", "if0", "then", "else", "lambda", "nu",
    "fst", "snd", "stop",
}

_PUNCT = ["->", ":=", ";", ".", ",", "(", ")", "<", ">", "[", "]",
          "=", "!", "*", ":", "#"]


@dataclass
class _Tok:
    kind: str  # 'int' | 'ident' | 'punct' | 'eof'
    text: str
    line: int
    col: int


def _lex(src: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i, line, col = 0, 1, 1
    while i < len(src):
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
            toks.append(_Tok("int", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(_Tok("ident", src[i:j], line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if src.startswith(p, i):
                toks.append(_Tok("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.i = 0
        self.scope: list[str] = []          # de Bruijn variable names
        self.names: dict[str, Atom] = {}    # nu-bound name identifiers
        self.binder_count: dict[Type, int] = {}

    # -- token helpers ----------------------------------------------------
    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def eat(self, kind: str, text: str | None = None) -> _Tok:
        if not self.at(kind, text):
            t = self.peek()
            expected = text or kind
            raise ParseError(f"expected {expected!r}, found {t.text!r}", t.line, t.col)
        return self.next()

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    # -- types -------------------------------------------------------------
    def type_(self) -> Type:
        left = self.type_prod()
        if self.at("punct", "->"):
            self.next()
            return Arrow(left, self.type_())
        return left

    def type_prod(self) -> Type:
        left = self.type_atom()
        while self.at("punct", "*"):
            self.next()
            left = Prod(left, self.type_atom())
        return left

    def type_atom(self) -> Type:
        t = self.peek()
        if self.at("int", None) and t.text == "1":
            self.next()
            return UNIT
        if self.at("ident", "N"):
            self.next()
            return NAT
        if self.at("punct", "["):
            self.next()
            inner = self.type_()
            self.eat("punct", "]")
            return Ref(inner)
        if self.at("punct", "("):
            self.next()
            inner = self.type_()
            self.eat("punct", ")")
            return inner
        self.fail(f"expected a type, found {t.text!r}")

    # -- terms -------------------------------------------------------------
    def term(self) -> Term:
        t = self.peek()
        pos = (t.line, t.col)
        if self.at("ident", "lambda"):
            self.next()
            name = self.eat("ident").text
            ty = None
            if self.at("punct", ":"):
                self.next()
                ty = self.type_()
            self.eat("punct", ".")
            self.scope.append(name)
            try:
                body = self.term()
            finally:
                self.scope.pop()
            return Lam(name, ty, body, pos=pos)
        if self.at("ident", "nu"):
            self.next()
            name = self.eat("ident").text
            self.eat("punct", ":")
            self.eat("punct", "[")
            ty = self.type_()
            self.eat("punct", "]")
            self.eat("punct", ".")
            k = self.binder_count.get(ty, 0)
            self.binder_count[ty] = k + 1
            atom = Atom(ty, 10_000 + k)  # placeholder id; alpha-normalized later
            saved = self.names.get(name)
            self.names[name] = atom
            try:
                body = self.term()
            finally:
                if saved is None:
                    del self.names[name]
                else:
                    self.names[name] = saved
            return Nu(atom, body, pos=pos)
        if self.at("ident", "if0"):
            self.next()
            scrut = self.term()
            self.eat("ident", "then")
            then = self.term()
            self.eat("ident", "else")
            orelse = self.term()
            return If0(scrut, then, orelse, pos=pos)
        return self.seq_term()

    def seq_term(self) -> Term:
        left = self.assign_term()
        if self.at("punct", ";"):
            pos = (self.peek().line, self.peek().col)
            self.next()
            self.scope.append("_")
            try:
                right = self.term()
            finally:
                self.scope.pop()
            # right was parsed under a dummy binder so indices already shifted
            return App(Lam("_", None, right, pos=pos), left, pos=pos)
        return left

    def assign_term(self) -> Term:
        left = self.app_term()
        if self.at("punct", ":="):
            pos = (self.peek().line, self.peek().col)
            self.next()
            # binder-headed values extend maximally to the right
            if self.at("ident", "lambda") or self.at("ident", "nu") or self.at(
                "ident", "if0"
            ):
                right = self.term()
            else:
                right = self.assign_term()
            return Assign(left, right, pos=pos)
        return left

    def app_term(self) -> Term:
        t = self.prefix_term()
        while self._starts_atom():
            arg = self.prefix_term()
            t = App(t, arg, pos=t.pos)
        return t

    def _starts_atom(self) -> bool:
        t = self.peek()
        if t.kind == "int":
            return True
        if t.kind == "ident":
            return t.text not in {"then", "else"}
        return t.kind == "punct" and t.text in {"(", "<", "[", "!"}

    def prefix_term(self) -> Term:
        t = self.peek()
        pos = (t.line, t.col)
        if self.at("ident", "pred"):
            self.next()
            return Pred(self.prefix_term(), pos=pos)
        if self.at("ident", "succ"):
            self.next()
            return Succ(self.prefix_term(), pos=pos)
        if self.at("ident", "fst"):
            self.next()
            return Fst(self.prefix_term(), pos=pos)
        if self.at("ident", "snd"):
            self.next()
            return Snd(self.prefix_term(), pos=pos)
        if self.at("punct", "!"):
            self.next()
            return Deref(self.prefix_term(), pos=pos)
        return self.atom_term()

    def atom_term(self) -> Term:
        t = self.peek()
        pos = (t.line, t.col)
        if t.kind == "int":
            # backtrack point: numeral vs atom literal like 1#0 or 1->1#2
            save = self.i
            try:
                ty = self.type_()
                if self.at("punct", "#"):
                    self.next()
                    idx = int(self.eat("int").text)
                    return Name(Atom(ty, idx), pos=pos)
            except ParseError:
                pass
            self.i = save
            self.next()
            return Num(int(t.text), pos=pos)
        if t.kind == "ident":
            if t.text == "skip":
                self.next()
                return Skip(pos=pos)
            if t.text == "stop":
                self.next()
                ty = None
                if self.at("punct", ":"):
                    self.next()
                    ty = self.type_()
                return Stop(ty, pos=pos)
            if t.text in _KEYWORDS:
                self.fail(f"unexpected keyword {t.text!r}")
            save = self.i
            try:
                ty = self.type_()
                if self.at("punct", "#"):
                    self.next()
                    idx = int(self.eat("int").text)
                    return Name(Atom(ty, idx), pos=pos)
            except ParseError:
                pass
            self.i = save
            self.next()
            if t.text in self.names:
                return Name(self.names[t.text], pos=pos)
            for depth, nm in enumerate(reversed(self.scope)):
                if nm == t.text:
                    return Var(depth, hint=t.text, pos=pos)
            self.fail(f"unbound identifier {t.text!r}")
        if self.at("punct", "("):
            self.next()
            inner = self.term()
            self.eat("punct", ")")
            return inner
        if self.at("punct", "<"):
            self.next()
            left = self.term()
            self.eat("punct", ",")
            right = self.term()
            self.eat("punct", ">")
            return Pair(left, right, pos=pos)
        if self.at("punct", "["):
            save = self.i
            self.next()
            try:
                ty = self.type_()
                if self.at("punct", "]"):
                    self.next()
                    if self.at("punct", "#"):
                        self.next()
                        idx = int(self.eat("int").text)
                        return Name(Atom(Ref(ty), idx), pos=pos)
            except ParseError:
                pass
            self.i = save
            self.next()
            left = self.term()
            self.eat("punct", "=")
            right = self.term()
            self.eat("punct", "]")
            return EqTest(left, right, pos=pos)
        self.fail(f"expected a term, found {t.text!r}")


def parse_term(src: str) -> Term:
    p = _Parser(_lex(src))
    t = p.term()
    p.eat("eof")
    return alpha_normal(t)


def parse_type(src: str) -> Type:
    p = _Parser(_lex(src))
    t = p.type_()
    p.eat("eof")
    return t


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------

def pretty(
    t: Term,
    scope: tuple[str, ...] = (),
    prec: int = 0,
    names: dict[Atom, str] | None = None,
) -> str:
    # prec levels: 0 term, 1 seq, 2 assign, 3 app, 4 prefix, 5 atom
    names = names or {}

    def paren(s: str, level: int) -> str:
        return f"({s})" if prec > level else s

    def rec(sub: Term, sc, pr) -> str:
        return pretty(sub, sc, pr, names)

    if isinstance(t, Lam):
        nm = _fresh_name(t.hint, scope, names)
        ann = f":{t.ty}" if t.ty is not None else ""
        return paren(f"lambda {nm}{ann}. {rec(t.body, scope + (nm,), 0)}", 0)
    if isinstance(t, Nu):
        nm = _fresh_name(f"n{t.atom.index}", scope, names)
        inner = dict(names)
        inner[t.atom] = nm
        return paren(
            f"nu {nm}:[{t.atom.family}]. {pretty(t.body, scope, 0, inner)}", 0
        )
    if isinstance(t, If0):
        return paren(
            f"if0 {rec(t.scrutinee, scope, 1)} then {rec(t.then, scope, 1)} "
            f"else {rec(t.orelse, scope, 0)}",
            0,
        )
    if isinstance(t, App) and isinstance(t.fn, Lam) and t.fn.hint == "_" and not _uses_index(t.fn.body, 0):
        return paren(
            f"{rec(t.arg, scope, 2)} ; {rec(t.fn.body, scope + ('_',), 1)}", 1
        )
    if isinstance(t, Assign):
        return paren(f"{rec(t.ref, scope, 3)} := {rec(t.value, scope, 2)}", 2)
    if isinstance(t, App):
        return paren(f"{rec(t.fn, scope, 3)} {rec(t.arg, scope, 4)}", 3)
    if isinstance(t, Pred):
        return paren(f"pred {rec(t.body, scope, 4)}", 3)
    if isinstance(t, Succ):
        return paren(f"succ {rec(t.body, scope, 4)}", 3)
    if isinstance(t, Fst):
        return paren(f"fst {rec(t.body, scope, 4)}", 3)
    if isinstance(t, Snd):
        return paren(f"snd {rec(t.body, scope, 4)}", 3)
    if isinstance(t, Deref):
        return paren(f"!{rec(t.ref, scope, 4)}", 4)
    if isinstance(t, Var):
        if t.index < len(scope):
            return scope[-1 - t.index]
        return f"{t.hint}?{t.index}"
    if isinstance(t, Num):
        return str(t.value)
    if isinstance(t, Skip):
        return "skip"
    if isinstance(t, Stop):
        return "stop" if t.ty is None else f"stop:{t.ty}"
    if isinstance(t, Name):
        if t.atom in names:
            return names[t.atom]
        return f"{t.atom.family}#{t.atom.index}"
    if isinstance(t, Pair):
        return f"<{rec(t.left, scope, 0)}, {rec(t.right, scope, 0)}>"
    if isinstance(t, EqTest):
        return f"[{rec(t.left, scope, 0)} = {rec(t.right, scope, 0)}]"
    raise TypeError(f"cannot print {t!r}")


def _fresh_name(hint: str, scope: tuple[str, ...], names: dict[Atom, str]) -> str:
    taken = set(scope) | set(names.values()) | _KEYWORDS
    if hint not in taken and hint != "N":
        return hint
    k = 1
    while f"{hint}{k}" in taken:
        k += 1
    return f"{hint}{k}"


def _uses_index(t: Term, index: int) -> bool:
    if isinstance(t, Var):
        return t.index == index
    if isinstance(t, Lam):
        return _uses_index(t.body, index + 1)
    return any(_uses_index(c, index) for c in _children(t))


# Printing note: nu binders print a synthetic identifier; reparsing yields an
# alpha-equivalent term, which is what round-trip tests check.


# ---------------------------------------------------------------------------
# The typing walk, and `infer`: the walk with a unifier, then elaboration
# ---------------------------------------------------------------------------

@dataclass(frozen=True, repr=False)
class _TVar(Type):
    id: int


class _Unifier:
    def __init__(self):
        self.sub: dict[_TVar, Type] = {}
        self.count = 0

    def fresh(self) -> _TVar:
        self.count += 1
        return _TVar(self.count)

    def resolve(self, t: Type) -> Type:
        while isinstance(t, _TVar) and t in self.sub:
            t = self.sub[t]
        return t

    def unify(self, a: Type, b: Type, pos=None) -> None:
        a, b = self.resolve(a), self.resolve(b)
        if a == b:
            return
        if isinstance(a, _TVar):
            if a in _tvars(self.walk(b)):
                raise TypecheckError("recursive type", pos)
            self.sub[a] = b
            return
        if isinstance(b, _TVar):
            self.unify(b, a, pos)
            return
        if isinstance(a, Ref) and isinstance(b, Ref):
            self.unify(a.inner, b.inner, pos)
            return
        if isinstance(a, Arrow) and isinstance(b, Arrow):
            self.unify(a.src, b.src, pos)
            self.unify(a.tgt, b.tgt, pos)
            return
        if isinstance(a, Prod) and isinstance(b, Prod):
            self.unify(a.left, b.left, pos)
            self.unify(a.right, b.right, pos)
            return
        raise TypecheckError(f"type mismatch: {self.walk(a)} vs {self.walk(b)}", pos)

    def walk(self, t: Type) -> Type:
        t = self.resolve(t)
        if isinstance(t, Ref):
            return Ref(self.walk(t.inner))
        if isinstance(t, Arrow):
            return Arrow(self.walk(t.src), self.walk(t.tgt))
        if isinstance(t, Prod):
            return Prod(self.walk(t.left), self.walk(t.right))
        return t

    def default(self, t: Type) -> Type:
        """Ground a type by sending leftover variables to 1."""
        t = self.resolve(t)
        if isinstance(t, _TVar):
            return UNIT
        if isinstance(t, Ref):
            return Ref(self.default(t.inner))
        if isinstance(t, Arrow):
            return Arrow(self.default(t.src), self.default(t.tgt))
        if isinstance(t, Prod):
            return Prod(self.default(t.left), self.default(t.right))
        return t


def _tvars(t: Type) -> set[_TVar]:
    if isinstance(t, _TVar):
        return {t}
    if isinstance(t, Ref):
        return _tvars(t.inner)
    if isinstance(t, Arrow):
        return _tvars(t.src) | _tvars(t.tgt)
    if isinstance(t, Prod):
        return _tvars(t.left) | _tvars(t.right)
    return set()


def _type_walk(
    t: Term,
    names: NameList,
    env: list[Type],
    u: Optional[_Unifier] = None,
    expected: Optional[Type] = None,
) -> tuple[Type, list[Type]]:
    """The typing rule of each constructor, once.

    Returns the type of t under the names `names` and the variable context
    `env`, and the types given to its lambdas and stops in pre-order.  With
    a unifier `u`, an unannotated lambda or a `stop` gets a type variable,
    `expected` is unified with the result and leftover variables default
    to 1.  Without one both are refused, so each variable the walk makes
    is bound at once to a ground type.  A name out of scope or an untyped
    nu binder is reported only when the rest of the term types, so a type
    error keeps its position.
    """
    solver = u or _Unifier()
    unify, fresh = solver.unify, solver.fresh
    given: list[Type] = []
    late: list[TypecheckError] = []

    def give(ty: Optional[Type]) -> Type:
        given.append(u.fresh() if ty is None else ty)
        return given[-1]

    def go(t: Term, env: list[Type], scope: frozenset[Atom]) -> Type:
        if isinstance(t, Num):
            return NAT
        if isinstance(t, Skip):
            return UNIT
        if isinstance(t, Var):
            if not 0 <= t.index < len(env):
                raise TypecheckError(f"unbound variable {t.hint}", t.pos)
            return env[-1 - t.index]
        if isinstance(t, Name):
            if t.atom not in scope:
                late.append(TypecheckError(f"name {t.atom} not in scope", t.pos))
            if not isinstance(t.atom.family, Type):
                raise TypecheckError(f"name {t.atom} has no type family", t.pos)
            return Ref(t.atom.family)
        if isinstance(t, Lam):
            if t.ty is None and u is None:
                raise TypecheckError(f"unannotated lambda {t.hint}", t.pos)
            ty = give(t.ty)
            return Arrow(ty, go(t.body, env + [ty], scope))
        if isinstance(t, Stop):
            if u is None:
                raise TypecheckError("stop must be elaborated before typechecking", t.pos)
            return give(t.ty)
        if isinstance(t, Nu):
            if not isinstance(t.atom.family, Type):
                late.append(TypecheckError("nu binder must bind a typed name", t.pos))
            return go(t.body, env, scope | {t.atom})
        if isinstance(t, If0):
            unify(go(t.scrutinee, env, scope), NAT, t.pos)
            ty = go(t.then, env, scope)
            unify(ty, go(t.orelse, env, scope), t.pos)
            return ty
        tys = [go(c, env, scope) for c in _children(t)]
        if isinstance(t, App):
            out = fresh()
            unify(tys[0], Arrow(tys[1], out), t.pos)
            return out
        if isinstance(t, Pair):
            return Prod(*tys)
        if isinstance(t, (Fst, Snd)):
            l, r = fresh(), fresh()
            unify(tys[0], Prod(l, r), t.pos)
            return l if isinstance(t, Fst) else r
        if isinstance(t, (Pred, Succ)):
            unify(tys[0], NAT, t.pos)
            return NAT
        if isinstance(t, EqTest):
            inner = fresh()
            unify(tys[0], Ref(inner), t.pos)
            unify(tys[1], Ref(inner), t.pos)
            return NAT
        if isinstance(t, Assign):
            unify(tys[0], Ref(tys[1]), t.pos)
            return UNIT
        if isinstance(t, Deref):
            inner = fresh()
            unify(tys[0], Ref(inner), t.pos)
            return inner
        raise TypecheckError(f"cannot infer {t!r}", t.pos)

    ty = go(t, list(env), frozenset(names))
    if expected is not None:
        unify(ty, expected)
    if late:
        raise late[0]
    return solver.default(ty), given


def infer(
    t: Term,
    names: NameList = NameList(),
    env: Optional[list[Type]] = None,
    expected: Optional[Type] = None,
) -> tuple[Term, Type]:
    """Elaborate a surface term: fill lambda annotations, expand stop.

    This is `_type_walk` with a unifier; unresolved type variables default
    to 1.  Returns the core term and its type; the result typechecks under
    (names, env).
    """
    u = _Unifier()
    ty, given = _type_walk(t, names, env or [], u, expected)
    types = iter(given)

    def ground(t: Term) -> Term:
        if isinstance(t, Lam):
            ann = u.default(next(types))
            return Lam(t.hint, ann, ground(t.body), pos=t.pos)
        if isinstance(t, Stop):
            return stop_term(u.default(next(types)))
        return _rebuild(t, [ground(c) for c in _children(t)])

    return alpha_normal(ground(t)), ty
