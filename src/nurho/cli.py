"""Command-line workbench.

Exit codes: 0 on success, 1 when a requested check fails, 2 on usage or
input errors.  With --json the primary result is machine-readable on
stdout.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Optional

from .arenas import Budget, Names, One
from .machine import Config, Store as TermStore, evaluate
from .model import denote, observable, sden
from .nominal import Atom, NameList
from .plays import (
    Play,
    check_play,
    compose_plays,
    composable,
    play_from_json,
    play_to_json_full,
)
from .strategies import (
    Diagonal,
    LambdaC,
    TensorOf,
    assoc_rt,
    classify,
    compose,
    determinacy_fuzz,
    identity,
    o_extensions,
    strategy_leq,
    unit_elim_left,
    unit_intro_left,
    viewfunction,
)
from .tidy import check_tidy, is_finitary, synthesize_checked
from . import model
from . import syntax as S
from .syntax import Arrow, NAT, ParseError, Type, TypecheckError, UNIT, infer, parse_term, parse_type


def _budget(*families) -> Budget:
    return Budget(max_nat=2, families=tuple(dict.fromkeys(families + (UNIT, NAT))))


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, ensure_ascii=False, default=str))
    else:
        print(human)


def _load_term(text: str, names=NameList()):
    term = parse_term(text)
    return infer(term, names=names)


def cmd_eval(args) -> int:
    term, ty = _load_term(args.term)
    cfg = Config.make(TermStore(), term)
    out = evaluate(cfg, fuel=args.fuel, trace=args.trace)
    payload = {
        "outcome": out.kind,
        "steps": out.steps,
        "type": str(ty),
        "term": str(out.config.term),
        "store": str(out.config.store),
    }
    if args.trace:
        payload["trace"] = [
            {"rule": r, "store": str(c.store), "term": str(c.term)}
            for r, c in out.trace
        ]
    trace_txt = "".join(
        f"  [{r}] {c.store} |- {c.term}\n" for r, c in out.trace
    )
    _emit(
        args,
        payload,
        f"{out.kind} after {out.steps} steps: {out.config.term}\n"
        + (trace_txt if args.trace else ""),
    )
    return 0 if out.kind in ("value", "cycle") else 1


def cmd_typecheck(args) -> int:
    try:
        term, ty = _load_term(args.term)
    except TypecheckError as e:
        _emit(args, {"ok": False, "error": str(e)}, f"ill-typed: {e}")
        return 1
    _emit(args, {"ok": True, "type": str(ty), "term": str(term)}, str(ty))
    return 0


def cmd_denote(args) -> int:
    term, ty = _load_term(args.term)
    k = args.depth if args.depth is not None else None
    sigma = denote(term, k=k)
    bud = _budget(ty)
    vf = viewfunction(sigma, args.table_depth, bud)
    plays = [play_to_json_full(p) for p in vf.plays.values()]
    human = [f"viewfunction of |- {term} : {ty} ({len(vf)} canonical views)"]
    for p in sorted(vf.plays.values(), key=len)[:20]:
        human.append(p.pretty())
    _emit(args, {"type": str(ty), "views": plays}, "\n".join(human))
    return 0


def cmd_compose(args) -> int:
    try:
        with open(args.left) as f, open(args.right) as g:
            s, t = play_from_json(json.load(f)), play_from_json(json.load(g))
    except (OSError, ValueError, KeyError) as e:
        print(f"cannot load plays: {e}", file=sys.stderr)
        return 2
    verdict = composable(s, t)
    if not verdict.ok:
        _emit(args, {"composable": False, "verdict": str(verdict)}, str(verdict))
        return 1
    _, st = compose_plays(s, t)
    _emit(
        args,
        {"composable": True, "composite": play_to_json_full(st)},
        st.pretty(),
    )
    return 0


def cmd_check(args) -> int:
    if args.what == "play":
        try:
            with open(args.target) as f:
                p = play_from_json(json.load(f))
        except (OSError, ValueError, KeyError) as e:
            print(f"cannot load play: {e}", file=sys.stderr)
            return 2
        verdict = check_play(p, mode=args.mode)
        _emit(args, {"ok": verdict.ok, "verdict": str(verdict)}, str(verdict))
        return 0 if verdict.ok else 1
    if args.what == "diagram":
        rep = model.check_diagram(
            args.target, k=args.depth or 1, depth=args.table_depth,
            ty=parse_type(args.type), ty2=parse_type(args.type2),
        )
        _emit(
            args,
            {"ok": rep.equal, "diagram": rep.name, "depth": rep.depth},
            f"{rep.name}: {'commutes' if rep.equal else 'FAILS'} at depth {rep.depth}",
        )
        return 0 if rep.equal else 1
    term, ty = _load_term(args.target)
    sigma = denote(term, k=args.depth)
    bud = _budget(ty)
    if args.what == "strategy":
        cls = classify(sigma, depth=6, budget=bud)
        collision = determinacy_fuzz(sigma, 6, bud)
        ok = collision is None
        _emit(
            args,
            {"ok": ok, "totality": vars(cls) | {"starred": cls.starred}},
            f"determinacy {'ok' if ok else 'BROKEN'}; {cls}",
        )
        return 0 if ok else 1
    if args.what == "tidy":
        rep = check_tidy(sigma, bound=args.table_depth, budget=bud)
        _emit(
            args,
            {"ok": rep.ok, "violations": [str(v) for v in rep.violations]},
            str(rep),
        )
        return 0 if rep.ok else 1
    print(f"unknown check target {args.what}", file=sys.stderr)
    return 2


def cmd_synth(args) -> int:
    term, ty = _load_term(args.term)
    k = args.depth or 2
    sigma = denote(term, k=k)
    bud = _budget(ty)
    fin, size = is_finitary(sigma, depth=args.table_depth, budget=bud)
    cert = synthesize_checked(
        sigma, NameList(), (), ty, k, args.table_depth, bud
    )
    payload = {
        "term": str(cert.term),
        "finitary": fin,
        "table-size": size,
        "bound": cert.depth,
        "table-diff": cert.diffs,
        "ok": cert.equal,
    }
    _emit(
        args,
        payload,
        f"synthesized: {cert.term}\n"
        f"certificate: bound {cert.depth}, "
        f"{'table match' if cert.equal else 'TABLE MISMATCH'}",
    )
    return 0 if cert.equal else 1


# ---------------------------------------------------------------------------
# Bounded intrinsic-preorder harness
# ---------------------------------------------------------------------------

def _lam_hat(f, names: NameList, arrow_ty: Type, k: int):
    """Curry a closed denotation into the test position:
    names⊗1 -> names ⊗ [[1 -> B]]."""
    n_arena = Names(tuple(a.family for a in names)) if names else One()
    curry_src = compose(
        assoc_rt(n_arena, One(), One()),
        TensorOf(identity(n_arena), unit_elim_left(One())),
        f,
    )
    lam = LambdaC(curry_src)
    delta = compose(
        TensorOf(Diagonal(n_arena), identity(One())),
        assoc_rt(n_arena, n_arena, One()),
    )
    return compose(delta, TensorOf(identity(n_arena), lam))


class TermGen:
    """Seeded generator of typed test terms y : 1->B |- L : N."""

    def __init__(self, seed: int, b_ty: Type):
        self.rng = random.Random(seed)
        self.b_ty = b_ty

    def numeral(self):
        return S.Num(self.rng.randint(0, 1))

    def gen(self, size: int) -> S.Term:
        y = S.Var(0, hint="y")
        call = S.App(y, S.Skip())
        opts = [lambda: self.numeral()]
        if size > 0:
            opts += [
                lambda: S.seq(call, self.gen(size - 1), ty=self.b_ty),
                lambda: S.If0(
                    self.gen_nat_probe(), self.gen(size - 1), self.gen(size - 1)
                ),
            ]
            fam = NAT
            a = Atom(fam, 50 + self.rng.randint(0, 3))
            opts.append(
                lambda: S.Nu(
                    a, S.seq(S.Assign(S.Name(a), S.Num(1)), self.gen(size - 1))
                )
            )
        return self.rng.choice(opts)()

    def gen_nat_probe(self) -> S.Term:
        if self.b_ty == NAT:
            return S.App(S.Var(0, hint="y"), S.Skip())
        return self.numeral()


def cmd_equiv(args) -> int:
    m_term, m_ty = _load_term(args.left)
    n_term, n_ty = _load_term(args.right)
    if m_ty != n_ty:
        print(f"type mismatch: {m_ty} vs {n_ty}", file=sys.stderr)
        return 2
    k = args.depth or 2
    depth = args.table_depth
    bud = _budget(m_ty)
    dm = denote(m_term, k=k)
    dn = denote(n_term, k=k)
    leq = strategy_leq(dm, dn, depth, bud)
    geq = strategy_leq(dn, dm, depth, bud)
    arrow = Arrow(UNIT, m_ty)
    lm = _lam_hat(dm, NameList(), arrow, k)
    ln = _lam_hat(dn, NameList(), arrow, k)
    gen = TermGen(args.seed, m_ty)
    separators = []
    tried = 0
    unit_fix = TensorOf(
        identity(One()), unit_intro_left(sden(arrow, k))
    )
    outcomes: dict = {}  # each distinct test is asked once; repeats count as draws
    for _ in range(args.tests):
        l_term = S.alpha_normal(gen.gen(2))
        try:
            S.typecheck(NameList(), [arrow], l_term)
        except TypecheckError:
            continue
        tried += 1
        if l_term not in outcomes:
            rho = denote(l_term, NameList(), (arrow,), k)
            run_m = compose(lm, unit_fix, rho)
            run_n = compose(ln, unit_fix, rho)
            outcomes[l_term] = observable(run_m), observable(run_n)
        om, on = outcomes[l_term]
        if om != on:
            separators.append((str(l_term), om, on))
    verdict = {
        "table-leq": leq,
        "table-geq": geq,
        "tests": tried,
        "separators": [
            {"test": t, "left-observable": a, "right-observable": b}
            for t, a, b in separators
        ],
        "caveat": f"bounded evidence only: depth {depth}, {tried} sampled tests",
    }
    if separators:
        human = "distinguishing test found:\n  " + separators[0][0]
    else:
        rel = "⊑ and ⊒" if leq and geq else ("⊑" if leq else ("⊒" if geq else "≠ tables"))
        human = (
            f"no distinguishing test found across {tried} tests; "
            f"table relation: {rel} at depth {depth} "
            f"(bounded evidence, not a proof)"
        )
    _emit(args, verdict, human)
    return 1 if separators else 0


def cmd_repl(args) -> int:
    term, ty = _load_term(args.term)
    sigma = denote(term, k=args.depth)
    bud = _budget(ty)
    view = Play(sigma.board)
    print(f"board: {sigma.board}")
    print("pick opponent moves by number; q quits.\n")
    while True:
        options = list(o_extensions(view, bud))
        if not options:
            print("no opponent moves available; stopping.")
            return 0
        for i, e in enumerate(options):
            print(f"  [{i}] {e.comp}:{e.move} -> {e.justifier}")
        line = input("O> ").strip()
        if line in ("q", "quit", "exit"):
            return 0
        try:
            choice = options[int(line)]
        except (ValueError, IndexError):
            print("illegal move; the verdict machinery rejects it.")
            continue
        odd = view.append(choice)
        verdict = check_play(odd, mode="innocent")
        if not verdict.ok:
            print(f"illegal move: {verdict}")
            continue
        r = sigma.respond(odd)
        if r is None:
            print("no response (strategy is silent here); undoing.")
            continue
        view = odd.append(r)
        print(f"P: {r.comp}:{r.move} -> {r.justifier} delta={list(r.delta)}")
        print("current P-view:")
        print(view.pretty())
        print()


def _common_flags(parser, suppress: bool) -> None:
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    parser.add_argument(
        "--json", action="store_true",
        **({"default": argparse.SUPPRESS} if suppress else {}),
        help="machine-readable output",
    )
    parser.add_argument("--seed", type=int, default=d(0))
    parser.add_argument("--fuel", type=int, default=d(500))
    parser.add_argument("--depth", type=int, default=d(None),
                        help="store unfolding depth")
    parser.add_argument("--table-depth", type=int, default=d(8),
                        help="view enumeration bound")
    parser.add_argument("--tests", type=int, default=d(50))
    parser.add_argument(
        "--trace", action="store_true",
        **({"default": argparse.SUPPRESS} if suppress else {}),
    )


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="nurho",
        description="workbench for nominal general references and their games",
    )
    _common_flags(ap, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _common_flags(common, suppress=True)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("eval", help="run the small-step machine", parents=[common])
    p.add_argument("term")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("typecheck", parents=[common])
    p.add_argument("term")
    p.set_defaults(fn=cmd_typecheck)

    p = sub.add_parser("denote", help="print the bounded viewfunction",
                       parents=[common])
    p.add_argument("term")
    p.set_defaults(fn=cmd_denote)

    p = sub.add_parser("compose", help="compose two play JSON files",
                       parents=[common])
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("check", help="check a play, strategy, tidiness or diagram",
                       parents=[common])
    p.add_argument("what", choices=["play", "strategy", "tidy", "diagram"])
    p.add_argument("target", help="play file, term, or diagram name")
    p.add_argument("--mode", choices=["plain", "innocent", "unbracketed"], default="plain")
    p.add_argument("--type", default="N")
    p.add_argument("--type2", default="1")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("synth", help="synthesize a term back from a denotation",
                       parents=[common])
    p.add_argument("term")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("equiv", help="bounded intrinsic-preorder evidence",
                       parents=[common])
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("repl-opponent", help="play opponent against a denotation",
                       parents=[common])
    p.add_argument("term")
    p.set_defaults(fn=cmd_repl)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, TypecheckError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
