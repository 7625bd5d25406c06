import pytest

from nurho.arenas import Budget, MERGE, Move, Names, One, PAIR, STAR, STORE0, t_arena
from nurho.model import denote, drf, eta, nu_strategy, sden, upd
from nurho.nominal import Atom, NameList
from nurho.plays import Board, Entry, Play, SRC, TGT
from nurho.strategies import (
    Strategy,
    TableStrategy,
    compose,
    identity,
    strategy_equal,
    viewfunction,
)
from nurho.syntax import Arrow, NAT, Prod, Ref, UNIT, infer, parse_term
from nurho.tidy import (
    SynthContext,
    check_tidy,
    decompose,
    is_finitary,
    restrict,
    scrutinizer,
    synthesize_checked,
    synthesize_term,
    trunc_view,
)

aN, bN = Atom(NAT, 0), Atom(NAT, 1)
BUD = Budget(max_nat=1, atoms=(), fresh_per_family=1, families=(NAT, UNIT))


def ctx_for(names=(), gamma=(), out_ty=UNIT, k=2, depth=8):
    return SynthContext(NameList(names), tuple(gamma), out_ty, k, depth, BUD)


class TestTidy:
    def test_identity_on_t1_is_tidy(self):
        sigma = identity(t_arena(One(), 1))
        rep = check_tidy(sigma, bound=8, budget=BUD)
        assert rep.ok, str(rep.violations[:3])

    def test_drf_upd_tidy(self):
        assert check_tidy(drf(NAT, 1), bound=8, budget=BUD).ok
        assert check_tidy(upd(NAT, 1), bound=8, budget=BUD).ok

    def test_denote_outputs_tidy(self):
        t, _ = infer(parse_term("nu a:[N]. a := 1 ; !a"))
        assert check_tidy(denote(t, k=1), bound=8, budget=BUD).ok

    def test_mutant_answer_with_fresh_name_caught(self):
        # an upd-variant answering the written name's question by
        # introducing a brand-new name in the name-list
        base = upd(NAT, 1)
        vf = viewfunction(base, 8, BUD)
        plays = []
        for p in vf.plays.values():
            entries = list(p.entries)
            if len(entries) >= 6 and entries[5].move.addr[:3] == ("b", "r", "v"):
                c = Atom(NAT, 7)
                entries[5] = Entry(
                    entries[5].comp, entries[5].move, entries[5].justifier, (c,)
                )
            plays.append(Play(p.board, tuple(entries)))
        mutant = TableStrategy(base.board, plays, name="mutant")
        rep = check_tidy(mutant, bound=6, budget=BUD)
        assert any(v.condition == "TD1" for v in rep.violations)

    def test_mutant_wrong_store_handle_caught(self):
        # a drf-variant pointing its store question at the wrong handle is
        # rejected by the view machinery itself (dangling justifier) or by
        # TD2; build it at the oracle level.
        base = drf(NAT, 1)

        class Mutant(Strategy):
            def respond_raw(self, view):
                r = base.respond(view)
                if r is not None and r.move.addr == ("a", "q") and len(view) == 3:
                    return type(r)(r.comp, r.move, 1, r.delta)
                return r

        rep = check_tidy(Mutant(base.board, "bad-td2"), bound=4, budget=BUD)
        assert any(v.condition == "TD2" for v in rep.violations)

    def test_mutant_broken_copycat_caught(self):
        # after copying a question, answer the original with a constant
        # instead of relaying the answer received on the copy
        base = upd(NAT, 1)

        class Mutant(Strategy):
            def respond_raw(self, view):
                last = view.entries[-1]
                if len(view) >= 7 and last.move.addr == ("a", "v", NAT):
                    from nurho.strategies import Response

                    return Response(
                        TGT,
                        Move(("b", "r", "v", NAT), 0 if last.move.pay else 1),
                        len(view) - 3,
                    )
                return base.respond(view)

        rep = check_tidy(Mutant(base.board, "bad-td3"), bound=8, budget=BUD)
        assert any(v.condition == "TD3" for v in rep.violations)


class TestTrunc:
    def test_trunc_cuts_store_copycat(self):
        sigma = upd(NAT, 1)
        vf = viewfunction(sigma, 8, BUD)
        long = [p for p in vf.plays.values() if len(p) >= 6]
        assert long
        cut = False
        for p in long:
            t = trunc_view(sigma.board, p)
            if len(t) < len(p):
                cut = True
        assert cut

    def test_finitary_denotations(self):
        t, _ = infer(parse_term("lambda x:1. x"))
        ok, size = is_finitary(denote(t, k=1), depth=8, budget=BUD)
        assert ok and size >= 1

    def test_restrict_contains_t(self):
        sigma = denote(parse_term("0"), k=1)
        vf = viewfunction(sigma, 6, BUD)
        t = sorted(vf.plays.values(), key=len)[-1]
        r = restrict(sigma, t)
        rvf = viewfunction(r, 6, BUD)
        assert t.canonical()[0].entries in rvf.table
        assert rvf.table <= vf.table


class TestScrutinizer:
    def test_nat_leaf(self):
        from nurho.syntax import typecheck

        term, vac = scrutinizer(NameList(), (NAT,), (PAIR, (), (PAIR, "*", 1)))
        assert not vac
        assert typecheck(NameList(), [NAT], term) == NAT

    def test_vacuous_for_unit(self):
        _, vac = scrutinizer(NameList(), (UNIT,), (PAIR, (), (PAIR, "*", "*")))
        assert vac


class TestDecompose:
    def test_stop_case(self):
        from nurho.syntax import stop_term

        sigma = denote(stop_term(UNIT), k=2)
        case = decompose(sigma, ctx_for(out_ty=UNIT))
        assert case.kind == "stop"

    def test_fresh_case_and_recombination(self):
        t, _ = infer(parse_term("nu a:[N]. 0"))
        sigma = denote(t, k=2)
        case = decompose(sigma, ctx_for(out_ty=NAT), selected=True)
        assert case.kind == "fresh"
        assert strategy_equal(case.recombined, sigma, 6, BUD)

    def test_read_case_and_recombination(self):
        t, _ = infer(
            parse_term("(lambda y:N. succ y) !(N#0)"), names=NameList([aN])
        )
        sigma = denote(t, NameList([aN]), k=2)
        case = decompose(
            sigma, ctx_for(names=(aN,), out_ty=NAT), selected=True
        )
        assert case.kind == "read" and case.components["atom"] == aN
        assert strategy_equal(case.recombined, sigma, 8, BUD)

    def test_write_case_and_recombination(self):
        t, _ = infer(parse_term("N#0 := 2 ; 0"), names=NameList([aN]))
        sigma = denote(t, NameList([aN]), k=2)
        case = decompose(
            sigma, ctx_for(names=(aN,), out_ty=NAT), selected=True
        )
        assert case.kind == "write" and case.components["atom"] == aN
        assert strategy_equal(case.recombined, sigma, 8, BUD)

    def test_fixed_names_is_single_orbit(self):
        t, _ = infer(
            parse_term("if0 [N#0 = N#1] then 1 else 2"),
            names=NameList([aN, bN]),
        )
        sigma = denote(t, NameList([aN, bN]), k=2)
        case = decompose(sigma, ctx_for(names=(aN, bN), out_ty=NAT))
        assert case.kind == "value"  # distinct ambient names never split

    def test_split_case(self):
        lam, _ = infer(
            parse_term("lambda x:[N]. if0 [x = N#0] then 1 else 2"),
            names=NameList([aN]),
        )
        t = lam.body
        sigma = denote(t, NameList([aN]), (Ref(NAT),), k=2)
        case = decompose(
            sigma, ctx_for(names=(aN,), gamma=(Ref(NAT),), out_ty=NAT)
        )
        assert case.kind == "split"
        assert strategy_equal(case.recombined, sigma, 6, BUD)


class TestSynthesize:
    def roundtrip(self, src, names=(), gamma=(), out_ty=None, depth=6, k=2):
        nl = NameList(names)
        if gamma:
            binders = "".join(
                f"lambda v{i}:{t}. " for i, t in enumerate(gamma)
            )
            wrapped, _ = infer(parse_term(binders + src), names=nl)
            term = wrapped
            for _ in gamma:
                term = term.body
            from nurho.syntax import typecheck

            ty = typecheck(nl, list(gamma), term)
        else:
            term, ty = infer(parse_term(src), names=nl)
        out_ty = out_ty or ty
        sigma = denote(term, nl, tuple(gamma), k)
        cert = synthesize_checked(sigma, nl, tuple(gamma), out_ty, k, depth, BUD)
        assert cert.equal, f"{src} resynthesized as {cert.term}\n" + "\n".join(
            cert.diffs
        )
        return cert.term

    def test_stop(self):
        got = self.roundtrip("stop:1")
        assert "nu" in str(got)

    def test_numeral(self):
        assert str(self.roundtrip("2")) == "2"

    def test_skip(self):
        assert str(self.roundtrip("skip")) == "skip"

    def test_fresh_then_value(self):
        self.roundtrip("nu a:[N]. 0")

    def test_read(self):
        self.roundtrip("!(N#0)", names=(aN,))

    def test_write(self):
        self.roundtrip("N#0 := 3 ; 1", names=(aN,))

    def test_context_variable(self):
        self.roundtrip("v0", gamma=(NAT,))

    def test_lambda_identity(self):
        self.roundtrip("lambda x:1. x", depth=8)

    def test_pair_value(self):
        self.roundtrip("<1, skip>")

    def test_if0_on_context(self):
        self.roundtrip("if0 v0 then 1 else 0", gamma=(NAT,))
