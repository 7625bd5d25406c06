import pytest

from nurho.arenas import Budget, Move, Names, NatArena, One, STORE0, Tensor, t_arena
from nurho import model
from nurho.machine import Config, Store as TermStore, evaluate, step
from nurho.model import (
    abs_strategy,
    alpha,
    check_diagram,
    correctness_check,
    denote,
    drf,
    eta,
    eq_strategy,
    guard_derefs,
    mu,
    nu_strategy,
    observable,
    psi,
    sden,
    t_map,
    tau,
    upd,
)
from nurho.nominal import Atom, NameList
from nurho.plays import Board, Entry, Play, SRC, TGT, is_innocent_play
from nurho.strategies import (
    Pu,
    Up,
    compose,
    identity,
    strategy_equal,
    strategy_leq,
    viewfunction,
)
from nurho.syntax import (
    Arrow,
    NAT,
    Prod,
    Ref,
    UNIT,
    infer,
    parse_term,
    stop_term,
)

aN = Atom(NAT, 0)
BUD = Budget(max_nat=1, atoms=(), fresh_per_family=1, families=(NAT, UNIT))


def eqd(s1, s2, depth=6, budget=BUD):
    return strategy_equal(s1, s2, depth, budget)


class TestStoreMonadLaws:
    def test_unit_laws_on_t1(self):
        a = One()
        ta = t_arena(a, 1)
        lhs = compose(eta(ta, 1), mu(a, 1))
        rhs = identity(ta)
        assert eqd(lhs, rhs)
        lhs2 = compose(t_map(eta(a, 1), 1), mu(a, 1))
        assert eqd(lhs2, rhs)

    def test_mu_assoc_on_t1(self):
        a = One()
        lhs = compose(mu(t_arena(a, 1), 1), mu(a, 1))
        rhs = compose(t_map(mu(a, 1), 1), mu(a, 1))
        assert eqd(lhs, rhs)

    def test_alpha_is_monad_morphism_unit(self):
        a = NatArena()
        lhs = compose(Up(a), alpha(a, 1))
        rhs = eta(a, 1)
        assert eqd(lhs, rhs)


class TestRefStrategies:
    def test_drf_contains_paper_play(self):
        d = drf(NAT, 1)
        vf = viewfunction(d, 6, BUD)
        shapes = {
            tuple(e.move.addr for e in p.entries) for p in vf.plays.values()
        }
        assert ((), (), ("j",), ("a", "q"), ("a", "v", NAT), ("b",)) in shapes

    def test_upd_tidy_shape(self):
        u = upd(NAT, 1)
        vf = viewfunction(u, 8, BUD)
        for p in vf.plays.values():
            assert is_innocent_play(p)

    def test_nu_introduces_fresh(self):
        nu = nu_strategy((), NAT, One(), 1)
        vf = viewfunction(nu, 6, BUD)
        deep = [p for p in vf.plays.values() if len(p) == 4]
        assert deep
        for p in deep:
            assert p.entries[3].delta, p.pretty()


class TestDiagrams:
    def test_n1(self):
        assert check_diagram("N1", k=1, depth=6, ty=NAT)

    def test_nr1_read_after_write(self):
        assert check_diagram("NR-1", k=1, depth=8, ty=NAT, budget=BUD)

    def test_nr2_last_write_wins(self):
        assert check_diagram("NR-2", k=1, depth=8, ty=NAT, budget=BUD)

    def test_nr3_independence(self):
        assert check_diagram("NR-3", k=1, depth=8, ty=NAT, ty2=UNIT, budget=BUD)

    def test_snr(self):
        assert check_diagram("SNR", k=1, depth=8, ty=UNIT, ty2=UNIT, budget=BUD)

    def test_n2(self):
        assert check_diagram("N2-left", k=1, depth=6, ty=NAT, ty2=NAT, budget=BUD)
        assert check_diagram("N2-right", k=1, depth=6, ty=NAT, ty2=UNIT, budget=BUD)


class TestDenote:
    def test_skip_table(self):
        d = denote(parse_term("skip"), k=1)
        vf = viewfunction(d, 6, BUD)
        finals = [p for p in vf.plays.values() if len(p) == 4]
        assert finals
        for p in finals:
            assert [e.move.addr for e in p.entries] == [(), (), ("j",), ("b",)]
            assert p.entries[3].move.pay == ("⊗", "*", STORE0)

    def test_stop_is_silent_after_store_opening(self):
        d = denote(stop_term(UNIT), k=1)
        vf = viewfunction(d, 8, BUD)
        assert all(len(p) <= 2 for p in vf.plays.values())

    def test_numeral(self):
        d = denote(parse_term("succ 1"), k=1)
        vf = viewfunction(d, 6, BUD)
        finals = [p for p in vf.plays.values() if len(p) == 4]
        assert finals and all(
            p.entries[3].move.pay == ("⊗", 2, STORE0) for p in finals
        )

    def test_observable(self):
        assert observable(denote(parse_term("0"), k=1))
        assert observable(denote(parse_term("pred 1"), k=1))
        assert not observable(denote(stop_term(NAT), k=1))

    def test_observable_after_nu(self):
        t, _ = infer(parse_term("nu a:[N]. 0"))
        assert observable(denote(t, k=1))

    def test_deref_assigned(self):
        t, _ = infer(parse_term("nu a:[N]. a := 1 ; !a"))
        d = denote(t, k=1)
        assert observable(d) is False  # answers 1, not 0
        vf = viewfunction(d, 8, BUD)
        finals = [p for p in vf.plays.values() if len(p) == 4]
        assert any(p.entries[3].move.pay[1] == 1 for p in finals)

    def test_if0_branches(self):
        t, _ = infer(parse_term("if0 0 then 3 else 4"))
        vf = viewfunction(denote(t, k=1), 6, BUD)
        vals = {p.entries[3].move.pay[1] for p in vf.plays.values() if len(p) == 4}
        assert vals == {3}


class TestCorrectness:
    def check_all_steps(self, src, k=2, depth=6, fuel=12):
        term, _ = infer(parse_term(src))
        cfg = Config.make(TermStore(), term)
        steps = 0
        while steps < fuel:
            rep = correctness_check(cfg, k=k, depth=depth)
            if rep is None:
                break
            assert rep.equal, f"{src}: {rep.rule} clause {rep.clause}\n" + "\n".join(
                rep.diffs
            )
            cfg = step(cfg)[0]
            steps += 1

    def test_lam_step(self):
        self.check_all_steps("(lambda x:1. x) skip")

    def test_arith_steps(self):
        self.check_all_steps("pred (succ 1)")

    def test_pair_steps(self):
        self.check_all_steps("fst <1, skip>")

    def test_new_step(self):
        self.check_all_steps("nu a:[N]. skip", depth=6)

    def test_upd_drf_steps(self):
        self.check_all_steps("nu a:[N]. a := 1 ; !a", depth=6)


class TestAdequacyFace:
    def test_guard_derefs_inserts_nu(self):
        t, _ = infer(parse_term("nu a:[N]. a := 1 ; !a"))
        g = guard_derefs(t)
        assert "nu" in str(g)
        from nurho.syntax import typecheck

        assert typecheck(NameList(), [], g) == NAT

    def test_guarded_observability_matches(self):
        t, _ = infer(parse_term("nu a:[N]. a := 0 ; !a"))
        d1 = observable(denote(t, k=1))
        d2 = observable(denote(guard_derefs(t), k=1), budget=8)
        assert d1 == d2 == True


class TestSpotLemmas:
    def test_classify_stop_total_not_t4(self):
        from nurho.strategies import classify

        cls = classify(denote(stop_term(UNIT), k=1), depth=6, budget=BUD)
        assert cls.total and not cls.t4

    def _immediate_answer(self, d):
        from nurho.arenas import MERGE, STORE0
        from nurho.model import initial_entry

        v1 = Play(d.board, (initial_entry(d.board),))
        r1 = d.respond(v1)
        if r1 is None:
            return False
        v3 = Play(d.board, v1.entries + (r1,)).append(
            Entry(TGT, Move(("j",), (MERGE, STORE0)), 1, ())
        )
        r2 = d.respond(v3)
        return r2 is not None and r2.move.addr == ("b",)

    def test_value_characterization_spot(self):
        # among non-reducing configurations, exactly the values answer the
        # store opener immediately
        values = ["skip", "<1, 2>", "lambda x:N. x"]
        for src in values:
            t, _ = infer(parse_term(src))
            assert self._immediate_answer(denote(t, k=1)), src
        names = NameList([aN])
        stuck, _ = infer(parse_term("!N#0"), names=names)
        assert not self._immediate_answer(denote(stuck, names, k=1))

    def test_o_adequacy_spot(self):
        from nurho.machine import Config, Store as TermStore, evaluate
        from nurho.syntax import Num

        corpus = [
            "pred 1",
            "nu a:[N]. a := 0 ; !a",
            "if0 0 then 0 else 1",
            "fst <0, 1>",
            "stop:N",
        ]
        for src in corpus:
            t, _ = infer(parse_term(src))
            d = denote(t, k=1)
            if observable(d):
                out = evaluate(Config.make(TermStore(), t), fuel=100)
                assert out.kind == "value" and out.config.term == Num(0), src
                assert observable(denote(guard_derefs(t), k=1), budget=8)
            else:
                out = evaluate(Config.make(TermStore(), t), fuel=100)
                assert out.kind != "value" or out.config.term != Num(0), src


# test_10's corpus (tests/test_acceptance.py): every translation clause
DEFINABILITY_SOURCES = [
    "stop:1", "stop:N", "0", "1", "2", "skip", "<0, 1>", "<skip, 0>",
    "<1, <0, skip>>", "succ 1", "pred 2", "if0 0 then 1 else 0",
    "if0 1 then 0 else 2", "nu a:[N]. 0", "nu a:[N]. nu b:[N]. 1",
    "nu a:[N]. a := 1 ; 0", "nu a:[N]. a := 0 ; !a", "nu a:[N]. a := 1 ; !a",
    "nu a:[N]. a := 1 ; succ !a", "nu a:[1]. a := skip ; 0", "lambda x:1. x",
    "lambda x:N. x", "lambda x:N. succ x", "lambda x:N. 3", "lambda x:N*N. fst x",
    "lambda x:1. stop:1", "(lambda x:N. x) 1", "fst <2, 0>", "snd <skip, 1>",
    "nu a:[N]. if0 !(nu b:[N]. b := 0 ; b) then 1 else 2",
]

# every builder the denotations share through `_DEN_CACHE`
SHARED = (
    "ev_lift", "t_map", "eta", "mu", "tau_prime", "psi", "psi_prime",
    "st_prime", "alpha", "ev_t", "drf", "upd", "cnd", "projection", "succ", "pred",
    "eq_strategy",
)


class TestSharedMorphisms:
    def test_equal_arguments_give_one_strategy(self, monkeypatch):
        monkeypatch.setattr(model, "_DEN_CACHE", {})
        a, b = sden(NAT, 1), One()
        first = psi(a, b, 1)
        assert psi(a, b, 1) is first
        assert psi(b, a, 1) is not first and psi(a, b, 2) is not first

    def test_cleared_table_gives_fresh_memos(self, monkeypatch):
        monkeypatch.setattr(model, "_DEN_CACHE", {})
        a = sden(NAT, 1)
        first = psi(a, a, 1)
        assert observable(denote(parse_term("fst <pred 1, 2>"), k=1))  # uses psi(a, a, 1)
        assert any(p._memo for p in first.parts)
        model._DEN_CACHE.clear()
        again = psi(a, a, 1)
        assert again is not first and again._memo == {}
        assert not any(p._memo for p in again.parts)

    def test_patched_table_is_respected(self, monkeypatch):
        table: dict = {}
        monkeypatch.setattr(model, "_DEN_CACHE", table)
        s = mu(One(), 1)
        assert table[(model.mu.__wrapped__, One(), 1)] is s
        monkeypatch.setattr(model, "_DEN_CACHE", {})
        assert mu(One(), 1) is not s

    def test_sharing_changes_no_table(self, monkeypatch):
        """One shared instance interleaves the kept state of every chain
        that uses it; the tables equal those of unshared builders."""

        def tables():
            out = []
            for src in DEFINABILITY_SOURCES:
                term, _ = infer(parse_term(src))
                vf = viewfunction(denote(term, k=2), 8, BUD)
                out.append((vf.board, vf.table))
            return out

        monkeypatch.setattr(model, "_DEN_CACHE", {})
        shared = tables()
        assert len(model._DEN_CACHE) > len(DEFINABILITY_SOURCES)
        with monkeypatch.context() as m:
            for name in SHARED:
                m.setattr(model, name, getattr(model, name).__wrapped__)
            m.setattr(model, "_DEN_CACHE", {})
            unshared = tables()
            assert all(isinstance(key[0], tuple) for key in model._DEN_CACHE)
        assert shared == unshared
