import json

import pytest

from nurho import model
from nurho import syntax as S
from nurho.arenas import One
from nurho.cli import TermGen, _budget, _lam_hat, main
from nurho.model import denote, observable, sden
from nurho.nominal import NameList
from nurho.strategies import TensorOf, compose, identity, strategy_leq, unit_intro_left
from nurho.syntax import Arrow, TypecheckError, UNIT, infer, parse_term


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_pred_zero(self, capsys):
        code, out, _ = run(capsys, "--trace", "eval", "pred 0")
        assert code == 0
        assert "value" in out and "[PRD]" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "--json", "eval", "succ 2")
        data = json.loads(out)
        assert data["outcome"] == "value" and data["term"] == "3"

    def test_stop_cycles(self, capsys):
        code, out, _ = run(capsys, "--fuel", "50", "eval", "stop:N")
        assert code == 0 and "cycle" in out


class TestTypecheckCmd:
    def test_ok(self, capsys):
        code, out, _ = run(capsys, "typecheck", "lambda f. f skip ; stop")
        assert code == 0 and "->" in out

    def test_usage_error_on_syntax(self, capsys):
        code, _, err = run(capsys, "typecheck", "lambda ;;")
        assert code == 2

    def test_ill_typed(self, capsys):
        code, out, _ = run(capsys, "typecheck", "succ skip")
        assert code in (1, 2)


class TestDenoteCmd:
    def test_stop_table(self, capsys):
        code, out, _ = run(
            capsys, "--json", "--table-depth", "4", "denote", "stop:1"
        )
        data = json.loads(out)
        assert code == 0
        assert all(len(v["entries"]) <= 2 for v in data["views"])

    def test_zero_table(self, capsys):
        code, out, _ = run(capsys, "--table-depth", "4", "denote", "0")
        assert code == 0 and "viewfunction" in out


class TestCheckCmd:
    def test_diagram(self, capsys):
        code, out, _ = run(
            capsys, "--table-depth", "6", "check", "diagram", "NR-1",
            "--type", "N",
        )
        assert code == 0 and "commutes" in out

    def test_tidy(self, capsys):
        code, out, _ = run(
            capsys, "--table-depth", "6", "check", "tidy",
            "nu a:[N]. a := 1 ; !a",
        )
        assert code == 0 and "tidy" in out

    def test_strategy(self, capsys):
        code, out, _ = run(capsys, "check", "strategy", "0")
        assert code == 0 and "determinacy ok" in out

    def test_play_roundtrip(self, tmp_path, capsys):
        from nurho.arenas import Move, Names, One, STAR
        from nurho.nominal import Atom
        from nurho.plays import Board, Entry, Play, play_to_json_full
        from nurho.syntax import NAT

        a = Atom(NAT, 0)
        p = Play(
            Board(One(), Names((NAT,))),
            (
                Entry("s", Move((), STAR), None, ()),
                Entry("t", Move((), (a,)), 0, (a,)),
            ),
        )
        f = tmp_path / "play.json"
        f.write_text(json.dumps(play_to_json_full(p)))
        code, out, _ = run(capsys, "check", "play", str(f))
        assert code == 0 and "ok" in out


class TestMalformedPlay:
    """A play file of a shape the reader cannot use is an input error."""

    SHAPES = {
        "top-level-list": [],
        "entries-not-a-list": {"board": {"src": "1", "tgt": "1"}, "entries": 5},
        "entry-not-an-object": {"board": {"src": "1", "tgt": "1"}, "entries": ["x"]},
        "board-not-an-object": {"board": 5, "entries": []},
        "delta-not-a-list": {
            "board": {"src": "1", "tgt": "1"},
            "entries": [{"comp": "s", "move-path": [], "payload": "*",
                         "justifier": None, "delta": 5}],
        },
        "justifier-not-an-int": {
            "board": {"src": "1", "tgt": "1"},
            "entries": [{"comp": "s", "move-path": [], "payload": "*",
                         "justifier": None},
                        {"comp": "t", "move-path": [], "payload": "*",
                         "justifier": "0"}],
        },
        "comp-not-s-or-t": {
            "board": {"src": "1", "tgt": "1"},
            "entries": [{"comp": "x", "move-path": [], "payload": "*",
                         "justifier": None}],
        },
    }

    @pytest.fixture
    def files(self, tmp_path):
        out = {}
        for name, js in self.SHAPES.items():
            out[name] = tmp_path / f"{name}.json"
            out[name].write_text(json.dumps(js))
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"board": {"src": "1", "tgt": "1"}, "entries": []}))
        return out, good

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_check_play_exits_2(self, files, shape, capsys):
        bad, _ = files
        code, _, err = run(capsys, "check", "play", str(bad[shape]))
        assert code == 2 and "cannot load play" in err

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_compose_exits_2(self, files, shape, capsys):
        bad, good = files
        for argv in ((bad[shape], good), (good, bad[shape])):
            code, _, err = run(capsys, "compose", *map(str, argv))
            assert code == 2 and "cannot load plays" in err


def test_compose_refuses_an_illegal_play(tmp_path, capsys):
    """A left play over 1 -> 1 whose source move points at a target move is
    composable by the zipper alone; it is no play, so composition refuses
    it and `nurho compose` exits 1 with the verdict."""
    from nurho.arenas import Move, STAR
    from nurho.plays import (
        Board, Entry, NotComposable, Play, check_play, compose_plays, play_to_json_full,
    )

    bd = Board(One(), One())
    rows = [Entry("s", Move((), STAR), None), Entry("t", Move((), STAR), 0)]
    left, right = Play(bd, (*rows, Entry("s", Move((), STAR), 1))), Play(bd, tuple(rows))
    assert str(check_play(left, mode="unbracketed")) == "justification@2: cross-component pointer"
    assert check_play(right, mode="unbracketed").ok
    with pytest.raises(NotComposable, match="left play: cross-component pointer"):
        compose_plays(left, right)
    files = []
    for name, p in (("left", left), ("right", right)):
        files.append(tmp_path / f"{name}.json")
        files[-1].write_text(json.dumps(play_to_json_full(p)))
    code, out, _ = run(capsys, "compose", *map(str, files))
    assert code == 1 and "left play: cross-component pointer" in out
    code, out, _ = run(capsys, "--json", "compose", *map(str, files))
    assert code == 1 and json.loads(out)["composable"] is False
    code, _, _ = run(capsys, "compose", str(files[1]), str(files[1]))
    assert code == 0


class TestSynthCmd:
    def test_roundtrip(self, capsys):
        code, out, _ = run(capsys, "--table-depth", "6", "synth", "2")
        assert code == 0 and "table match" in out


class TestEquivCmd:
    def test_section_57_pair(self, capsys):
        code, out, _ = run(
            capsys,
            "--table-depth", "6", "--tests", "12", "--depth", "2",
            "equiv", "lambda f:(1->1). stop:1", "lambda f:(1->1). f skip ; stop:1",
        )
        assert code == 0
        assert "no distinguishing test" in out

    def test_distinguishable_pair(self, capsys):
        code, out, _ = run(
            capsys, "--table-depth", "6", "--tests", "10", "--depth", "2",
            "equiv", "0", "1",
        )
        # 0 and 1 are separated by the observation itself
        assert "table" in out or "distinguishing" in out

    @pytest.mark.parametrize("seed, code", [(104, 0), (1, 1)])
    def test_json_matches_asking_every_draw(self, capsys, monkeypatch, seed, code):
        """Each distinct test is asked once; the payload is the one a loop
        that asks every typed draw afresh gives, repeats included."""
        monkeypatch.setattr(model, "_DEN_CACHE", {})
        got, out, _ = run(capsys, "equiv", "0", "1", "--json", "--tests", "40",
                          "--seed", str(seed))
        monkeypatch.setattr(model, "_DEN_CACHE", {})
        want, draws = reference_equiv("0", "1", 40, seed)
        assert (got, json.loads(out)) == (code, want)
        assert len(set(draws)) < len(draws) == want["tests"]
        if code:
            tests = [s["test"] for s in want["separators"]]
            assert len(set(tests)) < len(tests)  # a repeated separator, listed twice


def reference_equiv(left, right, tests, seed, k=2, depth=8):
    """`nurho equiv --json`'s payload with every typed draw asked, and the draws."""
    m, ty = infer(parse_term(left))
    n, _ = infer(parse_term(right))
    bud = _budget(ty)
    dm, dn = denote(m, k=k), denote(n, k=k)
    arrow = Arrow(UNIT, ty)
    lm, ln = _lam_hat(dm, NameList(), arrow, k), _lam_hat(dn, NameList(), arrow, k)
    unit_fix = TensorOf(identity(One()), unit_intro_left(sden(arrow, k)))
    gen = TermGen(seed, ty)
    draws, separators = [], []
    for _ in range(tests):
        t = S.alpha_normal(gen.gen(2))
        try:
            S.typecheck(NameList(), [arrow], t)
        except TypecheckError:
            continue
        draws.append(t)
        rho = denote(t, NameList(), (arrow,), k)
        om = observable(compose(lm, unit_fix, rho))
        on = observable(compose(ln, unit_fix, rho))
        if om != on:
            separators.append({"test": str(t), "left-observable": om, "right-observable": on})
    return {
        "table-leq": strategy_leq(dm, dn, depth, bud),
        "table-geq": strategy_leq(dn, dm, depth, bud),
        "tests": len(draws),
        "separators": separators,
        "caveat": f"bounded evidence only: depth {depth}, {len(draws)} sampled tests",
    }, draws


class TestRepl:
    def test_scripted_session(self, capsys, monkeypatch):
        feeds = iter(["0", "q"])
        monkeypatch.setattr("builtins.input", lambda *_: next(feeds))
        code, out, _ = run(capsys, "repl-opponent", "0")
        assert code == 0
        assert "P:" in out and "P-view" in out
