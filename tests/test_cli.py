"""Session grammar, report records, and the bundled corpus."""

import json
import shutil
import time
from argparse import Namespace
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from cremona import rings
from cremona.cli import (MAX_VARIABLES, ScriptError, _cmd_fixtures,
                         corpus_dir, main, parse_session, render_report,
                         render_session, run_script)
from cremona.groebner import deadline
from cremona.ideals import Ideal
from cremona.rings import PolyRing, QQ
from cremona.symbolic import SymbolicFiltration

HEADER = "ring R = QQ[x0..x2];\n"
FIELD_KEYS = ["command", "status", "values", "degrees", "verdicts",
              "field", "elapsed_ms"]


def parse_err(source):
    with pytest.raises(ScriptError) as info:
        parse_session(source)
    return info.value


class TestParsing:
    def test_range_expansion(self):
        script = parse_session("ring S = QQ[x0..x4];")
        assert script.ring_name == "S"
        assert script.ring.names == ("x0", "x1", "x2", "x3", "x4")

    def test_name_list(self):
        script = parse_session("ring R = QQ[a, b, c];")
        assert script.ring.names == ("a", "b", "c")

    def test_prime_field(self):
        script = parse_session("ring R = Fp(31991)[x0..x2];")
        assert script.ring.field.characteristic == 31991
        assert script.ring.field.label == "Fp(31991)"

    def test_comments_skipped(self):
        script = parse_session("# leading note\n" + HEADER
                               + "ideal I = x0*x1; # trailing\n")
        assert "I" in script.bindings

    def test_comment_inside_command_left_out_of_text(self):
        script = parse_session(HEADER + "ideal I = x0*x1;\n"
                               "sympow I # level\n 2;")
        assert script.commands[0].text == "sympow I 2;"

    def test_comment_inside_ideal(self):
        script = parse_session(HEADER + "ideal I = x0 # note\n + x1, x2;")
        assert [str(g) for g in script.bindings["I"][1].gens] == \
            ["x0 + x1", "x2"]

    def test_comment_inside_matrix_entry(self):
        script = parse_session(HEADER + "matrix M[1][2] = x0 # entry\n"
                               " * x1, x2^2;")
        assert str(script.bindings["M"][1][0, 0]) == "x0*x1"

    def test_comment_inside_sat_polynomial(self):
        script = parse_session(HEADER + "ideal I = x0*x1;\n"
                               "sympow I 2 sat=x0 # element\n + x2;")
        cmd = script.commands[0]
        assert cmd.args["sat"] == script.ring.parse("x0 + x2")
        assert cmd.text == "sympow I 2 sat=x0 + x2;"

    def test_session_tokenized_and_parsed_once(self, monkeypatch):
        calls = []
        tokenize = rings._tokenize
        monkeypatch.setattr(rings, "_tokenize",
                            lambda text: calls.append(text) or tokenize(text))
        source = (HEADER + "ideal I = x1*x2, x0*x2, x0*x1;\n"
                  "ideal J = x0, x1;\nsympow I 2 sat=x0 + x1 + x2;\n"
                  "sympow I 2 sat=J;\nsympow I 2 sat=m;\n")
        script = parse_session(source)
        assert calls == [source]
        assert [c.args["sat"] for c in script.commands] == \
            [script.ring.parse("x0 + x1 + x2"), "J", "m"]

        def no_parse(self, text):
            raise AssertionError("parsed again: %r" % text)

        monkeypatch.setattr(PolyRing, "parse", no_parse)
        records = run_script(script)
        assert [rec["status"] for rec in records] == ["ok"] * 3

    def test_matrix_rows(self):
        script = parse_session(
            HEADER + "matrix M[2][2] = x0, x1, x1, x2;")
        kind, mat = script.bindings["M"]
        assert kind == "matrix"
        assert mat.nrows == 2 and str(mat[1, 0]) == "x1"


class TestDiagnostics:
    def test_empty_ideal_points_at_semicolon(self):
        e = parse_err(HEADER + "ideal I = ;")
        assert e.line == 2 and e.col == 11
        assert "';'" in str(e)
        assert str(e).startswith("line 2, column 11:")

    def test_unbound_name(self):
        e = parse_err(HEADER + "inverse J;")
        assert "unbound name 'J'" in str(e)

    def test_kind_mismatch(self):
        e = parse_err(HEADER + "ideal I = x0*x1;\nappendix I;")
        assert "needs" in str(e) and "matrix" in str(e)

    def test_matrix_arity(self):
        e = parse_err(HEADER + "matrix M[2][2] = x0, x1, x2;")
        assert "declared 2x2 but 3 entries" in str(e)

    def test_bad_polynomial_positioned(self):
        e = parse_err(HEADER + "ideal I = x0 +;")
        assert e.line == 2

    def test_exponent_out_of_range_positioned(self):
        e = parse_err(HEADER + "ideal I = x1, x0^8388608;")
        assert (e.line, e.col) == (2, 15)
        assert "exceeds the limit" in str(e)

    def test_power_past_the_limit_positioned(self):
        # rejected before any squaring, so well inside the deadline
        with deadline(1.0):
            e = parse_err(HEADER + "ideal I = x1,\n  (x0^2+1)^8388607;")
        assert (e.line, e.col) == (3, 3)
        assert "total degree 16777214 exceeds the limit" in str(e)

    def test_zero_denominator_positioned(self):
        e = parse_err(HEADER + "ideal I = x1, x0 + 1/0;")
        assert (e.line, e.col) == (2, 15)
        assert "zero denominator" in str(e)

    def test_unbalanced_parenthesis_at_polynomial(self):
        e = parse_err(HEADER + "ideal I = x0*(x1;\ninverse I;")
        assert (e.line, e.col) == (2, 11)
        assert "expected ')'" in str(e)

    def test_unterminated_polynomial_at_end(self):
        e = parse_err(HEADER + "ideal I = x0 + y9")
        assert (e.line, e.col) == (2, 18)
        assert "missing ';'" in str(e)

    def test_unknown_statement(self):
        e = parse_err(HEADER + "frobnicate I;")
        assert "unknown statement" in str(e)

    def test_second_ring_rejected(self):
        e = parse_err(HEADER + "ring S = QQ[y0..y1];")
        assert "already declared" in str(e)

    def test_unknown_field(self):
        e = parse_err("ring R = ZZ[x0..x2];")
        assert "QQ or Fp" in str(e)

    def test_composite_characteristic(self):
        e = parse_err("ring R = Fp(6)[x0..x2];")
        assert e.line == 1

    def test_characteristic_zero_prime_field(self):
        e = parse_err("ring R = Fp(0)[x0..x2];")
        assert (e.line, e.col) == (1, 10)
        assert "not 0" in str(e)

    def test_empty_range(self):
        e = parse_err("ring R = QQ[x4..x0];")
        assert "empty variable range" in str(e)

    def test_duplicate_variables_at_ring_name(self):
        e = parse_err("ring R = QQ[a, a];")
        assert (e.line, e.col) == (1, 6)
        assert "distinct" in str(e)

    def test_inhomogeneous_matrix_entry_at_equals(self):
        e = parse_err(HEADER + "matrix M[1][1] = x0+1;")
        assert (e.line, e.col) == (2, 16)
        assert "homogeneous" in str(e)

    def test_oversized_ring(self):
        e = parse_err("ring R = QQ[x0..x%d];" % MAX_VARIABLES)
        assert (e.line, e.col) == (1, 13)
        assert "exceed the limit" in str(e)
        names = ", ".join("x%d" % k for k in range(MAX_VARIABLES + 1))
        e = parse_err("ring R = QQ[%s];" % names)
        assert (e.line, e.col) == (1, 13)
        assert len(parse_session("ring R = QQ[x1..x%d];" % MAX_VARIABLES)
                   .ring.names) == MAX_VARIABLES

    def test_overlong_number(self):
        e = parse_err(HEADER + "ideal I = %s*x0;" % ("1" * 5000))
        assert (e.line, e.col) == (2, 11)
        assert "exceeds the limit" in str(e)

    def test_taken_binding_names_rejected(self):
        e = parse_err(HEADER + "ideal I = x0;\ninverse I;\n"
                      "matrix I[1][1] = x1;")
        assert (e.line, e.col) == (4, 8)
        assert "already taken" in str(e)
        for name in ("x1", "m"):
            e = parse_err(HEADER + "ideal %s = x0;" % name)
            assert (e.line, e.col) == (2, 7)

    def test_unknown_option(self):
        e = parse_err(HEADER + "ideal I = x0*x1;\nsympow I 2 fast=1;")
        assert "unknown option" in str(e)

    def test_sat_matrix_rejected(self):
        e = parse_err(HEADER + "ideal I = x0*x1;\n"
                      "matrix M[2][1] = x0, x1;\nsympow I 2 sat=M;")
        assert "names a matrix" in str(e)


# pieces of session text, well formed and not, for the grammar fuzz
RINGS = ("ring R = QQ[x0..x2];", "ring R = Fp(31991)[x0..x2];",
         "ring R = QQ[a, b, c];", "ring R = QQ[a, a];", "ring R = Fp(6)[x0];",
         "ring R = ZZ[x0];", "ring R = QQ[x2..x0];", "ring R = QQ[x0..y2];",
         "ring R = QQ[x0..x1000];", "ring R = Fp(0)[x01, x02];")
POLYS = ("x0", "x1*x2", "x0^2-x1*x2", "2*x0+x1", "1/2*x0", "x0+1", "a*b",
         "(x0+x1)^2", "-x2", "0", "1", "x0^8388608", "x0 +", "q", "x0*(x1",
         "x0 # note\n + x1", "1" * 4301)
NAMES = ("I", "J", "M", "m", "x0")
OPTIONS = ("", " sat=m", " sat=J", " sat=M", " sat=x0+x1", " sat=x0 + 1",
           " sat=", " lmax=2", " seed=3", " sat=x0 lmax=2", " fast=1")
SEPARATORS = (" ", "\n", "\n# note\n", "  \n  ", "")


@st.composite
def statements(draw):
    name = draw(st.sampled_from(NAMES))
    polys = ", ".join(draw(st.lists(st.sampled_from(POLYS), min_size=1,
                                    max_size=4)))
    small = st.integers(0, 3)
    options = draw(st.sampled_from(OPTIONS))
    return draw(st.sampled_from((
        "ideal %s = %s;" % (name, polys),
        "matrix %s[%d][%d] = %s;" % (name, draw(small), draw(small), polys),
        "inverse %s;" % name, "invfactor %s;" % name,
        "appendix %s;" % name,
        "sympow %s %d%s;" % (name, draw(small), options),
        "symrees %s%s;" % (name, options),
        "template %d %d%s;" % (draw(small), draw(small), options),
        "frobnicate;", "ring S = QQ[y];", "$", "ideal I = ;")))


@st.composite
def sessions(draw):
    parts = [draw(st.sampled_from(RINGS))]
    parts += draw(st.lists(statements(), max_size=6))
    text = ""
    for part in parts:
        text += part + draw(st.sampled_from(SEPARATORS))
    # a few blind edits: cut a slice or splice in a piece of punctuation
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + text[at + draw(st.integers(1, 4)):]
        else:
            piece = draw(st.sampled_from(
                (";", ",", "=", "(", ")", "..", "[", "]", " ", "#")))
            text = text[:at] + piece + text[at:]
    return text


class TestGrammarFuzz:
    @given(sessions())
    @settings(max_examples=300, deadline=None)
    def test_parses_and_round_trips_or_is_positioned(self, source):
        try:
            with deadline(5):
                script = parse_session(source)
        except ScriptError as e:
            assert e.line >= 1 and e.col >= 1
            return
        rendered = render_session(script)
        again = parse_session(rendered)
        assert again.ring == script.ring
        assert again.ring_name == script.ring_name
        assert list(again.bindings) == list(script.bindings)
        for name, (kind, value) in script.bindings.items():
            assert again.bindings[name][0] == kind
            assert again.bindings[name][1] == value
        assert [(c.op, c.text) for c in again.commands] == \
            [(c.op, c.text) for c in script.commands]
        assert render_session(again) == rendered


class TestRoundTrip:
    def test_zero_ideal(self):
        # the zero ideal keeps no generator; its text must parse back
        rendered = render_session(parse_session(HEADER + "ideal I = 0;"))
        assert rendered == HEADER + "ideal I = 0;\n"
        assert not parse_session(rendered).bindings["I"][1].gens

    def test_polar_session(self):
        src = corpus_dir().joinpath("polar-quartic.session") \
                          .read_text(encoding="utf-8")
        s1 = parse_session(src)
        rendered = render_session(s1)
        s2 = parse_session(rendered)
        assert s2.ring.names == s1.ring.names
        assert s2.ring.field.label == s1.ring.field.label
        assert list(s2.bindings) == list(s1.bindings)
        for name in s1.bindings:
            assert s1.bindings[name][0] == s2.bindings[name][0]
            assert s1.bindings[name][1] == s2.bindings[name][1]
        assert [(c.op, c.args) for c in s2.commands] == \
            [(c.op, c.args) for c in s1.commands]
        assert render_session(s2) == rendered


class TestRunScript:
    SOURCE = (HEADER
              + "ideal I = x1*x2, x0*x2, x0*x1;\n"
              + "inverse I;\nsympow I 2;\n")

    def test_record_shape(self):
        records = run_script(parse_session(self.SOURCE))
        assert [rec["status"] for rec in records] == ["ok", "ok"]
        for rec in records:
            assert list(rec) == FIELD_KEYS
            assert rec["field"] == "QQ"
            assert isinstance(rec["elapsed_ms"], int)

    def test_inverse_record(self):
        records = run_script(parse_session(self.SOURCE))
        assert records[0]["values"] == ["y1*y2", "y0*y2", "y0*y1"]
        assert records[0]["degrees"] == [2]
        assert records[0]["verdicts"]["birational"] is True

    def test_deterministic_modulo_elapsed(self):
        r1 = run_script(parse_session(self.SOURCE))
        r2 = run_script(parse_session(self.SOURCE))
        strip = lambda rs: [{k: v for k, v in rec.items()
                             if k != "elapsed_ms"} for rec in rs]
        assert render_report(strip(r1)) == render_report(strip(r2))

    def test_failure_does_not_abort(self):
        src = (HEADER + "ideal I = x0^2, x1^2, x2^2;\n"
               + "invfactor I;\nsympow I 1;\n")
        records = run_script(parse_session(src))
        assert [rec["status"] for rec in records] == ["failed", "ok"]
        assert "error" in records[0]["verdicts"]

    def test_non_birational_inverse_is_ok_record(self):
        src = HEADER + "ideal I = x0^2, x1^2, x2^2;\ninverse I;\n"
        records = run_script(parse_session(src))
        assert records[0]["status"] == "ok"
        assert records[0]["verdicts"] == {"birational": False}

    def test_timeout_status(self):
        src = (HEADER + "ideal I = x1*x2, x0*x2, x0*x1;\nsymrees I;\n")
        records = run_script(parse_session(src), deadline_s=1e-6)
        assert records[0]["status"] == "timeout"

    def test_template_redraws_on_standing_assumption(self):
        # seed 236476 draws a linear part whose 2-minors are not
        # irrelevant-primary; the command redraws instead of failing
        src = HEADER + "template 3 1 seed=236476;\n"
        rec = run_script(parse_session(src))[0]
        assert rec["status"] == "ok"
        rejected = rec["verdicts"]["rejected"]
        assert [r["seed"] for r in rejected] == [236476]
        assert "standing assumption" in rejected[0]["reason"]

    def test_symrees_record(self):
        src = self.SOURCE.replace("sympow I 2;", "symrees I lmax=2;")
        rec = run_script(parse_session(src))[1]
        assert rec["values"] == ["x0*x1*x2"]
        assert rec["degrees"] == {"fresh": {"1": [], "2": [3]}}
        assert list(rec["verdicts"]) == [
            "birational", "condition", "inverse_degree", "expected_form",
            "factor_in_symbolic"]
        assert rec["verdicts"]["factor_in_symbolic"] is True
        assert rec["verdicts"]["expected_form"] == {"1": True, "2": True}

    def test_symrees_non_birational_record(self):
        src = HEADER + "ideal I = x0^2, x1^2, x2^2;\nsymrees I lmax=2;\n"
        rec = run_script(parse_session(src))[0]
        assert rec["status"] == "ok"
        assert rec["values"] == []
        # the ideal is m-primary, so every level saturates to the unit ideal
        assert rec["degrees"] == {"fresh": {"1": [0], "2": [0]}}
        assert rec["verdicts"] == {
            "birational": False,
            "condition": {"1": "PRIMARY", "2": "PRIMARY"}}

    def test_symrees_reuses_the_sympow_filtration(self, monkeypatch):
        counts = {"filtrations": 0, "saturations": 0}
        init, saturate = SymbolicFiltration.__init__, Ideal.saturate

        def counted_init(self, *args):
            counts["filtrations"] += 1
            init(self, *args)

        def counted_saturate(self, *args):
            counts["saturations"] += 1
            return saturate(self, *args)

        monkeypatch.setattr(SymbolicFiltration, "__init__", counted_init)
        monkeypatch.setattr(Ideal, "saturate", counted_saturate)
        src = self.SOURCE.replace("inverse I;\n", "") + "symrees I lmax=2;\n"
        records = run_script(parse_session(src))
        assert [rec["status"] for rec in records] == ["ok", "ok"]
        assert counts == {"filtrations": 1, "saturations": 2}

    def test_report_is_jsonl(self):
        records = run_script(parse_session(self.SOURCE))
        lines = render_report(records).splitlines()
        assert len(lines) == 2
        for line in lines:
            assert list(json.loads(line)) == FIELD_KEYS


class TestFixtures:
    ARGS = Namespace(lmax=4, deadline=600.0, seed=0)

    def test_bundled_corpus_matches(self):
        assert _cmd_fixtures(self.ARGS) == 0

    def test_mismatch_flagged(self, tmp_path):
        base = corpus_dir()
        for p in base.iterdir():
            if p.name.startswith("standard-quadratic"):
                shutil.copy(str(p), tmp_path / p.name)
        exp = tmp_path / "standard-quadratic.expected.jsonl"
        doctored = exp.read_text().replace("x0*x1*x2", "x0^3")
        exp.write_text(doctored)
        assert _cmd_fixtures(self.ARGS, base=tmp_path) == 1

    def test_missing_expected_flagged(self, tmp_path):
        src = corpus_dir().joinpath("standard-quadratic.session")
        shutil.copy(str(src), tmp_path / src.name)
        assert _cmd_fixtures(self.ARGS, base=tmp_path) == 1


class TestMain:
    def test_run_writes_report(self, tmp_path):
        script = tmp_path / "s.session"
        script.write_text(TestRunScript.SOURCE, encoding="utf-8")
        out = tmp_path / "report.jsonl"
        assert main(["run", str(script), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["status"] == "ok"

    def test_run_parse_error_exit_two(self, tmp_path, capsys):
        script = tmp_path / "bad.session"
        script.write_text(HEADER + "ideal I = ;", encoding="utf-8")
        assert main(["run", str(script)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_parse_runs_under_deadline(self, tmp_path, capsys):
        # squaring (x0+x1+x2)^64 alone takes tens of seconds
        script = tmp_path / "big.session"
        script.write_text(HEADER + "ideal I = x0,\n  (x0+x1+x2)^200;\n",
                          encoding="utf-8")
        t0 = time.monotonic()
        assert main(["run", str(script), "--deadline", "0.5"]) == 2
        assert time.monotonic() - t0 < 10
        err = capsys.readouterr().err
        assert "line 3, column 3" in err and "time budget" in err

    def test_long_sum_parses_under_deadline(self, tmp_path, capsys):
        # the expanded 24th power has 20475 terms: its sum is read in
        # linear time, in well under a second, and the parser checks the
        # deadline every 256 terms
        R = PolyRing(("x0", "x1", "x2", "x3"), QQ)
        text = str(R.parse("(x0 + 2*x1 + 3*x2 + 5*x3 + 7)^24"))
        script = tmp_path / "long.session"
        script.write_text("ring R = QQ[x0..x3];\nideal I = x0,\n  %s;\n"
                          % text, encoding="utf-8")
        assert main(["run", str(script), "--deadline", "0.05"]) == 2
        err = capsys.readouterr().err
        assert "line 3, column 3" in err and "time budget" in err
        t0 = time.monotonic()
        assert main(["run", str(script), "--deadline", "30"]) == 0
        assert time.monotonic() - t0 < 10

    def test_power_past_the_limit_exit_two(self, tmp_path, capsys):
        script = tmp_path / "pow.session"
        script.write_text(HEADER + "ideal I = x1,\n  (x0^2+1)^8388607;\n",
                          encoding="utf-8")
        assert main(["run", str(script), "--deadline", "1"]) == 2
        err = capsys.readouterr().err
        assert "line 3, column 3" in err and "exceeds the limit" in err

    def test_number_power_past_the_limit_exit_two(self, tmp_path, capsys):
        # 12345^1000000 has 4.1 million digits: it is rejected before any
        # multiplication, which the deadline could not interrupt
        script = tmp_path / "numpow.session"
        script.write_text(HEADER + "ideal I = x1,\n  12345^1000000*x1;\n",
                          encoding="utf-8")
        t0 = time.monotonic()
        assert main(["run", str(script), "--deadline", "1"]) == 2
        assert time.monotonic() - t0 < 1
        err = capsys.readouterr().err
        assert "line 3, column 3" in err and "more than 4300 digits" in err

    @pytest.mark.parametrize("source", [
        "ring R = QQ[a, a];\n",
        HEADER + "matrix M[1][1] = x0+1;\n",
        "ring R = QQ[x0..x16000];\n",
        "ring R = Fp(0)[x0..x2];\n",
    ])
    def test_hostile_input_exit_two(self, tmp_path, capsys, source):
        script = tmp_path / "bad.session"
        script.write_text(source, encoding="utf-8")
        assert main(["run", str(script)]) == 2
        assert "column" in capsys.readouterr().err

    def test_run_failure_exit_one(self, tmp_path):
        script = tmp_path / "f.session"
        script.write_text(HEADER + "ideal I = x0^2, x1^2, x2^2;\n"
                          "invfactor I;\n", encoding="utf-8")
        assert main(["run", str(script), "--out",
                     str(tmp_path / "r.jsonl")]) == 1
