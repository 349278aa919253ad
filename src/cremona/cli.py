"""Batch front end: run analysis scripts and emit line-delimited reports.

A session script declares one ring, binds ideals and matrices, and runs
commands against the bindings::

    ring R = QQ[x0..x2];
    ideal I = x1*x2, x0*x2, x0*x1;
    inverse I;
    invfactor I;
    sympow I 2;
    symrees I lmax=3;

Supported commands: ``inverse I``, ``invfactor I``, ``sympow I <level>
[sat=<m|ideal-name|element>]``, ``symrees I [lmax=N] [sat=...]``,
``appendix M`` and ``template n r [seed=N]``.  Each command produces one
JSON record with keys ``command``, ``status``, ``values``, ``degrees``,
``verdicts``, ``field`` and ``elapsed_ms``; reports are deterministic
for a fixed script, seed and field, apart from ``elapsed_ms``.

The script is tokenized once, by the tokenizer of ``rings``: whitespace
and ``#`` comments may stand between any two tokens, inside polynomials
too.  Each polynomial is read in place from that token stream by the
expression parser of ``PolyRing.parse`` and ends at its first ``,``,
``;`` or option ``key=`` outside parentheses; a ``sat=`` value is read
once, into ``"m"``, an ideal's name or a polynomial.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from importlib import resources

from .families import (DegenerateTemplate, appendix_construct,
                       sylvester_chain, template_ideal)
from .groebner import DeadlineExceeded, deadline
from .ideals import Ideal
from .maps import RationalMapSpec, invert
from .rings import (Field, FormMatrix, ParseError, PolyRing, QQ, _Cursor,
                    _parse_expr)
from .symbolic import (SaturationTarget, SymbolicFiltration, condition_i,
                       expected_form_check)

__all__ = ["ScriptError", "SessionScript", "parse_session", "run_script",
           "render_report", "main"]

_COMMANDS = ("inverse", "invfactor", "sympow", "symrees", "appendix",
             "template")

# PackedOrder's set-up cost grows with the square of the variable count,
# so rings are capped far above any study case
MAX_VARIABLES = 1000


class ScriptError(Exception):
    """Script problem with a source position."""

    def __init__(self, message, line, col):
        super().__init__("line %d, column %d: %s" % (line, col, message))
        self.line = line
        self.col = col


class Command:
    """One parsed command, with its source text and position."""

    __slots__ = ("op", "args", "text", "line", "col")

    def __init__(self, op, args, text, line, col):
        self.op = op
        self.args = args
        self.text = text
        self.line = line
        self.col = col


class SessionScript:
    """Parsed session: the ring, the bindings and the command list."""

    __slots__ = ("ring", "ring_name", "bindings", "commands")

    def __init__(self, ring, ring_name, bindings, commands):
        self.ring = ring
        self.ring_name = ring_name
        self.bindings = bindings
        self.commands = commands


def _check_size(count, tok):
    if count > MAX_VARIABLES:
        raise ScriptError("%d variables exceed the limit %d"
                          % (count, MAX_VARIABLES), tok.line, tok.col)


def _expand_names(first, last):
    m1 = re.fullmatch(r"([A-Za-z_]+)(\d+)", first.text)
    m2 = re.fullmatch(r"([A-Za-z_]+)(\d+)", last.text)
    if not m1 or not m2 or m1.group(1) != m2.group(1):
        raise ScriptError("range endpoints %r..%r need a shared letter "
                          "prefix and numeric suffixes"
                          % (first.text, last.text), first.line, first.col)
    prefix = m1.group(1)
    lo, hi = int(m1.group(2)), int(m2.group(2))
    if hi < lo:
        raise ScriptError("empty variable range %r..%r"
                          % (first.text, last.text), first.line, first.col)
    _check_size(hi - lo + 1, first)
    return tuple("%s%d" % (prefix, k) for k in range(lo, hi + 1))


def _parse_ring(cur):
    cur.expect("ring")
    name_tok = cur.expect_kind("name", "a ring name")
    cur.expect("=")
    field_tok = cur.expect_kind("name", "QQ or Fp(p)")
    if field_tok.text == "QQ":
        field = QQ
    elif field_tok.text == "Fp":
        cur.expect("(")
        p = int(cur.expect_kind("number", "a prime").text)
        cur.expect(")")
        if not p:
            # Field(0) would be the rationals
            raise ScriptError("Fp needs a prime, not 0 (write QQ for the "
                              "rationals)", field_tok.line, field_tok.col)
        try:
            field = Field(p)
        except ValueError as e:
            raise ScriptError(str(e), field_tok.line, field_tok.col)
    else:
        raise ScriptError("unknown field %r (use QQ or Fp(p))"
                          % field_tok.text, field_tok.line, field_tok.col)
    cur.expect("[")
    first = cur.expect_kind("name", "a variable name")
    if cur.peek().text == "..":
        cur.next()
        last = cur.expect_kind("name", "a variable name")
        names = _expand_names(first, last)
    else:
        names = [first.text]
        while cur.peek().text == ",":
            cur.next()
            names.append(cur.expect_kind("name", "a variable name").text)
            _check_size(len(names), first)
    cur.expect("]")
    cur.expect(";")
    try:
        return PolyRing(names, field), name_tok.text
    except ValueError as e:
        raise ScriptError(str(e), name_tok.line, name_tok.col) from None


def _parse_poly(cur, ring, stop):
    """The polynomial at cur, which must end at ';' or where stop(cur)
    holds.  A fault is reported at its first token, or at the end of the
    script when no ';' follows: then the statement is unterminated."""
    first = cur.i
    tok = cur.peek()
    if tok.text == ";" or stop(cur):
        raise ScriptError("expected a polynomial, found %r" % tok.text,
                          tok.line, tok.col)
    try:
        poly = _parse_expr(ring, cur)
        after = cur.peek()
        if after.text != ";" and not stop(cur):
            raise ParseError("trailing input from %r" % after.text,
                             after.line, after.col)
        return poly
    except ParseError as e:
        if all(t.text != ";" for t in cur.tokens[first:]):
            end = cur.tokens[-1]
            raise ScriptError("missing ';'", end.line, end.col) from None
        raise ScriptError("bad polynomial: %s" % e, tok.line, tok.col) \
            from None
    except DeadlineExceeded:
        raise ScriptError("polynomial ran past the time budget while "
                          "parsing", tok.line, tok.col) from None


def _parse_poly_list(cur, ring):
    polys = []
    while True:
        polys.append(_parse_poly(cur, ring, lambda c: c.peek().text == ","))
        if cur.next().text == ";":
            return polys


def _lookup(bindings, name_tok, want, op):
    if name_tok.text not in bindings:
        raise ScriptError("unbound name %r" % name_tok.text,
                          name_tok.line, name_tok.col)
    kind, value = bindings[name_tok.text]
    if kind != want:
        raise ScriptError("%s needs %s binding, %r is %s"
                          % (op, "an ideal" if want == "ideal"
                             else "a matrix", name_tok.text,
                             "an ideal" if kind == "ideal" else "a matrix"),
                          name_tok.line, name_tok.col)
    return value


def _at_option(cur, ahead=0):
    """Whether the token ahead places past cur is an option key, a name
    before '='; with ahead 1, cur must not be on the end token."""
    tokens, i = cur.tokens, cur.i + ahead
    return tokens[i].kind == "name" and tokens[i + 1].text == "="


def _parse_sat(cur, ring, bindings):
    """The value of sat=: "m", the name of an ideal, or a polynomial."""
    tok = cur.peek()
    if tok.text == ";" or _at_option(cur):
        raise ScriptError("sat= needs a value", tok.line, tok.col)
    if tok.kind == "name" and (tok.text == "m" or tok.text in bindings):
        after = cur.tokens[cur.i + 1]
        if after.text == ";" or after.kind == "end" or _at_option(cur, 1):
            if tok.text != "m" and bindings[tok.text][0] != "ideal":
                raise ScriptError("sat=%s names a matrix, not an ideal"
                                  % tok.text, tok.line, tok.col)
            return cur.next().text
    return _parse_poly(cur, ring, _at_option)


def _parse_options(cur, allowed, ring, bindings):
    """key=value options before ';': integers, and the value of sat=."""
    opts = {}
    while cur.peek().text != ";":
        key_tok = cur.expect_kind("name", "an option name")
        if key_tok.text not in allowed:
            raise ScriptError("unknown option %r (allowed: %s)"
                              % (key_tok.text, ", ".join(sorted(allowed))),
                              key_tok.line, key_tok.col)
        if key_tok.text in opts:
            raise ScriptError("duplicate option %r" % key_tok.text,
                              key_tok.line, key_tok.col)
        cur.expect("=")
        if key_tok.text == "sat":
            opts["sat"] = _parse_sat(cur, ring, bindings)
        else:
            opts[key_tok.text] = int(cur.expect_kind("number",
                                                     "an integer").text)
    cur.expect(";")
    return opts


def _parse_statement(cur, ring, bindings, commands):
    """One binding or command at cur, added to bindings or commands."""
    tok = cur.peek()
    if tok.kind != "name":
        raise ScriptError("expected a statement, found %r" % tok.text,
                          tok.line, tok.col)
    if tok.text == "ring":
        raise ScriptError("ring already declared", tok.line, tok.col)
    if tok.text in ("ideal", "matrix"):
        cur.next()
        name_tok = cur.expect_kind("name", "an ideal name"
                                   if tok.text == "ideal"
                                   else "a matrix name")
        name = name_tok.text
        # commands read the bindings when they run, so a name bound
        # twice would change what an earlier command computes; a
        # variable or m as a binding name would make sat= ambiguous
        if name in bindings or name in ring.names or name == "m":
            raise ScriptError("name %r is already taken" % name,
                              name_tok.line, name_tok.col)
    if tok.text == "ideal":
        cur.expect("=")
        polys = _parse_poly_list(cur, ring)
        bindings[name] = ("ideal", Ideal(ring, tuple(polys)))
        return
    if tok.text == "matrix":
        cur.expect("[")
        nrows = int(cur.expect_kind("number", "a row count").text)
        cur.expect("]")
        cur.expect("[")
        ncols = int(cur.expect_kind("number", "a column count").text)
        cur.expect("]")
        eq = cur.expect("=")
        entries = _parse_poly_list(cur, ring)
        if len(entries) != nrows * ncols:
            raise ScriptError("matrix %s declared %dx%d but %d entries "
                              "given" % (name, nrows, ncols, len(entries)),
                              eq.line, eq.col)
        rows = [entries[r * ncols:(r + 1) * ncols] for r in range(nrows)]
        try:
            bindings[name] = ("matrix", FormMatrix(ring, rows))
        except ValueError as e:
            raise ScriptError("matrix %s: %s" % (name, e),
                              eq.line, eq.col) from None
        return
    if tok.text not in _COMMANDS:
        raise ScriptError("unknown statement %r" % tok.text,
                          tok.line, tok.col)

    first = cur.i
    op_tok = cur.next()
    op = op_tok.text
    args = {}
    if op in ("inverse", "invfactor", "appendix"):
        name_tok = cur.expect_kind("name", "a binding name")
        want = "matrix" if op == "appendix" else "ideal"
        _lookup(bindings, name_tok, want, op)
        args["name"] = name_tok.text
        cur.expect(";")
    elif op in ("sympow", "symrees"):
        name_tok = cur.expect_kind("name", "an ideal name")
        _lookup(bindings, name_tok, "ideal", op)
        args["name"] = name_tok.text
        if op == "sympow":
            args["level"] = int(cur.expect_kind("number", "a level").text)
        args.update(_parse_options(
            cur, {"sat"} if op == "sympow" else {"lmax", "sat"}, ring,
            bindings))
    else:
        args["n"] = int(cur.expect_kind("number", "a size").text)
        args["r"] = int(cur.expect_kind("number", "a degree").text)
        args.update(_parse_options(cur, {"seed"}, ring, bindings))
    # the tokens with one space wherever whitespace or a comment was
    span = cur.tokens[first:cur.i]
    text = op_tok.text + "".join(
        (" " if b.start > a.end else "") + b.text
        for a, b in zip(span, span[1:]))
    commands.append(Command(op, args, text, op_tok.line, op_tok.col))


def parse_session(source):
    """Parse a session script; raise ScriptError with line/column on bad input."""
    try:
        cur = _Cursor(source)
        ring, ring_name = _parse_ring(cur)
        bindings = {}
        commands = []
        while cur.peek().kind != "end":
            _parse_statement(cur, ring, bindings, commands)
    except ParseError as e:
        raise ScriptError(str(e), e.line, e.col) from None
    return SessionScript(ring, ring_name, bindings, commands)


def _range_text(names):
    m = re.fullmatch(r"([A-Za-z_]+)(\d+)", names[0])
    if m and len(names) > 1:
        prefix, lo = m.group(1), int(m.group(2))
        want = tuple("%s%d" % (prefix, lo + k) for k in range(len(names)))
        if tuple(names) == want:
            return "%s..%s" % (names[0], names[-1])
    return ", ".join(names)


def render_session(script):
    """Canonical source text; parsing it back restores the same ring,
    bindings, and command list."""
    field = script.ring.field
    ftxt = ("QQ" if field.characteristic == 0
            else "Fp(%d)" % field.characteristic)
    lines = ["ring %s = %s[%s];" % (script.ring_name, ftxt,
                                    _range_text(script.ring.names))]
    for name, (kind, value) in script.bindings.items():
        if kind == "ideal":
            # the zero ideal keeps no generator and is written as 0
            lines.append("ideal %s = %s;" % (name, ", ".join(
                str(g) for g in value.gens) or "0"))
        else:
            ents = ", ".join(str(value[i, j])
                             for i in range(value.nrows)
                             for j in range(value.ncols))
            lines.append("matrix %s[%d][%d] = %s;"
                         % (name, value.nrows, value.ncols, ents))
    for cmd in script.commands:
        lines.append(cmd.text)
    return "\n".join(lines) + "\n"


def _target_for(script, sat):
    if sat is None or sat == "m":
        return None, "m"
    if isinstance(sat, str):
        return (SaturationTarget.ideal(script.bindings[sat][1]),
                "ideal:" + sat)
    return SaturationTarget.element(sat), "elem:" + str(sat)


def _filtration(script, name, sat, cache):
    target, key = _target_for(script, sat)
    full = ("filtration", name, key)
    if full not in cache:
        ideal = script.bindings[name][1]
        cache[full] = SymbolicFiltration(ideal, target)
    return cache[full]


def _inverse_of(script, name, cache):
    key = ("invert", name)
    if key not in cache:
        ideal = script.bindings[name][1]
        cache[key] = invert(RationalMapSpec.from_ideal(ideal))
    return cache[key]


def _exec_inverse(script, cmd, cache, limits):
    inv = _inverse_of(script, cmd.args["name"], cache)
    if inv is None:
        return [], [], {"birational": False}
    return ([str(g) for g in inv.inverse], [inv.degree],
            {"birational": True})


def _exec_invfactor(script, cmd, cache, limits):
    inv = _inverse_of(script, cmd.args["name"], cache)
    if inv is None:
        raise ValueError("map is not birational, no inversion factor")
    return ([str(inv.factor)], [inv.factor.homogeneous_degree()],
            {"birational": True, "inverse_degree": inv.degree})


def _exec_sympow(script, cmd, cache, limits):
    F = _filtration(script, cmd.args["name"], cmd.args.get("sat"), cache)
    ell = cmd.args["level"]
    fresh = F.fresh(ell)
    equals = F.power(ell).contains_ideal(F.level(ell))
    return ([str(g) for g in fresh],
            [g.homogeneous_degree() for g in fresh],
            {"equals_power": equals})


def _exec_symrees(script, cmd, cache, limits):
    lmax = cmd.args.get("lmax", limits["lmax"])
    ideal = script.bindings[cmd.args["name"]][1]
    F = _filtration(script, cmd.args["name"], cmd.args.get("sat"), cache)
    inv = _inverse_of(script, cmd.args["name"], cache)
    degrees = {"fresh": {str(ell): [g.homogeneous_degree()
                                    for g in F.fresh(ell)]
                         for ell in range(1, lmax + 1)}}
    verdicts = {
        "birational": inv is not None,
        "condition": {str(v.level): (v.verdict if v.witness is None
                                     else "%s:%s" % (v.verdict, v.witness))
                      for v in condition_i(ideal, lmax, filtration=F)},
    }
    if inv is None:
        return [], degrees, verdicts
    expected = expected_form_check(ideal, inv.factor, inv.degree, lmax,
                                   filtration=F)
    verdicts["inverse_degree"] = inv.degree
    verdicts["expected_form"] = {str(ell): expected.levels[ell]
                                 for ell in sorted(expected.levels)}
    verdicts["factor_in_symbolic"] = expected.precondition
    return [str(inv.factor)], degrees, verdicts


def _exec_appendix(script, cmd, cache, limits):
    mat = script.bindings[cmd.args["name"]][1]
    res = appendix_construct(mat)
    values = ([str(g) for g in res.inverse]
              if res.inverse is not None else [])
    degrees = ([res.verdicts["inverse_degree"]]
               if res.inverse is not None else [])
    return values, degrees, dict(res.verdicts)


def _exec_template(script, cmd, cache, limits):
    n, r = cmd.args["n"], cmd.args["r"]
    base_seed = cmd.args.get("seed", limits["seed"])
    rejected = []
    seed = base_seed
    for attempt in range(4):
        try:
            inst = template_ideal(n, r, seed=seed,
                                  field=script.ring.field)
            diag = inst.diagnostics()
            chain = sylvester_chain(inst) if n == 3 else None
            inverses = inst.inverses() if n == 3 else ()
            break
        except DegenerateTemplate as e:
            rejected.append({"seed": seed, "reason": str(e)})
            if attempt == 3:
                raise ValueError("no general-position instance in %d draws"
                                 % (attempt + 1))
            seed = seed + 1000003
    verdicts = {
        "seed": seed,
        "codimension": diag["codimension"],
        "multiplicity": int(diag["multiplicity"]),
        "expected_multiplicity": diag["expected_multiplicity"],
    }
    if "edeg" in diag:
        verdicts["edeg"] = diag["edeg"]
    if chain is not None:
        verdicts["chain_bidegrees"] = [list(b) for b in chain.bidegrees]
        verdicts["chain_matches_rees"] = chain.conjecture_equal
    if inverses:
        verdicts["inverse_count"] = len(inverses)
        verdicts["factor_degrees"] = [d.factor.homogeneous_degree()
                                      for d in inverses]
    if rejected:
        verdicts["rejected"] = rejected
    gens = inst.ideal.gens
    return ([str(g) for g in gens],
            [g.homogeneous_degree() for g in gens], verdicts)


_EXEC = {
    "inverse": _exec_inverse,
    "invfactor": _exec_invfactor,
    "sympow": _exec_sympow,
    "symrees": _exec_symrees,
    "appendix": _exec_appendix,
    "template": _exec_template,
}


def run_script(script, lmax=4, deadline_s=600, seed=0):
    """Run all commands; one record each, failures do not stop the run."""
    limits = {"lmax": lmax, "seed": seed}
    cache = {}
    records = []
    for cmd in script.commands:
        t0 = time.perf_counter()
        try:
            with deadline(deadline_s):
                values, degrees, verdicts = _EXEC[cmd.op](script, cmd,
                                                          cache, limits)
            status = "ok"
        except DeadlineExceeded:
            status, values, degrees, verdicts = "timeout", [], [], {}
        except Exception as e:
            status, values, degrees = "failed", [], []
            verdicts = {"error": "%s: %s" % (type(e).__name__, e)}
        elapsed = int((time.perf_counter() - t0) * 1000)
        records.append({
            "command": cmd.text,
            "status": status,
            "values": values,
            "degrees": degrees,
            "verdicts": verdicts,
            "field": script.ring.field.label,
            "elapsed_ms": elapsed,
        })
    return records


def render_report(records):
    """One compact JSON object per line."""
    return "".join(json.dumps(rec, separators=(",", ":")) + "\n"
                   for rec in records)


def _run_source(source, args):
    """Parse under the deadline, then run the session."""
    with deadline(args.deadline):
        script = parse_session(source)
    return run_script(script, lmax=args.lmax, deadline_s=args.deadline,
                      seed=args.seed)


def _strip_elapsed(records):
    return [{k: v for k, v in rec.items() if k != "elapsed_ms"}
            for rec in records]


def _cmd_run(args):
    try:
        with open(args.script, encoding="utf-8") as fh:
            source = fh.read()
        records = _run_source(source, args)
    except ScriptError as e:
        print("%s: %s" % (args.script, e), file=sys.stderr)
        return 2
    except OSError as e:
        print(str(e), file=sys.stderr)
        return 2
    text = render_report(records)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all(rec["status"] == "ok" for rec in records) else 1


def corpus_dir():
    """Directory holding the bundled session scripts and expected reports."""
    return resources.files("cremona").joinpath("corpus")


def _cmd_fixtures(args, base=None):
    base = corpus_dir() if base is None else base
    sessions = sorted(p.name for p in base.iterdir()
                      if p.name.endswith(".session"))
    if not sessions:
        print("no bundled sessions found", file=sys.stderr)
        return 2
    bad = 0
    for name in sessions:
        stem = name[:-len(".session")]
        source = base.joinpath(name).read_text(encoding="utf-8")
        t0 = time.perf_counter()
        try:
            records = _run_source(source, args)
        except ScriptError as e:
            print("%s: parse error: %s" % (stem, e))
            bad += 1
            continue
        elapsed = time.perf_counter() - t0
        expected_path = base.joinpath(stem + ".expected.jsonl")
        try:
            expected_text = expected_path.read_text(encoding="utf-8")
        except FileNotFoundError:
            print("%s: no expected report stored" % stem)
            bad += 1
            continue
        expected = [json.loads(line)
                    for line in expected_text.splitlines() if line.strip()]
        got = _strip_elapsed(records)
        want = _strip_elapsed(expected)
        failures = [rec for rec in records if rec["status"] != "ok"]
        if got == want and not failures:
            print("%s: ok (%d records, %.1fs)" % (stem, len(records),
                                                  elapsed))
            continue
        bad += 1
        if failures:
            print("%s: %d record(s) not ok" % (stem, len(failures)))
        for k, (g, w) in enumerate(zip(got, want)):
            if g != w:
                print("%s: record %d differs" % (stem, k))
                print("  expected: %s" % json.dumps(w, separators=(",", ":")))
                print("  got:      %s" % json.dumps(g, separators=(",", ":")))
        if len(got) != len(want):
            print("%s: %d records, expected %d" % (stem, len(got),
                                                   len(want)))
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cremona",
        description="Exact analysis of Cremona maps and symbolic powers.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    p_run = sub.add_parser("run", help="run a session script")
    p_run.add_argument("script")
    p_run.add_argument("--lmax", type=int, default=4)
    p_run.add_argument("--deadline", type=float, default=600.0)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out")
    p_run.set_defaults(func=_cmd_run)
    p_fix = sub.add_parser("fixtures",
                           help="run the bundled corpus and diff reports")
    p_fix.add_argument("--lmax", type=int, default=4)
    p_fix.add_argument("--deadline", type=float, default=600.0)
    p_fix.add_argument("--seed", type=int, default=0)
    p_fix.set_defaults(func=_cmd_fixtures)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
