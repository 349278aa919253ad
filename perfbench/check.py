"""Correctness gate for benchmark records.

Three sources of truth, none of them the run being checked:

* the bundled corpus: wherever a workload runs the same command on the
  same bindings as a corpus session, the record must equal the stored
  corpus line;
* the reference records under ``reference/`` for the default seed;
* invariants that hold for every seed: template numerology and chain
  bidegrees, birationality, and the degrees of plane Cremona inverses.

Records are compared without ``elapsed_ms``.
"""

from __future__ import annotations

import json
from pathlib import Path

from cremona.cli import corpus_dir, parse_session, run_script

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 0


def strip(record):
    return {k: v for k, v in record.items() if k != "elapsed_ms"}


def _binding_text(script, name):
    kind, value = script.bindings[name]
    if kind == "ideal":
        return (kind, tuple(str(g) for g in value.gens))
    return (kind, value.nrows, value.ncols,
            tuple(str(value[i, j]) for i in range(value.nrows)
                  for j in range(value.ncols)))


def command_key(script, cmd):
    """Field, variables, command text and the bindings it reads."""
    names = [cmd.args["name"]] if "name" in cmd.args else []
    if cmd.args.get("sat") in script.bindings:
        names.append(cmd.args["sat"])
    return (script.ring.field.label, script.ring.names, cmd.text,
            tuple(_binding_text(script, n) for n in names))


def _corpus_sessions():
    base = corpus_dir()
    for path in sorted(p.name for p in base.iterdir()
                       if p.name.endswith(".session")):
        stem = path[:-len(".session")]
        source = base.joinpath(path).read_text(encoding="utf-8")
        text = base.joinpath(stem + ".expected.jsonl").read_text(
            encoding="utf-8")
        yield stem, source, [json.loads(line) for line in text.splitlines()
                             if line.strip()]


def corpus_index():
    """command_key -> stored corpus record, without elapsed_ms."""
    index = {}
    for _stem, source, expected in _corpus_sessions():
        script = parse_session(source)
        for cmd, rec in zip(script.commands, expected):
            index[command_key(script, cmd)] = strip(rec)
    return index


def corpus_smoke(deadline_s):
    """Replay the bundled corpus once; list every record that differs."""
    problems = []
    for stem, source, expected in _corpus_sessions():
        got = [strip(r) for r in run_script(parse_session(source),
                                            deadline_s=deadline_s)]
        want = [strip(r) for r in expected]
        if len(got) != len(want):
            problems.append("corpus %s: %d records, expected %d"
                            % (stem, len(got), len(want)))
        for g, w in zip(got, want):
            if g != w or g["status"] != "ok":
                problems.append("corpus %s: %r gave %s, expected %s"
                                % (stem, w["command"], json.dumps(g),
                                   json.dumps(w)))
    return problems


def reference_path(workload):
    return REFERENCE_DIR / ("%s.jsonl" % workload)


def load_reference(workload):
    """session label -> records stored for the default seed."""
    out = {}
    with open(reference_path(workload), encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                row = json.loads(line)
                out.setdefault(row["session"], []).append(row["record"])
    return out


def _template_problems(cmd, rec):
    r = cmd.args["r"]
    v = rec["verdicts"]
    want = {"codimension": 2, "multiplicity": r * r + 2 * r + 3,
            "edeg": 2 * r + 1,
            "chain_bidegrees": [[r - i, 2 * i + 1] for i in range(1, r + 1)]}
    return ["%s = %r, expected %r" % (k, v.get(k), w)
            for k, w in want.items() if v.get(k) != w]


def _map_problems(script, cmd, rec):
    v = rec["verdicts"]
    if v.get("birational") is not True:
        return ["map is not birational"]
    inv_deg = rec["degrees"][0] if cmd.op == "inverse" else v["inverse_degree"]
    deg = script.bindings[cmd.args["name"]][1].gens[0].homogeneous_degree()
    out = []
    if script.ring.nvars == 3 and inv_deg != deg:
        out.append("plane map of degree %d has an inverse of degree %d"
                   % (deg, inv_deg))
    if cmd.op == "invfactor" and rec["degrees"] != [deg * inv_deg - 1]:
        out.append("factor degree %r, expected %d"
                   % (rec["degrees"], deg * inv_deg - 1))
    return out


def record_problems(script, cmd, rec, corpus, reference=None):
    """Every way one record fails the gate; empty when it passes."""
    if rec["status"] != "ok":
        return ["status %s: %s" % (rec["status"],
                                   rec["verdicts"].get("error", ""))]
    got = strip(rec)
    out = []
    if reference is not None and got != reference:
        out.append("differs from the stored reference %s"
                   % json.dumps(reference))
    want = corpus.get(command_key(script, cmd))
    if want is not None and got != want:
        out.append("differs from the corpus record %s" % json.dumps(want))
    if cmd.op == "template":
        out += _template_problems(cmd, rec)
    elif cmd.op in ("inverse", "invfactor"):
        out += _map_problems(script, cmd, rec)
    return out
