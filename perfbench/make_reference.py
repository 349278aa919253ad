"""Write the stored reference records for the default seed.

Usage, from the root of a checkout::

    python3 perfbench/make_reference.py [workload ...]

Runs each workload's sessions once and writes ``reference/<workload>.jsonl``
(one ``{"session", "record"}`` object per line, without ``elapsed_ms``).
Records that fail the seed-independent checks are not written.
"""

from __future__ import annotations

import json
import sys

from run import DEADLINE_S, WORKLOADS, import_program


def main(argv):
    cli = import_program()
    import check
    import sessions

    corpus = check.corpus_index()
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in argv or WORKLOADS:
        lines = []
        for label, text in sessions.build(workload, check.REFERENCE_SEED):
            script = cli.parse_session(text)
            records = cli.run_script(script, deadline_s=DEADLINE_S)
            for cmd, rec in zip(script.commands, records):
                problems = check.record_problems(script, cmd, rec, corpus)
                if problems:
                    raise SystemExit("%s/%s [%s]: %s" % (
                        workload, label, cmd.text, "; ".join(problems)))
                lines.append(json.dumps({"session": label,
                                         "record": check.strip(rec)},
                                        separators=(",", ":")))
        path = check.reference_path(workload)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print("wrote %s (%d records)" % (path, len(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
