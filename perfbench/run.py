"""Benchmark of cremona on generated session scripts.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload template --seed 0 --seconds 25 --trace 0

Workloads (see ``sessions.py``): ``template``, ``symbolic``, ``inverse``.
The benchmark is one process and one thread, a closed loop with a single
client: each command starts only after the previous one returned.  A
pass parses the workload's session scripts with ``cremona.cli.
parse_session`` and runs them with ``run_script``, exactly as ``cremona
run`` does, so every pass starts from fresh ``Ideal`` objects and no
memo cache survives from one pass to the next.  Passes repeat for about
``--seconds`` and at least ``MIN_PASSES`` times.

Before timing, the bundled corpus is replayed once in a child process;
any record that differs from its stored report stops the run without a
result.  Every record of every pass then goes through ``check.py``.

``--trace 0`` reports the end-to-end metrics:

* ``pass_cpu_s``: CPU time of one pass, each part of it (every
  command, and every session's parsing and bookkeeping) taken at its
  largest over the passes;
* ``slowest_op_cpu_s``: the largest CPU time of one command;
* ``peak_rss_mb``: peak resident set of this process (the corpus replay
  and the set-up probes run in children, so they do not count);
* ``setup_s``: median over ``SETUP_PROBES`` fresh interpreters of the
  CPU time of start, ``import cremona.cli`` and building the workload's
  session text.

Times are CPU times (user + system), not wall times: the program is
single-threaded, and on a shared host wall time also counts the time
the virtual CPU waits for the host.  CPU time has a noise of its own
there: the same work takes its longest while other tenants contend for
the core, and up to 45% less through stretches of seconds to minutes
when they idle.  How much of a run falls in such stretches changes from
run to run, so medians over a run move with it, while the longest time
of each part of a pass, the time under contention, repeats.  In ten
runs per workload on a 2-vCPU host, (q3 - q1) / median across runs was
10-21% for the median pass and 10-30% for the slowest command's median,
but 4% for ``pass_cpu_s`` and 6-7% for ``slowest_op_cpu_s``.  CPU and
wall time of every pass are logged to standard error.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.py``: counts from the traced passes (which
must agree exactly, proving that no cached basis survives a pass), self
times at their median, and ``trace_overhead_ratio``, the median traced
pass over the median untraced pass, both in CPU time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; progress and the
per-layer table go to standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

WORKLOADS = ("template", "symbolic", "inverse")
MIN_PASSES = 3
SETUP_PROBES = 7
# per-command deadline handed to run_script, far above the slowest
# command (about 5 s); a timeout is reported, never hidden
DEADLINE_S = 60
# no new pass starts after this many seconds, so a run ends in time
STOP_S = 120
CHILD_TIMEOUT_S = 120

_CHILD_PATH = "import sys; sys.path[:0] = sys.argv[1:3]; "
_PROBE = _CHILD_PATH + ("import cremona.cli, sessions; "
                        "sessions.build(sys.argv[3], int(sys.argv[4]))")
_SMOKE = _CHILD_PATH + ("import check; "
                        "p = check.corpus_smoke(float(sys.argv[3])); "
                        "print('\\n'.join(p)); sys.exit(1 if p else 0)")


def _log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def import_program():
    """Import ``cremona.cli`` from this checkout's ``src``; exit without a
    result when it is not there."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    try:
        import cremona.cli
    except ImportError as e:
        raise SystemExit("perfbench: cannot import cremona from %s: %s"
                         % (SRC, e))
    if Path(cremona.cli.__file__).resolve().parent != SRC / "cremona":
        raise SystemExit("perfbench: imported cremona from %s, not %s"
                         % (cremona.cli.__file__, SRC))
    return cremona.cli


def _child(code, *args):
    return subprocess.run([sys.executable, "-c", code, str(SRC), str(BENCH)]
                          + [str(a) for a in args],
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)


def _smoke_check():
    proc = _child(_SMOKE, DEADLINE_S)
    if proc.returncode != 0:
        raise SystemExit("perfbench: corpus smoke check failed, no numbers "
                         "reported:\n%s%s" % (proc.stdout, proc.stderr))


def _children_cpu():
    use = resource.getrusage(resource.RUSAGE_CHILDREN)
    return use.ru_utime + use.ru_stime


def _setup_seconds(workload, seed):
    """Median CPU time of a set-up probe."""
    times = []
    for _ in range(SETUP_PROBES):
        c0 = _children_cpu()
        proc = _child(_PROBE, workload, seed)
        times.append(_children_cpu() - c0)
        if proc.returncode != 0:
            raise SystemExit("perfbench: set-up probe failed:\n" + proc.stderr)
    return statistics.median(times)


class Clock:
    """Wraps the command executors of ``cremona.cli`` from outside and
    takes the CPU time of every command, in the order they run."""

    def __init__(self, cli):
        self.times = []
        for op, fn in cli._EXEC.items():
            cli._EXEC[op] = self._wrap(fn)

    def _wrap(self, fn):
        def timed(*args):
            c0 = time.process_time()
            try:
                return fn(*args)
            finally:
                self.times.append(time.process_time() - c0)
        return timed

    def take(self):
        """CPU seconds of the commands run since the last call."""
        out, self.times = self.times, []
        return out


class Runner:
    """Runs passes of one workload and checks every record."""

    def __init__(self, cli, check, workload, sources, reference):
        self.cli = cli
        self.check = check
        self.workload = workload
        self.sources = sources
        self.reference = reference
        self.corpus = check.corpus_index()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        # CPU s of each part of a pass, one value per pass: a command is
        # (label, index), the rest of a session (parsing, bookkeeping)
        # is (label, None)
        self.parts = {}
        self.pass_cpu = []  # CPU s of each pass, for the log
        self.clock = Clock(cli)

    def run_pass(self):
        """Run every session once; return the pass's CPU and wall time."""
        gc.collect()
        self.clock.take()
        done = []
        c0, t0 = time.process_time(), time.perf_counter()
        for label, text in self.sources:
            s0 = time.process_time()
            script = self.cli.parse_session(text)
            records = self.cli.run_script(script, deadline_s=DEADLINE_S)
            session = time.process_time() - s0
            done.append((label, script, records, session, self.clock.take()))
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        self.pass_cpu.append(cpu)
        for label, script, records, session, times in done:
            if len(times) != len(records):
                self.fail("%s: %d command times for %d records"
                          % (label, len(times), len(records)))
            for k, t in enumerate(times):
                self.parts.setdefault((label, k), []).append(t)
            self.parts.setdefault((label, None), []).append(
                session - sum(times))
            self._check(label, script, records)
        return cpu, wall

    def _check(self, label, script, records):
        ref = self.reference.get(label) if self.reference else None
        if ref is not None and len(ref) != len(records):
            self.fail("%s: %d records, reference has %d"
                       % (label, len(records), len(ref)))
        for k, (cmd, rec) in enumerate(zip(script.commands, records)):
            self.attempted += 1
            want = ref[k] if ref is not None and k < len(ref) else None
            found = self.check.record_problems(script, cmd, rec, self.corpus,
                                               want)
            if found:
                self.failed += 1
                for p in found:
                    self.fail("%s/%s [%s]: %s" % (self.workload, label,
                                                   cmd.text, p))

    def fail(self, msg):
        self.problems.append(msg)
        _log("FAIL " + msg)

    def pass_cpu_s(self):
        return sum(max(v) for v in self.parts.values())

    def slowest_op_cpu_s(self):
        return max(max(v) for (_label, k), v in self.parts.items()
                   if k is not None)


def _keep_going(t_start, seconds, enough, last):
    """Start another pass if it is expected to end by STOP_S and, once
    there are enough passes, to end no more than half a pass after
    ``seconds``, so that a run measures ``seconds`` on average."""
    now = time.perf_counter() - t_start
    return now + last <= STOP_S and (now + last / 2 < seconds or not enough)


def measure(runner, seconds):
    walls = []
    t_start = time.perf_counter()
    while not walls or _keep_going(t_start, seconds,
                                   len(walls) >= MIN_PASSES, walls[-1]):
        cpu, wall = runner.run_pass()
        walls.append(wall)
        _log("pass %d: cpu %.3f s, wall %.3f s" % (len(walls), cpu, wall))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "pass_cpu_s": (runner.pass_cpu_s(), "s"),
        "slowest_op_cpu_s": (runner.slowest_op_cpu_s(), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def measure_traced(runner, seconds):
    from tracing import Tracer, metric_names

    untraced, traced, snaps, last_wall = [], [], [], 0.0
    t_start = time.perf_counter()
    while not traced or _keep_going(t_start, seconds, len(traced) >= 2,
                                    last_wall):
        cpu, wall = runner.run_pass()
        untraced.append(cpu)
        tracer = Tracer()
        tracer.install()
        try:
            cpu, traced_wall = runner.run_pass()
            traced.append(cpu)
        finally:
            tracer.uninstall()
        snaps.append(tracer.snapshot())
        last_wall = wall + traced_wall
        _log("pair %d: cpu untraced %.3f s, traced %.3f s"
             % (len(traced), untraced[-1], traced[-1]))
    counts = [{k: v for k, v in s.items() if not k.endswith(".self_s")}
              for s in snaps]
    for k, c in enumerate(counts[1:], 2):
        diff = sorted(n for n in c if c[n] != counts[0][n])
        if diff:
            runner.fail("cache isolation: traced pass %d differs from "
                         "pass 1 in %s" % (k, ", ".join(diff)))
    out = {}
    for name, unit in metric_names():
        if name.endswith(".self_s"):
            value = statistics.median(s[name] for s in snaps)
        else:
            value = counts[0][name]
        out[name] = (value, unit)
    out["trace_overhead_ratio"] = (statistics.median(traced)
                                   / statistics.median(untraced), "ratio")
    _print_table(out)
    return out


def _print_table(metrics):
    selfs = {n[:-len(".self_s")]: v for n, (v, _u) in metrics.items()
             if n.endswith(".self_s")}
    total = sum(selfs.values()) or 1.0
    _log("%-40s %8s %9s %6s" % ("layer", "calls", "self_s", "share"))
    for layer, s in sorted(selfs.items(), key=lambda kv: -kv[1]):
        calls = metrics.get(layer + ".calls", ("-", ""))[0]
        _log("%-40s %8s %9.3f %5.1f%%" % (layer, calls, s, 100 * s / total))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_program()
    import check
    import sessions

    _smoke_check()
    sources = sessions.build(args.workload, args.seed)
    reference = (check.load_reference(args.workload)
                 if args.seed == check.REFERENCE_SEED else None)
    runner = Runner(cli, check, args.workload, sources, reference)
    if args.trace:
        metrics = measure_traced(runner, args.seconds)
    else:
        metrics = measure(runner, args.seconds)
        metrics["setup_s"] = (_setup_seconds(args.workload, args.seed), "s")
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
