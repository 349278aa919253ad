"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each listed public function or method with a
wrapper and rebinds every module attribute that refers to the original,
so names brought in by ``from .groebner import eliminate``-style imports
are traced too.  Hot dunders such as ``Polynomial.__mul__`` are left
alone.  For every layer the tracer records calls and self time (a span's
duration minus the time its child spans cover), plus a few counts that
do not depend on the machine.  ``uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute path) of every traced layer entry point.
LAYERS = (
    ("groebner", "groebner_basis"),
    ("groebner", "eliminate"),
    ("groebner", "syzygies"),
    ("groebner", "GroebnerBasis.contains"),
    ("linalg", "Echelon.insert"),
    ("ideals", "Ideal.minimal_generators"),
    ("ideals", "Ideal.saturate"),
    ("ideals", "Ideal.quotient"),
    ("ideals", "Ideal.intersect"),
    ("ideals", "Ideal.power"),
    ("ideals", "Ideal.hilbert"),
    ("ideals", "Ideal.codimension"),
    ("rees", "rees_ideal"),
    ("rees", "jacobian_dual"),
    ("maps", "invert"),
    ("maps", "inversion_factor"),
    ("rings", "Polynomial.substitute"),
    ("symbolic", "SymbolicFiltration.level"),
    ("symbolic", "SymbolicFiltration.fresh"),
    ("symbolic", "SymbolicFiltration.essential"),
    ("symbolic", "condition_i"),
    ("symbolic", "expected_form_check"),
    ("families", "template_ideal"),
    ("families", "sylvester_chain"),
    ("families", "TemplateInstance.edeg"),
    ("families", "TemplateInstance.inverses"),
    ("families", "appendix_construct"),
    ("cli", "parse_session"),
    ("cli", "run_script"),
)

# Layers reported by self time only (their call counts say nothing).
SELF_ONLY = ("cli.parse_session", "cli.run_script")


def _count_basis(stats, args, result):
    n = len(result)
    stats["basis_len_sum"] += n
    stats["basis_len_max"] = max(stats["basis_len_max"], n)


def _count_syzygies(stats, args, result):
    stats["columns_out"] += result.ncols


def _count_mingens(stats, args, result):
    stats["gens_in"] += len(args[0].gens)
    stats["gens_out"] += len(result)


def _count_saturate(stats, args, result):
    # one quotient per loop turn; the last one finds the value stable
    stats["steps"] += result[1] + 1


# Machine-independent counts beyond calls, read from arguments and result.
EXTRA = {
    "groebner.groebner_basis": (("basis_len_sum", "basis_len_max"),
                                _count_basis),
    "groebner.syzygies": (("columns_out",), _count_syzygies),
    "ideals.Ideal.minimal_generators": (("gens_in", "gens_out"),
                                        _count_mingens),
    "ideals.Ideal.saturate": (("steps",), _count_saturate),
}


def metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for mod, attr in LAYERS:
        layer = "%s.%s" % (mod, attr)
        if layer not in SELF_ONLY:
            out.append((layer + ".calls", "count"))
        out.append((layer + ".self_s", "s"))
        for key in EXTRA.get(layer, ((), None))[0]:
            out.append(("%s.%s" % (layer, key), "count"))
        if layer == "ideals.Ideal.minimal_generators":
            out.append((layer + ".keep_ratio", "ratio"))
    return out


class Tracer:
    """Wraps the layers of an imported ``cremona`` package; each
    ``install`` starts the counts afresh."""

    def __init__(self):
        self.stats = {}
        self._stack = []
        self._undo = []

    def install(self):
        for mod, attr in LAYERS:
            module = importlib.import_module("cremona." + mod)
            layer = "%s.%s" % (mod, attr)
            keys, count = EXTRA.get(layer, ((), None))
            self.stats[layer] = dict.fromkeys(("calls", "self_s") + keys, 0)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, name)
            wrapper = self._wrap(original, self.stats[layer], count)
            if owner_name:
                self._rebind(owner, name, original, wrapper)
            else:
                for m in list(sys.modules.values()):
                    if (getattr(m, "__name__", "").startswith("cremona")
                            and getattr(m, name, None) is original):
                        self._rebind(m, name, original, wrapper)

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _rebind(self, owner, name, original, wrapper):
        self._undo.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _wrap(self, fn, stats, count):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # frame: [start, time covered by child spans]
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = clock() - frame[0]
                stats["calls"] += 1
                stats["self_s"] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if count is not None:
                count(stats, args, result)
            return result

        return traced

    def snapshot(self):
        """Flat metric name -> value for the spans recorded so far."""
        out = {}
        for layer, st in self.stats.items():
            for key, value in st.items():
                if key == "calls" and layer in SELF_ONLY:
                    continue
                out["%s.%s" % (layer, key)] = value
        mg = self.stats["ideals.Ideal.minimal_generators"]
        out["ideals.Ideal.minimal_generators.keep_ratio"] = (
            mg["gens_out"] / mg["gens_in"] if mg["gens_in"] else 0.0)
        return out
