"""What the benchmark under perfbench/ reads from the package.

The tracer resolves its layers by module and attribute name and the
session builder calls the library directly, so removing or renaming a
name they use breaks the benchmark, not the program; these tests fail
first.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from cremona import cli

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    path = ROOT / "perfbench" / (name + ".py")
    spec = importlib.util.spec_from_file_location("perfbench_" + name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
sessions = _load("sessions")
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("mod,attr", tracing.LAYERS)
def test_traced_layer_resolves(mod, attr):
    owner = importlib.import_module("cremona." + mod)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_sessions_build_and_parse(workload):
    built = sessions.build(workload, 0)
    assert built
    for label, source in built:
        script = cli.parse_session(source)
        assert script.commands, label
        assert all(callable(cli._EXEC[cmd.op]) for cmd in script.commands)
