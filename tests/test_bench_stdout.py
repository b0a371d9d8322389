"""The benchmark's stdout, pinned in tier 1.  For each perfbench workload,
its seed-1 trace is analyzed in-process with the workload's arguments; the
exit code must be the workload's, and the stdout's sha256 the seed-1
digest in perfbench/pinned.json.  Without this, a change to analyze's
output shows up only as failed benchmark runs.  Reads perfbench/ and
changes nothing there; the three workloads take about 6 s together."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from racepred import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)
PINNED = json.loads((PERFBENCH / "pinned.json").read_text())

EXIT_CODES = {"scaling-both": 0, "drain-wcp": 1, "pairs-wcp": 1}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_stdout_is_pinned(name, tmp_path, capsys):
    w = workloads.WORKLOADS[name]
    text, _ = workloads.trace_text(w, w.events, 1)
    path = tmp_path / f"{name}.std"
    path.write_text(text)
    capsys.readouterr()
    code = cli.main(["analyze", *w.args, str(path)])
    out = capsys.readouterr().out
    assert code == EXIT_CODES[name]
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[name]["stdout_sha256"]["1"]
