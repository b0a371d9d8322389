"""Measurement loop, output checks and metrics of the racepred benchmark.

Load model: a closed loop with one client.  One benchmark process runs one
``racepred analyze`` child at a time on the trace written during set-up, and
nothing else runs alongside.  Each child is timed from spawn to exit, and its
peak resident set comes from ``os.wait4`` on that child.

Every run's output is checked: the exit code agrees with the races reported,
the summary ``flags=``/``pairs=`` lines equal the FLAG/RACE line counts, a
``--pairs`` WCP run has exactly one ``sound=1`` line, and every run of one
seed prints the same stdout (sha256).  For the seeds in ``pinned.json`` the
digest must also equal the pinned one, so a change to stdout counts as a
failed run.  To pin a seed, run the benchmark with it and copy the
``stdout_sha256`` it prints into ``pinned.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl
from racepred.trace_model import KIND_TOKEN

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
PINNED = HERE / "pinned.json"
SETUP_REPS = 9
MIN_SAMPLES = 3
# every run must end within 180 s; children still running past this are killed
HARD_LIMIT_S = 165.0

END_TO_END = {"events_per_s": "1/s", "analyze_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# per-layer metric -> (unit, the end-to-end metric and workload it should move)
PER_LAYER = {
    "trace_model.parse_us": ("us", "events_per_s on scaling-both; a small share on pairs-wcp"),
    "trace_model.busy_s": ("s", "events_per_s on scaling-both"),
    "wcp_engine.acq_us": ("us", "events_per_s on scaling-both"),
    "wcp_engine.rel_us": ("us", "events_per_s on drain-wcp; barely on scaling-both"),
    "wcp_engine.r_us": ("us", "events_per_s on scaling-both"),
    "wcp_engine.w_us": ("us", "events_per_s on scaling-both"),
    "wcp_engine.busy_s": ("s", "events_per_s on every workload"),
    "wcp_engine.max_queue_load": ("count", "peak_rss_mb on drain-wcp and pairs-wcp"),
    "wcp_engine.log_entries": ("count", "peak_rss_mb on drain-wcp and pairs-wcp"),
    "wcp_engine.join_calls": ("count", "events_per_s on drain-wcp"),
    "wcp_engine.join_noop_share": ("share", "events_per_s on drain-wcp; barely on scaling-both"),
    "hb_engine.us_per_event": ("us", "events_per_s on scaling-both; not run elsewhere"),
    "hb_engine.busy_s": ("s", "events_per_s on scaling-both; not run elsewhere"),
    "race_reporter.check_us": ("us", "events_per_s on drain-wcp, where clocks are 32 wide"),
    "race_reporter.flag_share": ("share", "events_per_s on drain-wcp, through output volume"),
    "race_reporter.pairs_self_s": ("s", "events_per_s on pairs-wcp; absent elsewhere"),
    "race_reporter.pair_comparisons": ("count", "events_per_s, peak_rss_mb on pairs-wcp"),
    "race_reporter.pairs_per_comparison": ("share", "events_per_s on pairs-wcp"),
    "race_reporter.race_lines_per_flag": ("share", "events_per_s on pairs-wcp, through output"),
    "race_reporter.render_s": ("s", "events_per_s on drain-wcp and pairs-wcp"),
    "cli.self_s": ("s", "events_per_s on drain-wcp and pairs-wcp; the streaming loop on scaling-both"),
    "cli.output_lines": ("count", "events_per_s on drain-wcp and pairs-wcp"),
    "cli.output_bytes": ("B", "events_per_s on drain-wcp and pairs-wcp"),
    "tracegen.gen_s": ("s", "setup_s on every workload"),
    "trace_overhead_share": ("share", "none: the cost of tracing itself"),
}


@dataclass
class Sample:
    wall_s: float
    rss_mb: float
    rc: int
    stdout: bytes
    stderr: str
    problems: list[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


class Run:
    """One benchmark run: a workload, a seed and a work directory."""

    def __init__(self, w: wl.Workload, seed: int, work: Path, pinned: dict | None = None):
        self.w, self.seed, self.work = w, seed, work
        self.started = time.perf_counter()
        self.trace_path = work / f"{w.name}.std"
        self.n_events = 0
        self.locations = 0
        self.trace_sha256: str | None = None
        self.problems: list[str] = []     # set-up and oracle failures
        self.samples: list[Sample] = []   # every analysis of the full trace
        entry = (pinned or {}).get(w.name, {})
        self.reference = (entry.get("stdout_sha256", {}).get(str(seed))
                          if entry.get("events") == w.events else None)
        self.reference_pinned = self.reference is not None
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    # -- children ---------------------------------------------------------

    def spawn(self, cmd: list[str]) -> Sample:
        out_path, err_path = self.work / "stdout.bin", self.work / "stderr.txt"
        limit = max(1.0, HARD_LIMIT_S - (time.perf_counter() - self.started))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            killer = threading.Timer(limit, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Sample(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                      out_path.read_bytes(), err_path.read_text(errors="replace"))

    def analyze_cmd(self, args, path) -> list[str]:
        return [sys.executable, "-m", "racepred.cli", "analyze", *args, str(path)]

    def record(self, s: Sample) -> Sample:
        """Check a sample of the full trace and keep it."""
        s.problems = check_output(self.w, self.n_events, s.rc, s.stdout)
        if self.reference is None and not self.samples:
            self.reference = s.digest
        if s.digest != self.reference:
            s.problems.append(f"stdout sha256 {s.digest} != {self.reference}")
        if s.problems and s.stderr.strip():
            s.problems.append("stderr: " + s.stderr.strip().splitlines()[-1])
        self.samples.append(s)
        return s

    # -- set-up -------------------------------------------------------------

    def setup(self) -> tuple[float, float]:
        """Write the workload trace and cross-check a small one with the oracle.
        Returns (total set-up seconds, trace generation seconds)."""
        t0 = time.perf_counter()
        text, self.locations = wl.trace_text(self.w, self.w.events, self.seed)
        gen_s = time.perf_counter() - t0
        data = text.encode()
        self.trace_path.write_bytes(data)
        self.n_events = text.count("\n")
        digest = hashlib.sha256(data).hexdigest()
        if self.trace_sha256 not in (None, digest):
            self.problems.append("trace generation is not deterministic in the seed")
        self.trace_sha256 = digest
        self.problems += self.oracle_check()
        return time.perf_counter() - t0, gen_s

    def oracle_check(self) -> list[str]:
        w = self.w
        small = self.work / f"{w.name}.oracle.std"
        text, _ = wl.trace_text(w, wl.ORACLE_EVENTS, self.seed)
        small.write_text(text)
        n = text.count("\n")
        truth = wl.oracle_races(small)
        problems = []
        s = self.spawn(self.analyze_cmd(w.args, small))
        problems += [f"oracle trace: {p}" for p in check_output(w, n, s.rc, s.stdout)]
        out = parse_output(s.stdout)
        unchecked = ["wcp", "hb"]
        if w.pairs:
            for det in w.detectors:
                for line in out.get(det, {}).get("races", []):
                    if line.endswith("|sound=1"):
                        i1, i2 = map(int, line.split("|")[-2][3:].split(","))
                        if (i1, i2) not in truth[det][1]:
                            problems.append(f"oracle: sound pair {i1},{i2} is {det}-ordered")
        else:
            for det in w.detectors:
                unchecked.remove(det)
                problems += compare_flags(det, out, truth)
        if unchecked:
            det = "both" if len(unchecked) == 2 else unchecked[0]
            s = self.spawn(self.analyze_cmd(["--detector", det], small))
            out = parse_output(s.stdout)
            for det in unchecked:
                problems += compare_flags(det, out, truth)
        return problems

    # -- measurement --------------------------------------------------------

    def measure(self, seconds: float, min_samples: int = MIN_SAMPLES) -> list[Sample]:
        taken = []
        deadline = time.perf_counter() + seconds
        while len(taken) < min_samples or time.perf_counter() < deadline:
            taken.append(self.record(self.spawn(self.analyze_cmd(self.w.args, self.trace_path))))
        return taken

    def traced(self, mode: str) -> tuple[Sample, dict]:
        out = self.work / f"spans-{mode}.json"
        cmd = [sys.executable, str(HERE / "tracer.py"), mode, str(out), "analyze",
               *self.w.args, str(self.trace_path)]
        s = self.record(self.spawn(cmd))
        return s, (json.loads(out.read_text()) if out.exists() and not s.problems else {})


# -- output checks ------------------------------------------------------------

def parse_output(stdout: bytes) -> dict[str, dict]:
    """Per detector: FLAG indices, RACE lines and the summary key=value block."""
    out: dict[str, dict] = {}
    current = None
    for line in stdout.decode(errors="replace").splitlines():
        if line.startswith("FLAG|") or line.startswith("RACE|"):
            det = line.split("|", 2)[1]
            block = out.setdefault(det, {"flags": [], "races": [], "summary": {}})
            if line[0] == "F":
                block["flags"].append(int(line.split("|")[2][4:]))
            else:
                block["races"].append(line)
        elif line.startswith("detector="):
            current = out.setdefault(line[9:], {"flags": [], "races": [], "summary": {}})
        elif "=" in line and current is not None and not line.startswith("#"):
            k, _, v = line.partition("=")
            current["summary"][k] = v
    return out


def check_output(w: wl.Workload, n_events: int, rc: int, stdout: bytes) -> list[str]:
    """Problems with one analyze run's exit code and stdout; empty when correct."""
    try:
        out = parse_output(stdout)
    except (ValueError, IndexError) as exc:
        return [f"unparsable output: {exc!r}"]
    problems = []
    if sorted(out) != sorted(w.detectors):
        return [f"detectors {sorted(out)} in output, expected {w.detectors}"]
    raced = False
    for det in w.detectors:
        block = out[det]
        summary = block["summary"]
        if summary.get("events") != str(n_events):
            problems.append(f"{det}: events={summary.get('events')}, trace has {n_events}")
        if w.pairs:
            raced = raced or bool(block["races"])
            if summary.get("pairs") != str(len(block["races"])):
                problems.append(f"{det}: pairs={summary.get('pairs')} but "
                                f"{len(block['races'])} RACE lines")
            sound = sum(line.endswith("|sound=1") for line in block["races"])
            if det == "wcp" and sound != 1:
                problems.append(f"wcp: {sound} sound=1 lines, expected exactly 1")
        else:
            raced = raced or bool(block["flags"])
            if summary.get("flags") != str(len(block["flags"])):
                problems.append(f"{det}: flags={summary.get('flags')} but "
                                f"{len(block['flags'])} FLAG lines")
        if w.race_free and summary.get("flags") != "0":
            problems.append(f"{det}: race-free workload reports flags={summary.get('flags')}")
    if rc != (1 if raced else 0):
        problems.append(f"exit code {rc} with races={'yes' if raced else 'no'}")
    return problems


def compare_flags(det: str, out: dict, truth: dict) -> list[str]:
    got = set(out.get(det, {}).get("flags", []))
    want = truth[det][0]
    if got == want:
        return []
    return [f"oracle: {det} FLAG indices differ: {len(got - want)} extra, "
            f"{len(want - got)} missing"]


# -- metrics --------------------------------------------------------------------

def layer_metrics(run: Run, spans: dict, untraced_wall: float, traced_wall: float,
                  stdout: bytes) -> dict[str, float]:
    """Per-layer metrics of one timed traced run."""
    layers = spans["layers"]

    def total(name):
        return layers.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def per_us(prefix):
        n = calls(prefix)
        return 1e6 * total(prefix) / n if n else 0.0

    parse_s = total("trace_model.iter_parse") + total("trace_model.load_trace")
    kinds = [f"wcp_engine.process.{k}" for k in KIND_TOKEN.values()]
    hb = [f"hb_engine.process.{k}" for k in KIND_TOKEN.values()]
    hb_s, hb_n = sum(map(total, hb)), sum(map(calls, hb))
    out = parse_output(stdout)
    race_lines = sum(len(b["races"]) for b in out.values())
    flags = sum(int(b["summary"].get("flags", 0)) for b in out.values())
    return {
        "trace_model.parse_us": 1e6 * parse_s / run.n_events,
        "trace_model.busy_s": parse_s,
        "wcp_engine.acq_us": per_us("wcp_engine.process.acq"),
        "wcp_engine.rel_us": per_us("wcp_engine.process.rel"),
        "wcp_engine.r_us": per_us("wcp_engine.process.r"),
        "wcp_engine.w_us": per_us("wcp_engine.process.w"),
        "wcp_engine.busy_s": sum(map(total, kinds)),
        "hb_engine.us_per_event": 1e6 * hb_s / hb_n if hb_n else 0.0,
        "hb_engine.busy_s": hb_s,
        "race_reporter.check_us": per_us("race_reporter.check_access"),
        "race_reporter.pairs_self_s": layers.get("race_reporter.resolve_pairs", {}).get("self_s", 0.0),
        "race_reporter.race_lines_per_flag": race_lines / flags if race_lines else 0.0,
        "race_reporter.render_s": sum(total(f"race_reporter.{n}") for n in
                                      ("render_flags", "RacePair.render", "summary_lines")),
        "cli.self_s": layers["cli.main"]["self_s"],
        "cli.output_lines": stdout.count(b"\n"),
        "cli.output_bytes": len(stdout),
        # the wrapper calibration runs before cli.main and is not tracing cost
        "trace_overhead_share": (traced_wall - spans["calibrate_s"]) / untraced_wall - 1.0,
    }


def count_metrics(spans: dict, stdout: bytes) -> dict[str, float]:
    """Per-layer counts of the counting run (exact, repeatable)."""
    c = spans["counts"]
    engine = max(spans["wcp_engines"], key=lambda e: e["total_entries"],
                 default={"max_queue_load": 0, "total_entries": 0})
    witnesses = sum(int(line.split("|")[-4][6:])
                    for b in parse_output(stdout).values() for line in b["races"])
    return {
        "race_reporter.flag_share": c["flagged"] / c["checks"] if c["checks"] else 0.0,
        "wcp_engine.max_queue_load": engine["max_queue_load"],
        "wcp_engine.log_entries": engine["total_entries"],
        "wcp_engine.join_calls": c["join_calls"],
        "wcp_engine.join_noop_share": c["join_noop"] / c["join_calls"] if c["join_calls"] else 0.0,
        "race_reporter.pair_comparisons": c["pair_comparisons"],
        "race_reporter.pairs_per_comparison": (witnesses / c["pair_comparisons"]
                                               if c["pair_comparisons"] else 0.0),
    }


def layer_ranking(spans: dict) -> list[tuple[str, float]]:
    """Self time per layer of one timed traced run, largest first.  Parsing,
    the HB engine and rendering are summed; WCP stays split by event kind."""
    groups: dict[str, float] = {}
    for name, v in spans["layers"].items():
        module, _, func = name.partition(".")
        if module in ("trace_model", "hb_engine"):
            name = module
        elif func in ("render_flags", "RacePair.render", "summary_lines"):
            name = "race_reporter.render"
        groups[name] = groups.get(name, 0.0) + v["self_s"]
    return sorted(groups.items(), key=lambda kv: -kv[1])


# -- one run ----------------------------------------------------------------------

def run_workload(w: wl.Workload, seed: int, seconds: float, trace: bool,
                 work: Path, pinned: dict | None = None, log=print) -> dict:
    """Set up, measure and check one workload; returns the result record."""
    work.mkdir(parents=True, exist_ok=True)
    run = Run(w, seed, work, pinned)
    setups, gens = [], []
    for _ in range(SETUP_REPS):
        setup_s, gen_s = run.setup()
        setups.append(setup_s)
        gens.append(gen_s)
    log(f"workload={w.name} seed={seed} events={run.n_events} locations={run.locations} "
        f"trace_sha256={run.trace_sha256}")
    for p in run.problems:
        log(f"PROBLEM set-up: {p}")

    metrics: dict[str, tuple[float, str]] = {}
    if not trace:
        samples = run.measure(seconds)
        series = {
            "events_per_s": [run.n_events / s.wall_s for s in samples],
            "analyze_s": [s.wall_s for s in samples],
            "peak_rss_mb": [s.rss_mb for s in samples],
            "setup_s": setups,
        }
        for name, values in series.items():
            q1, med, q3 = statistics.quantiles(values, n=4)
            metrics[name] = (med, END_TO_END[name])
            log(f"{name}: median={med:.6g} q1={q1:.6g} q3={q3:.6g} n={len(values)} "
                f"unit={END_TO_END[name]}")
        log("analyze_s samples: " + " ".join(f"{s.wall_s:.3f}" for s in samples))
    else:
        # untraced and traced runs alternate, so that each traced run is
        # compared with an untraced one made under the same machine load
        deadline = time.perf_counter() + seconds
        per_run, overheads, first = [], [], None
        while not per_run or time.perf_counter() < deadline:
            base = run.measure(0.0, min_samples=1)[0]
            s, spans = run.traced("timed")
            if not spans:
                break
            per_run.append(layer_metrics(run, spans, base.wall_s, s.wall_s, s.stdout))
            overheads.append(spans["overhead_s"])
            first = first or spans
        s, spans = run.traced("count")
        values = {k: statistics.median(r[k] for r in per_run) for k in per_run[0]} if per_run else {}
        if spans:
            values.update(count_metrics(spans, s.stdout))
        values["tracegen.gen_s"] = statistics.median(gens)
        for name, (unit, moves) in PER_LAYER.items():
            if name in values:
                metrics[name] = (values[name], unit)
                log(f"{name}: {values[name]:.6g} {unit}  (moves {moves})")
        if first:
            per_call = " ".join(f"{k}={1e6 * v:.3f}us"
                                for k, v in first["outside_s_per_call"].items())
            log(f"tracer wrapper cost taken out of parents' self time: median "
                f"{statistics.median(overheads):.4f} s per traced run ({per_call} per call)")
            ranking = layer_ranking(first)
            main_s = sum(v for _, v in ranking)
            log("self time by layer, first traced run (share of cli.main net of wrappers):")
            for name, v in ranking:
                if v > 0:
                    log(f"  {name}: {v:.4f} s ({v / main_s:.1%})")

    failed = sum(bool(s.problems) for s in run.samples)
    for i, s in enumerate(run.samples):
        for p in s.problems:
            log(f"PROBLEM run {i}: {p}")
    attempted = len(run.samples)
    log(f"failed_share: {failed}/{attempted} = {failed / max(attempted, 1):.4g} unit=share")
    log(f"stdout_sha256={run.reference} pinned={'yes' if run.reference_pinned else 'no'}")
    complete = len(metrics) == len(PER_LAYER if trace else END_TO_END)
    return {
        "correct": not run.problems and failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def load_pinned() -> dict:
    return json.loads(PINNED.read_text()) if PINNED.exists() else {}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="racepred analyze benchmark")
    ap.add_argument("--workload", required=True, choices=list(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    work = WORK / f"{args.workload}-{args.seed}"
    try:
        result = run_workload(wl.WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), work, load_pinned())
    finally:
        # traces and outputs are large; span files and stderr stay
        for path in [*work.glob("*.std"), work / "stdout.bin"]:
            path.unlink(missing_ok=True)
    print(json.dumps(result))
    return 0
