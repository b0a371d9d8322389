import io
import os
import random
import re
import subprocess
import sys
import time
import warnings
import weakref
from dataclasses import fields
from pathlib import Path

import pytest
from test_wcp_engine import gen_forky

from racepred import cli, wcp_engine
from racepred.cli import build_parser, main
from racepred.hb_engine import HbEngine, validate
from racepred.race_reporter import RacePair
from racepred.trace_model import parse_trace
from racepred.tracegen import FIXTURE_NAMES, GenParams, fixture, gen_random
from racepred.wcp_engine import EngineError, WcpEngine


SRC = Path(__file__).resolve().parent.parent / "src"
# analyze's own block on stderr: its wall time, then its peak where /proc exists
RUN_RECORD = r"time_s=\d+\.\d{3}\n" + (r"peak_rss_mb=\d+\.\d\n"
                                       if Path("/proc/self/status").exists() else "")
SOUND_NOTE = ("# note|wcp|only the first reported pair carries the soundness guarantee; "
              "an unordered pair can also witness a predictable deadlock")


@pytest.fixture
def fig_file(tmp_path):
    def write(name):
        p = tmp_path / f"{name}.std"
        p.write_text(fixture(name).serialize())
        return str(p)
    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_both_fig1b(capsys, fig_file):
    code, out, _ = run_cli(capsys, "analyze", "--detector", "both", "--pairs", fig_file("fig1b"))
    assert code == 1
    assert "RACE|wcp|fig1b:1|fig1b:8|count=1|mindist=7|ex=0,7|sound=1" in out
    assert "RACE|hb|" not in out
    blocks = out.split("detector=")
    assert "pairs=1" in blocks[1] and "pairs=0" in blocks[2]


def test_analyze_fig2a_clean_exit(capsys, fig_file):
    code, out, _ = run_cli(capsys, "analyze", "--detector", "wcp", "--pairs", fig_file("fig2a"))
    assert code == 0
    assert "RACE|" not in out


def test_analyze_streaming_flags_only(capsys, fig_file):
    code, out, _ = run_cli(capsys, "analyze", fig_file("fig1b"))
    assert code == 1
    assert "FLAG|wcp|idx=7|var=y|loc=fig1b:8" in out
    assert "pairs=" not in out


def stdin_bytes(monkeypatch, data: bytes):
    # a locale-decoded stdin, as a C locale gives; cli must read its bytes
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="ascii", errors="surrogateescape")
    monkeypatch.setattr("sys.stdin", stdin)


def test_analyze_stdin(capsys, monkeypatch):
    stdin_bytes(monkeypatch, fixture("fig1b").serialize().encode())
    code, out, _ = run_cli(capsys, "analyze", "-")
    assert code == 1


@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_stdin_is_strict_utf8(capsys, monkeypatch, command):
    stdin_bytes(monkeypatch, b"T1|w|x|a\xffb\n")
    code, out, err = run_cli(capsys, command, "-")
    assert (code, out) == (2, "")
    assert err == "error: line 1: not valid UTF-8 (invalid start byte)\n"
    stdin_bytes(monkeypatch, "T1|w|x|caf\u00e9\n".encode())
    code, out, err = run_cli(capsys, command, "-")
    assert code == 0 and err.count("error") == 0


@pytest.mark.parametrize("command", ["analyze", "validate", "oracle"])
@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_non_utf8_names_its_line_from_stdin_and_files(capsys, monkeypatch, tmp_path,
                                                      command, newline):
    # the line number and reason do not depend on where the decoder's
    # chunks end, nor on the kind of line ending
    data = b"T1|w|x" + newline
    data = data * 5000 + b"T1|w|x|a\xffb" + newline + data
    bad = tmp_path / "bad.std"
    bad.write_bytes(data)
    expected = "error: line 5001: not valid UTF-8 (invalid start byte)\n"
    assert run_cli(capsys, command, str(bad)) == (2, "", expected)
    stdin_bytes(monkeypatch, data)
    assert run_cli(capsys, command, "-") == (2, "", expected)


def test_analyze_parse_error(capsys, tmp_path):
    p = tmp_path / "bad.std"
    p.write_text("T1|acquire|l\n")
    code, _, err = run_cli(capsys, "analyze", str(p))
    assert code == 2 and "unknown op" in err


def test_analyze_engine_error_names_the_event(capsys, tmp_path):
    p = tmp_path / "bad.std"
    p.write_text("T1|acq|lockA\n# comment\nT2|w|x|Main.java:3\nT2|acq|lockA\n")
    for argv in ([], ["--pairs"], ["--detector", "both"], ["--detector", "hb", "--pairs"]):
        code, out, err = run_cli(capsys, "analyze", *argv, str(p))
        assert code == 2 and out == ""
        assert err == "error: event 2 (T2|acq|lockA): acquire of lock lockA already held by thread T1\n"


@pytest.mark.parametrize("lines, message", [
    (["T1|acq|m", "T2|rel|m"], "error: event 1 (T2|rel|m): release of lock m not held by thread T2"),
    (["T1|fork|T2", "T3|fork|T2"], "error: event 1 (T3|fork|T2): fork of already-active thread T2"),
    (["T1|acq|l", "T1|acq|m", "T1|rel|l"],
     "error: event 2 (T1|rel|l): release of lock l does not match innermost open section"),
    (["T1|fork|T2", "T1|join|T2", "T2|w|x|f:3"],
     "error: event 2 (T2|w|x|f:3): thread T2 acts after being joined"),
])
def test_analyze_engine_errors_use_trace_names(capsys, tmp_path, lines, message):
    p = tmp_path / "bad.std"
    p.write_text("\n".join(lines) + "\n")
    for argv in ([], ["--detector", "hb"], ["--detector", "both", "--pairs"]):
        code, out, err = run_cli(capsys, "analyze", *argv, str(p))
        assert (code, out, err) == (2, "", message + "\n")


def test_analyze_prints_engine_warnings_by_name(capsys, tmp_path):
    p = tmp_path / "warn.std"
    p.write_text("T1|w|x\nT1|join|T9\nT2|w|x\n")
    for argv in ([], ["--detector", "hb"], ["--detector", "both"], ["--pairs"]):
        code, out, err = run_cli(capsys, "analyze", *argv, str(p))
        # one pass-1 engine, so one warning; stdout is the report alone
        assert code == 1 and "threads=3" in out and "warning" not in out
        assert err.splitlines()[0] == (
            "warning: event 1 (T1|join|T9): join of thread T9, which has not started: "
            "nothing to join, and it may not act later")
        assert err.count("warning:") == 1
    # a warning before an engine error is printed too, ahead of the error
    p.write_text("T1|join|T9\nT1|rel|m\n")
    code, out, err = run_cli(capsys, "analyze", str(p))
    assert (code, out) == (2, "")
    assert err == ("warning: event 0 (T1|join|T9): join of thread T9, which has not started: "
                   "nothing to join, and it may not act later\n"
                   "error: event 1 (T1|rel|m): release of lock m not held by thread T1\n")


def test_analyze_metrics_file(capsys, tmp_path, fig_file):
    mpath = tmp_path / "metrics.txt"
    code, out, _ = run_cli(capsys, "analyze", "--metrics", str(mpath), fig_file("fig1b"))
    text = mpath.read_text()
    assert "max_queue_load=2" in text and "time_s=" in text
    assert "time_s=" not in out    # timings never land on stdout


def test_metrics_file_that_is_the_input_is_refused(capsys, fig_file):
    trace = Path(fig_file("fig1b"))
    before = trace.read_bytes()
    # the same file under two spellings; opening it for the metrics would empty it
    for metrics in (str(trace), f"{trace.parent}/./{trace.name}"):
        code, out, err = run_cli(capsys, "analyze", "--metrics", metrics, str(trace))
        assert (code, out) == (2, "")
        assert err == f"error: metrics file {metrics} is the input trace\n"
        assert trace.read_bytes() == before


def test_metrics_file_that_stdin_reads_is_refused(fig_file):
    # analyze --metrics FILE - < FILE: the input is known only by its file status
    trace = Path(fig_file("fig1b"))
    before = trace.read_bytes()
    with open(trace, "rb") as stdin:
        proc = subprocess.run([sys.executable, "-m", "racepred.cli", "analyze", "--metrics",
                               str(trace), "-"], stdin=stdin, capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: metrics file {trace} is the input trace\n"
    assert trace.read_bytes() == before


def test_time_s_covers_pair_resolution_not_output(capsys, monkeypatch, tmp_path, fig_file):
    resolve, render = cli.resolve_pairs, RacePair.render

    def slow_resolve(*args, **kwargs):
        time.sleep(0.3)
        return resolve(*args, **kwargs)

    def slow_render(*args, **kwargs):
        time.sleep(1.5)
        return render(*args, **kwargs)
    monkeypatch.setattr(cli, "resolve_pairs", slow_resolve)
    monkeypatch.setattr(RacePair, "render", slow_render)
    mpath = tmp_path / "metrics.txt"
    code, out, err = run_cli(capsys, "analyze", "--pairs", "--metrics", str(mpath),
                             fig_file("fig1b"))
    assert code == 1 and out.count("RACE|") == 1
    (line,) = [l for l in err.splitlines() if l.startswith("time_s=")]
    assert line in mpath.read_text().splitlines()
    assert 0.3 <= float(line.split("=")[1]) < 1.5


def malformed_traces(rng, count):
    """Seeded malformed inputs: valid traces with a few lines corrupted, so that
    engine errors, parse errors and warnings fall anywhere in the input."""
    bad_lines = ["T1|bogus|x", "T1|rel|l0", "T9|join|T8", "T1|acq|l0", "T2|fork|T1",
                 "T1|w", "|w|x", "T1|w|x|", "T3|rel|l1", "T1|join|T1"]
    for seed in range(count):
        params = GenParams(threads=2 + seed % 3, locks=1 + seed % 2, vars=2, events=20 + seed % 30,
                           seed=900 + seed)
        lines = gen_random(params).serialize().splitlines()
        for _ in range(1 + seed % 3):
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(bad_lines))
        yield "\n".join(lines) + "\n"


def test_pairs_reports_the_same_errors_as_streaming(capsys, tmp_path):
    # --pairs reads its input as streaming mode does, so the first fault in
    # the input decides the exit code and stderr, whichever kind it is
    rng = random.Random(21)
    path = tmp_path / "bad.std"
    codes = set()
    for i, text in enumerate(malformed_traces(rng, 60)):
        path.write_text(text)
        for detector in ("wcp", "hb", "both"):
            runs = []
            for mode in ([], ["--pairs"]):
                code, _, err = run_cli(capsys, "analyze", "--detector", detector, *mode, str(path))
                runs.append((code, [l for l in err.splitlines() if not l.startswith("time_s=")]))
            assert runs[0] == runs[1], (i, detector, text)
            codes.add(runs[0][0])
    assert codes == {1, 2}


def test_analyze_dump_timestamps(capsys, fig_file):
    code, out, _ = run_cli(capsys, "analyze", "--dump-timestamps", fig_file("fig1b"))
    assert "0|t1|C=[1]|P=[0]|H=[1]" in out
    assert "7|t2|C=[0,2]" in out


def test_validate_command(capsys, fig_file, tmp_path):
    code, out, _ = run_cli(capsys, "validate", fig_file("fig1a"))
    assert code == 0 and "ok=true" in out
    p = tmp_path / "bad.std"
    p.write_text("T1|acq|l\nT2|acq|l\n")
    code, out, _ = run_cli(capsys, "validate", str(p))
    assert code == 2
    assert "VIOLATION|error|DoubleAcquire|idx=1" in out and "ok=false" in out
    # validate streams: a parse error after a violation still prints no report
    p.write_text("T1|acq|l\nT2|acq|l\nT1|bad\n")
    assert run_cli(capsys, "validate", str(p)) == \
        (2, "", "error: line 3: expected tid|op|operand[|loc], got 2 field(s)\n")


def test_generate_fixture_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "generate", "--fixture", "fig1b")
    assert code == 0
    assert out == fixture("fig1b").serialize()


def test_generate_needs_exactly_one_mode(capsys):
    # argparse enforces the rule: usage, one error line, exit 2
    for argv, message in (
            ([], "one of the arguments --fixture --bits --random is required"),
            (["--fixture", "fig1b", "--random"],
             "argument --random: not allowed with argument --fixture"),
            (["--bits", "1,0", "--fixture", "fig1b"],
             "argument --fixture: not allowed with argument --bits")):
        with pytest.raises(SystemExit) as exc:
            main(["generate", *argv])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert out.err.endswith(f"racepred generate: error: {message}\n")


# a non-default value for every GenParams field
GEN_VALUES = {"threads": 5, "locks": 0, "vars": 1, "events": 25, "p_lock": 0.6, "p_write": 0.9,
              "max_nesting": 0, "seed": 7}


def test_generate_values_cover_every_genparams_field():
    assert [f.name for f in fields(GenParams)] == list(GEN_VALUES)
    assert all(GEN_VALUES[f.name] != f.default for f in fields(GenParams))


@pytest.mark.parametrize("field", [None, *GEN_VALUES])
def test_generate_random_options_are_genparams_fields(capsys, field):
    # --random's options are GenParams' fields, with its defaults
    argv = [] if field is None else [f"--{field.replace('_', '-')}", str(GEN_VALUES[field])]
    params = GenParams() if field is None else GenParams(**{field: GEN_VALUES[field]})
    assert run_cli(capsys, "generate", "--random", *argv) == (0, gen_random(params).serialize(), "")


def test_generate_bits_and_analyze(capsys, tmp_path):
    eq = tmp_path / "eq.std"
    ne = tmp_path / "ne.std"
    assert main(["generate", "--bits", "101,101", "-o", str(eq)]) == 0
    assert main(["generate", "--bits", "101,100", "-o", str(ne)]) == 0
    capsys.readouterr()
    code_eq, out_eq, _ = run_cli(capsys, "analyze", "--pairs", str(eq))
    code_ne, out_ne, _ = run_cli(capsys, "analyze", "--pairs", str(ne))
    assert code_eq == 0 and "RACE|" not in out_eq
    assert code_ne == 1
    z_lines = [l for l in out_ne.splitlines() if l.startswith("RACE|")]
    # the two w(z) events sit on rows 23 and 38 of the 3-bit gadget
    assert any("eq3:23" in l and "eq3:38" in l for l in z_lines)


def test_oracle_command_fig3(capsys, fig_file):
    code, out, _ = run_cli(capsys, "oracle", fig_file("fig3"))
    assert code == 1        # wcp sees the race
    assert "PREC|cp|5|17" in out.splitlines()
    assert "PREC|wcp|5|17" not in out.splitlines()
    assert "RACEPAIR|wcp|5|17|fig3:3|fig3:12" in out
    assert "RACEPAIR|cp|" not in out and "RACEPAIR|hb|" not in out


def test_oracle_bound(capsys, fig_file):
    code, _, err = run_cli(capsys, "oracle", "--bound", "5", fig_file("fig3"))
    assert code == 2 and "bound" in err
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--bound", "-1", fig_file("fig3")])
    assert exc.value.code == 2
    assert "argument --bound: must be >= 0, got -1" in capsys.readouterr().err
    code, _, err = run_cli(capsys, "oracle", "--bound", "0", fig_file("fig3"))
    assert (code, err) == (2, "error: 18 events exceeds oracle bound 0\n")


def test_determinism_byte_identical(capsys, fig_file):
    path = fig_file("fig5")
    _, out1, _ = run_cli(capsys, "analyze", "--detector", "both", "--pairs", path)
    _, out2, _ = run_cli(capsys, "analyze", "--detector", "both", "--pairs", path)
    assert out1 == out2


def random_and_forky_traces(tmp_path):
    traces = [gen_random(GenParams(threads=2 + seed % 6, locks=1 + seed % 3, vars=1 + seed % 4,
                                   events=30 + seed * 5, p_lock=0.4, seed=700 + seed))
              for seed in range(12)]
    traces += [gen_forky(seed) for seed in range(12)]
    paths = []
    for i, tr in enumerate(traces):
        p = tmp_path / f"t{i}.std"
        p.write_text(tr.serialize())
        paths.append(str(p))
    return paths


def test_both_equals_wcp_then_hb(capsys, tmp_path):
    # one engine pass serves both detectors: each block of --detector both
    # is byte for byte the output of that detector alone
    for path in random_and_forky_traces(tmp_path):
        for mode in ([], ["--pairs"]):
            outs = {det: run_cli(capsys, "analyze", "--detector", det, *mode, path)
                    for det in ("wcp", "hb", "both")}
            assert outs["both"][1] == outs["wcp"][1] + outs["hb"][1], (path, mode)
            assert outs["both"][0] == max(outs["wcp"][0], outs["hb"][0])


def test_both_builds_one_pass_one_engine(capsys, monkeypatch, fig_file):
    built = []
    init = wcp_engine.WcpEngine.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)
    monkeypatch.setattr(wcp_engine.WcpEngine, "__init__", counting_init)
    code, out, _ = run_cli(capsys, "analyze", "--detector", "both", fig_file("fig1b"))
    assert built == ["WcpEngine"]
    assert "FLAG|wcp|idx=7" in out and "detector=hb" in out
    built.clear()
    run_cli(capsys, "analyze", "--detector", "hb", fig_file("fig1b"))
    assert built == ["HbEngine"]
    # --pairs resolves its pairs from pass-1 records: no second engine, no events kept
    traces = []
    resolve = cli.resolve_pairs

    def recording_resolve(trace, *args, **kwargs):
        traces.append(trace)
        return resolve(trace, *args, **kwargs)
    monkeypatch.setattr(cli, "resolve_pairs", recording_resolve)
    for detector, engines in (("both", ["WcpEngine"]), ("hb", ["HbEngine"]),
                              ("wcp", ["WcpEngine"])):
        built.clear()
        code, out, _ = run_cli(capsys, "analyze", "--detector", detector, "--pairs",
                               fig_file("fig1b"))
        assert built == engines and out.count("pairs=") == (2 if detector == "both" else 1)
    assert len(traces) == 4 and all(trace.events == [] for trace in traces)


def test_both_dump_order_does_not_depend_on_buffering(capsys, tmp_path):
    # per event, the WCP line and then its HB line, with or without --pairs;
    # the reports after the timestamp lines differ, so only those compare
    strip = lambda text: [l for l in text.splitlines() if l[:1].isdigit() or l.startswith("HB|")]
    for path in random_and_forky_traces(tmp_path)[::4]:
        _, streamed, _ = run_cli(capsys, "analyze", "--detector", "both", "--dump-timestamps", path)
        _, buffered, _ = run_cli(capsys, "analyze", "--detector", "both", "--dump-timestamps",
                                 "--pairs", path)
        assert strip(buffered) == strip(streamed)
        lines = streamed.splitlines()
        assert lines[0].startswith("0|") and lines[1].startswith("HB|0|")


@pytest.mark.parametrize("argv", [
    ["analyze", "{bad}"],
    ["analyze", "--detector", "both", "--pairs", "{bad}"],
    ["validate", "{bad}"],
    ["oracle", "{bad}"],
    ["validate", "{missing}"],
    ["oracle", "{missing}"],
    ["analyze", "--metrics", "{missing}", "{good}"],
    ["generate", "--fixture", "fig1b", "-o", "{missing}"],
    ["generate", "--random", "--vars", "0", "--locks", "0"],   # could emit no event
    ["generate", "--bits", ""],
])
def test_bad_input_or_path_is_one_error_line(capsys, tmp_path, fig_file, argv):
    bad = tmp_path / "bad.std"
    bad.write_bytes(b"T1|w|x\n\xff|w|y\n")
    paths = {"bad": str(bad), "missing": str(tmp_path / "no" / "such"), "good": fig_file("fig1b")}
    code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    # exit 1 would read as "races found"; no stdout, not even a partial report
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    if "{bad}" in argv:
        assert err == "error: line 2: not valid UTF-8 (invalid start byte)\n"


def test_pair_budget_rejects_negative_values(capsys, fig_file):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--pairs", "--pair-budget", "-1", fig_file("fig1b")])
    assert exc.value.code == 2 and "--pair-budget" in capsys.readouterr().err
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # the note is the only report
        code, out, _ = run_cli(capsys, "analyze", "--pairs", "--pair-budget", "0", fig_file("fig1b"))
    assert code == 1
    assert "# note|wcp|pair budget 0 exceeded at event 0; races on variable y degraded" in out


def test_degraded_pairs_have_no_first_component(tmp_path):
    # a degraded flag pairs with "?" at index -1 and no distance, one note
    # names the variable, and stderr, as the process writes it, carries
    # only the run record
    path = tmp_path / "t.std"
    path.write_text("T1|w|x|a\nT2|w|x|b\nT2|w|x|c\nT1|w|y|d\nT2|w|y|e\n")
    proc = subprocess.run([sys.executable, "-m", "racepred.cli", "analyze", "--pairs",
                           "--pair-budget", "0", str(path)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert proc.returncode == 1
    out, err = proc.stdout, proc.stderr
    assert [line for line in out.splitlines() if line.startswith(("# note|wcp|pair", "RACE"))] == [
        "# note|wcp|pair budget 0 exceeded at event 0; races on variable x degraded "
        "to second components",
        "# note|wcp|pair budget 0 exceeded at event 3; races on variable y degraded "
        "to second components",
        "RACE|wcp|?|b|count=1|mindist=-1|ex=-1,1|sound=0",
        "RACE|wcp|?|c|count=1|mindist=-1|ex=-1,2|sound=0",
        "RACE|wcp|?|e|count=1|mindist=-1|ex=-1,4|sound=0",
    ]
    assert re.fullmatch(RUN_RECORD, err)


@pytest.mark.parametrize("detector", ["wcp", "hb", "both"])
@pytest.mark.parametrize("mode", [[], ["--pairs"]])
def test_pass1_engine_is_freed_before_pass2_and_output(capsys, monkeypatch, fig_file,
                                                       detector, mode):
    # the pass-1 engine's section logs must not live on through pass 2 or
    # while the flags render
    engines = []
    init = wcp_engine.WcpEngine.__init__

    def tracked_init(self, *args, **kwargs):
        engines.append(weakref.ref(self))
        init(self, *args, **kwargs)
    monkeypatch.setattr(wcp_engine.WcpEngine, "__init__", tracked_init)
    alive = []
    for name in ("resolve_pairs", "render_flags"):
        def checked(*args, _wrapped=getattr(cli, name), **kwargs):
            alive.append(engines[0]() is not None)
            return _wrapped(*args, **kwargs)
        monkeypatch.setattr(cli, name, checked)
    code, _, _ = run_cli(capsys, "analyze", "--detector", detector, *mode, fig_file("fig1b"))
    assert code == (0 if detector == "hb" else 1)     # HB misses fig1b's race
    assert alive == [False] * (2 if detector == "both" else 1)


def test_readme_analyze_synopsis_lists_every_option():
    # every subcommand's README synopsis names each of its long options
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme[readme.index("racepred analyze "):]
    block = block[:block.index("```")]
    sub = next(a for a in build_parser()._actions if a.choices and "analyze" in a.choices)
    synopses = re.split(r"^racepred ", block, flags=re.M)[1:]
    assert [s.split()[0] for s in synopses] == list(sub.choices)
    for synopsis in synopses:
        options = {opt for action in sub.choices[synopsis.split()[0]]._actions
                   for opt in action.option_strings if opt.startswith("--") and opt != "--help"}
        assert set(re.findall(r"--[a-z][a-z-]*", synopsis)) == options, synopsis


@pytest.mark.parametrize("text", ["T1|w|x\nT1|bogus|y\n", "T1|w|x\nT2|rel|l\n"])
@pytest.mark.parametrize("detector", ["wcp", "hb", "both"])
@pytest.mark.parametrize("mode", [[], ["--pairs"]])
def test_dump_timestamps_of_a_failed_run_print_nothing(capsys, tmp_path, text, detector, mode):
    # a parse or engine error after the first event leaves no partial dump
    path = tmp_path / "bad.std"
    path.write_text(text)
    code, out, err = run_cli(capsys, "analyze", "--detector", detector, "--dump-timestamps",
                             *mode, str(path))
    assert (code, out) == (2, "")
    assert [l for l in err.splitlines() if l.startswith("error:")] == err.splitlines()[-1:]
    assert err.count("error:") == 1


def test_oracle_rejects_the_traces_analyze_rejects(capsys, tmp_path):
    path = tmp_path / "t.std"
    path.write_text("T1|acq|l\nT2|acq|l\nT1|w|x\nT2|w|x\nT1|rel|l\nT2|rel|l\n")
    assert run_cli(capsys, "oracle", str(path)) == \
        (2, "", "error: event 1 (T2|acq|l): acquire of lock l already held by thread T1\n")
    # seeded fuzz over short traces of every event kind and some malformed
    # lines: oracle exits 2 exactly when analyze does, with the same error
    # line, the first fault in input order; on warnings only (re-entrant,
    # dangling, unknown joins) it still answers
    rng = random.Random(53)
    operands = {"acq": ["l", "m"], "rel": ["l", "m"], "r": ["x"], "w": ["x"],
                "fork": ["T1", "T2", "T3"], "join": ["T1", "T2", "T3"]}
    malformed = ["T1|bogus|x", "T2|w", "T3|r|x y"]
    codes = set()
    for _ in range(400):
        lines = []
        for _ in range(rng.randrange(1, 10)):
            op = rng.choice(list(operands))
            lines.append(f"{rng.choice(['T1', 'T2', 'T3'])}|{op}|{rng.choice(operands[op])}")
        if rng.random() < 0.25:
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(malformed))
        path.write_text("\n".join(lines) + "\n")
        a_code, _, a_err = run_cli(capsys, "analyze", str(path))
        o_code, o_out, o_err = run_cli(capsys, "oracle", str(path))
        errors = [l for l in a_err.splitlines() if l.startswith("error:")]
        assert (o_code == 2) == (a_code == 2), lines
        assert o_err.splitlines() == errors, lines
        if o_code == 2:
            assert o_out == ""
        codes.add((a_code, o_code))
    assert {(2, 2), (0, 0), (1, 1)} <= codes


def test_every_engine_error_kind_and_validate_agrees_with_analyze(capsys, tmp_path):
    # a fuzz family with three locks and up to 29 events, long enough for
    # an acquire of l, an acquire of m and a release of l by one thread to
    # line up: the pinned family (two locks, at most 13 events) never makes
    # BadNesting.  Each engine runs past an error, which changes no state.
    rng = random.Random(29)
    operands = {"acq": ["l", "m", "n"], "rel": ["l", "m", "n"], "r": ["x", "y"],
                "w": ["x", "y"], "fork": ["T1", "T2", "T3"], "join": ["T1", "T2", "T3"]}
    kinds = {WcpEngine: set(), HbEngine: set()}
    path = tmp_path / "t.std"
    accepted = 0
    for _ in range(200):
        lines = []
        for _ in range(rng.randrange(1, 30)):
            op = rng.choice(list(operands))
            lines.append(f"{rng.choice(['T1', 'T2', 'T3'])}|{op}|{rng.choice(operands[op])}")
        tr = parse_trace(lines)
        for engine_cls, seen in kinds.items():
            engine = engine_cls()
            for e in tr.events:
                try:
                    engine.process(e)
                except EngineError as exc:
                    seen.add(exc.kind)
        ok = validate(tr).ok
        accepted += ok
        path.write_text("\n".join(lines) + "\n")
        for detector in ("wcp", "hb"):
            code, _, _ = run_cli(capsys, "analyze", "--detector", detector, str(path))
            assert (code != 2) == ok, (detector, lines)
    assert 5 <= accepted < 195
    for seen in kinds.values():
        assert seen == {"DoubleAcquire", "UnmatchedRelease", "BadNesting",
                        "ForkOfKnownThread", "JoinOfLiveThread"}


def test_metrics_file_is_the_summary_blocks_then_the_run_record(capsys, tmp_path, fig_file):
    mpath = tmp_path / "metrics.txt"
    for argv, detectors in (([], ["wcp"]), (["--detector", "both", "--pairs"], ["wcp", "hb"]),
                            (["--detector", "hb", "--dump-timestamps"], ["hb"])):
        code, out, err = run_cli(capsys, "analyze", "--metrics", str(mpath), *argv,
                                 fig_file("fig1b"))
        summaries = [line for line in out.splitlines() if re.match(r"[a-z_]+=", line)]
        assert [line[9:] for line in summaries if line.startswith("detector=")] == detectors
        assert re.fullmatch(RUN_RECORD, err)
        assert mpath.read_text().splitlines() == summaries + err.splitlines()


def test_soundness_note_appears_exactly_over_a_sound_wcp_pair(capsys, tmp_path):
    # the note says only the first reported pair is sound, so it needs one:
    # a degraded first flag, as at budget 0, leaves every wcp pair unsound
    path = tmp_path / "t.std"
    traces = [fixture(name) for name in FIXTURE_NAMES]
    traces += [gen_random(GenParams(threads=2 + seed % 3, locks=seed % 3, vars=1 + seed % 3,
                                    events=8 + seed % 40, seed=seed)) for seed in range(500)]
    texts = [tr.serialize() for tr in traces] + ["T1|w|x|a\nT2|w|x|b\nT2|w|x|c\n"]
    seen = set()
    for text in texts:
        path.write_text(text)
        for budget in ([], ["--pair-budget", "3"], ["--pair-budget", "0"]):
            for detector in ("wcp", "both"):
                _, out, _ = run_cli(capsys, "analyze", "--pairs", "--detector", detector,
                                    *budget, str(path))
                lines = out.splitlines()
                sound = any(line.startswith("RACE|wcp|") and line.endswith("|sound=1")
                            for line in lines)
                assert (SOUND_NOTE in lines) == sound, (text, budget, detector)
                seen.add((tuple(budget), sound, "RACE|wcp|" in out))
    # every budget reports races, the note shows at the default and at 3,
    # and unsound pairs alone show at 3 and at 0
    assert seen >= {((), True, True), (("--pair-budget", "3"), True, True),
                    (("--pair-budget", "3"), False, True), (("--pair-budget", "0"), False, True)}


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="peak_rss_mb reads /proc")
def test_peak_rss_is_the_programs_own_not_its_spawners(fig_file):
    # ru_maxrss would carry the spawner's high-water mark across exec
    path = fig_file("fig5")

    def reported_peak() -> float:
        proc = subprocess.run([sys.executable, "-m", "racepred.cli", "analyze", path],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
        assert proc.returncode == 1 and re.fullmatch(RUN_RECORD, proc.stderr)
        return float(proc.stderr.split("peak_rss_mb=")[1])
    fresh = reported_peak()
    ballast = b"\x01" * (150 << 20)    # written, so resident
    held = reported_peak()
    del ballast
    assert held < 150 and abs(held - fresh) < 5, (fresh, held)


def test_no_peak_rss_line_where_proc_cannot_be_read(capsys, monkeypatch, fig_file):
    path = fig_file("fig1b")

    def no_proc(file, *args, **kwargs):
        raise FileNotFoundError(file)
    monkeypatch.setattr(cli, "open", no_proc, raising=False)    # /proc/self/status too
    code, _, err = run_cli(capsys, "analyze", path)
    assert code == 1 and re.fullmatch(r"time_s=\d+\.\d{3}\n", err)
