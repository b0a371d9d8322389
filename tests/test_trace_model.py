import gc
import random

import pytest
from helpers import conflicting, errors_of, warnings_of
from hypothesis import given, settings
from hypothesis import strategies as st

from racepred.hb_engine import HbEngine, validate
from racepred.trace_model import (ACQUIRE, READ, WRITE, Event, ParseError,
                                  Trace, iter_parse, parse_trace)
from racepred.tracegen import GenParams, fixture, gen_random
from racepred.wcp_engine import EngineError, WcpEngine


def parse(lines):
    return parse_trace(lines)


def test_parse_full_line():
    tr = parse(["T1|acq|l|Main.java:10"])
    e = tr.events[0]
    assert (e.kind, tr.thread_names[e.tid], tr.lock_names[e.op], e.loc) == \
        (ACQUIRE, "T1", "l", "Main.java:10")


def test_parse_loc_absent():
    tr = parse(["T2|r|x"])
    e = tr.events[0]
    assert e.kind == READ and e.loc is None
    assert e.loc_or_default() == "idx:0"


def test_parse_rejects_unknown_op():
    with pytest.raises(ParseError):
        parse(["T1|acquire|l"])


def test_parse_rejects_empty_operand_and_short_lines():
    with pytest.raises(ParseError):
        parse(["T1|r|"])
    with pytest.raises(ParseError):
        parse(["T1|r"])


def test_parse_rejects_bad_ids():
    with pytest.raises(ParseError):
        parse(["T 1|r|x"])
    # after good lines, so that their names are interned and the bad ones new
    good = ["T1|w|x", "T1|acq|l", "T1|rel|l", "T1|fork|T2"]
    for line, reason in (("T 1|r|x", "bad thread id 'T 1'"),
                         ("|r|x", "bad thread id ''"),
                         ("T 1|r|x y", "bad thread id 'T 1'"),     # the thread is checked first
                         ("T1|w|x y", "bad operand id 'x y'"),
                         ("T1|acq|l!", "bad operand id 'l!'"),
                         ("T1|fork|T 2", "bad operand id 'T 2'"),  # fork and join operands
                         ("T1|join|T 2", "bad operand id 'T 2'"),  # are threads
                         ("T 1|r|", "empty operand")):             # checked before any name
        with pytest.raises(ParseError) as exc:
            parse(good + [line])
        assert str(exc.value) == f"line 5: {reason}"


def test_parse_rejects_bytes_that_are_not_utf8():
    # open_trace turns such bytes into lone surrogates; comments count too
    for lines, reason in ((["T1|w|x", "T1|w|x|a\udcffb"], "invalid start byte"),
                          (["T1|w|x", "# caf\udcc3"], "unexpected end of data")):
        with pytest.raises(ParseError) as exc:
            parse(lines)
        assert str(exc.value) == f"line 2: not valid UTF-8 ({reason})"
    assert parse(["T1|w|x|caf\u00e9"]).events[0].loc == "caf\u00e9"


def test_parse_skips_comments_and_blanks():
    tr = parse(["# header", "", "T1|w|x", "   ", "# done"])
    assert tr.n_events == 1


def test_iter_parse_keeps_no_events():
    # streaming analyze relies on this: memory must not grow with the trace
    def live_events():
        gc.collect()
        return sum(type(o) is Event for o in gc.get_objects())

    lines = ["# header", ""] + fixture("fig3").serialize().splitlines() * 40
    b = Trace()
    before = live_events()
    idxs = [e.idx for e in iter_parse(lines, b)]
    assert live_events() == before
    assert idxs == list(range(len(lines) - 2))
    assert b.thread_names == ["t1", "t2", "t3"]
    assert b.n_events == len(idxs) and b.events == []


def test_loc_may_contain_bars():
    tr = parse(["T1|w|x|a|b|c"])
    assert tr.events[0].loc == "a|b|c"
    assert tr.serialize() == "T1|w|x|a|b|c\n"


def test_roundtrip_modulo_comments():
    text = "T1|acq|l|f:1\nT2|w|x\nT1|rel|l\n"
    tr = parse(("# c\n" + text + "\n").splitlines())
    assert tr.serialize() == text


def test_interning_is_dense_and_namespaced():
    tr = parse(["T1|acq|a", "T1|rel|a", "T1|w|a", "T2|r|a"])
    # "a" as a lock and "a" as a variable live in different tables
    assert tr.n_locks == 1 and tr.n_vars == 1 and tr.n_threads == 2
    assert [e.op for e in tr.events] == [0, 0, 0, 0]


def test_conflicting():
    w1 = Event(0, 0, WRITE, 0)
    r2 = Event(1, 1, READ, 0)
    r1 = Event(2, 0, READ, 0)
    assert conflicting(w1, r2)
    assert not conflicting(r1, r2)          # both reads
    assert not conflicting(w1, r1)          # same thread
    assert not conflicting(w1, Event(3, 1, WRITE, 1))   # different variable


def test_validate_clean_fixture():
    from racepred.tracegen import fixture
    rep = validate(fixture("fig1a"))
    assert rep.ok and not rep.violations


def test_validate_double_acquire():
    rep = validate(parse(["T1|acq|l", "T2|acq|l"]))
    assert not rep.ok
    v = errors_of(rep)[0]
    assert v.kind == "DoubleAcquire" and v.idx == 1


def test_validate_bad_nesting():
    rep = validate(parse(["T1|acq|l", "T1|acq|m", "T1|rel|l"]))
    assert not rep.ok
    assert any(v.kind == "BadNesting" and v.idx == 2 for v in errors_of(rep))


def test_validate_unmatched_release():
    rep = validate(parse(["T1|rel|l"]))
    assert any(v.kind == "UnmatchedRelease" for v in errors_of(rep))


def test_validate_reentrant_is_warning():
    rep = validate(parse(["T1|acq|l", "T1|acq|l", "T1|rel|l", "T1|rel|l"]))
    assert rep.ok
    assert [v.kind for v in warnings_of(rep)] == ["ReentrantFlattened"]
    # a flattened re-acquire is still an event of its thread
    rep = validate(parse(["T2|acq|l", "T1|join|T2", "T2|acq|l"]))
    assert [(v.kind, v.idx) for v in errors_of(rep)] == [("JoinOfLiveThread", 2)]


def test_validate_dangling_is_warning():
    rep = validate(parse(["T1|acq|l", "T1|w|x"]))
    assert rep.ok
    assert [v.kind for v in warnings_of(rep)] == ["DanglingCriticalSection"]


def test_validate_fork_join():
    rep = validate(parse(["T1|w|x", "T2|fork|T1"]))
    assert any(v.kind == "ForkOfKnownThread" for v in errors_of(rep))
    rep = validate(parse(["T1|fork|T1"]))
    assert [v.kind for v in errors_of(rep)] == ["ForkOfKnownThread"]
    # a joined thread that acts again is reported where it acts
    rep = validate(parse(["T1|fork|T2", "T2|w|x", "T1|join|T2", "T2|w|x"]))
    assert [(v.kind, v.idx) for v in errors_of(rep)] == [("JoinOfLiveThread", 3)]
    rep = validate(parse(["T1|fork|T2", "T2|w|x", "T1|join|T2"]))
    assert rep.ok
    rep = validate(parse(["T1|w|x", "T1|join|T9"]))
    assert rep.ok and [(v.kind, v.idx) for v in warnings_of(rep)] == [("JoinOfUnknownThread", 1)]
    rep = validate(parse(["T1|join|T9", "T9|w|x"]))
    assert [(v.kind, v.idx, v.is_warning) for v in rep.violations] == \
        [("JoinOfUnknownThread", 0, True), ("JoinOfLiveThread", 1, False)]


@given(st.integers(min_value=0, max_value=500))
@settings(deadline=None, max_examples=60)
def test_generated_traces_roundtrip_and_validate(i):
    params = GenParams(threads=1 + i % 4, locks=i % 4, vars=1 + i % 3,
                       events=8 + i % 30, max_nesting=1 + i % 3, seed=i)
    tr = gen_random(params)
    text = tr.serialize()
    again = parse_trace(text.splitlines())
    assert again.serialize() == text
    assert validate(tr).ok


@given(st.integers(min_value=0, max_value=500))
@settings(deadline=None, max_examples=40)
def test_match_exists_between_same_lock_acquires(i):
    params = GenParams(threads=2 + i % 3, locks=1 + i % 3, vars=2,
                       events=10 + i % 30, p_lock=0.5, seed=1000 + i)
    tr = gen_random(params)
    last_acq: dict[int, int] = {}
    released: dict[int, bool] = {}
    for e in tr.events:
        if e.kind == ACQUIRE:
            if e.op in last_acq:
                assert released[e.op], f"acquire of lock {e.op} at {e.idx} before match released"
            last_acq[e.op] = e.idx
            released[e.op] = False
        elif e.kind == 3:   # RELEASE
            released[e.op] = True


def test_validate_raises_an_engine_error_without_a_kind(monkeypatch):
    # a broken invariant is no rule of the input: validate reports nothing
    # and raises it, with the event
    def broken(self, t, x, kind):
        raise EngineError("invariant broken")
    monkeypatch.setattr(HbEngine, "access", broken)
    tr = parse_trace(["T1|acq|l", "T1|w|x"])
    with pytest.raises(EngineError, match="invariant broken") as exc:
        validate(tr)
    assert exc.value.kind is None and exc.value.event is tr.events[1]


def test_validate_ok_implies_engines_accept():
    # seeded fuzz over short traces of every event kind, T4 never acting
    # but joined: validate accepts a trace exactly when both engines run
    # it, and an engine that raises does so at validate's first error
    rng = random.Random(3)
    operands = {"acq": ["l", "m"], "rel": ["l", "m"], "r": ["x", "y"], "w": ["x", "y"],
                "fork": ["T1", "T2", "T3"], "join": ["T1", "T2", "T3", "T4"]}
    accepted = 0
    for _ in range(4000):
        lines = []
        for _ in range(rng.randrange(1, 9)):
            op = rng.choice(list(operands))
            lines.append(f"{rng.choice(['T1', 'T2', 'T3'])}|{op}|{rng.choice(operands[op])}")
        tr = parse(lines)
        rep = validate(tr)
        accepted += rep.ok
        for engine_cls in (WcpEngine, HbEngine):
            eng = engine_cls(invariant_checks=True)
            try:
                for e in tr.events:
                    raised = e
                    eng.process(e)
            except EngineError as exc:
                first = errors_of(rep)[0] if errors_of(rep) else None
                assert first and (first.idx, first.kind) == (raised.idx, exc.kind), \
                    (engine_cls.detector, lines, exc)
            else:
                assert rep.ok, (engine_cls.detector, lines, rep.violations)
    assert accepted > 500


def parse_fuzz_streams(rng, count):
    """Seeded input streams that repeat a small pool of valid lines, so a
    parse cache keyed on (thread, op, operand) gets hits, mixed with
    comments, blank lines and malformed lines."""
    valid = []
    for tid in ("T1", "T2", "t.3"):
        for op, operands in (("r", ("x", "y")), ("w", ("x",)), ("acq", ("l",)),
                             ("rel", ("l",)), ("fork", ("T2",)), ("join", ("t.3",))):
            for operand in operands:
                key = f"{tid}|{op}|{operand}"
                valid += [key, f"{key}|Main.java:1", f"{key}|Main.java:2", f"{key}|a|b|c",
                          f"{key}|", f"{key}|café"]
    other = ["# comment", "# a|b|c", "# a|b|c|d", "", "   ", "\t# indented|w|x|y", "T1|w|x y",
             "T1|w|x ", "T2|r|y\r", "T1|r|x\t|loc",
             "T1|bogus|x|loc", "T1|acquire|l", "T1|r||loc", "T1|r|", "T1|r", "T1", "|r|x|loc",
             "T 1|r|x|loc", " T1|r|x|loc", "T1|w|x y|loc", "T1|acq|l!|loc", "T1|fork|T 2|a",
             "T1|w|x|a\udcffb", "T1|w|x\udcff|loc", "# caf\udcc3", "T1\udcff|w|x"]
    for _ in range(count):
        pool = rng.sample(valid, 8)
        lines = []
        for _ in range(rng.randrange(1, 80)):
            line = rng.choice(other) if rng.random() < 0.02 else rng.choice(pool)
            lines.append(line + "\n" if rng.random() < 0.9 else line)
        yield lines


def parse_each(lines):
    """Reference: parse_line on every line, with a fresh Trace."""
    trace, events, error = Trace(), [], None
    try:
        for line_no, line in enumerate(lines, 1):
            e = trace.parse_line(line, line_no)
            if e is not None:
                events.append(e)
    except ParseError as exc:
        error = (str(exc), exc.line_no)
    return trace, events, error


def test_iter_parse_cache_matches_parse_line():
    # iter_parse parses a repeated (thread, op, operand) once; events, name
    # tables, counts and errors must be those of parsing every line alone
    rng = random.Random(15)
    hits = errors = 0
    for lines in parse_fuzz_streams(rng, 1500):
        ref, ref_events, ref_error = parse_each(lines)
        trace, events, error = Trace(), [], None
        parsed = []
        parse_line = trace.parse_line
        trace.parse_line = lambda line, line_no: parsed.append(line_no) or parse_line(line, line_no)
        try:
            events.extend(iter_parse(lines, trace))
        except ParseError as exc:
            error = (str(exc), exc.line_no)
        assert error == ref_error, lines
        assert [(e.idx, e.tid, e.kind, e.op, e.loc) for e in events] == \
            [(e.idx, e.tid, e.kind, e.op, e.loc) for e in ref_events], lines
        assert (trace.thread_names, trace.lock_names, trace.var_names, trace.n_events) == \
            (ref.thread_names, ref.lock_names, ref.var_names, ref.n_events), lines
        hits += (len(lines) if error is None else error[1]) - len(parsed)
        errors += error is not None
    assert hits > 15_000 and 300 < errors < 1000
