"""Trace parsing: which prompts ``parse_trace`` accepts, where a token id
past the vocabulary or a malformed line is refused (a number the engine
cannot hold included), the CLI's seed, the speculation ``gen-trace``
writes, and that ``run`` on any trace of JSON values exits 0 or 2."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tileserve import cli
from tileserve.engine import Engine
from tileserve.trace import ParseError, parse_trace


@pytest.mark.parametrize(
    "prompt, accepted",
    [
        ([3, 0, 127], True),
        ([2**70], True),  # no vocabulary bound is given here
        ([True, False, 1], False),  # JSON booleans are not token ids
        ([], False),
        ([1, -1], False),
        ([1, 2.0], False),
        ([1.5], False),
        ([1.5, -0.5], False),  # floats whose sum is a whole number
        ([1, float("inf")], False),
        (["1"], False),
        (["a", "b"], False),
        ([1, "a"], False),
        ([1, [2]], False),
        ([[1], [2]], False),
        ([None], False),
        ([{"t": 1}], False),
        ("12", False),
        (7, False),
        (None, False),
    ],
)
def test_prompt_must_be_a_nonempty_list_of_token_ids(tmp_path, prompt, accepted):
    path = tmp_path / "trace.jsonl"
    row = {"id": "r0", "arrival": 0, "prompt": prompt, "output_len": 2, "spec": None}
    path.write_text(json.dumps(row) + "\n")
    if accepted:
        (request,) = parse_trace(path)
        assert request.prompt == prompt
    else:
        with pytest.raises(ParseError, match="line 1: prompt must be a nonempty list of token ids"):
            parse_trace(path)


GOOD_ROW = {"id": "r0", "arrival": 0, "prompt": [1, 2], "output_len": 2, "spec": None}
NEXT_ROW = {**GOOD_ROW, "id": "r1"}  # the row after it, with one field edited


@pytest.mark.parametrize(
    "line, message",
    [
        ("5", "expected a JSON object"),
        ("[1, 2]", "expected a JSON object"),
        ('"r0"', "expected a JSON object"),
        ("null", "expected a JSON object"),
        *[
            (json.dumps({**NEXT_ROW, "id": req_id}), "id must be a string or an integer")
            for req_id in (None, True, 1.0, 7.5, ["r1"], {"id": "r1"})
        ],
        *[
            (json.dumps({**NEXT_ROW, "arrival": arrival}), "arrival must be a non-negative integer")
            for arrival in ("x", 1.7, 1.0, -3, True, None, [0])
        ],
        *[
            (json.dumps({**NEXT_ROW, "output_len": output_len}), "output_len must be a positive integer")
            for output_len in (True, 0, 2.0, "2")
        ],
        *[
            (json.dumps({**NEXT_ROW, "spec": spec}), "spec width and depth must be positive integers")
            for spec in (
                {"width": "q", "depth": 3},
                {"width": 2.9, "depth": 3},
                {"width": 2, "depth": 0},
                {"width": 2, "depth": True},
                {"width": -1, "depth": 3},
            )
        ],
        pytest.param(
            json.dumps(NEXT_ROW).replace('"output_len": 2', '"output_len": ' + "9" * 5000),
            "invalid JSON: an integer of more than 4300 digits",
            id="5000-digit-output_len",
        ),
        pytest.param("[" * 100_000, "invalid JSON: nested too deeply", id="nested-100000-deep"),
        *[
            pytest.param(json.dumps({**NEXT_ROW, field: value}), f"{name} must be at most 2**53", id=f"{name}-{label}")
            for field, value, name, label in (
                ("arrival", 10**400, "arrival", "10**400"),
                ("arrival", 2**53 + 1, "arrival", "2**53+1"),
                ("output_len", 2**53 + 1, "output_len", "2**53+1"),
                ("spec", {"width": 10**4000, "depth": 3}, "spec width", "10**4000"),
                ("spec", {"width": 2, "depth": 2**53 + 1}, "spec depth", "2**53+1"),
            )
        ],
    ],
)
def test_a_malformed_line_is_refused_on_its_line(tmp_path, capsys, line, message):
    """A line that is not JSON Python can read (an integer past its digit
    limit, or nesting past its recursion limit), is not an object, whose
    id is neither a string nor an int, or whose arrival, output_len or
    spec sizes are not ints in range, is a ``ParseError`` naming the line,
    and ``run`` exits 2. An arrival past 2**53 would round as a tick: to
    infinity past the float range, and else to a tick before it, which
    the engine would idle to forever."""
    path = tmp_path / "trace.jsonl"
    path.write_text(json.dumps(GOOD_ROW) + "\n" + line + "\n")
    with pytest.raises(ParseError, match=f"^trace line 2: {re.escape(message)}$"):
        parse_trace(path)
    assert cli.main(["run", "--trace", str(path), "--mode", "simulate"]) == 2
    assert capsys.readouterr().err == f"error: trace line 2: {message}\n"


def test_an_int_id_parses_as_its_string(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text(json.dumps({**GOOD_ROW, "id": 7}) + "\n")
    (request,) = parse_trace(path)
    assert request.req_id == "7"


@pytest.mark.parametrize(
    "args, bad",
    [
        (["run", "--trace", "{trace}", "--report", "{tmp}/missing/x.json"], "{tmp}/missing/x.json"),
        (["run", "--trace", "{trace}", "--plot-csv", "{tmp}"], "{tmp}"),
        (["run", "--trace", "{trace}", "--config", "{tmp}"], "{tmp}"),
        (["run", "--trace", "{tmp}"], "{tmp}"),
        (["gen-trace", "--profile", "sharegpt_like", "--count", "2", "--out", "{tmp}/missing/t.jsonl"], "{tmp}/missing/t.jsonl"),
    ],
    ids=["report_in_missing_dir", "plot_csv_is_dir", "config_is_dir", "trace_is_dir", "out_in_missing_dir"],
)
def test_a_file_argument_that_cannot_be_read_or_written_exits_2(tmp_path, capsys, monkeypatch, args, bad):
    """A path in a missing directory or naming a directory is an error
    that names the path, with exit 2, not a raised ``OSError``. It is
    found before any request is served, and no file is left behind."""
    served = []
    monkeypatch.setattr(Engine, "run", lambda engine: served.append(engine))
    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps(GOOD_ROW) + "\n")
    fill = {"trace": str(trace), "tmp": str(tmp_path)}
    assert cli.main([arg.format(**fill) for arg in args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(bad.format(**fill)) in err
    assert not served
    assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]


@pytest.mark.parametrize("command", ["run", "gen-trace"])
def test_a_negative_seed_is_a_usage_error(capsys, command):
    args = ["--trace", "t.jsonl"] if command == "run" else ["--profile", "sharegpt_like", "--count", "1", "--out", "t.jsonl"]
    with pytest.raises(SystemExit) as err:
        cli.main([command, *args, "--seed", "-1"])
    assert err.value.code == 2
    assert "argument --seed: must be >= 0, not -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec_args, message",
    [
        (["--spec-width", "-2", "--spec-depth", "3"], "must be >= 1, not -2 and 3"),
        (["--spec-width", "2", "--spec-depth", "0"], "must be >= 1, not 2 and 0"),
        (["--spec-width", "2"], "give both or neither"),
        (["--spec-depth", "3"], "give both or neither"),
    ],
)
def test_gen_trace_refuses_a_spec_that_run_would_refuse_or_drop(tmp_path, capsys, spec_args, message):
    """A non-positive width or depth would write a trace that ``run``
    refuses, and one of the two alone a trace without speculation; both
    are usage errors, and no trace is written."""
    out = tmp_path / "t.jsonl"
    with pytest.raises(SystemExit) as err:
        cli.main(["gen-trace", "--profile", "sharegpt_like", "--count", "2", "--out", str(out), *spec_args])
    assert err.value.code == 2
    assert f"arguments --spec-width and --spec-depth: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("vocab", ["0", "-3"])
def test_gen_trace_refuses_an_empty_vocabulary(tmp_path, capsys, vocab):
    """Token ids are drawn below ``--vocab``, so it must be >= 1: a usage
    error that names the flag, and no trace is written."""
    out = tmp_path / "t.jsonl"
    with pytest.raises(SystemExit) as err:
        cli.main(["gen-trace", "--profile", "sharegpt_like", "--count", "2", "--out", str(out), "--vocab", vocab])
    assert err.value.code == 2
    assert f"argument --vocab: must be >= 1, not {vocab}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec_args, spec", [(["--spec-width", "2", "--spec-depth", "3"], (2, 3)), ([], None)])
def test_gen_trace_writes_a_spec_that_run_serves(tmp_path, spec_args, spec):
    out = tmp_path / "t.jsonl"
    assert cli.main(["gen-trace", "--profile", "sharegpt_like", "--count", "2", "--out", str(out), *spec_args]) == 0
    assert [req.spec for req in parse_trace(out)] == [spec, spec]
    assert cli.main(["run", "--trace", str(out), "--mode", "simulate", "--report", str(tmp_path / "r.json")]) == 0


def test_a_token_past_the_vocabulary_is_refused_on_its_line(tmp_path, capsys):
    """``run`` checks the bound while parsing, before it builds a model,
    and names the line."""
    rows = [{"id": f"r{i}", "arrival": i, "prompt": [1, 2, 3], "output_len": 2, "spec": None} for i in range(3)]
    rows[2]["prompt"] = [5, 128, 7]  # the default config's vocabulary is 128
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    assert len(parse_trace(path)) == len(parse_trace(path, vocab_size=129)) == 3
    with pytest.raises(ParseError, match="request r2: token id 128 beyond model.vocab_size 128") as err:
        parse_trace(path, vocab_size=128)
    assert err.value.line_no == 3
    assert cli.main(["run", "--trace", str(path), "--mode", "simulate"]) == 2
    assert capsys.readouterr().err.startswith("error: trace line 3: request r2: token id 128")


def test_plot_csv_reads_the_arrivals_of_the_one_parse(tmp_path, monkeypatch):
    """``run --plot-csv`` parses the trace once; each request's TTFT and
    TBT rows sit at its arrival plus its TTFT, then qps and the skip
    ratio at the makespan, in report order."""
    rows = [
        {"id": f"r{i}", "arrival": 700 * i, "prompt": [1 + i, 2, 3], "output_len": 1 + i, "spec": None}
        for i in range(3)
    ]
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    parses = []

    def counted_parse(*args, **kwargs):
        parses.append(args)
        return parse_trace(*args, **kwargs)

    monkeypatch.setattr(cli, "parse_trace", counted_parse)
    report_path, csv_path = tmp_path / "report.json", tmp_path / "plot.csv"
    argv = ["run", "--trace", str(path), "--mode", "simulate", "--report", str(report_path), "--plot-csv", str(csv_path)]
    assert cli.main(argv) == 0
    assert len(parses) == 1
    report = json.loads(report_path.read_text())
    want = ["ts,metric,value"]
    for row in rows:
        stats = report["requests"][row["id"]]
        ts = row["arrival"] + stats["ttft"]
        want += [f"{ts!r},ttft.{row['id']},{stats['ttft']!r}", f"{ts!r},tbt.{row['id']},{stats['tbt']!r}"]
    end = report["makespan_ticks"]
    want += [f"{end!r},qps,{report['qps']!r}", f"{end!r},skip_ratio,{report['skip']['skip_ratio']!r}"]
    assert csv_path.read_text() == "\n".join(want) + "\n"


def one_in(n: int, rare, common):
    """``rare`` once in ``n`` draws, ``common`` otherwise."""
    return st.sampled_from((rare, *[common] * (n - 1))).flatmap(lambda values: values)


def spec_objects(sizes):
    """The JSON text of a spec object whose width and depth are ``sizes``."""
    return st.tuples(sizes, sizes).map(lambda wd: '{"width": %s, "depth": %s}' % wd)


# JSON texts of the values a trace field may hold, written by hand: an
# integer of more than 4,300 digits has no ``json.dumps``. Every huge one
# is past 2**53.
HUGE = st.builds(lambda digit, n: digit * n, st.sampled_from("19"), st.integers(17, 5000))  # 17 to 5,000 digits
INTS = st.one_of(st.integers(-3, 40).map(str), HUGE, HUGE.map("-".__add__))
SCALARS = st.one_of(
    INTS,
    st.floats().map(json.dumps),  # NaN and Infinity included, which json.loads reads
    st.booleans().map(json.dumps),
    st.just("null"),
    st.text(max_size=3).map(json.dumps),
)

VALUES = st.one_of(
    SCALARS, st.lists(SCALARS, max_size=4).map(lambda items: "[" + ", ".join(items) + "]"), spec_objects(SCALARS)
)


# Each field holds any value one time in five, and otherwise a value of
# its own type, mostly in range, so that some traces are served.
SIZES = one_in(4, HUGE, st.integers(1, 40).map(str))
LINES = st.builds(
    '{{"id": {}, "arrival": {}, "prompt": {}, "output_len": {}, "spec": {}}}'.format,
    one_in(5, VALUES, st.sampled_from(('"a"', '"b"', "7"))),
    one_in(5, VALUES, SIZES),
    one_in(5, VALUES, st.lists(st.integers(0, 40).map(str), min_size=1, max_size=4).map(lambda ids: "[" + ", ".join(ids) + "]")),
    one_in(5, VALUES, SIZES),
    one_in(5, VALUES, st.just("null") | spec_objects(SIZES)),
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(lines=st.lists(LINES, min_size=1, max_size=3), mode=st.sampled_from(("simulate", "numeric")))
def test_run_on_any_trace_of_json_values_exits_0_or_2(tmp_path, lines, mode):
    """Each field is an integer of up to 5,000 digits, a float, a bool,
    null, a string, a short list of those or a spec object of two of
    them: ``run`` serves the trace or refuses it, and raises nothing.
    Integers either fit a small request or are too large to serve, so
    every run is short."""
    trace = tmp_path / "trace.jsonl"
    trace.write_text("\n".join(lines) + "\n")
    assert cli.main(["run", "--trace", str(trace), "--mode", mode, "--report", str(tmp_path / "r.json")]) in (0, 2)
