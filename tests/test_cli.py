"""Command line behavior: output lines, JSON payloads, and exit codes."""

import contextlib
import errno
import gc
import inspect
import io
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from conftest import MACHINES, bench_jobs, bench_workloads
from test_readme import REPO, _quick_start
from xdicheck import cli, formulas


@pytest.fixture()
def join_path(machines_dir):
    return str(machines_dir / "join.xdi")


def test_validate_ok(run_cli, join_path):
    result = run_cli("validate", join_path)
    assert result.code == 0
    assert "machine: join" in result.out
    assert "ok: yes" in result.out


def test_validate_missing_file(run_cli):
    result = run_cli("validate", "/nonexistent/path.xdi")
    assert (result.code, result.out) == (2, "")
    assert result.err == "error: cannot read /nonexistent/path.xdi: No such file or directory\n"


@pytest.mark.parametrize(
    "command, flag",
    [
        (("validate", "machines/join.xdi"), "--emit-dot"),
        (("deadlock", "machines/pipeline_broken.net", "--channel", "a"), "--emit-smt"),
    ],
    ids=["validate-dot", "deadlock-smt"],
)
@pytest.mark.parametrize("where", ["missing-dir", "empty"])
def test_a_file_that_cannot_be_written_is_named(run_cli, tmp_path, command, flag, where):
    name, path, *rest = command
    out = str(tmp_path / "no_such_dir" / "out") if where == "missing-dir" else ""
    result = run_cli(name, str(REPO / path), *rest, flag, out)
    assert (result.code, result.out) == (2, "")
    assert result.err == f"error: cannot write {out}: No such file or directory\n"
    assert not (tmp_path / "no_such_dir").exists()


def test_validate_reports_violations(run_cli, tmp_path):
    bad = tmp_path / "bad.xdi"
    bad.write_text("(machine m (s0 t box ()) (s1 nil box ()))")
    result = run_cli("validate", str(bad))
    assert result.code == 2
    assert "unreachable" in result.out


ORDER = """(machine order
  (s0 t box (((a R O) s1) ((b R I) x1) ((a R I) x2) ((b R O) s0) ((c A I) x3)))
  (s1 nil transient (((a R O) x4) ((c A O) s0) ((a R I) s0) ((d R I) x5) ((b R O) x6)))
  (s2 nil box (((d R O) s2) ((c A I) x7))))
"""


def test_validate_lists_targets_and_conflicts_in_the_order_met(run_cli, tmp_path):
    # Conflicts are met as O then I and as I then O, several in one state,
    # between undeclared targets; each is listed at the transition that
    # shows it, after that transition's undeclared target.
    path = tmp_path / "order.xdi"
    path.write_text(ORDER)
    result = run_cli("validate", "--json", str(path))
    assert (result.code, result.err) == (2, "")
    assert json.loads(result.out)["violations"] == [
        "state s0 has transition to undeclared state x1",
        "state s0 has transition to undeclared state x2",
        "direction conflict on (a,R): both O and I",
        "direction conflict on (b,R): both I and O",
        "state s0 has transition to undeclared state x3",
        "state s1 has transition to undeclared state x4",
        "direction conflict on (c,A): both I and O",
        "direction conflict on (a,R): both O and I",
        "state s1 has transition to undeclared state x5",
        "state s1 has transition to undeclared state x6",
        "direction conflict on (b,R): both I and O",
        "direction conflict on (d,R): both I and O",
        "state s2 has transition to undeclared state x7",
        "unreachable states: s2",
    ]


def test_validate_emit_dot(run_cli, join_path, tmp_path):
    out = tmp_path / "join.dot"
    result = run_cli("validate", join_path, "--emit-dot", str(out))
    assert result.code == 0
    text = out.read_text()
    assert text.startswith("digraph join {")
    assert "s3" in text and "->" in text


def test_validate_emit_dot_without_an_initial_state(run_cli, tmp_path):
    bad = tmp_path / "noinit.xdi"
    bad.write_text("(machine m (s0 nil box (((a R I) s1))) (s1 nil box (((a A O) s0))))")
    out = tmp_path / "noinit.dot"
    result = run_cli("validate", str(bad), "--emit-dot", str(out))
    assert result.code == 2
    assert result.out.splitlines() == ["machine: m", "ok: no", "violation: no initial state"]
    assert "internal error" not in result.err
    text = out.read_text()
    assert text.startswith("digraph m {") and "  s0 -> s1 [label=\"a.R?\"];" in text
    assert "__start ->" not in text


def test_labels_text_output(run_cli, join_path):
    result = run_cli("labels", join_path, "--handshake", "a")
    assert result.code == 0
    assert result.out == (
        "blocking: s1 s3 s4 s5 s7 s8 s9\n"
        "idling: s0 s2 s6\n"
        "ambiguous: no\n"
    )


def test_labels_json_output(run_cli, join_path):
    result = run_cli("labels", join_path, "--handshake", "a", "--json")
    payload = json.loads(result.out)
    assert result.code == 0
    assert payload["machine"] == "join"
    assert payload["handshake"] == "a"
    assert payload["blocking"] == ["s1", "s3", "s4", "s5", "s7", "s8", "s9"]
    assert payload["idling"] == ["s0", "s2", "s6"]
    assert payload["ambiguous"] is False


def test_labels_ambiguous_machine(run_cli, machines_dir):
    result = run_cli("labels", str(machines_dir / "ambiguous.xdi"), "--handshake", "a")
    assert result.code == 2
    assert "ambiguous: yes" in result.out
    assert "conflict at s3" in result.out


def test_labels_check_and_query_refuse_a_transient_parity_conflict(run_cli, tmp_path):
    # s3 is transient and reached with both parities for a
    softclash = tmp_path / "softclash.xdi"
    softclash.write_text(
        "(machine softclash"
        " (s0 t box (((a R I) s1) ((b R I) s2)))"
        " (s1 nil box (((b R I) s3)))"
        " (s2 nil box (((h R I) s3)))"
        " (s3 nil transient ()))"
    )
    result = run_cli("labels", str(softclash), "--handshake", "a")
    assert result.code == 2
    assert result.out == (
        "ambiguous: yes\n"
        "conflict at s3: idling via s0 s2 s3, blocking via s0 s1 s3\n"
    )
    for command, *flags in (
        ("check", "--condition", "blocked(a)"),
        ("query", "--op", "blocked", "--handshake", "a"),
    ):
        refused = run_cli(command, str(softclash), *flags)
        assert refused.code == 2
        assert refused.out == ""
        assert "ambiguous for handshake 'a' at: s3" in refused.err


def test_labels_unknown_handshake(run_cli, join_path):
    result = run_cli("labels", join_path, "--handshake", "zz")
    assert result.code == 2
    assert "error:" in result.err


def test_envs_enumeration(run_cli, join_path):
    result = run_cli("envs", join_path)
    lines = result.out.strip().splitlines()
    assert result.code == 0
    assert len(lines) == 8
    assert lines[0] == "{}"
    assert lines[-1] == "a.R,b.R,c.A"


def test_query_fg_with_witness(run_cli, join_path):
    result = run_cli(
        "query", join_path,
        "--handshake", "a", "--op", "fg", "--mode", "blocking", "--env", "c.A",
    )
    assert result.code == 0
    assert "holds: yes" in result.out
    assert "witness: s1" in result.out
    assert "trace: s0 s1" in result.out


def test_query_g_counterexample(run_cli, join_path):
    result = run_cli(
        "query", join_path, "--handshake", "a", "--op", "g", "--mode", "blocking",
    )
    assert result.code == 1
    assert result.out == "holds: no\ntrace: s0\n"


@pytest.mark.parametrize(
    "start, visited, trace",
    [
        ((), ["s0", "s1", "s2", "s3"], ["s0", "s1"]),
        (("--start", "s2"), ["s2", "s3", "s4"], ["s2", "s3", "s4"]),
    ],
)
def test_query_g_failure_reports_states_discovered_before_the_failing_one(
    run_cli, join_path, start, visited, trace
):
    result = run_cli(
        "query", join_path,
        "--handshake", "a", "--op", "g", "--mode", "idling", "--json", *start,
    )
    assert result.code == 1
    payload = json.loads(result.out)
    assert (payload["holds"], payload["visited"], payload["trace"]) == (False, visited, trace)


def test_query_blocked_shorthand(run_cli, join_path):
    live = run_cli("query", join_path, "--handshake", "a", "--op", "blocked")
    assert live.code == 1
    assert "holds: no" in live.out
    stable = run_cli(
        "query", join_path, "--handshake", "a", "--op", "blocked", "--env", "c.A",
    )
    assert stable.code == 0
    assert "holds: yes" in stable.out


def test_query_blocked_rejects_mode(run_cli, join_path):
    result = run_cli(
        "query", join_path, "--handshake", "a", "--op", "blocked", "--mode", "idling",
    )
    assert result.code == 2


def test_query_g_requires_mode(run_cli, join_path):
    result = run_cli("query", join_path, "--handshake", "a", "--op", "g")
    assert result.code == 2


def test_query_json_payload(run_cli, join_path):
    result = run_cli(
        "query", join_path,
        "--handshake", "a", "--op", "fg", "--mode", "blocking",
        "--env", "c.A", "--json",
    )
    payload = json.loads(result.out)
    assert payload["holds"] is True
    assert payload["witness"] == "s1"
    assert payload["trace"] == ["s0", "s1"]


def test_check_uses_file_conditions(run_cli, join_path):
    result = run_cli("check", join_path)
    assert result.code == 0
    assert "join/blocked_a: holds (8 environments)" in result.out
    assert "join/blocked_b: holds (8 environments)" in result.out
    assert "join/idle_c: holds (8 environments)" in result.out


def test_check_explicit_condition_failure(run_cli, join_path):
    result = run_cli("check", join_path, "--condition", "blocked(a)")
    assert result.code == 1
    assert "join/condition: FAILS" in result.out
    assert "{}: lhs=False rhs=False FAILS" in result.out


def test_check_name_filter(run_cli, join_path):
    result = run_cli("check", join_path, "--name", "idle_c")
    assert result.code == 0
    assert result.out == "join/idle_c: holds (8 environments)\n"
    missing = run_cli("check", join_path, "--name", "nope")
    assert missing.code == 2


def test_check_rejects_name_with_an_explicit_condition(run_cli, join_path):
    result = run_cli("check", join_path, "--condition", "true", "--name", "nosuch")
    assert result.code == 2
    assert result.out == ""
    assert result.err == "error: --name does not apply to --condition\n"


def test_check_without_conditions_reports_nothing(run_cli, tmp_path):
    plain = tmp_path / "plain.xdi"
    plain.write_text("(machine m (s0 t box (((a R I) s1))) (s1 nil transient (((a A O) s0))))")
    result = run_cli("check", str(plain))
    assert result.code == 0
    assert "nothing to report" in result.out
    as_json = run_cli("check", str(plain), "--json")
    assert json.loads(as_json.out) == []


@pytest.mark.parametrize(
    "trailer, where",
    [
        ('(conditions (c1 "blocked(a)")\n  (c1 "!blocked(a)"))', "3:3: duplicate condition name 'c1'"),
        ('(conditions)\n(conditions (c1 "true"))', "3:1: duplicate (conditions ...) form"),
    ],
    ids=["name", "trailer"],
)
def test_check_rejects_a_duplicate_condition(run_cli, tmp_path, trailer, where):
    path = tmp_path / "twice.xdi"
    path.write_text("(machine m (s0 t box (((a R I) s1))) (s1 nil box (((a A O) s0))))\n" + trailer)
    result = run_cli("check", str(path), "--name", "c1")
    assert result.code == 2
    assert result.out == ""
    assert result.err == f"error: {path}:{where}\n"


def test_check_json_shape(run_cli, join_path):
    result = run_cli("check", join_path, "--json")
    payload = json.loads(result.out)
    assert len(payload) == 3
    for entry in payload:
        assert entry["holds_overall"] is True
        assert len(entry["per_env"]) == 8


def test_check_library_all_pass(run_cli):
    result = run_cli("check-library")
    assert result.code == 0
    assert "primitives checked: 6, failing: 0" in result.out
    assert "distributor/blocked_a: holds (64 environments)" in result.out


def test_oracle_check_join(run_cli, join_path):
    result = run_cli("oracle-check", join_path)
    assert result.code == 0
    assert "queries: 960" in result.out
    assert "disagreements: 0" in result.out


def test_oracle_check_takes_long_bounds(run_cli, join_path):
    """The walk oracle loops over bound steps; it used to recurse once per
    step and exit 2 with a RecursionError at bound 1000."""

    result = run_cli("oracle-check", join_path, "--bound", "1000")
    assert result.code == 0, result.err
    assert "disagreements: 0" in result.out


@pytest.mark.parametrize("document", ["join", "(machine lone (s0 t box ()))"])
def test_oracle_check_rejects_a_negative_bound_on_every_machine(run_cli, join_path, tmp_path, document):
    """The bound is checked whether or not the machine has a handshake; a
    one-state machine without transitions used to print queries: 0."""

    path = join_path
    if document != "join":
        path = tmp_path / "lone.xdi"
        path.write_text(document)
    result = run_cli("oracle-check", str(path), "--bound", "-1")
    assert result.code == 2
    assert result.err == "error: oracle bound must be non-negative\n"
    assert result.out == ""


def test_oracle_check_rejects_large_machines(run_cli, machines_dir, tmp_path):
    states = ["(s0 t box (((a R I) s1)))"]
    states += [f"(s{i} nil box (((a R I) s{i + 1})))" for i in range(1, 24)]
    states += ["(s24 nil transient (((b R O) s0)))"]
    big = tmp_path / "big.xdi"
    big.write_text(f"(machine big {' '.join(states)})")
    result = run_cli("oracle-check", str(big))
    assert result.code == 2
    assert "oracle limit" in result.err


def test_oracle_check_max_states_moves_the_limit(run_cli, join_path, ring_document, tmp_path):
    ring = tmp_path / "ring.xdi"
    ring.write_text(ring_document(24, "idle"))
    assert run_cli("oracle-check", str(ring)).code == 2
    result = run_cli("oracle-check", str(ring), "--max-states", "27")
    assert result.code == 0
    assert "disagreements: 0" in result.out
    result = run_cli("oracle-check", join_path, "--max-states", "5")
    assert result.code == 2
    assert "above the oracle limit of 5" in result.err


@pytest.mark.parametrize("command", ["oracle-check", "deadlock"])
def test_negative_max_states_is_a_usage_error(run_cli, machines_dir, command):
    target = "join.xdi" if command == "oracle-check" else "pipeline.net"
    result = run_cli(command, str(machines_dir / target), "--max-states", "-5")
    assert result.code == 2
    assert "--max-states: must be non-negative, got -5" in result.err
    assert result.out == ""


def test_internal_error_exits_2_without_traceback(run_cli, join_path, monkeypatch):
    def crash(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(formulas, "verify_condition", crash)
    result = run_cli("check", join_path, "--condition", "blocked(a)")
    assert result.code == 2
    assert result.err == "error: internal error: RecursionError: maximum recursion depth exceeded\n"
    assert result.out == ""


@pytest.mark.parametrize(
    "name, command, where",
    [
        ("head.xdi", "validate", "1:2: expected machine keyword"),
        ("head.xdi", "deadlock", "1:2: expected circuit keyword"),
        ("trailer.xdi", "validate", "21:2: expected form keyword"),
        ("deep.net", "deadlock", "1:2: expected circuit keyword"),
    ],
)
def test_deeply_nested_head_is_a_parse_error(run_cli, tmp_path, machines_dir, name, command, where):
    deep = "(" * 5000 + "x" + ")" * 5000
    text = (machines_dir / "join.xdi").read_text() + deep if name == "trailer.xdi" else deep
    path = tmp_path / name
    path.write_text(text)
    result = run_cli(command, str(path))
    assert result.code == 2
    assert result.err == f"error: {path}:{where}\n"
    assert result.out == ""


def _assert_same_verdict(run_cli, join_path, long, short, code):
    """check prints the same verdict, text and JSON (apart from the
    condition's own text), for a long condition and its short form."""

    for extra in ((), ("--json",)):
        short_result = run_cli("check", join_path, "--condition", short, *extra)
        long_result = run_cli("check", join_path, "--condition", long, *extra)
        assert long_result.code == short_result.code == code
        assert long_result.err == short_result.err == ""
        if extra:
            payload = json.loads(long_result.out)
            assert payload[0].pop("condition") == long
            reference = json.loads(short_result.out)
            reference[0].pop("condition")
            assert payload == reference
        else:
            assert long_result.out == short_result.out


def test_long_condition_gets_the_verdict_of_its_one_term(run_cli, join_path):
    long = " | ".join(["blocked(a)"] * 1200)
    _assert_same_verdict(run_cli, join_path, long, "blocked(a)", 1)


@pytest.mark.parametrize(
    "deep, short, code",
    [
        ("(" * 3000 + "blocked(a)" + ")" * 3000, "blocked(a)", 1),
        ("!" * 3000 + "blocked(a)", "blocked(a)", 1),
        (" -> ".join(["blocked(a)"] * 3000), "blocked(a) -> blocked(a)", 0),
    ],
    ids=["parentheses", "negations", "implications"],
)
def test_deep_condition_gets_the_verdict_of_its_short_form(run_cli, join_path, deep, short, code):
    _assert_same_verdict(run_cli, join_path, deep, short, code)


def test_deadlock_clean_circuit(run_cli, machines_dir):
    result = run_cli("deadlock", str(machines_dir / "pipeline.net"), "--channel", "a")
    assert result.code == 0
    assert "deadlock: no" in result.out
    assert "formula(a): unsat" in result.out


def test_deadlock_broken_circuit(run_cli, machines_dir, tmp_path):
    smt = tmp_path / "broken.smt2"
    result = run_cli(
        "deadlock", str(machines_dir / "pipeline_broken.net"),
        "--channel", "a", "--emit-smt", str(smt),
    )
    assert result.code == 1
    assert "deadlock: yes" in result.out
    assert "instances: j" in result.out
    assert "state: src=s1 f=s5 st0=s3 j=s1 snk=s0" in result.out
    assert "path: a.R b.R f.out1.R b.A d.R" in result.out
    assert "formula(a): sat" in result.out
    assert "model: blk_a blk_b blk_d idl_f2 idl_f_out1 idl_j_in1 full_st0" in result.out
    text = smt.read_text()
    assert text.startswith("(set-logic QF_UF)")
    assert text.rstrip().endswith("(check-sat)")


def test_deadlock_json(run_cli, machines_dir):
    result = run_cli("deadlock", str(machines_dir / "pipeline_broken.net"), "--json")
    payload = json.loads(result.out)
    assert result.code == 1
    assert payload["deadlock"] is True
    assert payload["instances"] == ["j"]
    assert payload["state"] == {"src": "s1", "f": "s5", "st0": "s3", "j": "s1", "snk": "s0"}
    assert payload["path"] == ["a.R", "b.R", "f.out1.R", "b.A", "d.R"]


def test_deadlock_channel_explores_once_within_limit(run_cli, machines_dir, monkeypatch):
    from xdicheck import circuit

    calls = []
    compose = circuit.compose

    def counting_compose(*args):
        calls.append(args)
        return compose(*args)

    monkeypatch.setattr(circuit, "compose", counting_compose)
    path = machines_dir / "pipeline.net"
    size = len(compose(circuit.parse_netlist(path.read_text())).states)
    result = run_cli("deadlock", str(path), "--channel", "a", "--max-states", str(size))
    assert result.code == 0
    assert "formula(a): unsat" in result.out
    assert len(calls) == 1
    result = run_cli("deadlock", str(path), "--channel", "a", "--max-states", str(size - 1))
    assert result.code == 2
    assert result.err == f"error: product of pipeline exceeds {size - 1} states\n"


def test_deadlock_max_states_counts_the_initial_state(run_cli, machines_dir):
    # ring's product is its initial state alone: one state, more than 0.
    path = str(machines_dir / "ring.net")
    result = run_cli("deadlock", path, "--max-states", "0")
    assert (result.code, result.out, result.err) == (
        2, "", "error: product of ring exceeds 0 states\n"
    )
    result = run_cli("deadlock", path, "--max-states", "1")
    assert (result.code, result.out, result.err) == (0, "deadlock: no\n", "")


BROKEN_PIPELINE_SMT = """\
(set-logic QF_UF)
(declare-const blk_a Bool)
(declare-const blk_b Bool)
(declare-const blk_d Bool)
(declare-const blk_f2 Bool)
(declare-const blk_f_out1 Bool)
(declare-const blk_j_in1 Bool)
(declare-const idl_a Bool)
(declare-const idl_b Bool)
(declare-const idl_d Bool)
(declare-const idl_f2 Bool)
(declare-const idl_f_out1 Bool)
(declare-const idl_j_in1 Bool)
(declare-const full_st0 Bool)
; src: !idle(out)
(assert (not idl_a))
; f: blocked(in) <-> blocked(out0) | blocked(out1)
(assert (= blk_a (or blk_b blk_f_out1)))
; f: idle(out0) <-> idle(in) | blocked(out1)
(assert (= idl_b (or idl_a blk_f_out1)))
; f: idle(out1) <-> idle(in) | blocked(out0)
(assert (= idl_f_out1 (or idl_a blk_b)))
; st0: blocked(in) <-> full & blocked(out)
(assert (= blk_b (and full_st0 blk_d)))
; st0: idle(out) <-> !full & idle(in)
(assert (= idl_d (and (not full_st0) idl_b)))
; j: blocked(in0) <-> blocked(out) | idle(in1)
(assert (= blk_d (or blk_f2 idl_j_in1)))
; j: blocked(in1) <-> blocked(out) | idle(in0)
(assert (= blk_j_in1 (or blk_f2 idl_d)))
; j: idle(out) <-> idle(in0) | idle(in1)
(assert (= idl_f2 (or idl_d idl_j_in1)))
; snk: !blocked(in)
(assert (not blk_f2))
; external f.out1: live
(assert (not blk_f_out1))
; external j.in1: stable
(assert (and idl_j_in1 (not blk_j_in1)))
; target: Dead(a)
(assert (and blk_a (not idl_a)))
(check-sat)
"""


@pytest.mark.parametrize(
    "name, flags, code, out, smt",
    [
        (
            "pipeline_broken.net",
            ("--channel", "a", "--emit-smt", "out.smt2"),
            1,
            "deadlock: yes\n"
            "instances: j\n"
            "state: src=s1 f=s5 st0=s3 j=s1 snk=s0\n"
            "path: a.R b.R f.out1.R b.A d.R\n"
            "formula(a): sat\n"
            "model: blk_a blk_b blk_d idl_f2 idl_f_out1 idl_j_in1 full_st0\n",
            BROKEN_PIPELINE_SMT,
        ),
        ("pipeline.net", (), 0, "deadlock: no\n", None),
    ],
    ids=["broken-channel-smt", "clean"],
)
def test_deadlock_never_builds_the_tuple_views(
    run_cli, machines_dir, tmp_path, monkeypatch, name, flags, code, out, smt
):
    """The command answers from the packed product: the states, adjacency
    and parents views of its ProductSystem are never built."""

    from xdicheck import circuit

    systems = []
    compose = circuit.compose

    def spying_compose(*args):
        systems.append(compose(*args))
        return systems[-1]

    monkeypatch.setattr(circuit, "compose", spying_compose)
    monkeypatch.chdir(tmp_path)
    result = run_cli("deadlock", str(machines_dir / name), *flags)
    assert (result.code, result.out, result.err) == (code, out, "")
    if smt is not None:
        assert (tmp_path / "out.smt2").read_text() == smt
    assert len(systems) == 1
    assert not {"states", "adjacency", "parents"} & vars(systems[0]).keys()


@pytest.mark.parametrize(
    "channel, text",
    [
        ("st1_in", "(channel st1_in (st0 out) (k in))"),
        ("a|b", "(channel a|b (st0 out) (k in))"),
    ],
)
def test_deadlock_rejects_a_channel_name_the_formula_cannot_use(run_cli, tmp_path, channel, text):
    net = tmp_path / "names.net"
    net.write_text(
        f"(circuit names (instance st0 storage) (instance st1 storage) (instance k sink) {text})"
    )
    smt = tmp_path / "names.smt2"
    result = run_cli("deadlock", str(net), "--channel", channel, "--emit-smt", str(smt))
    assert result.code == 2
    assert result.out == ""
    assert repr(channel) in result.err
    assert not smt.exists()


def test_deadlock_emit_smt_requires_channel(run_cli, machines_dir, tmp_path):
    result = run_cli(
        "deadlock", str(machines_dir / "pipeline.net"),
        "--emit-smt", str(tmp_path / "x.smt2"),
    )
    assert result.code == 2


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--emit-smt", "x.smt2"), "--emit-smt requires --channel"),
        (("--channel", "zz"), "no channel named 'zz'"),
        (("--channel", "zz", "--emit-smt", "x.smt2"), "no channel named 'zz'"),
    ],
)
def test_deadlock_rejects_bad_flags_before_exploring(
    run_cli, machines_dir, tmp_path, monkeypatch, flags, message
):
    from xdicheck import circuit

    def no_compose(*args):
        raise AssertionError("compose called")

    monkeypatch.setattr(circuit, "compose", no_compose)
    monkeypatch.chdir(tmp_path)
    result = run_cli("deadlock", str(machines_dir / "pipeline.net"), *flags)
    assert (result.code, result.out, result.err) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "x.smt2").exists()


def test_deadlock_empty_circuit(run_cli, machines_dir):
    result = run_cli("deadlock", str(machines_dir / "empty.net"))
    assert result.code == 0
    assert "deadlock: no" in result.out


def test_parse_error_location_on_stderr(run_cli, tmp_path):
    bad = tmp_path / "bad.xdi"
    bad.write_text("(machine m (s0 t box")
    result = run_cli("validate", str(bad))
    assert result.code == 2
    assert "error:" in result.err


def test_deterministic_flag_is_accepted_everywhere(run_cli, join_path):
    result = run_cli("labels", join_path, "--handshake", "a", "--deterministic")
    assert result.code == 0


def test_unknown_subcommand(run_cli):
    result = run_cli("frobnicate")
    assert result.code == 2


PARSER_CASES = [
    *[(command, "--help") for command in cli._COMMANDS],
    ("--help",),
    (),
    ("frobnicate", "x"),
    ("labels", "{join}"),
    ("validate",),
    ("validate", "{join}", "--bogus", "extra"),
    ("--json", "validate", "{join}"),
    ("deadlock", "{pipeline}", "--max-states", "-1"),
    ("oracle-check", "{join}", "--max-states", "-1"),
    ("query", "{join}", "--handshake", "a", "--op", "gf"),
]


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_the_parser_exits_0_on_help_and_2_on_a_usage_error(run_cli, machines_dir, argv):
    argv = [
        arg.format(join=machines_dir / "join.xdi", pipeline=machines_dir / "pipeline.net")
        for arg in argv
    ]
    assert run_cli(*argv).code == (0 if "--help" in argv else 2)


def _table_calls():
    """Valid calls generated from the argument table: every subcommand with
    its required options and a random pick of the others, in shuffled
    order, spelled --opt VALUE or --opt=VALUE, some given twice."""

    rng = random.Random(20)
    calls = []
    for command, spec in cli._COMMANDS.items():
        options = spec.options + cli._SHARED
        for joined in (False, True):
            for _ in range(4):
                picked = [option for option in options if option.required or rng.random() < 0.6]
                picked += rng.sample(picked, min(2, len(picked)))
                words = []
                for option in picked:
                    if not option.takes_value:
                        words.append([option.flag])
                        continue
                    if option.choices:
                        value = rng.choice(option.choices)
                    elif option.type:
                        value = str(rng.randrange(100))
                    else:
                        value = rng.choice(["a", "a.R,c.A", "", "s 2", "x=y"])
                    words.append([f"{option.flag}={value}"] if joined else [option.flag, value])
                if spec.file:
                    words.append([rng.choice(["join.xdi", "", "dir/a b.net"])])
                rng.shuffle(words)
                calls.append([command] + [word for group in words for word in group])
    return calls


DECLINED = [
    ("labels", "{join}", "--handshake", "a", "--json=1"),
    ("labels", "{join}", "--hand", "a"),
    ("labels", "--handshake", "a", "--", "{join}"),
    ("oracle-check", "{join}", "--bound", "-1"),
    ("oracle-check", "{join}", "--max-states", "-1"),
    ("query", "{join}", "--handshake", "a", "--op", "blocked", "--env", "-x"),
    ("query", "{join}", "--handshake", "a", "--op", "fgg"),
    ("validate", "{join}", "{join}"),
    ("query", "{join}", "--op", "blocked"),
    ("labels", "{join}", "--handshake"),
    ("check-library", "{join}"),
    ("labels", "{join}", "--handshake", "a", "-h"),
    *PARSER_CASES,
]


def test_the_table_reads_a_valid_call_as_argparse_does(monkeypatch):
    parser = cli._build_parser()
    bench = sorted({job.argv for job in bench_jobs(monkeypatch)})
    calls = _table_calls() + [argv for argv, _ in _quick_start()] + bench
    assert len(calls) > 100
    for argv in calls:
        read = cli._read_argv(argv)
        assert read is not None, argv
        assert vars(read) == vars(parser.parse_args(argv)), argv


@pytest.mark.parametrize("argv", DECLINED, ids=" ".join)
def test_the_table_leaves_everything_else_to_argparse(machines_dir, argv):
    argv = [arg.format(join=machines_dir / "join.xdi", pipeline=machines_dir / "pipeline.net") for arg in argv]
    assert cli._read_argv(argv) is None


def test_a_valid_call_imports_no_argparse(machines_dir):
    code = (
        "import sys\n"
        "unwanted = {'argparse', 'gettext', 'locale'}\n"
        "from xdicheck import cli\n"
        "print(sorted(unwanted & set(sys.modules)))\n"
        f"cli.main(['labels', {str(machines_dir / 'join.xdi')!r}, '--handshake', 'a'])\n"
        "print(sorted(unwanted & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    lines = run.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "[]")
    assert "blocking: s1 s3 s4 s5 s7 s8 s9" in lines


# --- Error paths: the exit code and the exact message of each -----------------


def _error(result, message):
    assert (result.code, result.out, result.err) == (2, "", f"error: {message}\n")


def test_query_rejects_an_env_wire_the_machine_lacks(run_cli, join_path):
    result = run_cli("query", join_path, "--handshake", "a", "--op", "blocked", "--env", "q.R")
    _error(result, "not input wires of join: q.R")


@pytest.mark.parametrize(
    "condition, message",
    [
        ("blocked(a", "expected ')', found 'end of input'"),
        ("blocked(zz)", "machine join has no handshake 'zz'"),
    ],
)
def test_check_names_the_condition_that_fails_to_parse_or_resolve(
    run_cli, join_path, condition, message
):
    result = run_cli("check", join_path, "--condition", condition)
    _error(result, f"condition condition: {message}")


def test_oracle_check_lists_each_disagreement_under_too_short_a_bound(run_cli, join_path):
    result = run_cli("oracle-check", join_path, "--bound", "0")
    lines = result.out.splitlines()
    assert (result.code, result.err) == (1, "")
    assert lines[:3] == [
        "machine: join",
        "queries: 960",
        "disagree: g a blocking env={} start=s1 graph=False oracle=True",
    ]
    assert all(line.startswith("disagree: ") for line in lines[2:-1])
    assert lines[-1] == "disagreements: 242" and len(lines) == 245


def test_a_max_states_that_is_not_an_integer_is_a_usage_error(run_cli, machines_dir):
    result = run_cli("deadlock", str(machines_dir / "pipeline.net"), "--max-states", "x")
    assert (result.code, result.out) == (2, "")
    assert result.err.endswith(
        "xdicheck deadlock: error: argument --max-states: must be an integer, got 'x'\n"
    )


def test_a_stable_entry_with_two_endpoints_is_a_parse_error(run_cli, tmp_path):
    bad = tmp_path / "stable.net"
    bad.write_text("(circuit c (instance j join) (stable (j in0) (j in1)))")
    result = run_cli("deadlock", str(bad))
    _error(result, f"{bad}:1:30: stable entry must be (stable endpoint)")


def test_check_library_reports_each_problem_of_a_failing_primitive(
    run_cli, monkeypatch, twopath
):
    from xdicheck import library
    from xdicheck.machine import parse_document

    lost = parse_document("(machine lost (s0 t box ()) (s1 nil box ()))")[0]
    shipped = library.builtin_library()[0]
    primitives = (
        shipped,
        library.PrimitiveSpec("twopath", twopath, (), {}),
        library.PrimitiveSpec("lost", lost, (), {}),
    )
    monkeypatch.setattr(library, "builtin_library", lambda: primitives)
    result = run_cli("check-library")
    assert (result.code, result.err) == (1, "")
    assert result.out.splitlines()[-4:] == [
        "twopath: PROBLEM ambiguous labels for handshake a",
        "twopath: PROBLEM ambiguous labels for handshake h",
        "lost: PROBLEM unreachable states: s1",
        "primitives checked: 3, failing: 2",
    ]


def test_a_stdout_that_breaks_is_an_error_not_a_crash(join_path):
    class Broken(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    err = io.StringIO()
    with contextlib.redirect_stdout(Broken()), contextlib.redirect_stderr(err):
        code = cli.main(["labels", join_path, "--handshake", "a"])
    assert (code, err.getvalue()) == (0, "")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, code",
    [(("labels", "--handshake", "a"), 0), (("oracle-check", "--bound", "0"), 1)],
    ids=["labels", "oracle-check"],
)
def test_a_reader_that_closed_stdout_leaves_the_verdicts_exit_code(join_path, argv, code, unbuffered):
    assert _into_a_closed_pipe([argv[0], join_path, *argv[1:]], unbuffered) == (code, "")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [("--help",), ("deadlock", "--help")], ids=" ".join)
def test_help_into_a_closed_pipe_exits_with_argparses_code(argv, unbuffered):
    assert _into_a_closed_pipe(argv, unbuffered) == (0, "")


def _into_a_closed_pipe(argv, unbuffered: str) -> tuple[int, str]:
    """Exit code and stderr of the CLI in a child whose stdout is a pipe
    with its read end closed before the child starts, so every write
    fails: in the write itself when unbuffered, else in the flush."""

    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "xdicheck.cli", *argv],
            env=env, stdout=write, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write)
    return run.returncode, run.stderr


# --- Input files: bytes on disk to text --------------------------------------


@pytest.mark.parametrize(
    "command, name, data, offset, reason",
    [
        ("validate", "bad.xdi", b"\xff(machine m (s0 t box ()))", 0, "invalid start byte"),
        ("deadlock", "bad.net", "(circuit c ; caf\u00e9".encode() + b" \xe9\n)", 19, "invalid continuation byte"),
    ],
    ids=["validate", "deadlock"],
)
def test_a_file_that_is_not_utf8_is_named_with_the_byte_offset(
    run_cli, tmp_path, command, name, data, offset, reason
):
    bad = tmp_path / name
    bad.write_bytes(data)
    _error(run_cli(command, str(bad)), f"{bad}: not UTF-8 at byte {offset}: {reason}")


@pytest.mark.parametrize("newline", [b"\r", b"\r\n"], ids=["cr", "crlf"])
def test_a_parse_error_after_cr_line_ends_has_the_text_mode_position(run_cli, tmp_path, newline):
    bad = tmp_path / "m.xdi"
    bad.write_bytes(newline.join([b"(machine m", b"  (s0 t box ())", b"  (s1 nil bogus ()))"]))
    _error(run_cli("validate", str(bad)), f"{bad}:3:11: kind must be box or transient, got 'bogus'")


# --- The cyclic collector is paused while a command runs ---------------------


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "argv, crash, code",
    [
        (("labels", "{join}", "--handshake", "a"), False, 0),
        (("oracle-check", "{join}", "--bound", "0"), False, 1),
        (("validate", "/nonexistent/path.xdi"), False, 2),
        (("labels", "{join}", "--handshake", "a"), True, 2),
        (("deadlock",), False, 2),
    ],
    ids=["holds", "fails", "bad-input", "internal-error", "usage"],
)
def test_main_leaves_the_collector_as_it_found_it(
    monkeypatch, run_cli, join_path, enabled, argv, crash, code
):
    seen = []
    compute_block_idle = cli.labeling.compute_block_idle

    def labels(*args):
        seen.append(gc.isenabled())  # while the command runs
        if crash:
            raise RuntimeError("boom")
        return compute_block_idle(*args)

    monkeypatch.setattr(cli.labeling, "compute_block_idle", labels)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        result = run_cli(*(arg.format(join=join_path) for arg in argv))
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert (result.code, after) == (code, enabled)
    assert seen == ([False] if argv[0] == "labels" else [])
    if crash:
        assert result.err == "error: internal error: RuntimeError: boom\n"


def _machine_calls() -> list[list[str]]:
    """Calls of every subcommand over machines/*, good and bad."""

    calls = [["check-library"], ["validate", "/nonexistent/path.xdi"]]
    calls += [["validate", str(MACHINES / "pipeline.net")], ["deadlock", str(MACHINES / "join.xdi")]]
    for path in sorted(MACHINES.glob("*.xdi")):
        file = str(path)
        calls += [["validate", file], ["envs", file], ["check", file], ["oracle-check", file, "--bound", "0"]]
        for handshake in ("a", "b", "in", "out", "zz"):
            calls.append(["labels", file, "--handshake", handshake, "--json"])
            calls += [["query", file, "--handshake", handshake, "--op", op] for op in ("blocked", "idle")]
            calls.append(["query", file, "--handshake", handshake, "--op", "fg", "--mode", "idling"])
    for path in sorted(MACHINES.glob("*.net")):
        file = str(path)
        calls += [["deadlock", file, "--json"], ["deadlock", file, "--max-states", "3"]]
        calls += [["deadlock", file, "--channel", name, "--emit-smt", "out.smt"] for name in ("a", "b", "e", "zz")]
    return calls


JSON_CYCLE = {"JSONEncoder", "cell", "dict", "function", "method", "tuple"}


def test_no_command_leaves_cyclic_garbage(monkeypatch, tmp_path):
    # The one cycle allowed is the standard library's: json's indented
    # encoder ties its nested functions and the encoder into a cycle on
    # every call, which the next collection after main frees.
    workloads = bench_workloads(monkeypatch)
    jobs = [job for name in workloads.WORKLOADS for job in workloads.jobs(name, 0)]
    calls = [(job.argv, job.files) for job in jobs] + [(argv, ()) for argv in _machine_calls()]
    was = gc.isenabled()
    gc.disable()
    gc.collect()
    found = {}
    try:
        for number, (argv, files) in enumerate(calls):
            workdir = tmp_path / str(number)
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            for name, text in files:
                pathlib.Path(name).parent.mkdir(parents=True, exist_ok=True)
                pathlib.Path(name).write_text(text, encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main(list(argv))
            gc.set_debug(gc.DEBUG_SAVEALL)  # what the collection finds stays in gc.garbage
            gc.collect()
            gc.set_debug(0)
            garbage = [type(item).__name__ for item in gc.garbage]
            if "--json" in argv:
                encoder = [item for item in gc.garbage if isinstance(item, json.JSONEncoder)]
                functions = {item.__module__ for item in gc.garbage if inspect.isfunction(item)}
                if len(encoder) == 1 and functions == {"json.encoder"}:
                    garbage = [name for name in garbage if name not in JSON_CYCLE]
            gc.garbage.clear()
            gc.collect()  # frees what the saving collection kept
            found[" ".join(argv)] = garbage
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was:
            gc.enable()
    assert len(calls) > 100 and sum("--json" in argv for argv, _ in calls) > 10
    assert {argv: left for argv, left in found.items() if left} == {}

