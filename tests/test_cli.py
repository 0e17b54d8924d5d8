"""Command line behavior: output lines, JSON payloads, and exit codes."""

import json

import pytest

from xdicheck import formulas


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
    assert result.code == 2
    assert result.err.startswith("error:")


def test_validate_reports_violations(run_cli, tmp_path):
    bad = tmp_path / "bad.xdi"
    bad.write_text("(machine m (s0 t box ()) (s1 nil box ()))")
    result = run_cli("validate", str(bad))
    assert result.code == 2
    assert "unreachable" in result.out


def test_validate_emit_dot(run_cli, join_path, tmp_path):
    out = tmp_path / "join.dot"
    result = run_cli("validate", join_path, "--emit-dot", str(out))
    assert result.code == 0
    text = out.read_text()
    assert text.startswith("digraph join {")
    assert "s3" in text and "->" in text


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


def test_check_without_conditions_reports_nothing(run_cli, tmp_path):
    plain = tmp_path / "plain.xdi"
    plain.write_text("(machine m (s0 t box (((a R I) s1))) (s1 nil transient (((a A O) s0))))")
    result = run_cli("check", str(plain))
    assert result.code == 0
    assert "nothing to report" in result.out
    as_json = run_cli("check", str(plain), "--json")
    assert json.loads(as_json.out) == []


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
