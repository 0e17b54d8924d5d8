"""Acceptance gate: the nine shipped guarantees, each timed and reported.

Each criterion is one test so the verbose test listing shows one
pass/fail line per guarantee. Bodies also print a summary line with the
measured time against the budget.
"""

import json
import random
import shutil
import subprocess
import time
from contextlib import contextmanager

from conftest import is_trace, settled_states
from xdicheck import checker, circuit, formulas, labeling, machine
from xdicheck.library import builtin_library, get_primitive


@contextmanager
def budget(number: int, label: str, seconds: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - started
        print(f"criterion {number} ({label}): FAIL after {elapsed:.3f}s")
        raise
    elapsed = time.perf_counter() - started
    print(f"criterion {number} ({label}): PASS in {elapsed:.3f}s (budget {seconds}s)")
    assert elapsed < seconds, f"criterion {number} exceeded {seconds}s: {elapsed:.3f}s"


def test_criterion_1_join_labeling(run_cli, machines_dir):
    with budget(1, "join labeling", 0.1):
        result = run_cli(
            "labels", str(machines_dir / "join.xdi"), "--handshake", "a", "--json"
        )
        assert result.code == 0
        payload = json.loads(result.out)
        assert payload["blocking"] == ["s1", "s3", "s4", "s5", "s7", "s8", "s9"]
        assert payload["idling"] == ["s0", "s2", "s6"]


def test_criterion_2_join_equation(join):
    with budget(2, "join equation", 1.0):
        verdict = formulas.verify_condition(
            formulas.parse_condition("blocked(a) <-> blocked(c) | idle(b)"), join
        )
        assert len(verdict.per_env) == 8
        assert all(entry.holds for entry in verdict.per_env)
        assert verdict.holds_overall


def test_criterion_3_distributor_equation(distributor, distributor_conditions):
    with budget(3, "distributor equation", 5.0):
        assert len(distributor_conditions) == 1
        name, text = distributor_conditions[0]
        assert name == "blocked_a"
        verdict = formulas.verify_condition(formulas.parse_condition(text), distributor)
        assert len(verdict.per_env) == 64
        assert all(entry.holds for entry in verdict.per_env)
        assert verdict.holds_overall


def test_criterion_4_oracle_equivalence(join, distributor):
    with budget(4, "oracle equivalence", 60.0):
        assert checker.cross_validate(join) == ()
        assert checker.cross_validate(distributor) == ()


def test_criterion_5_environment_scenarios(join):
    with budget(5, "environment scenarios", 1.0):
        assert checker.blocked(join, "a", frozenset({("c", "A")})) is True
        assert checker.idle(join, "a", frozenset({("a", "R"), ("b", "R")})) is True
        assert checker.blocked(join, "a", frozenset()) is False


def test_criterion_6_unambiguity(twopath):
    with budget(6, "unambiguity", 1.0):
        for spec in builtin_library():
            for handshake in sorted(spec.machine.handshakes):
                report = labeling.check_unambiguous(spec.machine, handshake)
                assert not report.ambiguous, (spec.name, handshake)
        rejected = labeling.check_unambiguous(twopath, "a")
        assert rejected.ambiguous
        assert rejected.witnesses != ()


def test_criterion_7_circuit_deadlock(machines_dir):
    with budget(7, "circuit deadlock", 10.0):
        clean = circuit.parse_netlist((machines_dir / "pipeline.net").read_text())
        system = circuit.compose(clean)
        assert circuit.analyze_deadlock(system) is None

        instance = circuit.derive_deadlock_formula(clean, "a")
        assert instance.first_model() is None

        # fullness agrees across the two storages in every reachable
        # product state where both are settled
        order = [name for name, _ in clean.instances]
        storage_slots = [
            i for i, (_, prim) in enumerate(clean.instances) if prim == "storage"
        ]
        settled = {
            i: settled_states(system.machines[i]) for i in storage_slots
        }
        profiles = {
            tuple(get_primitive("storage").fullness[state[i]] for i in storage_slots)
            for state in system.states
            if all(state[i] in settled[i] for i in storage_slots)
        }
        assert profiles == {(False, False), (True, True)}
        assert order[storage_slots[0]] == "st0" and order[storage_slots[1]] == "st1"

        mutated = circuit.parse_netlist((machines_dir / "pipeline_broken.net").read_text())
        finding = circuit.analyze_deadlock(circuit.compose(mutated))
        assert finding is not None
        assert finding.instances == ("j",)
        sat_instance = circuit.derive_deadlock_formula(mutated, "a")
        assert sat_instance.first_model() is not None


def _solver_command():
    for name in ("z3", "cvc5", "cvc4"):
        path = shutil.which(name)
        if path:
            if name == "z3":
                return [path, "-in"]
            return [path, "--lang", "smt2"]
    return None


def _well_formed_smt(text: str) -> bool:
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


def test_criterion_8_differential_solver_check(machines_dir):
    with budget(8, "differential solver check", 30.0):
        clean = circuit.parse_netlist((machines_dir / "pipeline.net").read_text())
        mutated = circuit.parse_netlist((machines_dir / "pipeline_broken.net").read_text())
        expectations = []
        for netlist, expected in ((clean, "unsat"), (mutated, "sat")):
            instance = circuit.derive_deadlock_formula(netlist, "a")
            builtin = "unsat" if instance.first_model() is None else "sat"
            assert builtin == expected
            text = circuit.emit_smt(instance)
            assert _well_formed_smt(text)
            assert text.count("(check-sat)") == 1
            declared = {
                line.split()[1]
                for line in text.splitlines()
                if line.startswith("(declare-const")
            }
            assert declared == set(instance.variables)
            expectations.append((text, expected))

        command = _solver_command()
        if command is None:
            print(
                "criterion 8 note: no external SMT solver on PATH;"
                " builtin DPLL solver and emitted SMT shape verified"
            )
            return
        for text, expected in expectations:
            run = subprocess.run(
                command, input=text, capture_output=True, text=True, timeout=20
            )
            assert run.stdout.strip().splitlines()[-1] == expected


def test_criterion_9_property_suites():
    with budget(9, "property suites", 30.0):
        rng = random.Random(20240817)

        # parity soundness across every simple path of the builtin corpus
        for spec in builtin_library():
            mach = spec.machine
            for handshake in sorted(mach.handshakes):
                labels = labeling.compute_block_idle(mach, handshake)
                stack = [(mach.init_state, False, frozenset({mach.init_state}))]
                while stack:
                    state, parity, seen = stack.pop()
                    if not mach.entry(state).is_transient:
                        assert labels[state] == parity
                    for wire, target in mach.entry(state).transitions:
                        if target not in seen:
                            stack.append(
                                (target, parity ^ (wire.handshake == handshake), seen | {target})
                            )

        def targets(mach, state, env):
            return {target for _, target in machine.enabled_transitions(mach, state, env)}

        # successor monotonicity over environment inclusion
        for _ in range(200):
            spec = rng.choice(builtin_library())
            wires = list(spec.machine.sorted_input_wires)
            small = frozenset(w for w in wires if rng.random() < 0.5)
            big = small | frozenset(w for w in wires if rng.random() < 0.5)
            state = rng.choice(sorted(spec.machine.state_map))
            assert targets(spec.machine, state, big) <= targets(spec.machine, state, small)

        # trace prefix closure along random walks
        for _ in range(200):
            spec = rng.choice(builtin_library())
            wires = list(spec.machine.sorted_input_wires)
            env = frozenset(w for w in wires if rng.random() < 0.4)
            trace = [spec.machine.init_state]
            for _ in range(rng.randrange(12)):
                nexts = sorted(targets(spec.machine, trace[-1], env))
                if not nexts:
                    break
                trace.append(rng.choice(nexts))
            assert is_trace(spec.machine, trace, env)
            for cut in range(1, len(trace) + 1):
                assert is_trace(spec.machine, trace[:cut], env)
