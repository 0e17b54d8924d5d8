"""Temporal checks, environment enumeration, and the trace oracle."""

from dataclasses import replace

import pytest

from xdicheck import checker
from xdicheck.checker import (
    BLOCKING,
    IDLING,
    CheckResult,
    TemporalQuery,
    blocked,
    cross_validate,
    fg_check,
    g_check,
    idle,
    oracle_fg_check,
    oracle_g_check,
    reasonable_envs,
)
from xdicheck.library import builtin_library
from xdicheck.machine import enabled_transitions, parse_document

LIVE = frozenset()
STABLE_C = frozenset({("c", "A")})
STABLE_AB = frozenset({("a", "R"), ("b", "R")})


def test_reasonable_envs_cover_the_input_wire_powerset(join, distributor):
    envs = reasonable_envs(join)
    assert len(envs) == 8
    assert envs[0] == frozenset()
    assert len(set(envs)) == 8
    # ordered by size, then lexicographically within a size
    sizes = [len(e) for e in envs]
    assert sizes == sorted(sizes)
    assert envs[1] == frozenset({("a", "R")})
    assert len(reasonable_envs(distributor)) == 64


def test_environment_scenarios_for_join(join):
    assert blocked(join, "a", STABLE_C) is True
    assert idle(join, "a", STABLE_AB) is True
    assert blocked(join, "a", LIVE) is False
    assert idle(join, "b", STABLE_AB) is True


def test_g_check_counterexample_is_shortest(join):
    result = g_check(TemporalQuery(join, "a", BLOCKING, LIVE))
    assert not result.holds
    assert result.counterexample == ("s0",)
    result2 = g_check(TemporalQuery(join, "a", IDLING, LIVE))
    assert not result2.holds
    # s1 is the nearest blocking box from s0 under the live environment
    assert result2.counterexample == ("s0", "s1")
    assert result2.witness is None


def test_g_check_success_reports_visited_set(join):
    result = g_check(TemporalQuery(join, "a", BLOCKING, STABLE_C, start="s1"))
    assert result.holds
    assert result.counterexample is None
    assert result.visited == frozenset({"s1", "s3", "s4"})


def test_fg_check_finds_witness_in_discovery_order(join):
    result = fg_check(TemporalQuery(join, "a", BLOCKING, STABLE_C))
    assert result.holds
    assert result.witness == "s1"
    assert result.counterexample == ("s0", "s1")


def test_fg_check_failure_has_no_witness(join):
    result = fg_check(TemporalQuery(join, "a", BLOCKING, LIVE))
    assert not result.holds
    assert result.witness is None
    assert result.counterexample is None
    assert result.visited == frozenset(join.state_map)


def test_dead_ends_satisfy_both_modes(join):
    # under a fully stable environment the init state cannot move at all
    dead = frozenset({("a", "R"), ("b", "R"), ("c", "A")})
    assert blocked(join, "a", dead) is True
    assert idle(join, "a", dead) is True


def test_start_state_override(join):
    q = TemporalQuery(join, "a", BLOCKING, STABLE_C, start="s4")
    assert q.resolved_start() == "s4"
    assert g_check(q).holds
    default = TemporalQuery(join, "a", BLOCKING, STABLE_C)
    assert default.resolved_start() == "s0"


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(mode="stuck"), "mode"),
        (dict(mode=BLOCKING, env=frozenset({("a", "A")})), "environment"),
        (dict(mode=BLOCKING, start="ghost"), "state"),
    ],
)
def test_bad_queries_are_rejected(join, kwargs, match):
    params = dict(machine=join, handshake="a", mode=BLOCKING, env=LIVE)
    params.update(kwargs)
    with pytest.raises(ValueError, match=match):
        g_check(TemporalQuery(**params))


def test_oracle_agrees_on_the_running_example(join):
    for env in reasonable_envs(join):
        for mode in (BLOCKING, IDLING):
            q = TemporalQuery(join, "a", mode, env)
            assert oracle_g_check(q) == g_check(q).holds
            assert oracle_fg_check(q) == fg_check(q).holds


def per_state_fg_check(query):
    """Reference fg: the first reachable state, in BFS order, where g holds."""

    order, parents, _ = checker._reach(query.machine, query.env, query.resolved_start())
    for state in order:
        if g_check(replace(query, start=state)).holds:
            return CheckResult(True, frozenset(order), checker._trace_to(parents, state))
    return CheckResult(False, frozenset(order), None)


def test_fg_fixpoint_matches_per_state_search(join, distributor, ring_document):
    machines = [spec.machine for spec in builtin_library()] + [join, distributor]
    machines += [parse_document(ring_document(24, polarity))[0] for polarity in ("idle", "blocked")]
    for machine in dict.fromkeys(machines):  # the shipped distributor is the library's
        for handshake in sorted(machine.handshakes):
            for mode in (BLOCKING, IDLING):
                for env in reasonable_envs(machine):
                    for entry in machine.states:
                        query = TemporalQuery(machine, handshake, mode, env, entry.name)
                        fast, slow = fg_check(query), per_state_fg_check(query)
                        assert (fast, fast.witness) == (slow, slow.witness), query


def test_oracle_respects_explicit_bound(join):
    q = TemporalQuery(join, "a", BLOCKING, LIVE)
    # bound 0 leaves only the start state in every walk
    assert oracle_g_check(q, bound=0) is False
    assert oracle_g_check(TemporalQuery(join, "a", BLOCKING, LIVE, start="s3"), bound=0)


def recursive_walk_states(machine, env, start, bound):
    """Reference walk set: the recursion over the walk tree, one call per
    step, memoized on (state, budget), that checker._walk_states replaced."""

    memo = {}

    def visit(state, budget):
        key = (state, budget)
        if key not in memo:
            collected = {state}
            if budget > 0:
                for _, target in enabled_transitions(machine, state, env):
                    collected.update(visit(target, budget - 1))
            memo[key] = frozenset(collected)
        return memo[key]

    return visit(start, bound)


def test_walk_states_match_the_recursive_reference(join, distributor, twopath):
    machines = [spec.machine for spec in builtin_library()] + [join, distributor, twopath]
    for machine in dict.fromkeys(machines):  # the shipped distributor is the library's
        for env in reasonable_envs(machine):
            for entry in machine.states:
                for bound in range(len(machine.states) + 2):
                    expected = recursive_walk_states(machine, env, entry.name, bound)
                    assert checker._walk_states(machine, env, entry.name, bound) == expected, (
                        machine.name, env, entry.name, bound
                    )


def test_oracle_size_guard():
    states = ["(s0 t box (((a R I) s1)))"]
    states += [f"(s{i} nil box (((a R I) s{i + 1})))" for i in range(1, 25)]
    states += ["(s25 nil box ())"]
    big = parse_document(f"(machine big {' '.join(states)})")[0]
    with pytest.raises(ValueError, match="states"):
        oracle_g_check(TemporalQuery(big, "a", BLOCKING, frozenset()))
    # raising the limit makes the same query answerable
    assert oracle_g_check(
        TemporalQuery(big, "a", BLOCKING, frozenset({("a", "R")})), max_states=30
    )


def test_cross_validate_running_examples(join, distributor):
    assert cross_validate(join) == ()
    assert cross_validate(distributor) == ()


def test_cross_validate_reports_divergence_shape(join):
    # sanity check the record type by forging one disagreement
    d = checker.Disagreement("g", "a", BLOCKING, LIVE, "s0", True, False)
    assert d.fast != d.slow


def test_check_result_witness_property():
    ok = CheckResult(True, frozenset({"s0"}), ("s0", "s2"))
    assert ok.witness == "s2"
    bad = CheckResult(False, frozenset(), ("s0",))
    assert bad.witness is None
