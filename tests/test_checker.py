"""Temporal checks, environment enumeration, and the trace oracle."""

from itertools import combinations

import pytest

import labeling_sweep
from checker_reference import _walk_states, reference_g_check, reference_reach, reference_trace
from test_env_answers import _outcome
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
    """Reference fg: the first reachable state, in BFS order, where the
    reference g holds."""

    order, parents, *_ = reference_reach(query.machine, query.env, query.resolved_start())
    for state in order:
        if reference_g_check(query._replace(start=state)).holds:
            return CheckResult(True, frozenset(order), reference_trace(parents, state))
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


# s2 has two predecessors and no cycle is reachable: the first, s0, is its
# breadth-first parent, and the last, s1, is not.
DIAMOND = """(machine diamond
  (s0 t box (((a R I) s1) ((b R I) s2)))
  (s1 nil box (((a A O) s2)))
  (s2 nil box ()))"""


def reach_machines(ring_document):
    """The diamond first, then the library primitives, the 24-state rings
    and the machines of the small cross-validation slice."""

    alphabet = labeling_sweep.wires("a.R.I,a.A.O,b.R.O,b.A.I,c.R.I,c.A.O")
    yield parse_document(DIAMOND)[0]
    yield from (spec.machine for spec in builtin_library())
    yield from (parse_document(ring_document(24, polarity))[0] for polarity in ("idle", "blocked"))
    yield from labeling_sweep.machines(2, alphabet, 2)
    yield from labeling_sweep.machines(3, alphabet, 1)


def test_reach_matches_the_reference_exploration(ring_document):
    """_reach's discovery order, predecessor lists and tested wires equal
    those of the exploration with a queue and a parent table, under every
    environment and from every set of one to three starts, in either
    order and with a repeated start; from a single start, _trace_to over
    the predecessor lists follows the reference's parent links."""

    explorations = 0
    for machine in reach_machines(ring_document):
        names = [entry.name for entry in machine.states]
        starts = [(name, name) for name in names[:1]]
        for size in range(1, 4):
            for chosen in combinations(names, size):
                starts += [chosen, chosen[::-1]] if size > 1 else [chosen]
        for env in reasonable_envs(machine):
            for chosen in starts:
                order, preds, tested = checker._reach(machine, env, *chosen)
                expected_order, parents, expected_preds, expected_tested = reference_reach(
                    machine, env, *chosen
                )
                assert (order, preds, list(tested)) == (
                    expected_order, expected_preds, list(expected_tested)
                ), (machine, env, chosen)
                explorations += 1
                if len(chosen) == 1:
                    for state in order:
                        trace = checker._trace_to(preds, chosen[0], state)
                        assert trace == reference_trace(parents, state), (machine, env, state)
    assert explorations == 597_844


def test_g_check_makes_no_backward_pass(join, distributor, ring_document, monkeypatch):
    """g_check answers from the failing states alone: wrapped as
    tests/sweep.py wraps them, neither backward pass is called, while
    fg_check settles its key with one closure."""

    machines = [join, distributor]
    machines += [parse_document(ring_document(24, polarity))[0] for polarity in ("idle", "blocked")]
    passes = []
    for name in ("_back_closure", "_back_fixpoint"):
        wrapped = getattr(checker, name)

        def counted(*args, name=name, wrapped=wrapped):
            passes.append(name)
            return wrapped(*args)

        monkeypatch.setattr(checker, name, counted)
    outcomes = set()
    for machine in machines:
        for handshake in sorted(machine.handshakes):
            for mode in (BLOCKING, IDLING):
                for env in reasonable_envs(machine):
                    query = TemporalQuery(machine, handshake, mode, env)
                    outcomes.add(g_check(query).holds)
                    assert passes == [], query
                    fg_check(query)
                    assert passes == ["_back_closure"], query
                    passes.clear()
    assert outcomes == {True, False}


def test_oracle_respects_explicit_bound(join):
    q = TemporalQuery(join, "a", BLOCKING, LIVE)
    # bound 0 leaves only the start state in every walk
    assert oracle_g_check(q, bound=0) is False
    assert oracle_g_check(TemporalQuery(join, "a", BLOCKING, LIVE, start="s3"), bound=0)


def recursive_walk_states(machine, env, start, bound):
    """Reference walk set: the recursion over the walk tree, one call per
    step, memoized on (state, budget), that _walk_states replaced."""

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
    """The set walk against the recursion, and the oracle's walk masks
    against the set walk: bit i decodes to the i-th declared state."""

    machines = [spec.machine for spec in builtin_library()] + [join, distributor, twopath]
    for machine in dict.fromkeys(machines):  # the shipped distributor is the library's
        names = [entry.name for entry in machine.states]

        def decode(mask):
            assert mask >> len(names) == 0, (machine.name, mask)
            return frozenset(name for position, name in enumerate(names) if mask >> position & 1)

        for env in reasonable_envs(machine):
            may_fail = frozenset(
                entry.name
                for entry in machine.states
                if not entry.is_transient and enabled_transitions(machine, entry.name, env)
            )
            for bound in range(len(machine.states) + 2):
                walks, may_fail_mask = checker._oracle_walks(machine, env, bound)
                assert decode(may_fail_mask) == may_fail, (machine.name, env, bound)
                assert [bit for bit, _ in walks] == [1 << position for position in range(len(names))]
                for name, (_, walk) in zip(names, walks):
                    expected = recursive_walk_states(machine, env, name, bound)
                    assert _walk_states(machine, env, name, bound) == expected, (
                        machine.name, env, name, bound
                    )
                    assert decode(walk) == expected, (machine.name, env, name, bound)


UNDECLARED = "(machine u (s0 t box (((a R I) s1))) (s1 nil box (((a A O) s0))) (s2 nil box (((a R I) s9))))"
NO_S9 = (ValueError, "machine u has no state 's9'")


@pytest.mark.parametrize("bound", [0, 1, 2, None])
@pytest.mark.parametrize("reached_from_init", [False, True])
def test_unvalidated_machines_keep_their_answers_and_errors(bound, reached_from_init):
    """s9 is undeclared, and only s2's a.R move leads to it. A walk from s2
    meets s9 in one step and expands it from bound 2 on, so only then, and
    only where a.R is live, does the oracle raise entry()'s error. With s1
    moving to s9 too, labeling meets s9 from the initial state and every
    call raises. cross_validate's engine explores from every state, so it
    raises at every bound."""

    text = UNDECLARED.replace("(((a A O) s0))", "(((a A O) s9))") if reached_from_init else UNDECLARED
    stable = frozenset({("a", "R")})
    raises = (NO_S9, NO_S9)
    stops_before_s9 = not reached_from_init and bound in (0, 1)
    expected = {
        (BLOCKING, LIVE): (False, False) if stops_before_s9 else raises,
        (IDLING, LIVE): (True, True) if stops_before_s9 else raises,
        (BLOCKING, stable): raises if reached_from_init else (True, True),
        (IDLING, stable): raises if reached_from_init else (True, True),
    }
    for (mode, env), answers in expected.items():
        # A fresh machine per call, so no call reads another's memo.
        query = lambda: TemporalQuery(parse_document(text)[0], "a", mode, env, "s2")  # noqa: E731
        found = (
            _outcome(lambda: oracle_g_check(query(), bound)),
            _outcome(lambda: oracle_fg_check(query(), bound)),
        )
        assert found == answers, (mode, env)
    assert _outcome(lambda: cross_validate(parse_document(text)[0], bound)) == NO_S9


def test_the_oracle_reads_each_declared_state_once_per_walk_table(monkeypatch, machines_dir):
    """_oracle_walks reads every declared state's moves exactly once, in
    declaration order, each time it builds an (environment, bound) table,
    and not at all when the machine's memo holds the table."""

    machine = parse_document((machines_dir / "distributor.xdi").read_text())[0]
    names = [entry.name for entry in machine.states]
    envs = reasonable_envs(machine)
    reads = []

    def counted(owner, state, env):
        reads.append((state, env))
        return enabled_transitions(owner, state, env)

    monkeypatch.setattr(checker, "enabled_transitions", counted)
    assert cross_validate(machine) == ()
    assert reads == [(name, env) for env in envs for name in names]
    reads.clear()
    assert cross_validate(machine) == ()
    assert reads == []
    for bound in (0, 1, 2, 1):  # the second bound 1 finds its table memoised
        oracle_fg_check(TemporalQuery(machine, "a", BLOCKING, envs[-1]), bound)
    assert reads == [(name, envs[-1]) for bound in (0, 1, 2) for name in names]


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


def test_an_undeclared_target_raises_the_error_entry_raises():
    # Only an unvalidated machine can name a state it does not declare.
    machine = parse_document("(machine u (s0 t box (((a R I) s1))) (s1 nil box (((a A O) s9))))")[0]
    with pytest.raises(ValueError, match="^machine u has no state 's9'$"):
        fg_check(TemporalQuery(machine, "a", IDLING, LIVE))
    with pytest.raises(ValueError, match="^machine u has no state 's9'$"):
        checker._reach(machine, LIVE, "s0")
