"""Randomized invariants, derandomized for reproducibility."""

import itertools

from hypothesis import HealthCheck, given, settings, strategies as st

from dsl_reference import to_dsl
from solver_reference import satisfying_models
from xdicheck import checker, formulas, labeling, machine
from xdicheck.checker import BLOCKING, IDLING, TemporalQuery
from xdicheck.formulas import (
    And,
    BlockedAtom,
    Const,
    FALSE,
    IdleAtom,
    Iff,
    Implies,
    Not,
    Or,
    TRUE,
    VarAtom,
    evaluate,
    first_model,
    parse_condition,
    verify_condition,
)
from xdicheck.library import builtin_library, get_primitive

BASE = settings(
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

CORPUS = {spec.name: spec.machine for spec in builtin_library()}


def _unambiguous_pairs():
    for name, mach in CORPUS.items():
        for handshake in sorted(mach.handshakes):
            if not labeling.check_unambiguous(mach, handshake).ambiguous:
                yield name, mach, handshake


def test_labels_match_path_parity_on_every_simple_path():
    """Walk parity equals the assigned label wherever labels matter."""

    for _, mach, handshake in _unambiguous_pairs():
        labels = labeling.compute_block_idle(mach, handshake)
        stack = [(mach.init_state, False, frozenset({mach.init_state}))]
        while stack:
            state, parity, seen = stack.pop()
            if not mach.entry(state).is_transient:
                assert labels.labels[state] == parity, (mach.name, handshake, state)
            for wire, target in mach.entry(state).transitions:
                if target in seen:
                    continue
                flips = wire.handshake == handshake
                stack.append((target, parity ^ flips, seen | {target}))


machines_st = st.sampled_from(sorted(CORPUS))


@st.composite
def machine_env_state(draw):
    mach = CORPUS[draw(machines_st)]
    wires = list(mach.sorted_input_wires)
    env = frozenset(draw(st.lists(st.sampled_from(wires), unique=True))) if wires else frozenset()
    extra = frozenset(draw(st.lists(st.sampled_from(wires), unique=True))) if wires else frozenset()
    state = draw(st.sampled_from(sorted(mach.state_map)))
    return mach, env, env | extra, state


def _targets(mach, state, env):
    """The states one enabled transition away."""

    return {target for _, target in machine.enabled_transitions(mach, state, env)}


@BASE
@given(machine_env_state())
def test_step_shrinks_as_the_environment_grows(data):
    mach, small, big, state = data
    assert small <= big
    assert _targets(mach, state, big) <= _targets(mach, state, small)
    enabled_big = machine.enabled_transitions(mach, state, big)
    enabled_small = machine.enabled_transitions(mach, state, small)
    assert set(enabled_big) <= set(enabled_small)


@st.composite
def random_walk(draw):
    mach = CORPUS[draw(machines_st)]
    wires = list(mach.sorted_input_wires)
    env = frozenset(draw(st.lists(st.sampled_from(wires), unique=True))) if wires else frozenset()
    trace = [mach.init_state]
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        nexts = sorted(_targets(mach, trace[-1], env))
        if not nexts:
            break
        trace.append(draw(st.sampled_from(nexts)))
    return mach, env, trace


@BASE
@given(random_walk())
def test_traces_are_prefix_closed(data):
    mach, env, trace = data
    assert machine.is_trace(mach, trace, env)
    for cut in range(1, len(trace) + 1):
        assert machine.is_trace(mach, trace[:cut], env)
    off_path = sorted(set(mach.state_map) - _targets(mach, trace[-1], env))
    if off_path:
        assert not machine.is_trace(mach, trace + [off_path[0]], env)


def formula_st(handshakes=(), variables=()):
    """Formulas over both constants and the given atoms, every connective."""

    leaves = [st.just(TRUE), st.just(FALSE)]
    if handshakes:
        leaves.append(st.sampled_from([BlockedAtom(h) for h in handshakes]))
        leaves.append(st.sampled_from([IdleAtom(h) for h in handshakes]))
    if variables:
        leaves.append(st.sampled_from([VarAtom(v) for v in variables]))
    return st.recursive(
        st.one_of(*leaves),
        lambda sub: st.one_of(
            sub.map(Not),
            st.tuples(sub, sub).map(lambda p: And(*p)),
            st.tuples(sub, sub).map(lambda p: Or(*p)),
            st.tuples(sub, sub).map(lambda p: Implies(*p)),
            st.tuples(sub, sub).map(lambda p: Iff(*p)),
        ),
        max_leaves=8,
    )


@BASE
@given(formula_st(("a", "b", "c")))
def test_dsl_round_trip_is_the_identity(form):
    assert parse_condition(to_dsl(form)) == form


@st.composite
def solver_problem(draw):
    """A few formulas over up to 8 variables, and a shuffled variable list
    that also holds names no formula mentions."""

    names = [f"v{i}" for i in range(draw(st.integers(min_value=1, max_value=8)))]
    mentioned = names[: draw(st.integers(min_value=1, max_value=len(names)))]
    forms = draw(st.lists(formula_st(variables=mentioned), min_size=1, max_size=3))
    return forms, draw(st.permutations(names))


@BASE
@given(solver_problem())
def test_first_model_is_the_enumerators_first_model(problem):
    forms, variables = problem
    expected = next(satisfying_models(forms, variables), None)
    model = first_model(forms, variables)
    assert model == expected
    if model is not None:
        assert list(model) == variables


def recursive_evaluate(form, resolve):
    """The recursive evaluator that evaluate replaced, kept as its reference."""

    if isinstance(form, Const):
        return form.value
    if isinstance(form, (BlockedAtom, IdleAtom, VarAtom)):
        return resolve(form)
    if isinstance(form, Not):
        return not recursive_evaluate(form.operand, resolve)
    if isinstance(form, And):
        return recursive_evaluate(form.lhs, resolve) and recursive_evaluate(form.rhs, resolve)
    if isinstance(form, Or):
        return recursive_evaluate(form.lhs, resolve) or recursive_evaluate(form.rhs, resolve)
    if isinstance(form, Implies):
        return (not recursive_evaluate(form.lhs, resolve)) or recursive_evaluate(form.rhs, resolve)
    return recursive_evaluate(form.lhs, resolve) == recursive_evaluate(form.rhs, resolve)


@BASE
@given(solver_problem(), st.integers(min_value=0, max_value=255))
def test_evaluate_matches_the_recursive_reference_atom_for_atom(problem, bits):
    forms, variables = problem
    truth = {name: bool(bits >> i & 1) for i, name in enumerate(variables)}
    for form in forms:
        seen, reference_seen = [], []
        value = evaluate(form, lambda atom: seen.append(atom.name) or truth[atom.name])
        reference = recursive_evaluate(
            form, lambda atom: reference_seen.append(atom.name) or truth[atom.name]
        )
        assert (value, seen) == (reference, reference_seen)


@st.composite
def join_query(draw):
    join = CORPUS["join"]
    wires = list(join.sorted_input_wires)
    env = frozenset(draw(st.lists(st.sampled_from(wires), unique=True)))
    handshake = draw(st.sampled_from(sorted(join.handshakes)))
    mode = draw(st.sampled_from([BLOCKING, IDLING]))
    start = draw(st.sampled_from(sorted(join.state_map)))
    return TemporalQuery(join, handshake, mode, env, start)


@BASE
@given(join_query())
def test_oracle_bound_is_sufficient(query):
    default = checker.oracle_g_check(query)
    assert default == checker.oracle_g_check(query, bound=2 * len(query.machine.states))
    assert checker.oracle_fg_check(query) == checker.oracle_fg_check(
        query, bound=2 * len(query.machine.states)
    )


@BASE
@given(join_query())
def test_checker_visits_only_reachable_states(query):
    result = checker.g_check(query)
    assert query.resolved_start() in result.visited or result.visited == frozenset()
    assert result.visited <= frozenset(query.machine.state_map)


def test_verdicts_survive_interface_renaming(join):
    """The corpus join and the packaged join differ only in port names."""

    packaged = get_primitive("join").machine
    mapping = {"a": "in0", "b": "in1", "c": "out"}

    def rename(atom):
        return type(atom)(mapping[atom.handshake])

    for text in (
        "blocked(a) <-> blocked(c) | idle(b)",
        "blocked(b) <-> blocked(c) | idle(a)",
        "idle(c) <-> idle(a) | idle(b)",
        "blocked(a)",
        "idle(b) -> idle(c)",
    ):
        original = verify_condition(parse_condition(text), join)
        renamed = verify_condition(
            formulas.map_atoms(parse_condition(text), rename), packaged
        )
        assert original.holds_overall == renamed.holds_overall
        assert [e.holds for e in original.per_env] == [e.holds for e in renamed.per_env]


def test_oracle_agrees_exhaustively_on_small_primitives():
    for name in ("storage", "source", "sink"):
        mach = CORPUS[name]
        for env, handshake, mode, start in itertools.product(
            checker.reasonable_envs(mach),
            sorted(mach.handshakes),
            (BLOCKING, IDLING),
            sorted(mach.state_map),
        ):
            query = TemporalQuery(mach, handshake, mode, env, start)
            assert checker.g_check(query).holds == checker.oracle_g_check(query)
            assert checker.fg_check(query).holds == checker.oracle_fg_check(query)
