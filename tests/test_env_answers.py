"""The answer table as the one g/fg engine: the table, g_check and
fg_check against the reference checks of tests/checker_reference.py,
verify_condition against a loop without environment classes (with a fresh
exploration or one query per atom), the classes against fresh explorations
on every small machine, and the number of explorations each query,
environment and class costs."""

from itertools import combinations

import pytest
from hypothesis import given

import labeling_sweep
from checker_reference import reference_fg_check, reference_g_check
from conftest import every_atom_iff, wide_document
from test_properties import BASE, formula_st
from xdicheck import checker, formulas, labeling
from xdicheck.checker import (
    BLOCKING,
    IDLING,
    TemporalQuery,
    cross_validate,
    fg_check,
    g_check,
    reasonable_envs,
)
from xdicheck.formulas import (
    FALSE,
    TRUE,
    And,
    BlockedAtom,
    EnvVerdict,
    IdleAtom,
    Iff,
    Or,
    VarAtom,
    Verdict,
    evaluate,
    parse_condition,
    verify_condition,
)
from xdicheck.labeling import UnknownHandshakeError
from xdicheck.library import builtin_library
from xdicheck.machine import parse_document


def wide_conditions(k: int) -> list[str]:
    last = f"i{k - 1}"
    handshakes = [f"i{j}" for j in range(k)] + ["o"]
    texts = [f"{atom}({h})" for h in handshakes for atom in ("blocked", "idle")]
    texts += [
        f"blocked(i0) <-> blocked(o) | idle({last})",
        f"idle(o) <-> idle(i0) & idle({last})",
        f"blocked({last}) -> !idle(o)",
    ]
    return texts


def _outcome(thunk):
    """The value, or the type and message of the ValueError raised."""

    try:
        return thunk()
    except ValueError as error:
        return type(error), str(error)


@pytest.fixture(scope="module")
def machines(join, distributor, twopath, ring_document):
    found = [spec.machine for spec in builtin_library()]  # test_properties.CORPUS
    found += [join, distributor, twopath]
    found += [parse_document(ring_document(24, polarity))[0] for polarity in ("idle", "blocked")]
    return list(dict.fromkeys(found))  # the shipped distributor is the library's


def test_answer_table_matches_the_per_query_checker(machines):
    for machine in machines:
        states = [entry.name for entry in machine.states]
        for env in reasonable_envs(machine):
            shared = checker._EnvAnswers(machine, env, states)
            for start in states:
                single = checker._EnvAnswers(machine, env, (start,))
                for handshake in sorted(machine.handshakes):
                    for mode in (BLOCKING, IDLING):
                        query = TemporalQuery(machine, handshake, mode, env, start)
                        expected = (
                            _outcome(lambda: reference_g_check(query).holds),
                            _outcome(lambda: reference_fg_check(query).holds),
                        )
                        for answers in (shared, single):
                            got = (
                                _outcome(lambda: answers.g(handshake, mode, start)),
                                _outcome(lambda: answers.fg(handshake, mode, start)),
                            )
                            assert got == expected, (machine.name, env, handshake, mode, start)


def test_answer_table_raises_the_ambiguity_error_of_the_checker(twopath):
    answers = checker._EnvAnswers(twopath, frozenset(), (twopath.init_state,))
    with pytest.raises(labeling.AmbiguousMachineError) as fast:
        answers.fg("a", BLOCKING, twopath.init_state)
    with pytest.raises(labeling.AmbiguousMachineError) as slow:
        reference_fg_check(TemporalQuery(twopath, "a", BLOCKING, frozenset()))
    assert str(fast.value) == str(slow.value)


def every_query(machine):
    """Every query over the machine's handshakes, modes and environments,
    from the default start and from each state; then one query with every
    nonempty set of its parts made bad: an unknown handshake, a bad mode, a
    foreign wire and a ghost start."""

    states = [entry.name for entry in machine.states]
    for env in reasonable_envs(machine):
        for handshake in sorted(machine.handshakes):
            for mode in (BLOCKING, IDLING):
                for start in [None, *states]:
                    yield TemporalQuery(machine, handshake, mode, env, start)
    good = TemporalQuery(machine, min(machine.handshakes), BLOCKING, frozenset())
    bad = dict(handshake="zz", mode="stuck", env=frozenset({("zz", "R")}), start="ghost")
    for size in range(1, len(bad) + 1):
        for parts in combinations(bad, size):
            yield good._replace(**{part: bad[part] for part in parts})


@pytest.fixture(scope="module")
def differential_machines(machines, ring_document):
    found = list(machines)
    found += [
        parse_document(ring_document(length, polarity))[0]
        for length in (8, 14)
        for polarity in ("idle", "blocked")
    ]
    found += [parse_document(wide_document(k))[0] for k in (2, 3, 4)]
    found.append(parse_document("(machine headless (s0 nil box (((a R I) s0))))")[0])
    return found


def _full_outcome(check, query):
    """The result with its witness, or the error, as _outcome gives it."""

    def run():
        result = check(query)
        return result, result.witness

    return _outcome(run)


def test_checks_match_the_references_result_for_result(differential_machines):
    for machine in differential_machines:
        for query in every_query(machine):
            for check, reference in ((g_check, reference_g_check), (fg_check, reference_fg_check)):
                expected = _full_outcome(reference, query)
                assert _full_outcome(check, query) == expected, (check.__name__, query)


# --- verify_condition against references without classes ---------------------


def fresh_resolver(machine, env):
    """One exploration of its own per environment, shared with no other,
    made at the first blocked or idle atom."""

    made = []

    def resolve(atom):
        if not isinstance(atom, (BlockedAtom, IdleAtom)):
            raise ValueError(f"free variable {atom.name!r} in a machine condition")
        if not made:
            made.append(checker._EnvAnswers(machine, env, (machine.init_state,)))
        mode = BLOCKING if isinstance(atom, BlockedAtom) else IDLING
        return made[0].fg(atom.handshake, mode, machine.init_state)

    return resolve


def per_atom_resolver(machine, env):
    """The resolver verify_condition used before one exploration per
    environment: one checker.blocked or checker.idle query per atom."""

    def resolve(atom):
        if isinstance(atom, BlockedAtom):
            return checker.blocked(machine, atom.handshake, env)
        if isinstance(atom, IdleAtom):
            return checker.idle(machine, atom.handshake, env)
        raise ValueError(f"free variable {atom.name!r} in a machine condition")

    return resolve


def reference_verify_condition(form, machine, resolver=fresh_resolver):
    """verify_condition as it was before environment classes: every
    environment evaluated on its own, through a new resolver."""

    formulas._check_atoms_known(form, machine)
    entries = []
    for env in reasonable_envs(machine):
        resolve = resolver(machine, env)
        if isinstance(form, Iff):
            lhs = evaluate(form.lhs, resolve)
            rhs = evaluate(form.rhs, resolve)
            entries.append(EnvVerdict(env, lhs, rhs, lhs == rhs))
        else:
            value = evaluate(form, resolve)
            entries.append(EnvVerdict(env, value, value, value))
    return Verdict(all(entry.holds for entry in entries), tuple(entries))


def assert_same_verdict(form, machine):
    """verify_condition and both references give the same verdict or raise
    the same error; returns it."""

    expected = _outcome(lambda: reference_verify_condition(form, machine))
    per_atom = _outcome(lambda: reference_verify_condition(form, machine, per_atom_resolver))
    assert per_atom == expected, (machine.name, form)
    assert _outcome(lambda: verify_condition(form, machine)) == expected, (machine.name, form)
    return expected


def test_verdicts_match_on_library_and_shipped_conditions(
    join, join_conditions, distributor, distributor_conditions
):
    for spec in builtin_library():
        for cond in spec.conditions:
            assert_same_verdict(cond.formula, spec.machine)
    for machine, conditions in ((join, join_conditions), (distributor, distributor_conditions)):
        for _, text in conditions:
            assert_same_verdict(parse_condition(text), machine)


@pytest.mark.parametrize("k", range(2, 7))
def test_verdicts_match_on_wide_machines(k):
    machine = parse_document(wide_document(k))[0]
    for text in wide_conditions(k):
        assert_same_verdict(parse_condition(text), machine)
    assert_same_verdict(every_atom_iff(machine), machine)


@BASE
@given(form=formula_st(("a", "b", "c")))
def test_verdicts_match_on_random_join_conditions(join, form):
    assert_same_verdict(form, join)


@pytest.mark.parametrize(
    "form, error",
    [
        (parse_condition("blocked(zz)"), UnknownHandshakeError),
        (Or(VarAtom("blk_a"), TRUE), ValueError),
        (And(parse_condition("blocked(a)"), VarAtom("full")), ValueError),
        (And(FALSE, VarAtom("full")), None),  # short-circuits before the variable
    ],
)
def test_errors_match_on_join(join, form, error):
    outcome = assert_same_verdict(form, join)
    if error is None:
        assert isinstance(outcome, formulas.Verdict)
    else:
        assert outcome[0] is error


def test_errors_match_on_an_ambiguous_machine(twopath):
    outcome = assert_same_verdict(parse_condition("idle(b) -> blocked(a)"), twopath)
    assert outcome[0] is labeling.AmbiguousMachineError
    assert isinstance(assert_same_verdict(TRUE, twopath), formulas.Verdict)


def test_errors_match_without_an_initial_state():
    machine = parse_document("(machine headless (s0 nil box (((a R I) s0))))")[0]
    assert assert_same_verdict(parse_condition("blocked(a)"), machine)[0] is ValueError
    assert isinstance(assert_same_verdict(TRUE, machine), formulas.Verdict)


def test_the_error_is_the_first_environments_in_environment_order(explorations):
    """From the live environment the exploration tests b.R before a.R, yet
    a.R sorts first. Under {b.R} the machine cycles through a alone, so b
    is idle and the condition reaches y; under {a.R}, earlier in
    environment order, it ends stranded with b requested and reaches x. A
    walk taking the classes in test order would meet y first; the error
    must be x's, as in a loop over every environment."""

    machine = parse_document(
        """(machine forked
          (q0 t box (((b R I) p1) ((a R I) p2)))
          (p1 nil box (((a R I) p3)))
          (p2 nil transient (((a A O) q0)))
          (p3 nil transient (((a A O) p4)))
          (p4 nil transient (((b A O) q0))))"""
    )[0]
    live = checker._EnvAnswers(machine, frozenset(), (machine.init_state,))
    assert list(live.tested) == [("b", "R"), ("a", "R")]
    assert reasonable_envs(machine)[1:3] == (frozenset({("a", "R")}), frozenset({("b", "R")}))
    form = Or(And(BlockedAtom("b"), VarAtom("x")), And(IdleAtom("b"), VarAtom("y")))
    assert evaluate(form, fresh_resolver(machine, frozenset())) is False
    with pytest.raises(ValueError, match="'y'"):
        evaluate(form, fresh_resolver(machine, frozenset({("b", "R")})))
    explorations.clear()
    assert _outcome(lambda: verify_condition(form, machine)) == (
        ValueError, "free variable 'x' in a machine condition"
    )
    # The classes are taken in environment order, up to the first that raises.
    assert explorations == [frozenset(), frozenset({("a", "R")})]
    assert_same_verdict(form, machine)


def test_verdicts_match_exhaustively():
    """Every machine of at most 2 states over a.R, a.A, b.R and b.A, as in
    the class soundness test below: the iff chain over every atom, and
    conditions whose & and | cut atoms short, each way round, give the
    reference's verdict, every environment's outcome, or its error. Most
    of these machines are ambiguous, so many classes raise, and a cut
    condition may raise in some classes and not in others."""

    alphabet = labeling_sweep.wires("a.R,a.A,b.R,b.A")
    machines, outcomes = 0, {"verdicts": 0, "errors": 0}
    for machine in labeling_sweep.machines(2, alphabet, 2):
        machines += 1
        handshakes = sorted(machine.handshakes)
        forms = [every_atom_iff(machine)] if handshakes else [TRUE]
        for p, q in zip(handshakes, reversed(handshakes)):
            forms.append(Or(And(BlockedAtom(p), IdleAtom(q)), And(IdleAtom(p), BlockedAtom(q))))
        for form in forms:
            expected = _outcome(lambda: reference_verify_condition(form, machine))
            got = _outcome(lambda: verify_condition(form, machine))
            if isinstance(got, Verdict):
                outcomes["verdicts"] += 1
                assert got.environments == expected.environments == len(got.per_env), (machine, form)
            else:
                outcomes["errors"] += 1
            assert got == expected, (machine, form)
    assert machines == 3870
    assert outcomes == {"verdicts": 218, "errors": 10760}


# --- Cost and memory guards ----------------------------------------------------


@pytest.fixture
def explorations(monkeypatch):
    """The environment of every graph exploration made, in order."""

    made = []
    reach = checker._reach

    def counted(machine, env, *starts):
        made.append(env)
        return reach(machine, env, *starts)

    monkeypatch.setattr(checker, "_reach", counted)
    return made


def test_verify_condition_explores_once_per_environment(explorations):
    """At most once per environment, and once per class: on wide k the live
    environment and each single stable wire i0..i{k-1}, o.A strand the
    machine at a different point, and every larger environment falls in
    the class of its first stable wire along the cycle."""

    machine = parse_document(wide_document(4))[0]
    form = every_atom_iff(machine)
    assert len(list(formulas.atoms(form))) == 10
    verify_condition(form, machine)
    assert len(explorations) == 6
    assert len(set(explorations)) == len(explorations)
    assert set(explorations) <= set(reasonable_envs(machine))


def test_environment_classes_are_sound_exhaustively():
    """Every environment of every small machine: the fg answers at the
    initial state that the walk files for its class, for every handshake
    and mode, are those of a fresh exploration under it."""

    alphabet = labeling_sweep.wires("a.R,a.A,b.R,b.A")
    machines = envs = 0
    for machine in labeling_sweep.machines(2, alphabet, 2):
        machines += 1
        start = machine.init_state
        asks = [(handshake, mode) for handshake in sorted(machine.handshakes) for mode in (BLOCKING, IDLING)]
        trie = checker._env_classes(
            machine, lambda answer: tuple(_outcome(lambda: answer(*ask)) for ask in asks)
        )
        for env in reasonable_envs(machine):
            envs += 1
            fresh = checker._EnvAnswers(machine, env, (start,))
            expected = tuple(_outcome(lambda: fresh.fg(*ask, start)) for ask in asks)
            assert checker._find_class(trie, env) == expected, (machine, env)
    assert (machines, envs) == (3870, 10460)


def test_the_walk_meets_each_class_at_its_first_environment(explorations):
    """Numbering outcome's calls, a loop over every environment meets the
    classes' numbers in counting order, each first at the environment the
    walk explored for it: the walk takes the classes in reasonable_envs
    order, each at its smallest environment."""

    alphabet = labeling_sweep.wires("a.R,a.A,b.R,b.A")
    for machine in labeling_sweep.machines(2, alphabet, 2):
        explorations.clear()
        handshake = min(machine.handshakes, default=None)
        calls = []

        def outcome(answer):
            if handshake is not None:
                _outcome(lambda: answer(handshake, BLOCKING))
            calls.append(len(calls))
            return calls[-1]

        trie = checker._env_classes(machine, outcome)
        first = {}
        for env in reasonable_envs(machine):
            first.setdefault(checker._find_class(trie, env), env)
        assert list(first) == calls, machine
        assert list(first.values()) == (explorations if handshake else [frozenset()]), machine


def test_cross_validate_explores_once_per_environment(explorations, join):
    assert cross_validate(join) == ()
    assert explorations == list(reasonable_envs(join))


@pytest.mark.parametrize(
    "ask",
    [
        lambda machine, handshake, env: g_check(TemporalQuery(machine, handshake, IDLING, env)),
        lambda machine, handshake, env: fg_check(TemporalQuery(machine, handshake, BLOCKING, env)),
        checker.blocked,
        checker.idle,
    ],
    ids=["g", "fg", "blocked", "idle"],
)
def test_single_queries_explore_once_and_memoise_only_labels(explorations, ask):
    machine = parse_document(wide_document(3))[0]
    envs = reasonable_envs(machine)
    for env in envs:
        for handshake in sorted(machine.handshakes):
            ask(machine, handshake, env)
    assert explorations == [env for env in envs for _ in machine.handshakes]
    # Labels and the environment tuple, never an answer.
    assert {fn for fn, _ in machine._memo} == {labeling._parity_search, checker._environments}


def test_verify_condition_memoises_only_labels():
    """A verdict builds the environment tuple only when per_env is read."""

    machine = parse_document(wide_document(6))[0]
    verdict = verify_condition(every_atom_iff(machine), machine)
    assert verdict.environments == 128
    # Labels only: neither an answer nor the environment tuple.
    assert {fn for fn, _ in machine._memo} == {labeling._parity_search}
    assert len(verdict.per_env) == 128
    assert {fn for fn, _ in machine._memo} == {labeling._parity_search, checker._environments}
