"""Condition DSL parsing, rewriting, evaluation, and verification."""

import pytest
from hypothesis import given

from test_properties import BASE, formula_st
from xdicheck import formulas as f
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
    discover_equations,
    eval_condition,
    evaluate,
    expand_iff,
    first_model,
    parse_condition,
    satisfying_models,
    smt_term,
    to_dsl,
    to_nnf,
    verify_condition,
)
from xdicheck.labeling import UnknownHandshakeError
from xdicheck.sexpr import ParseError

LIVE = frozenset()


def test_parse_atoms_and_constants():
    assert parse_condition("true") == TRUE
    assert parse_condition("false") == FALSE
    assert parse_condition("blocked(a)") == BlockedAtom("a")
    assert parse_condition("idle(sel01)") == IdleAtom("sel01")


def test_operator_precedence_low_to_high():
    form = parse_condition("blocked(a) <-> blocked(c) | idle(b) & !idle(a)")
    assert form == Iff(
        BlockedAtom("a"),
        Or(BlockedAtom("c"), And(IdleAtom("b"), Not(IdleAtom("a")))),
    )


def test_iff_is_left_associative():
    form = parse_condition("true <-> false <-> true")
    assert form == Iff(Iff(TRUE, FALSE), TRUE)


def test_implies_is_right_associative():
    form = parse_condition("true -> false -> true")
    assert form == Implies(TRUE, Implies(FALSE, TRUE))


def test_parentheses_override_precedence():
    form = parse_condition("(blocked(a) | idle(b)) & idle(c)")
    assert form == And(Or(BlockedAtom("a"), IdleAtom("b")), IdleAtom("c"))


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("blocked(a) <->", "expected a formula"),
        ("idle()", "expected a handshake name"),
        ("blocked(a) idle(b)", "trailing input"),
        ("foo(a)", "unknown atom"),
        ("(blocked(a)", "expected ')'"),
    ],
)
def test_parse_errors_carry_position(text, fragment):
    with pytest.raises(ParseError) as info:
        parse_condition(text)
    assert fragment in info.value.message
    assert info.value.line == 1
    assert info.value.column >= 1


def test_to_dsl_round_trips_known_shapes():
    for text in (
        "blocked(a) <-> blocked(c) | idle(b)",
        "!(blocked(a) | idle(b)) & true",
        "blocked(a) -> (idle(b) -> idle(c))",
        "(true -> false) -> true",
        "idle(a) | (idle(b) <-> idle(c))",
    ):
        form = parse_condition(text)
        assert parse_condition(to_dsl(form)) == form


def test_to_dsl_omits_redundant_parens():
    form = parse_condition("blocked(a) <-> blocked(c) | idle(b)")
    assert to_dsl(form) == "blocked(a) <-> blocked(c) | idle(b)"


def test_atoms_iterates_left_to_right():
    form = parse_condition("blocked(a) <-> blocked(c) | idle(b)")
    assert list(f.atoms(form)) == [BlockedAtom("a"), BlockedAtom("c"), IdleAtom("b")]


def test_condition_handshakes():
    form = parse_condition("blocked(a) <-> blocked(c) | idle(b)")
    assert f.condition_handshakes(form) == frozenset({"a", "b", "c"})


def test_formula_variables_sorted_unique():
    forms = [
        Or(VarAtom("idl_x"), VarAtom("blk_a")),
        And(VarAtom("blk_a"), Not(VarAtom("full_s"))),
    ]
    assert f.formula_variables(forms) == ("blk_a", "full_s", "idl_x")


def test_map_atoms_replaces_leaves():
    form = parse_condition("blocked(a) | idle(b)")
    renamed = f.map_atoms(
        form, lambda atom: VarAtom(f"v_{atom.handshake}")
    )
    assert renamed == Or(VarAtom("v_a"), VarAtom("v_b"))


def test_rename_handshakes():
    form = parse_condition("blocked(in0) <-> blocked(out) | idle(in1)")
    renamed = f.rename_handshakes(form, {"in0": "a", "in1": "b", "out": "c"})
    assert to_dsl(renamed) == "blocked(a) <-> blocked(c) | idle(b)"


def _assignments(names):
    import itertools

    for bits in itertools.product((False, True), repeat=len(names)):
        yield dict(zip(names, bits))


@pytest.mark.parametrize(
    "text",
    [
        "blocked(a) <-> blocked(c) | idle(b)",
        "!(blocked(a) <-> idle(b))",
        "blocked(a) -> idle(b) -> false",
        "true <-> (idle(a) | !idle(b)) & blocked(c)",
    ],
)
def test_rewrites_preserve_truth_tables(text):
    form = parse_condition(text)
    names = sorted({to_dsl(a) for a in f.atoms(form) if not isinstance(a, Const)})
    for assignment in _assignments(names):
        resolve = lambda atom: assignment[to_dsl(atom)]
        reference = evaluate(form, resolve)
        assert evaluate(expand_iff(form), resolve) == reference
        assert evaluate(to_nnf(form), resolve) == reference
        assert evaluate(to_nnf(expand_iff(form)), resolve) == reference


def test_to_nnf_pushes_negation_to_leaves():
    form = to_nnf(parse_condition("!(blocked(a) & (idle(b) | false))"))
    stack = [form]
    while stack:
        node = stack.pop()
        if isinstance(node, Not):
            assert isinstance(node.operand, (BlockedAtom, IdleAtom, VarAtom, Const))
        elif isinstance(node, (And, Or)):
            stack.extend((node.lhs, node.rhs))
        else:
            assert isinstance(node, (BlockedAtom, IdleAtom, VarAtom, Const))


def test_eval_condition_on_join(join):
    form = parse_condition("blocked(a) <-> blocked(c) | idle(b)")
    assert eval_condition(form, join, LIVE) is True
    assert eval_condition(parse_condition("blocked(a)"), join, LIVE) is False


def test_eval_condition_rejects_unknown_handshake(join):
    with pytest.raises(UnknownHandshakeError):
        eval_condition(parse_condition("blocked(zz)"), join, LIVE)


def test_eval_condition_rejects_circuit_variables(join):
    with pytest.raises(ValueError, match="variable"):
        eval_condition(Or(VarAtom("blk_a"), TRUE), join, LIVE)


def test_verify_condition_splits_iff_sides(join):
    verdict = verify_condition(
        parse_condition("blocked(a) <-> blocked(c) | idle(b)"), join
    )
    assert verdict.holds_overall
    assert len(verdict.per_env) == 8
    live = verdict.per_env[0]
    assert live.env == frozenset()
    assert (live.lhs, live.rhs, live.holds) == (False, False, True)
    assert verdict.failing_envs == ()


def test_verify_condition_reports_failures(join):
    verdict = verify_condition(parse_condition("blocked(a)"), join)
    assert not verdict.holds_overall
    failing = verdict.failing_envs
    assert len(failing) == 1
    assert failing[0].env == frozenset()
    assert "FAILS" in failing[0].describe()
    assert failing[0].describe().startswith("{}:")


def test_smt_term_shapes():
    assert smt_term(VarAtom("blk_a")) == "blk_a"
    assert smt_term(TRUE) == "true"
    assert smt_term(Not(VarAtom("x"))) == "(not x)"
    assert smt_term(Iff(VarAtom("x"), Or(VarAtom("y"), VarAtom("z")))) == "(= x (or y z))"
    chained = And(VarAtom("x"), And(VarAtom("y"), VarAtom("z")))
    assert smt_term(chained) == "(and x y z)"
    assert smt_term(Implies(VarAtom("x"), VarAtom("y"))) == "(=> x y)"


def test_smt_term_rejects_machine_atoms():
    with pytest.raises(ValueError):
        smt_term(BlockedAtom("a"))


def _recursive_flatten(form, cls):
    if isinstance(form, cls):
        yield from _recursive_flatten(form.lhs, cls)
        yield from _recursive_flatten(form.rhs, cls)
    else:
        yield form


def recursive_smt_term(form):
    """The recursive renderer smt_term replaced, kept as its reference."""

    if isinstance(form, Const):
        return "true" if form.value else "false"
    if isinstance(form, VarAtom):
        return form.name
    if isinstance(form, (BlockedAtom, IdleAtom)):
        raise ValueError("blocked/idle atoms must be substituted before emission")
    if isinstance(form, Not):
        return f"(not {recursive_smt_term(form.operand)})"
    if isinstance(form, (And, Or)):
        word = "and" if isinstance(form, And) else "or"
        parts = " ".join(
            recursive_smt_term(part) for part in _recursive_flatten(form, type(form))
        )
        return f"({word} {parts})"
    if isinstance(form, Implies):
        return f"(=> {recursive_smt_term(form.lhs)} {recursive_smt_term(form.rhs)})"
    if isinstance(form, Iff):
        return f"(= {recursive_smt_term(form.lhs)} {recursive_smt_term(form.rhs)})"
    raise TypeError(f"not a formula: {form!r}")


def _outcome(render, form):
    try:
        return render(form)
    except ValueError as exc:
        return ("ValueError", str(exc))


@BASE
@given(formula_st(("a",), ("x", "y", "z")))
def test_smt_term_matches_the_recursive_reference(form):
    # With machine atoms in the mix, both renderers must raise the same ValueError.
    assert _outcome(smt_term, form) == _outcome(recursive_smt_term, form)


@pytest.mark.parametrize("cls, word", [(Or, "or"), (And, "and")])
def test_smt_term_renders_a_1200_term_chain(cls, word):
    names = [f"v{i}" for i in range(1200)]
    form = VarAtom(names[0])
    for name in names[1:]:
        form = cls(form, VarAtom(name))
    assert smt_term(form) == f"({word} {' '.join(names)})"
    assert smt_term(Not(form)) == f"(not ({word} {' '.join(names)}))"


def test_smt_term_rejects_the_first_bad_node_in_rendering_order():
    with pytest.raises(ValueError):
        smt_term(Implies(IdleAtom("a"), 5))
    with pytest.raises(TypeError, match="not a formula: 5"):
        smt_term(Implies(VarAtom("x"), Or(5, IdleAtom("a"))))


def test_satisfying_models_enumerates_in_order():
    x, y = VarAtom("x"), VarAtom("y")
    models = list(satisfying_models([Or(x, y)], ("x", "y")))
    assert models == [
        {"x": False, "y": True},
        {"x": True, "y": False},
        {"x": True, "y": True},
    ]
    assert first_model([Or(x, y)], ("x", "y")) == {"x": False, "y": True}
    assert first_model([And(x, Not(x))], ("x",)) is None


def test_satisfying_models_infer_variables():
    x = VarAtom("x")
    assert list(satisfying_models([x])) == [{"x": True}]


def test_a_variable_outside_the_list_is_a_key_error():
    form = Or(VarAtom("x"), VarAtom("z"))
    with pytest.raises(KeyError, match="'z'"):
        first_model([form], ("x",))
    with pytest.raises(KeyError, match="'z'"):
        list(satisfying_models([form], ("x",)))


def test_discover_equations_recovers_the_join_condition(join):
    found = discover_equations(join, BlockedAtom("a"), max_ops=1)
    assert Or(BlockedAtom("c"), IdleAtom("b")) in found
    # every reported candidate matches the goal on all environments
    goal = BlockedAtom("a")
    for candidate in found:
        verdict = verify_condition(Iff(goal, candidate), join)
        assert verdict.holds_overall, to_dsl(candidate)


def test_discover_equations_orders_smallest_first(join):
    found = discover_equations(join, BlockedAtom("a"), max_ops=1)
    sizes = [len(list(f.atoms(form))) for form in found]
    assert sizes == sorted(sizes)
