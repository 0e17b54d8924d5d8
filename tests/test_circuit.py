"""Netlists, product exploration, deadlock analysis, and formula extraction."""

import pathlib
from collections import deque
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from xdicheck import circuit
from xdicheck.circuit import (
    Constraint,
    DeadlockFinding,
    DeadlockInstance,
    Edge,
    Endpoint,
    ExplorationLimitError,
    NetlistError,
    analyze_deadlock,
    compose,
    derive_deadlock_formula,
    emit_smt,
    find_deadlock,
    fullness_invariant,
    parse_netlist,
)
from conftest import bench_jobs, settled_states
from dsl_reference import to_dsl
from solver_reference import satisfying_models
from test_formulas import recursive_smt_term
from xdicheck.formulas import (
    FALSE,
    And,
    BlockedAtom,
    Iff,
    Not,
    Or,
    VarAtom,
    evaluate,
    map_atoms,
    smt_term,
)
from xdicheck.library import builtin_library, get_primitive
from xdicheck.labeling import compute_block_idle
from xdicheck.machine import INPUT, OUTPUT, REQUEST


@pytest.fixture(scope="module")
def pipeline(machines_dir):
    return parse_netlist((machines_dir / "pipeline.net").read_text())


@pytest.fixture(scope="module")
def broken(machines_dir):
    return parse_netlist((machines_dir / "pipeline_broken.net").read_text())


@pytest.fixture(scope="module")
def ring(machines_dir):
    return parse_netlist((machines_dir / "ring.net").read_text())


def test_parse_netlist_shape(pipeline):
    assert pipeline.name == "pipeline"
    assert [name for name, _ in pipeline.instances] == ["src", "f", "st0", "st1", "j", "snk"]
    assert pipeline.instance_map["st0"] == "storage"
    assert {c.name for c in pipeline.channels} == {"a", "b", "c", "d", "e", "f2"}
    assert pipeline.external_endpoints == ()
    assert pipeline.stable == frozenset()


def test_broken_netlist_externals(broken):
    assert [name for name, _ in broken.instances] == ["src", "f", "st0", "j", "snk"]
    assert broken.external_endpoints == (
        Endpoint("f", "out1"),
        Endpoint("j", "in1"),
    )
    assert broken.stable == frozenset({Endpoint("j", "in1")})


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("(circuit x (instance i join) (instance i fork))", "duplicate instance"),
        ("(circuit x (instance i mixer))", "unknown primitive"),
        (
            "(circuit x (instance i1 fork) (instance i2 fork)"
            " (channel c (i1 out0) (i2 out0)))",
            "direction clash",
        ),
        (
            "(circuit x (instance st storage) (instance k sink)"
            " (channel c (st out) (k in))"
            " (channel c2 (st out) (k in)))",
            "more than one channel",
        ),
        (
            "(circuit x (instance i join) (instance k sink)"
            " (channel c (i out) (k ghost)))",
            "unknown handshake",
        ),
        (
            "(circuit x (instance i join) (channel c (i out) (x in)))",
            "undeclared instance",
        ),
        (
            "(circuit x (instance i storage) (channel c (i out) (i in)))",
            "itself",
        ),
        (
            "(circuit x (instance st storage) (instance k sink)"
            " (channel c (st out) (k in)) (stable (st out)))",
            "connected endpoint",
        ),
        (
            "(circuit x (instance st storage) (instance st2 storage)"
            " (channel c (st out) (st2 in)) (channel c (st2 out) (st in)))",
            "duplicate channel",
        ),
        ("(circuit x (instance a-b join))", "instance id 'a-b' is not an identifier"),
        (
            "(circuit x (instance st storage) (instance k sink) (channel a|b (st out) (k in)))",
            r"channel id 'a\|b' is not an identifier",
        ),
        # st1_in would be both this channel's variable base and the one of
        # st1's unconnected in port: blk_st1_in would be declared twice.
        (
            "(circuit x (instance st0 storage) (instance st1 storage) (instance k sink)"
            " (channel st1_in (st0 out) (k in)))",
            "channel id 'st1_in' is the variable name of external endpoint st1.in",
        ),
    ],
)
def test_netlist_validation_failures(text, fragment):
    with pytest.raises(NetlistError, match=fragment):
        parse_netlist(text)


def test_a_channel_may_take_the_name_of_a_connected_endpoint():
    netlist = parse_netlist(
        "(circuit x (instance st storage) (instance k sink) (channel st_out (st out) (k in)))"
    )
    instance = derive_deadlock_formula(netlist, "st_out")
    assert len(set(instance.variables)) == len(instance.variables)


def test_every_shipped_and_benchmark_netlist_keeps_the_name_rules(machines_dir, monkeypatch):
    files = (file for job in bench_jobs(monkeypatch) for file in job.files)
    texts = dict.fromkeys(text for name, text in files if name.endswith(".net"))
    texts.update(dict.fromkeys(path.read_text() for path in machines_dir.glob("*.net")))
    assert len(texts) > 50
    for text in texts:
        parse_netlist(text)


def test_unknown_circuit_entry_is_a_parse_error():
    from xdicheck.sexpr import ParseError

    with pytest.raises(ParseError, match="unknown circuit entry"):
        parse_netlist("(circuit x (widget y))")


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("((circuit) x)", "expected circuit keyword", 1, 2),
        ("(circuit x\n  7)", "expected circuit entry", 2, 3),
        (
            "(circuit x\n (instance i join)\n (channel c i (k in)))",
            "expected endpoint (instance handshake)", 3, 13,
        ),
        ('(circuit x (instance "i" join))', "expected instance id", 1, 22),
    ],
)
def test_parse_errors_point_at_the_offending_form(text, message, line, column):
    from xdicheck.sexpr import ParseError

    with pytest.raises(ParseError) as info:
        parse_netlist(text)
    assert (info.value.message, info.value.line, info.value.column) == (message, line, column)


def test_stable_annotation_on_external_endpoint_is_allowed():
    netlist = parse_netlist("(circuit x (instance i join) (stable (i in1)))")
    assert netlist.stable == frozenset({Endpoint("i", "in1")})


def test_channel_must_connect_complementary_directions():
    # storage out (R emitter) to sink in (R consumer) is fine
    good = parse_netlist(
        "(circuit ok (instance st storage) (instance k sink)"
        " (channel c (st out) (k in)))"
    )
    assert good.endpoint_channel[Endpoint("st", "out")].name == "c"
    with pytest.raises(NetlistError, match="direction clash"):
        parse_netlist(
            "(circuit bad (instance k1 sink) (instance k2 sink)"
            " (channel c (k1 in) (k2 in)))"
        )


def test_compose_counts_product_states(pipeline, broken, ring, machines_dir):
    assert len(compose(pipeline).states) == 62
    assert len(compose(broken).states) == 22
    assert compose(ring).states == (("s0", "s0"),)
    single = parse_netlist((machines_dir / "single_join.net").read_text())
    assert len(compose(single).states) == 10


def test_compose_respects_state_limit(pipeline):
    with pytest.raises(ExplorationLimitError):
        compose(pipeline, max_states=10)


def test_product_paths_replay_as_edges(pipeline):
    system = compose(pipeline)
    paths = product_paths(system)
    for state in system.states[:12]:
        assert len(paths[state]) <= len(system.states)


def test_pipeline_has_no_deadlock(pipeline):
    assert analyze_deadlock(compose(pipeline)) is None
    assert find_deadlock(pipeline) is None


def test_ring_and_empty_have_no_deadlock(ring, machines_dir):
    assert find_deadlock(ring) is None
    empty = parse_netlist((machines_dir / "empty.net").read_text())
    assert find_deadlock(empty) is None
    assert analyze_deadlock(compose(empty)) is None


def test_broken_deadlock_witness(broken):
    finding = analyze_deadlock(compose(broken))
    assert finding is not None
    assert finding.instances == ("j",)
    assert finding.state == ("s1", "s5", "s3", "s1", "s0")
    assert finding.path == ("a.R", "b.R", "f.out1.R", "b.A", "d.R")
    assert find_deadlock(broken) == (finding.state, finding.path)


def test_settled_states_of_storage():
    assert settled_states(get_primitive("storage").machine) == frozenset({"s0", "s2"})


def test_pipeline_fullness_invariant(pipeline):
    invariant = fullness_invariant(compose(pipeline))
    assert invariant is not None
    assert to_dsl(invariant) == "!full_st0 & !full_st1 | full_st0 & full_st1"


def test_invariant_absent_without_storage(broken, machines_dir):
    # one storage with both profiles realized carries no information
    assert fullness_invariant(compose(broken)) is None
    single = parse_netlist((machines_dir / "single_join.net").read_text())
    assert fullness_invariant(compose(single)) is None


def test_pipeline_formula_is_unsatisfiable(pipeline):
    instance = derive_deadlock_formula(pipeline, "a")
    assert instance.target == "a"
    assert instance.first_model() is None
    assert list(satisfying_models(instance.formulas(), instance.variables)) == []


def test_pipeline_formula_variables(pipeline):
    instance = derive_deadlock_formula(pipeline, "a")
    assert instance.variables == (
        "blk_a", "blk_b", "blk_c", "blk_d", "blk_e", "blk_f2",
        "idl_a", "idl_b", "idl_c", "idl_d", "idl_e", "idl_f2",
        "full_st0", "full_st1",
    )


def test_pipeline_constraint_labels_follow_declaration_order(pipeline):
    instance = derive_deadlock_formula(pipeline, "a")
    labels = [c.label for c in instance.constraints]
    assert labels[0] == "src: !idle(out)"
    assert labels[-1] == "target: Dead(a)"
    assert "storage fullness invariant" in labels
    assert labels.index("src: !idle(out)") < labels.index("snk: !blocked(in)")


def test_pipeline_without_invariant_shows_the_mismatch(pipeline):
    instance = derive_deadlock_formula(pipeline, "a")
    loose = [c.formula for c in instance.constraints if c.label != "storage fullness invariant"]
    models = list(satisfying_models(loose, instance.variables))
    assert len(models) == 2
    assert all(model["full_st0"] != model["full_st1"] for model in models)


def test_broken_formula_has_exactly_one_model(broken):
    instance = derive_deadlock_formula(broken, "a")
    models = list(satisfying_models(instance.formulas(), instance.variables))
    assert len(models) == 1
    model = models[0]
    expected_true = {
        "blk_a", "blk_b", "blk_d",
        "idl_f2", "idl_f_out1", "idl_j_in1",
        "full_st0",
    }
    assert {name for name, value in model.items() if value} == expected_true
    assert len(instance.variables) == 13


def test_broken_formula_external_constraints(broken):
    instance = derive_deadlock_formula(broken, "a")
    labels = [c.label for c in instance.constraints]
    assert "external f.out1: live" in labels
    assert "external j.in1: stable" in labels
    assert all(label != "storage fullness invariant" for label in labels)


def test_ring_formula_unsat(ring):
    instance = derive_deadlock_formula(ring, "x")
    assert instance.first_model() is None


def test_target_must_name_a_channel(pipeline):
    with pytest.raises(NetlistError, match="no channel named"):
        derive_deadlock_formula(pipeline, "nothere")


def test_emit_smt_layout():
    instance = DeadlockInstance((), (Constraint("target: false", FALSE),), "none")
    assert emit_smt(instance) == (
        "(set-logic QF_UF)\n; target: false\n(assert false)\n(check-sat)\n"
    )


def test_emit_smt_full_instance(pipeline):
    text = emit_smt(derive_deadlock_formula(pipeline, "a"))
    lines = text.splitlines()
    assert lines[0] == "(set-logic QF_UF)"
    assert lines[-1] == "(check-sat)"
    assert "(declare-const blk_a Bool)" in lines
    assert "(declare-const full_st1 Bool)" in lines
    assert "; target: Dead(a)" in lines
    assert "(assert (and blk_a (not idl_a)))" in lines
    assert text.endswith("\n")
    # every declared variable appears before the first assertion
    first_assert = next(i for i, l in enumerate(lines) if l.startswith("(assert"))
    declares = [i for i, l in enumerate(lines) if l.startswith("(declare-const")]
    assert max(declares) < first_assert


# --- Reference product engine ------------------------------------------------
#
# The per-state successor builder and per-instance backward search that
# compose and analyze_deadlock replaced. Kept as the oracle for the
# table-driven engine: same states, edges, parents and findings.


def reference_successors(netlist, order, machines, index_of, state):
    edges = []
    for idx, instance in enumerate(order):
        machine = machines[idx]
        for wire, target in machine.entry(state[idx]).transitions:
            point = Endpoint(instance, wire.handshake)
            channel = netlist.endpoint_channel.get(point)
            if wire.direction == OUTPUT:
                if channel is None:
                    successor = state[:idx] + (target,) + state[idx + 1 :]
                    edges.append(
                        Edge(f"{point}.{wire.phase}", frozenset((instance,)), successor)
                    )
                    continue
                other = channel.end_b if channel.end_a == point else channel.end_a
                jdx = index_of[other.instance]
                partner = machines[jdx]
                for pwire, ptarget in partner.entry(state[jdx]).transitions:
                    if (
                        pwire.handshake == other.handshake
                        and pwire.phase == wire.phase
                        and pwire.direction == INPUT
                    ):
                        nxt = list(state)
                        nxt[idx] = target
                        nxt[jdx] = ptarget
                        edges.append(
                            Edge(
                                f"{channel.name}.{wire.phase}",
                                frozenset((instance, other.instance)),
                                tuple(nxt),
                            )
                        )
            elif channel is None and point not in netlist.stable:
                successor = state[:idx] + (target,) + state[idx + 1 :]
                edges.append(
                    Edge(f"{point}.{wire.phase}", frozenset((instance,)), successor)
                )
    return edges


@dataclass(frozen=True)
class ReferenceSystem:
    """The tuple-keyed product the reference engine builds: the fields
    ProductSystem offers as views, stored."""

    netlist: object
    order: tuple
    machines: tuple
    init: tuple
    states: tuple
    adjacency: dict
    parents: dict

    def path_to(self, state):
        labels = []
        while self.parents[state] is not None:
            state, label = self.parents[state]
            labels.append(label)
        return tuple(reversed(labels))


def reference_compose(netlist, max_states=circuit.PRODUCT_LIMIT):
    order = tuple(instance for instance, _ in netlist.instances)
    machines = tuple(netlist.machine_of(instance) for instance in order)
    index_of = {instance: idx for idx, instance in enumerate(order)}
    init = tuple(machine.init_state for machine in machines)
    if max_states < 1:
        raise ExplorationLimitError(f"product of {netlist.name} exceeds {max_states} states")
    parents = {init: None}
    adjacency = {}
    states = []
    queue = deque([init])
    while queue:
        state = queue.popleft()
        states.append(state)
        edges = tuple(reference_successors(netlist, order, machines, index_of, state))
        adjacency[state] = edges
        for edge in edges:
            if edge.target not in parents:
                if len(parents) >= max_states:
                    raise ExplorationLimitError(
                        f"product of {netlist.name} exceeds {max_states} states"
                    )
                parents[edge.target] = (state, edge.label)
                queue.append(edge.target)
    return ReferenceSystem(netlist, order, machines, init, tuple(states), adjacency, parents)


def reference_can_move(system, instance):
    moving = [
        state
        for state in system.states
        if any(instance in edge.movers for edge in system.adjacency[state])
    ]
    backward = {}
    for state in system.states:
        for edge in system.adjacency[state]:
            backward.setdefault(edge.target, []).append(state)
    reached = set(moving)
    queue = deque(moving)
    while queue:
        state = queue.popleft()
        for prior in backward.get(state, ()):
            if prior not in reached:
                reached.add(prior)
                queue.append(prior)
    return frozenset(reached)


def reference_stuck_profile(machine):
    label_maps = [
        compute_block_idle(machine, handshake) for handshake in sorted(machine.handshakes)
    ]
    return {
        entry.name: entry.is_transient
        or any(labels[entry.name] for labels in label_maps)
        for entry in machine.states
    }


def reference_analyze_deadlock(system):
    if not system.order:
        return None
    profiles = [reference_stuck_profile(machine) for machine in system.machines]
    movable = {instance: reference_can_move(system, instance) for instance in system.order}
    for state in system.states:
        flagged = tuple(
            instance
            for idx, instance in enumerate(system.order)
            if profiles[idx][state[idx]] and state not in movable[instance]
        )
        if flagged:
            return DeadlockFinding(state, system.path_to(state), flagged)
    return None


EXTERNAL_INPUT = (
    "(circuit external_input (instance src source) (instance j join)"
    " (instance snk sink) (channel a (src out) (j in0)) (channel b (j out) (snk in)){}"
)


# Instance 0 (st0) is the partner of src's request inside the first block
# of moves (see compose), and the join's second input is external, live or
# stable, in the second.
BLOCK_EDGES = (
    "(circuit block_edges (instance st0 storage) (instance src source)"
    " (instance st1 storage) (instance st2 storage) (instance j join) (instance snk sink)"
    " (channel a (src out) (st0 in)) (channel b (st0 out) (st1 in))"
    " (channel c (st1 out) (st2 in)) (channel d (st2 out) (j in0))"
    " (channel e (j out) (snk in)){}"
)


# A clean pipeline beside an unconnected join whose second input is
# stable: half its states can return to the initial state, and the states
# of both halves lie on cycles (see test_mixed_product_has_both_kinds_of_state).
MIXED = (
    "(circuit mixed (instance a source) (instance st storage) (instance z sink)"
    " (instance b source) (instance j join) (instance y sink)"
    " (channel c0 (a out) (st in)) (channel c1 (st out) (z in))"
    " (channel c2 (b out) (j in0)) (channel c3 (j out) (y in)) (stable (j in1)))"
)


MACHINES = pathlib.Path(__file__).resolve().parent.parent / "machines"
SHIPPED_NETS = sorted(path.name for path in MACHINES.glob("*.net"))
# Chain 7 spans three blocks in either declaration order ("reversed").
BLOCK_CASES = [
    ("chain", 7, False, 3), ("chain", 7, True, 3), ("reversed", 7, False, 3), ("reversed", 7, True, 3),
    ("blocks", ")", None, 2), ("blocks", " (stable (j in1)))", None, 2),
]
DIFFERENTIAL_CASES = (
    [("file", name, None) for name in SHIPPED_NETS]
    + [("chain", n, broken) for broken in (False, True) for n in range(1, 7)]
    + [("tree", depth, broken) for broken in (False, True) for depth in (1, 2)]
    + [("inline", ")", None), ("inline", " (stable (j in1)))", None), ("mixed", None, None)]
    + [case[:3] for case in BLOCK_CASES]
)


def differential_netlist(kind, arg, broken, machines_dir, circuit_document):
    if kind == "file":
        text = (machines_dir / arg).read_text()
    elif kind == "inline":
        text = EXTERNAL_INPUT.format(arg)
    elif kind == "blocks":
        text = BLOCK_EDGES.format(arg)
    elif kind == "mixed":
        text = MIXED
    elif kind == "reversed":
        netlist = parse_netlist(circuit_document("chain", arg, broken))
        return netlist._replace(instances=netlist.instances[::-1])
    else:
        text = circuit_document(kind, arg, broken)
    return parse_netlist(text)


@pytest.mark.parametrize("kind, arg, broken, blocks", BLOCK_CASES, ids=map(str, BLOCK_CASES))
def test_block_cases_span_blocks(kind, arg, broken, blocks, machines_dir, circuit_document):
    """The differential cases for compose's block move tables cross block
    boundaries: count the runs of consecutive instances whose joint radix
    stays within circuit._BLOCK_SPAN, and compose builds one table each."""

    netlist = differential_netlist(kind, arg, broken, machines_dir, circuit_document)
    count, span = 0, circuit._BLOCK_SPAN + 1
    for instance, _ in netlist.instances:
        radix = len(netlist.machine_of(instance).states)
        span *= radix
        if span > circuit._BLOCK_SPAN:
            count, span = count + 1, radix
    assert count == blocks
    assert len(compose(netlist).plan) == count


def parent_links(system):
    """The breadth-first tree in the reference's form, read from the first
    predecessor of each state, parent_label and decode: each state's
    parent and the label of the edge from it, None at the initial state."""

    states = [system.decode(code) for code in system.codes]
    links = {states[0]: None}
    for s in range(1, len(states)):
        parent = system.predecessors[s][0]
        links[states[s]] = (states[parent], system.labels[system.parent_label[s]])
    return links


def product_paths(system):
    """Each reachable product state's event labels along the breadth-first
    path from the initial state, read from decode and the parent links."""

    return {system.decode(code): system._path(s) for s, code in enumerate(system.codes)}


def assert_search_fields_match(system, expected):
    """moving and predecessors, which analyze_deadlock reads, hold what the
    reference adjacency implies: per state, the OR of its edges' mover
    bits, and the source of every edge into it, as a multiset."""

    index = {state: s for s, state in enumerate(expected.states)}
    bits = {instance: 1 << idx for idx, instance in enumerate(expected.order)}
    moving = [0] * len(expected.states)
    predecessors = [[] for _ in expected.states]
    for s, state in enumerate(expected.states):
        for edge in expected.adjacency[state]:
            for instance in edge.movers:
                moving[s] |= bits[instance]
            predecessors[index[edge.target]].append(s)
    assert system.moving == moving
    assert list(map(sorted, system.predecessors)) == list(map(sorted, predecessors))


def assert_can_move_matches(system, expected):
    """circuit._can_move holds, for every state and instance, whether
    the instance can still move from the state: whether the state is in
    reference_can_move's set for it."""

    can = circuit._can_move(system)
    for idx, instance in enumerate(expected.order):
        movable = reference_can_move(expected, instance)
        assert [bool(mask >> idx & 1) for mask in can] == [
            state in movable for state in expected.states
        ]


def reference_reach(system, state):
    """The states reachable from state, itself included."""

    reached = {state}
    queue = deque([state])
    while queue:
        for edge in system.adjacency[queue.popleft()]:
            if edge.target not in reached:
                reached.add(edge.target)
                queue.append(edge.target)
    return reached


def test_mixed_product_has_both_kinds_of_state():
    """MIXED has 12 states: 6 can return to the initial state and take
    the OR of every moving mask in circuit._can_move, and 6 cannot and
    take less. Every state lies on a cycle, so both the closure from the
    initial state and the worklist on the other states have cycles to
    get right."""

    netlist = parse_netlist(MIXED)
    system = compose(netlist)
    expected = reference_compose(netlist)
    home = [expected.init in reference_reach(expected, state) for state in expected.states]
    assert (len(home), sum(home)) == (12, 6)
    for state in expected.states:
        assert any(
            state in reference_reach(expected, edge.target) for edge in expected.adjacency[state]
        )
    union = 0
    for mask in system.moving:
        union |= mask
    assert [mask == union for mask in circuit._can_move(system)] == home


@pytest.mark.parametrize(
    "kind, arg, broken", DIFFERENTIAL_CASES, ids=[str(case) for case in DIFFERENTIAL_CASES]
)
def test_engine_matches_reference(kind, arg, broken, machines_dir, circuit_document):
    netlist = differential_netlist(kind, arg, broken, machines_dir, circuit_document)
    system = compose(netlist)
    expected = reference_compose(netlist)
    assert system.order == expected.order
    assert system.machines == expected.machines
    assert system.decode(system.codes[0]) == expected.init
    assert system.states == expected.states
    assert system.adjacency == expected.adjacency
    assert parent_links(system) == expected.parents
    paths = product_paths(system)
    assert [paths[state] for state in expected.states] == [
        expected.path_to(state) for state in expected.states
    ]
    assert_can_move_matches(system, expected)
    finding = analyze_deadlock(system)
    reference = reference_analyze_deadlock(expected)
    assert (finding is None) == (reference is None)
    if finding is not None:
        assert finding.state == reference.state
        assert finding.path == reference.path
        assert finding.instances == reference.instances


# The differential cases small enough (joint radix at most 51,840) that
# one block table can span the whole netlist.
SMALL_CASES = [
    case
    for case in DIFFERENTIAL_CASES
    if case[0] in ("file", "inline", "mixed", "blocks")
    or case[1] <= {"chain": 4, "tree": 1}.get(case[0], 0)
]


@pytest.mark.parametrize("whole", [False, True], ids=["span 1", "whole span"])
@pytest.mark.parametrize("kind, arg, broken", SMALL_CASES, ids=[str(case) for case in SMALL_CASES])
def test_engine_matches_reference_at_block_span_extremes(
    kind, arg, broken, whole, machines_dir, circuit_document, monkeypatch
):
    """The block rule at its extremes: with circuit._BLOCK_SPAN 1 every
    instance is a block of its own and every channel move crosses a
    block; with the netlist's joint radix all instances share one block
    and every channel move resolves in its row. Either way compose, the
    search fields, adjacency and _can_move agree with the reference."""

    netlist = differential_netlist(kind, arg, broken, machines_dir, circuit_document)
    span = 1
    if whole:
        for instance, _ in netlist.instances:
            span *= len(netlist.machine_of(instance).states)
    monkeypatch.setattr(circuit, "_BLOCK_SPAN", span)
    system = compose(netlist)
    members = [len(block[2]) for block in system.plan]
    count = len(netlist.instances)
    assert members == ([count] if whole and count else [1] * count)
    assert_search_fields_match(system, reference_compose(netlist))
    test_engine_matches_reference(kind, arg, broken, machines_dir, circuit_document)


PRIMITIVES = sorted(spec.name for spec in builtin_library())


@st.composite
def random_netlists(draw):
    """Well-formed netlists of 1 to 6 library instances. Channels join
    complementary endpoints (one drives its request, the other receives
    it) of different instances; any endpoint left external may be stable."""

    kinds = draw(st.lists(st.sampled_from(PRIMITIVES), min_size=1, max_size=6))
    points = [
        (f"i{k}", handshake, get_primitive(kind).machine.wire_direction(handshake, REQUEST))
        for k, kind in enumerate(kinds)
        for handshake in sorted(get_primitive(kind).machine.handshakes)
    ]
    shuffled = draw(st.permutations(points))
    used = set()
    entries = [f"(instance i{k} {kind})" for k, kind in enumerate(kinds)]
    for point in shuffled:
        if point in used:
            continue
        partners = [
            other
            for other in shuffled
            if other not in used and other[0] != point[0] and other[2] != point[2]
        ]
        if partners and draw(st.booleans()):
            other = draw(st.sampled_from(partners))
            used |= {point, other}
            entries.append(
                f"(channel c{len(used) // 2} ({point[0]} {point[1]}) ({other[0]} {other[1]}))"
            )
    for point in points:
        if point not in used and draw(st.booleans()):
            entries.append(f"(stable ({point[0]} {point[1]}))")
    return parse_netlist(f"(circuit random {' '.join(entries)})")


@settings(max_examples=120, derandomize=True, deadline=None)
@given(netlist=random_netlists(), max_states=st.integers(0, 300))
def test_engine_matches_reference_on_random_netlists(netlist, max_states):
    """compose, the can-move masks, analyze_deadlock and fullness_invariant
    agree with the tuple-based references, and the state limit trips at the
    same bound."""

    try:
        expected = reference_compose(netlist, max_states)
    except ExplorationLimitError as exc:
        with pytest.raises(ExplorationLimitError) as info:
            compose(netlist, max_states)
        assert str(info.value) == str(exc)
        return
    system = compose(netlist, max_states)
    assert system.order == expected.order
    assert system.machines == expected.machines
    assert system.decode(system.codes[0]) == expected.init
    assert system.states == expected.states
    assert system.adjacency == expected.adjacency
    assert parent_links(system) == expected.parents
    paths = product_paths(system)
    assert [paths[state] for state in expected.states] == [
        expected.path_to(state) for state in expected.states
    ]
    with pytest.raises(ExplorationLimitError):
        compose(netlist, len(expected.states) - 1)
    assert_can_move_matches(system, expected)
    finding = analyze_deadlock(system)
    reference = reference_analyze_deadlock(expected)
    assert finding == reference
    assert fullness_invariant(system) == reference_fullness_invariant(expected)


TUPLE_VIEWS = {"states", "adjacency"}


@pytest.mark.parametrize(
    "kind, arg, broken", DIFFERENTIAL_CASES, ids=[str(case) for case in DIFFERENTIAL_CASES]
)
def test_search_reads_the_packed_fields_only(
    kind, arg, broken, machines_dir, circuit_document
):
    """compose records moving and predecessors as the reference implies.
    The deadlock search and the formula of every channel answer from them
    and the codes without building a tuple view, and decode and the paths
    agree with the reference for every state."""

    netlist = differential_netlist(kind, arg, broken, machines_dir, circuit_document)
    system = compose(netlist)
    analyze_deadlock(system)
    for channel in netlist.channels:
        derive_deadlock_formula(netlist, channel.name, system)
    expected = reference_compose(netlist)
    assert_search_fields_match(system, expected)
    assert [system.decode(code) for code in system.codes] == list(expected.states)
    paths = product_paths(system)
    assert [paths[state] for state in expected.states] == [
        expected.path_to(state) for state in expected.states
    ]
    assert not TUPLE_VIEWS & vars(system).keys()


@settings(max_examples=120, derandomize=True, deadline=None)
@given(netlist=random_netlists())
def test_search_fields_match_reference_on_random_netlists(netlist):
    system = compose(netlist)
    analyze_deadlock(system)
    assert not TUPLE_VIEWS & vars(system).keys()
    assert_search_fields_match(system, reference_compose(netlist))


def test_external_inputs_fire_unless_stable():
    live = compose(parse_netlist(EXTERNAL_INPUT.format(")")))
    stable = compose(parse_netlist(EXTERNAL_INPUT.format(" (stable (j in1)))")))
    def labels(system):
        return {edge.label for edges in system.adjacency.values() for edge in edges}

    assert "j.in1.R" in labels(live)
    assert not any(label.startswith("j.in1") for label in labels(stable))
    assert analyze_deadlock(live) is None
    assert analyze_deadlock(stable).instances == ("src", "j")


def test_formula_reuses_the_composed_system(pipeline, broken, monkeypatch):
    system = compose(pipeline)
    expected = derive_deadlock_formula(pipeline, "a")
    calls = []
    monkeypatch.setattr(circuit, "compose", lambda *args: calls.append(args))
    assert derive_deadlock_formula(pipeline, "a", system) == expected
    assert calls == []
    with pytest.raises(ValueError, match="not of pipeline_broken"):
        derive_deadlock_formula(broken, "a", system)


def _satisfies(model, instance):
    return all(
        evaluate(form, lambda atom: model[atom.name]) for form in instance.formulas()
    )


SOLVER_CASES = (
    [("file", name, None) for name in SHIPPED_NETS]
    + [("chain", n, broken) for broken in (False, True) for n in range(1, 5)]
    + [("tree", depth, broken) for broken in (False, True) for depth in (1, 2)]
)


@pytest.mark.parametrize(
    "kind, arg, broken", SOLVER_CASES, ids=[str(case) for case in SOLVER_CASES]
)
def test_first_model_matches_the_enumerator(kind, arg, broken, machines_dir, circuit_document):
    """Dead(ch) of every channel: the enumerator's first model wherever it
    can run (at most 16 variables), and a real model everywhere."""

    text = (
        (machines_dir / arg).read_text() if kind == "file" else circuit_document(kind, arg, broken)
    )
    netlist = parse_netlist(text)
    system = compose(netlist)
    for channel in netlist.channels:
        instance = derive_deadlock_formula(netlist, channel.name, system)
        model = instance.first_model()
        if len(instance.variables) <= 16:
            models = satisfying_models(instance.formulas(), instance.variables)
            assert model == next(models, None), channel.name
        if model is not None:
            assert list(model) == list(instance.variables)
            assert _satisfies(model, instance), channel.name


@pytest.mark.parametrize(
    "kind, arg, broken", SOLVER_CASES, ids=[str(case) for case in SOLVER_CASES]
)
def test_smt_term_matches_the_recursive_reference_on_dead(
    kind, arg, broken, machines_dir, circuit_document
):
    text = (
        (machines_dir / arg).read_text() if kind == "file" else circuit_document(kind, arg, broken)
    )
    netlist = parse_netlist(text)
    system = compose(netlist)
    for channel in netlist.channels:
        for form in derive_deadlock_formula(netlist, channel.name, system).formulas():
            assert smt_term(form) == recursive_smt_term(form), channel.name


def reference_fullness_invariant(system):
    """The projection as it was before the library stated fullness maps:
    storages found by name, snapshots at their settled states."""

    indices = tuple(
        idx
        for idx, (_, primitive) in enumerate(system.netlist.instances)
        if primitive == "storage"
    )
    if not indices:
        return None
    settled = {idx: settled_states(system.machines[idx]) for idx in indices}
    profiles = sorted(
        {
            tuple(get_primitive("storage").fullness[state[idx]] for idx in indices)
            for state in system.states
            if all(state[idx] in settled[idx] for idx in indices)
        }
    )
    if not profiles or len(profiles) == 2 ** len(indices):
        return None
    names = [f"full_{system.order[idx]}" for idx in indices]

    def profile_term(profile):
        literals = [
            VarAtom(name) if value else Not(VarAtom(name))
            for name, value in zip(names, profile)
        ]
        term = literals[0]
        for literal in literals[1:]:
            term = And(term, literal)
        return term

    invariant = profile_term(profiles[0])
    for profile in profiles[1:]:
        invariant = Or(invariant, profile_term(profile))
    return invariant


def reference_derive_deadlock_formula(netlist, target, system):
    """The derivation as it was before the library stated every
    primitive's facts: storage, source and sink facts written out by name,
    the shipped conditions for the rest."""

    bases = [channel.name for channel in netlist.channels]
    bases.extend(circuit._variable_base(netlist, point) for point in netlist.external_endpoints)
    constraints = []
    storages = []
    for instance, primitive in netlist.instances:
        spec = get_primitive(primitive)
        base = {
            handshake: circuit._variable_base(netlist, Endpoint(instance, handshake))
            for handshake in spec.machine.handshakes
        }
        blk = {h: VarAtom(f"blk_{b}") for h, b in base.items()}
        idl = {h: VarAtom(f"idl_{b}") for h, b in base.items()}
        if primitive == "storage":
            storages.append(instance)
            full = VarAtom(f"full_{instance}")
            constraints.append(
                Constraint(
                    f"{instance}: blocked(in) <-> full & blocked(out)",
                    Iff(blk["in"], And(full, blk["out"])),
                )
            )
            constraints.append(
                Constraint(
                    f"{instance}: idle(out) <-> !full & idle(in)",
                    Iff(idl["out"], And(Not(full), idl["in"])),
                )
            )
        elif primitive == "source":
            constraints.append(Constraint(f"{instance}: !idle(out)", Not(idl["out"])))
        elif primitive == "sink":
            constraints.append(Constraint(f"{instance}: !blocked(in)", Not(blk["in"])))
        else:
            for condition in spec.conditions:
                instantiated = map_atoms(
                    condition.formula,
                    lambda atom: (
                        blk[atom.handshake]
                        if isinstance(atom, BlockedAtom)
                        else idl[atom.handshake]
                    ),
                )
                constraints.append(Constraint(f"{instance}: {condition.text}", instantiated))

    for point in netlist.external_endpoints:
        machine = netlist.machine_of(point.instance)
        base = circuit._variable_base(netlist, point)
        requester = machine.wire_direction(point.handshake, REQUEST) == OUTPUT
        if point in netlist.stable:
            if not requester:
                constraints.append(
                    Constraint(
                        f"external {point}: stable",
                        And(VarAtom(f"idl_{base}"), Not(VarAtom(f"blk_{base}"))),
                    )
                )
        elif requester:
            constraints.append(
                Constraint(f"external {point}: live", Not(VarAtom(f"blk_{base}")))
            )

    invariant = reference_fullness_invariant(system)
    if invariant is not None:
        constraints.append(Constraint("storage fullness invariant", invariant))
    constraints.append(
        Constraint(
            f"target: Dead({target})",
            And(VarAtom(f"blk_{target}"), Not(VarAtom(f"idl_{target}"))),
        )
    )
    variables = (
        tuple(f"blk_{base}" for base in sorted(bases))
        + tuple(f"idl_{base}" for base in sorted(bases))
        + tuple(f"full_{instance}" for instance in sorted(storages))
    )
    return DeadlockInstance(variables, tuple(constraints), target)


@pytest.mark.parametrize(
    "kind, arg, broken", SOLVER_CASES, ids=[str(case) for case in SOLVER_CASES]
)
def test_derivation_matches_the_by_name_reference(
    kind, arg, broken, machines_dir, circuit_document
):
    """Labels, formulas, variables, target and SMT-LIB text of Dead(ch) for
    every channel equal those of the by-name derivation."""

    text = (
        (machines_dir / arg).read_text() if kind == "file" else circuit_document(kind, arg, broken)
    )
    netlist = parse_netlist(text)
    system = compose(netlist)
    for channel in netlist.channels:
        instance = derive_deadlock_formula(netlist, channel.name, system)
        expected = reference_derive_deadlock_formula(netlist, channel.name, system)
        assert instance == expected, channel.name
        assert emit_smt(instance) == emit_smt(expected), channel.name


def test_first_model_beyond_the_enumerators_reach(circuit_document):
    """Chain n = 8: 26 variables, 2^26 assignments for the enumerator."""

    clean = parse_netlist(circuit_document("chain", 8, False))
    system = compose(clean)
    for channel in clean.channels:
        instance = derive_deadlock_formula(clean, channel.name, system)
        assert len(instance.variables) == 26
        assert instance.first_model() is None, channel.name
    broken = parse_netlist(circuit_document("chain", 8, True))
    instance = derive_deadlock_formula(broken, "c0", compose(broken))
    model = instance.first_model()
    assert model is not None
    assert _satisfies(model, instance)
