"""Circuits of primitive instances: composition, deadlock search, and
deadlock-formula derivation.

A netlist wires primitive instances together over named channels. The
product transition system moves both endpoint machines at once on a
connected wire and one machine alone on an external wire. Deadlock
search walks the reachable product set; the formula side abstracts the
same question into per-channel blocked/idle booleans, couples storages
through fullness variables, and emits the result as SMT-LIB.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple

from .formulas import (
    And,
    BlockedAtom,
    Formula,
    IdleAtom,
    Iff,
    Not,
    Or,
    VarAtom,
    first_model,
    map_atoms,
    smt_term,
)
from .labeling import compute_block_idle
from .library import STORAGE_FULLNESS, builtin_library, get_primitive
from .machine import INPUT, OUTPUT, REQUEST, ACK, XdiMachine
from .sexpr import Node, expect_list, expect_symbol, read_forms

__all__ = [
    "NetlistError",
    "ExplorationLimitError",
    "Endpoint",
    "Channel",
    "Netlist",
    "ProductState",
    "Edge",
    "ProductSystem",
    "DeadlockFinding",
    "Constraint",
    "DeadlockInstance",
    "PRODUCT_LIMIT",
    "parse_netlist",
    "compose",
    "find_deadlock",
    "analyze_deadlock",
    "settled_states",
    "fullness_invariant",
    "derive_deadlock_formula",
    "emit_smt",
]

PRODUCT_LIMIT = 10**6


class NetlistError(ValueError):
    """A structurally invalid netlist."""


class ExplorationLimitError(RuntimeError):
    """Raised when the reachable product set exceeds the configured bound."""


class Endpoint(NamedTuple):
    instance: str
    handshake: str

    def __str__(self) -> str:
        return f"{self.instance}.{self.handshake}"


@dataclass(frozen=True)
class Channel:
    name: str
    end_a: Endpoint
    end_b: Endpoint


@dataclass(frozen=True)
class Netlist:
    """Instances, channels, and which external handshakes are stable."""

    name: str
    instances: tuple[tuple[str, str], ...]
    channels: tuple[Channel, ...]
    stable: frozenset[Endpoint]

    @cached_property
    def instance_map(self) -> dict[str, str]:
        return dict(self.instances)

    @cached_property
    def endpoint_channel(self) -> dict[Endpoint, Channel]:
        table: dict[Endpoint, Channel] = {}
        for channel in self.channels:
            table[channel.end_a] = channel
            table[channel.end_b] = channel
        return table

    @cached_property
    def external_endpoints(self) -> tuple[Endpoint, ...]:
        """Unconnected handshakes, in instance declaration order."""

        found = []
        for instance, primitive in self.instances:
            machine = get_primitive(primitive).machine
            for handshake in sorted(machine.handshakes):
                point = Endpoint(instance, handshake)
                if point not in self.endpoint_channel:
                    found.append(point)
        return tuple(found)

    def machine_of(self, instance: str) -> XdiMachine:
        return get_primitive(self.instance_map[instance]).machine


def _parse_endpoint(node: Node) -> Endpoint:
    items = expect_list(node, "endpoint (instance handshake)")
    if len(items) != 2:
        raise node.error("endpoint must be (instance handshake)")
    return Endpoint(
        expect_symbol(items[0], "instance id"), expect_symbol(items[1], "handshake")
    )


def parse_netlist(text: str) -> Netlist:
    """Parse and validate a circuit description."""

    forms = read_forms(text)
    if len(forms) != 1:
        raise NetlistError("expected exactly one (circuit ...) form")
    items = expect_list(forms[0], "(circuit ...) form")
    if not items or expect_symbol(items[0], "circuit keyword") != "circuit" or len(items) < 2:
        raise forms[0].error("expected (circuit name entries...)")
    name = expect_symbol(items[1], "circuit name")

    known_primitives = {spec.name for spec in builtin_library()}
    instances: list[tuple[str, str]] = []
    channels: list[Channel] = []
    stable: list[Endpoint] = []
    for node in items[2:]:
        entry = expect_list(node, "circuit entry")
        head = expect_symbol(entry[0], "entry keyword") if entry else ""
        if head == "instance":
            if len(entry) != 3:
                raise node.error("instance entry must be (instance id primitive)")
            instances.append(
                (expect_symbol(entry[1], "instance id"), expect_symbol(entry[2], "primitive"))
            )
        elif head == "channel":
            if len(entry) != 4:
                raise node.error("channel entry must be (channel id endpoint endpoint)")
            channels.append(
                Channel(
                    expect_symbol(entry[1], "channel id"),
                    _parse_endpoint(entry[2]),
                    _parse_endpoint(entry[3]),
                )
            )
        elif head == "stable":
            if len(entry) != 2:
                raise node.error("stable entry must be (stable endpoint)")
            stable.append(_parse_endpoint(entry[1]))
        else:
            raise node.error(f"unknown circuit entry {head!r}")

    netlist = Netlist(name, tuple(instances), tuple(channels), frozenset(stable))
    _validate_netlist(netlist, known_primitives)
    return netlist


def _validate_netlist(netlist: Netlist, known_primitives: set[str]) -> None:
    seen_instances: set[str] = set()
    for instance, primitive in netlist.instances:
        if instance in seen_instances:
            raise NetlistError(f"duplicate instance id {instance!r}")
        seen_instances.add(instance)
        if primitive not in known_primitives:
            raise NetlistError(f"unknown primitive {primitive!r} for instance {instance!r}")

    machines = {inst: netlist.machine_of(inst) for inst in seen_instances}

    def check_endpoint(point: Endpoint, where: str) -> None:
        if point.instance not in seen_instances:
            raise NetlistError(f"{where} references undeclared instance {point.instance!r}")
        if point.handshake not in machines[point.instance].handshakes:
            raise NetlistError(
                f"{where} references unknown handshake {point}"
            )

    used: set[Endpoint] = set()
    channel_names: set[str] = set()
    for channel in netlist.channels:
        where = f"channel {channel.name}"
        if channel.name in channel_names:
            raise NetlistError(f"duplicate channel id {channel.name!r}")
        channel_names.add(channel.name)
        if channel.end_a.instance == channel.end_b.instance:
            raise NetlistError(f"{where} connects instance {channel.end_a.instance!r} to itself")
        for point in (channel.end_a, channel.end_b):
            check_endpoint(point, where)
            if point in used:
                raise NetlistError(f"endpoint {point} appears in more than one channel")
            used.add(point)
        for phase in (REQUEST, ACK):
            dir_a = machines[channel.end_a.instance].wire_direction(
                channel.end_a.handshake, phase
            )
            dir_b = machines[channel.end_b.instance].wire_direction(
                channel.end_b.handshake, phase
            )
            if dir_a is None or dir_b is None:
                side = channel.end_a if dir_a is None else channel.end_b
                raise NetlistError(f"{where}: {side} has no {phase} wire")
            if dir_a == dir_b:
                raise NetlistError(
                    f"{where}: direction clash on phase {phase},"
                    f" both endpoints are {dir_a}"
                )

    for point in netlist.stable:
        check_endpoint(point, "stable annotation")
        if point in used:
            raise NetlistError(f"stable annotation on connected endpoint {point}")


# --- Product composition -----------------------------------------------------

ProductState = tuple  # of per-instance state ids, in declaration order


class Edge(NamedTuple):
    label: str
    movers: frozenset
    target: ProductState


@dataclass(frozen=True)
class ProductSystem:
    """Reachable product transition system of a netlist."""

    netlist: Netlist
    order: tuple[str, ...]
    machines: tuple[XdiMachine, ...]
    init: ProductState
    states: tuple[ProductState, ...]
    adjacency: Mapping[ProductState, tuple[Edge, ...]]
    parents: Mapping[ProductState, tuple[ProductState, str] | None]

    def path_to(self, state: ProductState) -> tuple[str, ...]:
        """Event labels along the breadth-first path from the initial state."""

        labels: list[str] = []
        cursor = state
        while True:
            parent = self.parents[cursor]
            if parent is None:
                return tuple(reversed(labels))
            cursor, label = parent
            labels.append(label)


def _compile(
    netlist: Netlist, order: tuple[str, ...], machines: tuple[XdiMachine, ...]
) -> tuple[list[dict[str, tuple]], list[dict[str, dict]]]:
    """Per instance and local state: the moves it starts, and its input table.

    A move is (label, movers, partner, partner key, local target), with
    partner -1 for a move on an external wire. The input table maps a
    (handshake, phase) to the local targets of its input transitions, in
    declaration order; a partner's output move fires once per target.
    """

    index_of = {instance: idx for idx, instance in enumerate(order)}
    channel_movers = {
        channel.name: frozenset((channel.end_a.instance, channel.end_b.instance))
        for channel in netlist.channels
    }
    moves: list[dict[str, tuple]] = []
    inputs: list[dict[str, dict]] = []
    for instance, machine in zip(order, machines):
        alone = frozenset((instance,))
        instance_moves: dict[str, tuple] = {}
        instance_inputs: dict[str, dict] = {}
        for entry in machine.states:
            local = []
            table: dict[tuple[str, str], list[str]] = {}
            for wire, target in entry.transitions:
                point = Endpoint(instance, wire.handshake)
                channel = netlist.endpoint_channel.get(point)
                if channel is not None and wire.direction == OUTPUT:
                    other = channel.end_b if channel.end_a == point else channel.end_a
                    local.append(
                        (
                            f"{channel.name}.{wire.phase}",
                            channel_movers[channel.name],
                            index_of[other.instance],
                            (other.handshake, wire.phase),
                            target,
                        )
                    )
                    continue
                if wire.direction == INPUT:
                    table.setdefault((wire.handshake, wire.phase), []).append(target)
                # External wires move alone: outputs always, inputs unless
                # marked stable. Connected inputs are driven by the partner.
                if channel is None and (
                    wire.direction == OUTPUT or point not in netlist.stable
                ):
                    local.append((f"{point}.{wire.phase}", alone, -1, None, target))
            instance_moves[entry.name] = tuple(local)
            instance_inputs[entry.name] = {
                key: tuple(targets) for key, targets in table.items()
            }
        moves.append(instance_moves)
        inputs.append(instance_inputs)
    return moves, inputs


def compose(netlist: Netlist, max_states: int = PRODUCT_LIMIT) -> ProductSystem:
    """Explore the reachable product set breadth first.

    Raises ExplorationLimitError past max_states. The state order, edge
    order, and parent links are deterministic: edges follow instance
    order, then transition order, then the partner's transition order.
    Each instance is compiled into move tables once, so the cost is
    linear in product states plus edges.
    """

    order = tuple(instance for instance, _ in netlist.instances)
    machines = tuple(netlist.machine_of(instance) for instance in order)
    moves, inputs = _compile(netlist, order, machines)
    init: ProductState = tuple(machine.init_state for machine in machines)

    parents: dict[ProductState, tuple[ProductState, str] | None] = {init: None}
    adjacency: dict[ProductState, tuple[Edge, ...]] = {}
    states: list[ProductState] = [init]
    # The state list doubles as the breadth-first queue.
    for state in states:
        edges: list[Edge] = []
        for idx, local in enumerate(state):
            for label, movers, partner, key, target in moves[idx][local]:
                if partner < 0:
                    edges.append(
                        Edge(label, movers, state[:idx] + (target,) + state[idx + 1 :])
                    )
                    continue
                for partner_target in inputs[partner][state[partner]].get(key, ()):
                    successor = list(state)
                    successor[idx] = target
                    successor[partner] = partner_target
                    edges.append(Edge(label, movers, tuple(successor)))
        adjacency[state] = tuple(edges)
        for edge in edges:
            if edge.target not in parents:
                if len(parents) >= max_states:
                    raise ExplorationLimitError(
                        f"product of {netlist.name} exceeds {max_states} states"
                    )
                parents[edge.target] = (state, edge.label)
                states.append(edge.target)
    return ProductSystem(
        netlist, order, machines, init, tuple(states), adjacency, parents
    )


# --- Deadlock search ---------------------------------------------------------


@dataclass(frozen=True)
class DeadlockFinding:
    """A reachable product state with at least one stuck instance."""

    state: ProductState
    path: tuple[str, ...]
    instances: tuple[str, ...]


def _blocking_states(machine: XdiMachine) -> frozenset[str]:
    """States at blocking parity on at least one handshake of the machine."""

    label_maps = [
        compute_block_idle(machine, handshake).labels
        for handshake in sorted(machine.handshakes)
    ]
    return frozenset(
        entry.name
        for entry in machine.states
        if any(labels[entry.name] for labels in label_maps)
    )


def analyze_deadlock(system: ProductSystem) -> DeadlockFinding | None:
    """First deadlocked state in breadth-first order, if any.

    An instance is deadlocked when no reachable continuation ever moves
    it again and its local state is transient or blocking on some
    handshake: it is parked where the protocol still owes progress.

    One backward pass decides "can still move" for every instance at
    once: can[s] is the least fixpoint of movers(s) | OR can[t] over the
    successors t of s, as a bitmask over instances. A state re-enters
    the worklist only when its mask grows, so the pass costs at most
    instances x (states + edges).
    """

    if not system.order:
        return None
    states = system.states
    index = {state: i for i, state in enumerate(states)}
    bit = {instance: 1 << idx for idx, instance in enumerate(system.order)}
    mask_of: dict[frozenset, int] = {}
    can: list[int] = []
    predecessors: list[list[int]] = [[] for _ in states]
    for i, state in enumerate(states):
        mask = 0
        for edge in system.adjacency[state]:
            movers = mask_of.get(edge.movers)
            if movers is None:
                movers = mask_of[edge.movers] = sum(bit[name] for name in edge.movers)
            mask |= movers
            predecessors[index[edge.target]].append(i)
        can.append(mask)

    worklist = [i for i, mask in enumerate(can) if mask]
    while worklist:
        i = worklist.pop()
        mask = can[i]
        for prior in predecessors[i]:
            if mask & ~can[prior]:
                can[prior] |= mask
                worklist.append(prior)

    # Transient or blocking local states owe progress; a state that is
    # neither is a quiescent resting point, never a deadlock however
    # permanent it is.
    stuck = [
        _blocking_states(machine)
        | {entry.name for entry in machine.states if entry.is_transient}
        for machine in system.machines
    ]
    every = (1 << len(system.order)) - 1
    for i, state in enumerate(states):
        frozen = every & ~can[i]
        if not frozen:
            continue
        flagged = tuple(
            instance
            for idx, instance in enumerate(system.order)
            if frozen >> idx & 1 and state[idx] in stuck[idx]
        )
        if flagged:
            return DeadlockFinding(state, system.path_to(state), flagged)
    return None


def find_deadlock(
    netlist: Netlist, max_states: int = PRODUCT_LIMIT
) -> tuple[ProductState, tuple[str, ...]] | None:
    """Search the product space; returns (state, event path) or None."""

    finding = analyze_deadlock(compose(netlist, max_states))
    if finding is None:
        return None
    return finding.state, finding.path


# --- Fullness projection -----------------------------------------------------


def settled_states(machine: XdiMachine) -> frozenset[str]:
    """States where every handshake of the machine is at idling parity."""

    return frozenset(entry.name for entry in machine.states) - _blocking_states(machine)


def _storage_indices(system: ProductSystem) -> tuple[int, ...]:
    return tuple(
        idx
        for idx, (_, primitive) in enumerate(system.netlist.instances)
        if primitive == "storage"
    )


def fullness_invariant(system: ProductSystem) -> Formula | None:
    """Constrain storage fullness variables by projecting the product set.

    Snapshots are taken at product states where every storage is settled
    (all its handshakes at even parity), the points where fullness is
    well defined. Returns None when there is nothing to constrain: no
    storages, no settled snapshot, or all fullness profiles realized.
    """

    indices = _storage_indices(system)
    if not indices:
        return None
    settled = {idx: settled_states(system.machines[idx]) for idx in indices}
    profiles = sorted(
        {
            tuple(STORAGE_FULLNESS[state[idx]] for idx in indices)
            for state in system.states
            if all(state[idx] in settled[idx] for idx in indices)
        }
    )
    if not profiles or len(profiles) == 2 ** len(indices):
        return None
    names = [f"full_{system.order[idx]}" for idx in indices]

    def profile_term(profile: tuple[bool, ...]) -> Formula:
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


# --- Deadlock formula --------------------------------------------------------


@dataclass(frozen=True)
class Constraint:
    label: str
    formula: Formula


@dataclass(frozen=True)
class DeadlockInstance:
    """Boolean deadlock query: variables, labeled constraints, target channel."""

    variables: tuple[str, ...]
    constraints: tuple[Constraint, ...]
    target: str

    def formulas(self) -> tuple[Formula, ...]:
        return tuple(constraint.formula for constraint in self.constraints)

    def first_model(self) -> dict[str, bool] | None:
        return first_model(self.formulas(), self.variables)


def _variable_base(netlist: Netlist, point: Endpoint) -> str:
    channel = netlist.endpoint_channel.get(point)
    if channel is not None:
        return channel.name
    return f"{point.instance}_{point.handshake}"


def derive_deadlock_formula(
    netlist: Netlist, target: str, system: ProductSystem | None = None
) -> DeadlockInstance:
    """Build the blocked/idle constraint system asking Dead(target).

    Constraints comprise, in order: each instance's condition set over
    its channel variables (storages contribute fullness couplings,
    sources and sinks their liveness facts), one fact per live or stable
    external handshake, the storage fullness invariant projected from
    the reachable product set, and the target assertion
    Dead(ch) = blocked(ch) and not idle(ch).

    The invariant is projected from system, the composed product of
    netlist, when given; otherwise the netlist is composed here with the
    default state limit.
    """

    if target not in {channel.name for channel in netlist.channels}:
        raise NetlistError(f"no channel named {target!r}")
    if system is not None and system.netlist != netlist:
        raise ValueError(
            f"product system of {system.netlist.name} is not of {netlist.name}"
        )

    bases: list[str] = [channel.name for channel in netlist.channels]
    bases.extend(_variable_base(netlist, point) for point in netlist.external_endpoints)

    constraints: list[Constraint] = []
    storages: list[str] = []
    for instance, primitive in netlist.instances:
        spec = get_primitive(primitive)
        base = {
            handshake: _variable_base(netlist, Endpoint(instance, handshake))
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
                constraints.append(
                    Constraint(f"{instance}: {condition.text}", instantiated)
                )

    for point in netlist.external_endpoints:
        machine = netlist.machine_of(point.instance)
        base = _variable_base(netlist, point)
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

    invariant = fullness_invariant(system if system is not None else compose(netlist))
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


def emit_smt(instance: DeadlockInstance) -> str:
    """Render the instance as SMT-LIB 2 text, byte-deterministically."""

    lines = ["(set-logic QF_UF)"]
    lines.extend(f"(declare-const {name} Bool)" for name in instance.variables)
    for constraint in instance.constraints:
        lines.append(f"; {constraint.label}")
        lines.append(f"(assert {smt_term(constraint.formula)})")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"
