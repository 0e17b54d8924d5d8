"""Circuits of primitive instances: composition, deadlock search, and
deadlock-formula derivation.

A netlist wires primitive instances together over named channels. The
product transition system moves both endpoint machines at once on a
connected wire and one machine alone on an external wire. Deadlock
search walks the reachable product set; the formula side abstracts the
same question into per-channel blocked/idle booleans over the facts the
library states for each primitive, couples instances through fullness
variables, and emits the result as SMT-LIB.
"""

from __future__ import annotations

from functools import cached_property, reduce
from typing import NamedTuple

from .checker import _back_closure, _back_fixpoint, _trace_to
from .formulas import (
    And,
    BlockedAtom,
    Formula,
    Not,
    Or,
    VarAtom,
    first_model,
    map_atoms,
    smt_term,
)
from .labeling import compute_block_idle
from .library import PRIMITIVE_NAMES, get_primitive
from .machine import INPUT, OUTPUT, REQUEST, ACK, XdiMachine, _is_identifier
from .record import Record
from .sexpr import Form, error_at, expect_list, expect_symbol, located, read_forms

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


class Channel(Record):
    name: str
    end_a: Endpoint
    end_b: Endpoint


class Netlist(Record):
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


def _parse_endpoint(node: Form) -> Endpoint:
    items = expect_list(node, "endpoint (instance handshake)")
    if len(items) != 2:
        raise error_at(node, "endpoint must be (instance handshake)")
    return Endpoint(
        expect_symbol(items[0], "instance id"), expect_symbol(items[1], "handshake")
    )


def parse_netlist(text: str) -> Netlist:
    """Parse and validate a circuit description."""

    with located(text):
        netlist = _netlist_from_forms(read_forms(text))
    _validate_netlist(netlist)
    return netlist


def _netlist_from_forms(forms: tuple[Form, ...]) -> Netlist:
    if len(forms) != 1:
        raise NetlistError("expected exactly one (circuit ...) form")
    items = expect_list(forms[0], "(circuit ...) form")
    if not items or expect_symbol(items[0], "circuit keyword") != "circuit" or len(items) < 2:
        raise error_at(forms[0], "expected (circuit name entries...)")
    name = expect_symbol(items[1], "circuit name")

    instances: list[tuple[str, str]] = []
    channels: list[Channel] = []
    stable: list[Endpoint] = []
    for node in items[2:]:
        entry = expect_list(node, "circuit entry")
        head = expect_symbol(entry[0], "entry keyword") if entry else ""
        if head == "instance":
            if len(entry) != 3:
                raise error_at(node, "instance entry must be (instance id primitive)")
            instances.append(
                (expect_symbol(entry[1], "instance id"), expect_symbol(entry[2], "primitive"))
            )
        elif head == "channel":
            if len(entry) != 4:
                raise error_at(node, "channel entry must be (channel id endpoint endpoint)")
            channels.append(
                Channel(
                    expect_symbol(entry[1], "channel id"),
                    _parse_endpoint(entry[2]),
                    _parse_endpoint(entry[3]),
                )
            )
        elif head == "stable":
            if len(entry) != 2:
                raise error_at(node, "stable entry must be (stable endpoint)")
            stable.append(_parse_endpoint(entry[1]))
        else:
            raise error_at(node, f"unknown circuit entry {head!r}")

    return Netlist(name, tuple(instances), tuple(channels), frozenset(stable))


def _validate_netlist(netlist: Netlist) -> None:
    seen_instances: set[str] = set()
    for instance, primitive in netlist.instances:
        if not _is_identifier(instance):
            raise NetlistError(f"instance id {instance!r} is not an identifier")
        if instance in seen_instances:
            raise NetlistError(f"duplicate instance id {instance!r}")
        seen_instances.add(instance)
        if primitive not in PRIMITIVE_NAMES:
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
        if not _is_identifier(channel.name):
            raise NetlistError(f"channel id {channel.name!r} is not an identifier")
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
    # A channel's variables must not be an external endpoint's.
    for point in netlist.external_endpoints:
        base = _variable_base(netlist, point)
        if base in channel_names:
            raise NetlistError(f"channel id {base!r} is the variable name of external endpoint {point}")


# --- Product composition -----------------------------------------------------

ProductState = tuple  # of per-instance state ids, in declaration order


class Edge(NamedTuple):
    label: str
    movers: frozenset
    target: ProductState


class ProductSystem(Record):
    """Reachable product transition system of a netlist, packed into ints.

    Each instance numbers its local states in declaration order, and a
    product state is the mixed-radix code sum(number[i] * weights[i]).
    States are identified by breadth-first discovery order: codes[s] is
    the code of state s, and state 0 is the initial state, from which
    every state is reached. Mover sets are bitmasks with bit i for
    order[i]. compose records what the deadlock search reads: moving[s],
    the OR of the mover masks of the edges of s, and predecessors[s], the
    source of every edge into s, once per edge, in exploration order.
    The breadth-first tree needs no table of its own: the parent of a
    state s other than 0 is predecessors[s][0], and parent_label[s] (an
    id into labels, -1 at state 0) labels the edge from it. plan holds
    the compiled move tables (see _compile), one per block of instances,
    that the edges are re-derived from.

    states and adjacency are the tuple-form views: product states as
    tuples of local state names, edges as Edge. Each is built on first
    access and then kept; analyze_deadlock, fullness_invariant and the CLI
    never build them.
    """

    netlist: Netlist
    order: tuple[str, ...]
    machines: tuple[XdiMachine, ...]
    weights: tuple[int, ...]
    codes: list[int]
    labels: tuple[str, ...]
    plan: tuple
    moving: list[int]
    predecessors: list[list[int]]
    parent_label: list[int]

    def decode(self, code: int) -> ProductState:
        """The product state with the given code, as local state names."""

        return tuple(
            machine.states[code // weight % len(machine.states)].name
            for machine, weight in zip(self.machines, self.weights)
        )

    @cached_property
    def states(self) -> tuple[ProductState, ...]:
        return tuple(map(self.decode, self.codes))

    @cached_property
    def adjacency(self) -> dict[ProductState, tuple[Edge, ...]]:
        labels, state_of = self.labels, dict(zip(self.codes, self.states))
        names = {
            mask: frozenset(name for idx, name in enumerate(self.order) if mask >> idx & 1)
            for _, _, members in self.plan
            for _, _, by_state in members
            for moves in by_state
            for *_, mask, _ in moves
        }
        # Per block, its rows by joint digit, filled on first use as in compose.
        blocks = [(first, span, [None] * span, members) for first, span, members in self.plan]
        adjacency = {}
        for code in self.codes:
            edges = []
            for first, span, table, members in blocks:
                digit = code // first % span
                row = table[digit]
                if row is None:
                    row = table[digit] = _block_moves(members, digit)
                for delta, movers, label in row:
                    if delta is not None:
                        edges.append(Edge(labels[label], names[movers], state_of[code + delta]))
                        continue
                    movers, partner_weight, partner_radix, deltas = movers
                    for delta in deltas[code // partner_weight % partner_radix]:
                        edges.append(Edge(labels[label], names[movers], state_of[code + delta]))
            adjacency[state_of[code]] = tuple(edges)
        return adjacency

    def _path(self, s: int) -> tuple[str, ...]:
        trail = _trace_to(self.predecessors, 0, s)[1:]
        return tuple(self.labels[self.parent_label[t]] for t in trail)


# Consecutive instances share one move table while their joint radix
# stays within this.
_BLOCK_SPAN = 1296


def _compile(
    netlist: Netlist, order: tuple[str, ...], machines: tuple[XdiMachine, ...]
) -> tuple[tuple[int, ...], int, tuple, tuple[str, ...]]:
    """The instances' weights, the initial state's code, the move tables
    by block, and the label names.

    A block is a run of consecutive instances whose joint radix stays
    within _BLOCK_SPAN. Its table is (weight of its first instance, joint
    radix, members), a member being an instance's (place, radix, moves by
    local state number), place its weight over the block's first. A move
    is (partner place, partner radix, deltas, mover bitmask, label id),
    deltas by the partner's local state number: adding a delta to a
    product state's code gives a successor's. A move on a channel fires
    once per input transition of the partner on the same handshake and
    phase, in declaration order, and not at all where the partner has
    none. A move on an external wire involves no partner: partner place
    and radix 1, one delta. A move whose partner is in the block, or that
    has none, is read at the block's joint digit; one whose partner lies
    in another block has partner place 0, partner radix 1 and, for
    deltas, (movers, partner weight, partner radix, deltas), read at the
    full code.
    """

    index_of = {instance: idx for idx, instance in enumerate(order)}
    numbers = [
        {entry.name: number for number, entry in enumerate(machine.states)}
        for machine in machines
    ]
    weights: list[int] = []
    start, weight = 0, 1
    # Each block as [first weight, joint radix, members], and per
    # instance its block.
    blocks: list[list] = []
    block_of: list[list] = []
    # Per instance and local state number: (handshake, phase) -> what its
    # input transitions add to the code, in transition order.
    inputs: list[list[dict[tuple[str, str], list[int]]]] = []
    for number, machine in zip(numbers, machines):
        radix = len(machine.states)
        if blocks and blocks[-1][1] * radix <= _BLOCK_SPAN:
            blocks[-1][1] *= radix
        else:
            blocks.append([weight, radix, []])
        block_of.append(blocks[-1])
        tables = []
        for here, entry in enumerate(machine.states):
            table: dict[tuple[str, str], list[int]] = {}
            for wire, target in entry.transitions:
                if wire.direction == INPUT:
                    table.setdefault((wire.handshake, wire.phase), []).append(
                        (number[target] - here) * weight
                    )
            tables.append(table)
        inputs.append(tables)
        weights.append(weight)
        start += number[machine.init_state] * weight
        weight *= radix

    label_ids: dict[str, int] = {}
    for idx, (instance, machine) in enumerate(zip(order, machines)):
        weight, block = weights[idx], block_of[idx]
        by_state = []
        for here, entry in enumerate(machine.states):
            moves = []
            for wire, target in entry.transitions:
                own = (numbers[idx][target] - here) * weight
                point = Endpoint(instance, wire.handshake)
                channel = netlist.endpoint_channel.get(point)
                if channel is not None and wire.direction == OUTPUT:
                    other = channel.end_b if channel.end_a == point else channel.end_a
                    jdx = index_of[other.instance]
                    key = (other.handshake, wire.phase)
                    deltas = tuple(
                        [tuple(map(own.__add__, table.get(key, ()))) for table in inputs[jdx]]
                    )
                    label = label_ids.setdefault(f"{channel.name}.{wire.phase}", len(label_ids))
                    movers = 1 << idx | 1 << jdx
                    if block_of[jdx] is block:
                        moves.append((weights[jdx] // block[0], len(deltas), deltas, movers, label))
                    else:
                        crossing = (movers, weights[jdx], len(deltas), deltas)
                        moves.append((0, 1, crossing, movers, label))
                # External wires move alone: outputs always, inputs unless
                # marked stable. Connected inputs are driven by the partner.
                elif channel is None and (
                    wire.direction == OUTPUT or point not in netlist.stable
                ):
                    label = label_ids.setdefault(f"{point}.{wire.phase}", len(label_ids))
                    moves.append((1, 1, ((own,),), 1 << idx, label))
            by_state.append(tuple(moves))
        block[2].append((weight // block[0], len(by_state), tuple(by_state)))
    plan = tuple((first, span, tuple(members)) for first, span, members in blocks)
    return tuple(weights), start, plan, tuple(label_ids)


def _block_moves(members: tuple, digit: int) -> list:
    """A block's edges at its joint digit (see _compile), in instance
    order, then transition order, then the partner's transition order:
    one (delta, movers, label) triple per edge of a move read at the
    digit, and (None, (movers, partner weight, partner radix, deltas),
    label) for a move whose partner lies in another block."""

    row: list = []
    for place, radix, moves_by_state in members:
        for partner_place, partner_radix, deltas, movers, label in moves_by_state[
            digit // place % radix
        ]:
            if partner_place:
                for delta in deltas[digit // partner_place % partner_radix]:
                    row.append((delta, movers, label))
            else:
                row.append((None, deltas, label))
    return row


def compose(netlist: Netlist, max_states: int = PRODUCT_LIMIT) -> ProductSystem:
    """Explore the reachable product set breadth first.

    Raises ExplorationLimitError when the product has more than
    max_states states, the initial state included. The state order, edge
    order, and tree edges are deterministic: edges follow instance
    order, then transition order, then the partner's transition order.
    The instances are compiled once into move tables, one per block of
    consecutive instances (see _compile), so a successor is the state's
    code plus a precomputed delta, and the cost is linear in product
    states plus edges. A block's row, by its joint digit, is filled on
    first use with its instances' edges in instance order (see
    _block_moves), one flat (delta, movers, label) triple per edge, so
    the edge order is the same as instance by instance. Each edge is
    touched once: it ORs its mover mask into moving[state] and appends
    its source to its target's predecessor list, found by code in one
    table that becomes predecessors; the first entry of a list is its
    state's breadth-first parent. A state costs a slot in each of four
    lists, its predecessor list and, while composing, one dict entry; an
    edge one slot in a predecessor list; a block at most _BLOCK_SPAN rows.
    """

    order = tuple(instance for instance, _ in netlist.instances)
    machines = tuple(netlist.machine_of(instance) for instance in order)
    weights, start, plan, labels = _compile(netlist, order, machines)
    too_many = f"product of {netlist.name} exceeds {max_states} states"
    if max_states < 1:
        raise ExplorationLimitError(too_many)

    # Per block, its row table by joint digit, filled on first use.
    blocks = [(first, span, [None] * span, members) for first, span, members in plan]

    # Per code, the source of every edge into it; its keys, in insertion
    # order, are the codes list.
    into = {start: []}
    codes = [start]
    moving: list[int] = []
    parent_label = [-1]
    # The code list doubles as the breadth-first queue.
    for state, code in enumerate(codes):
        mask = 0
        for first, span, table, members in blocks:
            digit = code // first % span
            entry = table[digit]
            if entry is None:
                entry = table[digit] = _block_moves(members, digit)
            # One edge body, twice: for a resolved edge, and for each delta
            # of a move whose partner lies outside the block. One body with
            # an inner loop over every move's deltas is slower.
            for delta, movers, label in entry:
                if delta is not None:
                    mask |= movers
                    successor = code + delta
                    sources = into.get(successor)
                    if sources is None:
                        if len(codes) >= max_states:
                            raise ExplorationLimitError(too_many)
                        into[successor] = [state]
                        codes.append(successor)
                        parent_label.append(label)
                    else:
                        sources.append(state)
                    continue
                movers, partner_weight, partner_radix, deltas = movers
                for delta in deltas[code // partner_weight % partner_radix]:
                    mask |= movers
                    successor = code + delta
                    sources = into.get(successor)
                    if sources is None:
                        if len(codes) >= max_states:
                            raise ExplorationLimitError(too_many)
                        into[successor] = [state]
                        codes.append(successor)
                        parent_label.append(label)
                    else:
                        sources.append(state)
        moving.append(mask)
    return ProductSystem(
        netlist, order, machines, weights, codes, labels, plan,
        moving, list(into.values()), parent_label,
    )


# --- Deadlock search ---------------------------------------------------------


class DeadlockFinding(Record):
    """A reachable product state with at least one stuck instance."""

    state: ProductState
    path: tuple[str, ...]
    instances: tuple[str, ...]


def _blocking_states(machine: XdiMachine) -> frozenset[str]:
    """States at blocking parity on at least one handshake of the machine."""

    label_maps = [
        compute_block_idle(machine, handshake)
        for handshake in sorted(machine.handshakes)
    ]
    return frozenset(
        entry.name
        for entry in machine.states
        if any(labels[entry.name] for labels in label_maps)
    )


def _can_move(system: ProductSystem) -> list[int]:
    """Per state, the instances that some continuation from it moves, as
    a bitmask over instances: the least fixpoint of can[s] = moving[s] |
    OR can[t] over the successors t of s.

    compose reaches every state from state 0, so a state with a path back
    to state 0, a home state, reaches every state, and its mask is the OR
    of all moving masks. One backward closure from state 0 over the
    predecessor lists finds the home states. A state that is not home
    reaches no home state, and the shared backward fixpoint
    (checker._back_fixpoint, one bit per instance) gives its mask from a
    copy of moving over the predecessor lists, at most instances x
    (states + edges). Edges from home states add nothing to a mask that is
    already the union. A clean product returns to state 0 from everywhere
    and skips the fixpoint; where state 0 has no predecessor, as in an
    acyclic product, the closure and the union are skipped.
    """

    moving, predecessors = system.moving, system.predecessors
    home = _back_closure(predecessors, (0,)) if predecessors[0] else ()
    if home:
        union = 0
        for mask in set(moving):  # a few distinct masks
            union |= mask
        if len(home) == len(moving):
            return [union] * len(moving)
    can = list(moving)
    for s in home:
        can[s] = union
    return _back_fixpoint(predecessors, can)


def analyze_deadlock(system: ProductSystem) -> DeadlockFinding | None:
    """First deadlocked state in breadth-first order, if any.

    An instance is deadlocked when no reachable continuation ever moves
    it again and its local state is transient or blocking on some
    handshake: it is parked where the protocol still owes progress.
    Which instances can still move is decided for every state and
    instance at once from the fields compose recorded (see _can_move), so
    the search reads no edge itself. When every state can move every
    instance there is no witness to look for; otherwise only the witness
    state is decoded.
    """

    codes = system.codes
    can = _can_move(system)
    every = (1 << len(system.order)) - 1
    # can[0] is the OR of every mask, so only a product that moves every
    # instance pays for the count, which compares by identity where every
    # mask is the one union int _can_move shares.
    if can[0] == every and can.count(can[0]) == len(can):
        return None

    # Transient or blocking local states owe progress; a state that is
    # neither is a quiescent resting point, never a deadlock however
    # permanent it is. Per instance: its weight, and whether each local
    # state number owes progress.
    places = []
    for machine, weight in zip(system.machines, system.weights):
        blocking = _blocking_states(machine)
        stuck = tuple(entry.is_transient or entry.name in blocking for entry in machine.states)
        places.append((weight, stuck))
    for s, code in enumerate(codes):
        frozen = every & ~can[s]
        if not frozen:
            continue
        flagged = tuple(
            instance
            for idx, (instance, (weight, stuck)) in enumerate(zip(system.order, places))
            if frozen >> idx & 1 and stuck[code // weight % len(stuck)]
        )
        if flagged:
            return DeadlockFinding(system.decode(code), system._path(s), flagged)
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


def fullness_invariant(system: ProductSystem) -> Formula | None:
    """Constrain fullness variables by projecting the product set.

    Snapshots are taken at product states where every instance with a
    fullness map (PrimitiveSpec.fullness) is in a state the map covers:
    a settled state, all handshakes at even parity, where fullness is
    well defined. The invariant is the OR of one AND of literals per
    realized profile, in sorted order, both folded to the left. Returns
    None when there is nothing to constrain: no such instance, no settled
    snapshot, or all fullness profiles realized.
    """

    fullness = [get_primitive(primitive).fullness for _, primitive in system.netlist.instances]
    indices = tuple(idx for idx, table in enumerate(fullness) if table)
    if not indices:
        return None
    # A product state's profile is the tuple of its fullness values, one
    # per instance with a fullness map, None where the local state has
    # none. Only the distinct profiles with no None are kept, sorted.
    digits = []
    for idx in indices:
        values = tuple(fullness[idx].get(entry.name) for entry in system.machines[idx].states)
        digits.append((system.weights[idx], len(values), values))
    profiles = sorted({
        profile
        for code in system.codes
        if None not in (
            profile := tuple([values[code // weight % radix] for weight, radix, values in digits])
        )
    })
    if not profiles or len(profiles) == 2 ** len(indices):
        return None
    names = [f"full_{system.order[idx]}" for idx in indices]
    return reduce(Or, (
        reduce(And, (
            VarAtom(name) if value else Not(VarAtom(name))
            for name, value in zip(names, profile)
        ))
        for profile in profiles
    ))


# --- Deadlock formula --------------------------------------------------------


class Constraint(Record):
    label: str
    formula: Formula


class DeadlockInstance(Record):
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

    Constraints comprise, in order: each instance's library facts over
    its channel variables (full is its full_<instance> variable; facts
    check-library does not verify are listed in README), one fact per
    live or stable external handshake, the fullness invariant projected
    from the reachable product set, and the target assertion
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
    holders: list[str] = []  # instances with a full_ variable
    for instance, primitive in netlist.instances:
        spec = get_primitive(primitive)
        if spec.fullness:
            holders.append(instance)
        ports = {
            handshake: _variable_base(netlist, Endpoint(instance, handshake))
            for handshake in spec.machine.handshakes
        }

        def instantiate(atom: Formula) -> Formula:
            if isinstance(atom, VarAtom):  # the library's full
                return VarAtom(f"full_{instance}")
            prefix = "blk" if isinstance(atom, BlockedAtom) else "idl"
            return VarAtom(f"{prefix}_{ports[atom.handshake]}")

        for fact in spec.facts:
            constraints.append(
                Constraint(f"{instance}: {fact.text}", map_atoms(fact.formula, instantiate))
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
        + tuple(f"full_{instance}" for instance in sorted(holders))
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
