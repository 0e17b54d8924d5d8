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

from functools import cached_property
from typing import NamedTuple

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
from .machine import INPUT, OUTPUT, REQUEST, ACK, XdiMachine
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


class ProductSystem(Record):
    """Reachable product transition system of a netlist, packed into ints.

    Each instance numbers its local states in declaration order, and a
    product state is the mixed-radix code sum(number[i] * weights[i]).
    States are identified by breadth-first discovery order: codes[s] is
    the code of state s, and state 0 is init. Mover sets are bitmasks with
    bit i for order[i]. compose records what the deadlock search reads:
    moving[s], the OR of the mover masks of the edges of s, and
    predecessors[s], the source of every edge into s, once per edge.
    parent[s] and parent_label[s] (an id into labels) give the
    breadth-first tree; both are -1 at state 0. plan holds the compiled
    move tables (see _compile), one per instance, that the edges are
    re-derived from; the block tables compose reads are not kept.

    states and adjacency are the tuple-form views: product states as
    tuples of local state names, edges as Edge. Each is built on first
    access and then kept; analyze_deadlock, fullness_invariant and the CLI
    never build them.
    """

    netlist: Netlist
    order: tuple[str, ...]
    machines: tuple[XdiMachine, ...]
    init: ProductState
    weights: tuple[int, ...]
    codes: list[int]
    labels: tuple[str, ...]
    plan: tuple
    moving: list[int]
    predecessors: list[list[int]]
    parent: list[int]
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
        state_of = dict(zip(self.codes, self.states))
        movers = {
            mask: frozenset(name for idx, name in enumerate(self.order) if mask >> idx & 1)
            for _, _, by_state in self.plan
            for moves in by_state
            for _, mask, *_ in moves
        }
        return {
            state_of[code]: tuple(
                Edge(self.labels[label], movers[mask], state_of[code + delta])
                for weight, radix, by_state in self.plan
                for label, mask, partner_weight, partner_radix, deltas in by_state[
                    code // weight % radix
                ]
                for delta in deltas[code // partner_weight % partner_radix]
            )
            for code in self.codes
        }

    def path_to(self, state: ProductState) -> tuple[str, ...]:
        """Event labels along the breadth-first path from the initial state.

        The state is found by a scan of codes; raises KeyError if it is
        not reachable.
        """

        try:
            return self._path(self.codes.index(_encode(self.machines, self.weights, state)))
        except ValueError:
            raise KeyError(state) from None

    def _path(self, s: int) -> tuple[str, ...]:
        labels: list[str] = []
        while s > 0:
            labels.append(self.labels[self.parent_label[s]])
            s = self.parent[s]
        return tuple(reversed(labels))


def _encode(
    machines: tuple[XdiMachine, ...], weights: tuple[int, ...], state: ProductState
) -> int:
    """The code of a product state; ValueError if it names no local state."""

    return sum(
        [entry.name for entry in machine.states].index(local) * weight
        for machine, weight, local in zip(machines, weights, state, strict=True)
    )


def _compile(
    netlist: Netlist,
    order: tuple[str, ...],
    machines: tuple[XdiMachine, ...],
    weights: tuple[int, ...],
) -> tuple[tuple, tuple[str, ...]]:
    """Per instance, (weight, radix, moves by local state number); and the
    label names.

    A move is (label id, mover bitmask, partner weight, partner radix,
    deltas by the partner's local state number): adding a delta to a
    product state's code gives a successor's. A move on a channel fires
    once per input transition of the partner on the same handshake and
    phase, in declaration order, and not at all where the partner has
    none. A move on an external wire involves no partner: weight and
    radix 1, one delta.
    """

    index_of = {instance: idx for idx, instance in enumerate(order)}
    numbers = [
        {entry.name: number for number, entry in enumerate(machine.states)}
        for machine in machines
    ]
    # Per instance and local state number: (handshake, phase) -> local
    # target numbers of its input transitions.
    inputs: list[list[dict[tuple[str, str], list[int]]]] = []
    for number, machine in zip(numbers, machines):
        tables = []
        for entry in machine.states:
            table: dict[tuple[str, str], list[int]] = {}
            for wire, target in entry.transitions:
                if wire.direction == INPUT:
                    table.setdefault((wire.handshake, wire.phase), []).append(number[target])
            tables.append(table)
        inputs.append(tables)

    label_ids: dict[str, int] = {}
    plan = []
    for idx, (instance, machine) in enumerate(zip(order, machines)):
        weight = weights[idx]
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
                        tuple(own + (arrival - there) * weights[jdx] for arrival in table.get(key, ()))
                        for there, table in enumerate(inputs[jdx])
                    )
                    label = label_ids.setdefault(f"{channel.name}.{wire.phase}", len(label_ids))
                    moves.append((label, 1 << idx | 1 << jdx, weights[jdx], len(deltas), deltas))
                # External wires move alone: outputs always, inputs unless
                # marked stable. Connected inputs are driven by the partner.
                elif channel is None and (
                    wire.direction == OUTPUT or point not in netlist.stable
                ):
                    label = label_ids.setdefault(f"{point}.{wire.phase}", len(label_ids))
                    moves.append((label, 1 << idx, 1, 1, ((own,),)))
            by_state.append(tuple(moves))
        plan.append((weight, len(by_state), tuple(by_state)))
    return tuple(plan), tuple(label_ids)


# Consecutive instances share one move table while their joint radix
# stays within this.
_BLOCK_SPAN = 1296


def _block_moves(first: int, span: int, members: list, digit: int) -> list:
    """A block's moves at its joint digit: its members' moves, in instance
    order. Where the digit fixes the partner's local state, as for a
    partner inside the block, or there is no partner (partner radix 1;
    instance 0 has weight 1 too), the move carries its deltas resolved,
    with partner weight 0, and is dropped if they are empty. Any other
    move is the plan's tuple."""

    found = []
    for weight, radix, by_state in members:
        for move in by_state[digit // (weight // first) % radix]:
            label, movers, partner_weight, partner_radix, deltas = move
            if partner_radix == 1:
                resolved = deltas[0]
            elif first <= partner_weight and partner_weight * partner_radix <= first * span:
                resolved = deltas[digit // (partner_weight // first) % partner_radix]
            else:
                found.append(move)
                continue
            if resolved:
                found.append((label, movers, 0, 0, resolved))
    return found


def compose(netlist: Netlist, max_states: int = PRODUCT_LIMIT) -> ProductSystem:
    """Explore the reachable product set breadth first.

    Raises ExplorationLimitError when the product has more than
    max_states states, the initial state included. The state order, edge
    order, and parent links are deterministic: edges follow instance
    order, then transition order, then the partner's transition order.
    Each instance is compiled into move tables once, so a successor is
    the state's code plus a precomputed delta, and the cost is linear in
    product states plus edges. Moves are looked up once per block, a run
    of consecutive instances whose joint radix stays within _BLOCK_SPAN:
    its table, by the block's joint digit, is filled on first use with
    the instances' moves in instance order (see _block_moves), so the
    edge order is the same as instance by instance. Each edge is touched
    once: it ORs its mover mask into moving[state] and appends its source
    to its target's predecessor list. A state costs one dict entry while
    composing, a slot in each of five lists and its predecessor list; an
    edge one slot in that list; a block at most _BLOCK_SPAN entries.
    """

    order = tuple(instance for instance, _ in netlist.instances)
    machines = tuple(netlist.machine_of(instance) for instance in order)
    places: list[int] = []
    weight = 1
    for machine in machines:
        places.append(weight)
        weight *= len(machine.states)
    weights = tuple(places)
    plan, labels = _compile(netlist, order, machines, weights)
    init: ProductState = tuple(machine.init_state for machine in machines)
    too_many = f"product of {netlist.name} exceeds {max_states} states"
    if max_states < 1:
        raise ExplorationLimitError(too_many)

    # The blocks: runs of consecutive instances whose joint radix stays
    # within _BLOCK_SPAN, each the weight of its first instance, its joint
    # radix, a move table by joint digit filled on first use, and its
    # instances' plan entries.
    blocks = []
    for member in plan:
        if blocks and blocks[-1][1] * member[1] <= _BLOCK_SPAN:
            blocks[-1][1] *= member[1]
            blocks[-1][2].append(member)
        else:
            blocks.append([member[0], member[1], [member]])
    blocks = [(first, span, [None] * span, members) for first, span, members in blocks]

    start = _encode(machines, weights, init)
    ids = {start: 0}
    codes = [start]
    moving: list[int] = []
    predecessors: list[list[int]] = [[]]
    parent = [-1]
    parent_label = [-1]
    # The code list doubles as the breadth-first queue.
    for state, code in enumerate(codes):
        mask = 0
        for first, span, table, members in blocks:
            digit = code // first % span
            entry = table[digit]
            if entry is None:
                entry = table[digit] = _block_moves(first, span, members, digit)
            for label, movers, partner_weight, partner_radix, deltas in entry:
                if partner_weight:
                    deltas = deltas[code // partner_weight % partner_radix]
                for delta in deltas:
                    mask |= movers
                    successor = code + delta
                    target = ids.get(successor)
                    if target is None:
                        target = len(codes)
                        if target >= max_states:
                            raise ExplorationLimitError(too_many)
                        ids[successor] = target
                        codes.append(successor)
                        predecessors.append([state])
                        parent.append(state)
                        parent_label.append(label)
                    else:
                        predecessors[target].append(state)
        moving.append(mask)
    return ProductSystem(
        netlist, order, machines, init, weights, codes, labels, plan,
        moving, predecessors, parent, parent_label,
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
    once: can[s] is the least fixpoint of moving[s] | OR can[t] over the
    successors t of s, as a bitmask over instances. It starts from a copy
    of moving and runs over the predecessor lists compose recorded, so it
    reads no edge itself. A state enters the worklist only when its mask
    grows and is never in it twice, so the pass costs at most instances x
    (states + edges). Only the witness state is decoded.
    """

    if not system.order:
        return None
    codes, predecessors = system.codes, system.predecessors
    can = list(system.moving)
    worklist = [s for s, mask in enumerate(can) if mask]
    queued = bytearray(map(bool, can))
    while worklist:
        s = worklist.pop()
        queued[s] = 0
        mask = can[s]
        for prior in predecessors[s]:
            if mask & ~can[prior]:
                can[prior] |= mask
                if not queued[prior]:
                    queued[prior] = 1
                    worklist.append(prior)

    # Transient or blocking local states owe progress; a state that is
    # neither is a quiescent resting point, never a deadlock however
    # permanent it is. Per instance: its weight, and whether each local
    # state number owes progress.
    places = []
    for machine, weight in zip(system.machines, system.weights):
        blocking = _blocking_states(machine)
        stuck = tuple(entry.is_transient or entry.name in blocking for entry in machine.states)
        places.append((weight, stuck))
    every = (1 << len(system.order)) - 1
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


def settled_states(machine: XdiMachine) -> frozenset[str]:
    """States where every handshake of the machine is at idling parity."""

    return frozenset(entry.name for entry in machine.states) - _blocking_states(machine)


def fullness_invariant(system: ProductSystem) -> Formula | None:
    """Constrain fullness variables by projecting the product set.

    Snapshots are taken at product states where every instance with a
    fullness map (PrimitiveSpec.fullness) is in a state the map covers:
    a settled state, all handshakes at even parity, where fullness is
    well defined. Returns None when there is nothing to constrain: no
    such instance, no settled snapshot, or all fullness profiles realized.
    """

    fullness = [get_primitive(primitive).fullness for _, primitive in system.netlist.instances]
    indices = tuple(idx for idx, table in enumerate(fullness) if table)
    if not indices:
        return None
    # A product state's profile is one int: per instance with a fullness
    # map, its bit when full, the first instance's the most significant so
    # that the ints sort as the bool tuples do, or -2^count where its local
    # state has no fullness, which leaves the sum negative. Only the
    # distinct profiles are kept.
    count = len(indices)
    digits = []
    for pos, idx in enumerate(indices):
        bit, table = 1 << (count - 1 - pos), fullness[idx]
        values = tuple(
            -(1 << count) if table.get(entry.name) is None else bit * table[entry.name]
            for entry in system.machines[idx].states
        )
        digits.append((system.weights[idx], len(values), values))
    keys = {
        sum([values[code // weight % radix] for weight, radix, values in digits])
        for code in system.codes
    }
    profiles = [
        tuple(bool(key >> (count - 1 - pos) & 1) for pos in range(count))
        for key in sorted(keys)
        if key >= 0
    ]
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
