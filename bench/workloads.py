"""Seeded job lists for the four benchmark workloads.

Every workload is a fixed list of slots. A slot holds the variants of one
job: the same shape and size under different names, polarities or
declaration orders, so that a variant costs the same as its siblings and
the seed changes the inputs without changing the amount of work. The seed
picks one variant per slot and shuffles the slots.

Each job carries the answer known from the way its input was built: the
exit code and the verdict lines that must appear in its output, and for
most jobs the whole expected stdout. ``expected.json`` adds the stdout
and SMT-LIB digests recorded from the program, keyed by ``Job.key``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

SHIPPED = Path(__file__).resolve().parent.parent / "machines"


@dataclass(frozen=True)
class Job:
    """One CLI invocation with its input files and its known answer."""

    key: str
    argv: tuple[str, ...]
    files: tuple[tuple[str, str], ...]
    code: int
    lines: tuple[str, ...] = ()
    stdout: str | None = None
    smt: str | None = None


# --- Machine text -----------------------------------------------------------


def _state(name: str, init: bool, kind: str, moves) -> str:
    text = " ".join(f"(({h} {phase} {way}) {target})" for h, phase, way, target in moves)
    return f"  ({name} {'t' if init else 'nil'} {kind} ({text}))"


def _document(name: str, states: list[str], conditions=()) -> str:
    text = f"(machine {name}\n" + "\n".join(states) + ")\n"
    if conditions:
        body = "\n".join(f'  ({cname} "{ctext}")' for cname, ctext in conditions)
        text += f"(conditions\n{body})\n"
    return text


def _envs(wires) -> list[str]:
    """reasonable_envs order, formatted as the CLI prints environments."""

    wires = sorted(wires)
    out = []
    for size in range(len(wires) + 1):
        for subset in combinations(wires, size):
            out.append(",".join(f"{h}.{p}" for h, p in subset) if subset else "{}")
    return out


# --- Ring machines ----------------------------------------------------------
#
# A cycle of `length` box states driven by handshake `cyc` (even states send
# cyc.R, odd states wait for cyc.A), with a handshake `br` branching off the
# last ring state into two extra states. In the "idle" polarity the ring is
# outside br's request, so every ring state is idling for br; in the
# "blocked" polarity an initial state takes br.R first and the ring sits
# inside the request. Either way the query on br in the ring's own mode
# passes every ring state and fails only past the branch, so fg runs one
# g search per ring state, each walking the rest of the ring: quadratic.
# The query in the other mode fails at once on every ring state: linear.

RING_NAMES = (("x", "y", "r"), ("req", "tick", "q"), ("go", "clk", "s"))
RING_LENGTHS = (100, 200, 400, 800)


def ring_machine(length: int, polarity: str, scheme: int):
    """Returns (name, text, branch handshake, condition, state count, trails).

    trails maps each fg op on the branch handshake to the evidence trace
    the checker prints; its last state is the witness.
    """

    if length % 2:
        raise ValueError("ring length must be even for unambiguous labels")
    br, cyc, p = RING_NAMES[scheme]
    ring = [f"{p}{i}" for i in range(length)]
    name = f"ring_{polarity}_{length}"
    states = []
    if polarity == "blocked":
        head = f"{p}_in"
        states.append(_state(head, True, "box", [(br, "R", "I", ring[0])]))
        prefix = [head]
    else:
        prefix = []
    for i, state in enumerate(ring):
        nxt = ring[(i + 1) % length]
        if i % 2 == 0:
            moves = [(cyc, "R", "O", nxt)]
        else:
            moves = [(cyc, "A", "I", nxt)]
        states.append(_state(state, not prefix and i == 0, "box", moves))
    armed, done = f"{p}_armed", f"{p}_done"
    if polarity == "idle":
        states[-1] = _state(ring[-1], False, "box", [(cyc, "A", "I", ring[0]), (br, "R", "I", armed)])
        states.append(_state(armed, False, "box", [(br, "A", "O", done)]))
        states.append(_state(done, False, "box", []))
        facts = {"idle": ring + [armed, done], "blocked": ring + [armed]}
    else:
        states[-1] = _state(ring[-1], False, "box", [(cyc, "A", "I", ring[0]), (br, "A", "O", armed)])
        states.append(_state(armed, False, "box", [(br, "R", "I", done)]))
        states.append(_state(done, False, "box", []))
        facts = {"blocked": prefix + ring + [armed, done], "idle": prefix + ring + [armed]}
    condition = (f"{polarity}_{br}", f"{polarity}({br})")
    text = _document(name, states, [condition])
    return name, text, br, condition, len(states), facts


def _fg_ring_slots() -> list[list[Job]]:
    slots = []
    for length in RING_LENGTHS:
        quad, cheap, check = [], [], []
        for polarity in ("idle", "blocked"):
            other = "blocked" if polarity == "idle" else "idle"
            for scheme in range(len(RING_NAMES)):
                name, text, br, cond, _, facts = ring_machine(length, polarity, scheme)
                fname = f"{name}.xdi"
                files = ((fname, text),)
                tag = f"fg_ring/{name}/s{scheme}"
                for op, bucket in ((polarity, quad), (other, cheap)):
                    trail = facts[op]
                    out = f"holds: yes\ntrace: {' '.join(trail)}\nwitness: {trail[-1]}\n"
                    bucket.append(
                        Job(
                            f"{tag}/query-{op}",
                            ("query", fname, "--handshake", br, "--op", op),
                            files,
                            0,
                            ("holds: yes", f"witness: {trail[-1]}"),
                            out,
                        )
                    )
                line = f"{name}/{cond[0]}: holds (4 environments)"
                check.append(
                    Job(f"{tag}/check", ("check", fname), files, 0, (line,), line + "\n")
                )
        slots.extend([quad, cheap, check])
    return slots


# --- Wide-input machines ----------------------------------------------------
#
# k input handshakes taken one request at a time, then one output
# handshake, then the k acknowledges: 2k+2 states and k+1 input wires, so
# 2^(k+1) environments. Any stable wire strands the machine in a dead end,
# where every blocked/idle atom holds; only the live environment cycles,
# and there every atom fails. A condition therefore holds iff it has the
# same value with all atoms true and with all atoms false.

WIDE_NAMES = (("i", "o", "w"), ("in", "out", "q"), ("a", "z", "s"))
HOLDING = (
    "blocked({0}) <-> blocked({1}) | idle({2})",
    "idle({0}) <-> idle({1}) & blocked({2})",
)
FAILING = "blocked({0}) <-> !idle({1})"


def wide_machine(k: int, scheme: int, picks, failing: bool):
    ip, op, p = WIDE_NAMES[scheme]
    ins = [f"{ip}{j}" for j in range(k)]
    name = f"wide{k}"
    q = [f"{p}q{j}" for j in range(k + 1)]
    a = [f"{p}a{j}" for j in range(k)]
    hold = f"{p}h"
    states = [_state(q[j], j == 0, "box", [(ins[j], "R", "I", q[j + 1])]) for j in range(k)]
    states.append(_state(q[k], False, "transient", [(op, "R", "O", hold)]))
    states.append(_state(hold, False, "box", [(op, "A", "I", a[0])]))
    for j in range(k):
        target = a[j + 1] if j + 1 < k else q[0]
        states.append(_state(a[j], False, "transient", [(ins[j], "A", "O", target)]))
    handshakes = ins + [op]
    atoms = [handshakes[i] for i in picks]
    conditions = [(f"c{n}", template.format(*atoms)) for n, template in enumerate(HOLDING)]
    if failing:
        conditions.append((f"c{len(HOLDING)}", FAILING.format(*atoms)))
    wires = [(h, "R") for h in ins] + [(op, "A")]
    return name, _document(name, states, conditions), conditions, wires, len(states)


def _wide_check_job(k: int, scheme: int, picks, failing: bool) -> Job:
    name, text, conditions, wires, n = wide_machine(k, scheme, picks, failing)
    envs = _envs(wires)
    lines = [f"{name}/{cname}: holds ({len(envs)} environments)" for cname, _ in conditions[: len(HOLDING)]]
    out = list(lines)
    if failing:
        bad = f"{name}/{conditions[-1][0]}: FAILS"
        lines.append(bad)
        out.append(bad)
        for env in envs:
            live = env == "{}"
            out.append(f"  {env}: lhs={live is False} rhs={live} FAILS")
    fname = f"{name}.xdi"
    return Job(
        f"env_sweep/{name}/s{scheme}/{'_'.join(map(str, picks))}",
        ("check", fname),
        ((fname, text),),
        1 if failing else 0,
        tuple(lines),
        "\n".join(out) + "\n",
    )


def _oracle_job(key: str, fname: str, text: str, name: str, states: int, handshakes: int, inputs: int) -> Job:
    queries = 2**inputs * handshakes * 2 * states * 2
    out = f"machine: {name}\nqueries: {queries}\ndisagreements: 0\n"
    return Job(key, ("oracle-check", fname), ((fname, text),), 0, ("disagreements: 0",), out)


# README quick start: commands and their hand-written output.
README_LABELS = "blocking: s1 s3 s4 s5 s7 s8 s9\nidling: s0 s2 s6\nambiguous: no\n"
README_CHECK = (
    "join/blocked_a: holds (8 environments)\n"
    "join/blocked_b: holds (8 environments)\n"
    "join/idle_c: holds (8 environments)\n"
)
README_DEADLOCK = (
    "deadlock: yes\n"
    "instances: j\n"
    "state: src=s1 f=s5 st0=s3 j=s1 snk=s0\n"
    "path: a.R b.R f.out1.R b.A d.R\n"
    "formula(a): sat\n"
    "model: blk_a blk_b blk_d idl_f2 idl_f_out1 idl_j_in1 full_st0\n"
)


def _shipped(name: str) -> tuple[str, str]:
    return (f"machines/{name}", (SHIPPED / name).read_text(encoding="utf-8"))


def _env_sweep_slots() -> list[list[Job]]:
    slots = []
    # Atom handshakes by index into the inputs; -1 is the output handshake.
    # Which atoms a condition names changes the cost of its queries, so the
    # picks are fixed per size and the seed varies only the names.
    pick_sets = ((0, 1, 2), (1, -1, 0), (-1, 0, 1), (2, 0, -1))
    for k, picks in zip((8, 9, 10, 11), pick_sets):
        slots.append(
            [_wide_check_job(k, scheme, picks, failing=k == 8) for scheme in range(len(WIDE_NAMES))]
        )
    for k in (2, 3):
        variants = []
        for scheme in range(len(WIDE_NAMES)):
            name, text, _, wires, n = wide_machine(k, scheme, (0, 1, 2), False)
            variants.append(
                _oracle_job(f"env_sweep/oracle/{name}/s{scheme}", f"{name}.xdi", text, name, n, k + 1, len(wires))
            )
        slots.append(variants)
    for length in (8, 14):
        variants = []
        for polarity in ("idle", "blocked"):
            for scheme in range(len(RING_NAMES)):
                name, text, *_, n, _facts = ring_machine(length, polarity, scheme)
                variants.append(
                    _oracle_job(f"env_sweep/oracle/{name}/s{scheme}", f"{name}.xdi", text, name, n, 2, 2)
                )
        slots.append(variants)
    distributor = _shipped("distributor.xdi")
    join = _shipped("join.xdi")
    slots.append([_oracle_job("env_sweep/oracle/distributor", distributor[0], distributor[1], "distributor", 15, 6, 6)])
    slots.append([_oracle_job("env_sweep/oracle/join", join[0], join[1], "join", 10, 3, 3)])
    slots.append(
        [
            Job(
                "env_sweep/readme/labels",
                ("labels", join[0], "--handshake", "a"),
                (join,),
                0,
                ("ambiguous: no",),
                README_LABELS,
            )
        ]
    )
    slots.append(
        [Job("env_sweep/readme/check", ("check", join[0]), (join,), 0, tuple(README_CHECK.splitlines()), README_CHECK)]
    )
    return slots


# --- Netlists ---------------------------------------------------------------
#
# Chains: source -> n storages -> sink. Trees: a source feeding a fork tree
# of depth d, one storage per leaf, a mirrored join tree and a sink. Both
# are deadlock-free. The broken variant follows pipeline_broken.net: a join
# input is left unconnected and marked stable, so the join waits forever.
# A broken chain ends in such a join before the sink; a broken tree loses
# its last leaf storage, leaving that fork output dangling (live) and that
# join input dangling (stable).

NET_NAMES = (
    ("src", "st", "snk", "f", "j", "c"),
    ("gen", "buf", "drain", "fk", "jn", "ch"),
    ("a", "m", "z", "v", "u", "w"),
)


def _netlist(name, instances, channels, stable, reverse):
    if reverse:
        instances = instances[::-1]
        channels = channels[::-1]
    parts = [f"(circuit {name}"]
    parts.extend(f"  (instance {inst} {prim})" for inst, prim in instances)
    parts.extend(f"  (channel {ch} ({a} {ah}) ({b} {bh}))" for ch, (a, ah), (b, bh) in channels)
    parts.extend(f"  (stable ({inst} {h}))" for inst, h in stable)
    return "\n".join(parts) + ")\n"


def chain_netlist(n: int, broken: bool, scheme: int, reverse: bool):
    src, st, snk, _, jn, ch = NET_NAMES[scheme]
    stores = [f"{st}{i}" for i in range(n)]
    instances = [(src, "source")] + [(s, "storage") for s in stores]
    ends = [(src, "out")] + [(s, "out") for s in stores]
    starts = [(s, "in") for s in stores]
    stable = []
    if broken:
        instances.append((jn, "join"))
        starts.append((jn, "in0"))
        ends.append((jn, "out"))
        stable.append((jn, "in1"))
    instances.append((snk, "sink"))
    starts.append((snk, "in"))
    channels = [(f"{ch}{i}", a, b) for i, (a, b) in enumerate(zip(ends, starts))]
    name = f"chain{n}{'_broken' if broken else ''}"
    return name, _netlist(name, instances, channels, stable, reverse), [c[0] for c in channels]


def tree_netlist(depth: int, broken: bool, scheme: int, reverse: bool):
    src, st, snk, fk, jn, ch = NET_NAMES[scheme]
    leaves = 2**depth
    instances = [(src, "source")]
    instances += [(f"{fk}{i}", "fork") for i in range(1, leaves)]
    stores = [f"{st}{i}" for i in range(leaves - (1 if broken else 0))]
    instances += [(s, "storage") for s in stores]
    instances += [(f"{jn}{i}", "join") for i in range(1, leaves)]
    instances.append((snk, "sink"))
    links = [((src, "out"), (f"{fk}1", "in"))]
    # Heap numbering: node i has children 2i and 2i+1; leaves are leaves..2*leaves-1.
    for i in range(1, leaves):
        for side, child in ((0, 2 * i), (1, 2 * i + 1)):
            if child < leaves:
                links.append(((f"{fk}{i}", f"out{side}"), (f"{fk}{child}", "in")))
                links.append(((f"{jn}{child}", "out"), (f"{jn}{i}", f"in{side}")))
            elif child - leaves < len(stores):
                store = stores[child - leaves]
                links.append(((f"{fk}{i}", f"out{side}"), (store, "in")))
                links.append(((store, "out"), (f"{jn}{i}", f"in{side}")))
    links.append(((f"{jn}1", "out"), (snk, "in")))
    stable = [(f"{jn}{leaves - 1}", "in1")] if broken else []
    channels = [(f"{ch}{i}", a, b) for i, (a, b) in enumerate(links)]
    name = f"tree{depth}{'_broken' if broken else ''}"
    return name, _netlist(name, instances, channels, stable, reverse), [c[0] for c in channels]


def _net_variants():
    for scheme in range(len(NET_NAMES)):
        for reverse in (False, True):
            yield scheme, reverse


def _product_job(build, size_arg, broken):
    variants = []
    for scheme, reverse in _net_variants():
        name, text, _ = build(size_arg, broken, scheme, reverse)
        fname = f"{name}.net"
        if broken:
            # The join with the stable input is the one left waiting.
            join = NET_NAMES[scheme][4] + (str(2**size_arg - 1) if build is tree_netlist else "")
            lines, out = ("deadlock: yes", f"instances: {join}"), None
        else:
            lines, out = ("deadlock: no",), "deadlock: no\n"
        variants.append(
            Job(
                f"product/{name}/s{scheme}{'r' if reverse else 'f'}",
                ("deadlock", fname),
                ((fname, text),),
                1 if broken else 0,
                lines,
                out,
            )
        )
    return variants


def _product_slots() -> list[list[Job]]:
    slots = []
    for n in (5, 6, 7, 8):
        for broken in (False, True):
            slots.append(_product_job(chain_netlist, n, broken))
    for depth in (1, 2):
        for broken in (False, True):
            slots.append(_product_job(tree_netlist, depth, broken))
    return slots


# --- Deadlock formulas ------------------------------------------------------
#
# Chains and the depth-1 tree are deadlock-free and their Dead(ch) systems
# are unsatisfiable for every channel, so the enumerator walks all 2^vars
# assignments; the broken tree is satisfiable. Variables: blk_ and idl_
# per channel or external endpoint, plus full_ per storage.


def _solve_job(build, size_arg, broken, channel_index, smt):
    variants = []
    for scheme, reverse in _net_variants():
        name, text, channels = build(size_arg, broken, scheme, reverse)
        channel = channels[channel_index]
        fname = f"{name}.net"
        argv = ("deadlock", fname, "--channel", channel)
        if smt:
            argv += ("--emit-smt", "out.smt2")
        verdict = "sat" if broken else "unsat"
        lines = (f"deadlock: {'yes' if broken else 'no'}", f"formula({channel}): {verdict}")
        out = None if broken else f"deadlock: no\nformula({channel}): unsat\n"
        variants.append(
            Job(
                f"solve/{name}/s{scheme}{'r' if reverse else 'f'}/{channel}{'/smt' if smt else ''}",
                argv,
                ((fname, text),),
                1 if broken else 0,
                lines,
                out,
                "out.smt2" if smt else None,
            )
        )
    return variants


def _solve_slots() -> list[list[Job]]:
    slots = []
    for n in (1, 2, 3, 4, 5):
        variants = [
            job
            for channel in range(n + 1)
            for smt in (False, True)
            for job in _solve_job(chain_netlist, n, False, channel, smt)
        ]
        slots.extend([variants] * 3)
    slots.append(_solve_job(tree_netlist, 1, False, 0, True))
    # The broken tree is satisfiable, and the model's rank, hence the
    # enumerator's work, depends on the variable names: keep one name scheme.
    slots.append([job for job in _solve_job(tree_netlist, 1, True, 0, True) if "/s0" in job.key])
    broken = _shipped("pipeline_broken.net")
    slots.append(
        [
            Job(
                "solve/readme/deadlock",
                ("deadlock", broken[0], "--channel", "a"),
                (broken,),
                1,
                tuple(README_DEADLOCK.splitlines()),
                README_DEADLOCK,
            )
        ]
    )
    return slots


SLOTS = {
    "fg_ring": _fg_ring_slots,
    "env_sweep": _env_sweep_slots,
    "product": _product_slots,
    "solve": _solve_slots,
}
WORKLOADS = tuple(SLOTS)


def catalog(workload: str) -> list[Job]:
    """Every job any seed can draw for the workload."""

    unique = {job.key: job for slot in SLOTS[workload]() for job in slot}
    return list(unique.values())


def jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job list for a seed: one variant per slot, shuffled."""

    rng = random.Random(f"{workload}:{seed}")
    chosen = [rng.choice(slot) for slot in SLOTS[workload]()]
    rng.shuffle(chosen)
    return chosen
