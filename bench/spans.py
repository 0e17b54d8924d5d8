"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces the public functions listed in ``LAYERS`` with
wrappers that record a span per call: name, parent span, start and end.
Each wrapper is installed in the defining module and in every xdicheck
module that imported the function by name, so calls between layers
(fg_check -> g_check, derive_deadlock_formula -> compose) nest as child
spans. Wrappers pass return values and exceptions through unchanged.

Nothing is wrapped in the module's own process: the benchmark installs a
tracer only in the forked child that runs one traced job.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# The public functions wrapped, per module. Helpers called once per state or
# per assignment (enabled_transitions, evaluate, ...) are left out: a span
# around each of them would cost more than the work it measures.
LAYERS = {
    "machine": ("parse_document", "validate"),
    "labeling": ("check_unambiguous", "compute_block_idle"),
    "checker": ("g_check", "fg_check", "oracle_g_check", "oracle_fg_check", "cross_validate"),
    "formulas": ("verify_condition", "first_model"),
    "circuit": ("parse_netlist", "compose", "analyze_deadlock", "derive_deadlock_formula", "emit_smt"),
    "library": ("builtin_library",),
    "cli": ("main",),
}


def _first_model_note(args, kwargs, model):
    # DeadlockInstance.first_model passes (formulas, variables) positionally.
    names = args[1]
    count = len(names)
    if model is None:
        tried = 2**count
    else:
        # Rank in the enumerator's False-first lexicographic order, plus one.
        tried = int("".join("1" if model[name] else "0" for name in names) or "0", 2) + 1
    return {"size": 2**count, "solve_vars": count, "assignments_tried": tried}


# Counts read from a call's arguments or result, right after it returns.
# "size" is the input size a layer's slope is measured against.
NOTES = {
    "checker.g_check": lambda a, k, r: {"visited_states": len(r.visited)},
    "checker.fg_check": lambda a, k, r: {
        "visited_states": len(r.visited),
        "size": len(a[0].machine.states),
    },
    "formulas.verify_condition": lambda a, k, r: {"envs_evaluated": len(r.per_env)},
    "formulas.first_model": _first_model_note,
    "circuit.compose": lambda a, k, r: {
        "size": len(r.states),
        "product_states": len(r.states),
        "product_edges": sum(len(edges) for edges in r.adjacency.values()),
    },
    "circuit.analyze_deadlock": lambda a, k, r: {"size": len(a[0].states)},
    "circuit.emit_smt": lambda a, k, r: {"smt_bytes": len(r.encode("utf-8"))},
}


class Tracer:
    """Records spans in memory; one tracer per traced job."""

    def __init__(self) -> None:
        # Each span: [name, parent index, start, end, note].
        self.spans: list[list] = []
        self._stack: list[int] = []

    @classmethod
    def install(cls) -> "Tracer":
        tracer = cls()
        modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "xdicheck"]
        for short, names in LAYERS.items():
            home = sys.modules[f"xdicheck.{short}"]
            for name in names:
                original = getattr(home, name)
                wrapper = tracer._wrap(f"{short}.{name}", original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        setattr(module, name, wrapper)
        return tracer

    def _wrap(self, name, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per layer: calls, self and inclusive seconds, noted counts, size."""

        covered = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        layers: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        for index, (name, _, start, end, note) in enumerate(self.spans):
            entry = layers[name]
            entry["calls"] += 1
            entry["self_s"] += end - start - covered[index]
            entry["incl_s"] += end - start
            for key, value in (note or {}).items():
                if key == "size":
                    entry["size"] = max(entry["size"], value)
                else:
                    entry[key] += value
        return {name: dict(entry) for name, entry in layers.items()}

    def write(self, handle, job: int) -> None:
        """Append the spans as JSON lines: job, id, parent, name, start, end."""

        for index, (name, parent, start, end, _) in enumerate(self.spans):
            handle.write(json.dumps([job, index, parent, name, start, end]) + "\n")
