"""Spans around calls into the public functions of each layer.

Nothing in the package is edited: ``Tracer.install`` rebinds the listed
functions, in every ``cwgraphs`` module namespace that holds them, to
wrappers that record one span per call, and ``uninstall`` puts the
originals back.  Calls the package makes internally go through the same
module globals, so nested calls are traced too.  Hot helpers such as
``label_key`` are left alone; wrapping them would cost more than the
work they do.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter_ns

# Layer -> public functions traced in it.  The oracle module is never
# traced: it only checks answers.
LAYERS = {
    "graph": ("parse_edge_list", "parse_graph_json", "from_edge_list"),
    "structure": ("classify", "decompose", "build_cw", "random_cw"),
    "matchings": ("matching_number", "induced_matching_number", "matching_stats"),
    "complexes": (
        "independence_complex",
        "is_vertex_decomposable",
        "is_vertex_decomposable_graph",
        "cw_shelling",
        "verify_shelling",
    ),
    "invariants": (
        "full_report",
        "minimal_vertex_covers",
        "is_unmixed",
        "cw_witness_covers",
        "cw_cover_cardinalities",
        "is_cm_cw",
        "g_prime",
        "cm_type_cw",
        "is_gorenstein_cw",
        "independence_domination_number",
        "projective_dimension_cw",
        "regularity_cw",
    ),
    "cli": ("main",),
}

# Counters read off return values: span name -> (counter, value of result).
COUNTERS = {
    "complexes.independence_complex": ("complexes.facets", lambda r: len(r.facets)),
    "complexes.cw_shelling": ("complexes.shelling_facets", lambda r: len(r.facets)),
    "invariants.full_report": ("invariants.partial_reports", lambda r: int(r.partial)),
    "structure.classify": ("structure.cw_results", lambda r: int(r.tag == "CameronWalker")),
}

NAME, START, END, PARENT, INPUT = range(5)


class Tracer:
    """Collects spans [name, start_ns, end_ns, parent index, input id]
    in memory, plus per-input-group counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], int] = {}
        self.input_id = None
        self.group = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter_ns(), 0, stack[-1] if stack else -1, self.input_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][END] = perf_counter_ns()
            if counter is not None:
                key = (self.group, counter[0])
                self.counts[key] = self.counts.get(key, 0) + counter[1](result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "cwgraphs" or key.startswith("cwgraphs."))
        ]
        for layer, names in LAYERS.items():
            home = sys.modules[f"cwgraphs.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def count(self, group: str, counter: str) -> int:
        return self.counts.get((group, counter), 0)

    def calls(self, name: str, group: str) -> int:
        return sum(1 for span in self.spans if span[NAME] == name and _in_group(span, group))

    def busy_ms(self, name: str, group: str) -> float:
        """Time inside calls to ``name`` on inputs of ``group``; a call
        nested in another call of the same function is not counted twice."""
        total = 0
        for span in self.spans:
            if span[NAME] != name or not _in_group(span, group):
                continue
            parent = span[PARENT]
            while parent >= 0 and self.spans[parent][NAME] != name:
                parent = self.spans[parent][PARENT]
            if parent < 0:
                total += span[END] - span[START]
        return total / 1e6

    def self_ms_by_layer(self) -> dict[str, float]:
        """Each layer's span time minus the time its child spans cover."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += span[END] - span[START]
        out = {layer: 0.0 for layer in LAYERS}
        for span, inner in zip(self.spans, child_ns):
            layer = span[NAME].split(".", 1)[0]
            out[layer] += (span[END] - span[START] - inner) / 1e6
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(("name", "start_ns", "end_ns", "parent", "input"), span))))
                fh.write("\n")


def _in_group(span, group: str) -> bool:
    return span[INPUT] is not None and span[INPUT].startswith(group + ":")
