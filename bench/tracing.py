"""Spans and counts recorded at the library's module boundaries.

The tracer wraps public functions where one module calls into another (the
CLI into the parser, generator, validators, bijection and series; the
validators into the generator and serializer).  Each call records a span
(id, parent id, request id, name, start, end) in memory, and hooks add counts
at the same boundaries.  Nothing inside the library changes: `uninstall`
puts every original function back.
"""

from __future__ import annotations

import importlib
import itertools
import json
from collections import Counter, defaultdict
from time import perf_counter

SERIES_ROUTES = {"Park": "series.park_s", "Tree": "series.lagrange_s", "Ref": "series.fixed_point_s"}


def _count_structures(tracer, args, result, duration, parent):
    tracer.counts["generate.count_structures"] += result


def _list_structures(tracer, args, result, duration, parent):
    tracer.counts["generate.list_structures"] += len(result)


def _candidates(tracer, args, result, duration, parent):
    # Base structures listed to validate one slot (or node) against its base.
    if parent == "parking.validate":
        tracer.counts["parking.slots"] += 1
        tracer.counts["parking.candidates"] += len(result)
    elif parent == "treelike.validate":
        tracer.counts["treelike.nodes"] += 1
        tracer.counts["treelike.candidates"] += len(result)


def _labels_in(tracer, args, result, duration, parent):
    tracer.counts["bijection.labels"] += len(args[0].sequence) - 1


def _labels_out(tracer, args, result, duration, parent):
    tracer.counts["bijection.labels"] += len(result.sequence) - 1


def _series(tracer, args, result, duration, parent):
    tracer.counts["series.coeffs"] += len(result.counts)
    bits = max(abs(c).bit_length() for c in result.counts)
    tracer.counts["series.max_coeff_bits"] = max(tracer.counts["series.max_coeff_bits"], bits)
    route = SERIES_ROUTES.get(type(args[0]).__name__)
    if route:
        tracer.times[route] += duration


def boundaries(sink_class):
    """(owner, attribute, span name, hook) for every traced boundary."""
    # import_module: the package re-exports a function named `generate`,
    # which shadows the submodule as an attribute of `parklike`.
    bijection, cli, generate, parking, treelike = (
        importlib.import_module(f"parklike.{name}")
        for name in ("bijection", "cli", "generate", "parking", "treelike")
    )
    from parklike.chi import ChiMap

    return [
        (cli, "main", "cli", None),
        (sink_class, "write", "cli.write", None),
        (cli, "parse_species", "dsl.parse", None),
        (generate.Generator, "count", "generate.count", _count_structures),
        (generate.Generator, "generate", "generate.generate", _list_structures),
        (generate.Generator, "raw", "generate.raw", _candidates),
        (cli, "serialize", "structures.serialize", None),
        (generate, "serialize", "structures.serialize", None),
        (parking, "serialize", "structures.serialize", None),
        (treelike, "serialize", "structures.serialize", None),
        (cli, "from_jsonable", "structures.from_jsonable", None),
        (cli, "validate_parking", "parking.validate", None),
        (cli, "validate_tree", "treelike.validate", None),
        (bijection, "park_to_tree", "bijection.park_to_tree", _labels_in),
        (bijection, "tree_to_park", "bijection.tree_to_park", _labels_out),
        (cli, "egf_of_species", "series.egf", _series),
        (ChiMap, "shift", "chi.shift", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list = []  # (id, parent id, request id, name, start, end)
        self.counts: Counter = Counter()
        self.times: Counter = Counter()
        self.request = None
        self._stack: list = [(None, None)]  # (span id, name) of the open spans
        self._ids = itertools.count(1)
        self._patched: list = []

    def install(self, targets) -> None:
        for owner, attr, name, hook in targets:
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, hook))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, hook):
        spans, stack, ids = self.spans, self._stack, self._ids

        def traced(*args, **kwargs):
            sid = next(ids)
            parent, parent_name = stack[-1]
            stack.append((sid, name))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, self.request, name, start, end))
            if hook is not None:
                hook(self, args, result, end - start, parent_name)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> Counter:
        """Per span name: total duration minus the part covered by child spans."""
        covered: defaultdict = defaultdict(float)
        for _sid, parent, _req, _name, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: Counter = Counter()
        for sid, _parent, _req, name, start, end in self.spans:
            out[name] += (end - start) - covered.get(sid, 0.0)
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span, separators=(",", ":")))
                f.write("\n")


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float, output_bytes: int) -> dict:
    """The per-layer metrics of one traced pass, by name, as (value, unit)."""
    own = tracer.self_times()
    c, t = tracer.counts, tracer.times
    calls = Counter(span[3] for span in tracer.spans)

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "cli.requests": (calls["cli"], "count"),
        "cli.self_s": (own["cli"], "s"),
        "cli.output_bytes": (output_bytes, "bytes"),
        "cli.write_s": (own["cli.write"], "s"),
        "dsl.parse_calls": (calls["dsl.parse"], "count"),
        "dsl.parse_s": (own["dsl.parse"], "s"),
        "generate.count_s": (own["generate.count"], "s"),
        "generate.count_structures": (c["generate.count_structures"], "count"),
        "generate.list_s": (own["generate.generate"], "s"),
        "generate.list_structures": (c["generate.list_structures"], "count"),
        "generate.raw_s": (own["generate.raw"], "s"),
        "generate.raw_calls": (calls["generate.raw"], "count"),
        "structures.serialize_s": (own["structures.serialize"], "s"),
        "structures.serialize_calls": (calls["structures.serialize"], "count"),
        "structures.from_jsonable_s": (own["structures.from_jsonable"], "s"),
        "structures.from_jsonable_calls": (calls["structures.from_jsonable"], "count"),
        "parking.validate_s": (own["parking.validate"], "s"),
        "parking.validate_calls": (calls["parking.validate"], "count"),
        "parking.candidates_per_slot": (ratio(c["parking.candidates"], c["parking.slots"]), "1"),
        "treelike.validate_s": (own["treelike.validate"], "s"),
        "treelike.validate_calls": (calls["treelike.validate"], "count"),
        "treelike.candidates_per_node": (ratio(c["treelike.candidates"], c["treelike.nodes"]), "1"),
        "bijection.park_to_tree_s": (own["bijection.park_to_tree"], "s"),
        "bijection.tree_to_park_s": (own["bijection.tree_to_park"], "s"),
        "bijection.labels": (c["bijection.labels"], "count"),
        "series.egf_s": (own["series.egf"], "s"),
        "series.coeffs": (c["series.coeffs"], "count"),
        "series.max_coeff_bits": (c["series.max_coeff_bits"], "bits"),
        "series.park_s": (t["series.park_s"], "s"),
        "series.lagrange_s": (t["series.lagrange_s"], "s"),
        "series.fixed_point_s": (t["series.fixed_point_s"], "s"),
        "chi.shift_calls": (calls["chi.shift"], "count"),
        "chi.shift_s": (own["chi.shift"], "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.self_share": (ratio(sum(own.values()), traced_wall), "1"),
    }
