"""Per-layer tracing from outside the program.

The tracer wraps public entry points of annkh's modules and records a span
for each call: its name, start, end, the span that caused it and its self
time, which is its duration minus the time spent in nested wrapped calls.
A function imported by name into several modules is replaced in every
module that holds it, so calls that go through any of those names are
seen. Counts are taken from the values the wrapped calls return, after the
call's own time is taken; the time that bookkeeping costs is charged to
no span.

Circle tracing runs once per cube vertex, so its calls are folded into a
count and a time instead of one span each.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import annkh.burau
import annkh.cli
import annkh.cube
import annkh.diagram
import annkh.garside
import annkh.gf2
import annkh.homology
import annkh.invariants

PER_LAYER = (
    ("diagram.trace_calls", "count"),
    ("diagram.trace_ms", "ms"),
    ("cube.build_calls", "count"),
    ("cube.build_self_ms", "ms"),
    ("cube.vertices", "count"),
    ("cube.generators", "count"),
    ("cube.boundary_entries", "count"),
    ("cube.blocks", "count"),
    ("cube.largest_block_cells", "count"),
    ("cube.unread_packed_mb", "MB"),
    ("gf2.assemble_ms", "ms"),
    ("gf2.packed_mb", "MB"),
    ("gf2.rank_calls", "count"),
    ("gf2.rank_graded_ms", "ms"),
    ("gf2.rank_full_ms", "ms"),
    ("gf2.rank_cols", "count"),
    ("gf2.rank_per_col", "ratio"),
    ("gf2.span_calls", "count"),
    ("gf2.span_ms", "ms"),
    ("invariants.trivial_calls", "count"),
    ("invariants.permutation_rejects", "count"),
    ("invariants.plam_ms", "ms"),
    ("garside.nf_calls", "count"),
    ("garside.nf_ms", "ms"),
    ("garside.factors", "count"),
    ("burau.matrix_ms", "ms"),
    ("burau.det_ms", "ms"),
    ("burau.charpoly_ms", "ms"),
    ("burau.charpoly_terms", "count"),
    ("cli.calls", "count"),
    ("cli.self_ms", "ms"),
)

# span name -> (metric its self time adds to, metric counting its calls)
_SPAN_METRICS = {
    "cube.build": ("cube.build_self_ms", "cube.build_calls"),
    "gf2.from_entries": ("gf2.assemble_ms", None),
    "gf2.rank": (None, "gf2.rank_calls"),  # self time goes by caller, in _after_rank
    "gf2.row_in_span": ("gf2.span_ms", "gf2.span_calls"),
    "invariants.is_trivial": (None, "invariants.trivial_calls"),
    "invariants.plamenevskaya": ("invariants.plam_ms", None),
    "garside.left_normal_form": ("garside.nf_ms", "garside.nf_calls"),
    "burau.burau_matrix": ("burau.matrix_ms", None),
    "burau.laurent_det": ("burau.det_ms", None),
    "burau.char_poly": ("burau.charpoly_ms", None),
    "cli.run": ("cli.self_ms", "cli.calls"),
}

_MB = 1 << 20


class _Frame:
    __slots__ = ("name", "start", "children")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.children = 0.0


class LayerTracer:
    """Wraps annkh's entry points while installed; records only while an op is open."""

    def __init__(self):
        self.totals: Counter = Counter()
        self.largest_block_cells = 0
        self.spans: list[dict] = []
        self._stack: list[_Frame] = []
        self._op: str | None = None
        self._origin = time.perf_counter()
        # id(complex) -> [graded bytes, full bytes, graded read, full read]
        self._complexes: dict[int, list] = {}
        self._restore: list[tuple[object, str, object]] = []

    # installation -------------------------------------------------------

    def install(self) -> None:
        cube, gf2, garside = annkh.cube, annkh.gf2, annkh.garside
        homology, invariants, burau = annkh.homology, annkh.invariants, annkh.burau
        for name, fn, after in (
            ("cube.build", cube.build_complex, self._after_build),
            ("homology.graded", homology.homology_graded, self._after_read(2)),
            ("homology.full", homology.homology_full, self._after_read(3)),
            ("invariants.is_trivial", invariants.is_trivial, self._after_trivial),
            ("invariants.plamenevskaya", invariants.plamenevskaya, None),
            ("garside.left_normal_form", garside.left_normal_form, self._after_nf),
            ("burau.burau_matrix", burau.burau_matrix, None),
            ("burau.laurent_det", burau.laurent_det, None),
            ("burau.char_poly", burau.char_poly, self._after_charpoly),
            ("cli.run", annkh.cli.run, None),
        ):
            self._replace_everywhere(fn, self._wrap(name, fn, after))
        matrix = gf2.F2Matrix
        from_entries = matrix.__dict__["from_entries"].__func__
        self._set(
            matrix,
            "from_entries",
            classmethod(self._wrap("gf2.from_entries", from_entries, self._after_assemble)),
        )
        # the rank taken inside row_in_span belongs to the span test
        rank = self._wrap("gf2.rank", matrix.rank, self._after_rank, folded_in="gf2.row_in_span")
        self._set(matrix, "rank", rank)
        self._set(matrix, "row_in_span", self._wrap("gf2.row_in_span", matrix.row_in_span))
        diagram = annkh.diagram.AnnularClosureDiagram
        self._set(diagram, "_trace", self._wrap_trace(diagram._trace))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        """Install wrapper under every annkh module name bound to original."""
        hits = 0
        for name, module in list(sys.modules.items()):
            if name != "annkh" and not name.startswith("annkh."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)
                    hits += 1
        if not hits:
            raise RuntimeError(f"{original.__qualname__} is bound in no annkh module")

    # operations ---------------------------------------------------------

    def begin_op(self, op_id: str) -> None:
        self._op = op_id

    def end_op(self) -> None:
        for record in self._complexes.values():
            self._charge_unread(record)
        self._complexes.clear()
        self._op = None

    def _charge_unread(self, record: list) -> None:
        graded, full, graded_read, full_read = record
        self.totals["cube.unread_packed_bytes"] += (0 if graded_read else graded) + (0 if full_read else full)

    # wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn, after=None, folded_in: str | None = None):
        """A wrapper recording a span named name; after(result, args, self_ms) counts.

        A call made directly inside a span named folded_in records nothing
        and stays part of that span's self time.
        """
        tracer = self
        self_metric, calls_metric = _SPAN_METRICS.get(name, (None, None))

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if tracer._op is None or (folded_in and stack and stack[-1].name == folded_in):
                return fn(*args, **kwargs)
            frame = _Frame(name, time.perf_counter())
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self_ms = (end - frame.start - frame.children) * 1e3
                tracer.spans.append(
                    {
                        "op": tracer._op,
                        "name": name,
                        "parent": stack[-1].name if stack else None,
                        "start_ms": (frame.start - tracer._origin) * 1e3,
                        "end_ms": (end - tracer._origin) * 1e3,
                        "self_ms": self_ms,
                    }
                )
            if self_metric:
                tracer.totals[self_metric] += self_ms
            if calls_metric:
                tracer.totals[calls_metric] += 1
            if after is not None:
                after(result, args, self_ms)
            # the parent's children cover this call and the bookkeeping after it
            if stack:
                stack[-1].children += time.perf_counter() - frame.start
            return result

        return wrapper

    def _wrap_trace(self, fn):
        tracer = self

        def _trace(diagram, vertex):
            if tracer._op is None:
                return fn(diagram, vertex)
            start = time.perf_counter()
            result = fn(diagram, vertex)
            elapsed = time.perf_counter() - start
            tracer.totals["diagram.trace_calls"] += 1
            tracer.totals["diagram.trace_ms"] += elapsed * 1e3
            if tracer._stack:
                tracer._stack[-1].children += elapsed
            return result

        return _trace

    # counts -------------------------------------------------------------

    def _after_build(self, cx, _args, _self_ms) -> None:
        t = self.totals
        t["cube.vertices"] += cx.num_vertices
        t["cube.generators"] += cx.total_generators
        nbytes = []
        for boundary in (cx.graded_boundary, cx.full_boundary):
            total = 0
            for mat in boundary.values():
                t["cube.boundary_entries"] += int(np.bitwise_count(mat.data).sum())
                t["cube.blocks"] += 1
                self.largest_block_cells = max(self.largest_block_cells, mat.rows * mat.cols)
                total += mat.data.nbytes
            nbytes.append(total)
        old = self._complexes.pop(id(cx), None)
        if old is not None:
            self._charge_unread(old)
        # plamenevskaya reads the full boundary of the complexes it builds
        in_plam = any(f.name == "invariants.plamenevskaya" for f in self._stack)
        self._complexes[id(cx)] = [nbytes[0], nbytes[1], False, in_plam]

    def _after_read(self, slot: int):
        def mark(_result, args, _self_ms) -> None:
            record = self._complexes.get(id(args[0]))
            if record is not None:
                record[slot] = True

        return mark

    def _after_assemble(self, mat, _args, _self_ms) -> None:
        self.totals["gf2.packed_bytes"] += mat.data.nbytes

    def _after_rank(self, rank, args, self_ms) -> None:
        caller = next((f.name for f in reversed(self._stack) if f.name.startswith("homology.")), None)
        if caller == "homology.graded":
            self.totals["gf2.rank_graded_ms"] += self_ms
        elif caller == "homology.full":
            self.totals["gf2.rank_full_ms"] += self_ms
        self.totals["gf2.rank_cols"] += args[0].cols
        self.totals["gf2.rank_sum"] += rank

    def _after_trivial(self, decision, _args, _self_ms) -> None:
        if decision.verdict == "unequal-by-permutation":
            self.totals["invariants.permutation_rejects"] += 1

    def _after_nf(self, nf, _args, _self_ms) -> None:
        self.totals["garside.factors"] += len(nf.factors)

    def _after_charpoly(self, poly, _args, _self_ms) -> None:
        self.totals["burau.charpoly_terms"] += len(poly.terms)

    # results ------------------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Every per-layer metric, per pass of the corpus."""
        t = self.totals
        values = {name: t[name] / passes for name, _unit in PER_LAYER}
        values["cube.largest_block_cells"] = self.largest_block_cells
        values["cube.unread_packed_mb"] = t["cube.unread_packed_bytes"] / _MB / passes
        values["gf2.packed_mb"] = t["gf2.packed_bytes"] / _MB / passes
        values["gf2.rank_per_col"] = t["gf2.rank_sum"] / t["gf2.rank_cols"] if t["gf2.rank_cols"] else 0.0
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
