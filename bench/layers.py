"""The layer map of the traced pass.

A traced pass rebinds the public functions of each `macgap` layer, in every
`macgap` module namespace that imported them, to a wrapper that records a
span: name, start, end, parent span and op id.  Spans stay in memory until
the pass ends and are then written out; the per-layer metrics are computed
from that file alone, so inclusive and self times come from the same data.

Nothing under ``src/`` changes; the program only sees its own functions
called through a wrapper.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter


def _table_cells(args, kwargs, table):
    # the Pascal rectangle holds min(a, width) + 1 cells in row a
    self = args[0]
    bound, width = self.bound, self.lower_bound
    if bound <= width:
        cells = (bound + 1) * (bound + 2) // 2
    else:
        cells = (width + 1) * (width + 2) // 2 + (bound - width) * (width + 1)
    return {"cells": cells}


def _rank_shape(args, kwargs, rank):
    rows = args[0]
    ncols = len(rows[0]) if rows else 0
    out = {"rows": len(rows), "cols": ncols, "cells": len(rows) * ncols,
           "rank": rank,
           "support": sum(1 for col in zip(*rows) if any(col))}
    # exact_rank drops zero rows, then takes the Gaussian path iff some
    # entry has an imaginary part
    if any(any(row) for row in rows):
        gauss = any(c.im for row in rows for c in row)
        out["kind"] = "gauss" if gauss else "int"
    return out


def _rows_cells(args, kwargs, rows):
    return {"cells": len(rows) * (len(rows[0]) if rows else 0)}


def _terms(args, kwargs, poly):
    return {"terms": len(poly.coeffs)}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(args[0].encode("utf-8"))}


def _refusal(args, kwargs, cert):
    return {"refusals": 0 if cert.verdict else 1}


# (defining module, attribute, layer, span attributes)
TRACED = [
    ("macgap.binom_core", "BinomTable.__init__", "binom_core.table", _table_cells),
    ("macgap.binom_core", "macaulay_rep", "binom_core.macaulay_rep", None),
    ("macgap.binom_core", "op_lower", "binom_core.shift", None),
    ("macgap.binom_core", "op_minus", "binom_core.shift", None),
    ("macgap.binom_core", "op_upper", "binom_core.shift", None),
    ("macgap.binom_core", "verify_lemma_binom", "binom_core.lemma_sweep", None),
    ("macgap.gap_calc", "classify_gap", "gap_calc.classify", None),
    ("macgap.gap_calc", "gap_argument_sweep", "gap_calc.sweep", None),
    ("macgap.polyspace", "restrict", "polyspace.restrict", _terms),
    ("macgap.polyspace", "green_suite", "polyspace.suite", None),
    ("macgap.polyspace", "veronese_suite", "polyspace.suite", None),
    ("macgap.polyspace", "exact_rank", "polyspace.rank", _rank_shape),
    ("macgap.polyspace", "coefficient_rows", "polyspace.rows", _rows_cells),
    ("macgap.polyspace", "image_span_dim", "polyspace.span", None),
    ("macgap.hermitian", "parse_map", "hermitian.parse", _text_bytes),
    ("macgap.hermitian", "orthogonality_certificate", "hermitian.cert", _refusal),
    ("macgap.hermitian", "pairing_poly", "hermitian.pairing", _terms),
    ("macgap.hermitian", "span_obstruction_check", "hermitian.obstruct", None),
    ("macgap.cli", "main", "cli.main", None),
]

# metric name -> (layer, field); a (numerator, denominator) field is a ratio
# of two summed span attributes.  Units are those of BENCHMARK.json.
PER_LAYER = {
    "binom_core.table.builds": ("binom_core.table", "calls"),
    "binom_core.table.cells": ("binom_core.table", "cells"),
    "binom_core.table.s": ("binom_core.table", "s"),
    "binom_core.macaulay_rep.calls": ("binom_core.macaulay_rep", "calls"),
    "binom_core.macaulay_rep.s": ("binom_core.macaulay_rep", "s"),
    "binom_core.shift.calls": ("binom_core.shift", "calls"),
    "binom_core.shift.s": ("binom_core.shift", "s"),
    "binom_core.lemma_sweep.s": ("binom_core.lemma_sweep", "s"),
    "gap_calc.classify.calls": ("gap_calc.classify", "calls"),
    "gap_calc.classify.s": ("gap_calc.classify", "s"),
    "gap_calc.sweep.s": ("gap_calc.sweep", "s"),
    "polyspace.restrict.calls": ("polyspace.restrict", "calls"),
    "polyspace.restrict.s": ("polyspace.restrict", "s"),
    "polyspace.restrict.terms_out": ("polyspace.restrict", "terms"),
    "polyspace.suite.s": ("polyspace.suite", "s"),
    "polyspace.rank.calls": ("polyspace.rank", "calls"),
    "polyspace.rank.s": ("polyspace.rank", "s"),
    "polyspace.rank.int_calls": ("polyspace.rank", "int_calls"),
    "polyspace.rank.gauss_calls": ("polyspace.rank", "gauss_calls"),
    "polyspace.rank.int_s": ("polyspace.rank", "int_s"),
    "polyspace.rank.gauss_s": ("polyspace.rank", "gauss_s"),
    "polyspace.rank.cells": ("polyspace.rank", "cells"),
    "polyspace.rank.support_ratio": ("polyspace.rank", ("support", "cols")),
    "polyspace.rank.rank_ratio": ("polyspace.rank", ("rank", "rows")),
    "polyspace.rows.s": ("polyspace.rows", "s"),
    "polyspace.rows.cells": ("polyspace.rows", "cells"),
    "polyspace.span.calls": ("polyspace.span", "calls"),
    "polyspace.span.s": ("polyspace.span", "s"),
    "hermitian.parse.calls": ("hermitian.parse", "calls"),
    "hermitian.parse.s": ("hermitian.parse", "s"),
    "hermitian.parse.bytes": ("hermitian.parse", "bytes"),
    "hermitian.cert.calls": ("hermitian.cert", "calls"),
    "hermitian.cert.s": ("hermitian.cert", "s"),
    "hermitian.cert.self_s": ("hermitian.cert", "self_s"),
    "hermitian.cert.refusals": ("hermitian.cert", "refusals"),
    "hermitian.pairing.s": ("hermitian.pairing", "s"),
    "hermitian.pairing.terms": ("hermitian.pairing", "terms"),
    "hermitian.obstruct.calls": ("hermitian.obstruct", "calls"),
    "hermitian.obstruct.s": ("hermitian.obstruct", "s"),
    "cli.ops": ("cli.main", "calls"),
    "cli.main.s": ("cli.main", "s"),
    "cli.self_s": ("cli.main", "self_s"),
}


class Tracer:
    """Span recorder for one pass; `op` is the id of the op in progress."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, layer, fn, attrs):
        if layer not in self.names:
            self.names.append(layer)
        nid = self.names.index(layer)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = [nid, self.op, parent, t0, t1, None]
            if attrs is not None:
                spans[idx][5] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "macgap" or name.startswith("macgap.")]
        for modname, attr, layer, attrs in TRACED:
            owner = sys.modules[modname]
            if "." in attr:
                cls, meth = attr.split(".")
                owner = getattr(owner, cls)
                setattr(owner, meth, self._wrap(layer, getattr(owner, meth), attrs))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(layer, original, attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh,
                      separators=(",", ":"))


def aggregate(path, factors) -> dict:
    """Per-layer sums from a span file: calls, inclusive time `s`, self time
    `self_s` (duration minus the direct child spans, which never overlap in
    one thread), summed span attributes, and calls and time per `kind`.
    Durations are scaled by the speed factor of their op."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    names, spans = data["names"], data["spans"]
    durations = [(t1 - t0) * factors[op] for _, op, _, t0, t1, _ in spans]
    child_time = [0.0] * len(spans)
    for (_, _, parent, _, _, _), dur in zip(spans, durations):
        if parent >= 0:
            child_time[parent] += dur
    agg: dict = defaultdict(lambda: defaultdict(float))
    for i, ((nid, _, _, _, _, attrs), dur) in enumerate(zip(spans, durations)):
        row = agg[names[nid]]
        row["calls"] += 1
        row["s"] += dur
        row["self_s"] += dur - child_time[i]
        for key, value in (attrs or {}).items():
            if key == "kind":
                row[f"{value}_calls"] += 1
                row[f"{value}_s"] += dur
            else:
                row[key] += value
    return agg


def layer_metrics(agg) -> dict:
    """Every PER_LAYER metric as a number; absent layers read 0."""
    out = {}
    for name, (layer, fld) in PER_LAYER.items():
        row = agg.get(layer, {})
        if isinstance(fld, tuple):
            den = row.get(fld[1], 0)
            value = row.get(fld[0], 0) / den if den else 0.0
        else:
            value = row.get(fld, 0)
        out[name] = value
    return out
