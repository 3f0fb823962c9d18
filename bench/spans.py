"""Spans around the public functions of each congrlab module.

install() replaces each listed function, in every congrlab module that holds
a reference to it, by a wrapper that records a span: name, start, end,
parent span and operation id.  Spans stay in memory until the run ends.  A
call made while a span of the same name is open is folded into that span, so
a layer's self time is never counted twice.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# span name -> functions, as "module:attribute" or "module:Class.method"
LAYERS = {
    "algebra.build": [
        "algebra:build_from_spec", "algebra:lattice_from_order", "algebra:direct_product",
        "algebra:dual", "algebra:ordinal_sum", "algebra:ordinal_sum_with_maps",
        "algebra:sublattice", "algebra:lattice_reduct",
    ],
    "congruences.all_congruences": ["congruences:all_congruences"],
    "congruences.is_distributive": ["congruences:ConLattice.is_distributive"],
    "congruences.is_permutable": ["congruences:ConLattice.is_permutable"],
    "congruences.join": ["congruences:join"],
    "congruences.compose": ["congruences:compose"],
    "congruences.special": ["congruences:maximal_congruences", "congruences:prime_congruences"],
    "factor.center": ["factor:boolean_center", "factor:factor_congruences"],
    "factor.transport": [
        "factor:product_con_iso_check", "factor:osum_con_iso_check", "factor:osum_fc_comparison",
    ],
    "lifting.quotient": ["lifting:quotient"],
    "lifting.u_map": ["lifting:u_map"],
    "lifting.has_lifting": ["lifting:has_fclp", "lifting:has_cblp"],
    "lifting.normality": ["lifting:is_fc_normal", "lifting:is_b_normal"],
    "residuated.blp": [
        "residuated:algebra_blp", "residuated:has_blp", "residuated:blp_equivalence_check",
    ],
    "residuated.filt_id": ["residuated:has_filt_blp", "residuated:has_id_blp"],
    "report.build": ["report:build_report", "lifting:lifting_report"],
    "report.render": [
        "report:render_report_table", "report:render_con_table", "report:render_dot",
        "report:render_hasse_dot", "report:dump_json", "report:congruence_rows",
        "report:counts_line", "report:product_summary",
    ],
    "cli.main": ["cli:main"],
}


def _algebra_key(A):
    return hash(A.structure_key())


# spans whose distinct inputs are counted, and the key of one input
DISTINCT = {
    "congruences.all_congruences": lambda args: _algebra_key(args[0]),
    "lifting.quotient": lambda args: (_algebra_key(args[0]), args[1].block_of),
}

# the per-layer metrics: (metric name, span name, statistic)
METRICS = [
    ("algebra.build.calls", "algebra.build", "calls"),
    ("algebra.build.self_s", "algebra.build", "self_s"),
    ("congruences.all_congruences.calls", "congruences.all_congruences", "calls"),
    ("congruences.all_congruences.distinct_ratio", "congruences.all_congruences", "distinct_ratio"),
    ("congruences.all_congruences.self_s", "congruences.all_congruences", "self_s"),
    ("congruences.is_distributive.self_s", "congruences.is_distributive", "self_s"),
    ("congruences.is_permutable.self_s", "congruences.is_permutable", "self_s"),
    ("congruences.join.calls", "congruences.join", "calls"),
    ("congruences.join.self_s", "congruences.join", "self_s"),
    ("congruences.compose.calls", "congruences.compose", "calls"),
    ("congruences.compose.self_s", "congruences.compose", "self_s"),
    ("congruences.special.self_s", "congruences.special", "self_s"),
    ("factor.center.self_s", "factor.center", "self_s"),
    ("factor.transport.self_s", "factor.transport", "self_s"),
    ("lifting.quotient.calls", "lifting.quotient", "calls"),
    ("lifting.quotient.distinct_ratio", "lifting.quotient", "distinct_ratio"),
    ("lifting.quotient.self_s", "lifting.quotient", "self_s"),
    ("lifting.u_map.calls", "lifting.u_map", "calls"),
    ("lifting.u_map.self_s", "lifting.u_map", "self_s"),
    ("lifting.has_lifting.calls", "lifting.has_lifting", "calls"),
    ("lifting.has_lifting.self_s", "lifting.has_lifting", "self_s"),
    ("lifting.normality.self_s", "lifting.normality", "self_s"),
    ("residuated.blp.self_s", "residuated.blp", "self_s"),
    ("residuated.filt_id.self_s", "residuated.filt_id", "self_s"),
    ("report.build.self_s", "report.build", "self_s"),
    ("report.render.self_s", "report.render", "self_s"),
    ("cli.main.self_s", "cli.main", "self_s"),
]


class Tracer:
    """Records spans while installed; summarise() turns them into metrics."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.stack = []  # indices of the open spans
        self.open_names = {}
        self.keys = {name: [] for name in DISTINCT}
        self.op = None
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, open_names = self.spans, self.stack, self.open_names
        key_of = DISTINCT.get(name)
        keys = self.keys.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if open_names.get(name):
                return fn(*args, **kwargs)
            if key_of is not None:
                keys.append(key_of(args))
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            open_names[name] = 1
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_names[name] = 0
                stack.pop()

        return wrapper

    def install(self):
        modules = [m for k, m in sorted(sys.modules.items()) if k == "congrlab" or k.startswith("congrlab.")]
        for name, targets in LAYERS.items():
            for target in targets:
                module, attr = target.split(":")
                owner = sys.modules[f"congrlab.{module}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(name, orig))
                    self._undo.append((cls, meth, orig))
                    continue
                orig = getattr(owner, attr)
                wrapped = self._wrap(name, orig)
                for m in modules:
                    for k, v in list(vars(m).items()):
                        if v is orig:
                            setattr(m, k, wrapped)
                            self._undo.append((m, k, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def summarise(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = {name: {"calls": 0, "self_s": 0.0} for name in LAYERS}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            s = stats[name]
            s["calls"] += 1
            s["self_s"] += end - start - inner
        for name, keys in self.keys.items():
            stats[name]["distinct_ratio"] = len(set(keys)) / len(keys) if keys else 0.0
        units = {"calls": "count", "self_s": "s", "distinct_ratio": "ratio"}
        return {
            metric: {"value": stats[span][stat], "unit": units[stat]}
            for metric, span, stat in METRICS
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, op]) + "\n")
