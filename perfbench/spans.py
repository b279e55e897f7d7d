"""Span and count recording around the sscurves layers, from outside the program.

Tracer.install() replaces each function listed in WRAP by a wrapper that
records a span (op id, name, layer, start, end, parent span, and one
counted value), in every sscurves module namespace that binds the function,
so `cli`'s imported `count_points` is traced as well as `zeta`'s own.  Spans
stay in memory until write(); summarize() turns them into the per-layer
metrics, where a span's self time is its duration minus its children's.
Hot inner helpers (field multiplication, gf2x arithmetic, linops
evaluation) are deliberately not wrapped: their time is part of the self
time of the layer that calls them, and wrapping them would swamp the run.
"""

import functools
import json
import sys
import time
from collections import defaultdict

# module -> (layer, wrapped function names)
WRAP = {
    "sscurves.cli": ("cli", ("main",)),
    "sscurves.jsonio": ("jsonio", (
        "dumps", "load_curve", "curve_from_json", "curve_to_json",
        "report_to_json", "field_from_json", "field_to_json", "elem_to_json",
        "linpoly_to_json", "linpoly_from_json", "sparse_to_json",
        "sparse_from_json")),
    "sscurves.render": ("render", (
        "coeff_text", "_dlog", "sparse_text", "linpoly_text", "equation_text",
        "xr_table", "component_lines")),
    "sscurves.builder": ("builder", (
        "build_components", "build_prime_field", "glue_single_block",
        "stratum_certificate", "certificate", "fibre_combinations",
        "to_standard_form")),
    "sscurves.classify": ("classify", (
        "e_poly", "radical", "scaling_orbit", "curves_isomorphic",
        "covers_isomorphic")),
    "sscurves.quotient": ("quotient", (
        "decomposition", "solve_alpha_space", "quotient_curve", "split",
        "is_irreducible", "dual_equation", "combined_rhs_poly")),
    "sscurves.linops": ("linops", ("splitting_degree", "lin_kernel")),
    "sscurves.zeta": ("zeta", (
        "count_points", "count_artin_schreier", "count_series",
        "lpoly_from_counts", "newton_polygon", "verify_supersingular",
        "powersum_additivity_check")),
    "sscurves.field": ("field", (
        "make_field", "extend_and_embed", "embedding_into", "poly_roots",
        "f2_linear_solve")),
    "sscurves.gf2x": ("gf2x", (
        "is_irreducible", "smallest_irreducible", "frobenius_order")),
}
# (module, class, method, layer)
WRAP_METHODS = (("sscurves.field", "BinaryField", "ensure_tables", "field"),)

COUNT_SPANS = ("zeta.count_points", "zeta.count_artin_schreier")


def _field_order(curve):
    field = getattr(curve, "field", None)
    if field is None:
        field = curve.rhs.field
    return field.order


def _points(args, kwargs):
    """q^k of a count call: points of the extension field enumerated."""
    k = args[1] if len(args) > 1 else kwargs["k"]
    return _field_order(args[0]) ** k


class Tracer:
    """Records spans of the wrapped functions in one worker process."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.op = None
        self.spans = []      # [op, name, layer, start, end, parent, value]
        self._stack = []
        self._patched = []   # (namespace, attribute, original)

    def wrap(self, fn, fn_name, layer):
        spans, stack, clock = self.spans, self._stack, self.clock
        tracer = self
        name = layer + "." + fn_name

        def value_before(args, kwargs):
            if name in COUNT_SPANS:
                return _points(args, kwargs)
            if fn_name == "ensure_tables":
                return args[0].tables[0] is None
            return 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            value = value_before(args, kwargs)
            span = [tracer.op, name, layer, 0, 0,
                    stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if fn_name == "dumps":
                value = len(result.encode())
            elif fn_name == "decomposition":
                value = len(result)
            elif fn_name == "ensure_tables":
                value = int(value and result)
            span[6] = value
            return result

        return wrapper

    def _patch_everywhere(self, original, replacement):
        for modname, module in list(sys.modules.items()):
            if modname != "sscurves" and not modname.startswith("sscurves."):
                continue
            for attr, val in list(vars(module).items()):
                if val is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self):
        for modname, (layer, names) in WRAP.items():
            module = sys.modules[modname]
            for name in names:
                fn = getattr(module, name)
                self._patch_everywhere(fn, self.wrap(fn, name, layer))
        for modname, cls_name, meth, layer in WRAP_METHODS:
            cls = getattr(sys.modules[modname], cls_name)
            fn = getattr(cls, meth)
            self._patched.append((cls, meth, fn))
            setattr(cls, meth, self.wrap(fn, meth, layer))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path):
        keys = ("op", "name", "layer", "start_ns", "end_ns", "parent", "value")
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                doc = dict(zip(keys, span))
                doc["id"] = i
                fh.write(json.dumps(doc) + "\n")


def read(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def summarize(spans):
    """Per-layer metrics from spans whose ids are their list positions."""
    child = [0] * len(spans)
    for sp in spans:
        if sp["parent"] >= 0:
            child[sp["parent"]] += sp["end_ns"] - sp["start_ns"]
    self_ns = defaultdict(int)       # by layer and by span name
    total_ns = defaultdict(int)      # inclusive, outermost spans of a name
    calls = defaultdict(int)
    values = defaultdict(int)
    count_calls = points = 0
    for i, sp in enumerate(spans):
        dur = sp["end_ns"] - sp["start_ns"]
        own = dur - child[i]
        name = sp["name"]
        self_ns[sp["layer"]] += own
        self_ns[name] += own
        calls[name] += 1
        values[name] += sp["value"]
        parent = spans[sp["parent"]]["name"] if sp["parent"] >= 0 else None
        if parent != name:
            total_ns[name] += dur
        if name in COUNT_SPANS and parent not in COUNT_SPANS:
            count_calls += 1
            points += sp["value"]
    ns = 1e-9
    count_s = sum(self_ns[n] for n in COUNT_SPANS) * ns
    return {
        "zeta.count_s": count_s,
        "zeta.count_calls": count_calls,
        "zeta.points": points,
        "zeta.points_per_s": points / count_s if count_s else 0.0,
        "zeta.additivity_s": total_ns["zeta.powersum_additivity_check"] * ns,
        "zeta.lpoly_s": (total_ns["zeta.lpoly_from_counts"]
                         + total_ns["zeta.newton_polygon"]) * ns,
        "field.tables_s": self_ns["field.ensure_tables"] * ns,
        "field.tables_built": values["field.ensure_tables"],
        "field.fields_made": (calls["field.make_field"]
                              + calls["field.extend_and_embed"]),
        "field.self_s": self_ns["field"] * ns,
        "gf2x.self_s": self_ns["gf2x"] * ns,
        "gf2x.calls": sum(calls["gf2x." + n]
                          for n in WRAP["sscurves.gf2x"][1]),
        "linops.splitting_degree_s": self_ns["linops.splitting_degree"] * ns,
        "linops.lin_kernel_s": self_ns["linops.lin_kernel"] * ns,
        "quotient.decomposition_s": self_ns["quotient"] * ns,
        "quotient.pieces": values["quotient.decomposition"],
        "render.self_s": self_ns["render"] * ns,
        "render.coeff_calls": calls["render.coeff_text"],
        "builder.self_s": self_ns["builder"] * ns,
        "jsonio.self_s": self_ns["jsonio"] * ns,
        "jsonio.bytes_out": values["jsonio.dumps"],
        "classify.self_s": self_ns["classify"] * ns,
        "cli.self_s": self_ns["cli"] * ns,
    }
