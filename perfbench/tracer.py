"""Span tracing of `qch` from outside the package.

`install` wraps the public entry points of each `qch` module (the layers)
so every call records a span: name, start, end and parent span.  Spans are
kept in flat in-memory arrays and written out once, at the end of the run,
by `SpanLog.dump`.  Nothing under `src/qch` changes.

Work done in code that is not wrapped (F_p arithmetic, QScalar operators
other than construction, private helpers) counts in the self time of the
nearest wrapped caller.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# layer -> {class name or None for module functions: [attribute names]}
TARGETS = {
    "scalar": {
        "QScalar": ["__init__"],
        "PrimePoint": ["reduce"],
        None: ["sample_points"],
    },
    "domains": {
        "FpDomain": ["__init__"],
    },
    "tensor": {
        "TensorOperator": ["__matmul__", "__add__", "scale", "embed",
                           "partial_trace", "map_coefficients", "reduce_at",
                           "rank_in_domain"],
        None: ["invert_arity1", "invert_arity2", "solve_skew_inverse",
               "verify_skew_inverse", "rank_certificate", "exact_rank"],
    },
    "ncpoly": {
        "NCPoly": ["__mul__", "__add__", "map_coefficients", "reduce_at",
                   "graded_parts", "to_text"],
        "QMatrix": ["__matmul__", "__add__", "scale", "mul_poly_right",
                    "mul_poly_left", "map_entries"],
    },
    "linalg": {
        "Echelon": ["add_row", "reduce", "reduce_with_combo"],
        None: ["rank_of_rows", "invert_matrix"],
    },
    "ideal": {
        "QuadraticIdeal": ["__init__", "ruleset", "normal_order", "component",
                           "rank_of_degree", "at_point", "membership",
                           "membership_family", "membership_matrix"],
    },
    "qma": {
        "AlgebraContext": [
            "__init__", "lift", "m_matrix", "chain_product", "braid_image",
            "char_element", "p_elem", "antisymmetrizer", "wedge_power",
            "a_elem", "g", "two_contraction_residuals", "map_tensor",
            "apply_map", "pi_composed_tensor", "star_multiply", "star_power",
            "g_conjugators", "pi_star", "pi_star_power", "descendant_a",
            "boundary_a", "descendant_b", "epsilon_elements", "ch_identity",
            "parent_identity", "defining_relations", "recursion_residuals",
            "expansion_residual_a", "expansion_residual_b",
            "cutting_dependency", "at_point"],
    },
    "rmatrix": {
        "RMatrixContext": ["__init__", "at_point"],
        None: ["build_standard_sp", "flip_context", "check_ybe", "check_cubic",
               "check_bmw", "check_compatible", "compute_g_operator",
               "antisymmetrizer_tower", "symmetrizer_tower", "height_probe",
               "height"],
    },
    "sp4_relations": {
        None: ["all_relations", "permutation_relations",
               "invariance_conditions"],
    },
    "spectral": {
        None: ["pi_hom", "elementary", "sym_identities", "factor_check",
               "newton_check", "wronski_modified", "newton_closure",
               "parameterization_checks", "polynomiality_check"],
    },
    "classical": {
        "RationalMatrix": ["__matmul__", "__add__", "__sub__", "scale",
                           "transpose", "power", "det", "inverse"],
        None: ["char_coefficients", "classical_pi", "classical_parent_ch",
               "invariance_residuals", "sample_blocks", "check_samples"],
    },
    "cli": {
        None: ["main"],
    },
}

LAYERS = tuple(TARGETS)

# counters: metric -> span names whose calls it counts
CALL_COUNTERS = {
    "scalar.canon_calls": ("scalar.QScalar.__init__",),
    "scalar.reduce_calls": ("scalar.PrimePoint.reduce",),
    "domains.fp_domains": ("domains.FpDomain.__init__",),
    "tensor.matmul_calls": ("tensor.TensorOperator.__matmul__",),
    "ncpoly.mul_calls": ("ncpoly.NCPoly.__mul__",),
    "ideal.membership_calls": ("ideal.QuadraticIdeal.membership",),
    "ideal.at_point_calls": ("ideal.QuadraticIdeal.at_point",),
    "linalg.add_row_calls": ("linalg.Echelon.add_row",),
    "linalg.reduce_calls": ("linalg.Echelon.reduce",
                            "linalg.Echelon.reduce_with_combo"),
    "classical.matmul_calls": ("classical.RationalMatrix.__matmul__",),
    "classical.char_calls": ("classical.char_coefficients",),
}

# inclusive times: metric -> span name (outermost calls only)
INCLUSIVE_TIMES = {
    "ideal.normal_order_s": "ideal.QuadraticIdeal.normal_order",
    "ideal.component_s": "ideal.QuadraticIdeal.component",
    "rmatrix.height_s": "rmatrix.height",
    "spectral.factor_s": "spectral.factor_check",
    "spectral.newton_s": "spectral.newton_check",
    "spectral.wronski_s": "spectral.wronski_modified",
    "spectral.closure_s": "spectral.newton_closure",
    "spectral.param_s": "spectral.parameterization_checks",
}

# summed size of the operators TensorOperator.__matmul__ returns
NNZ_METRIC = "tensor.matmul_nnz_out"
NNZ_SPAN = "tensor.TensorOperator.__matmul__"


class SpanLog:
    """Spans of one workload run, in parallel arrays indexed by span id."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.nnz_out = 0

    def wrap(self, name, fn, on_result=None):
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents = self.name_ids, self.parents
        starts, ends, stack = self.starts, self.ends, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return functools.wraps(fn)(traced)

    def count_nnz(self, op):
        self.nnz_out += len(op.data)

    # -- analysis ------------------------------------------------------------
    def metrics(self):
        """Per-layer counters and times (self and selected inclusive)."""
        n = len(self.starts)
        starts, ends, parents = self.starts, self.ends, self.parents
        name_ids = self.name_ids
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        layer_of = [name.split(".", 1)[0] for name in self.names]
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = [0] * len(self.names)
        for i in range(n):
            nid = name_ids[i]
            calls[nid] += 1
            self_s[layer_of[nid]] += ends[i] - starts[i] - child[i]
        index = {name: nid for nid, name in enumerate(self.names)}
        out = {}
        for metric, names in CALL_COUNTERS.items():
            out[metric] = sum(calls[index[name]] for name in names)
        out[NNZ_METRIC] = self.nnz_out
        for metric, name in INCLUSIVE_TIMES.items():
            out[metric] = self._outermost_time(index[name])
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        out["trace.spans"] = n
        return out

    def _outermost_time(self, nid):
        """Total time of the calls to one span name not nested in another."""
        total = 0.0
        for i, got in enumerate(self.name_ids):
            if got != nid:
                continue
            p = self.parents[i]
            while p >= 0 and self.name_ids[p] != nid:
                p = self.parents[p]
            if p < 0:
                total += self.ends[i] - self.starts[i]
        return total

    def dump(self, path):
        """Write the spans: a JSON header line, then the raw arrays."""
        header = {"run_id": self.run_id, "names": self.names,
                  "count": len(self.starts), "arrays": [
                      ["name_id", "i"], ["parent", "i"], ["start", "d"],
                      ["end", "d"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def _patch_function(log, layer, name, modules):
    """Wrap a module function and rebind it wherever qch bound it by value."""
    orig = getattr(modules[layer], name)
    wrapped = log.wrap(f"{layer}.{name}", orig)
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapped)


def _patch_method(log, layer, cls, name):
    raw = cls.__dict__[name]
    span = f"{layer}.{cls.__name__}.{name}"
    if isinstance(raw, property):
        setattr(cls, name, property(log.wrap(span, raw.fget), raw.fset,
                                    raw.fdel, raw.__doc__))
    else:
        on_result = log.count_nnz if span == NNZ_SPAN else None
        setattr(cls, name, log.wrap(span, raw, on_result))


def install(run_id):
    """Wrap every target in the imported qch modules; returns the log."""
    modules = {layer: sys.modules[f"qch.{layer}"] for layer in LAYERS}
    log = SpanLog(run_id)
    for layer, targets in TARGETS.items():
        for owner, names in targets.items():
            for name in names:
                if owner is None:
                    _patch_function(log, layer, name, modules)
                else:
                    _patch_method(log, layer, getattr(modules[layer], owner),
                                  name)
    return log


PER_LAYER_METRICS = (
    tuple(CALL_COUNTERS) + (NNZ_METRIC,) + tuple(INCLUSIVE_TIMES)
    + tuple(f"{layer}.self_s" for layer in LAYERS) + ("trace.spans",))
