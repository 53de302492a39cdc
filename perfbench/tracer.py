"""Spans and counters around functorlab's public functions, patched from outside.

The tracer replaces each traced function by a wrapper, in every loaded
`functorlab.*` namespace that holds it (a `from .x import f` binds the
function early, so patching the defining module alone would miss callers),
and on the class for methods.  Nothing in `src/` changes.

Spans stay in memory as (name, layer, start_ns, end_ns, parent, op) and are
written out when the pass ends.  A layer is the module that defines the
function.  Functions too hot for a span get a call count only; their time
falls into the calling span's self time.
"""
from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    layer: str
    start: int
    end: int
    parent: int  # index of the enclosing span, -1 for an op's root span
    op: int


# Timed with a span: layer -> public functions and methods.
SPANNED = {
    "intlinalg": (
        "hermite_normal_form", "hnf_with_transform", "left_kernel", "kernel_lattice",
        "cokernel_invariants", "smith_normal_form", "lattice_intersection", "saturation",
        "lattice_index", "solve_int", "solve_rational", "rational_inverse",
        "hstack", "vstack", "block_diag",
        "Matrix.__matmul__", "Matrix.rank", "Matrix.det",
        "Lattice.from_rows", "Lattice.contains",
    ),
    "augmentation": (
        "AugAlgebra.class_of_deviation", "AugAlgebra.sum_mul", "AugAlgebra.product_mul",
        "pushforward",
    ),
    "divided_powers": (
        "GammaModule.product_of_elements", "gamma_of_hom", "schur_product",
        "tensor_embedding", "tensor_readoff",
    ),
    "gamma_section": (
        "gamma_matrix", "epsilon_matrix", "gamma_epsilon_pair", "verify_section",
        "apply_gamma", "apply_epsilon", "kernel_of_gamma", "truncation_matrix",
        "stacked_pi_gamma", "products_sublattice", "products_quotient_invariants",
        "cokernel_of_pi_gamma", "ring_hom_checks", "image_epsilon_decomposition",
        "quadratic_split", "quasi_homogeneity_test",
    ),
    "functors": (
        "arrow_map", "scaling_cross_check", "degree_certificate", "extract_morita_module",
        "reconstruct", "extract_gamma_structure", "restrict_scalars", "extend_scalars",
        "MoritaModule.__init__", "MoritaModule.check_multiplicativity",
        "GammaModuleStruct.__init__", "GammaModuleStruct.check_multiplicativity",
    ),
    "deviations": (
        "alternating_sum", "deviation", "multiset_deviation", "is_numerical_degree",
        "cross_check_conditions",
    ),
    "cli": (
        "main", "cmd_verify", "suite_deviations", "suite_aug_algebra",
        "suite_gamma_epsilon", "suite_schur", "suite_morita",
    ),
}

# Counted only: (layer, function) -> counter name.
COUNTED = {
    ("intlinalg", "Matrix.__init__"): "intlinalg.matrix_allocs",
    ("augmentation", "AugAlgebra.class_of"): "augmentation.class_of_calls",
    ("augmentation", "AugAlgebra.__init__"): "augmentation.algebras_built",
    ("combinatorics", "multiset_binomial"): "combinatorics.multiset_binomial_calls",
    ("divided_powers", "GammaModule.divided_power"): "divided_powers.divided_power_calls",
}

# (rank, degree)-keyed builds whose repeats a cache would save.
KEYED = {
    ("augmentation", "AugAlgebra.__init__"): "augmentation.algebras",
    ("gamma_section", "gamma_matrix"): "gamma_section.gamma_matrix",
}

# Normal forms whose returned matrices (U and V included) are scanned for
# the largest entry bit length.
ENTRY_BITS = {"hermite_normal_form", "hnf_with_transform", "smith_normal_form"}


def _rank_degree(name, args, kwargs):
    # AugAlgebra.__init__(self, rank, degree); gamma_matrix(rank, degree)
    args = args[1:] if name.endswith("__init__") else args
    return tuple(args) + tuple(kwargs[k] for k in ("rank", "degree") if k in kwargs)


def _matrices(result):
    if isinstance(result, tuple):
        return result
    if hasattr(result, "U"):  # SNFDecomposition
        return (result.U, result.S, result.V)
    return (result,)


def _max_bits(result) -> int:
    return max(
        (abs(v).bit_length() for m in _matrices(result) for row in m.rows for v in row),
        default=0,
    )


class Tracer:
    """Owns the patches, the spans and the counters of one traced pass."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.keys: dict = defaultdict(set)
        self.max_entry_bits = 0
        self.op = -1
        self._stack: list = []
        self._patches: list = []

    # -- patching -----------------------------------------------------------

    def install(self):
        mods = {name: m for name, m in sys.modules.items() if name.startswith("functorlab")}
        for layer, names in SPANNED.items():
            for qual in names:
                self._patch(mods, layer, qual, self._span_wrapper)
        for layer, qual in COUNTED:
            self._patch(mods, layer, qual, self._count_wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, mods, layer, qual, make):
        module = mods[f"functorlab.{layer}"]
        if "." in qual:
            cls_name, attr = qual.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            self._patches.append((cls, attr, raw))
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(make(raw.__func__, layer, qual)))
            else:
                setattr(cls, attr, make(raw, layer, qual))
            return
        fn = getattr(module, qual)
        wrapped = make(fn, layer, qual)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)

    def _span_wrapper(self, fn, layer, qual):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        key = KEYED.get((layer, qual))
        bits = qual in ENTRY_BITS

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(qual, layer, start, end, parent, self.op)
            if key:
                self.keys[key].add(_rank_degree(qual, args, kwargs))
            if bits:
                self.max_entry_bits = max(self.max_entry_bits, _max_bits(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, layer, qual):
        counts, counter = self.counts, COUNTED[(layer, qual)]
        key = KEYED.get((layer, qual))

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            if key:
                self.keys[key].add(_rank_degree(qual, args, kwargs))
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- ops --------------------------------------------------------------

    def run_op(self, index: int, name: str, run):
        """Run one op under a root span of layer "bench"."""
        self.op = index
        return self._span_wrapper(run, "bench", name)()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        spans = self.spans
        out = {f"{layer}.self_s": 0.0 for layer in list(SPANNED) + ["bench"]}
        for layer, ns in layer_self_ns(spans).items():
            out[f"{layer}.self_s"] = ns / 1e9
        calls = Counter(s.name for s in spans)
        busy = Counter()
        for s in spans:
            busy[s.name] += s.end - s.start
        hnf = ("hermite_normal_form", "hnf_with_transform")
        out["intlinalg.hnf_calls"] = sum(calls[n] for n in hnf)
        out["intlinalg.hnf_s"] = sum(busy[n] for n in hnf) / 1e9
        out["intlinalg.snf_calls"] = calls["smith_normal_form"]
        out["intlinalg.snf_s"] = busy["smith_normal_form"] / 1e9
        out["intlinalg.max_entry_bits"] = self.max_entry_bits
        for counter in COUNTED.values():
            out[counter] = self.counts[counter]
        out["augmentation.sum_mul_calls"] = calls["AugAlgebra.sum_mul"]
        out["augmentation.product_mul_calls"] = calls["AugAlgebra.product_mul"]
        out["divided_powers.product_of_elements_calls"] = calls["GammaModule.product_of_elements"]
        out["divided_powers.schur_product_calls"] = calls["schur_product"]
        out["gamma_section.gamma_matrix_calls"] = calls["gamma_matrix"]
        out["functors.arrow_map_calls"] = calls["arrow_map"]
        for prefix, builds in (
            ("augmentation.algebras", self.counts["augmentation.algebras_built"]),
            ("gamma_section.gamma_matrix", calls["gamma_matrix"]),
        ):
            out[f"{prefix}_distinct_ratio"] = len(self.keys[prefix]) / builds if builds else 1.0
        return out

    def write(self, path: str):
        """Write the spans as JSON lines: name, layer, start, end, parent, op."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(list(s)) + "\n")


def self_ns(spans) -> list:
    """Self time of each span: its duration minus the durations of its
    direct children.  Children of one span never overlap (one thread)."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def layer_self_ns(spans) -> dict:
    totals: dict = defaultdict(int)
    for s, own in zip(spans, self_ns(spans)):
        totals[s.layer] += own
    return dict(totals)
