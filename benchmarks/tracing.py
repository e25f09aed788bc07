"""Per-layer tracing of one sample, applied from outside the package.

``Tracer.installed()`` wraps the layer entry points of ``boundarylab``
with span recorders, puts counters on the constructors and arithmetic
that run hundreds of thousands of times, and rebinds every name that a
package module imported from another (``from .words import multiply``
copies the function into the importer).  Leaving the context restores
every original binding; the package source is never touched.

A span is recorded where a call crosses into another layer.  Calls that
stay inside the caller's layer (``translate`` inside ``translate_legs``)
are counted but not recorded, so a layer's self time -- its spans'
time minus the time of the spans they directly contain -- counts
same-layer recursion once.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import statistics
import time
from collections import Counter
from types import ModuleType

LAYERS = ("words", "scalars", "cylinders", "crossed", "operators", "jv", "modules", "cli")

# Layer entry points that get a span.  "Class.method" names a method.
# Constructors of small values (chi, CylinderFunction.constant) are left
# out: they run tens of thousands of times per sample and their cost is
# counted by cylinders.functions_built.
SPANNED = {
    "words": ("ball", "sphere", "generators", "act", "meet", "bigeodesic"),
    "scalars": (),
    "cylinders": (
        "translate", "_translate_indicator", "translate_legs",
        "translate_diag", "tensor", "f_prime_value", "extend_second",
        "parse_cylinder",
        "CylinderFunction.__add__", "CylinderFunction.__sub__",
        "CylinderFunction.__mul__", "CylinderFunction.__neg__",
        "CylinderFunction.scale", "CylinderFunction.star",
        "CylinderFunction.refine",
        "BiCylinderFunction.__add__", "BiCylinderFunction.__sub__",
        "BiCylinderFunction.__mul__", "BiCylinderFunction.__neg__",
        "BiCylinderFunction.scale", "BiCylinderFunction.star",
        "BiCylinderFunction.flip", "BiCylinderFunction.second_slice",
        "BiCylinderFunction.vanishes_on_diagonal",
    ),
    "crossed": (
        "verify_v_identities", "verify_conjugate_flip", "geodesic_v_check",
        "element_v", "element_chi", "element_w", "dual_coefficient",
        "include_i", "flip_sigma", "bar_sigma", "adjoin_unit",
        "CrossedElement.__add__", "CrossedElement.__sub__",
        "CrossedElement.__mul__", "CrossedElement.__neg__",
        "CrossedElement.star", "CrossedElement.scale",
        "CrossedElement.left_mul_function", "CrossedElement.left_mul_unitary",
        "PairElement.__add__", "PairElement.__sub__", "PairElement.__mul__",
        "PairElement.__neg__", "PairElement.star",
        "TensorElement.__add__", "TensorElement.__sub__",
        "TensorElement.__mul__", "TensorElement.star",
    ),
    "operators": (
        "op_mult", "op_mult_inverted", "op_left", "op_right", "op_inversion",
        "commutator", "exact_rank", "operator_rank", "kernel_dimension",
        "exact_index", "support_certificate", "lambda_monomial",
        "rho_monomial", "lambda_rho_commute_check",
        "conjugation_symmetry_check",
        "TruncatedOperator.__add__", "TruncatedOperator.__sub__",
        "TruncatedOperator.__matmul__", "TruncatedOperator.adjoint",
        "TruncatedOperator.scale", "TruncatedOperator.identity",
    ),
    "jv": (
        "edge_basis", "op_b", "op_left_vertices", "op_left_edges",
        "equivariance_defect", "op_U", "op_W_closed_form", "op_W",
        "w_local_constancy", "wbar_apply", "index_b", "index_W",
    ),
    "modules": (
        "inner_product", "op_phi_function", "op_phi_unitary", "op_phi",
        "op_tau_gamma", "op_tau_F", "op_tau_monomial", "op_mult_label",
        "untwist_U", "untwist_U_star", "conjugate_by_U",
        "spanning_indicators", "maps_agree", "decay_check", "iota_check",
        "build_Vbar", "build_Vbar_closed_form", "build_Pbar", "build_Fbar",
        "build_Wbar", "final_identity_check",
        "ModuleMap.__call__", "ModuleVector.__add__", "ModuleVector.__sub__",
        "ModuleVector.__eq__",
    ),
    "cli": ("main", "run_suite", "_emit"),
}

# Named timings: time inside any of the functions, outermost call only.
FAMILIES = {
    "words.ball_s": ("words.ball", "words.sphere"),
    "cylinders.translate_s": (
        "cylinders.translate", "cylinders._translate_indicator",
        "cylinders.translate_legs", "cylinders.translate_diag",
    ),
    "crossed.identities_s": (
        "crossed.verify_v_identities", "crossed.verify_conjugate_flip",
        "crossed.geodesic_v_check",
    ),
    "operators.matmul_s": ("operators.TruncatedOperator.__matmul__",),
    "operators.rank_s": ("operators.exact_rank",),
    "jv.defect_s": ("jv.equivariance_defect",),
    "jv.shift_s": ("jv.op_W", "jv.op_U", "jv.op_W_closed_form", "jv.wbar_apply"),
    "jv.index_s": ("jv.index_b", "jv.index_W"),
    "modules.check_s": ("modules.maps_agree",),  # for modules.s_per_vector
    "cli.emit_s": ("cli._emit",),
}

SCALAR_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "conj")

# Memo tables read through cache_info(), by "module.function".
TRANSLATE_TABLES = ("cylinders.translate", "cylinders._translate_indicator", "cylinders.translate_legs")
FUNCTION_TABLES = TRANSLATE_TABLES + ("cylinders._cached_product", "cylinders._cached_sum")

# Per-layer metrics in report order.
PER_LAYER = (
    "words.ball_s", "words.multiply_calls", "words.multiply_hit_ratio",
    "words.multiply_cached", "words.reduced_words_built",
    "scalars.ops", "scalars.divisions",
    "cylinders.self_s", "cylinders.translate_s", "cylinders.functions_built",
    "cylinders.table_entries_built", "cylinders.translate_hit_ratio",
    "cylinders.product_hit_ratio", "cylinders.cached_functions",
    "crossed.self_s", "crossed.pair_products", "crossed.identities_s",
    "operators.self_s", "operators.matmul_s", "operators.matmul_calls",
    "operators.entries_built", "operators.basis_labels_built",
    "operators.rank_s", "operators.rank_rows",
    "jv.self_s", "jv.defect_s", "jv.defect_useful_ratio", "jv.shift_s", "jv.index_s",
    "modules.self_s", "modules.vectors_checked", "modules.s_per_vector",
    "modules.weight_hit_ratio",
    "cli.self_s", "cli.emit_s",
    "gc.pause_s", "gc.collections",
    "trace.spans",
)


def clock() -> float:
    """Seconds on the system-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def memo_tables(modules: dict[str, ModuleType]) -> dict[str, object]:
    """Every module-level lru_cache of the package, once each, by defining name."""
    found = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__:
                found[f"{layer}.{name}"] = obj
    return dict(sorted(found.items()))


def table_sizes(tables: dict[str, object]) -> dict[str, int]:
    return {name: t.cache_info().currsize for name, t in tables.items()}


def self_times(spans) -> dict[str, float]:
    """Self time per layer from (id, name, layer, start, end, parent) spans.

    A span's self time is its duration minus the durations of the spans
    whose parent it is.  Spans are recorded only at layer crossings, so
    the direct children of a span always belong to other layers.
    """
    inner: Counter = Counter()
    for _, _, _, start, end, parent in spans:
        if parent is not None:
            inner[parent] += end - start
    out = {layer: 0.0 for layer in LAYERS}
    for sid, _, layer, start, end, _ in spans:
        out[layer] += end - start - inner[sid]
    return out


def _ratio(hits: int, calls: int) -> float:
    return hits / calls if calls else 0.0


class Tracer:
    """Spans and counters for one traced sample."""

    def __init__(self, modules: dict[str, ModuleType], sample_id: str):
        self.modules = modules
        self.sample_id = sample_id
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.family_s: Counter = Counter()
        self.defect_calls: list[float] = []
        self._stack: list[tuple[str, int]] = []  # (layer, id of the enclosing span)
        self._ids = itertools.count()
        self._depth: Counter = Counter()
        self._family_start: dict[str, float] = {}
        self._families_of: dict[str, tuple[str, ...]] = {}
        for fam, names in FAMILIES.items():
            for name in names:
                self._families_of[name] = self._families_of.get(name, ()) + (fam,)
        self._restore: list[tuple[object, str, object]] = []
        self._gc_start = 0.0
        self.tables = memo_tables(modules)
        self._tables_before: dict[str, tuple[int, int]] = {}
        self._hooks = self._argument_hooks()

    # -- wrappers ----------------------------------------------------

    def _spanned(self, f, name: str, layer: str):
        stack, spans, calls, depth = self._stack, self.spans, self.calls, self._depth
        families = self._families_of.get(name, ())
        hook = self._hooks.get(name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            parent = stack[-1] if stack else None
            entry = parent is None or parent[0] != layer
            sid = next(self._ids) if entry else parent[1]
            start = clock()
            for fam in families:
                if not depth[fam]:
                    self._family_start[fam] = start
                depth[fam] += 1
            stack.append((layer, sid))
            try:
                if hook is not None:
                    args = hook(args)
                return f(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if entry:
                    spans.append((sid, name, layer, start, end, parent[1] if parent else None))
                for fam in families:
                    depth[fam] -= 1
                    if not depth[fam]:
                        self._family_end(fam, end)

        return wrapper

    def _family_end(self, fam: str, end: float) -> None:
        elapsed = end - self._family_start.pop(fam)
        self.family_s[fam] += elapsed
        if fam == "jv.defect_s":
            self.defect_calls.append(elapsed)

    def _argument_hooks(self):
        """Argument rewriters run before the spanned call, by qualified name."""
        counts, depth = self.counts, self._depth
        label_norm = self.modules["operators"].label_norm

        def rank_rows(args):
            rows = list(args[0])
            counts["operators.rank_rows"] += len(rows)
            return (rows,) + args[1:]

        def defect_operator(args):
            if depth["jv.defect_s"]:
                T, interior = args[0], args[1]
                counts["jv.defect_entries"] += sum(
                    1 for row, col in T.entries
                    if label_norm(row) <= interior and label_norm(col) <= interior
                )
            return args

        return {
            "operators.exact_rank": rank_rows,
            "operators.support_certificate": defect_operator,
        }

    def _counted(self, f, bump):
        def wrapper(*args, **kwargs):
            result = f(*args, **kwargs)
            bump(args, result)
            return result

        return wrapper

    def _counters(self):
        """(module, "Class.method", bump) for the hot paths that get counts only."""
        c, depth = self.counts, self._depth

        def count(*names):
            def bump(args, result):
                for n in names:
                    c[n] += 1
            return bump

        def cylinder_built(args, result):
            c["cylinders.functions_built"] += 1
            c["cylinders.table_entries_built"] += len(args[0].table)

        def operator_built(args, result):
            op = args[0]
            c["operators.entries_built"] += len(op.entries)
            c["operators.basis_labels_built"] += len(op.domain) + len(op.codomain)
            if depth["jv.defect_s"]:
                c["jv.defect_entries_built"] += len(op.entries)

        def vectors(args, result):
            c["modules.vectors_checked"] += result.checked

        out = [("words", "ReducedWord.__init__", count("words.reduced_words_built"))]
        for op in SCALAR_OPS:
            names = ("scalars.ops", "scalars.divisions") if op == "__truediv__" else ("scalars.ops",)
            out.append(("scalars", f"Scalar.{op}", count(*names)))
        out += [
            ("cylinders", "CylinderFunction.__init__", cylinder_built),
            ("cylinders", "BiCylinderFunction.__init__", cylinder_built),
            ("operators", "TruncatedOperator.__init__", operator_built),
            ("modules", "maps_agree", vectors),
        ]
        return out

    # -- install / restore -------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, layer: str, dotted: str, make) -> None:
        mod = self.modules[layer]
        if "." in dotted:
            cls_name, attr = dotted.split(".")
            cls = getattr(mod, cls_name)
            raw = vars(cls)[attr]
            if isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(make(raw.__func__)))
            else:
                self._set(cls, attr, make(raw))
            return
        original = getattr(mod, dotted)
        wrapped = make(original)
        for other in self.modules.values():
            for name, value in list(vars(other).items()):
                if value is original:
                    self._set(other, name, wrapped)

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = clock()
        else:
            self.counts["gc.pause_s"] += clock() - self._gc_start
            self.counts["gc.collections"] += 1

    @contextlib.contextmanager
    def installed(self):
        """Wrap the package for the duration of the block, then restore it."""
        self._tables_before = {
            n: (t.cache_info().hits, t.cache_info().misses) for n, t in self.tables.items()
        }
        try:
            for layer, names in SPANNED.items():
                for dotted in names:
                    qual = f"{layer}.{dotted}"
                    self._wrap(layer, dotted, lambda f, q=qual, l=layer: self._spanned(f, q, l))
            for layer, dotted, bump in self._counters():
                self._wrap(layer, dotted, lambda f, b=bump: self._counted(f, b))
            gc.callbacks.append(self._gc_callback)
            yield self
        finally:
            if self._gc_callback in gc.callbacks:
                gc.callbacks.remove(self._gc_callback)
            for owner, attr, value in reversed(self._restore):
                setattr(owner, attr, value)
            self._restore.clear()

    # -- results -----------------------------------------------------

    def _table_delta(self, names) -> tuple[int, int]:
        hits = calls = 0
        for n in names:
            info = self.tables[n].cache_info()
            h0, m0 = self._tables_before[n]
            hits += info.hits - h0
            calls += info.hits - h0 + info.misses - m0
        return hits, calls

    def metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric; layers the sample never entered read 0."""
        c, fam = self.counts, self.family_s
        selfs = self_times(self.spans)
        m_hits, m_calls = self._table_delta(["words.multiply"])
        out = {
            "words.ball_s": fam["words.ball_s"],
            "words.multiply_calls": m_calls,
            "words.multiply_hit_ratio": _ratio(m_hits, m_calls),
            "words.multiply_cached": self.tables["words.multiply"].cache_info().currsize,
            "words.reduced_words_built": c["words.reduced_words_built"],
            "scalars.ops": c["scalars.ops"],
            "scalars.divisions": c["scalars.divisions"],
            "cylinders.translate_s": fam["cylinders.translate_s"],
            "cylinders.functions_built": c["cylinders.functions_built"],
            "cylinders.table_entries_built": c["cylinders.table_entries_built"],
            "cylinders.translate_hit_ratio": _ratio(*self._table_delta(TRANSLATE_TABLES)),
            "cylinders.product_hit_ratio": _ratio(*self._table_delta(["cylinders._cached_product"])),
            "cylinders.cached_functions": sum(
                self.tables[n].cache_info().currsize for n in FUNCTION_TABLES
            ),
            "crossed.pair_products": self.calls["crossed.PairElement.__mul__"],
            "crossed.identities_s": fam["crossed.identities_s"],
            "operators.matmul_s": fam["operators.matmul_s"],
            "operators.matmul_calls": self.calls["operators.TruncatedOperator.__matmul__"],
            "operators.entries_built": c["operators.entries_built"],
            "operators.basis_labels_built": c["operators.basis_labels_built"],
            "operators.rank_s": fam["operators.rank_s"],
            "operators.rank_rows": c["operators.rank_rows"],
            "jv.defect_s": statistics.median(self.defect_calls) if self.defect_calls else 0.0,
            "jv.defect_useful_ratio": _ratio(c["jv.defect_entries"], c["jv.defect_entries_built"]),
            "jv.shift_s": fam["jv.shift_s"],
            "jv.index_s": fam["jv.index_s"],
            "modules.vectors_checked": c["modules.vectors_checked"],
            "modules.s_per_vector": _ratio(fam["modules.check_s"], c["modules.vectors_checked"]),
            "modules.weight_hit_ratio": _ratio(*self._table_delta(["modules._weight"])),
            "cli.emit_s": fam["cli.emit_s"],
            "gc.pause_s": c["gc.pause_s"],
            "gc.collections": c["gc.collections"],
            "trace.spans": len(self.spans),
        }
        for layer in ("cylinders", "crossed", "operators", "jv", "modules", "cli"):
            out[f"{layer}.self_s"] = selfs[layer]
        return {name: out[name] for name in PER_LAYER}
