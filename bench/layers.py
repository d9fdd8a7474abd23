"""Outside-in per-layer tracing of the ``repro`` stack.

:class:`Tracer` wraps public functions and methods of every layer the
workloads cross (kernels → ring → ckks → bootstrap, and perf → hardware
→ search → sweep) by replacing them *where their callers look them up*,
records one span per call in memory (name, start, end, parent span, op
id) plus a few work counts, and turns the spans into the per-layer
metrics of ``BENCHMARK.json``.  Nothing inside ``repro`` is changed and
``repro.obs`` is not used, so refactoring the program's own observability
cannot move these numbers.

Each operation is one root span named ``other``; a layer's self time is
its spans' durations minus the time their child spans cover, so the
named layers' self times plus ``other.self_s`` add up to the op's wall
time.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = "other"

#: One recorded span: (name, start, end, parent index, op id).
Span = Tuple[str, float, float, int, str]

#: Work counts a wrapper adds to the current op: (tracer, args, result).
Counter = Callable[["Tracer", tuple, Any], None]


def _ntt_work(tracer: "Tracer", args: tuple, result: Any) -> None:
    limbs, degree = result.shape
    tracer.add("kernels.ntt.limb_passes", limbs)
    # Bytes a limb pass computes on: read + write of N words per stage.
    passes_bytes = limbs * degree * 8 * 2 * (int(math.log2(degree)) + 1)
    tracer.add("kernels.ntt.bytes_computed", passes_bytes)


def _plan_lookup(tracer: "Tracer", args: tuple, result: Any) -> None:
    if result is not None:
        tracer.add("kernels.plan_cache.lookups", 1)


def _plan_built(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.add("kernels.plan_cache.builds", 1)


def _limb_ops(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.add("ring.pointwise.limb_ops", result.num_limbs * result.basis.degree)


def _sweep_work(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.add("sweep.points", len(result.values))
    tracer.add("sweep.memo.hits", result.memo_hits)
    tracer.add("sweep.memo.lookups", result.memo_hits + result.memo_misses)


def _targets() -> List[Tuple[str, str, str, Optional[Counter]]]:
    """``(module, attribute path, span name, counter)`` for every wrap.

    A function imported by name into another module is listed once per
    module that looks it up, so every call site is seen.
    """
    from repro.perf.primitives import PrimitiveCosts

    targets: List[Tuple[str, str, str, Optional[Counter]]] = [
        ("repro.kernels.ntt", "BatchNttKernel.forward", "kernels.ntt", _ntt_work),
        ("repro.kernels.ntt", "BatchNttKernel.inverse", "kernels.ntt", _ntt_work),
        ("repro.kernels.ntt", "BatchNttKernel.forward_rows", "kernels.marshal", None),
        ("repro.kernels.ntt", "BatchNttKernel.inverse_rows", "kernels.marshal", None),
        ("repro.kernels.ntt", "BatchNttKernel.__init__", "kernels.plan_cache", _plan_built),
        ("repro.kernels", "new_limbs_matrix", "kernels.basis_conv", None),
        ("repro.kernels", "sub_scale_mod", "kernels.sub_scale_mod", None),
        ("repro.ring.basis", "RnsBasis.fast_kernel", "kernels.plan_cache", _plan_lookup),
        ("repro.ring.basis", "RnsBasis.fast_kernel_for", "kernels.plan_cache", _plan_lookup),
    ]
    for op in ("__add__", "__sub__", "__neg__", "__mul__", "scalar_mul", "limb_scalar_mul"):
        targets.append(
            ("repro.ring.polynomial", f"RnsPolynomial.{op}", "ring.pointwise", _limb_ops)
        )
    targets += [
        ("repro.ring.polynomial", "RnsPolynomial.automorph", "ring.automorph", None),
        ("repro.ring.polynomial", "RnsPolynomial.__init__", "ring.construct", None),
        ("repro.ring.polynomial", "RnsPolynomial.from_int_coeffs", "ring.construct", None),
        ("repro.ring.polynomial", "RnsPolynomial.to_int_coeffs", "ring.crt", None),
        ("repro.ring", "mod_up", "ring.mod_up", None),
        ("repro.ring.conversion", "mod_up", "ring.mod_up", None),
        ("repro.ring", "p_mod_up", "ring.mod_up", None),
        ("repro.ring.conversion", "p_mod_up", "ring.mod_up", None),
        ("repro.ckks.evaluator", "p_mod_up", "ring.mod_up", None),
        ("repro.ring", "mod_down", "ring.mod_down", None),
        ("repro.ring.conversion", "mod_down", "ring.mod_down", None),
        ("repro.ckks.evaluator", "mod_down", "ring.mod_down", None),
        ("repro.ckks.linear", "mod_down", "ring.mod_down", None),
        ("repro.ckks.encoding", "Encoder.encode", "ckks.encode", None),
        ("repro.ckks.encoding", "Encoder.decode", "ckks.decode", None),
        ("repro.ckks.encrypt", "Encryptor.encrypt", "ckks.encrypt", None),
        ("repro.ckks.encrypt", "Decryptor.decrypt", "ckks.decrypt", None),
        ("repro.ckks.context", "CkksContext.sample_ternary_coeffs", "ckks.sample", None),
        ("repro.ckks.context", "CkksContext.sample_error_coeffs", "ckks.sample", None),
        ("repro.ckks.context", "CkksContext.sample_uniform_rows", "ckks.sample", None),
        ("repro.ckks.keys", "KeyGenerator.switching_key", "ckks.keygen", None),
        ("repro.ckks.evaluator", "Evaluator.raise_digits", "ckks.keyswitch.modup", None),
        ("repro.ckks.evaluator", "Evaluator.ksk_inner_product", "ckks.keyswitch.inner_product", None),
        ("repro.ckks.evaluator", "Evaluator.mod_down_pair", "ckks.keyswitch.moddown", None),
        ("repro.ckks.evaluator", "Evaluator.mult", "ckks.mult", None),
        ("repro.ckks.evaluator", "Evaluator.rotate", "ckks.rotations", None),
        ("repro.ckks.evaluator", "Evaluator.rotations_hoisted", "ckks.rotations", None),
        ("repro.ckks.linear", "LinearTransform.apply", "ckks.linear.apply", None),
        ("repro.ckks.polyeval", "ChebyshevEvaluator.evaluate", "ckks.polyeval.evaluate", None),
        ("repro.ckks.bootstrap", "Bootstrapper.mod_raise", "boot.mod_raise", None),
        ("repro.ckks.bootstrap", "Bootstrapper.coeff_to_slot", "boot.coeff_to_slot", None),
        ("repro.ckks.bootstrap", "Bootstrapper.eval_mod", "boot.eval_mod", None),
        ("repro.ckks.bootstrap", "Bootstrapper.slot_to_coeff", "boot.slot_to_coeff", None),
        ("repro.perf.bootstrap", "BootstrapModel.total_cost", "perf.bootstrap_model", None),
        ("repro.perf.bootstrap", "pt_mat_vec_mult_cost", "perf.matvec", None),
        ("repro.perf", "pt_mat_vec_mult_cost", "perf.matvec", None),
        ("repro.hardware.runtime", "estimate_runtime", "hardware.runtime", None),
        ("repro.hardware", "estimate_runtime", "hardware.runtime", None),
        ("repro.search.throughput", "bootstrap_throughput", "search.throughput", None),
        ("repro.search", "bootstrap_throughput", "search.throughput", None),
        ("repro.sweep", "run_sweep", "sweep.engine", _sweep_work),
        ("repro.sweep.engine", "run_sweep", "sweep.engine", _sweep_work),
        ("repro.sweep.memo", "Memo.get_or_compute", "sweep.memo", None),
    ]
    for attr, value in vars(PrimitiveCosts).items():
        if not attr.startswith("_") and callable(value):
            targets.append(
                ("repro.perf.primitives", f"PrimitiveCosts.{attr}", "perf.primitives", None)
            )
    return targets


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """In-memory span recorder plus the patches that feed it.

    Spans are kept in parallel flat columns -- name, start, end, parent
    index (-1 for an op root) and op id -- in start order.  Flat arrays
    add no garbage-collected containers per span, so recording does not
    make the collector rescan the workloads' large limb lists.
    ``counts[op][key]`` holds the work counts.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops: List[str] = []
        self.counts: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: List[int] = []
        self._op: Optional[str] = None
        self._saved: List[Tuple[Any, str, Any]] = []

    @property
    def spans(self) -> List[Span]:
        return list(zip(self.names, self.starts, self.ends, self.parents, self.ops))

    # -- recording -------------------------------------------------------
    def add(self, key: str, amount: float) -> None:
        """Add ``amount`` to work count ``key`` of the current op."""
        self.counts[self._op][key] += amount

    def _open(self, name: str, parent: int, op: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(parent)
        self.ops.append(op)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())
        return index

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             counter: Optional[Counter]) -> Any:
        if self._op is None:
            return fn(*args, **kwargs)
        index = self._open(name, self._stack[-1], self._op)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.ends[index] = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            counter(self, args, result)
        return result

    @contextmanager
    def op(self, op_id: str) -> Iterator[None]:
        """Record everything inside as the spans of operation ``op_id``."""
        self._op = op_id
        index = self._open(ROOT, -1, op_id)
        self._stack = [index]
        try:
            yield
        finally:
            self.ends[index] = time.perf_counter()
            self._op = None
            self._stack = []

    # -- patching --------------------------------------------------------
    def _wrap(self, name: str, fn: Callable, counter: Optional[Counter]) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, args, kwargs, counter)

        return traced

    def install(self) -> None:
        """Patch every target; :meth:`uninstall` restores the originals."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, path, name, counter in _targets():
            owner, attr = _resolve(module, path)
            original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(original, classmethod):
                patched: Any = classmethod(self._wrap(name, original.__func__, counter))
            else:
                patched = self._wrap(name, original, counter)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    @contextmanager
    def tracing(self, op_id: str) -> Iterator[None]:
        """Patch, record the block as operation ``op_id``, restore."""
        self.install()
        try:
            with self.op(op_id):
                yield
        finally:
            self.uninstall()

    # -- analysis --------------------------------------------------------
    def per_op(self) -> Dict[str, Dict[str, float]]:
        """Per op: wall time, ``<name>.self_s``, ``.incl_s``, ``.calls``,
        and the work counts."""
        return per_op_totals(self.spans, self.counts)

    def dump(self, path: str, meta: Dict[str, Any]) -> None:
        """Write each op's call tree and work counts as JSON.

        Raw spans run to millions on the search workload, so the file
        holds them folded by call path (``other;ckks.encrypt;...``) with
        calls, inclusive and self seconds -- flame-graph input.
        """
        payload = {
            "meta": meta,
            "tree_fields": ["calls", "incl_s", "self_s"],
            "trees": call_trees(self.spans),
            "counts": {op: dict(c) for op, c in self.counts.items()},
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)


def _child_time(spans: Sequence[Span]) -> List[float]:
    """Per span, the summed duration of its direct children."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    return child_time


def call_trees(spans: Sequence[Span]) -> Dict[str, Dict[str, List[float]]]:
    """Per op, ``{call path: [calls, incl_s, self_s]}``."""
    child_time = _child_time(spans)
    paths: List[str] = []
    trees: Dict[str, Dict[str, List[float]]] = defaultdict(dict)
    for i, (name, start, end, parent, op) in enumerate(spans):
        path = name if parent < 0 else f"{paths[parent]};{name}"
        paths.append(path)
        node = trees[op].setdefault(path, [0, 0.0, 0.0])
        node[0] += 1
        node[1] += end - start
        node[2] += end - start - child_time[i]
    return dict(trees)


def per_op_totals(
    spans: Sequence[Span], counts: Optional[Dict[str, Dict[str, float]]] = None
) -> Dict[str, Dict[str, float]]:
    """Fold spans into per-op totals.

    ``self_s`` is each span's duration minus its children's durations;
    ``incl_s`` sums only the outermost span of a name, so recursion is
    not double counted; ``wall_s`` is the op root's duration.
    """
    child_time = _child_time(spans)
    totals: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, op) in enumerate(spans):
        row = totals[op]
        duration = end - start
        row[f"{name}.self_s"] += duration - child_time[i]
        row[f"{name}.calls"] += 1
        if parent < 0:
            row["wall_s"] += duration
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row[f"{name}.incl_s"] += duration
    for op, extra in (counts or {}).items():
        for key, value in extra.items():
            totals[op][key] += value
    return totals


def layer_metrics(
    ops: List[Dict[str, float]], setup: Dict[str, float], names: List[str]
) -> Dict[str, float]:
    """Per-op medians of every named metric.

    ``ckks.keygen.*`` runs only while setting up, so it is read from the
    traced set-up instead.  Ratios come from the op-summed counts.
    """
    def median_of(key: str, rows: List[Dict[str, float]]) -> float:
        return statistics.median(row.get(key, 0.0) for row in rows) if rows else 0.0

    out: Dict[str, float] = {}
    for name in names:
        rows = [setup] if name.startswith("ckks.keygen.") else ops
        if name == "kernels.plan_cache.hit_ratio":
            lookups = sum(r.get("kernels.plan_cache.lookups", 0.0) for r in rows)
            builds = sum(r.get("kernels.plan_cache.builds", 0.0) for r in rows)
            out[name] = (lookups - builds) / lookups if lookups else 0.0
        elif name == "sweep.memo.hit_ratio":
            lookups = sum(r.get("sweep.memo.lookups", 0.0) for r in rows)
            hits = sum(r.get("sweep.memo.hits", 0.0) for r in rows)
            out[name] = hits / lookups if lookups else 0.0
        elif name in ("trace.coverage_frac", "trace.overhead_frac", "output.precision_bits"):
            continue  # filled in by the runner
        else:
            out[name] = median_of(name, rows)
    return out


def coverage(row: Dict[str, float]) -> float:
    """Share of an op's wall time spent in named layers (not ``other``)."""
    wall = row.get("wall_s", 0.0)
    return 1.0 - row.get(f"{ROOT}.self_s", 0.0) / wall if wall else 0.0


def self_time_residual(row: Dict[str, float]) -> float:
    """``|sum of self times - wall| / wall`` for one op (should be ~0)."""
    wall = row.get("wall_s", 0.0)
    total = sum(v for k, v in row.items() if k.endswith(".self_s"))
    return abs(total - wall) / wall if wall else 0.0
