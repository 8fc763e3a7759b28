"""Span tracing from outside the library, and the per-layer metrics.

`install` wraps every public function of the layer modules of `softmatch`
in every module namespace where it can be looked up (for example
`softmatch.probes.w1` as well as `softmatch.transport.w1`), plus a few
methods: `EmpiricalMeasure.__init__`, each potential's `similarity_matrix`,
and `TransportPlan.dual_potentials` and `certificate`. Nothing inside
`softmatch` changes; `uninstall` puts the originals back.

A span records its name, start, end, parent and the id of its top-level
call (the index of that call's root span). Spans stay in memory in flat
arrays and are written out once, at the end of the run.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("measures", "potentials", "kernels", "transport", "bounds", "probes", "dynamics", "equiv")
SIZE_BUCKETS = (16, 64, 128, 256)
# the flow path runs up to max(N, M) = 128 in the workloads; the assignment
# path up to N = 256
FLOW_BUCKETS = SIZE_BUCKETS[:3]
W1_NAMES = ("transport.w1", "transport.w1_equal_size_assignment")


class Tracer:
    """Spans in flat arrays; one single-threaded caller."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.root = array("i")
        self.sizes: dict[int, tuple] = {}  # span index -> (n, m, d) of a W1 solve
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.root.append(self.root[stack[0]] if stack else idx)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.name)

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            root=np.frombuffer(self.root, dtype=np.int32),
        )


def _w1_size(name: str, args) -> tuple:
    a, b = args[0], args[1]
    if name == "transport.w1":
        return (a.n, b.n, a.dim)
    pa = getattr(a, "points", a)
    pb = getattr(b, "points", b)
    return (len(pa), len(pb), np.shape(pa)[1])


def _wrap(tracer: Tracer, name: str, fn):
    if name in W1_NAMES:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.finish(idx)
                tracer.sizes[idx] = _w1_size(name, args)
    else:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.finish(idx)
    return traced


def _targets():
    """(span name, function) for every public function of the layers, and
    (span name, class, attribute) for the traced methods."""
    functions = []
    for layer in LAYERS:
        mod = importlib.import_module(f"softmatch.{layer}")
        for attr, obj in vars(mod).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                functions.append((f"{layer}.{attr}", obj))
    measures = sys.modules["softmatch.measures"]
    potentials = sys.modules["softmatch.potentials"]
    transport = sys.modules["softmatch.transport"]
    methods = [
        ("measures.EmpiricalMeasure.__init__", measures.EmpiricalMeasure, "__init__"),
        ("transport.dual_potentials", transport.TransportPlan, "dual_potentials"),
        ("transport.certificate", transport.TransportPlan, "certificate"),
    ]
    for cls in vars(potentials).values():
        if inspect.isclass(cls) and issubclass(cls, potentials.Potential) and "similarity_matrix" in vars(cls):
            methods.append(("potentials.similarity_matrix", cls, "similarity_matrix"))
    return functions, methods


def install(tracer: Tracer) -> list:
    """Wrap the layer functions wherever they are looked up; returns the
    undo list for `uninstall`."""
    functions, methods = _targets()
    wrapped = {id(fn): (fn, _wrap(tracer, name, fn)) for name, fn in functions}
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "softmatch" or mod_name.startswith("softmatch.")):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                undo.append((mod, attr, obj))
                setattr(mod, attr, hit[1])
    for name, cls, attr in methods:
        orig = vars(cls)[attr]
        undo.append((cls, attr, orig))
        setattr(cls, attr, _wrap(tracer, name, orig))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _bucket(n: int) -> str:
    """The smallest size bucket holding n (the library caps supports at 512)."""
    return f"n{next((b for b in SIZE_BUCKETS if n <= b), SIZE_BUCKETS[-1])}"


def analyse(tracer: Tracer) -> dict:
    """Self times, counts and W1 path statistics from the recorded spans.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    """
    names = tracer.names
    nid = np.frombuffer(tracer.name, dtype=np.int32)
    start = np.frombuffer(tracer.start, dtype=np.float64)
    end = np.frombuffer(tracer.end, dtype=np.float64)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_t = dur - child

    by_name = {}
    calls = np.bincount(nid, minlength=len(names))
    selfs = np.bincount(nid, weights=self_t, minlength=len(names))
    for i, name in enumerate(names):
        by_name[name] = {"calls": int(calls[i]), "self_s": float(selfs[i])}

    def total(prefix: str, key: str):
        return sum((v[key] for k, v in by_name.items() if k.startswith(prefix)), 0)

    # the benchmark's own root spans count as the layer "bench"
    layer_self = {layer: float(total(layer + ".", "self_s")) for layer in LAYERS + ("bench",)}
    layer_calls = {layer: total(layer + ".", "calls") for layer in LAYERS + ("bench",)}

    # W1 solves: a `w1` span is on the assignment path when it has an
    # assignment child; direct assignment calls (run_particles) count too.
    ids = {name: i for i, name in enumerate(names)}
    w1_id = ids.get("transport.w1", -2)
    asg_id = ids.get("transport.w1_equal_size_assignment", -2)
    asg_parents = parent[(nid == asg_id) & has_parent]
    via_w1 = set(asg_parents[nid[asg_parents] == w1_id].tolist())
    flow_lat = {f"n{b}": [] for b in SIZE_BUCKETS}
    asg_lat = {f"n{b}": [] for b in SIZE_BUCKETS}
    arcs = 0
    flow_calls = asg_calls = 0
    solve_dim = {}  # span index -> d, for the outermost span of each solve
    for idx, (n, m, d) in tracer.sizes.items():
        is_w1 = nid[idx] == w1_id
        if is_w1 and idx in via_w1:
            continue  # counted once, as its assignment child
        outer = int(parent[idx]) if (not is_w1 and parent[idx] in via_w1) else idx
        lat = flow_lat if is_w1 else asg_lat
        lat[_bucket(max(n, m))].append(dur[outer])
        flow_calls += int(is_w1)
        asg_calls += int(not is_w1)
        arcs += n * m
        solve_dim[outer] = d

    # self time of transport spans inside d = 1 solves; spans are stored
    # in begin order, so a parent always precedes its children
    d1 = np.zeros(len(dur), dtype=bool)
    for idx, d in solve_dim.items():
        d1[idx] = d == 1
    for i in range(min(solve_dim, default=len(dur)), len(dur)):
        if parent[i] >= 0 and d1[parent[i]]:
            d1[i] = True
    is_transport = np.isin(nid, [i for i, name in enumerate(names) if name.startswith("transport.")])
    d1_self = float(self_t[d1 & is_transport].sum())

    return {
        "spans": len(dur),
        "by_name": by_name,
        "layer_self": layer_self,
        "layer_calls": layer_calls,
        # the matrix-form oracles, kept apart from the kernel pipeline
        "kernels_reference_self": float(total("kernels.reference_", "self_s")),
        "flow_calls": flow_calls,
        "assignment_calls": asg_calls,
        "flow_p50": {b: float(np.median(v)) if v else 0.0 for b, v in flow_lat.items()},
        "assignment_p50": {b: float(np.median(v)) if v else 0.0 for b, v in asg_lat.items()},
        "arcs": arcs,
        "d1_self": d1_self,
    }
