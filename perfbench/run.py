#!/usr/bin/env python3
"""softmatch benchmark.

    python3 perfbench/run.py --workload {probe,transport,dynamics,lemmas}
                             --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --self-test

Run from the repository root. The library is imported from ./src and
nowhere else; without it the run fails with exit code 2.

A run does a fixed amount of work sized from --seconds: round(S / round_s)
rounds of the workload, where round_s is the nominal wall time of the timed
calls of one round (the checks come on top) on the machine the benchmark
was written on (2 cores, Python 3.11, numpy 2.4, scipy 1.17). Every round has the same sizes, so two runs with the same
seed do identical work and two commits are compared on identical work.

--trace 0 times every call untraced, in wall seconds and in reference
seconds scaled by the host speed measured meanwhile (see hostspeed.py),
then checks every output, and prints the end-to-end metrics. --trace 1
runs the first quarter of the rounds untraced (a warm-up whose outputs must
match the traced ones bit for bit), then all rounds with spans around every
call into the library, then the first quarter untraced again, and prints
the per-layer metrics. The
tracing overhead compares the traced and the second untraced pass on the
rounds both ran. --self-test is the negative control: on one round of
every workload it perturbs the first output after the call and before its
check, and passes only if every workload then reports a failure.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Details (environment, output
digest, latency sample counts, failures, the per-layer table) go to
standard error and to perfbench/out/, with the spans of a traced run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import struct
import subprocess
import sys
import time
import traceback
from dataclasses import fields, is_dataclass
from pathlib import Path

# one BLAS thread (at most nproc = 2 are allowed): the load comes from this
# single process and stays steady on a shared machine
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPS = {0: 5, 1: 3}
TAIL_BEYOND = 10  # the tail percentile has at least this many samples beyond it


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# Receipts: environment and output digest
# ---------------------------------------------------------------------------

def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "softmatch").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": _git_commit(),
        "source_sha256": src_hash.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def _feed(h, obj) -> None:
    """Hash a returned value: floats and arrays bit for bit, containers in
    order, dataclasses field by field; other objects by type name only."""
    import numpy as np

    if obj is None or isinstance(obj, (bool, np.bool_)):
        h.update(repr(None if obj is None else bool(obj)).encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + struct.pack("<d", float(obj)))
    elif isinstance(obj, (int, np.integer)):
        h.update(b"i" + str(int(obj)).encode())
    elif isinstance(obj, str):
        h.update(b"s" + obj.encode() + b"\0")
    elif isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        h.update(b"{")
        for k in sorted(obj, key=str):
            _feed(h, str(k))
            _feed(h, obj[k])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for x in obj:
            _feed(h, x)
        h.update(b"]")
    elif is_dataclass(obj):
        h.update(type(obj).__name__.encode() + b"(")
        for f in fields(obj):
            _feed(h, getattr(obj, f.name))
        h.update(b")")
    else:
        h.update(b"<" + type(obj).__name__.encode() + b">")


def digest(outputs) -> str:
    h = hashlib.sha256()
    for out in outputs:
        _feed(h, out)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Set-up, timed calls and checks
# ---------------------------------------------------------------------------

def measure_setup(workload: str, seed: int, reps: int) -> dict:
    """Median fresh-interpreter import and config-build times, in reference
    seconds (and wall seconds for the detail file)."""
    runs = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-I", str(BENCH / "setup_child.py"), str(ROOT), workload, str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {
        "setup_s": statistics.median(r["import_s"] + r["config_s"] for r in runs),
        "import_s": statistics.median(r["import_s"] for r in runs),
        "config_s": statistics.median(r["config_s"] for r in runs),
        "wall_s": statistics.median(r["import_wall_s"] + r["config_wall_s"] for r in runs),
        "reps": reps,
    }


class _Raised:
    """Stands in for the output of a call that raised."""

    def __init__(self, exc: BaseException):
        self.error = "".join(traceback.format_exception_only(type(exc), exc)).strip()


def run_calls(calls, tracer=None, host=None) -> tuple[list, list, list]:
    """Time each call; returns (wall latencies, reference latencies,
    outputs). The reference latencies come from the host-speed sampler
    `host` and are the wall latencies without one. A call that raises is
    recorded and the run goes on (it is counted as failed)."""
    lat, ref, outs = [], [], []
    clock = time.perf_counter
    for call in calls:
        root = tracer.begin("bench." + call.kind) if tracer is not None else None
        mark = host.mark() if host is not None else None
        t0 = clock()
        try:
            out = call.run()
        except Exception as exc:  # noqa: BLE001 - the run must go on and report it
            out = _Raised(exc)
        dt = clock() - t0
        if root is not None:
            tracer.finish(root)
        dt, dt_ref = host.close(mark, dt) if host is not None else (dt, dt)
        lat.append(dt)
        ref.append(dt_ref)
        outs.append(out)
    return lat, ref, outs


def check_outputs(calls, outs, known: dict | None = None) -> list[str]:
    """Failure reasons, one per failed call; `known` maps call indices to
    reasons found before the checks run."""
    failures = []
    for i, (call, out) in enumerate(zip(calls, outs)):
        reason = (known or {}).get(i)
        if reason is None and isinstance(out, _Raised):
            reason = f"raised {out.error}"
        if reason is None:
            try:
                reason = call.check(out)
            except Exception as exc:  # noqa: BLE001 - a broken output fails its check
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(f"#{i} {call.kind}{call.size}: {reason}")
    return failures


def latency_summary(lat: list[float]) -> dict:
    """Median, and the highest percentile with TAIL_BEYOND samples beyond it."""
    s = sorted(lat)
    k = len(s)
    tail_idx = k - 1 - TAIL_BEYOND if k > TAIL_BEYOND else k - 1
    return {
        "samples": k,
        "p50_s": statistics.median(s),
        "tail_s": s[tail_idx],
        "tail_percentile": 100.0 * (tail_idx + 1) / k,
        "tail_samples_beyond": k - 1 - tail_idx,
    }


def by_position(calls, lat, rounds: int) -> list[dict]:
    """Median latency of the calls at each position of the rounds: same
    function, sizes and config, other inputs."""
    per_round = len(calls) // rounds
    return [
        {"kind": calls[i].kind, "size": list(calls[i].size), "samples": rounds,
         "median_s": statistics.median(lat[i::per_round])}
        for i in range(per_round)
    ]


def robust_latency(calls, lat, rounds: int) -> list[float]:
    """Each call timed at the median latency of its position in the rounds.
    One slow stretch of the machine, or one hard instance, then moves the
    throughput and the latency percentiles little, and the percentiles do
    not jump between call kinds with the noise of single calls."""
    return [p["median_s"] for p in by_position(calls, lat, rounds)] * rounds


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def run_untraced(wl, state, rounds: int, sabotage: bool = False) -> dict:
    import hostspeed

    calls = [c for r in range(rounds) for c in wl.round_calls(state, r)]
    with hostspeed.HostSpeed() as host:
        lat, ref, outs = run_calls(calls, host=host)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out_digest = digest(o for o in outs if not isinstance(o, _Raised))
    if sabotage:
        outs[0] = calls[0].sabotage(outs[0])
    failures = check_outputs(calls, outs)
    return {
        "calls": calls, "latency": lat, "latency_ref": ref, "outputs": outs,
        "failures": failures, "units": sum(c.units for c in calls), "busy_s": sum(lat),
        "peak_rss_mb": peak_rss_mb, "digest": out_digest,
        "host": {
            "samples": len(host.samples), "period_s": hostspeed.PERIOD_S,
            "ref_slice_s": hostspeed.REF_SLICE_S,
            "slice_median_s": statistics.median(host.samples),
        },
    }


def kernel_overhead(seed: int) -> dict:
    """self_attention against reference_self_attention, wall-clock ratio on
    the largest dynamics cloud (N = 256, d = 4), untraced."""
    import numpy as np
    import workloads
    from softmatch import kernels, measures

    layer = workloads.Dynamics().build(seed)["layers"]["gauss", 4]
    cloud = measures.PointCloud(np.random.default_rng([seed, 256, 4]).uniform(-0.5, 0.5, (256, 4)))

    def best(fn, reps):
        ts = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn(layer, cloud)
            ts.append(time.perf_counter() - t0)
        return statistics.median(ts)

    pipeline = best(kernels.self_attention, 5)
    reference = best(kernels.reference_self_attention, 51)
    return {"self_attention_s": pipeline, "reference_s": reference, "ratio": pipeline / reference}


def run_traced(wl, state, seed: int, rounds: int, spans_path: Path) -> dict:
    import tracing

    calls = [c for r in range(rounds) for c in wl.round_calls(state, r)]
    warm = len(calls) // rounds * math.ceil(rounds / 4)
    overhead = kernel_overhead(seed)
    # no host-speed sampling here: the spans would include its handler
    _, _, outs0 = run_calls(calls[:warm])  # warm-up, and the rerun receipt

    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        root = tracer.begin("bench.setup")
        wl.build(seed)
        tracer.finish(root)
        t0 = time.perf_counter()
        lat, _, outs = run_calls(calls, tracer)
        wall = time.perf_counter() - t0
    finally:
        tracing.uninstall(undo)
    lat0, _, _ = run_calls(calls[:warm])  # warm and untraced, for the overhead

    differ = {
        i: "output differs between the untraced and the traced pass"
        for i in range(warm) if digest([outs0[i]]) != digest([outs[i]])
    }
    out_digest = digest(o for o in outs if not isinstance(o, _Raised))
    failures = check_outputs(calls, outs, differ)
    tracer.save(spans_path)
    return {
        "calls": calls, "latency": lat, "latency_ref": lat, "outputs": outs,
        "failures": failures, "units": sum(c.units for c in calls), "busy_s": sum(lat),
        "wall_s": wall,
        "overhead": sum(lat[:warm]) / sum(lat0), "overhead_rounds": math.ceil(rounds / 4),
        "kernel_overhead": overhead, "digest": out_digest, "rerun_digest_match": not differ,
        "analysis": tracing.analyse(tracer),
    }


def per_layer_metrics(res: dict, setup: dict) -> dict:
    import tracing

    a = res["analysis"]
    by = a["by_name"]
    layer = a["layer_self"]

    def calls(name):
        return by.get(name, {}).get("calls", 0)

    def self_s(name):
        return by.get(name, {}).get("self_s", 0.0)

    outs = [o for o in res["outputs"] if is_dataclass(o)]
    probe_outs = [o for o in outs if type(o).__name__ == "ProbeResult"]
    trials = sum(o.trials for o in probe_outs)
    m = {
        "kernels.self_s": _metric(layer["kernels"] - a["kernels_reference_self"], "s"),
        "kernels.attention_kernel.calls": _metric(calls("kernels.attention_kernel"), "count"),
        "kernels.softmatch_weights.calls": _metric(calls("kernels.softmatch_weights"), "count"),
        "kernels.softmatch_weights.self_s": _metric(self_s("kernels.softmatch_weights"), "s"),
        "kernels.apply_lookup.self_s": _metric(self_s("kernels.apply_lookup"), "s"),
        "kernels.reference.self_s": _metric(a["kernels_reference_self"], "s"),
        "kernels.overhead_vs_reference": _metric(res["kernel_overhead"]["ratio"], "x"),
        "measures.canonical_order.calls": _metric(calls("measures.canonical_order"), "count"),
        "measures.canonical_order.self_s": _metric(self_s("measures.canonical_order"), "s"),
        "measures.empirical_measure.inits": _metric(calls("measures.EmpiricalMeasure.__init__"), "count"),
        "measures.barycenter.self_s": _metric(self_s("measures.barycenter"), "s"),
        "potentials.similarity_matrix.calls": _metric(calls("potentials.similarity_matrix"), "count"),
        "potentials.similarity_matrix.self_s": _metric(self_s("potentials.similarity_matrix"), "s"),
        "potentials.regularity_stats.self_s": _metric(self_s("potentials.regularity_stats"), "s"),
        "transport.self_s": _metric(layer["transport"], "s"),
        "transport.w1.flow.calls": _metric(a["flow_calls"], "count"),
        "transport.w1.assignment.calls": _metric(a["assignment_calls"], "count"),
    }
    for b in tracing.FLOW_BUCKETS:
        m[f"transport.w1.flow.p50_s.n{b}"] = _metric(a["flow_p50"][f"n{b}"], "s")
    for b in tracing.SIZE_BUCKETS:
        m[f"transport.w1.assignment.p50_s.n{b}"] = _metric(a["assignment_p50"][f"n{b}"], "s")
    m.update({
        "transport.w1.d1.self_s": _metric(a["d1_self"], "s"),
        "transport.dual_potentials.self_s": _metric(self_s("transport.dual_potentials"), "s"),
        "transport.arcs": _metric(a["arcs"], "count"),
        "bounds.calls": _metric(a["layer_calls"]["bounds"], "count"),
        "bounds.self_s": _metric(layer["bounds"], "s"),
        "probes.self_s": _metric(layer["probes"], "s"),
        "probes.skipped_frac": _metric(
            sum(o.skipped for o in probe_outs) / trials if trials else 0.0, "ratio"
        ),
        "probes.check_ratio_lemma.self_s": _metric(self_s("probes.check_ratio_lemma"), "s"),
        "probes.check_product_lemma.self_s": _metric(self_s("probes.check_product_lemma"), "s"),
        "probes.check_local_lip_lemma.self_s": _metric(self_s("probes.check_local_lip_lemma"), "s"),
        "dynamics.apply_layer.calls": _metric(calls("dynamics.apply_layer"), "count"),
        "dynamics.apply_layer.self_s": _metric(self_s("dynamics.apply_layer"), "s"),
        "dynamics.deq.iterations": _metric(
            sum(o.iterations for o in outs if type(o).__name__ == "DeqResult"), "count"
        ),
        "dynamics.invert.iterations": _metric(
            sum(o.iterations for o in outs if type(o).__name__ == "InversionResult"), "count"
        ),
        "dynamics.sampled_set_lipschitz.self_s": _metric(self_s("dynamics.sampled_set_lipschitz"), "s"),
        "dynamics.run_particles.self_s": _metric(self_s("dynamics.run_particles"), "s"),
        "equiv.run_equivalence.self_s": _metric(self_s("equiv.run_equivalence"), "s"),
        "setup.import_s": _metric(setup["import_s"], "s"),
        "setup.config_s": _metric(setup["config_s"], "s"),
        "trace.overhead": _metric(res["overhead"], "x"),
        "trace.wall_s": _metric(res["wall_s"], "s"),
    })
    return m


def layer_table(res: dict) -> list[dict]:
    a = res["analysis"]
    wall = res["wall_s"]
    rows = []
    for name, t in sorted(a["layer_self"].items(), key=lambda kv: -kv[1]):
        rows.append({
            "layer": name, "self_s": t, "share": t / wall if wall else 0.0,
            "spans": a["layer_calls"][name],
        })
    return rows


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def bench(args) -> int:
    import softmatch
    import workloads

    if Path(softmatch.__file__).resolve().parent != (SRC / "softmatch").resolve():
        return _fail(f"softmatch imported from {softmatch.__file__}, not from {SRC}")
    wl = workloads.WORKLOADS[args.workload]
    rounds = max(1, round(args.seconds / wl.round_s))
    env = environment(args.seed)
    setup = measure_setup(args.workload, args.seed, SETUP_REPS[args.trace])
    state = wl.build(args.seed)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        res = run_traced(wl, state, args.seed, rounds, stem.with_suffix(".spans.npz"))
    else:
        res = run_untraced(wl, state, rounds)
    robust = robust_latency(res["calls"], res["latency_ref"], rounds)
    lat = latency_summary(robust)
    if args.trace:
        metrics = per_layer_metrics(res, setup)
    else:
        metrics = {
            "setup_s": _metric(setup["setup_s"], "s"),
            "throughput": _metric(res["units"] / sum(robust), "1/s"),
            "call_p50_s": _metric(lat["p50_s"], "s"),
            "call_tail_s": _metric(lat["tail_s"], "s"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
        }

    attempted, failed = len(res["calls"]), len(res["failures"])
    detail = {
        "workload": args.workload,
        "unit": wl.unit,
        "rounds": rounds,
        "environment": env,
        "setup": setup,
        "work_units": res["units"],
        "busy_s": res["busy_s"],
        "latency": lat,
        "latency_wall": latency_summary(res["latency"]),
        "host": res.get("host"),
        "latency_by_position": by_position(res["calls"], res["latency_ref"], rounds),
        "latencies_wall": res["latency"],
        "latencies_ref": res["latency_ref"],
        "failed_frac": failed / attempted,
        "failures": res["failures"][:20],
        "digest": res["digest"],
        "metrics": metrics,
    }
    if args.trace:
        detail.update({
            "spans": res["analysis"]["spans"],
            "spans_file": str(stem.with_suffix(".spans.npz").relative_to(ROOT)),
            "trace_overhead": {"ratio": res["overhead"], "rounds": res["overhead_rounds"]},
            "rerun_digest_match": res["rerun_digest_match"],
            "kernel_overhead": res["kernel_overhead"],
            "layer_table": layer_table(res),
            "by_name": res["analysis"]["by_name"],
        })
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1) + "\n")
    _report(detail)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def _report(detail: dict) -> None:
    err = sys.stderr
    env = detail["environment"]
    lat = detail["latency"]
    print(
        f"workload {detail['workload']}: {detail['rounds']} rounds, {lat['samples']} calls, "
        f"{detail['work_units']} {detail['unit']}, failed_frac {detail['failed_frac']:.4f}",
        file=err,
    )
    print(
        f"env: commit {env['git_commit']} src {env['source_sha256'][:12]} python {env['python']} "
        f"numpy {env['numpy']} scipy {env['scipy']} nproc {env['nproc']} "
        f"blas {env['blas']['name']} {env['blas']['version']} threads {BLAS_THREADS}",
        file=err,
    )
    for label, lat in (("latency (ref s)", lat), ("latency (wall s)", detail["latency_wall"])):
        print(
            f"{label}: p50 {lat['p50_s']:.6f} s, p{lat['tail_percentile']:.1f} {lat['tail_s']:.6f} s "
            f"({lat['tail_samples_beyond']} beyond, n={lat['samples']})",
            file=err,
        )
    if detail["host"]:
        host = detail["host"]
        print(
            f"host speed: {host['samples']} slices, median {host['slice_median_s'] * 1e3:.3f} ms "
            f"(reference {host['ref_slice_s'] * 1e3:.3f} ms)",
            file=err,
        )
    print(f"digest {detail['digest']}", file=err)
    for reason in detail["failures"]:
        print(f"FAILED {reason}", file=err)
    if "layer_table" in detail:
        print(
            f"trace: {detail['spans']} spans, overhead x{detail['trace_overhead']['ratio']:.3f}, "
            f"rerun digest match {detail['rerun_digest_match']}",
            file=err,
        )
        print(f"{'layer':<12}{'self_s':>12}{'share':>9}{'spans':>10}", file=err)
        for row in detail["layer_table"]:
            print(
                f"{row['layer']:<12}{row['self_s']:>12.4f}{row['share']:>8.1%}{row['spans']:>10}",
                file=err,
            )


def self_test() -> int:
    """Negative control: one sabotaged round of every workload must fail."""
    import workloads

    ok = True
    for name, wl in workloads.WORKLOADS.items():
        state = wl.build(0)
        res = run_untraced(wl, state, 1, sabotage=True)
        tripped = len(res["failures"]) >= 1
        ok &= tripped
        print(f"self-test {name}: failed {len(res['failures'])}/{len(res['calls'])} "
              f"({'control tripped' if tripped else 'CONTROL NOT TRIPPED'})", file=sys.stderr)
        for reason in res["failures"]:
            print(f"  {reason}", file=sys.stderr)
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    p.add_argument("--workload", choices=("probe", "transport", "dynamics", "lemmas"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    if not (SRC / "softmatch" / "__init__.py").is_file():
        return _fail(f"no library at {SRC / 'softmatch'}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.self_test:
        return self_test()
    if args.workload is None:
        p.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
