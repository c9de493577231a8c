"""fedicl benchmark: one workload, its end-to-end or per-layer metrics.

    python3 bench/run_bench.py --workload lsa_full --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory. ``--seconds`` bounds the whole invocation: set-up, the
reference output, the warm-up run and the timed runs all fit in it, and no
timed run starts that would, at the pace so far, end after it.
``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` is a separate pass: untraced runs alternate with runs that
have spans wrapped around the program's public functions, and it reports
the per-layer metrics plus the tracing overhead. Metric units are read from
``BENCHMARK.json``. Every run's output is checked; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. Exit code 0: all gates passed; 1: a gate or run
failed; 2: the program could not be imported. Run outputs go to
``.bench_build/fedicl-bench`` in the checkout.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported, so that the numbers
# measure the program and not the scheduler of this small machine.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "fedicl-bench"

SETUP_BATCH_SECONDS = 0.25
SETUP_FIRST_BATCHES = 3
ORACLE_REPEATS_PER_PAIR = 5
# The probe's rounds take about PROBE_NOMINAL_S (wall and CPU) on the 2-vCPU
# machine the baseline was taken on; the end-to-end times are reported at
# that speed of the host.
PROBE_ROUNDS = 750
PROBE_NOMINAL_S = 0.1


def import_program():
    """Import fedicl from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import fedicl
    if SRC not in Path(fedicl.__file__).resolve().parents:
        raise ImportError(f"fedicl resolved to {fedicl.__file__}, "
                          f"not under {SRC}")
    return fedicl


def median(values):
    return statistics.median(values) if values else 0.0


@functools.lru_cache(maxsize=None)
def _probe_data():
    rng = np.random.default_rng(0)
    rows = [tuple(map(float, r)) for r in rng.standard_normal((100, 8))]
    m = rng.standard_normal((8, 8))
    return rows, m @ m.T + 8 * np.eye(8)


def probe():
    """Wall and CPU time of a fixed piece of work that gauges the host's speed.

    The machine is a virtual one on a shared host: both its processors'
    speed and the time the hypervisor lets them run change by tens of
    percent within minutes, and move every timing with them. The probe does
    the kind of work the program does (tuples into arrays, a small solve,
    an interpreter loop) and none of its code, so a change to the program
    cannot move it; a time divided by the probe's is one at the host's
    current speed.
    """
    rows, spd = _probe_data()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    acc = 0.0
    for _ in range(PROBE_ROUNDS):
        x = np.asarray(rows)
        acc += float(np.linalg.solve(spd, x.T @ x[:, 0]).sum())
        acc += sum(v * v for row in rows for v in row)
    return time.perf_counter() - wall0, time.process_time() - cpu0


# ---------------------------------------------------------------------------
# Timing loops
# ---------------------------------------------------------------------------

def setup_batch(workload, seed, keep=False):
    """Set up back to back for ``SETUP_BATCH_SECONDS`` (at least once).

    Returns the last instance, still open if ``keep`` (else None), the mean
    set-up time of the batch, and the input-synthesis time of every set-up.
    Closing an instance is not timed.
    """
    times, synth, inst = [], [], None
    gc.collect()
    start = time.perf_counter()
    while not times or time.perf_counter() - start < SETUP_BATCH_SECONDS:
        if inst is not None:
            workload.close(inst)
        t0 = time.perf_counter()
        inst = workload.setup(seed)
        times.append(time.perf_counter() - t0)
        synth.append(getattr(inst, "synthesize_s", 0.0))
    if not keep:
        workload.close(inst)
        inst = None
    return inst, sum(times) / len(times), synth


def timed_loop(deadline, min_cycles, cycle):
    """Call ``cycle()`` until it returns False, or until ``deadline`` (a
    ``perf_counter`` time): after ``min_cycles``, no cycle is started that
    would, at the median pace so far, end past it."""
    cycles = []
    while len(cycles) < min_cycles or (
            time.perf_counter() + median(cycles) <= deadline):
        t0 = time.perf_counter()
        if not cycle():
            return
        cycles.append(time.perf_counter() - t0)


class Runs:
    """Checked runs of one kind; ``outputs`` holds the timed ones."""

    def __init__(self, workload):
        self.workload = workload
        self.outputs = []         # timed runs
        self.attempted = 0        # runs, warm-up included
        self.failed = 0
        self.errors = []

    def one(self, inst, out_dir):
        self.attempted += 1
        # every timed call starts from the same collector state, so that a
        # full collection owed by earlier work does not land in one sample
        gc.collect()
        try:
            out = self.workload.run(inst, out_dir)
            errors = self.workload.check(inst, out)
        except Exception:  # a run that raises fails all its operations
            errors = [traceback.format_exc()]
            out = None
        if errors:
            self.failed += 1
            self.errors.extend(errors)
            return None
        return out

    def timed(self, inst, out_dir):
        """One checked run kept as a sample; False if it failed."""
        out = self.one(inst, out_dir)
        if out is None:
            return False
        # the checked result is dropped, so that the memory the benchmark
        # holds does not grow with the number of runs and reach peak_rss_mb
        out.value = None
        self.outputs.append(out)
        return True

    def wall_s(self):
        return median([o.wall_s for o in self.outputs])

    def ops_per_s(self):
        wall = self.wall_s()
        return self.workload.ops / wall if wall > 0 else 0.0


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

def per_run_layers(table, self_s, run_id, out, rounds):
    sel = table["run"] == run_id
    names = table["name"][sel]
    starts, ends = table["start"][sel], table["end"][sel]
    dur, slf = ends - starts, self_s[sel]
    parents = table["parent"][sel]
    index = {n: i for i, n in enumerate(tracing.SPAN_NAMES)}

    def mask(n):
        return names == index[n]

    def calls(n):
        return int(np.count_nonzero(mask(n)))

    def total(n):
        return float(dur[mask(n)].sum())

    def self_of(n):
        return float(slf[mask(n)].sum())

    def per(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    m = {
        "backend.lsa.calls": calls("backend.lsa"),
        "backend.lsa.self_s": self_of("backend.lsa"),
        "backend.lsa.us_per_call": per(total("backend.lsa"),
                                       calls("backend.lsa"), 1e6),
        "lsa.predict.calls": calls("lsa.predict"),
        "lsa.predict.self_s": self_of("lsa.predict"),
        "data.knn.calls": calls("data.knn"),
        "data.knn.self_s": self_of("data.knn"),
        "data.embed.calls": calls("data.embed"),
        "data.embed.self_s": self_of("data.embed"),
        "data.embed_per_knn": per(calls("data.embed"), calls("data.knn")),
        "backend.remote.calls": calls("backend.remote"),
        "backend.render.self_s": self_of("backend.render"),
        "protocol.step1.self_s": self_of("protocol.step1"),
        "protocol.step2.self_s": self_of("protocol.step2"),
        "protocol.aggregate.calls": calls("protocol.aggregate"),
        "protocol.aggregate.self_s": self_of("protocol.aggregate"),
        "core.save_traces.self_s": self_of("core.save_traces"),
        "core.export_csv.self_s": self_of("core.export_csv"),
        "core.charge.self_s": self_of("core.charge"),
        "core.trace_bytes": out.counters.get("trace_bytes", 0),
        "core.ledger.entries": out.counters.get("ledger_entries", 0),
        "trace.spans": int(sel.sum()),
    }
    posts = out.counters.get("stub.posts", 0)
    m.update({
        "backend.remote.posts": posts,
        "backend.remote.retries": out.counters.get("stub.refused", 0),
        "backend.remote.useful_ratio": per(calls("backend.remote"), posts),
        "backend.remote.req_bytes": out.counters.get("stub.req_bytes", 0),
        "backend.remote.prompt_tokens": out.counters.get("stub.prompt_tokens",
                                                         0),
    })
    # protocol self time: run wall minus the time covered by the spans it
    # started, in its own thread or in the pool's threads
    run_rows = np.flatnonzero(mask("protocol.run"))
    self_time, parallel, round_ms = 0.0, 0.0, 0.0
    if run_rows.size == 1:
        r = int(run_rows[0])
        lo, hi = float(starts[r]), float(ends[r])
        run_row = int(np.flatnonzero(sel)[r])
        top = (parents < 0) | (parents == run_row)
        top[r] = False
        self_time = (hi - lo) - tracing.covered(
            list(zip(starts[top].tolist(), ends[top].tolist())), lo, hi)
        parallel = per(total("protocol.step1") + total("protocol.step2"),
                       hi - lo)
        round_ms = per(hi - lo, rounds, 1e3)
    m.update({"protocol.self_s": self_time, "protocol.parallel_ratio": parallel,
              "protocol.round_ms": round_ms})
    return m


def traced_layers(recorder, outputs, rounds):
    table = recorder.table()
    self_s = tracing.self_times(table)
    runs = [per_run_layers(table, self_s, i, out, rounds)
            for i, out in enumerate(outputs)]
    layers = {k: median([r[k] for r in runs]) for k in runs[0]} if runs else {}
    # latency percentiles pool the calls of every traced run
    remote = table["name"] == tracing.SPAN_NAMES.index("backend.remote")
    call_ms = (table["end"] - table["start"])[remote] * 1e3
    if call_ms.size:
        p50, p99 = np.percentile(call_ms, [50, 99])
    else:
        p50 = p99 = 0.0
    layers["backend.remote.call_p50_ms"] = float(p50)
    layers["backend.remote.call_p99_ms"] = float(p99)
    from stub_llm import STUB_DELAY_MS
    layers["backend.remote.overhead_p50_ms"] = (
        float(p50) - STUB_DELAY_MS if call_ms.size else 0.0)
    counts = {n: int(np.count_nonzero(table["name"] == i))
              for i, n in enumerate(tracing.SPAN_NAMES)}
    return layers, counts, table


def completeness_errors(recorder, workload, counts):
    """Spans expected on this workload fired; every other span stayed at 0."""
    errors = [f"trace target missing: {m}" for m in recorder.missing]
    for name in tracing.SPAN_NAMES:
        fired = counts.get(name, 0)
        if name in workload.spans and fired == 0:
            errors.append(f"span {name} never fired on {workload.name}")
        if name not in workload.spans and fired != 0:
            errors.append(f"span {name} fired {fired} times on "
                          f"{workload.name}, expected none")
    return errors


def oracle_times(inst, repeats):
    """Times of the closed-form oracle on the instance's data."""
    from fedicl import theory
    datasets = [c.original for c in inst.clients]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        state = theory.TheoryState.initialize(datasets, inst.queries,
                                              inst.gamma)
        state = theory.iterate_recursion(state, inst.config.effective_rounds)
        theory.verify_contraction(state)
        times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def git_commit():
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "fedicl").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(args, workload):
    from stub_llm import STUB_DELAY_MS, STUB_FAIL_ONE_IN
    from workloads import MAX_WORKERS
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "commit": git_commit(), "source_sha256": source_digest(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "seed": args.seed, "workload": workload.name,
        "size": workload.size, "seconds": args.seconds, "trace": args.trace,
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "max_workers": MAX_WORKERS,
        "stub": {"delay_ms": STUB_DELAY_MS, "fail_one_in": STUB_FAIL_ONE_IN,
                 "process": "child", "http": "1.0"},
    }


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def end_to_end(workload, inst, out_dir, args, deadline, setups):
    """Timed runs, each between two probes; ``setups`` holds (batch mean,
    probe wall time) pairs and gains one before every run."""
    runs, probes = Runs(workload), []

    def cycle():
        # set-up is also sampled between runs, so that its median spans the
        # whole pass and not only its first seconds
        probes.append(probe())
        setups.append((setup_batch(workload, args.seed)[1], probes[-1][0]))
        return runs.timed(inst, out_dir)

    if runs.one(inst, out_dir) is not None:     # warm-up
        timed_loop(deadline, 3, cycle)
    probes.append(probe())
    n = len(runs.outputs)
    # run i lies between probes i and i + 1
    around = [(probes[i], probes[i + 1]) for i in range(n)]
    wall = [o.wall_s * 2 * PROBE_NOMINAL_S / (a[0] + b[0])
            for o, (a, b) in zip(runs.outputs, around)]
    cpu = [o.cpu_s * 2 * PROBE_NOMINAL_S / (a[1] + b[1])
           for o, (a, b) in zip(runs.outputs, around)]
    median_wall = median(wall)
    metrics = {
        "setup_s": median([m * PROBE_NOMINAL_S / w for m, w in setups]),
        "ops_per_s": workload.ops / median_wall if median_wall else 0.0,
        "cpu_s": median(cpu),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    at_speed = f"at probe speed {PROBE_NOMINAL_S:g} s"
    samples = {"setup_s": f"median of {len(setups)} batch means, {at_speed}",
               "ops_per_s": f"{workload.ops} ops / median wall of {n} runs, "
                            f"{at_speed}",
               "cpu_s": f"median of {n} runs, {at_speed}",
               "peak_rss_mb": "whole process, 1 sample",
               "as measured (not gated)":
               f"setup_s {median([m for m, _ in setups]):.6g} s, ops_per_s "
               f"{runs.ops_per_s():.6g} 1/s, cpu_s "
               f"{median([o.cpu_s for o in runs.outputs]):.6g} s; probe "
               f"{median([w for w, _ in probes]):.6g} s wall, "
               f"{median([c for _, c in probes]):.6g} s CPU"}
    raw = {"setup_batch_mean_s": [m for m, _ in setups],
           "setup_probe_wall_s": [w for _, w in setups],
           "run_wall_s": [o.wall_s for o in runs.outputs],
           "run_cpu_s": [o.cpu_s for o in runs.outputs],
           "probe_wall_s": [w for w, _ in probes],
           "probe_cpu_s": [c for _, c in probes]}
    return runs, metrics, samples, raw


def traced(workload, inst, out_dir, args, deadline, synth_times):
    """Untraced and traced runs in alternating pairs, so that both sides of
    ``trace.overhead_x`` (and the oracle) see the same state of the host."""
    plain, traced_runs = Runs(workload), Runs(workload)
    recorder = tracing.SpanRecorder()
    oracle = [] if workload.name == "lsa_full" else None

    def plain_run():
        return plain.timed(inst, out_dir)

    def traced_run():
        recorder.run_id = len(traced_runs.outputs)
        recorder.install()
        try:
            return traced_runs.timed(inst, out_dir)
        finally:
            recorder.close()

    def pair():
        # which side runs first alternates from pair to pair
        order = ((plain_run, traced_run) if len(plain.outputs) % 2 == 0
                 else (traced_run, plain_run))
        if not all(run() for run in order):
            return False
        if oracle is not None:
            oracle.extend(oracle_times(inst, ORACLE_REPEATS_PER_PAIR))
        return True

    if plain.one(inst, out_dir) is not None:    # warm-up
        timed_loop(deadline, 2, pair)
    rounds = workload.size.get("rounds", 1)
    layers, counts, table = traced_layers(recorder, traced_runs.outputs,
                                          rounds)
    errors = completeness_errors(recorder, workload, counts)
    plain_wall, traced_wall = plain.wall_s(), traced_runs.wall_s()
    layers["trace.overhead_x"] = (traced_wall / plain_wall
                                  if plain_wall else 0.0)
    layers["cli.synthesize_s"] = median([s for s in synth_times if s])
    oracle_s = median(oracle) if oracle else 0.0
    layers["theory.oracle_s"] = oracle_s
    layers["protocol.vs_oracle_x"] = plain_wall / oracle_s if oracle_s else 0.0
    if traced_runs.outputs:
        tracing.save_run(table, len(traced_runs.outputs) - 1,
                         out_dir / "spans.npz")
    samples = {"traced runs": len(traced_runs.outputs),
               "untraced runs": len(plain.outputs),
               "span counts": {k: v for k, v in counts.items() if v}}
    raw = {"untraced_wall_s": [o.wall_s for o in plain.outputs],
           "traced_wall_s": [o.wall_s for o in traced_runs.outputs],
           "oracle_s": oracle or []}
    return [plain, traced_runs], layers, samples, raw, errors


def declared_units(trace):
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget of the whole invocation")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + args.seconds
    try:
        import_program()
        import workloads
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    out_dir = OUT / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)

    setups, synth_times, inst = [], [], None
    for _ in range(SETUP_FIRST_BATCHES):
        if inst is not None:
            workload.close(inst)
        probe_wall = probe()[0]
        inst, mean, synth = setup_batch(workload, args.seed, keep=True)
        setups.append((mean, probe_wall))
        synth_times.extend(synth)
    try:
        workload.reference(inst)
        if args.trace:
            passes, layers, samples, raw, errors = traced(
                workload, inst, out_dir, args, deadline, synth_times)
        else:
            runs, layers, samples, raw = end_to_end(
                workload, inst, out_dir, args, deadline, setups)
            passes, errors = [runs], []
    finally:
        workload.close(inst)
    units = declared_units(args.trace)
    if set(layers) != set(units):
        raise RuntimeError(f"metrics {sorted(layers)} differ from those "
                           f"BENCHMARK.json declares: {sorted(units)}")
    metrics = {k: (layers[k], units[k]) for k in sorted(layers)}

    attempted = sum(p.attempted for p in passes) * workload.ops
    failed = sum(p.failed for p in passes) * workload.ops
    errors = [e for p in passes for e in p.errors] + errors
    if errors and not failed:
        failed = attempted    # a failed completeness check voids the pass
    correct = not errors
    env = environment(args, workload)
    print(f"fedicl benchmark: workload {workload.name}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit:6s} {samples.get(name, '')}")
    for name, value in samples.items():
        if name not in metrics:
            print(f"  {name}: {value}")
    print(f"  fail_frac {failed / attempted if attempted else 1.0:g} "
          f"({failed} of {attempted} operations failed)")
    for error in errors:
        print(f"  GATE FAILED: {error}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    with open(out_dir / f"result-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump({"env": env, "samples": samples, "raw": raw,
                   "errors": errors, **result}, fh, indent=2)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
