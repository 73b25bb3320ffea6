"""End-to-end emulation benchmark.

One workload, one fresh interpreter::

    python3 e2ebench/run.py --workload swarm --seed 1 --seconds 25 --trace 0

runs iterations of the workload (see ``workloads.py``) for ``--seconds``
seconds, checks every iteration's outputs, prints each metric by name
with its unit, and ends with one JSON line ``{"correct", "attempted",
"failed", "metrics"}``. ``--trace 0`` reports the end-to-end metrics
(medians over the iterations, tracing off); ``--trace 1`` runs the
seed's inputs twice untraced (warm-up, reference) and once with every
layer boundary wrapped (``spans.py``) and reports the per-layer
metrics (``layers.py``).

All four workloads, each in its own interpreter, plus their traced
runs, and a rewrite of the repository's ``BENCHMARK.json``::

    python3 e2ebench/run.py --all [--seed 1] [--seconds 25]

Run from the repository root; the emulator is imported from ``src/``.
Spans and scratch files go to ``e2ebench/out/``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Any, Callable, Dict, List, Optional  # noqa: E402

import spec  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
#: Every run measures at least this many iterations, however short
#: ``--seconds`` is, so a median always exists.
MIN_ITERATIONS = 3


def interpreter_start_s() -> Optional[float]:
    """Seconds from process creation to the first line of this script
    (Linux only: ``/proc`` start time, 10 ms resolution)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        now = time.clock_gettime(time.CLOCK_BOOTTIME)
    except (OSError, ValueError, IndexError, AttributeError):
        return None
    return max(0.0, now - (time.perf_counter() - T_START) - started)


def import_program():
    """Import the emulator from the checkout's ``src/``; exit 2 if absent."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"e2ebench: cannot import the emulator from {ROOT}/src: {exc}",
              file=sys.stderr)
        sys.exit(2)
    return workloads


@dataclass
class Iteration:
    seed: int
    setup_s: List[float]
    run_s: Optional[float]
    checked: Any
    state: Any = None


def one_iteration(workloads, workload, seed: int, golden, workdir: str,
                  on_ready: Optional[Callable[[Any], None]] = None,
                  setups: Optional[int] = None) -> Iteration:
    """Set up, run and check one input; never raises. ``on_ready`` sees
    the state between set-up and run, untimed.

    Cheap set-ups are timed ``setups`` times (default
    ``workload.SETUP_REPEATS``; the extra states are discarded) so their
    median is not a handful of millisecond samples."""
    setup_s: List[float] = []
    try:
        for _ in range((setups or workload.SETUP_REPEATS) - 1):
            t0 = time.perf_counter()
            workload.setup(seed, workdir)
            setup_s.append(time.perf_counter() - t0)
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup(seed, workdir)
    except Exception:
        traceback.print_exc()
        checked = workloads.Checked(attempted=workload.operations)
        checked.fail(workload.operations, "setup raised")
        return Iteration(seed, setup_s, None, checked)
    setup_s.append(time.perf_counter() - t0)
    if on_ready is not None:
        on_ready(state)
    t1 = time.perf_counter()
    error = None
    try:
        workload.run(state)
    except Exception as exc:
        traceback.print_exc()
        error = f"run raised {type(exc).__name__}: {exc}"
    t2 = time.perf_counter()
    try:
        checked = workload.check(state, seed, golden)
    except Exception as exc:
        traceback.print_exc()
        checked = workloads.Checked(attempted=workload.operations)
        checked.fail(workload.operations, f"check raised {type(exc).__name__}: {exc}")
    if error is not None:
        checked.problems.append(error)
    return Iteration(seed, setup_s, t2 - t1, checked, state)


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest waited-for child."""
    scale = 1024.0 if sys.platform != "darwin" else 1024.0 * 1024.0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / scale


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def fidelity_err_pct(workloads, seed: int, fluid_median: float,
                     goldens, workdir: str) -> Optional[float]:
    """|fluid median completion - packet-path median| / packet median,
    for the same seed; the packet median is the ``swarm`` golden when
    one is stored, else an untimed packet-path run (None if it fails)."""
    golden = goldens.get("swarm", {}).get(str(seed))
    if golden is not None:
        packet = golden["median_completion"]
    else:
        it = one_iteration(workloads, workloads.make("swarm"), seed, None, workdir)
        packet = it.checked.extra.get("median_completion")
        if packet is None:
            return None
    return 100.0 * abs(fluid_median - packet) / packet


def report(lines: List[str], result: Dict[str, Any], extra: Dict[str, Any]) -> None:
    for line in lines:
        print(line)
    print("extra: " + json.dumps(extra, sort_keys=True))
    print(json.dumps(result, sort_keys=True))


def measure(args, workloads, workload, goldens, workdir: str, import_s: float) -> int:
    """The untraced run: end-to-end metrics over ``--seconds`` seconds."""
    golden = goldens.get(workload.name, {})
    iterations: List[Iteration] = []
    start = time.perf_counter()
    while len(iterations) < MIN_ITERATIONS or time.perf_counter() - start < args.seconds:
        seed = workloads.iteration_seed(args.seed, len(iterations))
        it = one_iteration(workloads, workload, seed, golden.get(str(seed)), workdir)
        it.state = None  # free it before the next build
        iterations.append(it)
        for problem in it.checked.problems[:5]:
            print(f"check failed (seed {seed}): {problem}", file=sys.stderr)
    elapsed = time.perf_counter() - start
    rss = peak_rss_mb()

    timed = [it for it in iterations if it.run_s is not None]
    if not timed:
        print("e2ebench: no iteration completed set-up", file=sys.stderr)
        return 1
    attempted = sum(it.checked.attempted for it in iterations)
    failed = sum(it.checked.failed for it in iterations)
    problems = sum(len(it.checked.problems) for it in iterations)
    values = {
        "setup_s": statistics.median(s for it in timed for s in it.setup_s),
        "run_s": statistics.median(it.run_s for it in timed),
        "peak_rss_mb": rss,
    }
    extra: Dict[str, Any] = {
        "failed_ratio": failed / attempted,
        "import_s": import_s,
        "iterations": len(iterations),
        "measured_s": elapsed,
    }
    first = iterations[0].checked.extra
    if workload.name == "swarm-fluid" and "median_completion" in first:
        err = fidelity_err_pct(
            workloads, args.seed, first["median_completion"], goldens, workdir
        )
        if err is not None:
            extra["fidelity_err_pct"] = err
    if workload.name == "jobs":
        latencies = [lat for it in iterations for lat in it.checked.extra["job_latencies"]]
        extra["job_p50_ms"] = 1e3 * statistics.median(latencies)
        extra["job_p90_ms"] = 1e3 * percentile(latencies, 90)
        extra["jobs"] = len(latencies)

    lines = [f"{workload.name} seed={args.seed}: {len(iterations)} iterations "
             f"in {elapsed:.1f} s, {failed}/{attempted} operations failed"]
    for name, value in list(values.items()) + [
        (k, v) for k, v in extra.items() if k in spec.UNITS
    ]:
        lines.append(f"  {name:<18} {value:.6g} {spec.UNITS[name]}")
    result = {
        "correct": failed == 0 and problems == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: spec.metric(n, values[n]) for n, _, _, _ in spec.END_TO_END},
    }
    report(lines, result, extra)
    return 0


def traced(args, workloads, workload, goldens, workdir: str) -> int:
    """The traced run: the seed's inputs untraced, then traced."""
    import layers
    import spans

    golden = goldens.get(workload.name, {}).get(str(args.seed))
    # The first iteration in a process pays one-off warm-up costs; the
    # second is the untraced reference for the tracing overhead.
    checks = []
    for _ in range(2):
        ref = one_iteration(workloads, workload, args.seed, golden, workdir)
        ref.state = None
        checks.append(ref.checked)
    per_vnode = layers.bytes_per_vnode(workload, args.seed)
    gc.collect()

    run_id = f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    rec = spans.SpanRecorder(run_id)
    uninstall, missing = spans.install(rec)
    timer = None
    try:
        if workload.name == "jobs":
            timer = layers.ServiceTimer(workdir, rec)
            workload.runner = timer
        start_depth = []

        def on_ready(state) -> None:
            sim = workload.parts(state)[0]
            start_depth.append(sim.pending if sim is not None else 0)

        it = one_iteration(workloads, workload, args.seed, golden, workdir, on_ready,
                           setups=1)
    finally:
        uninstall()
    if ref.run_s is None or it.run_s is None:
        print("e2ebench: set-up failed in the traced run", file=sys.stderr)
        return 1
    service = timer.collect() if timer is not None else []
    values, reasons = layers.compute(
        workload, it.state, rec, ref.run_s, it.run_s, per_vnode, service,
        start_depth[0] if start_depth else 0, missing,
    )
    os.makedirs(OUT, exist_ok=True)
    rec.write(os.path.join(OUT, f"spans-{run_id}"))

    checks.append(it.checked)
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    problems = sum(len(c.problems) for c in checks)
    for c in checks:
        for problem in c.problems[:5]:
            print(f"check failed: {problem}", file=sys.stderr)
    lines = [f"{workload.name} seed={args.seed} traced: {len(rec)} spans, "
             f"setup_s {it.setup_s[-1]:.4f} s, run_s {it.run_s:.4f} s "
             f"(untraced {ref.setup_s[-1]:.4f} s, {ref.run_s:.4f} s)"]
    metrics = {}
    for name, _, _ in spec.PER_LAYER:
        value = values[name]
        entry = spec.metric(name, value)
        if value is None:
            entry["unmeasured"] = reasons[name]
            lines.append(f"  {name:<28} unmeasured: {reasons[name]}")
        else:
            lines.append(f"  {name:<28} {value:.6g} {spec.UNITS[name]}")
        metrics[name] = entry
    result = {
        "correct": failed == 0 and problems == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    report(lines, result, {"spans": len(rec), "run_id": run_id})
    return 0


def run_all(args) -> int:
    """Every workload in a fresh interpreter, untraced then traced."""
    table = []
    ok = True
    for name in spec.workload_names():
        row: Dict[str, Any] = {"workload": name}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-2]))
            if proc.returncode != 0 or not lines:
                print(f"{name} --trace {trace}: exit code {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            extra = json.loads(lines[-2][len("extra: "):])
            ok = ok and result["correct"]
            if trace == 0:
                row.update({k: v["value"] for k, v in result["metrics"].items()})
                row.update({k: v for k, v in extra.items() if k in spec.UNITS})
                row["correct"] = result["correct"]
        table.append(row)
    print()
    print("end-to-end (tracing off, medians over each run's iterations):")
    names = [n for n, *_ in spec.END_TO_END] + [n for n, _ in spec.REPORTED]
    for row in table:
        cells = [f"{n}={row[n]:.5g} {spec.UNITS[n]}" for n in names if n in row]
        print(f"  {row['workload']:<12} correct={row.get('correct')} " + "  ".join(cells))
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, "w") as fh:
        json.dump(spec.benchmark_json(), fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")
    return 0 if ok else 1


def record_goldens() -> int:
    """Re-record ``goldens.json`` from the current program's outputs."""
    workloads = import_program()
    goldens: Dict[str, Dict[str, Any]] = {}
    workdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for name in workloads.GOLDEN_WORKLOADS:
            workload = workloads.make(name)
            for seed in workloads.GOLDEN_SEEDS:
                it = one_iteration(workloads, workload, seed, None, workdir)
                if it.checked.failed or it.checked.problems:
                    print(f"{name} seed {seed}: {it.checked.problems}", file=sys.stderr)
                    return 1
                goldens.setdefault(name, {})[str(seed)] = it.checked.record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.GOLDENS_PATH, "w") as fh:
        json.dump(goldens, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(goldens, indent=2, sort_keys=True))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=spec.workload_names())
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, traced and untraced")
    parser.add_argument("--record-goldens", action="store_true",
                        help="re-record goldens.json from the current program")
    args = parser.parse_args(argv)
    if args.record_goldens:
        return record_goldens()
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")

    workloads = import_program()
    import_s = time.perf_counter() - T_START
    startup = interpreter_start_s()
    if startup is not None:
        import_s += startup
    workload = workloads.make(args.workload)
    goldens = workloads.load_goldens()
    workdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            return traced(args, workloads, workload, goldens, workdir)
        return measure(args, workloads, workload, goldens, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
