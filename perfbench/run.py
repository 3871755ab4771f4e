"""sqzcavity benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed).  With ``--trace 0`` the end-to-end metrics
are measured with tracing off; with ``--trace 1`` the per-layer metrics come
from spans recorded around calls into each module.  Lines starting with "#"
are a human-readable report; the last line is the JSON result.  Every run
also writes its full record to ``.bench_out/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

from tracing import Tracer, summarize, write_span_sets
from workloads import ROOT, SRC, CONFIGS, HERE, WORKLOADS, child_env, make_workload

OUT = ROOT / ".bench_out"
SETUP_PROBES = 2      # fresh child processes; this process is a third sample
IMPORT_PROBES = 3
LOAD_NOTE = ("closed loop with one caller: one benchmark process, at most one "
             "child process at a time")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}

# Reported times are rescaled to a reference host: wall time / host factor,
# the factor being a fixed reference workload's wall time next to the
# measurement over its time on the faster state of the host the benchmark was
# defined on.  That host's speed drifted about 2x within seconds, and the
# reference workloads drift with it.  A workload whose host_reference is None
# reports wall time as it is.  See README.md.
KERNEL_S = 0.0065     # kernel_factor()'s kernel
PROCESS_S = 0.3       # process_factor()'s fresh interpreter
KERNEL_REPEATS = 3

# per-layer metric -> unit; every traced run reports all of them (0 where
# the workload does not reach the layer)
PER_LAYER = {
    "import.total_s": "s", "import.scipy_signal_s": "s",
    "import.scipy_optimize_s": "s", "import.numpy_s": "s",
    "import.sqzcavity_self_s": "s",
    "cli.load_config.self_s": "s", "cli.OutputWriter.flush.self_s": "s",
    "cli.flush.files": "count",
    "decoherence.measured_sensitivity.calls": "count",
    "decoherence.measured_sensitivity.self_s": "s",
    "decoherence.measured_noise_with_jitter.calls": "count",
    "decoherence.measured_noise_with_jitter.self_s": "s",
    "decoherence.measured_anti_noise_with_jitter.calls": "count",
    "sensor.quadrature_noise_spectrum.calls": "count",
    "sensor.quadrature_noise_spectrum.self_s": "s",
    "sensor.signal_transfer_power.calls": "count",
    "sensor.signal_transfer_power.self_s": "s",
    "optimize.optimize_gain_numeric.calls": "count",
    "optimize.optimize_gain_numeric.self_s": "s",
    "optimize.snr_gain_db.calls": "count", "optimize.snr_gain_db.self_s": "s",
    "optimize.evals_per_solve": "count",
    "calibrate.fit_parameters.calls": "count",
    "calibrate.fit_parameters.self_s": "s",
    "calibrate.forward_variances.calls": "count",
    "calibrate.forward_variances.self_s": "s",
    "calibrate.residual_evals_per_fit": "count",
    "calibrate.starts_converged_frac": "1",
    "scipy.least_squares.calls": "count", "scipy.least_squares.self_s": "s",
    "oracle.run_sde.calls": "count", "oracle.run_sde.self_s": "s",
    "oracle.run_sde.samples": "count", "oracle.run_sde.segments": "count",
    "oracle.run_sde.computed_bytes": "B",
    "scipy.lfilter.calls": "count", "scipy.lfilter.self_s": "s",
    "oracle.compare_analytic.self_s": "s",
    "oracle.random_compare_grid.self_s": "s",
    "trace.untraced_s": "s", "trace.overhead_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Stats:
    """Attempted/failed operations and the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, errors: list[str]):
        self.attempted += 1
        if errors:
            self.failed += 1
            self.messages.extend(errors[: max(0, 20 - len(self.messages))])


def kernel_factor() -> float:
    """Host factor from a fixed kernel of the kinds of work this package
    does in process: elementwise numpy calls on 64-point grids, small SVDs
    (as inside least_squares) and interpreter loops over array values."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 64)
    a = np.linspace(-1.0, 1.0, 30).reshape(10, 3) ** 3
    samples = []
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter()
        for k in range(700):
            float((np.sqrt(x * x + k) / (1.0 + x)).sum())
        for k in range(150):
            np.linalg.svd(a + k, full_matrices=False)
        for k in range(300):
            y = np.exp(-x * (k % 7)) + np.cos(x)
            float(np.interp(0.3, x, y))
            sum(v * 1.5 for v in y[:8])
        samples.append(time.perf_counter() - t0)
    return median(samples) / KERNEL_S


def process_factor() -> float:
    """Host factor from a fresh interpreter that imports numpy and
    scipy.linalg: the start-up work of a command, without the package."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg"],
                   check=True, env=child_env(), cwd=ROOT, timeout=120)
    return (time.perf_counter() - t0) / PROCESS_S


def rescale(times: list[float], factors: list[float]) -> list[float]:
    """Times on the reference host; factors[i] and factors[i + 1] are the
    host factors measured just before and just after time i."""
    return [t * 2.0 / (factors[i] + factors[i + 1])
            for i, t in enumerate(times)]


def host_factor(wl) -> float:
    if wl.host_reference == "kernel":
        return kernel_factor()
    if wl.host_reference == "process":
        return process_factor()
    return 1.0


def run_ops(wl, indices, stats: Stats, factors: list[float]) -> list[float]:
    """Run operations; return their timed wall seconds.  Appends the host
    factor measured before each operation to `factors`."""
    times = []
    for i in indices:
        wl.prepare(i)
        factors.append(host_factor(wl))
        t0 = time.perf_counter()
        try:
            token = wl.run(i)
            errors = None
        except Exception as exc:   # a raise is a failed operation, not a crash
            errors = [f"{wl.name} op {i}: {type(exc).__name__}: {exc}"]
        times.append(time.perf_counter() - t0)
        if errors is None:
            errors = wl.check(i, token)
        stats.record(errors)
    return times


def measure(wl, stats: Stats, blocks) -> tuple[list[float], list[float]]:
    """Run the operations of each index range in `blocks`.  Returns their
    wall seconds and the same rescaled to the reference host."""
    times: list[float] = []
    factors: list[float] = []
    for indices in blocks:
        times += run_ops(wl, indices, stats, factors)
    factors.append(host_factor(wl))
    return times, rescale(times, factors)


def timed_blocks(wl, seconds: float):
    """Whole blocks of operations until `seconds` have passed (at least
    wl.min_blocks blocks)."""
    deadline = time.perf_counter() + seconds
    n = 0
    while n < wl.min_blocks or time.perf_counter() < deadline:
        yield range(n * wl.ops_per_block, (n + 1) * wl.ops_per_block)
        n += 1


def since_process_start() -> float:
    """Seconds since this process started (Linux; 10 ms resolution)."""
    fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")   # field 22, starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def setup_times(name: str, seed: int) -> list[float]:
    """Seconds from a fresh process's start to the end of its set-up,
    rescaled to the reference host."""
    walls, factors = [], [process_factor()]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "setup", name, str(seed)],
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
        with proc:
            line = proc.stdout.readline()
            walls.append(time.perf_counter() - t0)
            proc.stdout.read()
            proc.wait(timeout=120)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        factors.append(process_factor())
    return rescale(walls, factors)


def parse_importtime(text: str) -> dict[str, float]:
    """Import metrics from ``python -X importtime -c 'import sqzcavity.cli'``."""
    first: dict[str, int] = {}
    own_self = 0
    total = 0
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        try:
            self_us, cum_us = int(parts[0]), int(parts[1])
        except (ValueError, IndexError):
            continue   # the column header
        name = parts[2].strip()
        first.setdefault(name, cum_us)
        if name == "sqzcavity" or name.startswith("sqzcavity."):
            own_self += self_us
        if name == "sqzcavity.cli" and parts[2].startswith(" sqzcavity.cli"):
            total = cum_us
    return {"import.total_s": total / 1e6,
            "import.scipy_signal_s": first.get("scipy.signal", 0) / 1e6,
            "import.scipy_optimize_s": first.get("scipy.optimize", 0) / 1e6,
            "import.numpy_s": first.get("numpy", 0) / 1e6,
            "import.sqzcavity_self_s": own_self / 1e6}


def import_metrics() -> dict[str, float]:
    """Median import times of fresh processes, on the reference host."""
    samples, factors = [], [process_factor()]
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import sqzcavity.cli"],
            capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import of sqzcavity.cli failed: {proc.stderr[-300:]}")
        samples.append(parse_importtime(proc.stderr))
        factors.append(process_factor())
    factor = median(factors)
    return {k: median(s[k] for s in samples) / factor for k in samples[0]}


def traced_pass(wl, indices, stats: Stats, spans_file: Path):
    """One pass over `indices` with tracing; returns (wall seconds, rescaled
    seconds, span sets)."""
    tracer = Tracer()
    if wl.in_process:
        with tracer.installed():
            walls, times = measure(wl, stats, [indices])
        return sum(walls), sum(times), [tracer.spans]
    wl.trace_file, wl.span_sets = spans_file, []
    try:
        walls, times = measure(wl, stats, [indices])
    finally:
        wl.trace_file = None
    spans_file.unlink(missing_ok=True)
    return sum(walls), sum(times), wl.span_sets


def per_layer(summary: dict, imports: dict, untraced_s: float
              ) -> dict[str, float]:
    calls, self_s, c = summary["calls"], summary["self_s"], summary["counts"]
    factor = summary["wall_s"] / summary["seconds"]   # the pass's host factor
    m = dict(imports)
    for metric in PER_LAYER:
        if metric.endswith(".calls"):
            m[metric] = calls.get(metric[: -len(".calls")], 0)
        elif metric.endswith(".self_s"):
            m[metric] = self_s.get(metric[: -len(".self_s")], 0) / factor
    m["cli.flush.files"] = c["flush_files"]
    m["optimize.evals_per_solve"] = c["evals_in_solves"] / max(c["solves"], 1)
    m["calibrate.residual_evals_per_fit"] = (c["residual_evals_in_fits"]
                                             / max(c["fits"], 1))
    m["calibrate.starts_converged_frac"] = c["starts_converged"] / max(c["starts"], 1)
    m["oracle.run_sde.samples"] = c["sde_samples"]
    m["oracle.run_sde.segments"] = c["sde_segments"]
    m["oracle.run_sde.computed_bytes"] = c["sde_computed_bytes"]
    m["trace.untraced_s"] = untraced_s
    m["trace.overhead_s"] = summary["seconds"] - untraced_s
    return m


def repeat_errors(wl, passes: list[dict]) -> list[str]:
    """Counts that must repeat exactly at a fixed seed."""
    errors = []
    first = passes[0]
    for other in passes[1:]:
        for key in ("calls", "counts"):
            if other[key] != first[key]:
                errors.append(f"traced {key} differ between passes: "
                              f"{first[key]} != {other[key]}")
    expected = wl.expected_sde_counts()
    if expected is not None:
        for spans in passes[0]["span_sets"]:
            for name, *_, attrs in spans:
                if name == "oracle.run_sde" and attrs != expected:
                    errors.append(f"run_sde counts {attrs} != {expected}")
    return errors


def run_traced(wl, stats: Stats, tag: str) -> tuple[dict, dict]:
    imports = import_metrics()
    n = wl.trace_ops
    untraced_s = sum(measure(wl, stats, [range(n)])[1])
    passes = []
    for _ in range(wl.trace_repeats):
        wall_s, seconds, span_sets = traced_pass(
            wl, range(n), stats, wl.work_dir / "child-spans.json")
        summary = summarize(span_sets)
        summary.update(wall_s=wall_s, seconds=seconds, span_sets=span_sets)
        passes.append(summary)
    errors = repeat_errors(wl, passes)
    if errors:
        stats.failed += 1
        stats.messages += errors
    spans_file = OUT / "spans" / f"{tag}.json"
    write_span_sets(spans_file, passes[0]["span_sets"])
    metrics = per_layer(passes[0], imports, untraced_s)
    extra = {"spans_file": str(spans_file.relative_to(ROOT)),
             "traced_ops_per_pass": n, "traced_passes": wl.trace_repeats}
    return metrics, extra


def run_timed(wl, seconds: float, stats: Stats, own_setup: float
              ) -> tuple[dict, dict]:
    setups = [own_setup] + setup_times(wl.name, wl.seed)
    walls, times = measure(wl, stats, timed_blocks(wl, seconds))
    metrics = {"setup_s": median(setups), "op_s": wl.op_seconds(times),
               "peak_rss_mb": wl.peak_rss_mb()}
    extra = {name: {"value": v, "unit": u, "samples": n}
             for name, (v, u, n) in wl.report(times).items()}
    extra["op_wall_s"] = {"value": wl.op_seconds(walls), "unit": "s",
                          "samples": len(walls)}
    extra["setup_s_samples"] = setups
    extra["op_s_samples"] = times
    extra["op_wall_s_samples"] = walls
    return metrics, extra


def env_record() -> dict:
    import numpy
    import scipy

    rec = {"nproc": os.cpu_count(),
           "cpu_model": "", "caches": {},
           "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "load": LOAD_NOTE,
           "thread_env": {k: os.environ.get(k, "unset") for k in THREAD_ENV}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                rec["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if kind != "Instruction":
                rec["caches"][f"L{level}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        rec["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        rec["blas"] = "unknown"
    return rec


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sqzcavity" / "__init__.py").is_file() or not CONFIGS.is_dir():
        print(f"benchmark: no sqzcavity source tree under {ROOT}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("benchmark: --seconds must be positive and --seed non-negative",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one CPU for this process and its children, so that the reference
    # kernel measures the core that runs the operations
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT / "work" / f"{tag}-{os.getpid()}"
    stats = Stats()
    try:
        wl = make_workload(args.workload, args.seed, work_dir)
        wl.setup()
        own_setup = since_process_start() / process_factor()
        if args.trace:
            metrics, extra = run_traced(wl, stats, tag)
            units = PER_LAYER
        else:
            metrics, extra = run_timed(wl, args.seconds, stats, own_setup)
            units = END_TO_END
    except Exception:
        traceback.print_exc()
        print("benchmark: aborted, no result", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {"correct": stats.failed == 0, "attempted": stats.attempted,
              "failed": stats.failed,
              "metrics": {k: {"value": metrics[k], "unit": u}
                          for k, u in units.items()}}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "error_rate": stats.failed / stats.attempted,
              "failures": stats.messages, "extra": extra,
              "env": env_record(), "result": result}
    results_file = OUT / "results" / f"{tag}.json"
    results_file.parent.mkdir(parents=True, exist_ok=True)
    results_file.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for msg in stats.messages:
        print(f"# FAILED: {msg}")
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: "
          f"{stats.attempted} operations, {stats.failed} failed, "
          f"error_rate {stats.failed / stats.attempted:g}")
    for k, u in units.items():
        print(f"# {k} = {metrics[k]:.6g} {u}")
    for k, v in extra.items():
        if isinstance(v, dict):
            print(f"# {k} = {v['value']:.6g} {v['unit']} (n={v['samples']})")
    print(f"# env {json.dumps(record['env'], sort_keys=True)}")
    print(f"# full record: {results_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
