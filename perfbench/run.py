"""Benchmark of the casimir-friction library and CLI.

    python3 perfbench/run.py --workload force_box --seed 1 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, each in its own process
    python3 perfbench/run.py --smoke           # tiny run of every workload and mode

A single-workload run prints a human-readable report, then as its last
line one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  It exits 1 when a correctness
check fails.  The full record (provenance, failures by kind, sample
counts, checks) and, when traced, the spans go to ``.perfbench_out/``.
See README.md beside this file for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads as wl

OUT_DIR = wl.ROOT / ".perfbench_out"
#: Timed passes over the same operations in an untraced run, each after
#: one fresh-process set-up; setup_s is the median of those set-ups.
PASSES = 2
#: Seconds host_calibration_s takes at the reference speed, to which the
#: timings of in-process workloads are scaled (a 2-vCPU x86-64 VM took
#: 6.9 to 19 ms for it, 9.9 ms in the median).
REF_CALIBRATION_S = 0.009
#: A cold Python process that imports the third-party stack the package
#: loads, and nothing of the package: the reference for timings of fresh
#: processes (CLI runs and set-up probes).
COLD_START_ARGV = [sys.executable, "-c", "import numpy, scipy.integrate"]
#: Seconds COLD_START_ARGV takes at the reference speed (the same VM took
#: 0.62 to 1.2 s for it, 0.70 s in a calm period).
REF_COLD_START_S = 0.70

END_TO_END = {
    "setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s",
    "ok_frac": "fraction", "accuracy_digits": "digits", "peak_rss_mb": "MB",
}
LAYER_MODULES = ("cli", "compare", "friction", "response", "material", "numerics")
FORCES = ("dissipation_general", "force_linear", "force_zero_t", "force_plasmon")
PER_LAYER = {
    "import.total_s": "s", "import.numerics_s": "s", "import.numpy_s": "s", "import.scipy_s": "s",
    "cli.main.calls": "count", "cli.main.self_s": "s",
    "cli.compute_force.calls": "count", "cli.compute_force.s": "s",
    "compare.consistency_report.calls": "count", "compare.consistency_report.s": "s",
    **{f"friction.{f}.{k}": u for f in FORCES for k, u in (("calls", "count"), ("s", "s"))},
    "response.im_r_dissipation_integral.calls": "count",
    "response.im_r_dissipation_integral.s": "s",
    "response.im_r_dissipation_integral.per_force": "calls/force",
    "material.surface_response.calls": "count", "material.surface_response.s": "s",
    "material.surface_response.per_force": "calls/force",
    "numerics.integrate_finite.calls.response": "count",
    "numerics.integrate_finite.calls.numerics": "count",
    "numerics.integrate_semi_infinite.calls.friction": "count",
    "numerics.integrate_semi_infinite.calls.response": "count",
    "numerics.quad.s": "s",
    "numerics.nonconvergence.omega1": "count", "numerics.nonconvergence.k_y": "count",
    "numerics.nonconvergence.k_x": "count",
    "trace.untraced_s": "s", "trace.overhead_s": "s",
}


def load_benchmark() -> dict:
    with open(wl.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def provenance(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        top = subprocess.run(["git", "-C", str(wl.ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.split()
        commit = top[1] if Path(top[0]).resolve() == wl.ROOT else "unknown"
    except (OSError, subprocess.CalledProcessError, IndexError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted(wl.SRC.rglob("*.py")):
        digest.update(path.relative_to(wl.SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def setup_probe(name: str) -> None:
    """Child side of a set-up measurement: import, warm up, report ready."""
    cf = wl.import_package()
    wl.WORKLOADS[name](cf, wl.load_refs()).warm_up()
    print("ready", flush=True)


def cold_start_s() -> float:
    """Seconds a cold COLD_START_ARGV process takes now: the host's current speed for fresh processes."""
    start = time.perf_counter()
    subprocess.run(COLD_START_ARGV, cwd=wl.ROOT, env=wl.cli_env(), check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure_setup(name: str) -> float:
    """Seconds from the start of a fresh process to the end of its untimed warm-up."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, __file__, "--setup-probe", name],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {name} failed (exit {proc.returncode})")
    return elapsed


def tally(records) -> tuple[int, int, collections.Counter]:
    attempted = sum(out.points for _, out in records)
    failures = collections.Counter(f for _, out in records for f in out.failures)
    return attempted, sum(failures.values()), failures


def accuracy_digits(devs: list[float]) -> float:
    """-log10 of the median relative deviation, floored at double-precision unit roundoff.

    The median, not the largest deviation: the largest is set by the few
    pool points a seed happens to draw, so it differs between seeds by
    two digits.  The correctness gate bounds the largest deviation.
    """
    return -math.log10(max(statistics.median(devs) if devs else 0.0, 2.0**-53))


def host_calibration_s() -> float:
    """Seconds this process takes now for a fixed set of quadratures: the host's current speed.

    scipy's adaptive quadrature over a Python integrand with complex
    arithmetic and a resonance, the kind of work the quadrature layers
    do, but no code of the package.  A pure-Python integer loop followed
    the speed of those layers far less closely: scaled by it, the
    spreads of force_box and sweep stayed at 0.11 to 0.14 over five runs.
    """
    from scipy.integrate import quad  # here, so that set-up probes do not pay for it

    t0 = time.perf_counter()
    for a in (1.0, 2.0, 3.0, 4.0) * 6:
        quad(lambda x: (a * a / complex(a * a - x * x, 0.1 * x)).imag * math.exp(-x),
             0.0, 60.0, limit=200, points=[a])
    return time.perf_counter() - t0


class HostSpeed:
    """Samples host_calibration_s before each operation and every PERIOD seconds within it.

    The periodic samples come from a SIGALRM handler, which runs between
    bytecodes of whatever this process is doing, so long operations get
    samples from inside them.  Their time is counted in ``paused_s``,
    for the caller to take out.
    """

    #: A 3 s sweep document gets 30 samples: with fewer, the share of time
    #: the host spends in its fast and slow states is poorly resolved.
    PERIOD = 0.1
    #: How far outside an operation a sample may end or start and still count for it.
    GAP = 0.05

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # start, end, calibration
        self.paused_s = 0.0
        self.busy = False

    def sample(self, *_) -> None:
        if self.busy:  # the timer fired inside a sample: one at a time
            return
        self.busy = True
        t0 = time.perf_counter()
        calibration = host_calibration_s()
        t1 = time.perf_counter()
        self.samples.append((t0, t1, calibration))
        self.paused_s += t1 - t0
        self.busy = False

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """Factor to the reference speed, from the samples just before, inside and just after [t0, t1].

        The mean, not the median: the host flips between a fast and a slow
        state within a long operation, whose time follows the share of
        each, as the mean of evenly spaced samples does.
        """
        near = [c for start, end, c in self.samples if end >= t0 - self.GAP and start <= t1 + self.GAP]
        if not near:
            near = [min(self.samples, key=lambda sample: abs(sample[0] - t0))[2]]
        return REF_CALIBRATION_S / statistics.fmean(near)


def run_untraced(w, seed: int, smoke: bool) -> dict:
    ops = w.ops(seed)
    w.warm_up()
    speed = HostSpeed()
    records, setup, passes = [], [], []

    def timed(op) -> tuple[float, float, float, int, float | None]:
        """Start, end, wall time and points of one operation, and its cold-start time."""
        cold = cold_start_s() if w.scale_by == "cold_start" else None
        if w.scale_by == "calibration":
            speed.sample()  # the sample after it is the next operation's, or the pass's last
        paused = speed.paused_s
        t0 = time.perf_counter()
        out = w.run(op)
        t1 = time.perf_counter()
        records.append((op, out))
        return t0, t1, t1 - t0 - (speed.paused_s - paused), out.points, cold

    # The same fixed operations are timed in PASSES passes, each after a
    # fresh-process set-up probe, so every operation and every set-up is
    # measured PASSES times, spread over the whole run.  Every operation
    # of every pass counts for attempted, failed and the checks.
    #
    # Shared hosts change speed: by 20 % and more from one second to the
    # next, and by up to 2x between states that last minutes, so that
    # whole runs read 1.5x apart.  Every timing is therefore scaled to a
    # reference speed, measured next to it by work of the same kind.
    # Where the operations run in this process, HostSpeed times a fixed
    # quadrature before each operation and every PERIOD within it.  A
    # fresh process (a set-up probe, a CLI run) is scaled by a cold-start
    # process timed just before it.  Each pair varies together (per-call
    # correlation 0.8 and 0.6), so the scaled times are steady where the
    # wall times, and even the best of several, are not.  An operation's
    # time is the mean of its scaled timings; the best of them is noisier
    # once the scaling has taken the host's states out.  Wall-clock
    # values stay in the record.
    for _ in range(PASSES):
        setup.append((cold_start_s(), measure_setup(w.name)))
        with speed if w.scale_by == "calibration" else contextlib.nullcontext():
            passes.append([timed(op) for op in ops])
        if smoke:
            break

    # (wall time, factor to the reference speed, points) of every timing, by pass
    factored = [[(wall, speed.scale(t0, t1) if cold is None else REF_COLD_START_S / cold, n)
                 for t0, t1, wall, n, cold in p] for p in passes]

    def timings(scaled: bool) -> tuple[list[float], float]:
        """Per-point times of the operations, each the mean over the passes, and points per second."""
        times = [(statistics.fmean(wall * f if scaled else wall for wall, f, _ in op_timings),
                  op_timings[0][2]) for op_timings in zip(*factored)]
        return [t / max(n, 1) for t, n in times], sum(n for _, n in times) / sum(t for t, _ in times)

    per_point, ops_per_s = timings(True)
    wall_per_point, wall_ops_per_s = timings(False)
    timed_wall = sum(t[2] for p in passes for t in p)
    attempted, failed, failures = tally(records)
    errors, devs = w.check(records)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if w.name == "cli_oneshot":
        rss_kb = max(rss_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    p90 = (statistics.quantiles(per_point, n=10, method="inclusive")[-1]
           if len(per_point) > 1 else per_point[0])
    values = {
        "setup_s": statistics.median(t * REF_COLD_START_S / cold for cold, t in setup),
        "op_p50_s": statistics.median(per_point),
        "ops_per_s": ops_per_s,
        "ok_frac": (attempted - failed) / attempted,
        "accuracy_digits": accuracy_digits(devs),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    samples = {
        "setup_s": len(setup), "op_p50_s": len(per_point),
        "ops_per_s": attempted, "ok_frac": attempted,
        "accuracy_digits": len(devs), "peak_rss_mb": 1,
    }
    # p90 is reported, not bounded: a run has fewer than the 100 operations
    # that would leave 10 samples above it
    extra = {"op_p90_s": p90, "max_rel_dev": max(devs, default=0.0),
             "setup_wall_s": statistics.median(t for _, t in setup),
             "op_p50_wall_s": statistics.median(wall_per_point), "ops_per_wall_s": wall_ops_per_s,
             "host_calibration_s": statistics.median(c for _, _, c in speed.samples)
             if speed.samples else None,
             "cold_start_s": statistics.median([c for c, _ in setup]
                                               + [t[4] for p in passes for t in p if t[4] is not None]),
             "timed_wall_s": timed_wall,
             "operations": len(records), "points_per_timed_s": attempted / timed_wall}
    if w.name == "sweep":
        extra["stdout_matches_stored_digest"] = w.exact_digest_match(records)
    return dict(values=values, units=END_TO_END, samples=samples, attempted=attempted,
                failed=failed, failures=dict(failures), errors=errors, extra=extra,
                timings=[[t[:2] for t in p] for p in factored])


def run_traced(w, seed: int, seconds: float, trace_path: Path) -> dict:
    ops = w.ops(seed)
    w.warm_up()
    tracer = tracing.Tracer()
    records, passes, untraced_s, traced_s = [], 0, 0.0, 0.0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for op in ops:
            w.run(op)
        untraced_s += time.perf_counter() - t0
        tracer.install()
        try:
            t0 = time.perf_counter()
            for op in ops:
                tracer.op += 1
                records.append((op, w.run(op)))
            traced_s += time.perf_counter() - t0
        finally:
            tracer.uninstall()
        passes += 1
        if time.perf_counter() - start >= seconds:
            break
    tracer.write(trace_path)
    attempted, failed, failures = tally(records)
    errors, devs = w.check(records)
    imports = tracing.import_times(str(wl.SRC))

    def per_pass(x):
        q = x / passes
        return int(q) if isinstance(x, int) and q == int(q) else q

    forces = tracer.calls("friction.dissipation_general")
    values = {f"import.{k}_s": v for k, v in imports.items()}
    values["cli.main.calls"] = per_pass(tracer.calls("cli.main"))
    values["cli.main.self_s"] = per_pass(tracer.self_s("cli.main"))
    for name in ("cli.compute_force", "compare.consistency_report",
                 *(f"friction.{f}" for f in FORCES),
                 "response.im_r_dissipation_integral", "material.surface_response"):
        values[f"{name}.calls"] = per_pass(tracer.calls(name))
        values[f"{name}.s"] = per_pass(tracer.total_s(name))
    for name in ("response.im_r_dissipation_integral", "material.surface_response"):
        values[f"{name}.per_force"] = tracer.calls(name) / forces if forces else 0.0
    for fn, site in (("integrate_finite", "response"), ("integrate_finite", "numerics"),
                     ("integrate_semi_infinite", "friction"),
                     ("integrate_semi_infinite", "response")):
        values[f"numerics.{fn}.calls.{site}"] = per_pass(tracer.calls(f"numerics.{fn}", site))
    values["numerics.quad.s"] = per_pass(tracer.self_s("numerics.integrate_finite")
                                         + tracer.self_s("numerics.integrate_semi_infinite"))
    for level in ("omega1", "k_y", "k_x"):
        values[f"numerics.nonconvergence.{level}"] = per_pass(failures.get(level, 0))
    values["trace.untraced_s"] = untraced_s / passes
    values["trace.overhead_s"] = (traced_s - untraced_s) / passes
    samples = {k: 1 if k.startswith("import.") else passes for k in values}
    extra = {"passes": passes, "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped,
             "operations_per_pass": len(ops), "max_rel_dev": max(devs, default=0.0)}
    # every pass runs the same operations with the same outcomes, so the
    # counts per pass do not depend on how many passes the host allowed
    return dict(values=values, units=PER_LAYER, samples=samples, attempted=attempted // passes,
                failed=failed // passes, failures={k: n // passes for k, n in failures.items()},
                errors=errors, extra=extra)


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    cf = wl.import_package()
    w = wl.WORKLOADS[name](cf, wl.load_refs(), smoke=smoke, traced=trace)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    if trace:
        res = run_traced(w, seed, seconds, OUT_DIR / f"spans-{stem}.jsonl")
    else:
        res = run_untraced(w, seed, smoke)
    record = {"workload": name, "trace": trace, "smoke": smoke,
              "provenance": provenance(seed), **res}
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    correct = not res["errors"]
    print(f"workload {name}  seed {seed}  {'traced' if trace else 'untraced'}"
          f"{'  smoke' if smoke else ''}")
    print(f"  attempted {res['attempted']}  failed {res['failed']}  "
          f"failures {json.dumps(res['failures'], sort_keys=True)}")
    for key, value in res["values"].items():
        print(f"  {key:<48} {value:<14.6g} {res['units'][key]:<12} n={res['samples'][key]}")
    for key, value in res["extra"].items():
        print(f"  {key:<48} {value}")
    print(f"  provenance {json.dumps(record['provenance'], sort_keys=True)}")
    for err in res["errors"]:
        print(f"  CHECK FAILED: {err}")
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": res["units"][k]} for k, v in res["values"].items()},
    }))
    return 0 if correct else 1


def child(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple[int, str]:
    argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(int(trace))]
    if smoke:
        argv.append("--smoke")
    proc = subprocess.run(argv, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; a summary table, then all results as one JSON line."""
    status, results = 0, {}
    for name in wl.WORKLOADS:
        code, out = child(name, seed, seconds, trace, smoke=False)
        print(out, end="")
        status = status or code
        lines = out.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines else None
    metrics = PER_LAYER if trace else END_TO_END
    width = max(map(len, metrics)) + 2
    print(f"\n{'metric':<{width}}" + "".join(f"{n:>16}" for n in results))
    for key, unit in metrics.items():
        cells = [results[n]["metrics"][key]["value"] if results[n] else math.nan for n in results]
        print(f"{key:<{width}}" + "".join(f"{c:>16.6g}" for c in cells) + f"  {unit}")
    print(json.dumps(results))
    return status


def smoke() -> int:
    """Tiny run of every workload in both modes; checks metric names, units and span coverage."""
    bench = load_benchmark()
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems, span_names = [], set()
    for trace in (0, 1):
        if expected[trace] != (PER_LAYER if trace else END_TO_END):
            problems.append(f"BENCHMARK.json metrics for trace {trace} differ from run.py's")
        for name in wl.WORKLOADS:
            code, out = child(name, 0, 0.0, bool(trace), smoke=True)
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                problems.append(f"{name} trace {trace}: exit {code}\n{out}")
                continue
            result = json.loads(lines[-1])
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{name} trace {trace}: metrics/units {got} != {expected[trace]}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{name} trace {trace}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
            if trace:
                spans = OUT_DIR / f"spans-{name}-seed0-trace1-smoke.jsonl"
                with open(spans, encoding="utf-8") as fh:
                    next(fh)
                    span_names.update(json.loads(line)[2] for line in fh)
    # every function a per-layer metric names, e.g. material.surface_response.calls
    named = {".".join(m.split(".")[:2]) for m in expected[1]
             if m.split(".")[0] in LAYER_MODULES and m.split(".")[1] not in ("quad", "nonconvergence")}
    missing = named - span_names
    if missing:
        problems.append(f"no span for layer functions {sorted(missing)}")
    for p in problems:
        print(f"SMOKE FAILED: {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=load_benchmark()["run_seconds"],
                        help="length of a traced run; an untraced run times a fixed set "
                             "of operations (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; without --workload, the smoke suite")
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        wl.import_package()
    except ImportError as exc:
        print(f"cannot import casimir_friction from {wl.SRC}: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.workload:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    if args.smoke:
        return smoke()
    return run_all(args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
