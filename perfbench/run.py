"""passforge benchmark: one workload, one process, metrics as JSON.

    python3 perfbench/run.py --workload search --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the last line of stdout
holds every end-to-end metric of BENCHMARK.json; with ``--trace 1`` it holds
every per-layer metric, and the spans are written to ``.bench_out/``.  The
lines before it repeat the numbers under the names the workloads use
(``designs_per_s``, ``pairs_per_s``, ...) with the output digest.

The workload runs in this one process.  ``setup_s`` is the median of this
process's set-up and of the set-ups of fresh interpreters started one after
another (``--setup-only``), each waited for.
"""
import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

T0 = perf_counter()     # set-up is timed from here; numpy and passforge load later

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups per run: this process's own, and the rest each in a fresh
#: interpreter, since imports dominate set-up and run once per process.  At
#: least SETUP_MIN, and more, up to SETUP_MAX, while the fresh ones have
#: taken less than SETUP_BUDGET_S.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 4.0
#: The host's speed drifts by a third within minutes and by as much within a
#: ten-second call, so end-to-end times are reported in reference seconds:
#: wall seconds times the mean host speed sampled before, during (every
#: SAMPLE_PERIOD_S) and after the work.  The host speed is REF_NOMINAL_S over
#: the time of the reference kernel; where the kernel takes REF_NOMINAL_S,
#: reference and wall seconds agree.
REF_ENTRIES = 1_500
REF_NOMINAL_S = 0.001
SAMPLE_PERIOD_S = 0.05


def reference_s() -> float:
    """Seconds of one reference kernel: build and walk a dict of tuple keys
    and list values, object churn like passforge's own.  The collector is
    off inside it, and the kernel frees what it allocates, so neither the
    size of the program's heap nor the collector's schedule moves it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = perf_counter()
        table = {}
        for i in range(REF_ENTRIES):
            table[(i, i & 7)] = [i, str(i)]
        acc = 0
        for key, value in table.items():
            acc += len(value) + key[1]
        del table
        return perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def host_speed() -> float:
    """REF_NOMINAL_S over the median of three reference kernels."""
    return REF_NOMINAL_S / statistics.median(reference_s() for _ in range(3))


class SpeedSampler:
    """Samples the host speed on entry, on exit and every SAMPLE_PERIOD_S in
    between, from a SIGALRM timer; ``wall`` is the time inside, less the
    time the samples took."""

    def __init__(self):
        self.speeds: list[float] = []
        self.paused = 0.0

    def _tick(self, _signum, _frame):
        t = perf_counter()
        self.speeds.append(REF_NOMINAL_S / reference_s())
        self.paused += perf_counter() - t

    def __enter__(self):
        self.speeds.append(host_speed())
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall = perf_counter() - self._start - self.paused
        signal.signal(signal.SIGALRM, self._handler)
        self.speeds.append(host_speed())

    def ref_s(self, wall: float) -> float:
        return wall * statistics.fmean(self.speeds)


def ref_timed(fn, speeds: list[float]):
    """Run ``fn``; returns its result and its time in reference seconds.
    The host speeds sampled around and during it are added to ``speeds``."""
    with SpeedSampler() as sampler:
        result = fn()
    speeds += sampler.speeds
    return result, sampler.ref_s(sampler.wall)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("search", "label", "learn"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="run the workload at its smallest size")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def fresh_setup_s(argv: list[str], speeds: list[float]) -> float:
    """Set-up time of the workload in a fresh interpreter, in reference
    seconds: imports and ``setup``, as this process's own set-up.  This
    process samples the host speed while it waits."""
    with SpeedSampler() as sampler:
        out = subprocess.run([sys.executable, __file__, *argv, "--setup-only"],
                             capture_output=True, text=True, timeout=60,
                             check=True)
    speeds += sampler.speeds
    return sampler.ref_s(float(out.stdout.split()[-1]))


def measure(wl, seconds: float, speeds: list[float]) -> dict[str, float]:
    """Run units round-robin until ``seconds`` have passed and each unit has
    run.  Throughput and latency use each unit's median reference time."""
    units = wl.units()
    times: dict[str, list[float]] = defaultdict(list)
    ops: dict[str, int] = {}
    start = perf_counter()
    i = 0
    while i < len(units) or perf_counter() - start < seconds:
        unit = units[i % len(units)]
        (_wall, ops[unit.key], _count), dt = ref_timed(
            lambda: wl.run_unit(unit), speeds)
        times[unit.key].append(dt)
        i += 1
    med = {k: statistics.median(v) for k, v in times.items()}
    return {"ops_per_s": sum(ops.values()) / sum(med.values()),
            "op_ms_p50": 1000 * statistics.median(med[k] / ops[k] for k in med)}


def measure_traced(wl, seconds: float, out_path: Path):
    """Run each unit untraced, then traced, a set at a time, while another
    set fits in ``seconds``; per-layer metrics are per set."""
    from tracer import Tracer

    units = wl.units()
    tracer = Tracer()
    sets, count, plain_s, traced_s, set_s = 0, 0, 0.0, 0.0, 0.0
    start = perf_counter()
    while sets == 0 or perf_counter() - start + set_s <= seconds:
        set_start = perf_counter()
        for i in range(sets * wl.min_units, (sets + 1) * wl.min_units):
            unit = units[i % len(units)]
            plain_s += wl.run_unit(unit)[0]
            tracer.install()
            try:
                dt, _ops, n = wl.run_unit(unit)
            finally:
                tracer.restore()
            traced_s += dt
            count += n
        tracer.end_set()
        sets += 1
        set_s = perf_counter() - set_start
    metrics = tracer.layer_metrics(sets)
    metrics["trace.overhead_s"] = (traced_s - plain_s) / sets
    metrics["trace.overhead_ratio"] = traced_s / plain_s - 1
    out_path.parent.mkdir(exist_ok=True)
    tracer.write(str(out_path), {"workload": wl.name, "seed": wl.seed,
                                 "sets": sets})
    name, traced, expected = wl.reconcile(tracer, count)
    problems = []
    if traced != expected:
        problems.append(f"{name}.calls {traced} != program count {expected}")
    return metrics, problems


def emit(metrics: dict[str, float], declared: list[dict]) -> dict:
    names = {m["name"] for m in declared}
    if set(metrics) != names:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ names)}")
    return {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in declared}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_args(argv)
    if not (ROOT / "src" / "passforge" / "__init__.py").is_file():
        print(f"perfbench: no passforge sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    wl = workloads.WORKLOADS[args.workload](args.seed, sizes)
    if args.setup_only:
        wl.setup()
        print(perf_counter() - T0)
        return 0
    import_s = perf_counter() - T0
    speeds = [host_speed()]
    setup_s = import_s * speeds[0] + ref_timed(wl.setup, speeds)[1]

    problems: list[str] = []
    if args.trace:
        out = ROOT / ".bench_out" / f"trace-{wl.name}-{args.seed}.json"
        metrics, problems = measure_traced(wl, args.seconds, out)
    else:
        setups, start = [setup_s], perf_counter()
        while len(setups) < SETUP_MIN or (
                len(setups) < SETUP_MAX
                and perf_counter() - start < SETUP_BUDGET_S):
            setups.append(fresh_setup_s(argv, speeds))
        setup_s = statistics.median(setups)
        metrics = measure(wl, args.seconds, speeds)
    gate = wl.gate()
    problems += gate.problems + wl.mismatches
    failed = wl.failed(gate)
    oracle_speedup, est_speedup = gate.speedups()

    if args.trace:
        metrics["qor.est_speedup"] = est_speedup
        metrics["agent.incidents"] = wl.incidents_per_unit()
        declared = spec["per_layer"]
    else:
        metrics.update(
            setup_s=setup_s, oracle_speedup=oracle_speedup,
            ok_ratio=1 - failed / wl.attempted,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        declared = spec["end_to_end"]
        named = wl.info(metrics)
        named["failed_ratio"] = (failed / wl.attempted, "ratio")
        named["host_speed"] = (statistics.median(speeds), "x")
        for k, (v, unit) in named.items():
            print(f"{wl.name} {k} {v:.6g} {unit}")
    for p in problems:
        print(f"{wl.name} problem: {p}")
    print(f"{wl.name} digest {wl.output_digest()}")
    print(json.dumps({"correct": not problems, "attempted": wl.attempted,
                      "failed": failed, "metrics": emit(metrics, declared)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
