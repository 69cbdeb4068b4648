"""Run one benchmark workload against the rvnorms sources of this checkout.

    python3 benchmark/run.py --workload norm-general --seed 1 --seconds 20 --trace 0

Every operation is one in-process call of ``rvnorms.cli.main(argv)`` with
stdout captured.  After set-up (imports, input files, a warm-up pass; the
last two repeated and the median kept), the run makes whole passes over the
workload's operation list until ``--seconds`` of pass time have elapsed and
at least 100 operations have run.  Outputs are checked after each pass,
outside the timing.  Every time in the end-to-end metrics is scaled to the
reference host speed by the calibration kernels of :mod:`hostspeed`, timed
between operations.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
traced run also writes its spans to ``.bench_runs/trace-<workload>.*``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 100
SETUP_REPEATS = 3
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
# Per-layer metrics that do not come from one span (see tracing.SPAN_METRICS).
EXTRA_LAYER_UNITS = {
    "words.placement_misses": "count",
    "words.placement_hit_ratio": "ratio",
    "oracle.samples_per_s": "1/s",
    "setup.import_s": "s",
    "setup.warmup_s": "s",
}


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def program_caches() -> list:
    """Every functools cache held by a loaded rvnorms module."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "rvnorms" or module is None:
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                seen[id(value)] = value
    return list(seen.values())


def call_cli(main, argv):
    """(seconds, exit code or exception, stdout) of one CLI command."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(buf):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # an operation that raises is counted as failed
        rc = exc
    return time.perf_counter() - start, rc, buf.getvalue()


def run_pass(main, ops, clock, before_op=None, probe=None):
    """Run every operation once; returns [(seconds, rc, stdout)], the pass
    wall time and each operation's time at reference speed.  ``probe(True)``
    and ``probe(False)`` bracket each operation; the clock is sampled between
    operations, outside their timing."""
    results, kernel_ms = [], []
    start = time.perf_counter()
    for op in ops:
        kernel_ms.append(clock.sample())
        if before_op is not None:
            before_op()
        if probe is not None:
            probe(True)
        results.append(call_cli(main, op.argv))
        if probe is not None:
            probe(False)
    kernel_ms.append(clock.sample())
    scaled = [clock.scale(r[0], a, b) for r, a, b in zip(results, kernel_ms, kernel_ms[1:])]
    return results, time.perf_counter() - start, scaled


def judge(workload, op, rc, stdout):
    """None, ("error", why) or ("wrong", why) for one operation."""
    if isinstance(rc, BaseException):
        return "error", f"{type(rc).__name__}: {rc}"
    try:
        out = json.loads(stdout)
    except ValueError:
        out = None
    if isinstance(out, dict):
        wrong = workload.check(op, out)
        if wrong:
            return "wrong", wrong
    elif rc == 0:
        return "wrong", f"stdout is not a JSON object: {stdout[:80]!r}"
    if rc != 0:
        return "error", f"exit code {rc!r}"
    return None


def tally(workload, ops, results):
    """(failed count, whether any output was wrong, messages) for one pass."""
    failed, wrong, messages = 0, False, []
    for op, (_, rc, stdout) in zip(ops, results):
        verdict = judge(workload, op, rc, stdout)
        if verdict:
            failed += 1
            wrong = wrong or verdict[0] == "wrong"
            messages.append(f"{' '.join(op.argv)}: {verdict[1]}")
    return failed, wrong, messages


def set_up(workload, seed, workdir, cli, clear_caches, clock):
    """Write the inputs and make a warm-up pass, SETUP_REPEATS times from
    empty caches; returns the operations, the median set-up time at reference
    speed and the median warm-up wall time.  Like the timed passes, the
    warm-up is scaled operation by operation."""
    before_op = clear_caches if workload.cold else None
    setups, warmups = [], []
    for _ in range(SETUP_REPEATS):
        k0 = clock.sample()
        t0 = time.perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        ops = workload.build(seed, workdir)
        clear_caches()
        t1 = time.perf_counter()
        inputs_s = clock.scale(t1 - t0, k0, clock.sample())
        results, _, scaled = run_pass(cli.main, ops, clock, before_op)
        setups.append(inputs_s + sum(scaled))
        warmups.append(sum(seconds for seconds, _, _ in results))
    return ops, statistics.median(setups), statistics.median(warmups)


class CacheCounter:
    """Hits and misses of one functools cache, read around each operation so
    that a ``cache_clear`` between operations loses no counts."""

    def __init__(self, cache):
        self.cache = cache
        self.hits = self.misses = 0
        self._start = (0, 0)

    def __call__(self, before: bool) -> None:
        info = self.cache.cache_info()
        if before:
            self._start = (info.hits, info.misses)
        else:
            self.hits += info.hits - self._start[0]
            self.misses += info.misses - self._start[1]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "rvnorms" / "cli.py").is_file():
        print(f"error: no rvnorms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from rvnorms import cli

    import tracing
    from hostspeed import HostClock
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _START
    workload = WORKLOADS[args.workload]
    clock = HostClock(workload.calibration)
    import_scaled = clock.scale(import_s, clock.sample(), clock.sample())
    caches = program_caches()

    def clear_caches():
        for cache in caches:
            cache.cache_clear()

    workdir = ROOT / ".bench_runs" / f"{workload.name}-{os.getpid()}"
    try:
        ops, setup_s, warmup_s = set_up(workload, args.seed, workdir, cli, clear_caches, clock)
        setup_s += import_scaled

        main_fn, counter = cli.main, None
        if args.trace:
            placement = next((c for c in caches if c.__name__ == "placement_terms"), None)
            counter = CacheCounter(placement) if placement is not None else None
            tracer = tracing.Tracer()
            tracer.install()
            main_fn = tracer.wrap(tracing.OP_SPAN, cli.main)

        before_op = clear_caches if workload.cold else None
        latencies, wall, failed, messages = [], 0.0, 0, []
        first_stdouts, passes, wrong_any = None, 0, False
        gc.collect()
        while wall < args.seconds or len(latencies) < MIN_OPS:
            results, seconds, scaled = run_pass(main_fn, ops, clock, before_op, counter)
            wall += seconds
            passes += 1
            latencies.extend(scaled)
            n_failed, wrong, msgs = tally(workload, ops, results)
            failed += n_failed
            wrong_any = wrong_any or wrong
            messages.extend(msgs)
            if first_stdouts is None:
                first_stdouts = [stdout for _, _, stdout in results]
            gc.collect()

        def rerun(cmd):
            _, rc, stdout = call_cli(cli.main, cmd)
            return rc, stdout

        rechecked = workload.recheck(ops, first_stdouts, rerun)
        if rechecked:
            wrong_any = True
            failed += passes * len(rechecked)
            messages.extend(rechecked)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lat_ms = [v * 1e3 for v in latencies]
    p50 = statistics.median(lat_ms)
    if args.trace:
        per_op = tracer.per_op()
        metrics = tracing.layer_metrics(per_op)
        if counter is not None:
            hits, misses = counter.hits, counter.misses
        else:  # no cache: every call computes
            hits, misses = 0, sum(op.get("words.placement", (0,))[0] for op in per_op)
        metrics["words.placement_misses"] = misses / len(latencies)
        metrics["words.placement_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        metrics["oracle.samples_per_s"] = tracing.samples_per_s(per_op, workload.samples)
        metrics["setup.import_s"] = import_s
        metrics["setup.warmup_s"] = warmup_s
        tracer.dump(
            ROOT / ".bench_runs" / f"trace-{workload.name}",
            {"workload": workload.name, "seed": args.seed, "operations": len(latencies),
             "latency_p50_ms": p50, "metrics": metrics},
        )
        report = {name: {"value": v, "unit": layer_unit(name)} for name, v in metrics.items()}
    else:
        values = {
            "setup_s": setup_s,
            "ops_per_s": len(latencies) / sum(latencies),
            "latency_p50_ms": p50,
            "latency_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        report = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in values.items()}

    for msg in messages[:5]:
        print(f"failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not wrong_any,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": report,
    }))
    return 0


def layer_unit(name: str) -> str:
    import tracing

    if name in tracing.SPAN_METRICS:
        return {"calls": "count", "ms": "ms"}[tracing.SPAN_METRICS[name][1]]
    return EXTRA_LAYER_UNITS[name]


if __name__ == "__main__":
    sys.exit(main())
