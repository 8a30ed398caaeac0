"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload calc_rr --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports ``orchestra`` from its
``src/`` directory.  With ``--trace 0`` it reports the end-to-end metrics
of an untraced run; with ``--trace 1`` it runs the workload untraced and
then traced on a fresh container, and reports the per-layer metrics plus
the tracing overhead.  A report line with the environment and the details
behind the figures comes first; the last line of standard output is the
result object.  Run artefacts (spans, the persistent store) go under
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Pause before each timed set-up, so the threads of the container just
# torn down have ended; measured to cut the run-to-run spread of setup_s
# on calc_rr from 0.23 to 0.08.
SETUP_GAP_S = 0.05


def import_program():
    """Import orchestra from this checkout's src/, and from nowhere else."""
    if not (SRC / "orchestra" / "__init__.py").is_file():
        sys.exit(f"no orchestra sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import orchestra
    if Path(orchestra.__file__).resolve().parent != (SRC / "orchestra").resolve():
        sys.exit(f"orchestra was imported from {orchestra.__file__}, not from {SRC}")


def rss_bytes() -> int:
    gc.collect()
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def write_bytes() -> int:
    try:
        with open("/proc/self/io") as fh:
            for line in fh:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def timed_setup(workload_cls, seed: int, repeats: int):
    """Set up ``repeats`` fresh instances, keep the last; returns it and the times."""
    times = []
    workload = None
    for i in range(repeats):
        if workload is not None:
            workload.teardown()
        workload = workload_cls(seed, OUT)
        if i == 0:
            workload.prepare()
        time.sleep(SETUP_GAP_S)
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
    return workload, times


def closed_loop(workload, seconds: float) -> dict:
    """Each client calls its op back to back until the deadline."""
    clients = [workload.client(i) for i in range(workload.clients)]
    latencies: list[list[float]] = [[] for _ in clients]
    failed = [0] * len(clients)
    errors: list[str] = []
    gate = threading.Barrier(len(clients) + 1)

    def loop(i: int) -> None:
        op, lat = clients[i], latencies[i]
        gate.wait()
        deadline = started + seconds
        while True:
            t0 = time.perf_counter()
            if t0 >= deadline:
                return
            try:
                ok = op()
            except Exception as e:  # a failed op; the loop must keep running
                ok = False
                if len(errors) < 5:
                    errors.append(f"client {i}: {type(e).__name__}: {e}")
            lat.append(time.perf_counter() - t0)
            if not ok:
                failed[i] += 1

    threads = [threading.Thread(target=loop, args=(i,), name=f"bench-client-{i}")
               for i in range(len(clients))]
    for t in threads:
        t.start()
    started = time.perf_counter()
    gate.wait()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - started
    samples = sorted(x for lat in latencies for x in lat)
    return {"elapsed_s": elapsed, "samples": samples, "failed": sum(failed), "errors": errors}


def run_phase(workload, seconds: float) -> dict:
    """One measured phase with the memory and byte counters around it."""
    from orchestra import transport
    rss0 = rss_bytes()
    socket0, local0, wchar0 = transport.SOCKET_BYTES.value, transport.LOCAL_BYTES.value, write_bytes()
    result = closed_loop(workload, seconds)
    result.update(
        socket_bytes=transport.SOCKET_BYTES.value - socket0,
        local_bytes=transport.LOCAL_BYTES.value - local0,
        write_bytes=write_bytes() - wchar0,
        rss_start=rss0,
        rss_end=rss_bytes(),
    )
    engines = workload.engines()
    result["sessions_retained"] = sum(len(e.session_ids()) - e.live_session_count() for e in engines)
    result["events_retained"] = sum(len(e.events) for e in engines)
    return result


def measure(cls, seed: int, seconds: float, repeats: int, tracer=None) -> tuple[dict, list[float]]:
    """Set up, measure and check one workload; the tracer, if any, follows the phases."""
    workload, setup_times = timed_setup(cls, seed, repeats)
    try:
        failures = workload.finish_setup()
        if tracer is not None:
            tracer.phase = "measure"
        phase = run_phase(workload, seconds)
        if tracer is not None:
            tracer.phase = "check"
        failures += workload.finish()
        phase["file_bytes"] = workload.file_bytes()
    finally:
        workload.teardown()
    phase["check_failures"] = failures
    return phase, setup_times


def end_to_end(phase: dict, setup_times: list[float]) -> tuple[dict, dict]:
    samples = phase["samples"]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_ops_s": (throughput(phase), "1/s"),
        "latency_p50_ms": (percentile(samples, 50) * 1000.0, "ms"),
        "latency_p99_ms": (percentile(samples, 99) * 1000.0, "ms"),
        "rss_mb": (phase["rss_end"] / 2**20, "MB"),
    }
    report = {
        "error_ratio": failed(phase) / attempted(phase),
        "rss_growth_kb_per_kop": (phase["rss_end"] - phase["rss_start"]) / 1024 / (len(samples) / 1000),
        "samples": len(samples),
        "samples_beyond_p99": len(samples) - int(-(-len(samples) * 99 // 100)),
        "measured_s": phase["elapsed_s"],
        "setup_samples_s": setup_times,
        "sessions_retained": phase["sessions_retained"],
        "events_retained": phase["events_retained"],
        "check_failures": phase["check_failures"],
        "errors": phase["errors"],
    }
    return metrics, report


def throughput(phase: dict) -> float:
    """Ops that completed correctly, per second of the measured phase."""
    return (len(phase["samples"]) - phase["failed"]) / phase["elapsed_s"]


def attempted(phase: dict) -> int:
    """Ops sent, plus the items the after-run checks looked at and found wrong."""
    return len(phase["samples"]) + phase["check_failures"]


def failed(phase: dict) -> int:
    return phase["failed"] + phase["check_failures"]


def probe(tracer, seed: int, seconds: float) -> list[dict]:
    """Short runs that reach every layer, for figures the workload does not reach.

    The storage part runs on the same persistent store as ``storage_tier``,
    so every traced run measures the storage layer at full store size.
    Their ops are checked and counted like any others.
    """
    from workloads import GatewayRelay, StorageTier
    tracer.phase = "prepare"  # building the store, if a checkout has none yet, is not probed
    StorageTier(seed, OUT).prepare()
    tracer.phase = "probe"
    return [measure(cls, seed, seconds, 1)[0] for cls in (GatewayRelay, StorageTier)]


def environment(args, cls) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "client_threads": cls.clients,
        "connections": cls.connection_count,
        "link": "socket traffic crossed loopback (127.0.0.1) inside one process; no real link",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)

    phase, setup_times = measure(cls, args.seed, args.seconds,
                                 1 if args.trace else cls.setup_repeats)
    metrics, report = end_to_end(phase, setup_times)
    report["environment"] = environment(args, cls)
    phases = [phase]

    if args.trace:
        from tracing import PER_LAYER, Tracer, instrument, layer_metrics
        tracer = Tracer()
        instrument(tracer)
        try:
            traced, _ = measure(cls, args.seed, args.seconds, 1, tracer)
            probes = probe(tracer, args.seed, min(1.0, args.seconds / 10))
        finally:
            tracer.restore()
        phases += [traced, *probes]
        traced["throughput_ratio"] = throughput(phase) / throughput(traced)
        values, sources = layer_metrics(tracer, len(traced["samples"]), traced, probes[-1])
        metrics = {name: (values[name], unit) for name, unit, _ in PER_LAYER}
        spans_path = OUT / f"spans-{args.workload}.jsonl"
        tracer.write(spans_path)
        report["trace"] = {"ops": len(traced["samples"]), "throughput_ops_s": throughput(traced),
                           "spans_kept": len(tracer.spans),
                           "spans_file": str(spans_path.relative_to(ROOT)),
                           "timing_sources": sources, "errors": traced["errors"]}

    print(json.dumps({"report": report}, sort_keys=True))
    failed_ops = sum(failed(p) for p in phases)
    print(json.dumps({
        "correct": failed_ops == 0,
        "attempted": sum(attempted(p) for p in phases),
        "failed": failed_ops,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
