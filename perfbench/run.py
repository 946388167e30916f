"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep_dense --seed 1 \
        --seconds 10 --trace 0

``--seconds`` sizes the run: each workload runs a seed-determined
schedule holding about that many seconds of operations (see
``Workload.schedule``).  ``--trace 0`` sets the program up several
times (the median is ``setup_s``), runs the schedule closed-loop,
checks every answer against the ``cpu_scan`` referee and prints the
end-to-end metrics.  ``--trace 1`` runs the schedule three times
(untraced, with every layer wrapped, untraced again) and prints the
per-layer metrics, the traced and untraced end-to-end numbers side by
side, and any drift of the exact counters against an earlier run of
the same seed, schedule and code.  The last line of standard output is
one JSON object; the exit code is non-zero when an answer differs from
the referee or an exact counter drifted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STATE = ROOT / ".perfbench_state"
#: program set-ups per --trace 0 run; setup_s is their median.
SETUPS = 3

E2E_UNITS = {
    "search_p50_ms": "ms", "search_tail_ms": "ms", "ops_per_s": "1/s",
    "answered_frac": "ratio", "setup_s": "s", "peak_rss_mb": "MiB",
    "modeled_s": "s",
}


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it:
    ``(value, percentile)``.  Needs at least 11 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    return ordered[n - 11], 100.0 * (n - 10) / n


def latency(samples: list[float]) -> tuple[float, float, float]:
    """``(p50 ms, tail ms, tail percentile)`` of seconds samples."""
    value, pct = tail(samples)
    return 1e3 * statistics.median(samples), 1e3 * value, pct


def ops_per_s(phase) -> float:
    """Median over the schedule's blocks of operations per second: a
    burst of contention from outside the program skews one block, not
    the figure."""
    return statistics.median(ops / secs for ops, secs in phase.windows)


def end_to_end(phase) -> tuple[dict[str, float], list[str]]:
    """The end-to-end metrics of one session plus printable lines."""
    p50, tail_ms, pct = latency(phase.search_lat)
    n = len(phase.search_lat)
    bad = phase.failed + phase.mismatched
    values = {
        "search_p50_ms": p50,
        "search_tail_ms": tail_ms,
        "ops_per_s": ops_per_s(phase),
        "answered_frac": (phase.attempted - bad) / phase.attempted,
        "setup_s": statistics.median(phase.setup_s),
        "peak_rss_mb": phase.peak_rss_mb,
        "modeled_s": phase.modeled_s,
    }
    lines = [
        f"search_p50_ms = {p50:.3f} ms (n={n})",
        f"search_tail_ms = {tail_ms:.3f} ms (p{pct:.1f}, n={n})",
        f"ops_per_s = {values['ops_per_s']:.3f} 1/s (median of "
        f"{len(phase.windows)} blocks; overall {phase.ops} ops in "
        f"{phase.busy_s:.3f} s)",
        f"failed_frac = {bad / phase.attempted:.6f} "
        f"(failed={phase.failed}, mismatched={phase.mismatched}, "
        f"attempted={phase.attempted})",
        f"answered_frac = {values['answered_frac']:.6f} ratio",
        f"setup_s = {values['setup_s']:.3f} s (median of "
        f"{len(phase.setup_s)}: "
        f"{', '.join(f'{s:.3f}' for s in phase.setup_s)})",
        f"peak_rss_mb = {phase.peak_rss_mb:.1f} MiB",
        f"modeled_s = {phase.modeled_s!r} s (all answered searches)",
    ]
    if phase.write_lat:
        w50, wtail, wpct = latency(phase.write_lat)
        nw = len(phase.write_lat)
        lines += [f"write_p50_ms = {w50:.3f} ms (n={nw})",
                  f"write_tail_ms = {wtail:.3f} ms (p{wpct:.1f}, n={nw})"]
    return values, lines


def code_digest() -> str:
    """Digest of the program and benchmark sources: exact-counter
    records are only compared within one version of the code."""
    h = hashlib.sha1()
    for base in (ROOT / "src" / "repro", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def load_json(path: Path, default):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return default


def save_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True))
    os.replace(tmp, path)


def measure(workload, seconds: float):
    """--trace 0: set up SETUPS times, run for ``seconds``, check."""
    from perfbench.spans import installed_wrappers
    left = installed_wrappers()
    if left:
        raise RuntimeError(f"wrappers still installed: {left}")
    phase = workload.session(workload.schedule(seconds), setups=SETUPS)
    values, lines = end_to_end(phase)
    return phase, values, lines, []


def traced_session(workload, ops: int):
    """One session of ``ops`` operations with every layer wrapped:
    ``(phase, tracer, missing entry points, per-layer metrics)``."""
    from perfbench.layers import layer_metrics
    from perfbench.spans import Instrumentation, Tracer
    tracer = Tracer()
    with Instrumentation(tracer) as inst:
        phase = workload.session(ops, tracer=tracer)
    metrics = layer_metrics(tracer, cache_hits=phase.cache_hits,
                            cache_misses=phase.cache_misses,
                            bytes_in=phase.bytes_in,
                            bytes_out=phase.bytes_out)
    return phase, tracer, inst.missing, metrics


def traced(workload, seed: int, seconds: float):
    """--trace 1: the schedule untraced, traced, untraced."""
    from perfbench.layers import EXACT_COUNTERS, self_time_table
    from perfbench.spans import installed_wrappers
    left = installed_wrappers()
    if left:
        raise RuntimeError(f"wrappers still installed: {left}")
    # Untraced sessions on both sides of the traced one, so a drift in
    # machine speed over the run does not read as tracing overhead.
    ops = workload.schedule(seconds)
    plain = workload.session(ops)
    phase, tracer, missing, metrics = traced_session(workload, ops)
    left = installed_wrappers()
    if left:
        raise RuntimeError(f"wrappers left installed: {left}")
    plain = _merge(plain, workload.session(ops))
    tracer.write_jsonl(STATE / "spans" / f"{workload.name}-{seed}.jsonl")
    p50_plain, _, _ = latency(plain.search_lat)
    p50_traced, _, _ = latency(phase.search_lat)
    ops_plain = ops_per_s(plain)
    ops_traced = ops_per_s(phase)
    w50 = wtail = 0.0
    if plain.write_lat:
        w50, wtail, _ = latency(plain.write_lat)
    metrics.update({
        "write_p50_ms": w50, "write_tail_ms": wtail,
        "untraced.search_p50_ms": p50_plain,
        "untraced.ops_per_s": ops_plain,
        "traced.search_p50_ms": p50_traced,
        "traced.ops_per_s": ops_traced,
        "trace.overhead_frac": ops_plain / ops_traced - 1.0,
    })
    lines = [f"traced schedule: {ops} "
             f"{'epochs' if workload.name == 'ingest_stream' else 'ops'}"
             f" ({phase.ops} operations)",
             f"untraced: search_p50_ms = {p50_plain:.3f} ms, "
             f"ops_per_s = {ops_plain:.3f} 1/s",
             f"traced:   search_p50_ms = {p50_traced:.3f} ms, "
             f"ops_per_s = {ops_traced:.3f} 1/s, overhead = "
             f"{100 * metrics['trace.overhead_frac']:.1f}%",
             f"accounted: layer self + unwrapped = "
             f"{100 * metrics['trace.accounted_frac']:.2f}% of "
             f"{metrics['trace.root_s']:.3f} s root time",
             "span                                calls      busy_s"
             "      self_s"]
    lines += [f"{name:<34} {calls:>7} {busy:>11.4f} {self_:>11.4f}"
              for name, calls, busy, self_ in self_time_table(tracer)]
    if missing:
        lines.append(f"entry points not found (metrics read 0): "
                     f"{', '.join(missing)}")
    # Exact-counter self-check against an earlier run of this seed.
    record_path = (STATE / "exact"
                   / f"{workload.name}-{seed}-{ops}-{code_digest()}.json")
    exact = {k: metrics[k] for k in EXACT_COUNTERS}
    earlier = load_json(record_path, None)
    drift = []
    if earlier is None:
        save_json(record_path, exact)
        lines.append("exact counters recorded for this seed")
    else:
        drift = [f"{k}: {earlier.get(k)} -> {v}"
                 for k, v in exact.items() if earlier.get(k) != v]
        lines.append("exact counters match the earlier run"
                     if not drift else "exact counters DRIFTED")
    lines += [f"drift {d}" for d in drift]
    return _merge(plain, phase), metrics, lines, drift


def _merge(a, b):
    """One phase pooling the samples, attempts and failures of two."""
    a.search_lat += b.search_lat
    a.write_lat += b.write_lat
    a.busy_s += b.busy_s
    a.windows += b.windows
    a.attempted += b.attempted
    a.failed += b.failed
    a.mismatched += b.mismatched
    a.notes += b.notes
    return a


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep_dense", "serve_http",
                                 "ingest_stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.layers import LAYER_METRICS
    from perfbench.workloads import WORKLOADS

    cache_path = STATE / "referee.json"
    cache = load_json(cache_path, {})
    workload = WORKLOADS[args.workload](
        args.seed, STATE / "work" / f"{args.workload}-{os.getpid()}",
        cache=cache)
    print(f"workload {args.workload} seed {args.seed}: "
          f"{workload.describe()}")
    try:
        if args.trace:
            phase, values, lines, drift = traced(workload, args.seed,
                                                 args.seconds)
            units = {m[0]: m[1] for m in LAYER_METRICS}
        else:
            phase, values, lines, drift = measure(workload, args.seconds)
            units = E2E_UNITS
    finally:
        workload.teardown()
    save_json(cache_path, cache)
    for line in lines + phase.notes:
        print(line)
    correct = phase.mismatched == 0 and not drift
    if not correct:
        print("REFEREE MISMATCH" if phase.mismatched else
              "EXACT COUNTER DRIFT", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": phase.attempted,
        "failed": phase.failed + phase.mismatched,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
