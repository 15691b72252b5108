"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload fig8-sweep|naive-mc|service-mix \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from
``src/`` and writes only under ``.perfbench/``.  With ``--trace 0`` it
measures the end-to-end metrics with tracing off; with ``--trace 1`` it
makes a separate traced run that attributes time and counts to the
program's layers and reports the tracing overhead.  BENCHMARK.json
names the metrics of each mode and their units.

Human-readable lines come first: the environment stamp, every metric
by name with its unit, timing distributions under the percentile rule,
and any failed check.  The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

from common import (ROOT, SETUP_REPEATS, STATE, child_env,
                    children_peak_rss_mb, have_program, prepare,
                    probe_setup, self_peak_rss_mb, stop_resource_tracker)
from summary import Tally, describe, median, ratio

WORKLOADS = ("fig8-sweep", "naive-mc", "service-mix")


def _setup_s(probe, tally: Tally, report: list[str]) -> float:
    """Median of several fresh set-ups; a failing one is a failed op."""
    times = []
    for _ in range(SETUP_REPEATS):
        try:
            times.append(probe())
        except Exception as exc:  # counted; the run reports it
            tally.error("set-up probe", exc)
        else:
            tally.check(True, "set-up probe")
    report.append("set-up probes: "
                  + " ".join(f"{t:.3f}" for t in times) + " s")
    return median(times)


def _e2e(out: dict, setup_s: float, peak_rss_mb: float) -> dict:
    return {"setup_s": setup_s, "wall_s": out["wall_s"],
            "sims": out["sims"], "samples_per_s": out["samples_per_s"],
            "peak_rss_mb": peak_rss_mb}


def end_to_end(workload: str, seed: int, seconds: float, tally: Tally,
               report: list[str]) -> dict:
    """The end-to-end metrics of one untraced run."""
    if workload == "fig8-sweep":
        import wl_fig8

        out = wl_fig8.measure(seed, seconds, tally)
        report.append(f"sweep wall: {describe(out['walls'], 's')}")
        report.append("wall, sims by pool seed: "
                      + json.dumps(out["details"]))
        peak = self_peak_rss_mb()
        return _e2e(out, _setup_s(lambda: probe_setup(workload), tally,
                                  report), peak)
    if workload == "naive-mc":
        import wl_naive

        out = wl_naive.measure(seed, seconds, tally)
        report.append(f"run wall: {describe(out['walls'], 's')}")
        # Pool workers do the labelling.  They are the only children
        # waited for so far, so this is their peak; the serial check
        # and the set-up probes come after.
        peak = max(children_peak_rss_mb(), self_peak_rss_mb())
        wl_naive.check_serial(out["first"], tally)
        return _e2e(out, _setup_s(lambda: probe_setup(workload), tally,
                                  report), peak)
    import wl_service

    out = wl_service.measure(seed, seconds, tally)
    for key, label in (("job_ms", "fresh array job"),
                       ("hit_ms", "duplicate (cache hit)"),
                       ("healthz_ms", "GET /healthz"),
                       ("list_ms", "GET /jobs"),
                       ("wall_ms", "whole cycle")):
        report.append(f"{label}: "
                      f"{describe([c[key] for c in out['cycles']], 'ms')}")
    report.append("estimate job queued->done: " + describe(
        [e["job_s"] for e in out["estimates"]], "s"))
    missing = sum(not c["stream_saw_done"] for c in out["cycles"])
    report.append(f"event streams closed before their done event: "
                  f"{missing} of {len(out['cycles'])}")
    return _e2e(out, _setup_s(wl_service.probe_setup, tally, report),
                out["peak_rss_mb"])


def _overhead(metrics: dict, untraced, traced) -> None:
    plain, with_trace = median(untraced), median(traced)
    metrics["trace.ops"] = float(len(traced))
    metrics["trace.overhead_s"] = with_trace - plain
    metrics["trace.overhead_ratio"] = ratio(with_trace - plain, plain)


def per_layer(workload: str, seed: int, seconds: float, tally: Tally,
              tracer) -> dict:
    """The per-layer metrics of one traced run."""
    import layers
    from tracing import layer_totals

    metrics = layers.zero()
    if workload == "service-mix":
        import wl_service

        out = wl_service.run_session(seed, seconds, tally, tracer)
        cycles, estimates = out["cycles"], out["estimates"]
        metrics.update(layers.from_metadata(
            [e["metadata"] for e in estimates], max(1, len(estimates))))
        metrics.update(wl_service.layer_metrics(cycles, estimates))
        _overhead(metrics,
                  [c["wall_ms"] / 1e3 for c in cycles if not c["traced"]],
                  [c["wall_ms"] / 1e3 for c in cycles if c["traced"]])
    else:
        if workload == "fig8-sweep":
            import wl_fig8 as module
        else:
            import wl_naive as module
        out = module.traced(seed, seconds, tally, tracer)
        ops = max(1, len(out["traced"]))
        metrics.update(layers.from_spans(layer_totals(tracer.spans), ops))
        metrics.update(layers.from_metadata(out["metas"], ops))
        _overhead(metrics, out["untraced"], out["traced"])
    return layers.derive(metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int,
                        choices=(0, 1))
    args = parser.parse_args(argv)

    benchmark_json = ROOT / "BENCHMARK.json"
    if not have_program() or not benchmark_json.is_file():
        print(f"perfbench: no program under {ROOT / 'src'} (or no "
              f"BENCHMARK.json); run from the root of a checkout",
              file=sys.stderr)
        return 2
    declared = json.loads(benchmark_json.read_text())[
        "per_layer" if args.trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}

    # SIGTERM unwinds like an exception, so every ``finally`` runs and
    # the daemon or pool this run started is stopped and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    prepare()
    import envstamp
    from tracing import Tracer

    tally = Tally()
    report: list[str] = []
    tracer = Tracer()
    started = time.perf_counter()
    try:
        if args.trace:
            metrics = per_layer(args.workload, args.seed, args.seconds,
                                tally, tracer)
        else:
            metrics = end_to_end(args.workload, args.seed, args.seconds,
                                 tally, report)
    finally:
        stop_resource_tracker()
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} do not match "
            f"BENCHMARK.json")

    stamp = envstamp.stamp(ROOT, child_env())
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "elapsed_s": time.perf_counter() - started,
              "stamp": stamp, "metrics": metrics,
              "attempted": tally.attempted, "failures": tally.failures,
              "spans": tracer.as_rows()}
    out_path = (STATE / f"record-{args.workload}-seed{args.seed}"
                f"-trace{args.trace}.json")
    out_path.write_text(json.dumps(record) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  ({record['elapsed_s']:.1f} s)")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for line in report:
        print(line)
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(f"fail_ratio: {tally.fail_ratio:.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for failure in tally.failures:
        print(f"FAILED: {failure}")
    print(f"record: {out_path.relative_to(ROOT)}")
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
