#!/usr/bin/env python3
"""The end-to-end benchmark: one command, six workloads, every metric.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py                      # all workloads, both passes
    python3 benchmarks/e2e/run.py --quick              # same code paths, tiny streams
    python3 benchmarks/e2e/run.py --out results.json   # append this run to a result file
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Without ``--workload`` every workload runs in its own subprocess.  With
it, this process is the workload: ``--trace 0`` is the untraced pass
(end-to-end metrics), ``--trace 1`` the traced pass (per-layer metrics),
``--trace 2`` (the default) both.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

The program is loaded from the checkout's ``src/``; nothing outside the
checkout is read or written.  See ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import sys
from time import perf_counter

_STARTED = perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

sys.path.insert(0, HERE)

from harness import (  # noqa: E402
    REF_OPS_PER_S,
    SpeedClock,
    Tracer,
    machine_metadata,
    machine_speed,
    run_child,
)
from metrics import E2E, GATED, METRICS, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: fresh-process set-ups per run; setup_s is their median
SETUP_PROBES = 5


def _load_measure():
    """Import the measurement module — and with it the program."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"run.py: no program to measure: {SRC}/repro is missing")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import measure

    return measure


# -- set-up time, measured in fresh processes --------------------------------------


def setup_probe(name: str) -> None:
    """Child side: import the program, parse, construct; print the stamps.

    ``perf_counter`` is the system-wide monotonic clock on Linux, so the
    parent can subtract its own spawn stamp from ``ready``.
    """
    speed_before = machine_speed()
    began = perf_counter()
    measure = _load_measure()
    imported = perf_counter()
    stamps = measure.setup_stages(WORKLOADS[name])
    speed_after = machine_speed()
    print(json.dumps({
        # the benchmark's own start-up (argument parsing, its imports and
        # the first calibration slice) is not the program's set-up
        "harness_s": began - _STARTED,
        "import_began": began,
        "imported": imported,
        "speed": (speed_before + speed_after) / 2.0,
        **stamps,
    }))


def measure_setup(name: str, probes: int) -> dict:
    """Parent side: ``probes`` fresh processes; medians in calibrated seconds.

    ``setup_s`` runs from the spawn to *ready for the first event*:
    interpreter start, ``import repro``, ``parse_query`` of the
    workload's texts, engine/cluster construction (which analyzes the
    queries).  Stream generation is the load generator, not set-up.
    Returns the medians and the last probe's raw stamps (for the spans).
    """
    samples: list[dict] = []
    for _ in range(probes):
        spawned = perf_counter()
        child = run_child([os.path.join(HERE, "run.py"), "--setup-probe", name],
                          timeout=120)
        reaped = perf_counter()
        if child.returncode != 0:
            sys.exit(f"run.py: set-up probe for {name} failed")
        stamps = json.loads(child.stdout.strip().splitlines()[-1])
        factor = stamps["speed"] / REF_OPS_PER_S
        raw = stamps["ready"] - spawned - stamps["harness_s"]
        if not 0.0 < raw < reaped - spawned:
            # clocks not comparable across processes here: fall back to
            # the child's own span, which misses interpreter start
            raw = stamps["ready"] - stamps["import_began"]
        stamps["spawned"] = spawned
        samples.append({
            "setup_s": raw * factor,
            "interface.parse_s": (stamps["parsed"] - stamps["began"]) * factor,
            "core.analyzer.analyze_s":
                (stamps["analyzed"] - stamps["ready"]) * factor,
            "core.analyzer.groups": stamps["groups"],
            "core.analyzer.operators_planned": stamps["operators_planned"],
        })
    medians = {
        key: statistics.median(s[key] for s in samples) for key in samples[0]
    }
    return {"medians": medians, "stamps": stamps}


def record_setup_spans(tracer: Tracer, stamps: dict) -> None:
    """The last probe's set-up as spans: setup -> import / parse / construct."""
    span = tracer.record("setup", stamps["spawned"], stamps["ready"])
    tracer.record("import", stamps["import_began"], stamps["imported"], span)
    tracer.record("interface.parse", stamps["began"], stamps["parsed"], span)
    tracer.record("construct", stamps["parsed"], stamps["ready"], span)
    # the direct analyzer call follows "ready": a sibling, not a child
    tracer.record("core.analyzer.analyze", stamps["ready"], stamps["analyzed"])


# -- one workload, in this process ---------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 quick: bool) -> dict:
    """Run the selected passes of one workload; return the detail record."""
    measure = _load_measure()
    spec = WORKLOADS[name]
    run_id = f"{name}-seed{seed}"
    tracer = Tracer(run_id)
    clock = SpeedClock()
    do_e2e = trace in (0, 2)
    do_layers = trace in (1, 2)

    probed = measure_setup(name, SETUP_PROBES if do_e2e and not quick else 1)
    setup = probed["medians"]
    record_setup_spans(tracer, probed["stamps"])

    t0 = perf_counter()
    inputs = measure.generate(spec, seed, quick)
    tracer.record("datagen", t0, perf_counter(), events=len(inputs.events))
    events = len(inputs.events)
    queries = measure.parse(spec)

    warmup = measure.run_replay(spec, queries, inputs, clock)
    reference = None
    if spec.kind == "sharded":
        # the same stream and queries through the in-process batched path
        inprocess = dataclasses.replace(spec, kind="session")
        reference = [measure.run_replay(inprocess, queries, inputs, clock)]

    metrics: dict[str, float] = {}
    detail: dict = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "events": events,
        "stream_digest": inputs.digest,
        "result_digest": warmup.digest,
    }
    digests = [warmup.digest]
    if do_e2e:
        result = measure.e2e_pass(spec, queries, inputs, clock, seconds, quick,
                                  warmup)
        metrics.update(result["metrics"])
        metrics["setup_s"] = setup["setup_s"]
        digests += result["digests"]
        detail["e2e"] = {"replay_calibrated_s": result["replay_calibrated_s"]}
    if do_layers:
        result = measure.layer_pass(spec, queries, inputs, clock, seconds, quick,
                                    warmup, tracer)
        layer_metrics = result["metrics"]
        if reference is not None:
            reference += [
                measure.run_replay(inprocess, queries, inputs, clock)
                for _ in range(2)
            ]
            layer_metrics["parallel.backend.speedup_vs_inprocess"] = (
                statistics.median(r.timing.calibrated_s for r in reference)
                / result["untraced_calibrated_s"]
            )
        # where both passes measured the same thing, the untraced one wins
        metrics = {**layer_metrics, **metrics}
        digests += result["digests"]
        detail["layers"] = {
            k: result[k]
            for k in ("replay_calibrated_s", "layer_table", "replay_wall_s")
        }
        for key in ("interface.parse_s", "core.analyzer.analyze_s",
                    "core.analyzer.groups", "core.analyzer.operators_planned"):
            metrics[key] = setup[key]
        metrics["datagen.gen_s"] = inputs.gen_s
        metrics["datagen.events_per_s"] = events / inputs.gen_s

    # -- correctness gate ----------------------------------------------------------
    t0 = perf_counter()
    checked, failed, notes = measure.check_against_oracle(
        spec, queries, inputs, warmup.rows, quick
    )
    replays_off = sum(1 for d in digests[1:] if d != digests[0])
    attempted = checked + len(digests) - 1
    failures = failed + replays_off
    if replays_off:
        notes.append(f"{replays_off} replays differ from the first result digest")
    if reference is not None:
        rows, bad = measure.check_rows_match(queries, reference[0].rows,
                                             warmup.rows)
        attempted += rows
        failures += bad
        if bad:
            notes.append(f"{bad} of {rows} rows differ from the in-process run")
    check_s = perf_counter() - t0
    metrics["failed_share"] = failures / attempted
    if do_layers:
        metrics["check.windows_checked"] = checked
        metrics["check.windows_failed"] = failed
        metrics["check.check_s"] = check_s
        metrics["harness.calibration_ops_per_s"] = statistics.median(clock.speeds)
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, f"trace-{run_id}.jsonl")
        tracer.write_jsonl(trace_path)
        detail["trace_file"] = os.path.relpath(trace_path, ROOT)
    detail.update({
        "metrics": metrics,
        "attempted": attempted,
        "failed": failures,
        "notes": notes,
        "calibration": {
            "first_ops_per_s": clock.speeds[0],
            "last_ops_per_s": clock.speeds[-1],
            "median_ops_per_s": statistics.median(clock.speeds),
            "samples": len(clock.speeds),
        },
        "wall_s": perf_counter() - _STARTED,
    })
    return detail


# -- printing ------------------------------------------------------------------------


def _fmt(value: float) -> str:
    if isinstance(value, bool) or float(value).is_integer() and abs(value) < 1e9:
        return f"{value:,.0f}"
    if abs(value) >= 1000:
        return f"{value:,.1f}"
    return f"{value:.4g}"


def print_detail(detail: dict) -> None:
    name = detail["workload"]
    metrics = detail["metrics"]
    print(f"\n== {name}  (seed {detail['seed']}, {detail['events']:,} events, "
          f"{detail['wall_s']:.1f} s) -- {WORKLOADS[name].why}")
    layer_names = [n for n in METRICS if n not in E2E]
    for title, names in (("end to end", E2E), ("per layer", layer_names)):
        present = [n for n in names if n in metrics]
        if present:
            print(f"  -- {title}")
        for metric in present:
            print(f"  {metric:<46}{_fmt(metrics[metric]):>16} {METRICS[metric].unit}")
    for title, key in (("timed replays", "e2e"), ("traced replays", "layers")):
        if key in detail:
            walls = detail[key]["replay_calibrated_s"]
            print(f"  -- {title}: n={walls['n']}, calibrated wall median "
                  f"{walls['median']:.4f} s, quartiles {walls['q1']:.4f} to "
                  f"{walls['q3']:.4f}, min to max {walls['min']:.4f} to "
                  f"{walls['max']:.4f}")
    if "layers" in detail:
        wall = detail["layers"]["replay_wall_s"]
        print(f"  -- layer table (self time, raw seconds; replay wall {wall:.4f} s)")
        for layer, seconds, share in detail["layers"]["layer_table"]:
            print(f"  {layer:<46}{seconds:>14.4f} s {share:>7.1%}")
    state = "ok" if not detail["failed"] else "FAILED"
    print(f"  correctness: {state} -- {detail['failed']} of "
          f"{detail['attempted']} checks failed")
    for note in detail["notes"]:
        print(f"    {note}")


def driver_line(detail: dict, trace: int) -> str:
    """The one-line JSON result: every ``end_to_end`` metric for
    ``--trace 0``, every ``per_layer`` metric for ``--trace 1`` (a layer
    that does not run in this workload reads 0)."""
    metrics = detail["metrics"]
    names = GATED if trace == 0 else PER_LAYER if trace == 1 else tuple(metrics)
    return json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {
            name: {"value": metrics.get(name, 0), "unit": METRICS[name].unit}
            for name in names
        },
    })


# -- every workload, each in its own process -----------------------------------------


def check_predictions(runs: dict[str, dict]) -> list[dict]:
    """The layer→end-to-end predictions the benchmark was built on."""
    def metric(workload, name):
        return runs.get(workload, {}).get("metrics", {}).get(name)

    def share(workload, layer):
        table = runs.get(workload, {}).get("layers", {}).get("layer_table", ())
        return next((s for n, _, s in table if n == layer), None)

    checks = [
        ("core.engine.insert_s >= 80% of replay on tumbling_batched",
         share("tumbling_batched", "core.engine.insert"), lambda v: v >= 0.80),
        ("core.engine.cut_close_s >= 50% of replay on sliding_overlap",
         share("sliding_overlap", "core.engine.cut_close"), lambda v: v >= 0.50),
        ("root is the bottleneck node on cluster_three_tier",
         metric("cluster_three_tier", "cluster.bottleneck_is_root"),
         lambda v: v >= 1.0),
        ("parallel.backend.speedup_vs_inprocess < 1 at 2 shards "
         "(base: tumbling_batched path, same stream)",
         metric("sharded_tumbling", "parallel.backend.speedup_vs_inprocess"),
         lambda v: v < 1.0),
    ]
    return [
        {"prediction": text, "observed": observed,
         "met": None if observed is None else bool(test(observed))}
        for text, observed, test in checks
    ]


def run_all(args) -> int:
    names = list(WORKLOADS)
    runs: dict[str, dict] = {}
    os.makedirs(OUT_DIR, exist_ok=True)
    for name in names:
        detail_path = os.path.join(OUT_DIR, f"detail-{name}-seed{args.seed}.json")
        argv = [os.path.join(HERE, "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--detail", detail_path]
        if args.quick:
            argv.append("--quick")
        child = run_child(argv, timeout=900)
        if child.returncode != 0 or not os.path.exists(detail_path):
            sys.stdout.write(child.stdout)
            print(f"run.py: workload {name} failed (exit {child.returncode})")
            return 1
        with open(detail_path) as handle:
            runs[name] = json.load(handle)
        print_detail(runs[name])
    failed = sum(r["failed"] for r in runs.values())
    summary = {
        "machine": machine_metadata(),
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "workloads": runs,
        "predictions": check_predictions(runs) if args.trace != 0 else [],
        "failed": failed,
        "claim": None,
    }
    if args.out:
        document = {"runs": []}
        if os.path.exists(args.out):
            with open(args.out) as handle:
                document = json.load(handle)
        document["runs"].append(summary)
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1)
    print("\n== summary")
    print(json.dumps({
        "machine": summary["machine"],
        "workloads": {
            name: {m: run["metrics"][m] for m in E2E if m in run["metrics"]}
            for name, run in runs.items()
        },
        "predictions": summary["predictions"],
        "failed": failed,
        "claim": None,
    }, indent=1))
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds one pass measures (default 10, quick 1)")
    parser.add_argument("--trace", type=int, nargs="?", const=2, default=2,
                        choices=(0, 1, 2),
                        help="0 untraced pass, 1 traced pass, 2 both (default)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny streams, same code paths and metric names")
    parser.add_argument("--out", help="append this run to a JSON result file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="apply the bounds to two result files")
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", choices=list(WORKLOADS),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.compare:
        from compare import compare_files

        return compare_files(*args.compare)
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else 10.0
    if args.workload is None:
        return run_all(args)
    detail = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          args.quick)
    if args.detail:
        with open(args.detail, "w") as handle:
            json.dump(detail, handle)
    print_detail(detail)
    print(driver_line(detail, args.trace))
    return 0 if detail["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
