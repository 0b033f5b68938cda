"""perfbench: one end-to-end benchmark over the recipe structuring and search stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload structure|serve_mixed|ingest_live \
        [--seed N] [--seconds S] [--trace 0|1] [--train-seed N]

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1`` (a traced run also
writes its spans under ``.perfbench_work/traces/``).  See README.md.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import harness  # noqa: E402

WORKLOADS = ("structure", "serve_mixed", "ingest_live")
#: Metric names and units, from the benchmark's description.  With
#: ``--trace 1`` every workload reports every per-layer metric; a workload
#: that does not load a layer reports 0 for it.  Per-layer times and counts
#: are per round (structure), per request of the named kind (serve_mixed)
#: or per wave (ingest_live).
_DESCRIPTION = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {metric["name"]: metric["unit"] for metric in _DESCRIPTION["end_to_end"]}
PER_LAYER_UNITS = {metric["name"]: metric["unit"] for metric in _DESCRIPTION["per_layer"]}


def parse_arguments(argv=None) -> harness.Config:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="input seed (default: 0)")
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(_DESCRIPTION["run_seconds"]),
        help=f"measured-phase length (default: run_seconds, {_DESCRIPTION['run_seconds']})",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--train-seed",
        type=int,
        default=0,
        help="seed of the training corpora and models (default: 0)",
    )
    arguments = parser.parse_args(argv)
    return harness.Config(
        workload=arguments.workload,
        seed=arguments.seed,
        seconds=arguments.seconds,
        trace=bool(arguments.trace),
        train_seed=arguments.train_seed,
    )


def execute(config: harness.Config, start: float) -> harness.Outcome:
    """Run one workload; fills in ``setup_s`` or the per-layer metrics.

    ``setup_s`` is one cold set-up, from ``start`` (the process's start) to
    the end of set-up, scaled to reference host speed lap by lap
    (:class:`harness.SetupClock`).
    """
    harness.PROBE_STATS.update(retaken=0, busy=0)
    clock = harness.SetupClock(start)
    harness.use_source_tree()
    tracer = None
    if config.trace:
        import tracing

        tracer = tracing.Tracer()
    if config.workload == "structure":
        import workload_structure as module
    elif config.workload == "serve_mixed":
        import workload_serve as module
    else:
        import workload_ingest as module
    outcome = module.run(config, clock, tracer)
    setup_s = clock.scaled_s
    if harness.PROBE_STATS["busy"]:
        outcome.problems.append(
            f"the program used CPU during {harness.PROBE_STATS['busy']} host-speed probe(s) "
            f"in each of {harness.PROBE_ATTEMPTS} tries; their scale factors are not valid"
        )
    if config.trace:
        layers = outcome.notes.pop("layers", {})
        unknown = set(layers) - set(PER_LAYER_UNITS)
        if unknown:
            raise RuntimeError(f"undeclared per-layer metrics: {sorted(unknown)}")
        # The traced run's end-to-end figures, for the tracing overhead only.
        outcome.notes["traced_end_to_end"] = {
            name: round(value, 4) for name, (value, _unit) in outcome.metrics.items()
        }
        outcome.metrics = {
            name: (float(layers.get(name, 0.0)), unit)
            for name, unit in PER_LAYER_UNITS.items()
        }
        path = harness.TRACE_DIR / f"{config.workload}-seed{config.seed}.json"
        tracer.write(path, {"workload": config.workload, "seed": config.seed})
        outcome.notes["trace_file"] = str(path.relative_to(harness.ROOT))
    else:
        outcome.metrics["setup_s"] = (setup_s, "s")
        missing = set(END_TO_END_UNITS) - set(outcome.metrics)
        if missing:
            raise RuntimeError(f"workload did not report {sorted(missing)}")
        outcome.metrics = {
            name: (float(outcome.metrics[name][0]), unit)
            for name, unit in END_TO_END_UNITS.items()
        }
    outcome.notes["setup_s"] = round(setup_s, 3)
    outcome.notes["unscaled_setup_s"] = round(clock.raw_s, 3)
    outcome.notes["setup_probes_ms"] = [round(1000 * value, 2) for value in clock.probes]
    outcome.notes["probes_retaken"] = harness.PROBE_STATS["retaken"]
    return outcome


def main(argv=None) -> int:
    config = parse_arguments(argv)
    outcome = execute(config, START)
    for problem in outcome.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"workload": config.workload, "seed": config.seed, **outcome.notes}))
    print(harness.result_line(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
