"""homsim benchmark: one workload, timed for --seconds, every output checked.

    python3 benchmark/run.py --workload remote-qd --seed 1 --seconds 35 --trace 0

Run from the root of a source tree: homsim is imported from ./src, inputs
and outputs go to benchmark/_out/. The last line of standard output is one
JSON object with correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. Exits 2
without a result when ./src/homsim is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402

SETUP_FIRST = 3     # import probes before the first round (after one untimed warm-up)
KERNEL_SAMPLES = 3  # reference-kernel timings before the first round and after each
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import homsim.cli; "
                "print(repr(time.perf_counter() - t0))")


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def import_homsim(root):
    src = root / "src"
    if not (src / "homsim" / "__init__.py").is_file():
        fail(f"no homsim source tree under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import homsim
    import homsim.cli
    if Path(homsim.__file__).resolve().parent != (src / "homsim").resolve():
        fail(f"imported homsim from {homsim.__file__}, not from {src}")
    return homsim


def import_seconds(root):
    """Time for a fresh interpreter to import homsim.cli, the cost every
    `homsim` command pays."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    res = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root, env=env,
                         capture_output=True, text=True, timeout=60)
    if res.returncode != 0:
        fail(f"import homsim.cli failed: {res.stderr.strip()}")
    return float(res.stdout.strip())


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(rounds, setup_s, scale):
    """Medians over rounds, in reference seconds: measured seconds times
    scale (1 gives the figures as measured)."""
    return {
        "setup_s": metric(scale * setup_s, "s"),
        "wall_s": metric(scale * statistics.median(r.wall for r in rounds), "s"),
        "throughput_per_s": metric(statistics.median(r.units / r.units_s for r in rounds) / scale,
                                   "1/s"),
        "call_ms": metric(1e3 * scale * statistics.median(c for r in rounds for c in r.calls), "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


LAYER_TIMES = [  # metric name, span name
    ("config.load_config_s", "config.load_config"),
    ("montecarlo.sample_pair_events_s", "montecarlo.sample_pair_events"),
    ("montecarlo.simulate_histogram_s", "montecarlo.simulate_histogram"),
    ("montecarlo.simulate_hbt_purity_s", "montecarlo.simulate_hbt_purity"),
    ("montecarlo.analytic_visibility_s", "montecarlo.analytic_visibility"),
    ("montecarlo.mode_detections_s", "montecarlo.mode_detections"),
    ("montecarlo.detector_s", "montecarlo.detector"),
    ("montecarlo.correlate_s", "montecarlo.correlate"),
    ("model.visibility_inhom_quadrature_s", "model.visibility_inhom_quadrature"),
    ("specfun.integrate_1d_s", "specfun.integrate_1d"),
    ("analysis.peak_areas_s", "analysis.peak_areas"),
    ("fitting.nlls_s", "fitting.nlls"),
]


def per_layer(traced, untraced):
    """Per-round medians over the traced rounds, in seconds as measured."""
    rows = []
    for rnd, tracer in traced:
        dur, calls, work, cli_self = tracer.totals()
        row = {m: dur[s] for m, s in LAYER_TIMES}
        vis_calls = calls["montecarlo.analytic_visibility"]
        row.update({
            "montecarlo.coincidences": rnd.coincidences,
            "montecarlo.blocks": calls["montecarlo.correlate"],
            "montecarlo.detections": work["montecarlo.correlate"],
            "specfun.integrate_1d_calls": calls["specfun.integrate_1d"] / vis_calls if vis_calls else 0,
            "fitting.iterations": work["fitting.nlls"],
            "cli.self_s": cli_self,
            "cli.bytes_written": rnd.bytes_written,
        })
        rows.append(row)
    out = {}
    for name in rows[0]:
        unit = "s" if name.endswith("_s") else "bytes" if name == "cli.bytes_written" else "count"
        out[name] = metric(statistics.median(r[name] for r in rows), unit)
    out["trace.overhead_s"] = metric(statistics.median(r.wall for r, _ in traced)
                                     - statistics.median(r.wall for r in untraced), "s")
    return out


def main(argv=None):
    import spans
    from workloads import KNOWN_FAULTS, WORKLOADS, Context

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        fail("--seed must be >= 0")

    root = Path.cwd()
    homsim = import_homsim(root)
    import_seconds(root)  # leaves the bytecode cache warm
    setup = [import_seconds(root) for _ in range(SETUP_FIRST)]

    out = HERE / "_out" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    ctx = Context(root, out, args.seed, homsim)
    wl = WORKLOADS[args.workload](ctx)
    modules = {m: sys.modules[m] for m in ("homsim.cli", "homsim.montecarlo", "homsim.model",
                                           "homsim.fitting")}

    # Untraced rounds alternate with traced ones in a traced run, so that
    # both see the same machine state; rounds continue until --seconds.
    untraced, traced = [], []
    t_end = time.perf_counter() + args.seconds
    kernel = [calibrate.kernel_seconds() for _ in range(KERNEL_SAMPLES)]
    while True:
        if args.trace and len(untraced) > len(traced):
            tracer = spans.Tracer()
            tracer.install(modules)
            try:
                traced.append((wl.round(tracer), tracer))
            finally:
                tracer.uninstall()
        else:
            untraced.append(wl.round(spans.NullTracer()))
        kernel += [calibrate.kernel_seconds() for _ in range(KERNEL_SAMPLES)]
        setup.append(import_seconds(root))
        if time.perf_counter() >= t_end and (not args.trace or traced):
            break
    scale = calibrate.NOMINAL_S / statistics.median(kernel)
    setup_s = statistics.median(setup)

    rounds = untraced + [r for r, _ in traced]
    attempted = sum(len(r.checks) for r in rounds)
    failed = sum(1 for r in rounds for _, ok, _ in r.checks if not ok)
    correct = all(ok or name in KNOWN_FAULTS for r in rounds for name, ok, _ in r.checks)
    for name, ok, figure in rounds[0].checks:
        print(f"check {name}: {'pass' if ok else 'FAIL'}" + (f" ({figure})" if figure else ""))
    for i, r in enumerate(rounds[1:], start=1):
        for name, ok, figure in r.checks:
            if not ok and name not in KNOWN_FAULTS:
                print(f"check {name} in round {i}: FAIL" + (f" ({figure})" if figure else ""))
    if args.trace:
        metrics = per_layer(traced, untraced)
        absent = set().union(*(t.absent for _, t in traced))
        for name in sorted(absent):
            print(f"absent: {name} (not in this version of homsim; reported as 0)")
        with open(out / "trace.jsonl", "w", encoding="utf-8") as fh:
            for i, (_, tracer) in enumerate(traced):
                for sp in tracer.spans:
                    fh.write(json.dumps({"round": i, "span": sp}) + "\n")
    else:
        metrics = end_to_end(untraced, setup_s, scale)
        raw = end_to_end(untraced, setup_s, 1.0)
        print("as measured: " + ", ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in raw.items()))
    print(f"rounds: {len(untraced)} untraced, {len(traced)} traced; "
          "measured wall_s per round: " + " ".join(f"{r.wall:.3f}" for r in rounds)
          + "; kernel_s: " + " ".join(f"{k:.4f}" for k in kernel))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
