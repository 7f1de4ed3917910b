"""Benchmark of the ocr_ray extraction job, end to end and layer by layer.

    python3 perfbench/run.py --workload mixed_commit --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.WORKLOADS``): mixed_commit, binpdf_commit,
resume_half, corpus_build. Inputs are generated from ``--seed`` by the
in-repo generators and cached under ``.pb/cache``; every job writes to a
fresh directory under ``.pb/out``.

One run: generate inputs and oracle digests (untimed); open ``SETUPS`` Ray
sessions one after another, each set up by ray.init plus the workload's job
on a tiny input (starts and warms the workers and the kernel; timed as
``setup_s``); in each session call the job repeatedly until its share of
``--seconds`` of job time is measured, checking every output. ``--trace 1``
uses one session and adds a traced pass that calls the layer functions one
by one (see ``tracing.py``), printing the per-layer ledger instead of the
end-to-end metrics.

Output: a JSON line with every metric and the run's context, then, as the
last line, ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback

import harness

SETUPS = 2
WARM_TURNS = 140


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json lists them."""
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return tuple({m["name"]: m["unit"] for m in spec[k]} for k in ("end_to_end", "per_layer"))


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply the workload's input size (the smoke test uses a tiny one)")
    return ap.parse_args(argv)


def rep(wl, inp, out_dir: str, samples: dict[str, list], failed: list):
    """One timed job call, then its untimed correctness check. A job that
    raises fails all of its turns. Returns the job's result (None on error)."""
    wl.before_rep(out_dir)
    with harness.RssSampler() as sampler:
        t0 = time.perf_counter()
        try:
            result = wl.job(inp, out_dir)
        except Exception:
            print(traceback.format_exc(), file=sys.stderr)
            result = None
        samples["wall_s"].append(time.perf_counter() - t0)
    samples["peak_rss_mb"].append(sampler.peak_mb)
    failed.append(inp.turns if result is None
                  else min(inp.turns, wl.check(result, inp, out_dir)))
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    harness.check_repo()
    harness.prepare_env()

    # imported before the first timed setup, so that every setup pays the same
    import ocr_ray.pipelines.extract_pipeline  # noqa: F401
    import ocr_ray.pipelines.training_data  # noqa: F401
    import ray.data  # noqa: F401

    from tracing import traced_run
    from workloads import WORKLOADS, ensure_oracle, make_inputs

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    end_to_end, per_layer = metric_units()
    ncpu = harness.num_cpus()
    probe_before = harness.cpu_probe_mops()

    inp = make_inputs(wl.kind, max(20, round(wl.n_turns * args.scale)), args.seed)
    ensure_oracle(inp)
    warm = make_inputs(wl.kind, WARM_TURNS, 0)
    ensure_oracle(warm)

    out_root = os.path.join(harness.WORK, "out", f"{wl.name}-{os.getpid()}")
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)
    setups, rep_failed = [], []
    samples = {"wall_s": [], "peak_rss_mb": []}
    walls = samples["wall_s"]
    ledger, spans, trace_failed = {}, [], 0
    result = None
    out_dir = os.path.join(out_root, "rep")
    sessions = SETUPS if args.trace == 0 else 1
    try:
        for i in range(sessions):
            if i:
                harness.ray_stop()
            t0 = time.perf_counter()
            harness.ray_start()
            wl.job(warm, os.path.join(out_root, f"warm{i}"))
            setups.append(time.perf_counter() - t0)
            if i == 0:
                wl.prepare(inp, out_root)
            # a Ray session's speed varies more between sessions than between
            # the jobs inside one, so the measured time is split over them
            budget = args.seconds * (i + 1) / sessions
            while sum(walls) < budget or len(walls) < i + 1:
                result = rep(wl, inp, out_dir, samples, rep_failed)

        if args.trace:
            ledger, spans, trace_failed = traced_run(
                wl, inp, out_root, statistics.median(walls), ncpu, result
            )
    finally:
        harness.ray_stop()
        shutil.rmtree(out_root, ignore_errors=True)
    probe_after = harness.cpu_probe_mops()

    attempted = inp.turns * (len(walls) + (1 if args.trace else 0))
    failed = sum(rep_failed) + trace_failed
    samples["turns_per_s"] = [inp.turns / w for w in walls]
    samples["setup_s"] = setups
    e2e = {k: statistics.median(samples[k]) for k in end_to_end}
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "num_cpus": ncpu,
        "cpu_probe_mops": {"before": probe_before, "after": probe_after},
        "input": {"turns": inp.turns, "mb": inp.bytes / 1e6, "gen_s": inp.gen_s,
                  "oracle_s": inp.oracle_s},
        "summary": {k: harness.summary(v) for k, v in samples.items()},
        "samples": samples,
        "failed_turn_ratio": failed / attempted,
        "end_to_end": e2e,
        "per_layer": ledger,
    }
    reports = os.path.join(harness.WORK, "reports")
    os.makedirs(reports, exist_ok=True)
    with open(os.path.join(reports, f"{wl.name}-s{args.seed}-t{args.trace}.json"), "w") as f:
        json.dump({**detail, "spans": spans}, f)
    print(json.dumps(detail))

    chosen = per_layer if args.trace else end_to_end
    values = ledger if args.trace else e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
