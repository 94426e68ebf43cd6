#!/usr/bin/env python3
"""rankone benchmark: CLI workloads in-process, checked op by op.

Run from the root of a checkout (imports ``rankone`` from its ``src/``):

    python3 perfbench/run.py --workload disjointness --seed 1 --seconds 35 --trace 0

Load model: a closed loop, one client in one process. Ops run back to
back through ``cli.parse_config_dict`` and ``cli.run``, as a batch script
would call the library, so library caches persist across ops. Every op's
CSVs and report are checked (see checks.py). The last stdout line is the
result JSON; the line before it is a report with machine facts, sample
counts, the tail percentile used and all six end-to-end metrics with
their units, including ``failed_frac`` (also given by the result's
``failed``/``attempted``; it is 0 when the program is right, so it has
no relative bound in BENCHMARK.json).

Times are taken at reference host speed. On a shared 2-core x86 VM the
vCPUs ran a fixed loop at speeds up to 1.9x apart, in spells of seconds
to a minute (CPU time drifted with wall time, so it was not stolen
time); that moved a run's metrics by up to 25%, while the modelled work
of a run's op mix varies by about 3% across seeds. So between ops the loop times a fixed
pure-Python task (``reference_probe``), and every op's wall time is
scaled by REF_PROBE_S over the mean of the probes before and after it:
the seconds the op would take on a host that runs the probe in
REF_PROBE_S. Probe time is not counted. The report gives the raw wall
times as well.

``setup_s`` is the time to import ``rankone`` and generate the run's
inputs (OPS configs), scaled the same way, the median of SETUP_SAMPLES
set-ups. ``--trace 0`` measures the end-to-end metrics and writes each
op's cell, wall time and the probe times to
``.bench_out/ops-<workload>-seed<seed>.json``. ``--trace 1`` first runs
the same workload untraced in a child process for half of
``--seconds``, then replays the same ops with every layer wrapped and
reports the per-layer metrics (spans.py), with ``tracing_overhead_s`` as
the traced minus the untraced time of those ops. Spans go to
``.bench_out/trace-<workload>-seed<seed>.json``.

On the default seed every op is checked against a golden; the report
gives the count as ``golden_checked``. Regenerate the goldens with
``python3 perfbench/record_goldens.py``.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDENS = BENCH / "goldens"
WORKLOADS = ("disjointness", "telescope", "mobius-sum")
DEFAULT_SEED = 1
#: inputs generated per run, and goldens recorded for the default seed:
#: about three times the ops a --seconds 35 run completes on a 2-core x86
#: VM, so that a run meets the end of its inputs only once the program is
#: that much faster (it then stops early and says so)
OPS = {"disjointness": 450, "telescope": 600, "mobius-sum": 160}
#: set-ups per run (this process plus fresh child processes); median reported
SETUP_SAMPLES = 7
#: seconds reference_probe takes on an unloaded 2-core x86 VM; times are
#: reported as if the host ran the probe this fast
REF_PROBE_S = 0.005
#: probes timed after each set-up; their median scales it
SETUP_PROBES = 3
#: op_s_tail is the highest percentile with at least this many ops beyond it
TAIL_BEYOND = 10
#: traced shares checked by the workload design: share of op time per workload
SHARES = ("kernels.pair_counts", "sarnak.Observable.scaled_ints",
          "kernels.sieve_mobius")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> int:
    """Cap BLAS threads at nproc before numpy loads; children inherit it."""
    n = nproc()
    for var in BLAS_VARS:
        cur = os.environ.get(var, "")
        os.environ[var] = str(min(int(cur), n) if cur.isdigit() and int(cur) > 0 else n)
    return min(int(os.environ[v]) for v in BLAS_VARS)


def setup(workload: str, seed: int):
    """Import rankone from this checkout and generate the run's inputs:
    the first OPS[workload] ops of the seeded plan, as (cell label,
    config) pairs. Returns (inputs, seconds taken at reference speed)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import rankone

    if not Path(rankone.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"rankone imported from {rankone.__file__}, not {SRC}")
    import workloads

    plan = workloads.Plan(workload, seed)
    inputs = [plan.op(i) for i in range(OPS[workload])]
    elapsed = time.perf_counter() - t0
    return inputs, elapsed * REF_PROBE_S / statistics.median(
        reference_probe() for _ in range(SETUP_PROBES))


def load_goldens(workload: str, seed: int, inputs) -> list[dict | None]:
    """On the default seed, the golden of each input op, or None where
    none was recorded for that op's config; empty on other seeds."""
    if seed != DEFAULT_SEED:
        return []
    import checks

    ops = json.loads((GOLDENS / f"{workload}.json").read_text())["ops"]
    return [ops[i] if i < len(ops) and ops[i]["config_sha"] == checks.config_sha(config)
            else None for i, (_, config) in enumerate(inputs)]


def reference_probe() -> float:
    """Seconds a fixed pure-Python task (Fraction arithmetic, like the
    exact-integer paths of the program) takes right now."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for k in range(1, 2500):
        s += Fraction(1, k % 97 + 1)
    return time.perf_counter() - t0


def setup_samples(workload: str, seed: int, first: float) -> list[float]:
    """``first`` plus set-ups timed in fresh processes (cold imports)."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--setup-only"], capture_output=True, text=True, check=True, cwd=ROOT)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine_facts(blas_threads: int) -> dict:
    import numpy
    from rankone import _kernels

    return {"cores": nproc(), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "numba": importlib.util.find_spec("numba") is not None,
            "kernel_backend": _kernels.BACKEND, "blas_threads": blas_threads,
            "git_sha": git_sha()}


def run_loop(inputs, goldens, seconds: float | None, n_ops: int | None,
             recorder=None, results: list | None = None):
    """Closed loop: run ops back to back until ``seconds`` have passed or
    the inputs run out (or exactly ``n_ops`` ops), with a reference probe
    before the first op and after each op. Returns per-op wall times, raw
    and at reference speed, failures and the loop's time; appends each
    op's checked result to ``results``."""
    from rankone import cli
    import checks

    run_dir = OUT / f"run-{os.getpid()}"
    times, iters, failed, errors, csv_bytes, checked = [], [], 0, [], 0, 0
    limit = len(inputs) if n_ops is None else n_ops
    probes = [reference_probe()]
    start = time.perf_counter()
    i = 0
    try:
        while i < limit and (n_ops is not None or time.perf_counter() - start < seconds):
            _, op = inputs[i]
            out = run_dir / f"op{i:05d}"
            stream = io.StringIO()
            if recorder is not None:
                recorder.op = i
            t0 = time.perf_counter()
            try:
                code = cli.run(cli.parse_config_dict(dict(op, output={"dir": str(out)})),
                               stream)
            except Exception:  # an op's failure is counted, not fatal
                code = traceback.format_exc(limit=-1).strip().splitlines()[-1]
            times.append(time.perf_counter() - t0)
            if code != 0:
                issues = [f"exit {code}"]
            else:
                try:
                    result = checks.extract(op["command"], out, stream.getvalue())
                    issues = checks.problems(op, result)
                    if goldens:
                        checked += 1
                        issues += checks.golden_problems(op["command"], result, goldens[i])
                    if results is not None:
                        results.append(checks.golden_view(op["command"], result))
                except (OSError, ValueError, KeyError, AttributeError) as exc:
                    issues = [f"unreadable output: {exc!r}"]
                csv_bytes += sum(f.stat().st_size for f in out.glob("*.csv"))
            if issues:
                failed += 1
                errors.append({"op": i, "problems": issues[:3]})
            shutil.rmtree(out, ignore_errors=True)
            iters.append(time.perf_counter() - t0)
            probes.append(reference_probe())
            i += 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    scale = [2 * REF_PROBE_S / (a + b) for a, b in zip(probes, probes[1:])]
    return {"times": times, "ref_times": [t * f for t, f in zip(times, scale)],
            "ref_s": sum(t * f for t, f in zip(iters, scale)),
            "failed": failed, "errors": errors[:5],
            "wall_s": time.perf_counter() - start, "csv_bytes": csv_bytes,
            "golden_checked": checked, "probes": probes,
            "inputs_exhausted": n_ops is None and i == len(inputs)}


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond) for the highest percentile of op time
    that still has TAIL_BEYOND ops above it (the maximum if too few ops)."""
    ordered = sorted(times)
    k = len(ordered) - 1 - TAIL_BEYOND
    if k < 0:
        k = len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(loop, setups) -> tuple[dict, dict]:
    """The end-to-end metrics, and the report's view of them, which adds
    sample counts, the tail percentile, raw wall times and failed_frac."""
    times = loop["ref_times"]
    n = len(times)
    value, pct, beyond = tail(times)
    metrics = {
        "ops_per_s": metric(n / loop["ref_s"], "1/s"),
        "op_s_p50": metric(statistics.median(times), "s"),
        "op_s_tail": metric(value, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }
    shown = {k: dict(v, samples=n) for k, v in metrics.items()}
    shown["ops_per_s"]["raw"] = n / (loop["wall_s"] - sum(loop["probes"][1:]))
    shown["op_s_p50"]["raw"] = statistics.median(loop["times"])
    shown["op_s_tail"]["raw"] = tail(loop["times"])[0]
    shown["op_s_tail"].update(percentile=round(pct, 2), ops_beyond=beyond)
    shown["peak_rss_mb"]["samples"] = 1
    shown["setup_s"]["samples"] = len(setups)
    shown["failed_frac"] = {"value": loop["failed"] / n, "unit": "fraction",
                            "samples": n}
    return metrics, shown


def per_layer(recorder, loop, untraced_s: float) -> dict:
    """Per-layer metrics from the traced loop (names as in BENCHMARK.json)."""
    import spans

    out = {}
    for name, stat in recorder.stats.items():
        out[f"{name}.calls"] = metric(stat["calls"], "count")
        out[f"{name}.total_s"] = metric(stat["total_s"], "s")
        out[f"{name}.self_s"] = metric(stat["self_s"], "s")
        if name in spans.COUNTERS:
            key = spans.COUNTERS[name][0]
            out[f"{name}.{key}"] = metric(stat[key], "count")
            if key == "entries":  # int64 words: bytes computed, not measured
                out[f"{name}.computed_bytes"] = metric(8 * stat[key], "bytes")
    op_wall = sum(loop["times"])
    for name in SHARES:
        out[f"{name}.share"] = metric(recorder.stats[name]["total_s"] / op_wall, "fraction")
    labels = recorder.stats["tower.build_labels"]["calls"]
    words = recorder.stats["kernels.build_word"]["calls"]
    out["tower.word_cache_hit_ratio"] = metric(1 - words / labels if labels else 0.0,
                                               "fraction")
    out["cli.run.csv_bytes"] = metric(loop["csv_bytes"], "bytes")
    out["traced.op_wall_s"] = metric(op_wall, "s")
    out["tracing_overhead_s"] = metric(loop["ref_s"] - untraced_s, "s")
    return out


def untraced_child(args) -> dict:
    """Run the workload untraced in a fresh process for half the run;
    returns its report."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed",
         str(args.seed), "--seconds", str(args.seconds / 2), "--trace", "0",
         "--one-setup"], capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"untraced run failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-2])["report"]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--one-setup", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    blas_threads = cap_blas_threads()
    try:
        inputs, setup_s = setup(args.workload, args.seed)
        goldens = load_goldens(args.workload, args.seed, inputs)
    except (ImportError, OSError) as exc:
        print(f"benchmark set-up failed: {exc!r}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(setup_s)
        return 0

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_facts(blas_threads)}
    if args.trace:
        import spans

        child = untraced_child(args)
        recorder = spans.Recorder()
        with recorder.patched():
            loop = run_loop(inputs, goldens, None, child["ops"], recorder)
        OUT.mkdir(exist_ok=True)
        recorder.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        metrics = per_layer(recorder, loop, child["loop_ref_s"])
        report["untraced_ops_correct"] = child["end_to_end"]["failed_frac"]["value"] == 0
    else:
        setups = ([setup_s] if args.one_setup
                  else setup_samples(args.workload, args.seed, setup_s))
        loop = run_loop(inputs, goldens, args.seconds, None)
        metrics, report["end_to_end"] = end_to_end(loop, setups)
        OUT.mkdir(exist_ok=True)
        (OUT / f"ops-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"ops": [[label, t] for (label, _), t in zip(inputs, loop["times"])],
             "probes": loop["probes"]}))
    if loop["inputs_exhausted"]:
        print(f"warning: all {len(inputs)} inputs ran before --seconds "
              f"{args.seconds} had passed; raise OPS and re-record the goldens",
              file=sys.stderr)
    report.update(ops=len(loop["times"]), loop_wall_s=loop["wall_s"],
                  loop_ref_s=loop["ref_s"],
                  golden_checked=loop["golden_checked"],
                  inputs_exhausted=loop["inputs_exhausted"], errors=loop["errors"])
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": loop["failed"] == 0 and report.get("untraced_ops_correct", True),
                      "attempted": len(loop["times"]), "failed": loop["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
