"""affinestop benchmark: four solve workloads, end-to-end metrics, per-layer split.

Run from the root of a checkout:

    python3 bench/run.py --workload gbm_lattice --seed 1 --seconds 15 --trace 0

Every solve goes through ``affinestop.cli.parse_config`` + ``affinestop.cli.run``
in this process, the path ``affinestop run`` takes, on a config generated
from ``--seed``.  Load is closed-loop with one client: the next solve starts
when the previous one has returned and been checked.  Solves continue until
``--seconds`` have passed (at least one; in a traced run at least one
traced and one untraced).  Each solve is checked against an exact reference
(``workloads.py``, ``reference.py``); a failed check counts in ``failed``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps each layer's
functions (``spans.py``) and prints the per-layer metrics, with untraced
solves interleaved so the tracing overhead is measured in the same run.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Outputs go to
``.bench_work/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import itertools
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
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LAYER_MODULES = ("model", "lattice", "threshold", "oracle", "verify")

# What a fresh `affinestop run` does before its first solve.
SETUP_SNIPPET = """
import sys
import affinestop.cli as cli
with open(sys.argv[1], encoding="utf-8") as fh:
    cfg = cli.parse_config(fh.read())
cli.check_hypotheses(cfg.model)
"""

# name -> unit, in print order; BENCHMARK.json gates the subset that is
# defined and nonzero on every workload.  A p90 is reported only with at
# least ten solves beyond it.
END_TO_END = {
    "setup_s": "s",
    "solve_p50_s": "s",
    "solve_p90_s": "s",
    "time_to_1e-3_s": "s",
    "value_abs_err": "1",
    "threshold_err_cells": "cells",
    "fail_frac": "1",
    "peak_rss_mb": "MB",
}
GATED = ("setup_s", "solve_p50_s", "peak_rss_mb")
TAIL_SOLVES = 100

PER_LAYER = {
    "model.busy_s": "s", "model.calls": "count",
    "lattice.solve_s": "s", "lattice.solves": "count",
    "lattice.iterations": "count", "lattice.sweep_us": "us",
    "lattice.matvec_gflop": "GFLOP", "lattice.residual": "1",
    "lattice.build_chain_s": "s", "lattice.kernel_nnz": "count",
    "lattice.kernel_density": "1", "lattice.kernel_mb": "MB",
    "threshold.mc_s": "s", "threshold.mc_calls": "count",
    "threshold.mc_paths": "count", "threshold.paths_per_s": "1/s",
    "threshold.search_s": "s", "threshold.stderr": "1",
    "threshold.truncated_frac": "1", "threshold.closed_s": "s",
    "oracle.rules": "count", "oracle.enumerate_s": "s",
    "oracle.rules_per_s": "1/s", "oracle.smallest_rule_s": "s",
    "oracle.backward_s": "s",
    "verify.busy_s": "s", "verify.checks": "count",
    "cli.parse_s": "s", "cli.self_s": "s", "cli.out_bytes": "bytes",
    **{f"{m}.import_s": "s" for m in (*LAYER_MODULES, "cli")},
    "trace.solve_p50_s": "s", "trace.overhead_s": "s",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True,
                    choices=("gbm_lattice", "kou_lattice", "kou_mc", "desk_batch"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_setup(config: Path, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *flags, "-c", SETUP_SNIPPET, str(config)],
                          env=child_env(), capture_output=True, text=True,
                          check=True, timeout=120)


def measure_setup(config: Path) -> list[float]:
    """Wall seconds of fresh processes that import, parse and screen."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        run_setup(config)
        times.append(time.perf_counter() - t0)
    return times


def import_seconds(config: Path) -> dict:
    """Cumulative import seconds per layer from ``python -X importtime``.

    ``cli.import_s`` is the whole ``import affinestop.cli``, because the
    package ``__init__`` imports every layer before ``cli`` itself.
    """
    cumulative = {}
    for line in run_setup(config, "-X", "importtime").stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3:
            name = parts[2].strip()
            if name.startswith("affinestop"):
                cumulative[name] = int(parts[1]) * 1e-6
    out = {f"{m}.import_s": cumulative.get(f"affinestop.{m}", 0.0) for m in LAYER_MODULES}
    out["cli.import_s"] = cumulative.get("affinestop.cli", 0.0)
    return out


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():  # a plain source tree has no commit to report
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "commit": commit,
        "seed": seed,
    }


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def solve_loop(cli, requests, seconds: float, tracer, out: Path) -> list[dict]:
    """Closed loop: one solve at a time until the time is up.

    With a tracer, solves 1, 2, 5, 6, 9, ... run with the layer functions
    wrapped and the others run the plain code, so a stream that alternates
    two request kinds has both kinds on both sides.
    """
    import spans

    records = []
    start = time.perf_counter()
    while True:
        i = len(records)
        traced = tracer is not None and i % 4 in (1, 2)
        req = next(requests)
        shutil.rmtree(out, ignore_errors=True)
        span = tracer.span if traced else (lambda name: nullcontext())
        if traced:
            tracer.solve = i
        code, error = None, ""
        with spans.installed(tracer) if traced else nullcontext():
            t0 = time.perf_counter()
            try:
                with span("cli.parse"):
                    cfg = cli.parse_config(req.config)
                with span("cli.run"):
                    code = cli.run(cfg, out_dir=str(out))
            except Exception:  # a crash is a failed solve; the loop goes on
                error = traceback.format_exc()
            elapsed = time.perf_counter() - t0
        outcome = None
        if code is not None:
            try:
                outcome = req.check(code, out)
            except (OSError, ValueError, IndexError):  # missing or malformed output
                error = traceback.format_exc()
        rec = {"seconds": elapsed, "traced": traced, "outcome": outcome,
               "ok": outcome is not None and outcome.ok,
               "out_bytes": dir_bytes(out) if out.is_dir() else 0}
        if not rec["ok"]:
            print(f"solve {i} failed: {error or outcome.detail}\n{req.config}",
                  file=sys.stderr)
        records.append(rec)
        done = time.perf_counter() - start >= seconds
        if done and (tracer is None or len(records) >= 2):
            return records


def pct(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default)."""
    import numpy as np

    return float(np.percentile(values, q))


def end_to_end(records, setup_times) -> dict:
    times = [r["seconds"] for r in records]
    outcomes = [r["outcome"] for r in records if r["outcome"] is not None]

    def median_of(attr):
        vals = [getattr(o, attr) for o in outcomes if getattr(o, attr) is not None]
        return (statistics.median(vals), len(vals)) if vals else (None, 0)

    p50 = statistics.median(times)
    stderr, n_err = median_of("stderr")
    failed = sum(not r["ok"] for r in records)
    return {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "solve_p50_s": (p50, len(times)),
        "solve_p90_s": ((pct(times, 90), len(times)) if len(times) >= TAIL_SOLVES
                        else (None, len(times))),
        "time_to_1e-3_s": ((p50 * (stderr / 1e-3) ** 2, n_err) if stderr is not None
                           else (None, 0)),
        "value_abs_err": median_of("value_abs_err"),
        "threshold_err_cells": median_of("threshold_err_cells"),
        "fail_frac": (failed / len(records), len(records)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def per_layer(records, tracer, imports: dict) -> dict:
    """Mean over traced solves that entered a layer; 0 where none did."""
    from spans import layer_totals

    totals = layer_totals(tracer.spans)
    samples: dict[str, list[float]] = {name: [] for name in PER_LAYER}

    def put(name, value):
        samples[name].append(float(value))

    for i, rec in enumerate(records):
        if not rec["traced"]:
            continue
        d = totals.get(i, {})
        g = d.get
        if "model.calls" in d:
            put("model.busy_s", d["model.self_s"])
            put("model.calls", d["model.calls"])
        if "lattice.solve.iterations" in d:  # counts exist once a call returned
            solve_s, sweeps = d["lattice.solve.self_s"], d["lattice.solve.iterations"]
            put("lattice.solve_s", solve_s)
            put("lattice.solves", d["lattice.solve.calls"])
            put("lattice.iterations", sweeps)
            put("lattice.sweep_us", 1e6 * solve_s / sweeps)
            put("lattice.residual", d["lattice.solve.residual"])
        if "lattice.build_chain.nnz" in d:
            nnz, n = d["lattice.build_chain.nnz"], d["lattice.build_chain.n"]
            put("lattice.build_chain_s", d["lattice.build_chain.self_s"])
            put("lattice.kernel_nnz", nnz)
            put("lattice.kernel_density", nnz / (n * n))
            put("lattice.kernel_mb", 8.0 * n * n / 1e6)
            put("lattice.matvec_gflop", 2.0 * nnz * g("lattice.solve.iterations", 0) / 1e9)
        if "threshold.mc.paths" in d:
            mc_s, paths = d["threshold.mc.self_s"], d["threshold.mc.paths"]
            put("threshold.mc_s", mc_s)
            put("threshold.mc_calls", d["threshold.mc.calls"])
            put("threshold.mc_paths", paths)
            put("threshold.paths_per_s", paths / mc_s)
            put("threshold.truncated_frac", d["threshold.mc.truncated_paths"] / paths)
            if rec["outcome"] is not None and rec["outcome"].stderr is not None:
                put("threshold.stderr", rec["outcome"].stderr)
        if "threshold.search.calls" in d:
            put("threshold.search_s", d["threshold.search.self_s"])
        if "threshold.closed.calls" in d:
            put("threshold.closed_s", d["threshold.closed.self_s"])
        if "oracle.enumerate.rules" in d:
            rules, enum_s = d["oracle.enumerate.rules"], d["oracle.enumerate.self_s"]
            put("oracle.rules", rules)
            put("oracle.enumerate_s", enum_s)
            put("oracle.rules_per_s", rules / enum_s)
            put("oracle.smallest_rule_s", g("oracle.smallest_rule.self_s", 0.0))
            put("oracle.backward_s", g("oracle.backward.self_s", 0.0))
        if "verify.calls" in d:
            put("verify.busy_s", d["verify.self_s"])
            put("verify.checks", d["verify.calls"])
        put("cli.parse_s", g("cli.parse.self_s", 0.0))
        put("cli.self_s", g("cli.run.self_s", 0.0))
        put("cli.out_bytes", rec["out_bytes"])
    metrics = {name: statistics.fmean(v) if v else 0.0 for name, v in samples.items()}
    metrics.update(imports)
    traced = [r["seconds"] for r in records if r["traced"]]
    plain = [r["seconds"] for r in records if not r["traced"]]
    metrics["trace.solve_p50_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    counts = {name: len(v) for name, v in samples.items()}
    counts.update({name: 1 for name in imports})
    counts["trace.solve_p50_s"] = len(traced)
    counts["trace.overhead_s"] = len(traced) + len(plain)
    return {name: (metrics[name], counts[name]) for name in PER_LAYER}


# The layer each workload was chosen to stress, and the least share of a
# traced solve its self time must take for that choice to hold.
PREMISES = {
    "gbm_lattice": ("lattice.solve_s", 0.80),
    "kou_lattice": ("lattice.solve_s", 0.80),
    "kou_mc": ("threshold.mc_s", 0.90),
}


def print_premise(workload: str, rows: dict, records) -> None:
    if workload in PREMISES:
        name, least = PREMISES[workload]
        solve = statistics.fmean(r["seconds"] for r in records if r["traced"])
        share = rows[name][0] / solve
        holds = share >= least
        claim = f"{name} is {share:.1%} of a traced solve (needs >= {least:.0%})"
    else:
        holds = rows["lattice.solves"][1] == 0 and rows["threshold.mc_calls"][1] == 0
        claim = "no traced solve entered the lattice or Monte Carlo"
    print(f"premise: {claim}: {'holds' if holds else 'DOES NOT HOLD'}")


def print_table(title: str, rows: dict, units: dict) -> None:
    print(title)
    for name, (value, n) in rows.items():
        if value is None:
            shown = "n/a"
        else:
            shown = str(int(value)) if value == int(value) else f"{value:.6g}"
        print(f"  {name:26s} {shown:>14s} {units[name]:6s} n={n}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "affinestop" / "cli.py").is_file():
        print(f"error: no affinestop sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:  # before numpy loads BLAS
        os.environ.setdefault(var, str(nproc))
    sys.path[:0] = [str(SRC), str(HERE)]

    import numpy as np

    import affinestop.cli as cli
    import reference
    from workloads import WORKLOADS

    reference.self_check()
    out = WORK / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    requests = WORKLOADS[args.workload](np.random.default_rng(args.seed))
    first = next(requests)
    config = out / "setup.cfg"
    config.write_text(first.config, encoding="utf-8")
    replay = itertools.chain([first], requests)

    env = environment(args.seed)
    print(f"affinestop benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          "(closed loop, 1 client, in-process)")
    print("env " + json.dumps(env))

    if args.trace:
        import spans

        imports = import_seconds(config)
        tracer = spans.Tracer()
        records = solve_loop(cli, replay, args.seconds, tracer, out / "solve")
        (out / "spans.json").write_text(json.dumps(tracer.dump()), encoding="utf-8")
        rows = per_layer(records, tracer, imports)
        print_table("per-layer (mean over traced solves that entered the layer)",
                    rows, PER_LAYER)
        print_premise(args.workload, rows, records)
        metrics = {name: {"value": v, "unit": PER_LAYER[name]} for name, (v, _) in rows.items()}
    else:
        setup_times = measure_setup(config)
        records = solve_loop(cli, replay, args.seconds, None, out / "solve")
        rows = end_to_end(records, setup_times)
        print_table("end-to-end", rows, END_TO_END)
        metrics = {name: {"value": rows[name][0], "unit": END_TO_END[name]}
                   for name in GATED}

    failed = sum(not r["ok"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
