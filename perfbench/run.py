"""Benchmark of the dpsgd engine and its two application drivers.

Run one workload, from the root of a checkout:

    python3 perfbench/run.py --workload sim-sigmoid --seed 1 --seconds 10 --trace 0

or every workload, each in its own process, with a summary table:

    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

The seed makes every input (configs, problem data, corpus, episodes);
the same seed gives the same inputs. ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` measures half the
time untraced and half traced, and reports the per-layer metrics and
the tracing overhead. Report lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A full record with the
environment stamp, sample counts and p90s goes to
``.perfbench_out/<workload>-seed<seed>-trace<trace>.json``, and the
traced run's spans to ``.perfbench_out/<workload>-seed<seed>-spans.jsonl``.

The exit code is 0 only when every operation passed its output checks.
See perfbench/README.md for the workload shapes and the layer map.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from probes import slowdown

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5      # timed set-ups per run at least, after one warm-up
SETUP_MIN_S = 0.25     # ... and more, up to SETUP_MAX_REPEATS, until this
SETUP_MAX_REPEATS = 200
MIN_OPS = 2            # per measured phase, however short --seconds is
PROBE_SHARE = 0.05     # host probing time after an op, as a share of it
CHILD_TIMEOUT_S = 180


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def load_program() -> None:
    """Import dpsgd from this checkout's src/ and nowhere else."""
    if not (SRC / "dpsgd" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dpsgd sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dpsgd

    if Path(dpsgd.__file__).resolve().parent != (SRC / "dpsgd").resolve():
        sys.exit(f"perfbench: dpsgd imported from {dpsgd.__file__}, not {SRC}")


# -- environment stamp -----------------------------------------------------

def loadavg() -> list[float]:
    with open("/proc/loadavg") as fh:
        return [float(x) for x in fh.read().split()[:3]]


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dpsgd").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def env_stamp() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


# -- measuring -------------------------------------------------------------

def timed_setups(workload, seed: int):
    """One warm-up set-up, then timed ones for SETUP_MIN_S (at least
    SETUP_REPEATS); the last ctx is kept.

    Returns the ctx and the set-up times, scaled to the reference host
    speed by cpu probes run before and after them.
    """
    ctx = workload.setup(seed)
    times, corpus = [], []
    before = slowdown("cpu")
    end = time.perf_counter() + SETUP_MIN_S
    while len(times) < SETUP_REPEATS or (time.perf_counter() < end
                                         and len(times) < SETUP_MAX_REPEATS):
        start = time.perf_counter()
        ctx = workload.setup(seed)
        times.append(time.perf_counter() - start)
        corpus.append(ctx.get("corpus_s", 0.0))
    scale = (before + slowdown("cpu")) / 2
    ctx["corpus_s"] = float(np.median(corpus))
    return ctx, [t / scale for t in times]


def measure(workload, ctx, seconds: float, wrap=None, after_op=None):
    """Repeat the workload's operation for `seconds` (at least MIN_OPS).

    Returns (ops, failures, slowdowns): the workload's host probe runs
    before the first operation and after each one.
    """
    from workloads import CheckFailed

    ops, failures = [], []
    slowdowns = [slowdown(workload.probe)]
    deadline = time.perf_counter() + seconds
    while len(ops) + len(failures) < MIN_OPS or time.perf_counter() < deadline:
        start = time.perf_counter()
        try:
            ops.append(workload.run(ctx, wrap))
        except CheckFailed as exc:
            failures.append(str(exc))
        except Exception as exc:  # a raising run is a failed operation
            failures.append(f"{type(exc).__name__}: {exc}")
        if after_op is not None:
            after_op()
        # a probe reading is a short sample of a speed that swings within
        # a second, so probe for PROBE_SHARE of the op's time
        probe_end = time.perf_counter() + PROBE_SHARE * (
            time.perf_counter() - start)
        slowdowns.append(slowdown(workload.probe))
        while time.perf_counter() < probe_end:
            slowdowns.append(slowdown(workload.probe))
    return ops, failures, slowdowns


def replay_mismatch(ops) -> str | None:
    """Simulated runs with one seed must repeat bit for bit."""
    first = ops[0].results
    for op in ops[1:]:
        for a, b in zip(first, op.results):
            if a.counters != b.counters:
                return f"counters differ: {a.counters} vs {b.counters}"
            if not np.array_equal(a.final.values, b.final.values):
                return "final vectors differ between runs with one seed"
            if not a.metrics.identical(b.metrics):
                return "metrics series differ between runs with one seed"
    return None


def stat(samples, unit: str, scale: float = 1.0) -> dict:
    """Median and p90 of the samples, times scale, with the sample count."""
    arr = np.asarray(samples, dtype=float) * scale
    return {"value": float(np.median(arr)), "unit": unit,
            "p90": float(np.percentile(arr, 90)), "n": int(arr.size)}


def rates(ops) -> list[float]:
    return [op.evals / op.wall_s for op in ops]


def gaps(workload, ops, slow: float) -> dict:
    """Wall gaps between master applies, in ms at reference host speed."""
    if workload.runtime == "simulated":
        # the series clock is virtual: one sample per run, wall / T
        samples = [1e3 * op.wall_s / op.iterations for op in ops]
    else:
        samples = [g for op in ops for g in op.gaps_ms]
    return stat(samples, "ms", 1 / slow)


def end_to_end(workload, ops, slow: float, setup_times) -> dict:
    """The bounded metrics; rates and gaps scaled by the run's median
    host slowdown `slow`, set-up times already scaled."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "grads_per_s": stat(rates(ops), "1/s", slow),
        "iter_gap_p50_ms": gaps(workload, ops, slow),
        "setup_s": stat(setup_times, "s"),
        "peak_rss_mb": {"value": rss_mb, "unit": "MB", "n": 1},
    }


def extras(workload, ctx, ops, slowdowns) -> dict:
    """Workload-specific figures, printed and recorded beside the metrics."""
    slow = float(np.median(slowdowns))
    p50 = gaps(workload, ops, slow)
    out = {
        "iter_gap_p90_ms": {"value": p50["p90"], "unit": "ms", "n": p50["n"]},
        "grads_per_s_raw": stat(rates(ops), "1/s"),
        "host_slowdown": stat(slowdowns, "ratio"),
        "iters_per_s": stat([op.iterations / op.wall_s for op in ops], "1/s",
                            slow),
    }
    cfg = ctx.get("cfg")
    if workload.runtime != "simulated" and cfg.compute_cost_s > 0:
        ideal = cfg.nW * cfg.p / cfg.compute_cost_s
        out["scaling_eff"] = stat(rates(ops), "ratio", slow / ideal)
        out["scaling_eff_raw"] = stat(rates(ops), "ratio", 1 / ideal)
    for key in ops[0].rates:
        out[key] = stat([op.rates[key] for op in ops], "1/s", slow)
    return out


def traced_phase(workload, ctx, seconds):
    """Traced operations: (ops, failures, per-op call counts, tracer)."""
    from layers import RUN_SPAN, call_counts, install
    from tracing import Tracer

    tracer = Tracer()
    counts, mark = [], [0]

    def after_op():
        counts.append(call_counts(tracer.spans[mark[0]:]))
        mark[0] = len(tracer.spans)

    with tracer:
        install(tracer)
        ops, failures, _ = measure(
            workload, ctx, seconds, wrap=lambda fn: tracer.wrap(fn, RUN_SPAN),
            after_op=after_op)
    return ops, failures, counts, tracer


def per_layer(ctx, ops, counts, tracer, plain_ops) -> dict:
    from layers import layer_metrics

    cfg = ctx.get("cfg")
    results = [r for op in ops for r in op.results]
    out = layer_metrics(tracer, results,
                        cfg.compute_cost_s if cfg is not None else 0.0,
                        cfg.B if cfg is not None else 1)
    out.update(counts[0])
    out["svi.corpus_build_s"] = ctx["corpus_s"]
    # unscaled: the two halves run back to back, and the probe would only
    # add its own noise to a difference of a few per cent
    out["trace.overhead_frac"] = float(
        1.0 - np.median(rates(ops)) / np.median(rates(plain_ops)))
    return out


# -- entry points ----------------------------------------------------------

def run_one(args, spec) -> int:
    load_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    simulated = workload.runtime == "simulated"
    load_before = loadavg()
    stamp = env_stamp()

    ctx, setup_times = timed_setups(workload, args.seed)
    seconds = args.seconds / 2 if args.trace else args.seconds
    ops, failures, slowdowns = measure(workload, ctx, seconds)
    attempted = len(ops) + len(failures)
    t_ops, counts, tracer = [], [], None
    if args.trace:
        t_ops, t_failures, counts, tracer = traced_phase(
            workload, ctx, seconds)
        attempted += len(t_ops) + len(t_failures)
        failures += t_failures
        if simulated and len({tuple(sorted(c.items())) for c in counts}) > 1:
            failures.append(f"call counts differ between runs: {counts}")
    if simulated and len(ops) + len(t_ops) > 1:
        # traced runs too: tracing must not change what a run computes
        mismatch = replay_mismatch(ops + t_ops)
        if mismatch:
            failures.append(mismatch)
    load_after = loadavg()

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    report, extra = {}, {}
    if ops and (t_ops or not args.trace):
        if args.trace:
            values = per_layer(ctx, t_ops, counts, tracer, ops)
            report = {k: {"value": values[k], "unit": u}
                      for k, u in units.items() if k in values}
        else:
            values = report = end_to_end(
                workload, ops, float(np.median(slowdowns)), setup_times)
            extra = extras(workload, ctx, ops, slowdowns)
        missing = set(units) ^ set(values)
        if missing:
            sys.exit(f"perfbench: metrics out of step with BENCHMARK.json: "
                     f"{sorted(missing)}")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={attempted} failed={len(failures)} "
          f"failed_frac={len(failures) / attempted:.3f}")
    print(f"  env {json.dumps(stamp)} loadavg_before={load_before} "
          f"loadavg_after={load_after}")
    for name, m in list(report.items()) + list(extra.items()):
        detail = (f"median of {m['n']}, p90 {m['p90']:.6g}" if "p90" in m
                  else f"of {m['n']}" if "n" in m else "")
        print(f"  {name:30s} {m['value']:14.6g} {m['unit']:8s} {detail}")
    for msg in failures:
        print(f"  FAILED {msg}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}"
    with open(f"{stem}-trace{args.trace}.json", "w") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "env": dict(stamp, loadavg_before=load_before,
                        loadavg_after=load_after),
            "attempted": attempted, "failures": failures,
            "failed_frac": len(failures) / attempted,
            "metrics": report, "extra": extra,
            "call_counts": counts,
        }, fh, indent=1)
    if tracer is not None:
        tracer.write_jsonl(f"{stem}-spans.jsonl")

    correct = not failures and bool(report)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in report.items()},
    }))
    return 0 if correct else 1


def run_all(args, spec) -> int:
    """Every workload in its own process, then one summary table."""
    results = {}
    code = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        results[w["name"]] = json.loads(lines[-1]) if lines else None
        if proc.returncode != 0:
            code = 1
    print("\nsummary")
    for name, res in results.items():
        if res is None:
            print(f"  {name}: no result")
            continue
        for metric, m in res["metrics"].items():
            print(f"  {name:14s} {metric:30s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
