#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the qgcl interpreter.

    python3 perfbench/run.py --workload walk --seed 1 --seconds 20 --trace 0

Runs one seeded workload (walk, cli_files, protocols, equiv) against the
package in ``src/`` of this checkout, as a closed loop: one client in one
process issues the next operation only after the previous one returns.
Every output is checked against an independent numpy oracle or a known
verdict.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates two untraced and two traced passes and reports
the per-layer metrics.  The last line of standard output is one JSON object.

Times are on the calibrated clock of ``clock.py``; the raw wall-clock
figures are printed beside them.  Each op slot (a position in the seeded
pass) contributes the median of its samples over the passes.

OpenBLAS runs on one thread in this process, set before numpy loads: with
two threads millisecond-scale ops spread by up to 70% between processes.
"""

import os
import sys
import time

T0 = time.perf_counter()
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

MIN_SLOTS = 100  # ops per pass: at least ten samples beyond p90
MIN_PASSES = 3  # each slot's figure is the median of at least three samples
SETUP_PROBES = 2  # fresh interpreters timed besides this one
KINDS = ("run", "wp", "equiv", "check", "branches")
# Names only: importing ``workloads`` imports the package, which is timed set-up.
WORKLOADS = ("walk", "cli_files", "protocols", "equiv")


def load(workload: str, seed: int, workdir: str):
    """Import the package, build the workload's inputs and run one warm-up op."""
    import qgcl
    if not os.path.abspath(qgcl.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        sys.exit(f"qgcl was imported from {qgcl.__file__}, not from this checkout")
    import workloads
    wl = workloads.WORKLOADS[workload](seed, workdir)
    if len(wl.ops) < MIN_SLOTS:
        sys.exit(f"{workload}: {len(wl.ops)} ops per pass, fewer than {MIN_SLOTS}")
    wl.warmup()
    return wl


class Tally:
    """Attempted and failed ops, latencies by op slot, and failure reasons."""

    def __init__(self, ops):
        self.kinds = [op.kind for op in ops]
        self.samples: list[list[float]] = [[] for _ in ops]  # calibrated seconds
        self.raw: list[list[float]] = [[] for _ in ops]  # wall-clock seconds
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, slot: int, raw: float, calibrated: float, reason) -> None:
        self.attempted += 1
        self.raw[slot].append(raw)
        self.samples[slot].append(calibrated)
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)

    def slots(self, kind: str | None = None, raw: bool = False) -> list[float]:
        """Per-slot median over passes, for all slots or those of one kind."""
        data = self.raw if raw else self.samples
        return [statistics.median(v) for k, v in zip(self.kinds, data) if v and kind in (None, k)]


def run_pass(wl, clock, tally: Tally, selfcheck: dict, call=None) -> None:
    """One pass over the op sequence; oracle checks run outside the timing.

    The first result of each oracle family is also fed, deliberately
    perturbed, through the same check; ``selfcheck`` records whether the
    check caught it."""
    for index, op in enumerate(wl.ops):
        ref = clock.fresh()
        start = time.perf_counter()
        try:
            raw = call(index, op) if call else op.call()
            seconds = time.perf_counter() - start
            res = op.read(raw)
            reason = op.verify(res)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            seconds = time.perf_counter() - start
            res, reason = None, f"{op.family}: raised {type(exc).__name__}: {exc}"
        tally.record(index, seconds, clock.calibrate(seconds, ref), reason)
        if op.family not in selfcheck and res is not None:
            try:
                selfcheck[op.family] = op.verify(op.perturb(res)) is not None
            except Exception:  # a check that crashes on bad output has caught it
                selfcheck[op.family] = True


def timed_phase(wl, clock, seconds: float) -> tuple[Tally, dict]:
    """At least MIN_PASSES whole passes, then more while the next one would
    still end within ``seconds``."""
    tally, selfcheck = Tally(wl.ops), {}
    start = time.perf_counter()
    passes = 0
    while True:
        run_pass(wl, clock, tally, selfcheck)
        passes += 1
        elapsed = time.perf_counter() - start
        if passes >= MIN_PASSES and elapsed * (passes + 1) / passes > seconds:
            return tally, selfcheck


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_probe_seconds(workload: str, seed: int) -> list[float]:
    """Calibrated set-up time of fresh interpreters, one after another."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
             "--probe-setup"],
            capture_output=True, text=True, timeout=150, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def git_commit() -> str:
    """Commit of this checkout from ``.git`` files, without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(wl) -> None:
    import numpy
    print(f"python {platform.python_version()}  numpy {numpy.__version__}  "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}  "
          f"nproc {len(os.sched_getaffinity(0))}  commit {git_commit()}")
    print(f"corpus sha256 {wl.corpus_hash}  ops per pass {len(wl.ops)}")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def latency_metrics(tally: Tally, raw: bool = False) -> dict:
    slots = tally.slots(raw=raw)
    return {
        "ops_per_s": metric(len(slots) / sum(slots), "1/s"),
        "op_p50_ms": metric(1000 * percentile(slots, 50), "ms"),
        "op_p90_ms": metric(1000 * percentile(slots, 90), "ms"),
        "run_p50_ms": metric(1000 * statistics.median(tally.slots("run", raw)), "ms"),
        "wp_p50_ms": metric(1000 * statistics.median(tally.slots("wp", raw)), "ms"),
    }


def end_to_end(args, wl, clock, setup_s: float) -> dict:
    tally, selfcheck = timed_phase(wl, clock, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [setup_s] + setup_probe_seconds(args.workload, args.seed)
    m = {"setup_s": metric(statistics.median(setups), "s"), **latency_metrics(tally),
         "peak_rss_mb": metric(peak_rss_mb, "MB")}
    report = dict(m)
    if tally.slots("equiv"):
        report["equiv_p50_ms"] = metric(1000 * statistics.median(tally.slots("equiv")), "ms")
    report["fail_share"] = metric(tally.failed / tally.attempted, "share")
    raw = latency_metrics(tally, raw=True)
    for name, v in report.items():
        wall = f"   (wall clock {raw[name]['value']:.6g})" if name in raw else ""
        print(f"{name:14s} {v['value']:.6g} {v['unit']}{wall}")
    counts = "  ".join(f"{k}={len(tally.slots(k))}" for k in KINDS if tally.slots(k))
    print(f"samples: {len(tally.kinds)} op slots ({counts}), each the median of "
          f"{len(tally.samples[0])} passes; {tally.attempted} ops; {len(setups)} set-ups")
    return finish(tally, selfcheck, m, [])


def per_layer(args, wl, clock) -> dict:
    """Untraced and traced passes alternate, so that warm-up falls on both sides
    of the overhead ratio; the counts of the two traced passes must agree.
    Self times are scaled by each traced pass's calibration factor."""
    import tracing
    untraced, traced, selfcheck, figures = Tally(wl.ops), Tally(wl.ops), {}, []
    tracer = tracing.Tracer()
    for _ in range(2):
        run_pass(wl, clock, untraced, selfcheck)
        one = Tally(wl.ops)
        with tracer:
            tracer.reset()
            run_pass(wl, clock, one, selfcheck, lambda i, op: tracer.op_call(i, op.kind, op.call))
        scale = sum(map(sum, one.samples)) / sum(map(sum, one.raw))
        figures.append({k: v * scale if k.endswith(".self_s") else v
                        for k, v in tracer.figures().items()})
        for slot, (raw, cal) in enumerate(zip(one.raw, one.samples)):
            traced.record(slot, raw[0], cal[0], None)
        traced.failed += one.failed
        traced.reasons += one.reasons
    spans_path = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl")
    spans = tracer.write(spans_path)
    problems = list(tracer.notes)
    for key, value in figures[0].items():
        if not key.endswith(".self_s") and value != figures[1][key]:
            problems.append(f"count {key} differs between traced passes: {value} vs {figures[1][key]}")
    untraced_rate = len(wl.ops) / sum(untraced.slots())
    traced_rate = len(wl.ops) / sum(traced.slots())
    m = {}
    for key, value in figures[0].items():
        if key.endswith(".self_s"):
            m[key] = metric((value + figures[1][key]) / 2, "s")
        else:
            unit = "B" if "bytes" in key else "ratio" if key.endswith("ratio") else "count"
            m[key] = metric(value, unit)
    m["trace.overhead_ratio"] = metric(untraced_rate / traced_rate, "ratio")
    print(f"tracing overhead: untraced {untraced_rate:.4g} ops/s, traced {traced_rate:.4g} ops/s, "
          f"ratio {untraced_rate / traced_rate:.3f}")
    print("single process, no queues: no layer has waiting time, so none is reported")
    print(f"{spans} spans written to {os.path.relpath(spans_path, ROOT)}; figures are per pass")
    for key in sorted(m):
        print(f"{key:48s} {m[key]['value']:.6g} {m[key]['unit']}")
    merged = Tally(wl.ops)
    for t in (untraced, traced):
        merged.attempted += t.attempted
        merged.failed += t.failed
        merged.reasons += t.reasons
    return finish(merged, selfcheck, m, problems)


def finish(tally: Tally, selfcheck: dict, metrics: dict, problems: list[str]) -> dict:
    missed = sorted(f for f, caught in selfcheck.items() if not caught)
    print(f"oracle self-check: {len(selfcheck) - len(missed)}/{len(selfcheck)} perturbed outputs "
          "counted as failures" + (f"; missed: {', '.join(missed)}" if missed else ""))
    print(f"fail_share {tally.failed}/{tally.attempted}")
    for reason in tally.reasons + problems:
        print(f"FAILED: {reason}")
    failed = tally.failed + len(problems)
    correct = failed == 0 and not missed
    return {"correct": correct, "attempted": tally.attempted, "failed": failed, "metrics": metrics}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        import clock as clock_module
        start = time.perf_counter()
        clock = clock_module.Clock()
        clock_cost, ref_before = time.perf_counter() - start, clock.ref
        wl = load(args.workload, args.seed, workdir)
        setup_raw = time.perf_counter() - T0 - clock_cost
        setup_s = clock.calibrate(setup_raw, ref_before)
        if args.probe_setup:
            print(repr(setup_s))
            return
        print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
        environment(wl)
        print(f"set-up here: {setup_s:.4g} s calibrated, {setup_raw:.4g} s wall clock; "
              f"references {1000 * clock.ref[0]:.4g} and {1000 * clock.ref[1]:.4g} ms")
        result = per_layer(args, wl, clock) if args.trace else end_to_end(args, wl, clock, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
