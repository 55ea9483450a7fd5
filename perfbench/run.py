"""skeinlab benchmark: closed-loop workloads with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a skeinlab checkout; the library is imported from its
`src/` directory.  With --trace 0 the last line of standard output is a JSON
object with the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of a traced run.  --rounds K runs exactly K rounds instead of
running for --seconds, which is the short mode used by the self-test.

Times are scaled to a reference host speed (see calib.py); a run lasts
--seconds of scaled operation time, or 2.5 times that of wall time if the
host is slower.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from calib import CAL_REF_S, calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5
WALL_CAP = 2.5
# the highest of p75, p90, p95, p99 with ten samples beyond it in every
# workload: runs hold 42 (cli_cold) to about 100 operations
TAIL_PCT = 75

os.environ.update({v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")})


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so that the calibration
    loop measures the core the timed work (in a CLI child too) runs on."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass                                    # not supported here: run unpinned


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rounds", type=int, help="run exactly this many rounds")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def build(name: str, seed: int, workdir: Path, tracer=None):
    from workloads import WORKLOADS, CliCold
    if name == CliCold.name:
        return CliCold(seed, tracer, workdir=workdir, root=ROOT)
    return WORKLOADS[name](seed, tracer)


class Record:
    __slots__ = ("kind", "wall", "scale", "status", "detail")

    def __init__(self, kind, wall, scale, status, detail):
        self.kind, self.wall, self.scale = kind, wall, scale
        self.status, self.detail = status, detail

    @property
    def scaled(self) -> float:
        return self.wall * self.scale


def run_rounds(workload, seconds: float, rounds: int | None, tracer=None):
    """Run whole rounds until `seconds` of scaled operation time have passed
    (or WALL_CAP times that of wall time), or exactly `rounds` rounds.

    Returns one Record per operation.  Building a round's inputs, the
    calibration loops and checking results happen outside the timed
    operation; status is "ok", "error" (it raised) or "wrong" (it failed its
    check)."""
    records: list[Record] = []
    start = perf_counter()
    r = 0

    def more() -> bool:
        if rounds is not None:
            return r < rounds
        busy = sum(rec.scaled for rec in records)
        return r == 0 or (busy < seconds and perf_counter() - start < WALL_CAP * seconds)

    while more():
        for op in workload.round(r):
            before = calibrate()
            if tracer is not None:
                tracer.op = tracer.ops
                tracer.ops += 1
                tracer.active = True
            t0 = perf_counter()
            try:
                value = op.run()
                status, detail = "ok", None
            except Exception as exc:            # a raising operation is a failed one
                status, detail = "error", repr(exc)
            wall = perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            scale = CAL_REF_S / ((before + calibrate()) / 2)
            if status == "ok":
                try:
                    detail = op.check(value)
                except Exception as exc:        # a result the checker cannot read is wrong
                    detail = f"check raised {exc!r}"
                status = "wrong" if detail else "ok"
            records.append(Record(op.kind, wall, scale, status, detail))
        r += 1
    return records, r


def summarize(records) -> tuple[int, int, bool]:
    for rec in records:
        if rec.status != "ok":
            print(f"FAILED {rec.kind} ({rec.status}): {rec.detail}")
    failed = sum(1 for rec in records if rec.status != "ok")
    return len(records), failed, not any(rec.status == "wrong" for rec in records)


def setup_seconds(name: str, seed: int) -> list[tuple[float, float]]:
    """(wall, scale) of fresh processes from their start to the first timed
    operation; each process times the calibration loop itself."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if name == "cli_cold":
        code = ("import time; import skeinlab; t = time.perf_counter(); import sys; "
                f"sys.path.insert(0, {str(BENCH_DIR)!r}); import calib; "
                "print(t, calib.calibrate(), calib.calibrate())")
        cmd = [sys.executable, "-c", code]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(seed), "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        t_ready, c1, c2 = map(float, proc.stdout.split()[-3:])
        out.append((t_ready - t0, CAL_REF_S / ((c1 + c2) / 2)))
    return out


def percentile(values, pct: int) -> float:
    """Linearly interpolated percentile, as numpy.percentile computes it."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(args) -> dict:
    setups = setup_seconds(args.workload, args.seed)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workload = build(args.workload, args.seed, Path(tmp))
        records, rounds = run_rounds(workload, args.seconds, args.rounds)
    attempted, failed, correct = summarize(records)
    lat = [rec.scaled for rec in records]
    raw = [rec.wall for rec in records]
    tail = percentile(lat, TAIL_PCT)
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (statistics.median(w * s for w, s in setups), "s"),
        "throughput_ops": ((attempted - failed) / sum(lat), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1000 * tail, "ms"),
        "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024, "MB"),
    }
    print(f"workload {args.workload} seed {args.seed}: {attempted} operations in {rounds} "
          f"rounds, {failed} failed; scaled busy {sum(lat):.2f} s, wall busy {sum(raw):.2f} s, "
          f"host speed {statistics.median(rec.scale for rec in records):.3f} of reference")
    kinds: dict[str, list[Record]] = {}
    for rec in records:
        kinds.setdefault(rec.kind, []).append(rec)
    for kind, recs in kinds.items():
        print(f"  {kind:10s} n={len(recs):4d} median "
              f"{1000 * statistics.median(r.scaled for r in recs):9.2f} ms scaled, "
              f"{1000 * statistics.median(r.wall for r in recs):9.2f} ms wall")
    beyond = sum(1 for x in lat if x > tail)
    print(f"latency_tail_ms is p{TAIL_PCT} of {attempted} samples, {beyond} beyond it"
          f"{'' if beyond >= 10 else ' (fewer than 10: no real tail)'}; "
          f"wall p50 {1000 * statistics.median(raw):.2f} ms, wall p{TAIL_PCT} "
          f"{1000 * percentile(raw, TAIL_PCT):.2f} ms")
    print(f"setup_s is the median of {len(setups)} fresh processes (wall s/speed): "
          + " ".join(f"{w:.3f}/{s:.2f}" for w, s in setups))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def traced(args) -> dict:
    """Traced run: the named workload for half the time, then one round of
    every other workload so that every layer is reached, then an untraced
    child over the same rounds of the named workload for the overhead."""
    from tracing import LAYER_UNITS, Tracer, instrument, layer_metrics
    from workloads import WORKLOADS
    tracer = Tracer()
    instrument(tracer)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workload = build(args.workload, args.seed, Path(tmp), tracer)
        records, rounds = run_rounds(workload, args.seconds / 2, args.rounds, tracer)
        traced_busy = sum(rec.scaled for rec in records)
        for name in WORKLOADS:
            if name != args.workload:
                other = build(name, args.seed, Path(tmp), tracer)
                records += run_rounds(other, 0, 1, tracer)[0]
    attempted, failed, correct = summarize(records)
    trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(trace_file)

    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--rounds", str(rounds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"untraced run failed: {proc.stderr.strip()[-300:]}")
    plain = json.loads(proc.stdout.strip().splitlines()[-1])
    plain_busy = (plain["attempted"] - plain["failed"]) / plain["metrics"]["throughput_ops"]["value"]
    print(f"traced {rounds} rounds of {args.workload}: scaled busy {traced_busy:.2f} s traced, "
          f"{plain_busy:.2f} s untraced; tracing overhead {100 * (traced_busy / plain_busy - 1):+.1f}%")
    print(f"{len(tracer.spans)} spans and {len(tracer.hot)} aggregate spans written to {trace_file}")
    scales = [rec.scale for rec in records]
    values = layer_metrics(tracer.all_spans(), scales, statistics.median(scales))
    missing = [m for m, v in values.items() if v is None]
    if missing:
        raise RuntimeError(f"layers not reached: {missing}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {m: {"value": v, "unit": LAYER_UNITS[m]} for m, v in values.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "skeinlab" / "__init__.py").is_file():
        print(f"error: no skeinlab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    pin_to_one_cpu()
    if args.setup_probe:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            build(args.workload, args.seed, Path(tmp)).round(0)
            print(perf_counter(), calibrate(), calibrate())
        return 0
    result = traced(args) if args.trace else end_to_end(args)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
