"""crthss benchmark: one workload per run, result as the last stdout line.

    python3 perfbench/run.py --workload lifecycle --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``crthss`` from its
``src/``; without it the run exits 2 and prints no result. Inputs come from
the seed alone. ``--trace 0`` prints the end-to-end metrics. ``--trace 1``
measures half the time untraced and half traced, prints the per-layer metrics
and the tracing overhead between the halves, and writes the spans to
``.perfbench_work/trace-<workload>.jsonl``. All scratch files live under
``.perfbench_work/``. Times are CPU time scaled to a reference speed (see
README.md). Exit code 1 means some output failed its check.
"""

import argparse
import importlib
import json
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

import fixtures
from tracer import Tracer, layer_metrics
from workloads import KERNEL_REF_S, WORKLOADS, calibration_kernel, call_cli, latency_stats

SETUP_REPEATS = 5
SELFTEST_SHAPES = (("dhss", (2, 3), (2, 3)), ("chss", (2, 3), (2, 3)), ("ab", (5,), (3,)))


def import_package(src: Path):
    """Fresh import of crthss from ``src``, so set-up pays the import."""
    for name in [m for m in sys.modules if m == "crthss" or m.startswith("crthss.")]:
        del sys.modules[name]
    pkg = importlib.import_module("crthss")
    importlib.import_module("crthss.cli")  # also brings in fileformat
    if not Path(pkg.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"crthss imported from {pkg.__file__}, not {src}")
    return pkg


def timed_setup(src: Path, name: str, seed: int, workdir: Path):
    """Fresh import plus the workload's inputs. The CPU time is scaled to the
    reference speed by kernel samples taken right before and after it, since
    a set-up is short enough to fall inside one burst of contention."""
    before = [calibration_kernel() for _ in range(3)]
    start = process_time()
    pkg = import_package(src)
    workload = WORKLOADS[name](pkg, seed, workdir)
    seconds = process_time() - start
    after = [calibration_kernel() for _ in range(3)]
    return pkg, workload, seconds * KERNEL_REF_S / statistics.fmean(before + after)


def measure(workload, seconds: float, min_ops: int = 0) -> tuple[list[list], float]:
    """Whole cycles of the mix until ``seconds`` have passed and every op
    kind has at least ``min_ops`` samples, with op times scaled to the
    reference speed; returns the cycles and the mean scale."""
    workload.reset_speed()
    cycles = []
    counts: dict[str, int] = {}
    deadline = perf_counter() + seconds
    while True:
        cycles.append(workload.cycle())
        for record in cycles[-1]:
            counts[record.kind] = counts.get(record.kind, 0) + 1
        if perf_counter() >= deadline and min(counts.values()) >= min_ops:
            scales = workload.segment_scales()
            scaled = [[r._replace(seconds=r.seconds * scales[r.segment]) for r in c] for c in cycles]
            return scaled, statistics.fmean(scales)


def secret_free_selftest(pkg, seed: int, workdir: Path) -> list[str]:
    """Deal known secrets under tracing and look for their values in the trace."""
    rng = random.Random(f"selftest:{seed}")
    values: set[int] = set()
    with Tracer(pkg) as tracer:
        for scheme, levels, thresholds in SELFTEST_SHAPES:
            params = fixtures.scheme_params(
                pkg, rng, lambda: fixtures.random_prime(pkg, rng, 128), levels, thresholds)
            out = workdir / scheme
            out.mkdir(parents=True, exist_ok=True)
            fixtures.write_params(pkg, out / "params.json", scheme, params)
            secret = rng.randrange(params.sequence.m0)
            call_cli(pkg, ["deal", "--params", str(out / "params.json"), "--secret", str(secret),
                           "--seed", str(rng.getrandbits(63)), "--out-dir", str(out),
                           "--emit-dealer-secrets"])
            shares = [out / f"share_{i:03d}.json" for i in range(1, params.hierarchy.n + 1)]
            got = call_cli(pkg, ["reconstruct", "--public", str(out / "public_bundle.json"),
                                 "--shares", *map(str, shares)])
            if got.out != f"{secret}\n":
                return [f"selftest {scheme}: reconstruct gave {got.rc}"]
            dealer = json.loads((out / "dealer_secrets.json").read_text(encoding="utf-8"))
            values.add(secret)
            values.update(int(json.loads(p.read_text(encoding="utf-8"))["value"]) for p in shares)
            values.update(int(v) for vals in dealer["values"].values() for v in vals)
    text = tracer.dumps()
    # Floats in the trace print at most 17 significant digits, so a value of
    # 19 digits or more cannot match one by accident.
    checked = [v for v in values if v >= 10**18]
    leaked = sum(str(v) in text for v in checked)
    problems = [f"selftest: {leaked} secret values appear in the trace"] if leaked else []
    if len(checked) < 20:
        problems.append(f"selftest: only {len(checked)} values large enough to check")
    return problems


def end_to_end(cycles, setup_s: float) -> dict:
    ok = [r.seconds for c in cycles for r in c if r.ok]
    p50, p90 = latency_stats(ok)
    per_cycle = [sum(r.ok for r in c) / sum(r.seconds for r in c) for c in cycles]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (statistics.median(per_cycle), "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "crthss" / "__init__.py").is_file():
        print(f"error: no crthss sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    scratch = root / ".perfbench_work"
    workdir = scratch / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            pkg, workload, seconds = timed_setup(src, args.workload, args.seed, workdir)
            setups.append(seconds)
        problems, notes = workload.precheck()

        if args.trace:
            problems += secret_free_selftest(pkg, args.seed, workdir / "selftest")
            plain, _ = measure(workload, args.seconds / 2)
            with Tracer(pkg) as tracer:
                workload.tracer = tracer
                traced, scale = measure(workload, args.seconds / 2)
            workload.tracer = None
            (scratch / f"trace-{args.workload}.jsonl").write_text(tracer.dumps(), encoding="utf-8")
            cycle_s = [statistics.fmean(sum(r.seconds for r in c) for c in cs)
                       for cs in (plain, traced)]
            metrics = {name: (value * scale if unit == "s/cycle" else value, unit)
                       for name, (value, unit) in layer_metrics(tracer, len(traced)).items()}
            metrics["trace.overhead_ratio"] = (cycle_s[1] / cycle_s[0] - 1, "ratio")
            cycles = plain + traced
        else:
            cycles, scale = measure(workload, args.seconds, workload.min_ops)
            ok = any(r.ok for c in cycles for r in c)
            metrics = end_to_end(cycles, statistics.median(setups)) if ok else {}
        records = [r for c in cycles for r in c]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = sorted({f"{r.kind} {r.config}" for r in records if not r.ok})
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "speed_scale": scale, "notes": notes,
        "problems": problems, "failed_ops": failures[:10],
        "detail": {k: {"value": v, "unit": u} for k, (v, u) in workload.detail(records).items()},
    }), file=sys.stderr)
    failed = sum(not r.ok for r in records)
    correct = not problems and not failed
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
