"""betta benchmark: end-to-end CLI timings, or a traced per-layer run.

Run from the root of a source checkout:

    python3 bench/run.py --workload mc_power --seed 1 --seconds 25 --trace 0

The workloads (see BENCHMARK.json) are generated from --seed and run
through ``betta.cli.main`` in this process. With --trace 0 the run reports
the end-to-end metrics; with --trace 1 it runs the traced pipelines and
reports the per-layer metrics. Human-readable lines come first; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Scratch files go to .bench_run/ under the
checkout; each traced run leaves its spans there.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"


def row(name: str, value: float, unit: str, note: str = "") -> str:
    return f"{name:<20} {value:12.4f} {unit:<6} {note}".rstrip()


def end_to_end_metrics(workload, result) -> tuple[dict, list[str]]:
    """The gated metrics, and report lines that also name the raw wall times.

    A statistic that needs more successful calls than the run had is left
    out of the metrics and printed as n/a; the failures themselves are in
    the result's `failed` count and in `error_rate`.
    """
    from workloads import TAIL_BEYOND, tail

    setup_s = statistics.median(result.setup_normalized)
    metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (result.rss_mb, "MB")}
    t = result.tally
    n = len(result.times)
    lines = [
        row("setup_s", setup_s, "s", f"median of {len(result.setup)} fresh imports at the reference speed"),
        row("setup_wall_s", statistics.median(result.setup), "s", "wall"),
        row("peak_rss_mb", result.rss_mb, "MB", "this process"),
        row("error_rate", t.failed / t.attempted, "ratio", f"{t.failed} failed of {t.attempted}"),
    ]
    if getattr(workload, "workers", 1) > 1:
        lines.append(row("peak_rss_mb_workers", result.children_rss_mb, "MB", "the largest pool worker"))
    digests = [f"sha256 {name} {digest}" for name, digest in sorted(result.digests.items())]
    if n == 0:
        return metrics, lines + ["call times: n/a, no call succeeded"] + digests

    norm_s = statistics.median(result.normalized)
    call_s = statistics.median(result.times)
    metrics["call_norm_s"] = (norm_s, "s")
    lines.append(row("call_norm_s", norm_s, "s", f"median of {n} calls at the reference speed"))
    if n > TAIL_BEYOND:
        norm_tail, pct = tail(result.normalized)
        call_tail, _ = tail(result.times)
        lines.append(row("call_norm_s_tail", norm_tail, "s", f"p{pct} of {n} calls at the reference speed"))
    else:
        call_tail = None
        lines.append(f"call_norm_s_tail: n/a, {n} successful calls leave no percentile "
                     f"with {TAIL_BEYOND} beyond it")
    if result.datasets_per_call > 1:
        name = "datasets_per_s" + ("_w2" if workload.workers == 2 else "")
        lines += [
            row(name, result.datasets_per_call / call_s, "1/s",
                f"wall, {result.datasets_per_call} datasets per call"),
            row(name + "_norm", result.datasets_per_call / norm_s, "1/s", "at the reference speed"),
        ]
    else:
        lines.append(row("fit_s", call_s, "s", f"wall, median of {n} calls"))
        if call_tail is not None:
            lines.append(row("fit_s_tail", call_tail, "s", f"wall, p{pct} of {n} calls"))
    return metrics, lines + digests


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "betta" / "__init__.py").is_file():
        print(f"error: no betta source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    RUN_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR))
    try:
        env = workloads.environment()
        print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
        print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
        if args.trace:
            from tracing import traced_run

            tally, metrics, lines, tracers = traced_run(args.seed, args.seconds, work)
            spans_file = RUN_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            spans_file.write_text(json.dumps({
                "environment": env,
                "fields": ["id", "name", "start", "end", "parent", "op"],
                "pipelines": {tr.pipeline: tr.spans for tr in tracers},
            }) + "\n", encoding="utf-8")
            lines += [f"{name:<48} {value:12.6g} {unit}" for name, (value, unit) in metrics.items()]
            lines.append(f"spans written to {spans_file}")
        else:
            workload = workloads.WORKLOADS[args.workload]
            result = workloads.measure(workload, args.seed, args.seconds, work)
            tally = result.tally
            metrics, lines = end_to_end_metrics(workload, result)
            lines = result.notes + lines
        print("\n".join(lines))
        for error in tally.errors:
            print(f"failure: {error}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
