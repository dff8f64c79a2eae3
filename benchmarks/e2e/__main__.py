"""The repository benchmark: ``python -m benchmarks.e2e``.

One run of one workload (the form ``BENCHMARK.json`` names)::

    python -m benchmarks.e2e --workload release_http --seed 3 --seconds 10 --trace 0

prints every metric by name with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  The
exit code is 0 only when every correctness check held.

Sets of runs, and their comparison::

    python -m benchmarks.e2e run --seed 0 --repeats 5 --out OUT [--trace] [--smoke]
    python -m benchmarks.e2e compare OUT_PARENT OUT_CHANGE

``run`` alternates the workload order between repeats, gives repeat *i*
the seed ``seed + i``, and writes ``OUT/runs/<workload>-<i>.json`` plus
``OUT/summary.json`` (median, quartiles and sample count per metric).  A
second ``run`` into the same ``OUT`` adds repeats to the set, so a parent
and a change can take turns one repeat at a time.
``reference`` rewrites the figure rows the figure workloads check against.

Every workload run happens in fresh worker processes
(``benchmarks.e2e.worker``) under ``.bench_work/`` in the checkout; set-up
time is the median over :data:`SETUP_PROBES` extra set-up-only processes,
one before and one after the measuring process, and the measuring one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from benchmarks.e2e.stats import quartiles, verdict

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".bench_work"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
FIGURE_WORKLOADS = ("figure_attack", "figure_recovery")
SETUP_PROBES = 2
#: Every run must end within three minutes; leave room for the reporting.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result (not a failed check)."""


def load_benchmark() -> dict[str, Any]:
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    return json.loads(BENCHMARK.read_text())


def _spawn_worker(work: Path, args: list[str], deadline: float) -> dict[str, Any]:
    """Run one worker process to completion and return its result file."""
    result = work / f"result-{time.monotonic_ns()}.json"
    env = dict(os.environ)
    # OpenBLAS spin-waits a thread per core; on two shared cores that only adds noise.
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    spawned_at = time.monotonic()
    cmd = [
        sys.executable, "-m", "benchmarks.e2e.worker", *args,
        "--work", str(work), "--result", str(result), "--spawned-at", repr(spawned_at),
    ]
    # Its own session, so a timeout can stop the worker and its server together.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=sys.stderr.fileno(), start_new_session=True
    )
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"worker {args[:2]} did not finish in time") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if code != 0 or not result.exists():
        raise BenchError(f"worker {' '.join(args)} exited with {code}")
    return json.loads(result.read_text())


def run_one(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    smoke: bool = False,
    out: "Path | None" = None,
    extra: "list[str] | None" = None,
) -> dict[str, Any]:
    """One benchmark run of one workload; returns the full record."""
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if workload not in names:
        raise BenchError(f"unknown workload {workload!r}; expected one of {names}")
    deadline = time.monotonic() + RUN_BUDGET_S
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}-{time.monotonic_ns()}"
    work.mkdir()
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace))] + (["--smoke"] if smoke else []) + (extra or [])
    probes = 0 if trace or smoke else SETUP_PROBES
    try:
        # Probes on both sides of the measuring process, so the set-up
        # samples do not all fall into one state of a shared host.
        setup = [
            _spawn_worker(work, [*args, "--setup-only"], deadline)["setup_s"]
            for _ in range(probes // 2)
        ]
        main = _spawn_worker(work, args, deadline)
        setup.append(main["setup_s"])
        setup += [
            _spawn_worker(work, [*args, "--setup-only"], deadline)["setup_s"]
            for _ in range(probes - probes // 2)
        ]
        if out is not None and trace:
            spans = work / f"trace-{workload}.jsonl"
            if spans.exists():
                out.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(spans, out / spans.name)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    catalog = bench["per_layer"] if trace else bench["end_to_end"]
    values = dict(main["metrics"])
    if not trace:
        values["setup_s"] = statistics.median(setup)
    units = {m["name"]: m["unit"] for m in catalog}
    unknown = sorted(set(values) - set(units))
    missing = sorted(set(units) - set(values))
    if unknown or (missing and not trace):
        raise BenchError(f"metrics not in BENCHMARK.json: {unknown}; not measured: {missing}")
    return {
        "correct": not main["failures"],
        "attempted": int(main["attempted"]),
        "failed": int(main["failed"]) + len(main["failures"]),
        # A layer the workload never reaches reads 0.
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setup_samples_s": setup,
        "failures": main["failures"],
        "detail": main["detail"],
        "env": main["env"],
    }


def result_line(record: dict[str, Any]) -> str:
    keys = ("correct", "attempted", "failed", "metrics")
    return json.dumps({key: record[key] for key in keys})


def print_record(record: dict[str, Any]) -> None:
    for failure in record["failures"]:
        print(f"{record['workload']}: CHECK FAILED: {failure}")
    for name, metric in record["metrics"].items():
        print(f"{record['workload']} {name} = {metric['value']:.6g} {metric['unit']}")


def cmd_single(args: argparse.Namespace) -> int:
    record = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print_record(record)
    print(result_line(record), flush=True)
    return 0 if record["correct"] else 1


def cmd_run(args: argparse.Namespace) -> int:
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    runs_dir = args.out / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    # A set can grow one repeat at a time, so two checkouts can take turns.
    first = len(list(runs_dir.glob(f"{workloads[0]}-*.json")))
    all_correct = True
    for repeat in range(first, first + args.repeats):
        order = workloads if repeat % 2 == 0 else list(reversed(workloads))
        for workload in order:
            record = run_one(workload, args.seed + repeat, bench["run_seconds"], args.trace,
                             smoke=args.smoke, out=args.out)
            (runs_dir / f"{workload}-{repeat}.json").write_text(json.dumps(record, indent=1))
            print_record(record)
            all_correct &= record["correct"]
    collected: dict[str, dict[str, dict[str, Any]]] = {}
    for workload in workloads:
        repeats = sorted(runs_dir.glob(f"{workload}-*.json"),
                         key=lambda path: int(path.stem.rsplit("-", 1)[1]))
        for path in repeats:
            for name, metric in json.loads(path.read_text())["metrics"].items():
                entry = collected.setdefault(workload, {}).setdefault(
                    name, {"unit": metric["unit"], "values": []}
                )
                entry["values"].append(metric["value"])
    for metrics in collected.values():
        for entry in metrics.values():
            q1, median, q3 = quartiles(entry["values"])
            entry.update({"median": median, "q1": q1, "q3": q3, "n": len(entry["values"])})
    (args.out / "summary.json").write_text(json.dumps({"workloads": collected}, indent=1))
    print("\nmedians over the set's runs:")
    for workload, metrics in collected.items():
        for name, entry in metrics.items():
            print(f"  {workload:16s} {name:42s} {entry['median']:12.6g} {entry['unit']:6s} "
                  f"[{entry['q1']:.6g}, {entry['q3']:.6g}] n={entry['n']}")
    return 0 if all_correct else 1


def cmd_compare(args: argparse.Namespace) -> int:
    bench = json.loads(BENCHMARK.read_text())
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    parent = json.loads((args.parent / "summary.json").read_text())["workloads"]
    change = json.loads((args.change / "summary.json").read_text())["workloads"]
    regressed = False
    print(f"{'workload':16s} {'metric':42s} {'parent median [q1, q3]':>30s} "
          f"{'change median [q1, q3]':>30s}  wins p/c  verdict")
    for workload in sorted(set(parent) & set(change)):
        for name in sorted(set(parent[workload]) & set(change[workload])):
            p, c = parent[workload][name], change[workload][name]
            spec = specs.get(name, {})
            if "bound" in spec:
                v = verdict(p["values"], c["values"], spec["better"], spec["bound"])
                label, wins = v.label, f"{v.parent_wins}/{v.change_wins}"
            else:
                label, wins = "-", "-"
            regressed |= label == "regressed"
            print(f"{workload:16s} {name:42s} "
                  f"{_fmt(p):>30s} {_fmt(c):>30s}  {wins:8s}  {label}")
    return 1 if regressed else 0


def _fmt(entry: dict[str, Any]) -> str:
    return f"{entry['median']:.5g} [{entry['q1']:.5g}, {entry['q3']:.5g}]"


def cmd_reference(args: argparse.Namespace) -> int:
    """Rewrite the reference rows the figure workloads check against."""
    for workload in FIGURE_WORKLOADS:
        path = REFERENCE_DIR / f"{workload}.json"
        record = run_one(workload, 0, 0.0, False,
                         extra=["--record-reference", str(path)])
        if not record["correct"]:
            print("\n".join(record["failures"]), file=sys.stderr)
            return 1
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    if argv[:1] and not argv[0].startswith("-"):
        parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
        sub = parser.add_subparsers(dest="command", required=True)
        run = sub.add_parser("run", help="sets of runs of every workload")
        run.add_argument("--seed", type=int, default=0)
        run.add_argument("--repeats", type=int, default=5)
        run.add_argument("--out", type=Path, required=True)
        run.add_argument("--trace", action="store_true", help="per-layer metrics")
        run.add_argument("--smoke", action="store_true", help="minimal sizes")
        run.set_defaults(fn=cmd_run)
        compare = sub.add_parser("compare", help="verdict per metric and workload")
        compare.add_argument("parent", type=Path)
        compare.add_argument("change", type=Path)
        compare.set_defaults(fn=cmd_compare)
        reference = sub.add_parser("reference", help="rewrite the figure reference rows")
        reference.set_defaults(fn=cmd_reference)
        return parser
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.set_defaults(fn=cmd_single)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return int(args.fn(args))
    except BenchError as exc:
        print(f"benchmarks.e2e: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
