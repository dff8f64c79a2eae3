"""Command-line interface: run experiments, list them, inspect datasets.

Examples::

    poiagg list
    poiagg run fig6 --scale quick --out results/
    poiagg run all --scale ci --out results/ --keep-going
    poiagg run all --scale ci --out results/ --resume
    poiagg run all --sharded --shard-timeout 1800 --shard-retries 2 \\
        --out results/ --resume   # supervised shards, shard-level resume
    poiagg ingest data/city.csv --policy quarantine --report report.json

Exit codes (for ``run`` and ``ingest``): 0 — success; 1 — failure (an
experiment failed / the dataset was rejected under the policy); 2 — the
invocation was bad (unknown experiment id, ``--resume`` without
``--out``, unparsable arguments).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from repro.experiments.registry import EXPERIMENTS
from repro.experiments.scale import SCALES, get_scale

if TYPE_CHECKING:
    from repro.experiments.results import ExperimentResult
    from repro.experiments.runner import ExperimentRun
    from repro.experiments.scale import ExperimentScale
    from repro.poi.cities import City

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poiagg",
        description=(
            "Reproduction of 'Practical Location Privacy Attacks and Defense "
            "on Point-of-interest Aggregates' (ICDCS 2021)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments and scales")

    run = sub.add_parser(
        "run",
        help="run one experiment (or 'all')",
        description=(
            "Run one experiment, or 'all' for the whole registry. "
            "Exit codes: 0 = all experiments ok, 1 = some experiments "
            "failed, 2 = bad invocation."
        ),
    )
    run.add_argument("experiment", help="experiment id from 'poiagg list', or 'all'")
    run.add_argument(
        "--scale", default="ci", choices=sorted(SCALES), help="sample-size preset"
    )
    run.add_argument(
        "--keep-going",
        action="store_true",
        help=(
            "do not stop at the first failing experiment: run the rest, "
            "print a failure summary, and exit 1 at the end"
        ),
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help=(
            "skip experiments already checkpointed under <out>/.checkpoints "
            "for this scale and seed (requires --out); checkpoints are "
            "written atomically after each successful experiment"
        ),
    )
    run.add_argument("--seed", type=int, default=None, help="override the preset seed")
    run.add_argument(
        "--out", type=Path, default=None, help="directory to write JSON results into"
    )
    run.add_argument(
        "--chart",
        action="store_true",
        help="also render the experiment's figure as an ASCII chart",
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="shard the experiment across N processes (where it has a shard axis)",
    )
    run.add_argument(
        "--sharded",
        action="store_true",
        help=(
            "shard experiments across processes under supervision "
            "(auto worker count: min(#shards, #cpus)); implied by --jobs > 1"
        ),
    )
    run.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-shard wall-clock timeout; a worker running past it is "
            "killed and the shard retried on a fresh process"
        ),
    )
    run.add_argument(
        "--shard-retries",
        type=int,
        default=1,
        metavar="N",
        help=(
            "extra attempts per shard after the first, each on a fresh "
            "worker (default 1; 0 disables retries)"
        ),
    )
    run.add_argument(
        "--serial-fallback",
        action="store_true",
        help=(
            "if a shard's workers keep crashing, re-run that shard "
            "serially in this process instead of failing the experiment"
        ),
    )
    run.add_argument(
        "--svg",
        type=Path,
        default=None,
        help="directory to write an SVG rendering of the figure into",
    )

    report = sub.add_parser(
        "report", help="render saved JSON results into one Markdown report"
    )
    report.add_argument("results_dir", type=Path, help="directory of poiagg JSON results")
    report.add_argument(
        "--output", type=Path, default=None, help="report path (default: <dir>/REPORT.md)"
    )

    attack = sub.add_parser(
        "attack", help="re-identify one location's aggregate in a synthetic city"
    )
    attack.add_argument("--city", default="beijing", choices=["beijing", "nyc", "small"])
    attack.add_argument("--x", type=float, required=True, help="planar x in meters")
    attack.add_argument("--y", type=float, required=True, help="planar y in meters")
    attack.add_argument("--radius", type=float, default=2_000.0, help="query range in meters")
    attack.add_argument(
        "--fine", action="store_true", help="also run the fine-grained attack"
    )
    attack.add_argument("--seed", type=int, default=None)

    uniq = sub.add_parser(
        "uniqueness", help="print a city's uniqueness map and anchor profile"
    )
    uniq.add_argument("--city", default="beijing", choices=["beijing", "nyc", "small"])
    uniq.add_argument("--radius", type=float, default=2_000.0)
    uniq.add_argument("--cell", type=float, default=2_000.0, help="map cell size in meters")
    uniq.add_argument("--seed", type=int, default=None)

    ingest = sub.add_parser(
        "ingest",
        help="validate a dataset file and report every record's fate",
        description=(
            "Stream a POI CSV (+ .meta.json sidecar), OSM XML extract, or "
            "trajectory log through the validating ingestion layer. "
            "Policies: strict = reject the file at the first bad record "
            "(with its row number), repair = apply deterministic fixes, "
            "quarantine = divert unfixable records to a sidecar. "
            "Exit codes: 0 = ingested (report printed), 1 = rejected "
            "under the policy, 2 = bad invocation."
        ),
    )
    ingest.add_argument("source", type=Path, help="dataset file to ingest")
    ingest.add_argument(
        "--format",
        default="auto",
        choices=["auto", "poi-csv", "osm", "trajectory"],
        help="source format (auto: detect from suffix and header)",
    )
    ingest.add_argument(
        "--policy",
        default="strict",
        choices=["strict", "repair", "quarantine"],
        help="what to do with bad records (default: strict)",
    )
    ingest.add_argument(
        "--report",
        type=Path,
        default=None,
        metavar="PATH",
        help="also write the ingest report as JSON (atomically)",
    )
    ingest.add_argument(
        "--quarantine",
        type=Path,
        default=None,
        metavar="PATH",
        help="quarantine sidecar location (default: <source>.quarantine.jsonl)",
    )
    ingest.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help=(
            "serve/commit the parsed database through the checksummed "
            "atomic dataset cache (POI CSV and OSM only)"
        ),
    )

    serve = sub.add_parser(
        "serve",
        help="run the online release-and-defense HTTP service",
        description=(
            "Serve frequency releases over HTTP with per-user privacy-"
            "budget ledgers (durable; a crash-and-restart never double-"
            "spends), bounded-queue backpressure, and a load-shedding "
            "ladder. Endpoints: POST /v1/submit, GET /v1/status, "
            "GET /v1/jobs/<id>, GET /v1/result/<id>. Runs until "
            "interrupted. Exit codes: 0 = clean shutdown, 2 = bad "
            "invocation."
        ),
    )
    serve.add_argument("--city", default="small", choices=["beijing", "nyc", "small"])
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8377, help="0 picks a free port")
    serve.add_argument(
        "--budget-epsilon", type=float, default=5.0, help="per-user epsilon budget"
    )
    serve.add_argument(
        "--budget-delta", type=float, default=0.0, help="per-user delta budget"
    )
    serve.add_argument(
        "--epsilon", type=float, default=1.0, help="per-release laplace epsilon"
    )
    serve.add_argument(
        "--ledger-dir",
        type=Path,
        default=None,
        help="durable budget-ledger directory (default: in-memory only)",
    )
    serve.add_argument(
        "--journal",
        type=Path,
        default=None,
        help="JSONL heartbeat/audit journal path (default: off)",
    )
    serve.add_argument("--queue-capacity", type=int, default=256)
    serve.add_argument("--workers", type=int, default=1)
    serve.add_argument("--batch-max", type=int, default=64)
    serve.add_argument("--seed", type=int, default=None)
    serve.add_argument(
        "--attack-audit",
        action="store_true",
        help="audit completed releases with the batched region attack",
    )

    loadgen = sub.add_parser(
        "loadgen",
        help="drive the serve HTTP API with a seeded load profile",
        description=(
            "Generate a deterministic request stream against a running "
            "'poiagg serve' instance, wait for every accepted request to "
            "reach a terminal fate, and write latency/throughput "
            "percentiles to a JSON report. Exit codes: 0 = drained and "
            "every fate accounted, 1 = fates unaccounted or drain timed "
            "out, 2 = bad invocation."
        ),
    )
    loadgen.add_argument("--url", default="http://127.0.0.1:8377", help="server base URL")
    loadgen.add_argument(
        "--profile",
        default="smoke",
        choices=["smoke", "small", "bench", "flood"],
    )
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_serve.json"),
        help="JSON report path (default: BENCH_serve.json)",
    )

    federate = sub.add_parser(
        "federate",
        help="run a dropout-tolerant federated aggregation campaign",
        description=(
            "Aggregate clipped per-cell frequency vectors from seeded "
            "simulated clients under distributed DP. Rounds tolerate "
            "dropouts down to the quorum, refuse late and malformed "
            "contributions, clip outliers, and either commit atomically "
            "(spending the round's privacy budget) or abort with the "
            "budget untouched. Exit codes: 0 = every round reached an "
            "outcome and at least one committed, 1 = no round committed "
            "or accounting failed, 2 = bad invocation."
        ),
    )
    federate.add_argument("--city", default="small", choices=["beijing", "nyc", "small"])
    federate.add_argument("--clients", type=int, default=1_000, help="enrolled clients")
    federate.add_argument("--rounds", type=int, default=3)
    federate.add_argument("--epsilon", type=float, default=1.0, help="per-round epsilon")
    federate.add_argument("--delta", type=float, default=0.2, help="per-round delta")
    federate.add_argument(
        "--clip", type=float, default=64.0, help="L1 clip bound per contribution"
    )
    federate.add_argument(
        "--quorum",
        type=float,
        default=0.8,
        help="fraction of clients that must contribute for a round to commit",
    )
    federate.add_argument(
        "--deadline", type=float, default=1.0, help="per-client deadline (seconds)"
    )
    federate.add_argument(
        "--retries", type=int, default=1, help="extra attempts for silent clients"
    )
    federate.add_argument(
        "--memory-budget",
        type=float,
        default=256.0,
        metavar="MB",
        help="aggregator working-memory cap (accumulators + fold buffers)",
    )
    federate.add_argument("--chunk-clients", type=int, default=2_048)
    federate.add_argument(
        "--budget-epsilon",
        type=float,
        default=None,
        help="campaign epsilon budget (default: rounds x epsilon)",
    )
    federate.add_argument("--seed", type=int, default=None)
    federate.add_argument(
        "--out",
        type=Path,
        default=None,
        help="checkpoint/report directory (rounds checkpoint atomically)",
    )
    federate.add_argument(
        "--resume",
        action="store_true",
        help="restore finished rounds from <out> checkpoints (requires --out)",
    )
    federate.add_argument(
        "--keep-checkpoints",
        type=int,
        default=None,
        metavar="N",
        help=(
            "retain only the N newest round checkpoints (each carries "
            "cumulative state, so resume needs only the newest); "
            "default: keep all"
        ),
    )
    for fault in ("crash", "hang", "malformed", "poisoned", "duplicate"):
        federate.add_argument(
            f"--{fault}-rate",
            type=float,
            default=0.0,
            metavar="P",
            help=f"per-(round, client) {fault} probability (chaos injection)",
        )
    federate.add_argument(
        "--fault-seed", type=int, default=0, help="seed for the fault plan"
    )

    crashsweep = sub.add_parser(
        "crashsweep",
        help="exhaustive crash-point recovery sweep over durable writers",
        description=(
            "Enumerate every durable I/O operation of each durable writer "
            "(checkpoints, dataset cache, budget-ledger WAL, shard-"
            "checkpoint GC, quarantine sidecars) and kill the process at "
            "every one of them — plus torn-write and lying-fsync variants "
            "— then assert the recovery oracles: no budget double-spend, "
            "complete-or-invisible artifacts, consistent ledger replay. "
            "Exit codes: 0 = every crash point recovered, 1 = at least "
            "one oracle violation, 2 = bad invocation."
        ),
    )
    crashsweep.add_argument(
        "--seed", type=int, default=0, help="seed for torn-prefix choices"
    )
    crashsweep.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="sweep only this scenario (repeatable; default: all)",
    )
    crashsweep.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the full JSON sweep report here",
    )

    check = sub.add_parser(
        "check",
        help="run the PL invariant linter over first-party code",
        description=(
            "Invariant linter (rules PL001-PL014). Per-file syntactic "
            "rules (PL001-PL010): seed discipline, DP accounting, Freq "
            "dtype/hypot discipline, picklable shard workers, wall-clock-"
            "free experiment paths, no deprecated attack shims, atomic "
            "cache/checkpoint writes, timeout-bounded blocking in the "
            "serve path, no shared-memory segments, config-bounded federated "
            "accumulators. Project-wide dataflow analyses (PL011-PL014, "
            "enabled with --analysis taint,locks,commit or 'all'): "
            "privacy-taint source-to-sink tracking, exception-skippable "
            "budget spends, lock-order/blocking discipline, and commit-"
            "protocol ordering. "
            "Exit codes: 0 = clean, 1 = violations, 2 = bad invocation."
        ),
    )
    from repro.lint.cli import add_check_arguments

    add_check_arguments(check)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.parallel import SHARD_AXES, run_sharded
    from repro.experiments.registry import run_experiment
    from repro.experiments.runner import EXIT_USAGE, run_many

    ids = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(
            f"poiagg run: unknown experiment {unknown[0]!r}; "
            f"choose from {sorted(EXPERIMENTS)}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.resume and args.out is None:
        print(
            "poiagg run: --resume needs --out (checkpoints live in the "
            "output directory)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.shard_timeout is not None and args.shard_timeout <= 0:
        print("poiagg run: --shard-timeout must be positive", file=sys.stderr)
        return EXIT_USAGE
    if args.shard_retries < 0:
        print("poiagg run: --shard-retries must be non-negative", file=sys.stderr)
        return EXIT_USAGE
    if args.jobs < 1:
        print("poiagg run: --jobs must be at least 1", file=sys.stderr)
        return EXIT_USAGE

    scale = get_scale(args.scale)
    if args.seed is not None:
        scale = scale.with_seed(args.seed)
    sharded = args.sharded or args.jobs > 1

    def run_fn(experiment_id: str, run_scale: ExperimentScale) -> ExperimentResult:
        if sharded and experiment_id in SHARD_AXES:
            return run_sharded(
                experiment_id,
                run_scale,
                max_workers=args.jobs if args.jobs > 1 else None,
                timeout_s=args.shard_timeout,
                retries=args.shard_retries,
                serial_fallback=args.serial_fallback,
                out=args.out,
                resume=args.resume,
            )
        return run_experiment(experiment_id, run_scale)

    def after(run: ExperimentRun) -> None:
        if run.status == "skipped":
            print(f"[{run.experiment_id} skipped: already checkpointed]")
            return
        if run.status == "failed":
            print(f"[{run.experiment_id} FAILED after {run.elapsed_s:.1f}s: {run.error}]")
            return
        print(run.result.render())
        if args.chart:
            from repro.experiments.figure_charts import render_chart

            rendered = render_chart(run.result)
            if rendered is not None:
                print(rendered)
        print(f"[{run.experiment_id} finished in {run.elapsed_s:.1f}s]")
        if args.out is not None:
            print(f"[saved {args.out / f'{run.experiment_id}_{scale.name}.json'}]")
        if args.svg is not None:
            from repro.experiments.svg import save_figure_svg

            svg_path = save_figure_svg(run.result, args.svg)
            if svg_path is not None:
                print(f"[figure written to {svg_path}]")

    summary = run_many(
        ids,
        scale,
        out=args.out,
        keep_going=args.keep_going,
        resume=args.resume,
        run_fn=run_fn,
        after=after,
    )
    if len(ids) > 1 or summary.failed:
        print(summary.render())
    return summary.exit_code


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        print("experiments:")
        for name in EXPERIMENTS:
            print(f"  {name}")
        print("scales:")
        for name, scale in SCALES.items():
            print(f"  {name}: n_targets={scale.n_targets}, n_train={scale.n_train}")
        return 0
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "report":
        from repro.experiments.report import write_report

        path = write_report(args.results_dir, args.output)
        print(f"[report written to {path}]")
        return 0
    if args.command == "ingest":
        return _cmd_ingest(args)
    if args.command == "attack":
        return _cmd_attack(args)
    if args.command == "uniqueness":
        return _cmd_uniqueness(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    if args.command == "federate":
        return _cmd_federate(args)
    if args.command == "crashsweep":
        return _cmd_crashsweep(args)
    if args.command == "check":
        from repro.lint.cli import run_check

        return run_check(args)
    return 2


def _cmd_crashsweep(args: argparse.Namespace) -> int:
    from repro.core.crashsweep import render_report, run_sweeps, save_report
    from repro.experiments.durability import default_scenarios

    scenarios = default_scenarios()
    if args.scenario:
        known = {s.name for s in scenarios}
        unknown = [name for name in args.scenario if name not in known]
        if unknown:
            print(
                f"poiagg crashsweep: unknown scenario {unknown[0]!r}; "
                f"choose from {sorted(known)}",
                file=sys.stderr,
            )
            return 2
        scenarios = [s for s in scenarios if s.name in set(args.scenario)]
    aggregate = run_sweeps(scenarios, seed=args.seed)
    print(render_report(aggregate))
    if args.json is not None:
        path = save_report(aggregate, args.json)
        print(f"[sweep report written to {path}]")
    return 0 if aggregate["passed"] else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.dp.mechanisms import PrivacyParams
    from repro.serve.config import ServeConfig
    from repro.serve.httpapi import make_server
    from repro.serve.service import ReleaseService

    if args.budget_epsilon <= 0:
        print("poiagg serve: --budget-epsilon must be positive", file=sys.stderr)
        return 2
    if args.queue_capacity < 1 or args.workers < 1 or args.batch_max < 1:
        print(
            "poiagg serve: --queue-capacity, --workers and --batch-max "
            "must be at least 1",
            file=sys.stderr,
        )
        return 2
    city = _city_for(args)
    config = ServeConfig(
        queue_capacity=args.queue_capacity,
        n_workers=args.workers,
        batch_max=args.batch_max,
        attack_audit=args.attack_audit,
    )
    service = ReleaseService(
        city.database,
        PrivacyParams(args.budget_epsilon, args.budget_delta),
        config=config,
        ledger_dir=None if args.ledger_dir is None else str(args.ledger_dir),
        journal_path=None if args.journal is None else str(args.journal),
        seed=args.seed if args.seed is not None else 0,
        epsilon=args.epsilon,
    )
    if service.journal.disabled_reason is not None:
        print(
            f"poiagg serve: journal disabled: {service.journal.disabled_reason}",
            file=sys.stderr,
        )
    server = make_server(service, host=args.host, port=args.port)
    host, port = server.server_address[0], server.server_address[1]
    print(f"[poiagg serve: {city.name} on http://{host}:{port} ]", flush=True)

    # SIGTERM (the `kill` default, and what CI uses to stop the smoke
    # server) gets the same graceful drain as Ctrl-C.  Background jobs
    # of non-interactive shells start with SIGINT ignored, so SIGTERM
    # is the only reliable stop signal there.  Handlers can only be
    # installed from the main thread; anywhere else (in-process tests)
    # the caller stops the server directly.
    import signal
    import threading

    def _on_sigterm(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, _on_sigterm)

    service.start()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        service.stop()
    print("[poiagg serve: stopped]")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json

    from repro.serve.loadgen import LOAD_PROFILES, run_loadgen_http

    profile = LOAD_PROFILES[args.profile]
    report = run_loadgen_http(args.url, profile, seed=args.seed)
    from repro.ingest.atomic import atomic_write_text

    atomic_write_text(args.out, json.dumps(report.as_dict(), indent=2) + "\n")
    print(
        f"[loadgen {profile.name}: {report.n_submitted} submitted, "
        f"{report.fates.get('completed', 0)} completed, "
        f"p50={report.latency_s['p50'] * 1e3:.1f}ms "
        f"p95={report.latency_s['p95'] * 1e3:.1f}ms "
        f"p99={report.latency_s['p99'] * 1e3:.1f}ms, "
        f"{report.throughput_rps:.0f} req/s]"
    )
    print(f"[report written to {args.out}]")
    if not report.drained:
        print("poiagg loadgen: drain timed out", file=sys.stderr)
        return 1
    if not report.fates_accounted:
        print("poiagg loadgen: fates unaccounted", file=sys.stderr)
        return 1
    return 0


def _cmd_federate(args: argparse.Namespace) -> int:
    import json

    from repro.core.errors import ConfigError, ReproError
    from repro.dp.mechanisms import PrivacyParams
    from repro.federated import ClientFaultPlan, FederatedConfig, run_campaign
    from repro.ingest.atomic import atomic_write_text

    if args.resume and args.out is None:
        print(
            "poiagg federate: --resume needs --out (checkpoints live in "
            "the output directory)",
            file=sys.stderr,
        )
        return 2
    if args.keep_checkpoints is not None and args.keep_checkpoints < 1:
        print(
            "poiagg federate: --keep-checkpoints must be at least 1",
            file=sys.stderr,
        )
        return 2
    try:
        config = FederatedConfig(
            n_clients=args.clients,
            n_rounds=args.rounds,
            epsilon=args.epsilon,
            delta=args.delta,
            clip_bound=args.clip,
            quorum=args.quorum,
            deadline_s=args.deadline,
            retries=args.retries,
            memory_budget_mb=args.memory_budget,
            chunk_clients=args.chunk_clients,
        )
        rates = {
            f"{fault}_rate": getattr(args, f"{fault}_rate")
            for fault in ("crash", "hang", "malformed", "poisoned", "duplicate")
        }
        fault_plan = None
        if any(rate > 0 for rate in rates.values()):
            fault_plan = ClientFaultPlan(seed=args.fault_seed, **rates)
        budget = (
            None
            if args.budget_epsilon is None
            else PrivacyParams(args.budget_epsilon, args.delta * args.rounds)
        )
    except ConfigError as exc:
        print(f"poiagg federate: {exc}", file=sys.stderr)
        return 2

    city = _city_for(args)
    seed = args.seed if args.seed is not None else 0
    try:
        result = run_campaign(
            city.database,
            config,
            seed,
            budget=budget,
            fault_plan=fault_plan,
            out=args.out,
            resume=args.resume,
            checkpoint_keep_last=args.keep_checkpoints,
        )
    except ReproError as exc:
        print(f"poiagg federate: FAILED [{type(exc).__name__}] {exc}", file=sys.stderr)
        return 1

    print(
        f"[poiagg federate: {city.name}, {config.n_clients} clients, "
        f"quorum {config.quorum_count}, share sigma {config.share_sigma():.3f}]"
    )
    for outcome in result.rounds:
        ledger = outcome.ledger
        status = "committed" if outcome.committed else f"ABORTED ({outcome.abort_reason})"
        resumed = " [resumed]" if outcome.round_id < result.resumed_rounds else ""
        print(
            f"round {outcome.round_id}: {status}{resumed} — "
            f"{ledger.contributed}/{ledger.enrolled} contributed "
            f"(accepted {ledger.accepted}, clipped {ledger.clipped}, "
            f"malformed {ledger.rejected_malformed}, dropped {ledger.dropped_out}, "
            f"late {ledger.refused_late}, duplicates refused "
            f"{ledger.duplicates_refused})"
        )
    assert result.accountant is not None and result.grid is not None
    print(
        f"[{result.n_committed}/{len(result.rounds)} rounds committed, "
        f"epsilon spent {result.accountant.total_epsilon:.3g}, "
        f"{result.grid.n_cells} grid cells]"
    )
    if args.out is not None:
        report = {
            "config": json.loads(config.fingerprint()),
            "seed": seed,
            "rounds": [outcome.as_dict() for outcome in result.rounds],
            "n_committed": result.n_committed,
            "resumed_rounds": result.resumed_rounds,
            "epsilon_spent": result.accountant.total_epsilon,
            "n_cells": result.grid.n_cells,
        }
        path = Path(args.out) / "federated_report.json"
        atomic_write_text(path, json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"[report written to {path}]")
    return 0 if result.n_committed > 0 else 1


def _detect_format(path: Path) -> "str | None":
    """Guess a dataset file's format from its suffix, then its header."""
    if path.suffix.lower() in (".osm", ".xml"):
        return "osm"
    from repro.ingest.loaders import POI_CSV_HEADER, TRAJECTORY_LOG_HEADER

    try:
        with path.open("rb") as fh:
            header = fh.readline().decode("utf-8", errors="replace").strip()
    except OSError:
        return "poi-csv"  # let the loader produce the typed not-found error
    fields = tuple(header.split(","))
    if fields == TRAJECTORY_LOG_HEADER:
        return "trajectory"
    if fields == POI_CSV_HEADER:
        return "poi-csv"
    return None


def _cmd_ingest(args: argparse.Namespace) -> int:
    import json

    from repro.core.errors import IngestError
    from repro.ingest import atomic_write_text, collecting_ingest_reports

    fmt = args.format
    if fmt == "auto":
        fmt = _detect_format(args.source)
        if fmt is None:
            print(
                f"poiagg ingest: cannot detect the format of {args.source} "
                "(unrecognized header); pass --format explicitly",
                file=sys.stderr,
            )
            return 2
    if fmt == "trajectory" and args.cache_dir is not None:
        print(
            "poiagg ingest: --cache-dir applies to POI databases only "
            "(poi-csv / osm sources)",
            file=sys.stderr,
        )
        return 2

    with collecting_ingest_reports() as reports:
        try:
            if fmt == "poi-csv":
                from repro.poi.io import load_database

                load_database(
                    args.source,
                    policy=args.policy,
                    quarantine_path=args.quarantine,
                    cache_dir=args.cache_dir,
                )
            elif fmt == "osm":
                from repro.poi.osm import load_osm_xml

                load_osm_xml(
                    args.source,
                    policy=args.policy,
                    quarantine_path=args.quarantine,
                    cache_dir=args.cache_dir,
                )
            else:
                from repro.datasets.trajectory_io import load_trajectory_log

                load_trajectory_log(
                    args.source, policy=args.policy, quarantine_path=args.quarantine
                )
        except IngestError as exc:
            print(f"poiagg ingest: REJECTED [{type(exc).__name__}] {exc}", file=sys.stderr)
            return 1

    for report in reports:
        print(report.render())
        if report.quarantine_path is not None:
            print(f"[quarantined records written to {report.quarantine_path}]")
    if args.report is not None and reports:
        payload = [report.as_dict() for report in reports]
        atomic_write_text(
            args.report,
            json.dumps(payload[0] if len(payload) == 1 else payload, indent=2),
        )
        print(f"[report written to {args.report}]")
    return 0


def _city_for(args: argparse.Namespace) -> City:
    from repro.experiments.scale import DEFAULT_SEED
    from repro.poi.cities import CITY_BUILDERS

    seed = args.seed if args.seed is not None else DEFAULT_SEED
    return CITY_BUILDERS[args.city](seed)


def _cmd_attack(args: argparse.Namespace) -> int:
    from repro.attacks.base import Release
    from repro.attacks.fine_grained import FineGrainedAttack
    from repro.attacks.region import RegionAttack
    from repro.core.rng import derive_rng
    from repro.geo.point import Point

    city = _city_for(args)
    db = city.database
    target = db.bounds.clamp(Point(args.x, args.y))
    released = db.freq(target, args.radius)
    print(
        f"{city.name}: target ({target.x:.0f}, {target.y:.0f}) m, r={args.radius:.0f} m, "
        f"{int(released.sum())} POIs over {int((released > 0).sum())} types"
    )
    outcome = RegionAttack(db).run(Release(released, args.radius))
    if not outcome.success:
        print(f"attack failed: {len(outcome.candidates)} candidate regions")
        return 0
    region = outcome.region
    print(
        f"re-identified: anchor POI #{region.anchor_poi} "
        f"({db.vocabulary.name_of(outcome.anchor_type)}), "
        f"area {region.area / 1e6:.2f} km^2"
    )
    if args.fine:
        fine = FineGrainedAttack(db, max_aux=20).run(Release(released, args.radius))
        area = fine.search_area_m2(rng=derive_rng(0, "cli-attack"))
        print(
            f"fine-grained: {len(fine.anchors)} auxiliary anchors, "
            f"area {area / 1e6:.3f} km^2"
        )
    return 0


def _cmd_uniqueness(args: argparse.Namespace) -> int:
    from repro.analysis import anchor_statistics, uniqueness_map
    from repro.core.rng import derive_rng

    city = _city_for(args)
    db = city.database
    m = uniqueness_map(db, args.radius, cell_m=args.cell)
    print(f"{city.name} uniqueness map at r = {args.radius / 1000:.1f} km ('#' = unique):")
    print(m.to_ascii())
    print(f"map-level uniqueness: {m.rate:.1%}")
    stats = anchor_statistics(
        db, args.radius, n_samples=300, rng=derive_rng(0, "cli-uniq")
    )
    print(
        f"median anchor: {stats.median_anchor_city_count:.0f} POIs city-wide, "
        f"rank {stats.median_anchor_rank:.0f}/{db.n_types}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
