"""The harness command line: one subcommand per artifact.

Usage::

    python -m repro.harness                     # = figures (scaled sweep)
    python -m repro.harness figures --full      # paper-scale sweep
    python -m repro.harness figures --only fig8
    python -m repro.harness figures --obs-dir out/   # + .obs.json sidecars
    python -m repro.harness obs-report               # fork-cost profile
    python -m repro.harness obs-report --json profile.json
    python -m repro.harness chaos --seed 7 --iterations 200
    python -m repro.harness chaos --fault-mix "default=0.01,core.ufork.abort.*=0.2"
    python -m repro.harness smp --cpus 4 --seed 7    # one SMP run
    python -m repro.harness smp                      # 1/2/4/8 sweep
    python -m repro.harness conform --budget 100 --no-host
    python -m repro.harness conform-farm --workers 4 --depth 5 --seed 0
    python -m repro.harness conform-farm --workers 2 --depth 4 --chaos
    python -m repro.harness cluster --seed 42        # 1M-request cluster run
    python -m repro.harness cluster --shards 2 --requests 50000 --json out.json
    python -m repro.harness snapshot --strategy copa --obs-dir out/
    python -m repro.harness snapshot --incremental   # migration payload demo
    python -m repro.harness sec                      # full attack matrix
    python -m repro.harness sec --strategies copa --cpus-list 1 --modes clean

Every subcommand owns exactly its own flags (``figures --depth-bound``
is an error, not silence) and shares the common ``--seed``, ``--cpus``,
``--obs-dir`` and ``--json`` options through one parent parser.  A bare
flag list (``python -m repro.harness --only fig8``) keeps meaning the
historical default command, ``figures``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Callable, List, Optional, Sequence

from repro.harness import matrix

#: every subcommand; the first is the implied default for bare flags
SUBCOMMANDS = ("figures", "obs-report", "chaos", "smp", "conform",
               "conform-farm", "cluster", "snapshot", "sec")


# ---------------------------------------------------------------------------
# Argument types: every list, CPU, name and fault-mix option is checked
# here, at parse time, so a typo is a usage error (exit 2) that runs and
# writes nothing -- never a traceback, and never exit 1, which means a
# failing verdict
# ---------------------------------------------------------------------------

def _usage(parse: Callable[[str], Any]) -> Callable[[str], Any]:
    def convert(value: str) -> Any:
        try:
            return parse(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


@_usage
def _cpu_count(value: str) -> int:
    return matrix.check_cpus([int(value)])[0]


@_usage
def _cpu_list(value: str) -> List[int]:
    return list(matrix.check_cpus(int(n) for n in value.split(",")))


@_usage
def _strategy_list(value: str) -> List[str]:
    return list(matrix.check_names("strategies", value.split(","),
                                   matrix.STRATEGIES))


@_usage
def _mode_list(value: str) -> List[str]:
    return list(matrix.check_names("modes", value.split(","),
                                   matrix.MODES))


@_usage
def _attack(value: str) -> str:
    from repro.sec.attacks import ATTACKS
    return matrix.check_names("attacks", [value], tuple(ATTACKS))[0]


@_usage
def _scenario(value: str) -> str:
    from repro.conform.scenarios import corpus, sec_corpus, snapshot_corpus
    names = [scenario.name
             for scenario in corpus() + snapshot_corpus() + sec_corpus()]
    return matrix.check_names("scenarios", [value], names)[0]


@_usage
def _fault_mix(value: str) -> str:
    from repro.chaos.engine import FaultMix
    FaultMix.parse(value)  # the runners take the spec string itself
    return value


def _csv(values: Sequence[Any]) -> str:
    return ",".join(str(value) for value in values)


def _common_parent() -> argparse.ArgumentParser:
    """The options shared by every subcommand (one parent parser, so
    help text and defaults cannot drift between commands)."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("common options")
    group.add_argument("--seed", type=int, default=7,
                       help="deterministic seed (machine randomness, "
                            "fault schedules, explorer ordering)")
    group.add_argument("--cpus", type=_cpu_count, default=None,
                       help="online CPU count; commands that sweep "
                            "(smp, conform) treat the default as "
                            "'use the command's sweep list'")
    group.add_argument("--obs-dir", metavar="DIR", default=None,
                       help="write repro.obs/v1 metric sidecars (and "
                            "the command's own report) into DIR")
    group.add_argument("--json", metavar="PATH", default=None,
                       help="write the command's JSON report to PATH")
    return parent


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the μFork paper's tables, figures and "
                    "auxiliary reports.")
    parent = _common_parent()
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    figures = sub.add_parser(
        "figures", parents=[parent],
        help="print the paper's tables and figures (the default)")
    figures.add_argument("--full", action="store_true",
                         help="run the paper-scale 100 KB-100 MB sweep")
    figures.add_argument("--only", metavar="NAME", default=None,
                         help="run a single experiment "
                              "(table1, fig3..fig9, ablation, compat)")

    obs_report = sub.add_parser(
        "obs-report", parents=[parent],
        help="hierarchical fork-cost profile on all three systems")
    obs_report.add_argument("--samples", type=int, default=10,
                            help="observed fork/exit/wait cycles per "
                                 "system")

    chaos = sub.add_parser(
        "chaos", parents=[parent],
        help="fault-injection workload (docs/CHAOS.md)")
    chaos.add_argument("--iterations", type=int, default=200,
                       help="number of workload operations")
    chaos.add_argument("--fault-mix", metavar="SPEC", default=None,
                       type=_fault_mix,
                       help="pattern=rate,... injection rates "
                            "(see docs/CHAOS.md)")

    smp = sub.add_parser(
        "smp", parents=[parent],
        help="multi-core workload (docs/SMP.md); sweeps 1/2/4/8 "
             "cores unless --cpus pins one count")
    smp.add_argument("--requests", type=int, default=64,
                     help="number of workload requests")
    smp.add_argument("--workload", default="faas",
                     choices=["faas", "nginx", "forkbench"],
                     help="which workload to drive")
    smp.add_argument("--fault-mix", metavar="SPEC", default=None,
                     type=_fault_mix,
                     help="optional chaos injection rates")

    conform = sub.add_parser(
        "conform", parents=[parent],
        help="differential POSIX conformance suite "
             "(docs/CONFORMANCE.md)")
    conform.add_argument("--depth-bound", type=int, default=3,
                         help="max schedule deviations per explored "
                              "interleaving")
    conform.add_argument("--budget", type=int, default=600,
                         help="max schedules explored per scenario")
    conform.add_argument("--strategies", metavar="LIST", default=None,
                         type=_strategy_list,
                         help="comma-separated fork strategies "
                              f"(default: "
                              f"{_csv(matrix.CONFORM_STRATEGIES)})")
    conform.add_argument("--scenario", action="append", default=None,
                         type=_scenario,
                         help="run only this scenario (repeatable)")
    conform.add_argument("--no-host", action="store_true",
                         help="skip the host-POSIX oracle and diff "
                              "strategies against each other")

    conform_farm = sub.add_parser(
        "conform-farm", parents=[parent],
        help="parallel exploration farm: the interleaving explorer "
             "sharded over OS worker processes (docs/CONFORMANCE.md)")
    conform_farm.add_argument("--workers", type=int, default=4,
                              help="OS worker processes (each its own "
                                   "session/process group)")
    conform_farm.add_argument("--depth", type=int, default=5,
                              help="max schedule deviations per explored "
                                   "interleaving")
    conform_farm.add_argument("--budget", type=int, default=None,
                              help="schedules explored per "
                                   "(scenario, strategy, cpus) unit")
    conform_farm.add_argument("--chaos", action="store_true",
                              help="inject faults during exploration "
                                   "(deterministic per (seed, schedule))")
    conform_farm.add_argument("--chaos-mix", metavar="SPEC", default=None,
                              type=_fault_mix,
                              help="override the --chaos injection rates "
                                   "(pattern=rate,...; implies --chaos)")
    conform_farm.add_argument("--scenario", action="append", default=None,
                              type=_scenario,
                              help="run only this scenario (repeatable)")
    conform_farm.add_argument("--strategies", metavar="LIST", default=None,
                              type=_strategy_list,
                              help="comma-separated fork strategies "
                                   f"(default: "
                                   f"{_csv(matrix.CONFORM_STRATEGIES)})")
    conform_farm.add_argument("--cpus-list", metavar="LIST", default=None,
                              type=_cpu_list,
                              help="comma-separated CPU counts per unit "
                                   f"(default: {_csv(matrix.SWEEP_CPUS)}; "
                                   f"--cpus pins one)")
    conform_farm.add_argument("--timeout", type=float, default=None,
                              help="per-worker wall-clock deadline in "
                                   "seconds before group SIGKILL")
    conform_farm.add_argument("--work-dir", metavar="DIR", default=None,
                              help="keep per-worker spec/result shard "
                                   "files in DIR (CI artifact material)")

    cluster = sub.add_parser(
        "cluster", parents=[parent],
        help="sharded multi-machine serving cluster (docs/CLUSTER.md); "
             "emits a deterministic repro.cluster/v1 report")
    cluster.add_argument("--shards", type=int, default=4,
                         help="number of shard machines")
    cluster.add_argument("--workers", type=int, default=4,
                         help="warm-pool workers per shard")
    cluster.add_argument("--requests", type=int, default=1_000_000,
                         help="simulated requests in the synthesized "
                              "trace")
    cluster.add_argument("--keys", type=int, default=16_384,
                         help="key universe size (Zipf ranks)")
    cluster.add_argument("--users", type=int, default=4_000_000,
                         help="simulated user population")
    cluster.add_argument("--audit", type=int, default=16,
                         help="requests per shard re-executed on the "
                              "real machine (0 disables auditing)")
    cluster.add_argument("--max-migrations", type=int, default=8,
                         help="cap on cross-shard worker migrations")

    snapshot = sub.add_parser(
        "snapshot", parents=[parent],
        help="checkpoint/restore demo (docs/SNAPSHOT.md); restores a "
             "blob into a fresh machine and diffs the logical traces")
    snapshot.add_argument("--strategy", default="copa",
                          choices=matrix.STRATEGIES,
                          help="fork strategy of the donor and target OS")
    snapshot.add_argument("--incremental", action="store_true",
                          help="capture only CoW-divergent pages and "
                               "apply them onto a fork twin (the "
                               "cluster-migration payload)")

    sec = sub.add_parser(
        "sec", parents=[parent],
        help="adversarial capability-security matrix (docs/SECURITY.md); "
             "emits a deterministic repro.sec/v1 report")
    sec.add_argument("--strategies", metavar="LIST", default=None,
                     type=_strategy_list,
                     help="comma-separated fork strategies "
                          f"(default: {_csv(matrix.STRATEGIES)})")
    sec.add_argument("--cpus-list", metavar="LIST", default=None,
                     type=_cpu_list,
                     help="comma-separated CPU counts per cell "
                          f"(default: {_csv(matrix.DEFAULT_CPUS)}; "
                          f"--cpus pins one)")
    sec.add_argument("--modes", metavar="LIST", default=None,
                     type=_mode_list,
                     help="comma-separated run modes from "
                          f"{_csv(matrix.MODES)} (default: both)")
    sec.add_argument("--attack", action="append", default=None,
                     type=_attack,
                     help="run only this attack (repeatable)")
    sec.add_argument("--fault-mix", metavar="SPEC", default=None,
                     type=_fault_mix,
                     help="injection rates for the chaos half of the "
                          "matrix (pattern=rate,...)")

    return parser


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _cpus(args, default: Sequence[int]) -> List[int]:
    """``--cpus`` pins one count, else ``--cpus-list``, else ``default``."""
    if args.cpus is not None:
        return [args.cpus]
    return list(getattr(args, "cpus_list", None) or default)


def _cmd_obs_report(args) -> int:
    from repro.harness.obsreport import obs_report
    obs_report(samples=args.samples, json_path=args.json)
    return 0


def _run_chaos(args):
    from repro.chaos.runner import DEFAULT_MIX, format_summary, run_chaos
    summary = run_chaos(seed=args.seed, iterations=args.iterations,
                        mix=args.fault_mix or DEFAULT_MIX,
                        obs_dir=args.obs_dir)
    return summary, format_summary(summary)


def _run_conform(args):
    from repro.conform.runner import format_summary, run_conform
    report = run_conform(seed=args.seed,
                         cpus=_cpus(args, matrix.DEFAULT_CPUS),
                         strategies=(args.strategies
                                     or matrix.CONFORM_STRATEGIES),
                         depth_bound=args.depth_bound,
                         budget=args.budget,
                         scenario_names=args.scenario,
                         host=not args.no_host,
                         obs_dir=args.obs_dir)
    return report, format_summary(report)


def _run_conform_farm(args):
    from repro.conform.farm import (
        DEFAULT_BUDGET,
        DEFAULT_TIMEOUT,
        format_farm_summary,
        run_farm,
    )
    report = run_farm(seed=args.seed, workers=args.workers,
                      depth_bound=args.depth,
                      budget=(args.budget if args.budget is not None
                              else DEFAULT_BUDGET),
                      chaos=args.chaos, chaos_mix=args.chaos_mix,
                      scenario_names=args.scenario,
                      strategies=args.strategies,
                      cpus=_cpus(args, matrix.SWEEP_CPUS),
                      timeout=(args.timeout if args.timeout is not None
                               else DEFAULT_TIMEOUT),
                      work_dir=args.work_dir)
    if args.obs_dir:
        matrix.write_sidecars(args.obs_dir, f"conform-farm-{args.seed}",
                              farm=report)
    return report, format_farm_summary(report)


def _run_smp(args):
    from repro.smp.runner import format_summary, run_smp
    summaries = [run_smp(seed=args.seed, num_cpus=cpus,
                         requests=args.requests, workload=args.workload,
                         mix=args.fault_mix, obs_dir=args.obs_dir)
                 for cpus in _cpus(args, matrix.SWEEP_CPUS)]
    return ({"runs": summaries},
            "\n\n".join(format_summary(summary) for summary in summaries))


def _run_cluster(args):
    from repro.cluster.runner import format_summary, run_cluster
    report = run_cluster(seed=args.seed, shards=args.shards,
                         workers=args.workers, requests=args.requests,
                         keys=args.keys, users=args.users,
                         cpus=args.cpus or 1, audit=args.audit,
                         max_migrations=args.max_migrations,
                         obs_dir=args.obs_dir)
    return report, format_summary(report)


def _run_snapshot(args):
    from repro.snapshot.report import format_summary, run_snapshot
    summary = run_snapshot(seed=args.seed, cpus=args.cpus or 1,
                           strategy=args.strategy,
                           incremental=args.incremental,
                           obs_dir=args.obs_dir)
    return summary, format_summary(summary)


def _run_sec(args):
    from repro.sec.runner import DEFAULT_FAULT_MIX, format_summary, run_sec
    report = run_sec(seed=args.seed,
                     strategies=args.strategies or matrix.STRATEGIES,
                     cpus_list=_cpus(args, matrix.DEFAULT_CPUS),
                     modes=args.modes or matrix.MODES,
                     fault_mix=args.fault_mix or DEFAULT_FAULT_MIX,
                     attacks=args.attack, obs_dir=args.obs_dir)
    return report, format_summary(report)


#: report command -> (runner returning (report, summary text), the
#: verdict that exits 0 -- None: always 0 -- and its sidecar kinds)
REPORT_COMMANDS = {
    "chaos": (_run_chaos, None, ("obs", "chaos")),
    "smp": (_run_smp, None, ("obs", "smp")),
    "conform": (_run_conform, "conformant", ("obs", "conform")),
    "conform-farm": (_run_conform_farm, "conformant", ("farm",)),
    "cluster": (_run_cluster, None, ("obs", "cluster")),
    "snapshot": (_run_snapshot, "identical", ("obs", "snapshot")),
    "sec": (_run_sec, "defeated", ("sec",)),
}


def _cmd_report(args) -> int:
    """The shared tail of every report command: print the summary,
    write ``--json``, name the sidecars, map the verdict to an exit
    code (1 is a failing verdict; usage errors exit 2 in the parser)."""
    run, passing, kinds = REPORT_COMMANDS[args.command]
    report, text = run(args)
    print(text)
    if args.json:
        from repro.harness.reportio import write_report
        write_report(report, args.json)
        print(f"[wrote {args.json}]")
    if args.obs_dir:
        # smp writes one sidecar pair per swept CPU count
        stems = ([f"smp-{args.seed}-c{summary['num_cpus']}"
                  for summary in report["runs"]] if args.command == "smp"
                 else [f"{args.command}-{args.seed}"])
        for stem in stems:
            print(matrix.sidecar_notice(args.obs_dir, stem, kinds))
    return 0 if passing is None or report["verdict"] == passing else 1


def _cmd_figures(args, parser: argparse.ArgumentParser) -> int:
    from repro.harness.experiments import (
        DEFAULT_DB_SIZES,
        FULL_DB_SIZES,
        copa_ablation,
        fig3_redis_save,
        fig4_redis_fork_latency,
        fig5_redis_memory,
        fig6_faas_throughput,
        fig7_nginx_throughput,
        fig8_hello_fork,
        fig9_unixbench,
    )
    from repro.harness.report import print_table
    from repro.harness.table1 import table1_rows
    from repro.mem.layout import MiB

    sizes = FULL_DB_SIZES if args.full else DEFAULT_DB_SIZES
    ablation_db = 100 * MiB if args.full else 10 * MiB
    ctx1_fraction = 0.1 if args.full else 0.05

    def _print_compat() -> None:
        from repro.harness.compat import matrix_rows
        print_table(matrix_rows(),
                    title="App x syscall compatibility matrix "
                          "(Loupe-style)")

    experiments = {
        "table1": lambda: print_table(
            table1_rows(), title="Table 1: SASOS fork systems"),
        "fig3": lambda: print_table(
            fig3_redis_save(sizes=sizes),
            title="Figure 3: Redis DB overall save times (ms)"),
        "fig4": lambda: print_table(
            fig4_redis_fork_latency(sizes=sizes),
            title="Figure 4: Redis fork latency (us)"),
        "fig5": lambda: print_table(
            fig5_redis_memory(sizes=sizes),
            title="Figure 5: Redis forked-process memory (MB)"),
        "fig6": lambda: print_table(
            fig6_faas_throughput(),
            title="Figure 6: FaaS function throughput (functions/s)"),
        "fig7": lambda: print_table(
            fig7_nginx_throughput(),
            title="Figure 7: Nginx throughput (requests/s)"),
        "fig8": lambda: print_table(
            fig8_hello_fork(),
            title="Figure 8: hello-world fork latency (us) / memory (MB)"),
        "fig9": lambda: print_table(
            fig9_unixbench(measured_fraction=ctx1_fraction),
            title="Figure 9: Unixbench Spawn / Context1 (ms)"),
        "ablation": lambda: print_table(
            copa_ablation(db_bytes=ablation_db),
            title=f"CoPA vs CoA vs full copy "
                  f"({ablation_db // MiB} MB database)"),
        "compat": lambda: _print_compat(),
    }

    names = [args.only] if args.only else list(experiments)
    unknown = [name for name in names if name not in experiments]
    if unknown:
        parser.error(f"unknown experiment(s): {unknown}; "
                     f"choose from {list(experiments)}")

    started = time.time()
    for index, name in enumerate(names):
        if index:
            print()
        if args.obs_dir:
            _run_with_sidecar(experiments[name], name, args.obs_dir)
        else:
            experiments[name]()
    print(f"\n[{time.time() - started:.1f}s host time]")
    return 0


def _run_with_sidecar(experiment, name: str, obs_dir: str) -> None:
    """Run one experiment under an observability session and write the
    merged ``repro.obs/v1`` export next to its printed table."""
    import os

    from repro.obs import obs_session

    with obs_session() as session:
        experiment()
    matrix.write_sidecars(obs_dir, name, obs=session.export())
    print(f"[obs sidecar: {os.path.join(obs_dir, name)}.obs.json]")


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # back-compat: a bare option list ran the figures sweep before the
    # CLI grew subcommands, and still does
    if not argv or (argv[0] not in SUBCOMMANDS
                    and argv[0] not in ("-h", "--help")):
        argv.insert(0, "figures")
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "smp" and args.workload == "forkbench" \
            and args.fault_mix:
        from repro.smp.runner import FORKBENCH_MIX_ERROR
        parser.error(FORKBENCH_MIX_ERROR)

    if args.command == "figures":
        return _cmd_figures(args, parser)
    if args.command == "obs-report":
        return _cmd_obs_report(args)
    return _cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
