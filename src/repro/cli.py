"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``describe`` — print the simulated machine configuration (Table II).
* ``run`` — simulate one workload under one scheme and print stats.
* ``compare`` — run one workload under several schemes, normalized.
* ``experiment`` — regenerate one paper table/figure by name;
  ``experiment claims`` checks the paper's claims table
  (``repro.analysis.claims``) and exits 0 when every claim holds,
  1 when one fails, 2 when a cell stalls or errors.
* ``workloads`` — list the available workloads and their parameters.
* ``area`` — print the PUNO area/power estimate (Table III).
* ``lint`` — run the simulator-specific static analysis suite.
* ``profile`` — run one cell under cProfile with per-event-callback
  and per-message-type accounting.
* ``chaos`` — run a workload x scheme grid under injected coherence
  faults (``--faults``) with the engine watchdog armed; exit 0 iff
  every cell commits or stalls in a fault-explained way.
* ``scenario`` — list / validate / run declarative experiment
  scenarios (``repro scenario run <name>`` executes the full
  workload x scheme x seed matrix through the resilient sweep
  machinery; ``--smoke`` runs the scaled-down variant).
* ``golden`` — run the golden-run regression tour and compare its
  canonical snapshot digests against ``tests/golden/golden.json``
  (``--update`` re-pins after an intentional behaviour change;
  ``--scale`` / ``--tournament`` cover the scale and scheme sections).
* ``tournament`` — sweep every registered protocol scheme
  (``repro.schemes``) head-to-head against PUNO on the 16-node
  tournament matrix.

``run``/``compare``/``experiment`` accept ``--sanitize`` to enable the
dynamic protocol sanitizer (equivalent to ``REPRO_SANITIZE=1``).
Every grid command (compare, experiment, scenario, tournament) stores
each finished cell in the on-disk result cache (``REPRO_CACHE_DIR``,
default ``.repro-cache/``), so re-running an interrupted grid resumes
it; ``--no-cache`` turns the store off, and sanitized runs bypass it.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from repro.analysis import claims as claims_mod
from repro.analysis import experiments as experiments_mod
from repro.analysis.report import render_table
from repro.core.hw_model import estimate_overhead
from repro.sim.config import SystemConfig, scaled_config
from repro.schemes import scheme_names
from repro.workloads.stamp import STAMP_WORKLOADS

#: Every registered protocol scheme (repro.schemes) — the choice set
#: for run/compare/profile/chaos and the tournament axis.
SCHEMES = scheme_names()

EXPERIMENTS = {
    "table1": lambda a: experiments_mod.table1(a.scale, a.seed,
                                               jobs=a.jobs),
    "table2": lambda a: experiments_mod.table2(),
    "table3": lambda a: experiments_mod.table3(),
    "fig2": lambda a: experiments_mod.fig2(a.scale, a.seed, jobs=a.jobs),
    "fig3": lambda a: experiments_mod.fig3(a.scale, a.seed, jobs=a.jobs),
    "fig10": lambda a: experiments_mod.fig10(a.scale, a.seed,
                                             jobs=a.jobs),
    "fig11": lambda a: experiments_mod.fig11(a.scale, a.seed,
                                             jobs=a.jobs),
    "fig12": lambda a: experiments_mod.fig12(a.scale, a.seed,
                                             jobs=a.jobs),
    "fig13": lambda a: experiments_mod.fig13(a.scale, a.seed,
                                             jobs=a.jobs),
    "fig14": lambda a: experiments_mod.fig14(a.scale, a.seed,
                                             jobs=a.jobs),
    "claims": lambda a: claims_mod.check(a.scale, a.seed, jobs=a.jobs),
}


def _workload_def(args):
    """The command-line workload as a scenario row."""
    from repro.scenarios.spec import WorkloadDef
    if args.workload == "synthetic":
        return WorkloadDef("synthetic", kind="synthetic", params={
            "instances": args.instances,
            "shared_lines": args.shared_lines,
            "tx_reads": args.tx_reads,
            "tx_writes": args.tx_writes})
    return WorkloadDef(args.workload)


def _make_workload(args):
    return _workload_def(args).to_spec(args.nodes, args.scale,
                                       args.seed).build()


def _apply_cache_flag(args) -> None:
    """``--no-cache`` disables the result cache for the whole process
    (including sweep worker processes, which inherit the environment)."""
    import os
    if getattr(args, "no_cache", False):
        os.environ["REPRO_NO_CACHE"] = "1"


def _apply_sanitize_flag(args) -> None:
    """``--sanitize`` enables the dynamic protocol sanitizer for the
    whole process, sweep workers included (same env-flag mechanism)."""
    import os
    if getattr(args, "sanitize", False):
        os.environ["REPRO_SANITIZE"] = "1"


def _report_problems(spec) -> bool:
    """Print the grid's ``validate()`` problems to stderr; True when
    there are any (the command then exits 2)."""
    problems = spec.validate()
    for problem in problems:
        print(problem, file=sys.stderr)
    return bool(problems)


def _stats_row(scheme: str, stats) -> Dict[str, object]:
    return {
        "scheme": scheme,
        "commits": stats.tx_committed,
        "aborts": stats.tx_aborted,
        "abort %": round(100 * stats.abort_rate(), 1),
        "traffic": stats.flit_router_traversals,
        "exec cycles": stats.execution_cycles,
        "gd": round(stats.gd_ratio(), 2),
    }


# ---------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------

def cmd_describe(args) -> int:
    print(SystemConfig().describe())
    return 0


def cmd_workloads(args) -> int:
    rows = []
    for name, meta in STAMP_WORKLOADS.items():
        rows.append({
            "name": name,
            "paper input": meta.paper_input,
            "paper abort %": meta.paper_abort_pct,
            "high contention": "yes" if meta.high_contention else "no",
        })
    rows.append({"name": "synthetic", "paper input": "(parametric)",
                 "paper abort %": "-", "high contention": "-"})
    print(render_table(rows, title="Available workloads"))
    return 0


def cmd_run(args) -> int:
    from repro.faults import audits_safe, parse_fault_spec
    from repro.system import StallError, System
    try:
        faults = parse_fault_spec(args.faults) if args.faults else None
    except ValueError as exc:
        print(f"bad --faults: {exc}", file=sys.stderr)
        return 2
    if faults is not None and not faults.active():
        faults = None
    _apply_sanitize_flag(args)
    wl = _make_workload(args)
    cfg = scaled_config(args.nodes, seed=args.seed)
    tracer = None
    if args.trace:
        from repro.sim.trace import Tracer
        tracer = Tracer()
    system = System(cfg, wl, args.scheme, trace=tracer,
                    faults=faults, watchdog=faults is not None)
    try:
        result = system.run(max_cycles=args.max_cycles,
                            audit=audits_safe(faults))
    except StallError as exc:
        print(exc.report.describe(), file=sys.stderr)
        return 1
    finally:
        if faults is not None:
            inj = system.fault_injector
            print(f"faults injected: {inj.summary()}", file=sys.stderr)
    if args.trace:
        n = tracer.write_jsonl(args.trace)
        print(f"wrote {n} trace events to {args.trace}", file=sys.stderr)
    if args.json:
        print(json.dumps(result.summary(), indent=1))
    else:
        print(render_table([_stats_row(args.scheme, result.stats)],
                           title=f"{wl.name} under {args.scheme}"))
        if args.hotspots:
            print("\nrouter utilization (flit traversals):")
            print(system.network.utilization_grid())
            print("hotspots:", system.network.hotspots(top=3))
        print(f"\nwall time: {result.wall_seconds:.2f}s")
    return 0


def cmd_characterize(args) -> int:
    from repro.workloads.characterize import characterize
    wl = _make_workload(args)
    c = characterize(wl)
    rows = [{"property": k, "value": v} for k, v in c.summary().items()]
    print(render_table(rows, title=f"{wl.name} — structural "
                                   f"characterization"))
    return 0


def cmd_compare(args) -> int:
    from repro.scenarios import run_scenario
    from repro.scenarios.spec import ScenarioSpec
    schemes = args.schemes.split(",") if args.schemes else list(SCHEMES)
    spec = ScenarioSpec(name="compare", nodes=args.nodes,
                        workloads=(_workload_def(args),),
                        schemes=tuple(schemes), scale=args.scale,
                        seeds=(args.seed,))
    if _report_problems(spec):
        return 2
    _apply_cache_flag(args)
    _apply_sanitize_flag(args)
    result = run_scenario(spec, jobs=args.jobs, max_cycles=args.max_cycles)
    grid = {r.scheme: r.stats for r in result.results}
    rows: List[Dict[str, object]] = []
    base_stats = grid[schemes[0]]
    for scheme in schemes:
        stats = grid[scheme]
        row = _stats_row(scheme, stats)
        row["aborts x"] = round(stats.tx_aborted
                                / max(base_stats.tx_aborted, 1), 3)
        row["exec x"] = round(stats.execution_cycles
                              / max(base_stats.execution_cycles, 1), 3)
        rows.append(row)
    print(render_table(rows, title=f"{args.workload}: scheme comparison "
                                   f"(x = vs {schemes[0]})"))
    return 0


def cmd_experiment(args) -> int:
    fn = EXPERIMENTS.get(args.name)
    if fn is None:
        print(f"unknown experiment {args.name!r}; choices: "
              f"{sorted(EXPERIMENTS)}", file=sys.stderr)
        return 2
    _apply_cache_flag(args)
    _apply_sanitize_flag(args)
    result = fn(args)
    print(result.text)
    return result.data.get("exit_code", 0)


def cmd_chaos(args) -> int:
    from repro.analysis.chaos import TOUR, ChaosReport
    from repro.analysis.parallel import SweepExecutionError
    from repro.scenarios import run_scenario
    from repro.scenarios.spec import ScenarioSpec, WorkloadDef
    spec = ScenarioSpec(
        name="chaos", nodes=args.nodes,
        workloads=tuple(WorkloadDef(w) for w in (
            args.workloads.split(",") if args.workloads else TOUR)),
        schemes=tuple(args.schemes.split(",")), scale=args.scale,
        seeds=(args.seed,), faults=args.faults or "")
    if _report_problems(spec):
        return 2
    if spec.fault_config() is None:
        print("no faults configured: pass --faults with at least one "
              "nonzero rate, e.g. 'dup=0.02,delay=0.05,seed=7'",
              file=sys.stderr)
        return 2
    _apply_sanitize_flag(args)
    # the store stays off: a replayed verdict would verify nothing
    try:
        result = run_scenario(spec, jobs=1, cache=False,
                              max_cycles=args.max_cycles)
    except SweepExecutionError as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return 1
    report = ChaosReport.from_results(result.results)
    if args.json:
        print(json.dumps(report.to_dict(), indent=1))
    else:
        print(report.render_text())
    return 0 if report.ok else 1


def cmd_scenario(args) -> int:
    from repro.scenarios import get_scenario, list_scenarios
    if args.action == "list":
        specs = list_scenarios(tag=args.tag)
        rows = [{
            "name": s.name,
            "nodes": s.nodes,
            "workloads": ",".join(w.label for w in s.workloads),
            "schemes": ",".join(s.schemes),
            "seeds": len(s.seeds),
            "cells": s.num_cells,
            "tags": ",".join(s.tags),
        } for s in specs]
        print(render_table(rows, title="Registered scenarios"))
        return 0
    if args.action == "validate":
        names = args.names or [s.name for s in list_scenarios()]
        bad = 0
        for name in names:
            try:
                spec = get_scenario(name)
            except KeyError as exc:
                print(f"{name}: {exc}", file=sys.stderr)
                bad += 1
                continue
            problems = spec.validate()
            if problems:
                bad += 1
                print(f"{name}: INVALID")
                for p in problems:
                    print(f"  - {p}")
            else:
                print(f"{name}: ok ({spec.describe()})")
        return 1 if bad else 0
    # action == "run"
    if not args.names:
        print("scenario run needs at least one scenario name",
              file=sys.stderr)
        return 2
    _apply_cache_flag(args)
    _apply_sanitize_flag(args)
    from repro.scenarios import run_scenario
    rc = 0
    for name in args.names:
        try:
            spec = get_scenario(name)
        except KeyError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        result = run_scenario(
            spec, smoke=args.smoke, jobs=args.jobs,
            max_cycles=args.max_cycles, verbose=not args.json)
        if args.json:
            print(json.dumps(result.to_dict(), indent=1))
        else:
            print(result.render_text())
            print(f"({result.cache_hits}/{len(result.results)} cells "
                  f"from cache)")
        if args.out:
            manifest = result.write_manifest(args.out)
            print(f"wrote manifest to {manifest}", file=sys.stderr)
        for (wl, scheme, seed), r in zip(result.cells, result.results):
            if r.stall is not None:
                print(f"{name}: {wl}/{scheme}/s{seed} stalled: "
                      f"{r.stall.describe()}", file=sys.stderr)
                rc = 1
    return rc


def cmd_tournament(args) -> int:
    from repro.scenarios import run_scenario
    from repro.schemes.tournament import TOURNAMENT_BASELINE, \
        tournament_spec
    schemes = args.schemes.split(",") if args.schemes else []
    if schemes:  # the normalization base leads
        schemes = [TOURNAMENT_BASELINE] + [
            s for s in schemes if s != TOURNAMENT_BASELINE]
    spec = tournament_spec(schemes=tuple(schemes))
    if _report_problems(spec):
        return 2
    _apply_cache_flag(args)
    _apply_sanitize_flag(args)
    result = run_scenario(spec, smoke=args.smoke, jobs=args.jobs,
                          max_cycles=args.max_cycles,
                          verbose=not args.json)
    if args.json:
        print(json.dumps(result.to_dict(), indent=1))
    else:
        print(result.render_text())
        print(f"({result.cache_hits}/{len(result.results)} cells "
              f"from cache)")
    if args.out:
        manifest = result.write_manifest(args.out)
        print(f"wrote manifest to {manifest}", file=sys.stderr)
    return 0


def cmd_golden(args) -> int:
    from repro.scenarios.golden import (
        SECTIONS,
        check_section,
        pinned_digests,
        save_section,
        section_specs,
    )
    section = ("scheme_digests" if args.tournament
               else "scale_digests" if args.scale else "digests")
    scenarios = ()
    if args.scale and args.scenarios:
        scenarios = tuple(s for s in args.scenarios.split(",") if s)
    try:
        if args.update:
            digests = pinned_digests(section_specs(section, scenarios),
                                     verbose=not args.json)
            path = save_section(section, digests, args.file, scenarios)
            print(f"pinned {len(digests)} {section} digest(s) to {path}")
            return 0
        report = check_section(section, args.file, scenarios,
                               verbose=not args.json)
    except (FileNotFoundError, KeyError):
        print(f"no {section} section in {args.file}; pin it with "
              f"'repro golden{SECTIONS[section].flag} --update'",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=1))
    else:
        print(report.describe())
    return 0 if report.ok else 1


def cmd_lint(args) -> int:
    from repro.lint.runner import (
        explain_rule_text,
        lint_paths,
        list_rules_text,
    )
    if args.list_rules:
        print(list_rules_text())
        return 0
    if args.explain:
        text = explain_rule_text(args.explain)
        if text is None:
            print(f"unknown rule {args.explain!r}; see "
                  f"'repro lint --list-rules'", file=sys.stderr)
            return 2
        print(text)
        return 0
    try:
        report = lint_paths(args.paths or None)
    except Exception as exc:
        print(f"lint internal error: {exc}", file=sys.stderr)
        return 2
    print(report.render_text())
    return report.exit_code


def cmd_profile(args) -> int:
    from repro.analysis.profiler import profile_run
    wl = _make_workload(args)
    cfg = scaled_config(args.nodes, seed=args.seed)
    report = profile_run(wl, cfg, args.scheme, top=args.top,
                         max_cycles=args.max_cycles)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report.to_dict(), f, indent=1)
        print(f"wrote profile to {args.out}", file=sys.stderr)
    if args.json:
        print(json.dumps(report.to_dict(), indent=1))
    else:
        print(report.render_text())
    return 0


def cmd_area(args) -> int:
    est = estimate_overhead(pbuffer_entries=args.pbuffer,
                            txlb_entries=args.txlb)
    for key, value in est.items():
        if key.endswith("overhead"):
            print(f"{key}: {100 * value:.2f}%")
        else:
            print(f"{key}: {value:.1f}")
    return 0


# ---------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="PUNO (IPDPS 2014) reproduction toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("describe", help="print the Table II configuration")
    sub.add_parser("workloads", help="list available workloads")

    def common(sp):
        sp.add_argument("workload",
                        choices=sorted(STAMP_WORKLOADS) + ["synthetic"])
        sp.add_argument("--nodes", type=int, default=16)
        sp.add_argument("--scale", type=float, default=0.5)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--max-cycles", type=int, default=500_000_000)
        sp.add_argument("--instances", type=int, default=12,
                        help="synthetic only")
        sp.add_argument("--shared-lines", type=int, default=64,
                        help="synthetic only")
        sp.add_argument("--tx-reads", type=int, default=8,
                        help="synthetic only")
        sp.add_argument("--tx-writes", type=int, default=2,
                        help="synthetic only")

    def sanitize_opt(sp):
        sp.add_argument("--sanitize", action="store_true",
                        help="enable the dynamic protocol sanitizer "
                             "(same as REPRO_SANITIZE=1)")

    run_p = sub.add_parser("run", help="simulate one workload")
    common(run_p)
    sanitize_opt(run_p)
    run_p.add_argument("--scheme", choices=SCHEMES, default="baseline")
    run_p.add_argument("--faults", metavar="SPEC",
                       help="inject coherence faults, e.g. "
                            "'drop=0.01,dup=0.005,delay=0.05,seed=7' "
                            "(arms the engine watchdog)")
    run_p.add_argument("--json", action="store_true",
                       help="print the summary as JSON")
    run_p.add_argument("--trace", metavar="FILE",
                       help="write a JSONL event trace")
    run_p.add_argument("--hotspots", action="store_true",
                       help="print router utilization after the run")

    char_p = sub.add_parser("characterize",
                            help="static structural summary of a "
                                 "workload (no simulation)")
    common(char_p)

    def parallel_opts(sp):
        sp.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the sweep "
                             "(0 = all cores)")
        sp.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache, which "
                             "otherwise replays finished cells and so "
                             "resumes an interrupted grid (same as "
                             "REPRO_NO_CACHE=1)")

    cmp_p = sub.add_parser("compare", help="compare schemes")
    common(cmp_p)
    sanitize_opt(cmp_p)
    cmp_p.add_argument("--schemes", default=None,
                       help="comma-separated subset of "
                            f"{','.join(SCHEMES)}")
    parallel_opts(cmp_p)

    exp_p = sub.add_parser("experiment",
                           help="regenerate one paper table/figure")
    exp_p.add_argument("name", choices=sorted(EXPERIMENTS))
    exp_p.add_argument("--scale", type=float, default=0.4)
    exp_p.add_argument("--seed", type=int, default=0)
    sanitize_opt(exp_p)
    parallel_opts(exp_p)

    lint_p = sub.add_parser(
        "lint", help="simulator-specific static analysis "
                     "(exit 0 clean / 1 violations / 2 internal error)")
    lint_p.add_argument("paths", nargs="*",
                        help="files or directories to lint "
                             "(default: the installed repro package)")
    lint_p.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    lint_p.add_argument("--explain", metavar="RULE",
                        help="print one rule's long-form rationale "
                             "and exit")

    prof_p = sub.add_parser(
        "profile", help="cProfile one cell with per-callback and "
                        "per-message-type accounting")
    common(prof_p)
    prof_p.add_argument("--scheme", choices=SCHEMES, default="baseline")
    prof_p.add_argument("--top", type=int, default=15,
                        help="rows per profile section")
    prof_p.add_argument("--json", action="store_true",
                        help="print the report as JSON")
    prof_p.add_argument("--out", metavar="FILE",
                        help="also write the JSON report to FILE")

    scen_p = sub.add_parser(
        "scenario", help="list / validate / run declarative experiment "
                         "scenarios (workload x scheme x seed matrices)")
    scen_p.add_argument("action", choices=("list", "validate", "run"))
    scen_p.add_argument("names", nargs="*",
                        help="scenario name(s); validate defaults to "
                             "all registered scenarios")
    scen_p.add_argument("--tag", default=None,
                        help="filter 'list' by tag (paper, scaled, "
                             "family, stress, chaos)")
    scen_p.add_argument("--smoke", action="store_true",
                        help="run the scaled-down smoke variant")
    scen_p.add_argument("--max-cycles", type=int, default=None,
                        help="override the scenario's cycle budget")
    scen_p.add_argument("--out", metavar="DIR",
                        help="write manifest.json + per-cell snapshot "
                             "JSONs under DIR/<scenario>/")
    scen_p.add_argument("--json", action="store_true",
                        help="print the manifest body as JSON")
    sanitize_opt(scen_p)
    parallel_opts(scen_p)

    gold_p = sub.add_parser(
        "golden", help="golden-run regression suite: compare canonical "
                       "snapshot digests of a pinned STAMP tour "
                       "(exit 0 match / 1 mismatch / 2 never pinned)")
    gold_p.add_argument("--update", action="store_true",
                        help="re-pin the digests (bless an intentional "
                             "behaviour change)")
    gold_p.add_argument("--file", default="tests/golden/golden.json",
                        help="golden file location")
    gold_p.add_argument("--scale", action="store_true",
                        help="check (or --update pin) the scale "
                             "section: sanitized smoke cells of the "
                             "paper-256/paper-1024 scenarios")
    gold_p.add_argument("--scenarios", default="",
                        help="with --scale: comma-separated subset of "
                             "the scale scenarios to run (default all)")
    gold_p.add_argument("--tournament", action="store_true",
                        help="check (or --update pin) the scheme "
                             "section: sanitized tournament cells of "
                             "every registered scheme")
    gold_p.add_argument("--json", action="store_true",
                        help="print the report as JSON")

    tour_p = sub.add_parser(
        "tournament", help="sweep every registered scheme head-to-head "
                           "against PUNO on the 16-node tournament "
                           "matrix (x = vs puno)")
    tour_p.add_argument("--schemes", default=None,
                        help="comma-separated subset of "
                             f"{','.join(SCHEMES)} (puno is always "
                             f"included as the base)")
    tour_p.add_argument("--smoke", action="store_true",
                        help="run the scaled-down smoke variant")
    tour_p.add_argument("--max-cycles", type=int, default=None,
                        help="override the tournament cycle budget")
    tour_p.add_argument("--out", metavar="DIR",
                        help="write manifest.json + per-cell snapshot "
                             "JSONs under DIR/tournament-16/")
    tour_p.add_argument("--json", action="store_true",
                        help="print the manifest body as JSON")
    sanitize_opt(tour_p)
    parallel_opts(tour_p)

    area_p = sub.add_parser("area", help="Table III area/power model")
    area_p.add_argument("--pbuffer", type=int, default=16)
    area_p.add_argument("--txlb", type=int, default=32)

    chaos_p = sub.add_parser(
        "chaos", help="run workloads under injected coherence faults "
                      "(exit 0 iff every cell commits or stalls in a "
                      "fault-explained way)")
    chaos_p.add_argument("--workloads", default=None,
                         help="comma-separated STAMP subset "
                              "(default: the full tour)")
    chaos_p.add_argument("--schemes", default="puno",
                         help="comma-separated subset of "
                              f"{','.join(SCHEMES)} (default: puno)")
    chaos_p.add_argument("--nodes", type=int, default=16)
    chaos_p.add_argument("--scale", type=float, default=0.2)
    chaos_p.add_argument("--seed", type=int, default=0)
    chaos_p.add_argument("--max-cycles", type=int, default=500_000_000)
    chaos_p.add_argument("--faults", metavar="SPEC",
                         help="the fault mix, e.g. "
                              "'drop=0.02,dup=0.02,delay=0.05,seed=7' "
                              "(the grammar of 'repro run --faults')")
    sanitize_opt(chaos_p)
    chaos_p.add_argument("--json", action="store_true",
                         help="print the report as JSON")

    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "describe": cmd_describe,
        "workloads": cmd_workloads,
        "run": cmd_run,
        "characterize": cmd_characterize,
        "compare": cmd_compare,
        "experiment": cmd_experiment,
        "area": cmd_area,
        "lint": cmd_lint,
        "profile": cmd_profile,
        "chaos": cmd_chaos,
        "scenario": cmd_scenario,
        "golden": cmd_golden,
        "tournament": cmd_tournament,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
