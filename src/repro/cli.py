"""Command-line interface for the Splitwise reproduction.

Five subcommands cover the common workflows without writing Python:

* ``repro-sim trace`` — generate a synthetic trace (Azure-like distributions)
  and write it to CSV.
* ``repro-sim simulate`` — run a trace (or a freshly generated one) through a
  cluster design and print the latency/SLO summary.  When replaying a CSV
  trace, ``--rate`` rescales it and ``--duration`` truncates it.
* ``repro-sim scenario`` — run a named time-varying traffic preset (diurnal,
  burst-storm, failure-under-load, mixed-tenant) with the dynamic pool
  autoscaler and compare SLO attainment and machine-hours against the
  statically provisioned baseline.
* ``repro-sim fleet`` — run a preset across a multi-cluster fleet behind the
  tenant-aware fleet router, with cloud-burst provisioning, and report
  per-tenant SLO satisfaction plus a static-vs-burst machine-hours
  comparison.
* ``repro-sim provision`` — sweep machine counts for a design family and
  report the cost-optimal configuration for a target load.
* ``repro-sim designs`` — list the built-in cluster designs with their cost
  and power at a given size.

Examples::

    repro-sim trace --workload coding --rate 5 --duration 120 -o coding.csv
    repro-sim simulate --design Splitwise-HA --prompt 2 --token 4 --rate 8
    repro-sim simulate --trace coding.csv --rate 12 --duration 60
    repro-sim scenario --preset diurnal --seed 0
    repro-sim scenario --preset burst-storm --scale 0.5 --json
    repro-sim fleet --preset mixed-tenant --clusters 2
    repro-sim fleet --preset diurnal --clusters 3 --policy jsq --timeline
    repro-sim fleet --preset failure-storm --chaos failure-storm --json
    repro-sim fleet --preset mixed-tenant --chaos failure-storm --retry 4 --hedge
    repro-sim simulate --prompt 3 --token 2 --failures 30:prompt-0
    repro-sim provision --design Splitwise-HH --workload coding --rate 10
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Sequence

from repro.core.cluster import simulate_design
from repro.core.designs import DESIGN_FAMILIES, build_design
from repro.core.provisioning import OptimizationGoal, Provisioner, estimate_pool_sizes
from repro.faults.presets import CHAOS_PRESETS
from repro.fleet.router import ROUTER_POLICIES
from repro.models.llm import get_model
from repro.workload.generator import generate_trace
from repro.workload.scenarios import SCENARIO_PRESETS, get_scenario
from repro.workload.trace import Trace

def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro-sim`` entry point."""
    parser = argparse.ArgumentParser(prog="repro-sim", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", required=True)

    trace = subparsers.add_parser("trace", help="generate a synthetic request trace")
    trace.add_argument("--workload", choices=("coding", "conversation"), default="conversation")
    trace.add_argument("--rate", type=float, default=2.0, help="requests per second")
    trace.add_argument("--duration", type=float, default=60.0, help="trace length in seconds")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("-o", "--output", required=True, help="CSV file to write")

    simulate = subparsers.add_parser("simulate", help="simulate a cluster design on a trace")
    simulate.add_argument("--design", choices=DESIGN_FAMILIES, default="Splitwise-HH")
    simulate.add_argument("--prompt", type=int, default=2, help="prompt machines (or total for baselines)")
    simulate.add_argument("--token", type=int, default=1, help="token machines (added to --prompt for baselines)")
    simulate.add_argument("--model", default="Llama2-70B", help="LLM to serve")
    simulate.add_argument("--trace", help="CSV trace to replay (generated if omitted)")
    simulate.add_argument("--workload", choices=("coding", "conversation"), default="conversation")
    simulate.add_argument(
        "--rate", type=float, default=None,
        help="requests per second (default 2.0; rescales a replayed --trace)",
    )
    simulate.add_argument(
        "--duration", type=float, default=None,
        help="trace length in seconds (default 60.0; truncates a replayed --trace)",
    )
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--failures", action="append", default=[], metavar="TIME:MACHINE",
        help="inject a machine failure, e.g. --failures 30:prompt-0 (repeatable)",
    )
    simulate.add_argument("--json", action="store_true", help="print machine-readable JSON")

    scenario = subparsers.add_parser(
        "scenario", help="run a time-varying traffic preset with the pool autoscaler"
    )
    scenario.add_argument("--preset", choices=sorted(SCENARIO_PRESETS), default="diurnal")
    scenario.add_argument("--model", default="Llama2-70B", help="LLM to serve")
    scenario.add_argument("--seed", type=int, default=0)
    scenario.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink/grow the preset's cluster and load proportionally",
    )
    scenario.add_argument(
        "--no-autoscaler", action="store_true",
        help="skip the autoscaled run (static baseline only)",
    )
    scenario.add_argument(
        "--interval", type=float, default=None, help="autoscaler tick interval in seconds"
    )
    scenario.add_argument("--timeline", action="store_true", help="print the re-purposing timeline")
    scenario.add_argument("--json", action="store_true", help="print machine-readable JSON")

    fleet = subparsers.add_parser(
        "fleet", help="run a preset across a multi-cluster fleet with cloud bursting"
    )
    fleet.add_argument("--preset", choices=sorted(SCENARIO_PRESETS), default="mixed-tenant")
    fleet.add_argument("--clusters", type=int, default=2, help="initially active clusters")
    fleet.add_argument(
        "--burst-clusters", type=int, default=1,
        help="standby clusters the provisioner may burst into",
    )
    fleet.add_argument(
        "--policy", choices=ROUTER_POLICIES, default="slo-feedback", help="fleet routing policy"
    )
    fleet.add_argument("--model", default="Llama2-70B", help="LLM to serve")
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink/grow each cluster and its per-cluster load proportionally",
    )
    fleet.add_argument(
        "--no-burst", action="store_true",
        help="skip the burst run (static whole-fleet baseline only)",
    )
    fleet.add_argument(
        "--chaos", choices=sorted(CHAOS_PRESETS) + ["none"], default=None,
        help="arm a chaos preset (stochastic faults + router bans + admission "
             "control); defaults to the scenario preset's own chaos setting, "
             "'none' forces chaos off",
    )
    fleet.add_argument(
        "--fault-seed", type=int, default=None,
        help="seed for the stochastic fault plan (independent of the trace --seed)",
    )
    fleet.add_argument(
        "--retry", type=int, default=None, metavar="N",
        help="retry budget per request (overrides the chaos preset's policy; "
             "0 disables retries)",
    )
    fleet.add_argument(
        "--retry-seed", type=int, default=None,
        help="seed for the retry-backoff jitter (independent of --seed and --fault-seed)",
    )
    fleet.add_argument(
        "--hedge", action=argparse.BooleanOptionalAction, default=None,
        help="force tail-latency hedging on/off (default: the chaos preset's setting)",
    )
    fleet.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="fleet-wide end-to-end deadline in milliseconds (replaces the "
             "chaos preset's deadline config)",
    )
    fleet.add_argument(
        "--no-reliability", action="store_true",
        help="strip the request-lifecycle layer (retries, hedging, deadlines, "
             "degraded service) — the pre-lifecycle baseline",
    )
    fleet.add_argument(
        "--parallel", type=int, default=None, metavar="N",
        help="shard the fleet across N engine workers (bit-identical to "
             "serial; 1 runs the shards in-process; coupled "
             "configurations fall back to the serial engine with the "
             "reasons recorded in --json provenance)",
    )
    fleet.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write a Chrome/Perfetto trace-event JSON of the run "
             "(open it at ui.perfetto.dev); observes the burst run unless "
             "--no-burst",
    )
    fleet.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the sim-time metrics series (.csv selects CSV, anything "
             "else JSONL; a .prom Prometheus snapshot lands alongside)",
    )
    fleet.add_argument(
        "--metrics-interval", type=float, default=1.0, metavar="S",
        help="simulated seconds between metrics samples",
    )
    fleet.add_argument("--timeline", action="store_true", help="print the provisioning timeline")
    fleet.add_argument("--json", action="store_true", help="print machine-readable JSON")

    provision = subparsers.add_parser("provision", help="search machine counts for a target load")
    provision.add_argument("--design", choices=DESIGN_FAMILIES, default="Splitwise-HH")
    provision.add_argument("--workload", choices=("coding", "conversation"), default="coding")
    provision.add_argument("--rate", type=float, required=True, help="target requests per second")
    provision.add_argument("--goal", choices=("cost", "power"), default="cost")
    provision.add_argument("--duration", type=float, default=45.0, help="evaluation trace length")
    provision.add_argument("--spread", type=int, default=2, help="sweep +/- this many machines around the estimate")
    provision.add_argument("--seed", type=int, default=0)

    designs = subparsers.add_parser("designs", help="list cluster designs with cost and power")
    designs.add_argument("--prompt", type=int, default=2)
    designs.add_argument("--token", type=int, default=1)

    # Every argument after ``lint`` goes to simlint's own parser unparsed
    # (see main), so ``repro-sim lint --help`` prints simlint's flags.
    subparsers.add_parser(
        "lint", add_help=False,
        help="run simlint, the determinism & simulation-invariant linter "
             "(takes simlint's arguments)",
    )
    return parser


def _parse_failures(values: Sequence[str]) -> tuple[tuple[float, str], ...]:
    """Parse repeated ``--failures TIME:MACHINE`` arguments.

    Raises:
        ValueError: for a malformed spec (missing colon, non-numeric time).
    """
    failures = []
    for value in values:
        time_part, sep, machine = value.partition(":")
        if not sep or not machine:
            raise ValueError(f"--failures expects TIME:MACHINE, got {value!r}")
        try:
            time_s = float(time_part)
        except ValueError:
            raise ValueError(f"--failures time must be a number, got {value!r}") from None
        failures.append((time_s, machine))
    return tuple(failures)


def _cmd_trace(args: argparse.Namespace) -> int:
    trace = generate_trace(args.workload, rate_rps=args.rate, duration_s=args.duration, seed=args.seed)
    path = trace.to_csv(args.output)
    print(f"wrote {len(trace)} requests ({args.workload}, {args.rate:g} RPS, {args.duration:g}s) to {path}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.experiments.scenarios import cluster_run_summary

    design = build_design(args.design, args.prompt, args.token)
    model = get_model(args.model)
    notes = []
    if args.trace:
        trace = Trace.from_csv(args.trace)
        # Explicit --rate / --duration reshape the replayed trace instead of
        # being silently ignored.
        if args.rate is not None:
            trace = trace.scaled_to_rate(args.rate)
            notes.append(f"rescaled replayed trace to {args.rate:g} RPS")
        if args.duration is not None:
            trace = trace.truncated(args.duration)
            notes.append(f"truncated replayed trace to {args.duration:g}s ({len(trace)} requests)")
        if not len(trace):
            print(
                f"error: reshaped trace {args.trace} contains no requests "
                "(is --duration shorter than the first arrival?)",
                file=sys.stderr,
            )
            return 1
    else:
        rate = args.rate if args.rate is not None else 2.0
        duration = args.duration if args.duration is not None else 60.0
        trace = generate_trace(args.workload, rate_rps=rate, duration_s=duration, seed=args.seed)
    failures = _parse_failures(args.failures)
    result = simulate_design(design, trace, model=model, failures=failures)
    summary = {
        "model": model.name,
        "seed": args.seed,
        "workload": None if args.trace else args.workload,
        "trace": trace.name,
        "requests": len(trace),
        **cluster_run_summary(result, result.slo_report(model=model)),
    }
    if failures:
        summary["failures"] = [f"{t:g}:{name}" for t, name in failures]
    if notes:
        summary["notes"] = notes
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        width = max(len(key) for key in summary)
        for key, value in summary.items():
            print(f"{key:<{width}}  {value}")
    return 0 if summary["slo_satisfied"] else 2


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.experiments.scenarios import cluster_run_summary, prepare_scenario_run

    preset = get_scenario(args.preset)
    model = get_model(args.model)
    static_sim, trace, failures = prepare_scenario_run(
        preset, seed=args.seed, scale=args.scale, autoscaled=False, model=model
    )
    static_result = static_sim.run(trace, failures=failures)
    payload = {
        "preset": preset.name,
        "description": preset.description,
        # Provenance: everything needed to reproduce the run from the
        # artifact alone.
        "seed": args.seed,
        "scale": args.scale,
        "model": model.name,
        "routing": static_sim.routing,
        "trace": trace.name,
        "requests": len(trace),
        "duration_s": round(preset.duration_s, 1),
        "design": static_sim.design.label,
        "static": cluster_run_summary(static_result, static_result.slo_report(model=model)),
    }

    if not args.no_autoscaler:
        auto_sim, trace, failures = prepare_scenario_run(
            preset, seed=args.seed, scale=args.scale, autoscaled=True, model=model
        )
        if args.interval is not None:
            auto_sim.autoscaler.config = replace(auto_sim.autoscaler.config, interval_s=args.interval)
        auto_result = auto_sim.run(trace, failures=failures)
        payload["autoscaled"] = cluster_run_summary(auto_result, auto_result.slo_report(model=model))
        payload["machine_hours_saved"] = round(
            payload["static"]["machine_hours"] - payload["autoscaled"]["machine_hours"], 3
        )
        if args.timeline or args.json:
            payload["timeline"] = auto_result.autoscaler.timeline_as_dicts()

    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"scenario {preset.name}: {preset.description}")
        print(f"  trace: {len(trace)} requests over {preset.duration_s:g}s on {payload['design']}")
        for label in ("static", "autoscaled"):
            if label not in payload:
                continue
            run = payload[label]
            print(
                f"  {label:<10} slo={'PASS' if run['slo_satisfied'] else 'FAIL'} "
                f"({run['slo_violations']} violations, tbt samples={run['slo_samples'].get('tbt', 0)}) "
                f"completion={run['completion_rate']:.3f} machine-hours={run['machine_hours']:.3f}"
            )
        if "machine_hours_saved" in payload:
            saved = payload["machine_hours_saved"]
            static_hours = payload["static"]["machine_hours"]
            fraction = saved / static_hours if static_hours else 0.0
            print(
                f"  machine-hours saved vs static: {saved:.3f} ({fraction:.1%}), "
                f"repurposes={payload['autoscaled'].get('repurposes', 0)}, "
                f"autoscaler actions={payload['autoscaled'].get('autoscaler_actions', 0)}"
            )
        if args.timeline and "timeline" in payload:
            for event in payload["timeline"]:
                print(
                    f"    t={event['time_s']:>8.2f}s {event['action']:<9} {event['machine']:<10} "
                    f"{event['from']}->{event['to']}  ({event['reason']})"
                )
    # The autoscaled run, when there is one, decides the exit code.
    return 0 if payload.get("autoscaled", payload["static"])["slo_satisfied"] else 2


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.experiments.fleet_sweep import fleet_run_summary, prepare_fleet_run

    preset = get_scenario(args.preset)
    model = get_model(args.model)
    chaos_name = preset.chaos if args.chaos is None else args.chaos
    if chaos_name == "none":
        chaos_name = None
    reliability_kwargs = dict(
        retry_override=args.retry,
        retry_seed=args.retry_seed,
        hedge_override=args.hedge,
        deadline_ms=args.deadline_ms,
        reliability_off=args.no_reliability,
    )
    observe = args.trace_out is not None or args.metrics_out is not None

    def _arm_observability(fleet):
        # Imported lazily, mirroring FleetSimulation.observe: plain runs
        # never load the observability plane.
        from repro.obs import ObservabilityConfig

        return fleet.observe(
            ObservabilityConfig(
                trace_path=args.trace_out,
                metrics_path=args.metrics_out,
                interval_s=args.metrics_interval,
            )
        )

    static_fleet, trace, failures = prepare_fleet_run(
        preset, clusters=args.clusters, burst_clusters=args.burst_clusters, seed=args.seed,
        scale=args.scale, policy=args.policy, burst=False, model=model,
        chaos=args.chaos, fault_seed=args.fault_seed, parallel=args.parallel, **reliability_kwargs,
    )
    plane = _arm_observability(static_fleet) if observe and args.no_burst else None
    static_result = static_fleet.run(trace, failures=failures)
    static_summary = fleet_run_summary(static_result)
    payload = {
        "preset": preset.name,
        "description": preset.description,
        # Provenance: everything needed to reproduce the run from the
        # artifact alone.
        "seed": args.seed,
        "scale": args.scale,
        "model": model.name,
        "trace": trace.name,
        "requests": len(trace),
        "tenants": list(trace.tenants()),
        "design": static_fleet.clusters[0].design.label,
        "clusters": args.clusters,
        "burst_clusters": args.burst_clusters,
        "policy": args.policy,
        "chaos": chaos_name,
        "fault_seed": None if static_fleet.faults is None else static_fleet.faults.seed,
        "retry": None
        if static_fleet.lifecycle is None or static_fleet.lifecycle.retry is None
        else static_fleet.lifecycle.retry.max_retries,
        "retry_seed": None
        if static_fleet.lifecycle is None or static_fleet.lifecycle.retry is None
        else static_fleet.lifecycle.retry.seed,
        "hedge": static_fleet.lifecycle is not None
        and static_fleet.lifecycle.hedge is not None,
        "deadline_ms": args.deadline_ms,
        # Execution-mode provenance: None without --parallel, otherwise the
        # effective worker/shard counts (or the serial-fallback reasons).
        # Deterministic content only — byte-compared artifacts stay stable.
        "parallel": static_fleet.parallel_info,
        "static": static_summary,
    }

    exit_report = static_summary["tenant_slo"]
    if not args.no_burst:
        burst_fleet, trace, failures = prepare_fleet_run(
            preset, clusters=args.clusters, burst_clusters=args.burst_clusters, seed=args.seed,
            scale=args.scale, policy=args.policy, burst=True, model=model,
            chaos=args.chaos, fault_seed=args.fault_seed, parallel=args.parallel, **reliability_kwargs,
        )
        if observe:
            plane = _arm_observability(burst_fleet)
        burst_result = burst_fleet.run(trace, failures=failures)
        burst_summary = fleet_run_summary(burst_result)
        payload["burst"] = burst_summary
        payload["burst_parallel"] = burst_fleet.parallel_info
        payload["machine_hours_saved"] = round(
            static_summary["machine_hours"] - burst_summary["machine_hours"], 3
        )
        if args.timeline or args.json:
            payload["timeline"] = burst_result.provisioner.timeline_as_dicts()
        exit_report = burst_summary["tenant_slo"]

    if plane is not None:
        # Self-describing artifacts: the paths, the ticker cadence, the span
        # count, and the span census land in the --json payload.
        payload["observability"] = plane.export()

    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"fleet {preset.name}: {preset.description}")
        print(
            f"  trace: {len(trace)} requests over {preset.duration_s:g}s, "
            f"tenants: {', '.join(payload['tenants'])}"
        )
        print(
            f"  fleet: {args.clusters} active + {args.burst_clusters} standby x "
            f"{payload['design']} ({args.policy} routing)"
        )
        if chaos_name is not None:
            print(f"  chaos: {chaos_name} (fault seed {payload['fault_seed']})")
        if payload["parallel"] is not None:
            info = payload["parallel"]
            if info["mode"] == "parallel":
                print(
                    f"  parallel: {info['shards']} shards / {info['workers']} workers "
                    f"(bit-identical to serial)"
                )
            else:
                print(f"  parallel: serial fallback — {'; '.join(info['reasons'])}")
        if "observability" in payload:
            obs = payload["observability"]
            print(
                f"  observability: {obs['span_count']} spans, "
                f"{obs['metric_samples']} metric samples -> "
                f"{obs['trace_path'] or '-'} / {obs['metrics_path'] or '-'}"
            )
        for label in ("static", "burst"):
            if label not in payload:
                continue
            run = payload[label]
            slo = run["tenant_slo"]
            tenant_bits = ", ".join(
                f"{tenant}={'PASS' if entry['satisfied'] else 'FAIL'}"
                for tenant, entry in sorted(slo["tenants"].items())
            )
            print(
                f"  {label:<7} per-tenant SLO: {tenant_bits} "
                f"(fleet {'PASS' if slo['fleet']['satisfied'] else 'FAIL'}) "
                f"completion={run['completion_rate']:.3f} "
                f"machine-hours={run['machine_hours']:.3f} cost=${run['cost']:.0f}"
            )
            if "faults" in run:
                fired = sum(run["faults"]["fired"].values())
                shed = sum(run.get("requests_shed", {}).values())
                print(
                    f"  {'':<7} chaos: {fired} injections fired, "
                    f"bans={run.get('bans_issued', 0)}, shed={shed} "
                    f"({', '.join(f'{t}={n}' for t, n in sorted(run.get('requests_shed', {}).items())) or 'none'})"
                )
            if "reliability" in run:
                rel = run["reliability"]
                expired = sum(run.get("requests_expired", {}).values())
                print(
                    f"  {'':<7} lifecycle: retries={rel['retries_fired']} "
                    f"hedges={rel['hedges_launched']} (won {rel['hedges_won']}, "
                    f"wasted {rel['hedge_wasted_tokens']} tok), "
                    f"degraded={run.get('requests_degraded', 0)}, expired={expired}"
                )
        if "machine_hours_saved" in payload:
            saved = payload["machine_hours_saved"]
            static_hours = payload["static"]["machine_hours"]
            fraction = saved / static_hours if static_hours else 0.0
            print(
                f"  machine-hours saved vs static: {saved:.3f} ({fraction:.1%}), "
                f"bursts={payload['burst'].get('bursts', 0)}, "
                f"provisioner actions={payload['burst'].get('provisioner_actions', 0)}"
            )
        if args.timeline and "timeline" in payload:
            for event in payload["timeline"]:
                print(
                    f"    t={event['time_s']:>8.2f}s {event['action']:<10} "
                    f"{event['cluster']:<10} ({event['reason']})"
                )
    return 0 if exit_report["satisfied"] else 2


def _cmd_provision(args: argparse.Namespace) -> int:
    estimate_prompt, estimate_token = estimate_pool_sizes(args.design, rate_rps=args.rate, workload=args.workload)
    provisioner = Provisioner(workload=args.workload, trace_duration_s=args.duration, seed=args.seed)
    prompt_counts = range(max(1, estimate_prompt - args.spread), estimate_prompt + args.spread + 1)
    token_counts = (
        range(max(1, estimate_token - args.spread), estimate_token + args.spread + 1)
        if estimate_token
        else (0,)
    )
    goal = OptimizationGoal.COST if args.goal == "cost" else OptimizationGoal.POWER
    result = provisioner.size_for_throughput(
        args.design, target_rps=args.rate, prompt_counts=prompt_counts, token_counts=token_counts, goal=goal
    )
    print(f"analytical estimate: {estimate_prompt} prompt, {estimate_token} token machines")
    print(f"{'config':<12}{'$/hr':>10}{'kW':>8}{'feasible':>10}")
    for candidate in result.candidates:
        design = candidate.design
        label = f"{design.num_prompt}P,{design.num_token}T"
        print(f"{label:<12}{candidate.cost_per_hour:>10.0f}{candidate.provisioned_power_kw:>8.1f}"
              f"{'yes' if candidate.feasible else 'no':>10}")
    if result.best is None:
        print("no feasible configuration in the swept range")
        return 1
    best = result.best.design
    print(f"optimal ({args.goal}): {best.num_prompt} prompt + {best.num_token} token machines "
          f"= {result.best.cost_per_hour:.0f} $/hr, {result.best.provisioned_power_kw:.1f} kW")
    return 0


def _cmd_designs(args: argparse.Namespace) -> int:
    print(f"{'family':<18}{'machines':>10}{'$/hr':>10}{'kW':>8}")
    for family in DESIGN_FAMILIES:
        design = build_design(family, args.prompt, args.token)
        print(f"{family:<18}{design.num_machines:>10}{design.cost_per_hour:>10.1f}"
              f"{design.provisioned_power_kw:>8.2f}")
    return 0


_COMMANDS = {
    "trace": _cmd_trace,
    "simulate": _cmd_simulate,
    "scenario": _cmd_scenario,
    "fleet": _cmd_fleet,
    "provision": _cmd_provision,
    "designs": _cmd_designs,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code.

    Bad input (a ``ValueError``, ``KeyError`` or ``OSError`` out of a
    subcommand) prints ``error: <message>`` to stderr and returns 1.
    Simulator faults (``AccountingError``, ``SanitizerError``) still raise.
    """
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "lint":
        # Imported lazily: linting is dev tooling, simulation runs must not pay
        # for (or depend on) the analysis package.
        from repro.analysis import simlint

        return simlint.main(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    try:
        return _COMMANDS[args.command](args)
    except KeyError as error:
        # str() of a KeyError is the repr of its argument; print the text.
        print(f"error: {error.args[0] if error.args else error}", file=sys.stderr)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
