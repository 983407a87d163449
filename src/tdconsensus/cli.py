"""Command-line interface.

Commands emit a JSON report (or CSV for sweep-tau) on stdout; everything
else goes to stderr. Exit codes: 0 success, 2 unparsable or invalid input,
3 disconnected graph, 4 unstable network, 1 other tool errors.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .design import (
    CandidateSet,
    DesignState,
    grow_random,
    grow_simple,
    reweight_scale,
    sparsify,
)
from .errors import (
    DisconnectedGraph,
    InvalidOutputMatrix,
    ParseError,
    ToolError,
    UnstableNetwork,
)
from .fileio import (
    csv_cell,
    file_digest,
    load_candidates,
    load_graph,
    load_matrix,
    report_json,
)
from .graphs import WeightedGraph, eigendecompose
from .performance import (
    OutputKind,
    OutputSpec,
    delay_sweep,
    hard_limit,
    make_output_spec,
    performance_report,
    rho_exact,
)
from .simulate import SimulationConfig, simulate

_OUTPUT_KINDS = [kind.value for kind in OutputKind]


def _add_common(parser: argparse.ArgumentParser, delay: bool = True) -> None:
    parser.add_argument("graph", help="graph file: 'n <count>' header, 'u v w' lines")
    if delay:
        parser.add_argument("--tau", type=float, required=True, help="network time delay")
    parser.add_argument(
        "--output-kind",
        choices=_OUTPUT_KINDS,
        default="centering",
        help="performance output (default: centering)",
    )
    parser.add_argument(
        "--output-matrix",
        default=None,
        help="matrix file for --output-kind custom",
    )


def _add_audit(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--audit",
        choices=["auto", "on", "off"],
        default="auto",
        help="recompute the exact measure each iteration (auto: on up to 200 nodes)",
    )


def _audit_flag(value: str) -> bool | None:
    return {"auto": None, "on": True, "off": False}[value]


def _load_output_spec(args: argparse.Namespace, node_count: int) -> OutputSpec:
    matrix = None
    if args.output_kind == "custom":
        if args.output_matrix is None:
            raise InvalidOutputMatrix("--output-kind custom requires --output-matrix")
        matrix = load_matrix(args.output_matrix)
    elif args.output_matrix is not None:
        raise InvalidOutputMatrix("--output-matrix requires --output-kind custom")
    return make_output_spec(args.output_kind, node_count, matrix)


def _input_block(path: str, graph: WeightedGraph) -> dict:
    return {
        "path": path,
        "sha256": file_digest(path),
        "node_count": graph.node_count,
        "edge_count": graph.edge_count,
    }


def _base_report(command: str, args: argparse.Namespace, graph: WeightedGraph) -> dict:
    return {
        "tool": {"name": "tdconsensus", "version": __version__},
        "command": command,
        "input": _input_block(args.graph, graph),
        "delay": args.tau,
        "output_kind": args.output_kind,
    }


def cmd_analyze(args: argparse.Namespace) -> dict:
    graph = load_graph(args.graph)
    out = _load_output_spec(args, graph.node_count)
    spectrum = eigendecompose(graph.laplacian())
    # Report first: its disconnected/unstable errors take precedence over lambda_2's.
    performance = performance_report(graph, out, args.tau)
    report = _base_report("analyze", args, graph)
    report["spectrum"] = {
        "lambda_2": spectrum.lambda_2,
        "lambda_max": spectrum.lambda_max,
    }
    report["performance"] = performance
    return report


def cmd_limits(args: argparse.Namespace) -> dict:
    graph = load_graph(args.graph)
    out = _load_output_spec(args, graph.node_count)
    limit = hard_limit(graph.node_count, out, args.tau)
    report = _base_report("limits", args, graph)
    report["hard_limit"] = limit.value
    report["optimal_uniform_weight"] = limit.optimal_uniform_weight
    return report


def _design_report(
    command: str,
    args: argparse.Namespace,
    graph: WeightedGraph,
    out: OutputSpec,
    state: DesignState,
    trace,
) -> dict:
    report = _base_report(command, args, graph)
    report["audit"] = state.audit
    report["performance_before"] = performance_report(graph, out, args.tau)
    report["trace"] = trace.entries
    report["termination"] = trace.termination
    report["performance_after"] = performance_report(state.graph, out, args.tau)
    report["final_edges"] = [[u, v, w] for u, v, w in state.graph.edges]
    return report


def _check_seed(args: argparse.Namespace) -> None:
    if args.seed < 0:
        raise ParseError("seed must be nonnegative")


def cmd_grow(args: argparse.Namespace) -> dict:
    _check_seed(args)
    graph = load_graph(args.graph)
    out = _load_output_spec(args, graph.node_count)
    try:
        candidates = CandidateSet(load_candidates(args.candidates), args.budget)
        candidates.validate_against(graph)
    except (ValueError, IndexError) as exc:
        raise ParseError(f"{args.candidates}: {exc}") from exc
    state = DesignState.from_graph(graph, out, args.tau, audit=_audit_flag(args.audit))
    if args.method == "simple":
        trace = grow_simple(state, candidates)
    else:
        trace = grow_random(state, candidates, seed=args.seed)
    report = _design_report("grow", args, graph, out, state, trace)
    report["method"] = args.method
    report["budget"] = args.budget
    report["seed"] = args.seed if args.method == "random" else None
    return report


def cmd_sparsify(args: argparse.Namespace) -> dict:
    graph = load_graph(args.graph)
    out = _load_output_spec(args, graph.node_count)
    if args.budget < 0:
        raise ParseError("budget must be nonnegative")
    state = DesignState.from_graph(graph, out, args.tau, audit=_audit_flag(args.audit))
    trace = sparsify(state, args.budget)
    report = _design_report("sparsify", args, graph, out, state, trace)
    report["budget"] = args.budget
    return report


def cmd_reweight(args: argparse.Namespace) -> dict:
    graph = load_graph(args.graph)
    out = _load_output_spec(args, graph.node_count)
    result = reweight_scale(graph, out, args.tau)
    report = _base_report("reweight", args, graph)
    report["kappa_star"] = result.kappa_star
    report["rho_before"] = result.rho_before
    report["rho_after"] = result.rho_after
    report["bracket"] = list(result.bracket)
    return report


def cmd_simulate(args: argparse.Namespace) -> dict:
    _check_seed(args)
    graph = load_graph(args.graph)
    out = _load_output_spec(args, graph.node_count)
    config = SimulationConfig(
        delay=args.tau,
        substeps_per_delay=args.substeps,
        dt=args.dt,
        burn_in=args.burn_in,
        horizon=args.horizon,
        trials=args.trials,
        seed=args.seed,
    )
    estimate = simulate(graph, out, config)
    spectrum = eigendecompose(graph.laplacian())
    exact = rho_exact(spectrum, out, args.tau)
    report = _base_report("simulate", args, graph)
    report["estimate"] = estimate
    report["rho_exact"] = exact
    report["within_ci99"] = bool(estimate.ci99_low <= exact <= estimate.ci99_high)
    return report


def cmd_sweep_tau(args: argparse.Namespace) -> str:
    if args.samples < 2:
        raise ParseError("need at least two samples")
    graphs = [load_graph(args.graph)]
    out = _load_output_spec(args, graphs[0].node_count)
    if args.second_graph is not None:
        graphs.append(load_graph(args.second_graph))
        if graphs[1].node_count != graphs[0].node_count:
            raise ParseError("the two graphs must share the node count")
    sweep = delay_sweep(graphs, out, args.samples)

    header, columns = "tau,rho", [sweep.taus, *sweep.rho]
    if len(graphs) == 2:
        header = "tau,rho_first,rho_second,difference"
        columns.append(sweep.rho[0] - sweep.rho[1])
    lines = [header] + [",".join(csv_cell(value) for value in row) for row in zip(*columns)]
    if len(graphs) == 2:
        crossover = sweep.crossover
        if crossover is None:
            lines.append("# crossover = none")
        else:
            low, high = crossover.bracket_low, crossover.bracket_high
            lines.append(f"# crossover_tau = {csv_cell(crossover.tau_star)}")
            lines.append(f"# bracket = {csv_cell(low)} {csv_cell(high)}")
            if crossover.certified_dominance is not None:
                low, high = crossover.certified_dominance
                lines.append(f"# certified_dominance = {csv_cell(low)} {csv_cell(high)}")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdconsensus",
        description="Performance analysis and topology design for noisy "
        "consensus networks with time delay.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="exact and fitted performance of one graph")
    _add_common(p)
    p.set_defaults(func=cmd_analyze, kind="json")

    p = sub.add_parser("limits", help="delay-induced performance floor")
    _add_common(p)
    p.set_defaults(func=cmd_limits, kind="json")

    p = sub.add_parser("grow", help="greedy edge addition under a budget")
    _add_common(p)
    p.add_argument("--candidates", required=True, help="candidate edge file, 'u v w' lines")
    p.add_argument("-k", "--budget", type=int, required=True)
    p.add_argument("--method", choices=["simple", "random"], default="simple")
    p.add_argument("--seed", type=int, default=0, help="random-method seed (default 0)")
    _add_audit(p)
    p.set_defaults(func=cmd_grow, kind="json")

    p = sub.add_parser("sparsify", help="greedy edge removal, bridges protected")
    _add_common(p)
    p.add_argument("-k", "--budget", type=int, required=True)
    _add_audit(p)
    p.set_defaults(func=cmd_sparsify, kind="json")

    p = sub.add_parser("reweight", help="optimal uniform weight rescaling")
    _add_common(p)
    p.set_defaults(func=cmd_reweight, kind="json")

    p = sub.add_parser(
        "sweep-tau", help="performance versus delay as CSV, with crossover when two graphs"
    )
    _add_common(p, delay=False)
    p.add_argument("second_graph", nargs="?", default=None)
    p.add_argument("--samples", type=int, default=400)
    p.set_defaults(func=cmd_sweep_tau, kind="csv")

    p = sub.add_parser("simulate", help="Monte Carlo check of the exact measure")
    _add_common(p)
    p.add_argument("--trials", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--substeps", type=int, default=25, help="delay substeps (default 25)")
    p.add_argument("--dt", type=float, default=None, help="override step; must divide tau")
    p.add_argument("--burn-in", type=float, default=None)
    p.add_argument("--horizon", type=float, default=None)
    p.set_defaults(func=cmd_simulate, kind="json")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.func(args)
    except (ParseError, InvalidOutputMatrix) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DisconnectedGraph as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except UnstableNetwork as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ToolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.kind == "csv":
        sys.stdout.write(result)
    else:
        sys.stdout.write(report_json(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
