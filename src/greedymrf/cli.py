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

from .dataset import (
    CapacityError,
    DatasetError,
    DiscreteDataset,
    EmptyDatasetError,
    IngestOptions,
    filter_participation,
    load_csv,
    remap_values,
)
from .entropy import DistributionSource, EmpiricalSource, ExactSource, mutual_information
from .experiment import ExperimentSpec, experiment_summary, run_experiment
from .generators import ModelSpec, model_from_strings, parse_model_string, parse_weight_string
from .learner import LearnResult, LearnerConfig, chow_liu, learn_structure, prune_result
from .models import exact_joint, to_dot, write_edge_list
from .theory import all_bound_reports


def _write_json(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_trace(result: LearnResult, path: Path) -> None:
    lines = []
    for t in result.traces:
        stop = f"node {t.node}: stop={t.stop_reason}"
        if t.rejected is not None:
            stop += f" rejected={t.rejected} gain={t.rejected_gain:.10f}"
        lines.append(stop)
        for p in t.picks:
            pick = (
                f"  pick {p.vertex}: H_before={p.entropy_before:.10f}"
                f" H_after={p.entropy_after:.10f}"
            )
            if p.runner_up is not None:
                pick += f" runner_up={p.runner_up} margin={p.margin:.10f}"
            lines.append(pick)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _learner_config(args: argparse.Namespace) -> LearnerConfig:
    cap = args.max_neighborhood
    if cap is None and getattr(args, "degree_hint", None) is not None:
        cap = 2 * args.degree_hint
    return LearnerConfig(
        epsilon=args.epsilon, max_neighborhood=cap, symmetrization=args.symmetrization
    )


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
    if args.participation is not None:
        if args.missing is None:
            raise DatasetError("--participation requires --missing to name the absent token")
        # With the missing token in it, a one-token file has a 2-symbol raw alphabet.
        raw = load_csv(args.input, missing=args.missing)
        kept = filter_participation(raw, args.missing, args.participation)
        return remap_values(kept, rules, alphabet)
    return load_csv(args.input, IngestOptions(value_map=rules, alphabet=alphabet))


def cmd_learn(args: argparse.Namespace) -> int:
    ds = _ingest(args)
    src = EmpiricalSource(ds)
    result = learn_structure(src, _learner_config(args))
    if args.prune:
        result = prune_result(src, result)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = result.to_dict()
    doc["variable_names"] = list(ds.names)
    _write_json(doc, out / "result.json")
    (out / "graph.dot").write_text(to_dot(result.graph, ds.names), encoding="utf-8")
    write_edge_list(result.graph, out / "graph.edges")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    model = model_from_strings(args.model, args.theta)
    src: DistributionSource = ExactSource(exact_joint(model))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.chow_liu:
        tree = chow_liu(src)
        doc = {
            "mode": "chow_liu",
            "num_vars": tree.p,
            "edges": [list(e) for e in tree.sorted_edges()],
        }
        _write_json(doc, out / "result.json")
        lines = [
            f"edge {u} {v}: mutual_information={mutual_information(src, u, v):.10f}"
            for u, v in tree.sorted_edges()
        ]
        (out / "trace.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        (out / "graph.dot").write_text(to_dot(tree), encoding="utf-8")
        write_edge_list(tree, out / "graph.edges")
        return 0
    result = learn_structure(src, _learner_config(args))
    if args.prune:
        result = prune_result(src, result)
    doc = result.to_dict()
    doc["mode"] = "greedy"
    doc["true_edges"] = [list(e) for e in model.graph.sorted_edges()]
    _write_json(doc, out / "result.json")
    _write_trace(result, out / "trace.txt")
    (out / "graph.dot").write_text(to_dot(result.graph), encoding="utf-8")
    write_edge_list(result.graph, out / "graph.edges")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    fam, params = parse_model_string(args.model)
    spec = ExperimentSpec(
        model=ModelSpec(fam, params, parse_weight_string(args.theta)),
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
    out.mkdir(parents=True, exist_ok=True)
    cells = run_experiment(spec, out / "results.csv", no_timing=args.no_timing)
    _write_json(experiment_summary(spec, cells), out / "summary.json")
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    names = ("epsilon", "beta", "gamma", "max_degree", "alphabet_size", "num_vars", "delta")
    inputs = {k: getattr(args, k) for k in names if getattr(args, k) is not None}
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
    p_oracle.add_argument("--model", required=True,
                          help="grid:K | chain:P | cycle:P | tree:D,DEPTH | counterexample:D | er:P,PROB,SEED")
    p_oracle.add_argument("--theta", required=True,
                          help="const:T | uniform:LO,HI,SEED | randsign:T,SEED")
    p_oracle.add_argument("--chow-liu", action="store_true",
                          help="emit the mutual-information spanning tree instead")
    add_learner_flags(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    p_exp = sub.add_parser("experiment", help="success-probability sweep over sample counts")
    p_exp.add_argument("--model", required=True)
    p_exp.add_argument("--theta", required=True)
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
    except (DatasetError, EmptyDatasetError, CapacityError, ValueError, OSError) as exc:
        print(f"greedymrf {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
