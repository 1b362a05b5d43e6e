"""Run one greedymrf CLI command with a span tracer around each layer.

Usage: python bench/traced_cli.py SPANS_JSON -- CLI_ARGS...

Run from the repository root with ``src`` on PYTHONPATH. The tracer wraps
public functions and methods of the package's modules from outside; the
package itself is unchanged. A plain function is patched in every greedymrf
module namespace that holds it, because ``from .x import f`` binds a copy
where the name is looked up. A name that no longer exists is listed under
``absent`` and its layer metrics are left out; the command still runs.

Spans (name, start, end, parent) stay in memory and are written to
SPANS_JSON, with per-call counters, when the command returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
import uuid
from typing import Callable

# (span name, attribute name) for plain functions, wherever they are bound.
FUNCTIONS = [
    ("cli.run_experiment", "run_experiment"),
    ("dataset.load_csv", "load_csv"),
    ("dataset.filter_participation", "filter_participation"),
    ("dataset.remap_values", "remap_values"),
    ("entropy.conditional_entropy", "conditional_entropy"),
    ("generators.build", "build"),
    ("learner.learn_structure", "learn_structure"),
    ("learner.greedy_neighborhood", "greedy_neighborhood"),
    ("learner.prune_result", "prune_result"),
    ("models.exact_joint", "exact_joint"),
    ("models.exact_sample", "exact_sample"),
    ("models.gibbs_sample", "gibbs_sample"),
]

# (span name, class name, method name).
METHODS = [
    ("dataset.joint_counts", "DiscreteDataset", "joint_counts"),
    ("entropy.entropy_bits", "DistributionSource", "entropy_bits"),
    ("models.dense_marginal", "JointDistribution", "dense_marginal"),
]


class Tracer:
    """In-memory span recorder; one instance per traced command."""

    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        self.t0 = time.perf_counter_ns()
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        # Each span is [name index, start ns, end ns, parent span index or -1].
        self.spans: list[list[int]] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(amount)

    def wrap(self, name: str, fn: Callable, on_call: Callable | None = None) -> Callable:
        """Return ``fn`` recording one span per call; ``on_call(args, kwargs,
        result)`` adds counters after a call that returned."""
        idx = self._name_index.setdefault(name, len(self.names))
        if idx == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([idx, clock() - self.t0, 0, stack[-1] if stack else -1])
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][2] = clock() - self.t0
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        doc = {
            "run_id": self.run_id,
            "names": self.names,
            "spans": self.spans,
            "counters": self.counters,
            "absent": self.absent,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _package_modules() -> list:
    import greedymrf

    for info in pkgutil.iter_modules(greedymrf.__path__, "greedymrf."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    return [m for n, m in sorted(sys.modules.items()) if n.startswith("greedymrf") and m]


def _arg(args: tuple, kwargs: dict, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _gibbs_counts(tracer: Tracer):
    def on_call(args, kwargs, result):
        model, n, cfg = (_arg(args, kwargs, k, key) for k, key in enumerate(("m", "n", "cfg")))
        burn = 1000 * model.p if cfg.burn_in is None else cfg.burn_in
        sweeps = burn + n * max(1, cfg.thinning)
        tracer.count("models.gibbs_sweeps", sweeps)
        tracer.count("models.gibbs_site_updates", sweeps * model.p)

    return on_call


def _greedy_counts(tracer: Tracer):
    def on_call(args, kwargs, trace):
        p = _arg(args, kwargs, 0, "src").p
        picks = len(trace.picks)
        # A threshold stop scores one more round than it accepts; cap and
        # exhausted stops end before scoring.
        rounds = picks + 1 if trace.stop_reason == "threshold" else picks
        tracer.count("learner.picks", picks)
        tracer.count("learner.candidates_scored", sum(p - 1 - j for j in range(rounds)))

    return on_call


def _joint_counts(tracer: Tracer):
    def on_call(args, kwargs, result):
        ds = args[0]
        variables = _arg(args, kwargs, 1, "variables")
        width = len(variables) if hasattr(variables, "__len__") else 0
        tracer.count("dataset.rows_scanned", ds.n)
        tracer.count("dataset.bytes_scanned", ds.n * width * ds.values.itemsize)

    return on_call


def install(tracer: Tracer) -> None:
    """Patch every listed function and method of the loaded package."""
    modules = _package_modules()
    hooks = {
        "dataset.load_csv": lambda a, k, ds: tracer.count("dataset.cells_parsed", ds.n * ds.p),
        "models.exact_joint": lambda a, k, j: tracer.count("models.table_cells", j.probs.size),
        "models.gibbs_sample": _gibbs_counts(tracer),
        "learner.greedy_neighborhood": _greedy_counts(tracer),
        "dataset.joint_counts": _joint_counts(tracer),
        "models.dense_marginal": lambda a, k, r: tracer.count(
            "models.table_bytes_summed", a[0].probs.nbytes
        ),
    }
    for span, attr in FUNCTIONS:
        originals = {
            id(getattr(m, attr)): getattr(m, attr)
            for m in modules
            if callable(getattr(m, attr, None)) and not isinstance(getattr(m, attr), type)
        }
        if not originals:
            tracer.absent.append(span)
            continue
        for fn in originals.values():
            traced = tracer.wrap(span, fn, hooks.get(span))
            for m in modules:
                if getattr(m, attr, None) is fn:
                    setattr(m, attr, traced)
    for span, cls_name, meth in METHODS:
        classes = {id(getattr(m, cls_name)): getattr(m, cls_name)
                   for m in modules if isinstance(getattr(m, cls_name, None), type)}
        owners = [c for c in classes.values() if meth in c.__dict__]
        if not owners:
            tracer.absent.append(span)
        for cls in owners:
            setattr(cls, meth, tracer.wrap(span, cls.__dict__[meth], hooks.get(span)))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    import greedymrf.cli

    code = tracer.wrap("cli.main", greedymrf.cli.main)(cli_args)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
