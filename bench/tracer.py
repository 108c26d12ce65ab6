"""Traced child process of the camcurves benchmark.

Times the import of ``camcurves.cli``, wraps the public functions and
public methods of the measured ``camcurves`` modules, runs
``camcurves.cli.main(argv)`` and writes every span (name, start, end,
parent) and count as JSON.  It exits with the CLI's exit code.

    PYTHONPATH=src python3 bench/tracer.py TRACE.json fit-gam --observations grid.csv ...

Each wrapper is installed under every name a ``camcurves`` module looks the
function up by, so calls such as ``betagam.fit`` -> ``fit_stats`` (a module
global of ``betagam``) and ``cli`` -> ``betagam.fit`` are both seen.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

# The layers measured.  metrics, splines and plotting take no measurable
# time on any workload; errors and _numeric hold no public entry points.
MODULES = ("cli", "io", "design", "betagam", "planner", "curves")


def _distinct_design_rows(spec, observations) -> int:
    """Distinct rows of the model matrix: the covariates the spec uses."""
    factors = [t.name for t in spec.parametric_terms]
    smooths = [t.covariate for t in spec.smooth_terms]
    keys = {
        tuple(getattr(o, name) for name in factors + smooths)
        for o in observations
        if o.metric == spec.response
    }
    return len(keys)


def _count_fit(tracer, args, kwargs, model):
    spec = args[0] if args else kwargs["spec"]
    observations = args[1] if len(args) > 1 else kwargs["observations"]
    tracer.add("betagam.fit.rows", model.fit_stats.n_obs)
    tracer.add("betagam.fit.final_iterations", model.fit_stats.iterations)
    tracer.add("betagam.fit.distinct_rows", _distinct_design_rows(spec, observations))


def _count_predict_sizes(tracer, args, kwargs, values):
    tracer.add("betagam.AdditiveModel.predict_sizes.sizes", len(values))
    parent = tracer.current()
    if parent is not None and tracer.spans[parent][0] == "planner.gam_required_sample_size":
        tracer.add("planner.gam_required_sample_size.sizes_scanned", len(values))


COUNTERS = {
    "io.parse_observations": lambda t, a, k, r: t.add("io.parse_observations.rows", len(r)),
    "io.write_observations_csv": lambda t, a, k, r: t.add(
        "io.write_observations_csv.bytes", os.path.getsize(a[0])
    ),
    "io.save_model": lambda t, a, k, r: t.add("io.save_model.bytes", os.path.getsize(a[1])),
    "design.simulate_grid": lambda t, a, k, r: t.add("design.simulate_grid.observations", len(r)),
    "betagam.fit": _count_fit,
    "betagam.backward_eliminate": lambda t, a, k, r: t.add(
        "betagam.backward_eliminate.terms_dropped", len(r[1])
    ),
    "betagam.AdditiveModel.predict_sizes": _count_predict_sizes,
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent index] plus counts."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self._stack: list = []

    def add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def current(self):
        return self._stack[-1] if self._stack else None

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self.current()]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced


def _public_functions(module):
    """(qualified name, function, owner) for public functions defined in module."""
    short = module.__name__.split(".", 1)[1]
    for attr, value in list(vars(module).items()):
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield f"{short}.{attr}", value, None
        elif inspect.isclass(value):
            for meth, fn in list(vars(value).items()):
                if not meth.startswith("_") and inspect.isfunction(fn):
                    yield f"{short}.{attr}.{meth}", fn, value


def install(tracer: Tracer) -> None:
    """Replace each public function wherever a camcurves module refers to it."""
    modules = [m for n, m in sys.modules.items() if n == "camcurves" or n.startswith("camcurves.")]
    for short in MODULES:
        for name, fn, owner in _public_functions(sys.modules[f"camcurves.{short}"]):
            wrapped = tracer.wrap(name, fn)
            if owner is not None:
                setattr(owner, fn.__name__, wrapped)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapped)


def main(argv) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    start = time.perf_counter()
    import camcurves.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    code = 1
    try:
        code = camcurves.cli.main(cli_argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(
                {"import_s": import_s, "exit_code": code, "spans": tracer.spans, "counts": tracer.counts},
                handle,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
