"""Run one `evomeasure` CLI command with a span around each layer's public calls.

    python3 perfbench/tracer.py SPANS_FILE RUN_ID CLI_ARGS...

The library is not modified.  Before the command runs, each traced function
is replaced by a wrapper at the place where its callers look the name up:
the experiment functions bind library names at import time (`experiments.flow`,
`experiments.bl_distance`, `kernels.bl_distance`,
`dynamics.estimate_constants`, ...), so patching only the defining module
would miss them.  Methods are patched on their class.

Each call records a span (name, start, end, parent span, a per-call value)
in memory; the spans are written to SPANS_FILE (.npz) when the command ends.
All spans of one command share RUN_ID.  The traced commands run on one
thread, so a single stack gives every span its parent.  A span's self time
is its duration minus that of its direct children; `run.py` computes it.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np

from evomeasure import cli, config, dynamics, experiments, fitness, kernels, measures, space

# span name -> the value recorded with each call, from (args, result)
VALUES = {
    "measures.bl_distance": lambda args, result: args[0].space.n,
    "kernels.kernel_from_density": lambda args, result: result.rows.nbytes,
    "dynamics.rk4_integrate": lambda args, result: result.n_nodes - 1,
    "dynamics.write_csv": lambda args, result: os.path.getsize(args[1]),
}

# span name -> every (owner, attribute) through which callers reach it
TARGETS = {
    "cli.main": [(cli, "main")],
    "config.build": [(config.RunConfig, "build")],
    "kernels.kernel_from_config": [(config, "kernel_from_config")],
    "kernels.kernel_from_density": [(kernels, "kernel_from_density")],
    "kernels.push_births": [(kernels.MutationKernel, "push_births")],
    "space.distance_matrix": [(space.StrategySpace, "distance_matrix")],
    "measures.bl_distance": [(measures, "bl_distance"), (experiments, "bl_distance"),
                             (kernels, "bl_distance")],
    "fitness.f1": [(fitness.FitnessPair, "f1")],
    "fitness.f2": [(fitness.FitnessPair, "f2")],
    "fitness.estimate_constants": [(dynamics, "estimate_constants"),
                                   (experiments, "estimate_constants")],
    "fitness.verify_assumptions": [(experiments, "verify_assumptions")],
    "dynamics.flow": [(experiments, "flow")],
    "dynamics.vector_field": [(experiments, "vector_field")],
    "dynamics.rk4_integrate": [(dynamics, "rk4_integrate")],
    "dynamics.picard_solve": [(dynamics, "picard_solve")],
    "dynamics.picard_operator": [(dynamics, "picard_operator")],
    "dynamics.write_csv": [(dynamics.Trajectory, "write_csv")],
    "dynamics.write_summary_csv": [(dynamics.Trajectory, "write_summary_csv")],
    "reductions.integrate_discrete": [(experiments, "integrate_discrete")],
    "reductions.normalized_trajectory": [(experiments, "normalized_trajectory")],
    "reductions.mm_residual": [(experiments, "mm_residual")],
    "experiments.simulate": [(experiments, "simulate")],
    "experiments.verify": [(experiments, "verify")],
    "experiments.dirac_limit": [(experiments, "dirac_limit")],
}


class Tracer:
    """In-memory span recorder for one command."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self._stack = [-1]

    def wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        value = VALUES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, 0.0)
            if value is not None:
                spans[index] = (name_id, start, end, parent, value(args, result))
            return result

        return traced

    def install(self) -> None:
        for name, places in TARGETS.items():
            owner, attr = places[0]
            wrapper = self.wrap(getattr(owner, attr), name)
            for owner, attr in places:
                setattr(owner, attr, wrapper)

    def save(self, path) -> None:
        """Columns: name id, start, end, parent span index (-1 at the top), value."""
        np.savez(
            path,
            names=np.array(self.names),
            spans=np.array(self.spans, dtype=float).reshape(-1, 5),
            run_id=self.run_id,
        )


def main(argv: list[str]) -> int:
    spans_path, run_id, cli_args = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer(run_id)
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.save(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
