"""Command-line surface.

    evomeasure simulate       --config cfg.json --out dir [--solver ...] [--dt x] [--T x]
    evomeasure verify         --config cfg.json [--out dir] ...
    evomeasure dirac-limit    --config cfg.json --out dir ...
    evomeasure mutation-limit --config cfg.json --out dir [--sigmas 0.4,0.2,0.1,0.05] ...

Exit codes: 0 success, 1 verification failure, 2 config error (or an output
directory that cannot be written, or a run too large for memory), 3 numeric
failure.

``entry`` (``python -m evomeasure.cli``, the ``evomeasure`` script) calls
``gc.freeze()`` before ``main``: exit and ``verify``'s forked children then
leave the imports' objects alone.  ``main`` in process keeps the heap as is.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time

from .config import RunConfig
from .errors import ConfigError, NumericError, _real
from .kernels import gaussian_exponent
from . import experiments

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _add_common(p: argparse.ArgumentParser, out_required: bool) -> None:
    p.add_argument("--config", required=True, help="path to the JSON run config")
    p.add_argument("--out", required=out_required, help="output directory")
    p.add_argument("--solver", choices=["rk4", "picard"], help="override the config solver")
    p.add_argument("--dt", type=float, help="override the config step size")
    p.add_argument("--T", type=float, help="override the config horizon")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evomeasure", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("simulate", help="run a simulation and write artifacts"), True)
    _add_common(sub.add_parser("verify", help="run the invariant checks"), False)
    _add_common(sub.add_parser("dirac-limit", help="pure-selection concentration experiment"), True)
    p = sub.add_parser("mutation-limit", help="mutation -> selection continuity sweep")
    _add_common(p, True)
    p.add_argument("--sigmas", help="comma-separated decreasing kernel widths")
    return parser


def _load_config(args) -> RunConfig:
    """The config file with the command-line overrides merged in."""
    over = {k: v for k, v in (("solver", args.solver), ("dt", args.dt), ("T", args.T))
            if v is not None}
    return RunConfig.from_json(args.config, **over)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        cfg = _load_config(args)
        if args.command == "simulate":
            meta = experiments.simulate(cfg, args.out)
            print(f"simulate: {meta['n_nodes']} nodes, final mass {meta['final_mass']:.6g}")
            code = EXIT_OK
        elif args.command == "verify":
            report = experiments.verify(cfg, args.out)
            for name, check in report["checks"].items():
                print(f"{'PASS' if check['passed'] else 'FAIL'}  {name}")
                if not check["passed"]:
                    info = {k: v for k, v in check.items() if k != "passed"}
                    print(f"      {info}")
            code = EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED
        elif args.command == "dirac-limit":
            report = experiments.dirac_limit(cfg, args.out)
            if report["tie"]:
                print("dirac-limit: continuum/tie among fittest classes; shares emitted")
            else:
                print(
                    f"dirac-limit: fittest cell {report['fittest_index_floored']}, "
                    f"final fraction {report['final_fraction']:.4f}, "
                    f"final flat distance {report['final_bl_to_atom']:.4f}"
                )
            code = EXIT_OK
        elif args.command == "mutation-limit":
            sigmas = _sigmas(args, cfg)
            report = experiments.mutation_limit(cfg, sigmas, args.out)
            for s, d in zip(report["sigmas"], report["final_distances"]):
                print(f"sigma={s:g}: final flat distance {d:.6g}")
            code = EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED
        else:  # pragma: no cover - argparse enforces the choices
            raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:  # the config is read into a ConfigError: this is the --out side
        print(f"cannot write the artifacts: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        print(f"the run does not fit in memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"wall time: {time.perf_counter() - started:.2f} s")
    return code


def entry() -> int:
    """``main`` on the command line, after freezing the heap."""
    gc.freeze()
    return main()


def _sigmas(args, cfg: RunConfig) -> list[float]:
    """The kernel widths from --sigmas or the config's JSON list: each one a
    width ``gaussian_exponent`` accepts, strictly decreasing."""
    if args.sigmas:
        entries = [s for s in args.sigmas.split(",") if s.strip()]
    else:
        entries = cfg.raw.get("sigmas")
        if not entries:
            raise ConfigError("mutation-limit needs --sigmas or a 'sigmas' config entry")
        if not isinstance(entries, list):  # a string would be read one character at a time
            raise ConfigError(f"the config's 'sigmas' must be a JSON list, got {entries!r}")
    try:
        sigmas = [_real(s, "sigma") for s in entries]
        for s in sigmas:
            gaussian_exponent(s)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad sigma list: {exc}") from exc
    if any(later >= s for s, later in zip(sigmas, sigmas[1:])):
        raise ConfigError(f"the sigmas must be strictly decreasing, got {sigmas}")
    return sigmas


if __name__ == "__main__":
    sys.exit(entry())
