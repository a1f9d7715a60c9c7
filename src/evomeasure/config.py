"""Run configuration: one JSON document wires a whole simulation.

A config embeds the component specs::

    {
      "space":   {"kind": "grid1d", "bounds": [0.0, 2.0], "cells": 64},
      "kernel":  {"variant": "gaussian", "sigma": 0.15},
      "fitness": {"family": "ricker", "a": 1.5, "c": 0.6, "b": 0.5, "floor": 0.2},
      "initial": {"kind": "uniform", "mass": 1.0},
      "solver":  "rk4",
      "T": 1.0,
      "dt": 0.001,
      "seed": 0
    }

Validation failures raise ConfigError (CLI exit code 2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, _integer, _real, _reals
from .fitness import FitnessPair, fitness_from_config
from .kernels import MutationKernel, gaussian_exponent, kernel_from_config
from .measures import MeasureVec
from .space import StrategySpace, atoms, grid_1d, grid_2d


def space_from_config(cfg: dict) -> StrategySpace:
    kind = cfg.get("kind")
    if kind == "grid1d":
        lo, hi = cfg["bounds"]
        return grid_1d(_real(lo, "space.bounds"), _real(hi, "space.bounds"), cfg.get("cells", 128))
    if kind == "grid2d":
        return grid_2d(_reals(cfg["bounds"], "space.bounds"), cfg.get("cells", (32, 32)))
    if kind == "atoms":
        return atoms(_reals(cfg["points"], "space.points"))
    raise ConfigError(f"unknown space kind {kind!r}")


def initial_from_config(cfg: dict, space: StrategySpace, seed: int | None = None) -> MeasureVec:
    kind = cfg.get("kind")
    if kind == "uniform":
        w = space.cell_volumes / space.volume()
    elif kind == "gaussian":
        center = _reals(cfg["center"], "initial.center").reshape(space.dim)
        sigma = _real(cfg["sigma"], "initial.sigma")
        baseline = _real(cfg.get("baseline", 0.0), "initial.baseline")
        try:
            gaussian_exponent(sigma)
        except ValueError as exc:
            raise ConfigError(f"initial gaussian: {exc}") from exc
        d2 = ((space.points - center) ** 2).sum(axis=1)
        w = (baseline + np.exp(-d2 / (2.0 * sigma * sigma))) * space.cell_volumes
    elif kind == "weights":
        w = _reals(cfg["weights"], "initial.weights")
        if w.shape != (space.n,):
            raise ConfigError(f"initial weights need {space.n} entries, got {w.shape}")
    elif kind == "random":
        rng = np.random.default_rng(seed)
        lo = _real(cfg.get("low", 0.0), "initial.low")
        hi = _real(cfg.get("high", 1.0), "initial.high")
        w = rng.uniform(lo, hi, space.n) * space.cell_volumes
    else:
        raise ConfigError(f"unknown initial measure kind {kind!r}")
    if np.any(w < 0):
        raise ConfigError("initial measure must be nonnegative")
    with np.errstate(over="ignore"):
        total = float(np.sum(w))
    if not np.isfinite(total):  # finite weights can still add up past the largest float
        raise ConfigError(f"the initial measure's total mass is not finite: {total!r}")
    mass = cfg.get("mass")
    if mass is not None:
        mass = _real(mass, "initial.mass")
        if not 0 <= mass < np.inf:
            raise ConfigError("initial.mass must be nonnegative and finite")
        if total <= 0:
            raise ConfigError("cannot scale a zero initial measure to a target mass")
        w = w * (mass / total)
    return MeasureVec(space, w)


@dataclass
class RunConfig:
    """Validated run description; ``build()`` materializes the components
    from the sections of ``raw``, the validated document."""

    raw: dict
    solver: str = "rk4"
    T: float = 1.0
    dt: float | None = None
    seed: int = 0
    picard_tol: float = 1e-10
    picard_max_iter: int = 30
    ball_radius: float | None = None
    summary_stride: int | None = None

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        try:
            for key in ("space", "kernel", "fitness", "initial", "picard"):  # picard is optional
                if key not in d and key != "picard":
                    raise ConfigError(f"config is missing the {key!r} section")
                if not isinstance(d.get(key, {}), dict):
                    raise ConfigError(f"config section {key!r} is not a JSON object")
            solver = d.get("solver", "rk4")
            if solver not in ("rk4", "picard"):
                raise ConfigError(f"solver must be 'rk4' or 'picard', got {solver!r}")
            T = _real(d.get("T", 1.0), "T")
            if not 0 <= T < np.inf:
                raise ConfigError("T must be nonnegative and finite")
            dt = d.get("dt")
            dt = _real(dt, "dt") if dt is not None else T / 2000.0 if T > 0 else 1.0
            if not 0 < dt < np.inf:
                raise ConfigError("dt must be positive and finite")
            if not T / dt < np.inf:
                raise ConfigError(f"T / dt must be finite, got T = {T!r} and dt = {dt!r}")
            picard = d.get("picard", {})
            picard_tol = _real(picard.get("tol", 1e-10), "picard.tol")
            if not 0 < picard_tol < np.inf:
                raise ConfigError("picard.tol must be positive and finite")
            picard_max_iter = _integer(picard.get("max_iter", 30), "picard.max_iter")
            if picard_max_iter < 1:
                raise ConfigError("picard.max_iter must be at least 1")
            ball_radius = picard.get("ball_radius")
            if ball_radius is not None:
                ball_radius = _real(ball_radius, "picard.ball_radius")
                if not 0 < ball_radius < np.inf:
                    raise ConfigError("picard.ball_radius must be positive and finite")
            summary_stride = d.get("summary_stride")
            if summary_stride is not None:
                summary_stride = _integer(summary_stride, "summary_stride")
                if summary_stride < 1:
                    raise ConfigError("summary_stride must be at least 1")
            seed = _integer(d.get("seed", 0), "seed")
            if seed < 0:
                raise ConfigError(f"seed must be nonnegative, got {seed}")
            return RunConfig(
                raw=d,
                solver=solver,
                T=T,
                dt=dt,
                seed=seed,
                picard_tol=picard_tol,
                picard_max_iter=picard_max_iter,
                ball_radius=ball_radius,
                summary_stride=summary_stride,
            )
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid config: {exc}") from exc

    @staticmethod
    def from_json(path, **overrides) -> "RunConfig":
        """The config file with ``overrides`` replacing its top-level keys,
        validated (and the default dt derived) after the merge."""
        try:
            with open(path) as fh:
                d = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(d, dict):
            raise ConfigError(f"config {path} is not a JSON object")
        return RunConfig.from_dict({**d, **overrides})

    def build(self) -> tuple[StrategySpace, MutationKernel, FitnessPair, MeasureVec]:
        try:
            space = space_from_config(self.raw["space"])
            kernel = kernel_from_config(self.raw["kernel"], space)
            fp = fitness_from_config(self.raw["fitness"], space)
            u = initial_from_config(self.raw["initial"], space, seed=self.seed)
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid component spec: {exc}") from exc
        if fp.mean_fitness_mortality and self.solver == "picard":
            raise ConfigError(
                "mean-fitness mortality is outside the contraction theory; use solver 'rk4'"
            )
        return space, kernel, fp, u
