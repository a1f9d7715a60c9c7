"""Benchmark of the `evomeasure` CLI on fixed workloads.

Run from the root of a checkout (the engine is imported from ./src):

    python3 perfbench/run.py --workload dirac_limit_1d --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all                   # every workload in turn

Every invocation is a fresh `python3 -m evomeasure.cli` subprocess, run one
at a time (a closed loop with one client), on a config that workloads.py
builds from --seed.  For --seconds the benchmark launches the workload's
command again and again, stopping before the next one would overrun, and
times each from launch to exit with its artifacts written.  Each
invocation's artifacts are checked (workloads.check) and compared byte for
byte with the first invocation's; a non-zero exit, a failed check or a
differing artifact counts as a failed invocation.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json:
  wall_s       median launch-to-exit time of the command,
  setup_s      median time of a fresh interpreter to `import evomeasure.cli`
               (SETUP_REPEATS imports before the timed loop),
  peak_rss_mb  median peak resident memory of the command's process.
--trace 1 alternates untraced invocations with ones run under tracer.py and
reports the per-layer metrics named in BENCHMARK.json: per traced span its
call count and self time (medians over the traced invocations), a few work
sizes, and trace.overhead_s, the traced minus the untraced median wall time.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give each metric with
its sample count, failed_frac (= failed / attempted), and a record of the
machine and software the numbers came from.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 5

# per-layer metrics that are not a span's .calls or .self_s: metric -> span
# whose recorded per-call values (tracer.VALUES) it sums
SPAN_VALUES = {
    "measures.bl_distance.support_n": "measures.bl_distance",
    "kernels.rows_bytes": "kernels.kernel_from_density",
    "dynamics.rk4.steps": "dynamics.rk4_integrate",
    "dynamics.write_csv.bytes": "dynamics.write_csv",
}
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def launch(argv: list[str], log_path: Path) -> tuple[float, int, float]:
    """Run argv to completion: (wall seconds, exit code, peak RSS in MB)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def artifact_digest(out_dir: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


@dataclass
class Invocation:
    wall_s: float
    peak_rss_mb: float
    traced: bool
    failures: list[str]
    layers: dict = field(default_factory=dict)


class Run:
    """One workload at one seed: a scratch directory and the invocations made in it."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.dir = WORK / f"{name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps(workloads.config(name, seed)))
        self.invocations: list[Invocation] = []
        self.first_digest: dict | None = None

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # not empty: another run is using it
            pass

    def import_times(self, repeats: int) -> list[float]:
        times = []
        for i in range(repeats):
            wall, code, _ = launch([sys.executable, "-c", "import evomeasure.cli"],
                                   self.dir / f"import{i}.log")
            if code != 0:
                raise SystemExit(f"perfbench: `import evomeasure.cli` failed, see {self.dir}/import{i}.log")
            times.append(wall)
        return times

    def invoke(self, traced: bool) -> Invocation:
        i = len(self.invocations)
        out = self.dir / f"out{i}"
        args = workloads.cli_args(self.name, self.config, out)
        spans = self.dir / f"spans{i}.npz"
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans), str(i), *args]
        else:
            argv = [sys.executable, "-m", "evomeasure.cli", *args]
        log = self.dir / f"log{i}.txt"
        wall, code, rss = launch(argv, log)
        if code != 0:
            failures = [f"exit code {code}: {log.read_text()[-2000:]}"]
        else:
            failures = workloads.check(self.name, out, self.seed)
            digest = artifact_digest(out)
            if self.first_digest is None:
                self.first_digest = digest
            elif digest != self.first_digest:
                failures.append("artifacts differ from the first repetition's")
        inv = Invocation(wall, rss, traced, failures)
        if traced and spans.exists():
            inv.layers = layer_totals(spans)
        shutil.rmtree(out, ignore_errors=True)
        for msg in failures:
            print(f"perfbench: {self.name} invocation {i} failed: {msg}", file=sys.stderr)
        self.invocations.append(inv)
        return inv

    def measure(self, seconds: float, trace: bool) -> None:
        """Invoke until the next invocation would end after `seconds`.

        At least two invocations are made (four with tracing, every second
        one traced), so the determinism comparison always has a partner.
        """
        minimum = 4 if trace else 2
        start = time.perf_counter()
        while True:
            self.invoke(traced=trace and len(self.invocations) % 2 == 1)
            elapsed = time.perf_counter() - start
            typical = statistics.median(inv.wall_s for inv in self.invocations)
            if len(self.invocations) >= minimum and elapsed + typical > seconds:
                return


def layer_totals(path: Path) -> dict:
    """Per span name: call count, summed self time and summed recorded value."""
    import numpy as np

    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        spans = data["spans"]
    name_id = spans[:, 0].astype(int)
    parent = spans[:, 3].astype(int)
    duration = spans[:, 2] - spans[:, 1]
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=duration[nested], minlength=len(spans))
    self_s = np.bincount(name_id, weights=duration - children, minlength=len(names))
    calls = np.bincount(name_id, minlength=len(names))
    values = np.bincount(name_id, weights=spans[:, 4], minlength=len(names))
    totals = {}
    for i, name in enumerate(names):
        totals[f"{name}.calls"] = int(calls[i])
        totals[f"{name}.self_s"] = float(self_s[i])
        totals[f"{name}.value"] = float(values[i])
    return totals


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f" (quartiles {q1:.4f} .. {q3:.4f})"


def end_to_end(run: Run, setup: list[float], spec: list[dict]) -> dict:
    walls = [inv.wall_s for inv in run.invocations]
    samples = {
        "wall_s": walls,
        "setup_s": setup,
        "peak_rss_mb": [inv.peak_rss_mb for inv in run.invocations],
    }
    metrics = {}
    for m in spec:
        values = samples[m["name"]]
        metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
        print(f"  {m['name']:<12} {statistics.median(values):.4f} {m['unit']}  "
              f"median of {len(values)}{quartiles(values)}")
    print(f"  {'':<12} walls " + " ".join(f"{w:.4f}" for w in walls))
    print(f"  {'':<12} no high percentile: one with ten samples beyond it needs "
          f"more than 20 samples per run, a run has {len(walls)}")
    return metrics


def per_layer(run: Run, spec: list[dict]) -> dict:
    traced = [inv for inv in run.invocations if inv.traced and inv.layers]
    plain = [inv.wall_s for inv in run.invocations if not inv.traced]
    if not traced:
        raise SystemExit(f"perfbench: no traced {run.name} invocation wrote its spans")
    metrics = {}
    for m in spec:
        name = m["name"]
        if name == "trace.overhead_s":
            value = statistics.median(inv.wall_s for inv in traced) - statistics.median(plain)
        else:
            key = f"{SPAN_VALUES[name]}.value" if name in SPAN_VALUES else name
            value = statistics.median(inv.layers[key] for inv in traced)
        metrics[name] = {"value": value, "unit": m["unit"]}
        print(f"  {name:<36} {value:.6g} {m['unit']}")
    print(f"  medians over {len(traced)} traced and {len(plain)} untraced invocations")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> tuple[dict, int, int]:
    run = Run(name, seed)
    try:
        run.import_times(1)  # compiles the bytecode caches of a fresh checkout
        setup = [] if trace else run.import_times(SETUP_REPEATS)
        run.measure(seconds, trace)
        attempted = len(run.invocations)
        failed = sum(1 for inv in run.invocations if inv.failures)
        print(f"workload {name}  seed {seed}  trace {int(trace)}  "
              f"{attempted} invocations, failed_frac {failed}/{attempted} = {failed / attempted:.4g}")
        if trace:
            metrics = per_layer(run, spec["per_layer"])
        else:
            metrics = end_to_end(run, setup, spec["end_to_end"])
        return metrics, attempted, failed
    finally:
        run.close()


def provenance(seed: int) -> dict:
    import numpy as np

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "seed": seed,
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from ./.git only (None when it is no git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "evomeasure" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print("perfbench: run from the root of an evomeasure checkout "
              "(needs src/evomeasure and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    names = workloads.NAMES if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        got, n, bad = run_workload(name, args.seed, seconds, bool(args.trace), spec)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in got.items()})
        attempted += n
        failed += bad
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
