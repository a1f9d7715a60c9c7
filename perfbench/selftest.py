"""Self-test of the output checker: correct artifacts pass, perturbed ones fail.

    python3 perfbench/selftest.py [--record]

Run from the root of a checkout.  Runs each workload once at seed 0, checks
that workloads.check accepts its artifacts, then applies each perturbation
below to a copy and checks that it is flagged both by workloads.check and by
the byte comparison that run.py makes between repetitions.  Exits 1 if any
case is not flagged.

--record first rewrites reference.json from these artifacts.  Use it only
on an engine whose results are known to be right.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
import workloads


def _edit_csv_cell(path: Path, row: int, column: str, delta: float) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    i = header.index(column)
    cells[i] = format(float(cells[i]) + delta, ".17g")
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _edit_json(path: Path, edit) -> None:
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _set(key, value):
    return lambda obj: obj.__setitem__(key, value)


def _fail_check(name):
    return lambda obj: obj["checks"][name].__setitem__("passed", False)


def _last_weight(path: Path, delta: float) -> None:
    with open(path, "rb+") as fh:
        fh.seek(-400, 2)
        tail = fh.read().decode()
        head, last = tail.rstrip("\n").rsplit("\n", 1)
        t, i, w = last.split(",")
        fh.seek(-400, 2)
        fh.truncate()
        fh.write(f"{head}\n{t},{i},{format(float(w) + delta, '.17g')}\n".encode())


PERTURBATIONS = {
    "dirac_limit_1d": [
        ("one flat distance in concentration.csv moved by 1e-6",
         lambda out: _edit_csv_cell(out / "concentration.csv", 100, "bl_to_atom", 1e-6)),
        ("fittest_index_floored changed in dirac_limit.json",
         lambda out: _edit_json(out / "dirac_limit.json", _set("fittest_index_floored", 30))),
        ("tie set in dirac_limit.json",
         lambda out: _edit_json(out / "dirac_limit.json", _set("tie", True))),
    ],
    "verify_1d": [
        ("passed flipped in verify.json",
         lambda out: _edit_json(out / "verify.json", _set("passed", False))),
        ("one named check failed in verify.json",
         lambda out: _edit_json(out / "verify.json", _fail_check("gronwall"))),
    ],
    "picard_2d": [
        ("the nonzero flat distance in summary.csv moved by 1e-6",
         lambda out: _edit_csv_cell(out / "summary.csv", 1, "bl_to_final", 1e-6)),
        ("gronwall_excess above its bound in metadata.json",
         lambda out: _edit_json(out / "metadata.json", _set("gronwall_excess", 1e-3))),
        ("rk4_cross_sup_tv above its bound in metadata.json",
         lambda out: _edit_json(out / "metadata.json", _set("rk4_cross_sup_tv", 1e-3))),
        ("one final-state weight in trajectory.csv moved by 1e-6",
         lambda out: _last_weight(out / "trajectory.csv", 1e-6)),
    ],
}


def main(argv: list[str]) -> int:
    record = argv == ["--record"]
    if argv and not record:
        print(__doc__, file=sys.stderr)
        return 2
    ok = True
    references = {}
    for name in workloads.NAMES:
        good = run.WORK / f"selftest-{name}"
        shutil.rmtree(good, ignore_errors=True)
        good.mkdir(parents=True)
        try:
            cfg = good / "config.json"
            cfg.write_text(json.dumps(workloads.config(name, 0)))
            out = good / "out"
            _, code, _ = run.launch([sys.executable, "-m", "evomeasure.cli",
                                     *workloads.cli_args(name, cfg, out)], good / "log.txt")
            if code != 0:
                print(f"FAIL  {name}: the CLI exited with {code}")
                ok = False
                continue
            if record:
                references[name] = workloads.reference_values(name, out)
                continue
            failures = workloads.check(name, out, 0)
            print(f"{'FAIL' if failures else 'ok  '}  {name}: unperturbed artifacts pass {failures}")
            ok &= not failures
            digest = run.artifact_digest(out)
            for description, perturb in PERTURBATIONS[name]:
                bad = good / "perturbed"
                shutil.rmtree(bad, ignore_errors=True)
                shutil.copytree(out, bad)
                perturb(bad)
                flagged = workloads.check(name, bad, 0)
                differs = run.artifact_digest(bad) != digest
                print(f"{'ok  ' if flagged and differs else 'FAIL'}  {name}: {description}: "
                      f"{flagged[:1] or 'not flagged'}; bytes differ: {differs}")
                ok &= bool(flagged) and differs
        finally:
            shutil.rmtree(good, ignore_errors=True)
            try:
                run.WORK.rmdir()
            except OSError:  # not empty: a benchmark run is using it
                pass
    if record and ok:
        workloads.REFERENCE_FILE.write_text(json.dumps(references, indent=1) + "\n")
        print(f"wrote {workloads.REFERENCE_FILE}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
