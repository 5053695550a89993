#!/usr/bin/env python3
"""Benchmark of the rabi2q command-line tool.

Usage (from the repository root):

    python3 perfbench/run.py --workload spectrum_sweep|dynamics|eigenstates \
        --seed N --seconds S --trace 0|1

Each round of a workload runs its CLI commands through ``rabi2q.cli.main``
in fresh worker processes (worker.py) with OpenBLAS and OpenMP at one
thread; rounds repeat until S seconds have passed (at least one round,
four for eigenstates).  The outputs are then checked against references
computed apart from the program (checks.py); the seed chooses which sweep
points and output times get a reference.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics (medians
over rounds) with ``--trace 0``, the per-layer metrics of one traced round
with ``--trace 1``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# the checks run in this process; keep their LAPACK off the second core
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import checks  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "_out"
SETUP_PROBES = 4
# the speed of this shared host drifts by 10-30% over seconds to minutes;
# one eigenstates round (~8 s) is too short to even that out, so its runs
# take the median of at least four rounds (a second dynamics round, ~32 s,
# did not narrow the spread of dynamics and would not fit the time budget)
MIN_ROUNDS = {"eigenstates": 4}
# reference times are drawn from the first 300 steps (t <= 30): the
# expm_multiply cost grows with t, and references out to t = 100 would add
# about 12 s to every run
REFERENCE_STEPS = 300

SWEEP = {"omega1": 1.3, "omega2": 0.7, "g": "0:2:0.01", "nmax": 300,
         "k": 20}
_DYN = {"omega1": 1.1, "omega2": 0.3, "alpha": 1.41421356, "tmax": 100.0,
        "steps": 1000}
DYNAMICS = {
    "usc": dict(_DYN, g1=0.3, g2=0.4, nmax=300, engine="full"),    # Fig. 2
    "dsc": dict(_DYN, g1=3.0, g2=4.0, nmax=340, engine="full"),    # Fig. 3
    "usc_rwa": dict(_DYN, g1=0.3, g2=0.4, nmax=300, engine="rwa"),
}
EIGENSTATE = {"omega1": 1.3, "omega2": 0.7, "g1": 0.3, "g2": 0.4,
              "count": 10, "nmax": 200}
PERTURB = {"omega1": 1.3, "omega2": 0.7, "g1": 2.0, "g2": 2.0, "mmax": 11}
RWA_COMPARE = {"omega1": 0.9, "omega2": 1.1, "g1": 0.2, "g2": 0.2, "k": 20,
               "nmax": 60}


def _flags(cfg, *keys):
    out = []
    for key in keys:
        out += [f"--{key}", str(cfg[key])]
    return out


def plan(workload: str, out: Path):
    """Worker processes of one round: lists of (output name, CLI argv).

    In ``eigenstates`` the second process reruns perturb and rwa-compare so
    their files can be compared byte for byte with the first run's.
    """
    if workload == "spectrum_sweep":
        return [[("spectrum", ["spectrum", "--lock", "g2=g1", "--g1",
                               SWEEP["g"]]
                  + _flags(SWEEP, "omega1", "omega2", "nmax", "k")
                  + ["--out", str(out / "spectrum.csv"),
                     "--svg", str(out / "spectrum.svg")])]]
    if workload == "dynamics":
        return [[(name, ["dynamics", "--qubits", "gg"]
                  + _flags(cfg, "omega1", "omega2", "g1", "g2", "alpha",
                           "nmax", "tmax", "steps", "engine")
                  + ["--out", str(out / f"{name}.csv")])
                 for name, cfg in DYNAMICS.items()]]
    if workload == "eigenstates":
        def perturb(tag):
            return (f"perturb{tag}", ["perturb"] + _flags(
                PERTURB, "omega1", "omega2", "g1", "g2", "mmax")
                + ["--out", str(out / f"perturb{tag}.csv")])

        def rwa(tag):
            return (f"rwa{tag}", ["rwa-compare"] + _flags(
                RWA_COMPARE, "omega1", "omega2", "g1", "g2", "k", "nmax")
                + ["--out", str(out / f"rwa{tag}.csv")])

        eig = ("eigenstate", ["eigenstate", "--parity", "both", "--bargmann"]
               + _flags(EIGENSTATE, "omega1", "omega2", "g1", "g2",
                        "count", "nmax")
               + ["--out", str(out / "eigenstate.csv")])
        return [[eig, perturb(""), rwa("")], [perturb("_rerun"), rwa("_rerun")]]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("spectrum_sweep", "dynamics", "eigenstates")


def spawn(commands, work: Path, trace: bool = False) -> dict:
    """Run one fresh worker; its setup, timings, CPU time, peak RSS and,
    when traced, its spans and counts."""
    work.mkdir(parents=True, exist_ok=True)
    spec, result, log = (work / "spec.json", work / "result.json",
                         work / "worker.log")
    trace_path = work / "trace.json"
    spec.write_text(json.dumps({"commands": commands,
                                "trace": str(trace_path) if trace else None}))
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    with open(log, "wb") as fh:
        spawned = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"),
                                 str(spec), str(result)],
                                stdout=fh, stderr=fh, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:                   # interrupted: stop the worker
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(log.read_text(errors="replace")[-2000:])
        raise RuntimeError(f"worker exited with {proc.returncode}")
    data = json.loads(result.read_text())
    for attr in data.get("missing", []):
        print(f"trace: {attr} not found, not traced", file=sys.stderr)
    return {"setup_s": data["ready"] - spawned,
            "wall_s": sum(r["wall_s"] for r in data["runs"]),
            "statuses": [r["status"] for r in data["runs"]],
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "trace": json.loads(trace_path.read_text()) if trace else None}


def run_round(workload: str, out: Path, trace: bool = False) -> dict:
    """One round: every worker process of the workload, one after another."""
    out.mkdir(parents=True, exist_ok=True)
    procs, statuses = [], {}
    for i, named in enumerate(plan(workload, out)):
        procs.append(spawn([argv for _, argv in named], out / f"proc{i}",
                           trace))
        statuses.update(zip((name for name, _ in named),
                            procs[-1]["statuses"]))
    return {"dir": out, "statuses": statuses, "procs": procs,
            "wall_s": sum(p["wall_s"] for p in procs),
            "cpu_s": sum(p["cpu_s"] for p in procs),
            "rss_mb": max(p["rss_mb"] for p in procs)}


# ---------------------------------------------------------------------------
# checks and operation counts
# ---------------------------------------------------------------------------

def _outputs(workload, out: Path):
    """Files each operation writes, by operation name."""
    return {name: ([out / "spectrum.csv", out / "spectrum.crossings.csv"]
                   if name == "spectrum" else [out / f"{name}.csv"])
            for proc in plan(workload, out) for name, _ in proc}


def check_first_round(workload: str, out: Path, statuses: dict,
                      rng: random.Random) -> list[str]:
    """Independent checks of one round's outputs (skipping failed ops)."""
    try:
        return _check_outputs(workload, out, statuses, rng)
    except (OSError, ValueError) as exc:         # missing or malformed file
        return [str(exc)]


def _check_outputs(workload, out, statuses, rng):
    ok = {name for name, status in statuses.items() if status == 0}
    problems = []
    if workload == "spectrum_sweep" and "spectrum" in ok:
        n_points = len(checks.grid(SWEEP["g"]))
        points = rng.sample(range(1, n_points), 4)
        problems += checks.check_spectrum(
            out / "spectrum.csv", out / "spectrum.crossings.csv",
            out / "spectrum.svg", SWEEP, points)
    elif workload == "dynamics":
        data = {}
        for name, cfg in DYNAMICS.items():
            if name not in ok:
                continue
            data[name] = checks.read_dynamics(out / f"{name}.csv")
            times = rng.sample(range(1, REFERENCE_STEPS + 1), 2)
            problems += checks.check_dynamics(
                data[name], cfg, checks.reference_trajectory(cfg, times))
        if "usc" in data and "dsc" in data:
            problems += checks.check_concurrence_order(data["usc"],
                                                       data["dsc"])
    elif workload == "eigenstates":
        for name, check, cfg in (
                ("eigenstate", checks.check_eigenstate, EIGENSTATE),
                ("perturb", checks.check_perturb, PERTURB),
                ("rwa", checks.check_rwa_compare, RWA_COMPARE)):
            if name in ok:
                problems += check(out / f"{name}.csv", cfg)
    return problems


def account(workload: str, rounds: list) -> tuple[int, int, list[str]]:
    """Attempted and failed operations, and determinism problems.

    An operation fails when its command exits non-zero, or, for a rerun,
    when its file is not byte-identical to the first run's.  Output bodies
    (the file without its first line, which carries the config hash) must
    be identical across rounds and between a run and its rerun.
    """
    attempted = failed = 0
    problems = []
    first = rounds[0]
    base = _outputs(workload, first["dir"])
    for rnd in rounds:
        files = _outputs(workload, rnd["dir"])
        for name, status in rnd["statuses"].items():
            attempted += 1
            if status != 0:
                failed += 1
                continue
            if name.endswith("_rerun"):
                orig = name[:-len("_rerun")]
                new_path, old_path = files[name][0], files[orig][0]
                if rnd["statuses"].get(orig) != 0:
                    failed += 1
                    continue
                if new_path.read_bytes() != old_path.read_bytes():
                    failed += 1
                if checks.csv_body(new_path) != checks.csv_body(old_path):
                    problems.append(f"{name}: body differs from first run")
            elif rnd is not first and first["statuses"].get(name) == 0:
                for new_path, old_path in zip(files[name], base[name]):
                    if checks.csv_body(new_path) != checks.csv_body(old_path):
                        problems.append(f"{new_path.name}: body differs "
                                        "between rounds")
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def measure(workload, seed, seconds, trace, work: Path) -> dict:
    rng = random.Random(seed)
    setups = []
    if not trace:
        setups = [spawn([], work / "probe")["setup_s"]
                  for _ in range(SETUP_PROBES)]
    rounds = []
    start = time.monotonic()
    while (len(rounds) < MIN_ROUNDS.get(workload, 1)
           or time.monotonic() - start < seconds):
        rounds.append(run_round(workload, work / f"round{len(rounds)}"))
        print(f"round {len(rounds)}: wall {rounds[-1]['wall_s']:.3f} s, "
              f"cpu {rounds[-1]['cpu_s']:.3f} s", file=sys.stderr)
    traced = None
    if trace:
        traced = run_round(workload, work / "traced", trace=True)
    problems = check_first_round(workload, rounds[0]["dir"],
                                 rounds[0]["statuses"], rng)
    attempted, failed, more = account(
        workload, rounds + ([traced] if traced else []))
    problems += more
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)

    def median(key):
        return statistics.median(r[key] for r in rounds)

    if trace:
        spans, counts = [], {}
        for proc in traced["procs"]:
            spans += [tuple(s) for s in proc["trace"]["spans"]]
            for key, val in proc["trace"]["counts"].items():
                counts[key] = counts.get(key, 0) + val
        (OUT / f"trace-{workload}.json").write_text(json.dumps(
            {"workload": workload, "seed": seed,
             "columns": ["id", "name", "start", "end", "parent"],
             "spans": spans, "counts": counts}))
        metrics = tracing.layer_metrics(spans, counts)
        metrics["trace.overhead_s"] = (traced["wall_s"] - median("wall_s"),
                                       "s")
    else:
        setups += [p["setup_s"] for r in rounds for p in r["procs"]]
        metrics = {"setup_s": (statistics.median(setups), "s"),
                   "wall_s": (median("wall_s"), "s"),
                   "cpu_s": (median("cpu_s"), "s"),
                   "peak_rss_mb": (median("rss_mb"), "MB")}
    print(f"{workload}: {len(rounds)} round(s), seed {seed}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind like on Ctrl-C, so the worker and work dir go too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "rabi2q" / "__init__.py").is_file():
        print(f"error: no rabi2q sources under {SRC}", file=sys.stderr)
        return 2
    work = OUT / f"work-{os.getpid()}"
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), work)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
