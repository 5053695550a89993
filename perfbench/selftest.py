"""Tests of the benchmark's own checks: each passes real rabi2q output and
rejects the same output with one value corrupted.

Run from the repository root with either of

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py

The outputs come from small configurations run in-process, so the whole
file takes a few seconds; the perturb and rwa-compare cases use the
benchmark's own configurations.
"""

from __future__ import annotations

import math
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from rabi2q import cli  # noqa: E402

WORK = HERE / "_out" / "selftest"

SMALL_SWEEP = {"omega1": 1.3, "omega2": 0.7, "g": "0:1:0.01", "nmax": 60,
               "k": 8}
SMALL_DYN = {"omega1": 1.1, "omega2": 0.3, "alpha": 1.41421356, "g1": 0.3,
             "g2": 0.4, "nmax": 40, "tmax": 10.0, "steps": 100}
SMALL_EIG = {"omega1": 1.3, "omega2": 0.7, "g1": 0.3, "g2": 0.4,
             "count": 3, "nmax": 60}


def _run(name, argv):
    WORK.mkdir(parents=True, exist_ok=True)
    out = WORK / name
    assert cli.main(argv + ["--out", str(out)]) == 0
    return out


def _corrupt(src: Path, row: int, col: int, new, name="corrupt.csv"):
    """Copy of a CSV with one cell of data row `row` replaced."""
    lines = src.read_text().splitlines()
    cells = lines[2 + row].split(",")
    cells[col] = str(new(cells[col]) if callable(new) else new)
    lines[2 + row] = ",".join(cells)
    dst = src.with_name(name)
    dst.write_text("\n".join(lines) + "\n")
    return dst


def _shift(delta):
    return lambda cell: repr(float(cell) + delta)


def test_spectrum_checks():
    cfg = SMALL_SWEEP
    csv = _run("sweep.csv", ["spectrum", "--lock", "g2=g1", "--g1", cfg["g"]]
               + run._flags(cfg, "omega1", "omega2", "nmax", "k")
               + ["--svg", str(WORK / "sweep.svg")])
    crossings, svg = WORK / "sweep.crossings.csv", WORK / "sweep.svg"
    points = [37, 64]
    assert checks.check_spectrum(csv, crossings, svg, cfg, points) == []
    k = cfg["k"]
    # one energy at a reference point, and one at g = 0 (analytic), off by 1e-6
    for row in (64 * 2 * k + 3, 5):
        bad = _corrupt(csv, row, 4, _shift(1e-6))
        assert checks.check_spectrum(bad, crossings, svg, cfg, points)
    rows = checks.read_csv(crossings)[2]
    even = [i for i, r in enumerate(rows) if r[0] == "even" and r[4] == "crossing"]
    bad = crossings
    for i in even:
        bad = _corrupt(bad, i, 4, "avoided_or_unresolved", "nocross.csv")
    assert checks.check_spectrum(csv, bad, svg, cfg, points)
    broken_svg = WORK / "broken.svg"
    broken_svg.write_text(svg.read_text()[:-20])
    assert checks.check_spectrum(csv, crossings, broken_svg, cfg, points)


def _dynamics(name, engine, **over):
    cfg = dict(SMALL_DYN, engine=engine, **over)
    csv = _run(name, ["dynamics", "--qubits", "gg"] + run._flags(
        cfg, "omega1", "omega2", "g1", "g2", "alpha", "nmax", "tmax",
        "steps", "engine"))
    return cfg, csv


def test_dynamics_checks():
    for engine in ("full", "rwa"):
        cfg, csv = _dynamics(f"dyn_{engine}.csv", engine)
        times = [13, 77]
        ref = checks.reference_trajectory(cfg, times)
        data = checks.read_dynamics(csv)
        assert checks.check_dynamics(data, cfg, ref) == []
        for col in (1, 2, 3, 4):            # mean_n, s_z, entropy, concurrence
            bad = data.copy()
            bad[77, col] += 1e-6
            assert checks.check_dynamics(bad, cfg, ref), (engine, col)
        bad = data.copy()
        bad[0, 2] = -0.999                 # s_z at t = 0
        assert checks.check_dynamics(bad, cfg, ref)
        bad = data.copy()
        bad[40, 3] = math.log(4) + 1e-3    # entropy above ln 4
        assert checks.check_dynamics(bad, cfg, ref)
        bad = data.copy()
        bad[40, 4] = 1.001                 # concurrence above 1
        assert checks.check_dynamics(bad, cfg, ref)
    bad = data.copy()
    bad[50, 1] += 1e-6                     # RWA excitation number drifts
    assert checks.check_dynamics(bad, cfg, {})
    usc = checks.read_dynamics(WORK / "dyn_full.csv")
    dsc = usc.copy()
    dsc[:, 4] *= 0.5
    assert checks.check_concurrence_order(usc, dsc) == []
    assert checks.check_concurrence_order(dsc, usc)


def test_eigenstate_checks():
    cfg = SMALL_EIG
    csv = _run("eig.csv", ["eigenstate", "--parity", "both", "--bargmann"]
               + run._flags(cfg, "omega1", "omega2", "g1", "g2", "count",
                            "nmax"))
    assert checks.check_eigenstate(csv, cfg) == []
    for col, new in ((2, _shift(1e-6)), (3, "2e-06"), (4, "2e-04"), (4, "")):
        assert checks.check_eigenstate(_corrupt(csv, 4, col, new), cfg)


def test_perturb_checks():
    cfg = run.PERTURB
    csv = _run("perturb.csv", ["perturb"] + run._flags(
        cfg, "omega1", "omega2", "g1", "g2", "mmax"))
    assert checks.check_perturb(csv, cfg) == []
    for col in (2, 4):                     # energy_zeroth, energy_total
        assert checks.check_perturb(_corrupt(csv, 6, col, _shift(1e-6)), cfg)
    # a consistent row whose total misses the dense levels by 0.1
    bad = _corrupt(csv, 6, 3, _shift(0.1))
    bad = _corrupt(bad, 6, 4, _shift(0.1), "corrupt2.csv")
    problems = checks.check_perturb(bad, cfg)
    assert problems and all("levels" in p for p in problems)


def test_rwa_compare_checks():
    cfg = run.RWA_COMPARE
    csv = _run("rwa.csv", ["rwa-compare"] + run._flags(
        cfg, "omega1", "omega2", "g1", "g2", "k", "nmax"))
    assert checks.check_rwa_compare(csv, cfg) == []
    for col in (1, 2, 3):                  # e_full, e_rwa, rel_error
        assert checks.check_rwa_compare(_corrupt(csv, 7, col, _shift(1e-6)),
                                        cfg)


def test_body_ignores_only_the_header():
    src = WORK / "perturb.csv"
    if not src.exists():
        test_perturb_checks()
    text = src.read_text().splitlines()
    other = WORK / "rehashed.csv"
    other.write_text("\n".join(["# rabi2q 0.1.0 perturb 000000000000"]
                               + text[1:]) + "\n")
    assert checks.csv_body(other) == checks.csv_body(src)
    assert checks.csv_body(_corrupt(src, 0, 3, _shift(1e-6))) != \
        checks.csv_body(src)


def test_layer_metrics_self_time():
    from tracing import layer_metrics
    spans = [(1, "dynamics.evolve", 0.0, 10.0, 0),
             (2, "numerics.eigh", 1.0, 3.0, 1),
             (3, "dynamics.observable", 4.0, 5.0, 1)]
    metrics = layer_metrics(spans, {"spectra.levels_computed": 40,
                                    "spectra.levels_kept": 10})
    assert np.isclose(metrics["dynamics.step_loop_s"][0], 7.0)
    assert np.isclose(metrics["numerics.eigh_s"][0], 2.0)
    assert metrics["spectra.kept_ratio"][0] == 0.25


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items())
             if n.startswith("test_") and callable(f)]
    try:
        for name, fn in tests:
            fn()
            print(f"ok   {name}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(tests)} passed")
