import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import rabi2q
from rabi2q import cli, numerics, spectra
from rabi2q.cli import main
from rabi2q.hamiltonian import build_parity_band
from rabi2q.model import ModelParams, Parity, TruncationConfig
from rabi2q.numerics import band_norm

from oracles import both_flipped, exchanged, g1_flipped


def run(args):
    return main(list(args))


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# rabi2q ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def test_invalid_flag_exits_2():
    with pytest.raises(SystemExit) as info:
        run(["spectrum", "--not-a-flag"])
    assert info.value.code == 2


def test_missing_command_exits_2():
    with pytest.raises(SystemExit) as info:
        run([])
    assert info.value.code == 2


@pytest.mark.parametrize("command", ["spectrum", "dynamics", "perturb",
                                     "rwa-compare", "eigenstate"])
def test_seed_rejected(command, tmp_path, capsys):
    # perturb reads no chain and takes no --nmax
    cutoff = [] if command == "perturb" else ["--nmax", "4"]
    code = run([command, "--seed", "7", *cutoff,
                "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "--seed is rejected" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_dynamics_decoupled_constant_columns(tmp_path):
    out = tmp_path / "dyn.csv"
    code = run(["dynamics", "--omega1", "1.3", "--omega2", "0.7",
                "--g1", "0", "--g2", "0", "--fock", "1", "--qubits", "gg",
                "--nmax", "8", "--tmax", "5", "--steps", "10",
                "--out", str(out)])
    assert code == 0
    _, rows = read_rows(out)
    mean_n = {row[1] for row in rows}
    s_z = {row[2] for row in rows}
    assert mean_n == {"1"}
    assert s_z == {"-1"}


def test_dynamics_rerun_is_byte_identical(tmp_path):
    args = ["dynamics", "--omega1", "1.1", "--omega2", "0.3",
            "--g1", "0.3", "--g2", "0.4", "--alpha", "1.41421356",
            "--qubits", "gg", "--nmax", "30", "--tmax", "5",
            "--steps", "20"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_dynamics_truncation_failure_exits_3(tmp_path):
    code = run(["dynamics", "--g1", "0.1", "--g2", "0.1", "--alpha", "4.0",
                "--nmax", "10", "--steps", "5",
                "--out", str(tmp_path / "x.csv")])
    assert code == 3


def test_dynamics_huge_alpha_exits_3(tmp_path, capsys):
    # |alpha|^2 passes the float range; the state leaks wholly past n_max
    code = run(["dynamics", "--alpha", "1e200", "--steps", "2",
                "--nmax", "20", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: coherent state")


def test_dynamics_command_memory_does_not_grow_with_rows(tmp_path):
    # from 4,000 to 40,000 steps the traced peak of the command may grow
    # by at most 200 bytes per added row: the trajectory's scalar columns
    # take about 70, and a list of the row tuples alone would take about 250
    peaks = []
    for steps in (4000, 40000):
        out = tmp_path / f"d{steps}.csv"
        tracemalloc.start()
        try:
            code = run(["dynamics", "--omega1", "1.1", "--omega2", "0.3",
                        "--g1", "0.3", "--g2", "0.4", "--alpha", "1.41421356",
                        "--nmax", "40", "--steps", str(steps),
                        "--out", str(out)])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(read_rows(out)[1]) == steps + 1
    assert peaks[1] - peaks[0] < 200 * 36000


def test_spectrum_single_point_decoupled(tmp_path):
    out = tmp_path / "spec.csv"
    code = run(["spectrum", "--omega1", "1.3", "--omega2", "0.7",
                "--g1", "0:0:1", "--lock", "g2=g1", "--nmax", "20",
                "--k", "4", "--out", str(out)])
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["g1", "g2", "parity", "branch", "energy"]
    even = [float(r[4]) for r in rows if r[2] == "even"]
    odd = [float(r[4]) for r in rows if r[2] == "odd"]
    # even chain: |0,g,g>, |1,g,e>, then |0,e,e> degenerate with |2,g,g>
    assert even == pytest.approx([-1.0, 0.7, 1.0, 1.0], abs=1e-10)
    assert odd == pytest.approx([-0.3, 0.0, 0.3, 1.7], abs=1e-10)
    assert (tmp_path / "spec.crossings.csv").exists()


def test_crossings_path_replaces_only_the_trailing_suffix(tmp_path):
    out = tmp_path / "run.csv_dir" / "s.csv"
    out.parent.mkdir()
    assert run(["spectrum", "--g1", "0:0.2:0.1", "--nmax", "20", "--k", "2",
                "--out", str(out)]) == 0
    assert sorted(p.name for p in out.parent.iterdir()) == [
        "s.crossings.csv", "s.csv"]


def test_spectrum_finds_crossing_in_small_window(tmp_path):
    out = tmp_path / "spec.csv"
    code = run(["spectrum", "--omega1", "1.3", "--omega2", "0.7",
                "--g1", "0.4:0.6:0.01", "--lock", "g2=g1",
                "--nmax", "120", "--k", "6", "--out", str(out),
                "--svg", str(tmp_path / "spec.svg")])
    assert code == 0
    _, rows = read_rows(tmp_path / "spec.crossings.csv")
    kinds = {row[4] for row in rows}
    assert "crossing" in kinds
    svg = (tmp_path / "spec.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_perturb_zero_qubit_frequencies(tmp_path):
    out = tmp_path / "p.csv"
    code = run(["perturb", "--omega1", "0", "--omega2", "0",
                "--g1", "1.1", "--g2", "0.6", "--mmax", "4",
                "--out", str(out)])
    assert code == 0
    _, rows = read_rows(out)
    assert all(row[3] == "0" for row in rows)


def test_signed_zero_cells_are_written_0(tmp_path):
    # the entropy of a product state sums -(1 ln 1) = -0, and perturb
    # writes the negated shift -0 at m_max 0: both cells read 0
    dyn_out, pert_out = tmp_path / "d.csv", tmp_path / "p.csv"
    assert run(["dynamics", "--steps", "2", "--alpha", "0", "--nmax", "3",
                "--omega1", "0", "--omega2", "0", "--out", str(dyn_out)]) == 0
    assert run(["perturb", "--mmax", "0", "--out", str(pert_out)]) == 0
    for path, column in ((dyn_out, "entropy"),
                         (pert_out, "correction_second")):
        header, rows = read_rows(path)
        assert rows and all(row[header.index(column)] == "0" for row in rows)
        assert "-0" not in {cell for row in rows for cell in row}


def test_rwa_compare_zero_coupling(tmp_path):
    out = tmp_path / "r.csv"
    code = run(["rwa-compare", "--omega1", "1.3", "--omega2", "0.7",
                "--g1", "0", "--g2", "0", "--k", "8", "--nmax", "30",
                "--out", str(out)])
    assert code == 0
    _, rows = read_rows(out)
    data = [row for row in rows if row[0] not in ("mean", "ground")]
    assert all(row[3] == "0" for row in data)
    footer = {row[0]: row[3] for row in rows if row[0] in ("mean", "ground")}
    assert footer == {"mean": "0", "ground": "0"}


@pytest.mark.parametrize("spelling", ["separate", "equals"])
def test_config_file_flags_win(spelling, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("omega1=1.3\nomega2=0.7\ng1=0\ng2=0\nnmax=8\n"
                   "steps=4\ntmax=2\nfock=2\nqubits=ee\n")
    config = (["--config", str(cfg)] if spelling == "separate"
              else [f"--config={cfg}"])
    out = tmp_path / "d.csv"
    code = run(["dynamics", *config, "--fock", "1", "--out", str(out)])
    assert code == 0
    _, rows = read_rows(out)
    assert rows[0][1] == "1"  # flag beat the config file's fock=2
    assert rows[0][2] == "1"  # the file's qubits=ee was applied


def test_config_file_bad_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("omega1 1.3\n")
    assert run(["dynamics", "--config", str(cfg)]) == 2


def test_eigenstate_command(tmp_path):
    out = tmp_path / "e.csv"
    code = run(["eigenstate", "--omega1", "1.3", "--omega2", "0.7",
                "--g1", "0.3", "--g2", "0.4", "--parity", "even",
                "--count", "2", "--nmax", "100", "--bargmann",
                "--out", str(out)])
    assert code == 0
    _, rows = read_rows(out)
    assert len(rows) == 2
    assert all(float(row[3]) < 1e-8 for row in rows)
    assert all(float(row[4]) < 1e-3 for row in rows)


def _bargmann_lengths(monkeypatch):
    """The j_max of each ``eigenstates.bargmann_residuals`` call made."""
    from rabi2q import eigenstates
    lengths, residuals = [], eigenstates.bargmann_residuals
    monkeypatch.setattr(eigenstates, "bargmann_residuals",
                        lambda params, levels, j_max, n_max: lengths.append(
                            j_max) or residuals(params, levels, j_max, n_max))
    return lengths


def test_eigenstate_bargmann_past_factorial_overflow(tmp_path, monkeypatch):
    # sqrt(j!) passes the largest float from j = 301 on.  At lambda = 1.5
    # (g 4.5/6) the series runs to the recurrence states' cut, 421
    # amplitudes, where a fixed 120 read 170: every residual cell holds
    lengths = _bargmann_lengths(monkeypatch)
    out = tmp_path / "e.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(["eigenstate", "--omega1", "1.1", "--omega2", "0.3",
                    "--g1", "4.5", "--g2", "6", "--parity", "both",
                    "--count", "10", "--nmax", "420", "--bargmann",
                    "--out", str(out)])
    assert code == 0 and lengths == [421]
    _, rows = read_rows(out)
    assert len(rows) == 20
    assert all(float(cell) <= 1e-6 for row in rows for cell in row[3:])


def test_eigenstate_bargmann_equal_qubit_frequencies(tmp_path, capsys):
    # omega_1 = omega_2: alpha_0 of the five-term rows vanishes, so the
    # Bargmann cell stays empty instead of holding a residual of garbage
    out = tmp_path / "e.csv"
    code = run(["eigenstate", "--omega1", "1", "--omega2", "1",
                "--g1", "0.3", "--g2", "0.4", "--bargmann", "--count", "3",
                "--nmax", "60", "--out", str(out)])
    assert code == 0
    header, rows = read_rows(out)
    assert len(rows) == 6 and "nan" not in out.read_text()
    column = header.index("residual_bargmann")
    assert all(row[column] == "" for row in rows)
    assert all(float(row[3]) < 1e-8 for row in rows)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == len(rows)
    assert all("bargmann route unavailable" in line for line in err)


@pytest.mark.parametrize("argv, served", [
    (["--omega1", "0.9247", "--omega2", "0", "--g1=-7e-65", "--g2", "0",
      "--nmax", "20"], False),
    (["--omega1", "0.4837", "--omega2", "0", "--g1", "0", "--g2", "1e-12",
      "--nmax", "69"], False),
    (["--omega1", "1e-128", "--omega2", "0", "--g1=-0.2252",
      "--g2", "1e-128", "--nmax", "20"], False),
    (["--omega1", "0.9247", "--omega2", "0", "--g1=-1e-8", "--g2", "0",
      "--nmax", "20"], True),
    (["--omega1", "1e-8", "--omega2", "0", "--g1=-0.2252", "--g2", "1e-10",
      "--nmax", "20"], True),
], ids=["tiny-g-product", "tiny-g-minus", "tiny-frequencies",
        "small-g-product", "small-frequencies"])
def test_eigenstate_bargmann_route_below_and_above_its_floor(
        tmp_path, capsys, argv, served):
    # alpha_0 negligible against the rest of its row (g_plus g_minus or
    # omega_1 -+ omega_2 tiny, not zero) leaves the null vector no state:
    # the Bargmann cells stay empty, one line per row says so, and the
    # good recurrence states exit 0.  Small but above the floor, every
    # Bargmann cell holds a residual within the tolerance
    out = tmp_path / "e.csv"
    assert run(["eigenstate", *argv, "--count", "1", "--bargmann",
                "--out", str(out)]) == 0
    header, rows = read_rows(out)
    cells = [row[header.index("residual_bargmann")] for row in rows]
    assert len(rows) == 2 and all(float(row[3]) < 1e-8 for row in rows)
    err = capsys.readouterr().err.splitlines()
    if served:
        assert all(float(cell) <= 1e-6 for cell in cells) and err == []
    else:
        assert cells == ["", ""] and len(err) == len(rows)
        assert all("bargmann route unavailable" in line for line in err)


@pytest.mark.parametrize("argv, count", [
    (["--g1", "1e-9", "--g2", "2e-9", "--count", "6", "--nmax", "50"], 6),
    (["--omega1", "1.3", "--omega2", "0.7", "--g1", "1e-9", "--g2", "2e-9",
      "--count", "6", "--nmax", "50"], 6),
    (["--g1", "0.3", "--g2", "0.3", "--count", "5", "--nmax", "40"], 5),
    (["--omega1", "1.3", "--omega2", "0.7", "--g1", "0.3", "--g2", "0.3",
      "--count", "10", "--nmax", "100"], 10),
    (["--omega1", "1.1", "--omega2", "0.3", "--g1", "3", "--g2", "4",
      "--nmax", "300", "--count", "10", "--bargmann"], 10),
], ids=["tiny-coupling", "tiny-coupling-split-ladder", "equal-couplings",
        "equal-couplings-split-ladder", "fig3"])
def test_eigenstate_serves_tiny_equal_and_deep_strong_couplings(
        tmp_path, argv, count):
    # tiny couplings (clusters 2.2e-9 wide at omega 1, 1e-18 wide at omega
    # 1.3/0.7), |g1| = |g2| (singular coupling blocks, dark states) and
    # Fig. 3 (deep strong coupling): every residual cell holds
    out = tmp_path / "e.csv"
    assert run(["eigenstate", "--parity", "both", *argv,
                "--out", str(out)]) == 0
    _, rows = read_rows(out)
    cells = [float(cell) for row in rows for cell in row[3:] if cell]
    assert len(rows) == 2 * count and max(cells) <= 1e-6


def test_eigenstate_unconverged_levels_exit_3(tmp_path):
    # at n_max = 6 none of the even levels certifies; at n_max = 20 level 5
    # does not, so six levels exit 3 rather than print level 6 as index 5
    out = tmp_path / "e.csv"
    for count, n_max in (("8", "6"), ("6", "20")):
        code = run(["eigenstate", "--omega1", "1.3", "--omega2", "0.7",
                    "--g1", "0.9", "--g2", "0.4", "--parity", "even",
                    "--count", count, "--nmax", n_max, "--out", str(out)])
        assert code == 3 and not out.exists()


def test_spectrum_prints_only_certified_levels(tmp_path):
    # at n_max = 120 no rung, the whole chain included, certifies the seven
    # lowest even levels (an edge-weight guard passed branches 4-6 there,
    # off by up to 1.1e-7); at n_max = 200 they print the digits that
    # n_max = 400 prints
    out = tmp_path / "s.csv"
    argv = ["spectrum", "--omega1", "1.1", "--omega2", "0.3", "--g1", "3",
            "--g2", "4", "--k", "7", "--out", str(out)]
    assert run(argv + ["--nmax", "120"]) == 3 and not out.exists()
    assert run(argv + ["--nmax", "200"]) == 0
    _, rows = read_rows(out)
    assert [row[4] for row in rows if row[2] == "even"][4:] == [
        "-45.0039894836", "-44.0040350677", "-43.0040822506"]


def test_rwa_compare_prints_only_certified_levels(tmp_path):
    # the full model's levels take the certificate of spectrum: at n_max =
    # 120 they carry less than 1e-8 on the top two photons yet are off by
    # up to 1.07e-7
    out = tmp_path / "r.csv"
    argv = ["rwa-compare", "--omega1", "1.1", "--omega2", "0.3", "--g1", "3",
            "--g2", "4", "--k", "14", "--out", str(out)]
    assert run(argv + ["--nmax", "120"]) == 3 and not out.exists()
    assert run(argv + ["--nmax", "200"]) == 0
    _, rows = read_rows(out)
    assert rows[13][1] == "-43.0040822506"


@pytest.mark.parametrize("argv", [
    ["--g1", "0", "--g2", "0", "--count", "6", "--nmax", "20"],
    ["--omega1", "0", "--omega2", "0", "--g1", "1e-30", "--g2", "0",
     "--count", "6", "--nmax", "20"],
    # three odd levels at 0 to rounding, the qubit pair of photon 0 and gg
    # of photon 1: the third keeps a state that is no eigenstate
    ["--g1", "2.2e-105", "--g2", "2.2e-105", "--count", "3", "--nmax", "20"],
], ids=["decoupled-ties", "zero-frequencies", "tiny-coupling"])
def test_eigenstate_loose_recurrence_residual_exits_3(tmp_path, capsys,
                                                       argv):
    # levels that tie to the last bit, two of them on one photon block: a
    # cluster member whose twisted states lie in the span of the members
    # below it has no vector (residual nan), or keeps one that is no
    # eigenstate.  The CSV is still written, and each row past the bound
    # is named on stderr
    from rabi2q.eigenstates import RECURRENCE_RESIDUAL_TOL
    out = tmp_path / "e.csv"
    assert run(["eigenstate", *argv, "--out", str(out)]) == 3
    _, rows = read_rows(out)
    loose = [row for row in rows
             if not float(row[3]) <= RECURRENCE_RESIDUAL_TOL]
    assert loose
    err = capsys.readouterr().err.splitlines()
    assert [line.split()[1:3] for line in err[:-1]] == [
        [row[0], f"#{row[1]}"] for row in loose]
    assert all("recurrence residual" in line for line in err[:-1])
    assert err[-1].startswith("error: ")


def test_eigenstate_loose_bargmann_residual_exits_3(tmp_path, capsys,
                                                    monkeypatch):
    # nine Bargmann amplitudes, in place of the series to the recurrence
    # states' cut, cannot hold these levels: the recurrence states hold,
    # and each row is named for its Bargmann residual alone
    from rabi2q import eigenstates
    from rabi2q.eigenstates import RECURRENCE_RESIDUAL_TOL
    residuals = eigenstates.bargmann_residuals
    monkeypatch.setattr(eigenstates, "bargmann_residuals",
                        lambda params, levels, j_max, n_max: residuals(
                            params, levels, 8, n_max))
    out = tmp_path / "e.csv"
    assert run(["eigenstate", "--omega1", "1.3", "--omega2", "0.7",
                "--g1", "0.3", "--g2", "0.4", "--nmax", "200", "--count",
                "5", "--parity", "even", "--bargmann",
                "--out", str(out)]) == 3
    _, rows = read_rows(out)
    assert all(float(row[3]) <= RECURRENCE_RESIDUAL_TOL
               < float(row[4]) for row in rows)
    err = capsys.readouterr().err.splitlines()
    assert [line.split()[1:5] for line in err[:-1]] == [
        ["even", f"#{index}", "bargmann", "residual"] for index in range(5)]
    assert err[-1] == "error: 5 residuals of 5 states exceed 1e-06"


GOLDEN = Path(__file__).resolve().parent / "golden"


def test_readme_eigenstate_csv_is_pinned(tmp_path):
    # the README eigenstate run, every line past the version and config
    # hash comment
    out = tmp_path / "states.csv"
    assert run(["eigenstate", "--omega1", "1.3", "--omega2", "0.7",
                "--g1", "0.3", "--g2", "0.4", "--parity", "both",
                "--count", "10", "--nmax", "200", "--bargmann",
                "--out", str(out)]) == 0
    assert (out.read_text().splitlines()[1:]
            == (GOLDEN / "eigenstate_readme.csv").read_text().splitlines())


_NO_MPMATH = """
import sys
sys.modules["mpmath"] = None
from rabi2q.cli import main

assert main(["eigenstate", "--omega1", "1.3", "--omega2", "0.7", "--g1",
             "0.3", "--g2", "0.4", "--parity", "both", "--count", "10",
             "--nmax", "200", "--bargmann", "--out", sys.argv[1]]) == 0
"""


def test_readme_eigenstate_runs_without_mpmath(tmp_path):
    # mpmath is a test dependency only: with its import blocked the README
    # eigenstate run still writes the pinned CSV
    out = tmp_path / "states.csv"
    _run_probe(_NO_MPMATH, str(out))
    assert (out.read_text().splitlines()[1:]
            == (GOLDEN / "eigenstate_readme.csv").read_text().splitlines())


def test_eigenstate_invalid_nmax_exits_2(tmp_path):
    code = run(["eigenstate", "--nmax", "0", "--g1", "0.3", "--g2", "0.4",
                "--count", "1", "--out", str(tmp_path / "e.csv")])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["spectrum", "--k", "0"],
    ["perturb", "--mmax", "-1"],
    ["rwa-compare", "--k", "0"],
    ["eigenstate", "--count", "50"],
    ["dynamics", "--fock", "-1", "--steps", "2"],
    ["dynamics", "--tmax", "nan", "--steps", "2"],
    ["dynamics", "--tmax", "inf", "--steps", "2"],
    ["dynamics", "--alpha", "nan", "--steps", "2"],
    ["spectrum", "--g1", "0:nan:0.1"],
    ["spectrum", "--g1", "0:1:nan"],
    ["spectrum", "--g1", "0:one:0.1"],
    ["dynamics", "--omega-f", "0", "--steps", "2"],
    ["dynamics", "--omega-f", "-1", "--steps", "2"],
    ["dynamics", "--omega-f", "nan", "--steps", "2"],
    ["rwa-compare", "--omega-f", "0"],
    ["rwa-compare", "--omega-f", "-1"],
    ["rwa-compare", "--omega-f", "nan"],
    ["eigenstate", "--count", "0"],
    ["eigenstate", "--count", "-2"],
    ["perturb", "--g1", "1e200", "--g2", "1", "--mmax", "1"],
    ["perturb", "--omega1", "1e200", "--g1", "1", "--g2", "2", "--mmax", "1"],
    ["perturb", "--g1", "10.3", "--g2", "9.9", "--mmax", "1",
     "--omega-f", "1e306"],
    # E t passes the float range
    ["dynamics", "--tmax", "1e308", "--steps", "2"],
    # arrays far past the address space: numpy refuses them before any
    # memory is touched
    ["dynamics", "--steps", str(10 ** 17)],
    ["spectrum", "--g1", "0:2:1e-13"],
    # crossing tolerances at which the swap test is vacuous
    ["spectrum", "--g1", "0:0.2:0.1", "--k", "4", "--gap-tol", "nan"],
    # checked before the sweep, whose 20 levels do not converge at n_max 10
    ["spectrum", "--g1", "0:0.2:0.1", "--nmax", "10", "--gap-tol", "nan"],
    ["spectrum", "--g1", "0:0.2:0.1", "--k", "4", "--gap-tol", "-1"],
    ["spectrum", "--g1", "0:0.2:0.1", "--k", "4", "--overlap-tol", "nan"],
    ["spectrum", "--g1", "0:0.2:0.1", "--k", "4", "--overlap-tol", "1"],
    # more levels than the two chains hold (42 each at n_max 20)
    ["rwa-compare", "--k", "85"],
], ids=["spectrum-k", "perturb-mmax", "rwa-compare-k",
        "eigenstate-count", "dynamics-fock",
        "dynamics-tmax-nan", "dynamics-tmax-inf", "dynamics-alpha-nan",
        "spectrum-stop-nan", "spectrum-step-nan", "spectrum-not-a-number",
        "dynamics-omega-f-0",
        "dynamics-omega-f-negative", "dynamics-omega-f-nan",
        "rwa-compare-omega-f-0", "rwa-compare-omega-f-negative",
        "rwa-compare-omega-f-nan", "eigenstate-count-0",
        "eigenstate-count-negative", "perturb-g-square-overflows",
        "perturb-omega-square-overflows", "perturb-rows-pass-float-range",
        "dynamics-phase-overflows", "dynamics-steps-too-large",
        "spectrum-range-too-large",
        "spectrum-gap-tol-nan", "spectrum-gap-tol-before-the-sweep",
        "spectrum-gap-tol-negative",
        "spectrum-overlap-tol-nan", "spectrum-overlap-tol-1",
        "rwa-compare-k-past-the-chains"])
def test_out_of_range_input_exits_2(argv, tmp_path, capsys):
    # the flags of argv come last, so they win over the defaults here;
    # perturb reads no chain and takes no --nmax
    cutoff = [] if argv[0] == "perturb" else ["--nmax", "20"]
    code = run(argv[:1] + ["--g1", "0.3", "--g2", "0.4", *cutoff,
                           "--out", str(tmp_path / "x.csv")] + argv[1:])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    # no file at all: neither x.csv nor the crossings table beside it
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["dynamics", "--steps", "0"], "--steps must be >= 1"),
    (["dynamics", "--tmax", "0", "--steps", "2"], "--tmax positive"),
    (["spectrum", "--g1", "1:0.95:0.1"], "STOP must be >= START"),
    (["spectrum", "--g1", "0:1:0"], "STEP must be positive"),
    (["spectrum", "--g1", "0:1"], "expected VALUE or START:STOP:STEP"),
    (["spectrum", "--g1", "0:1:0.5", "--g2", "0:1:0.25"], "equal length"),
    (["spectrum", "--g1", "0:1:0.5", "--lock", "g1=g3"], "--lock accepts"),
    (["dynamics", "--fock", "1", "--alpha", "1", "--steps", "2"],
     "either --alpha or --fock"),
    (["dynamics", "--qubits", "ggg", "--steps", "2"], "--qubits must be two"),
    (["dynamics", "--qubits", "g", "--steps", "2"], "--qubits must be two"),
    (["spectrum", "--seed="], "--seed is rejected"),
    (["perturb", "--config", "missing.cfg"], "cannot read config file"),
], ids=["dynamics-steps-0", "dynamics-tmax-0", "spectrum-stop-below-start",
        "spectrum-step-0", "spectrum-two-part-range",
        "spectrum-unequal-ranges", "spectrum-bad-lock",
        "dynamics-fock-and-alpha", "dynamics-three-qubits",
        "dynamics-one-qubit", "spectrum-empty-seed", "perturb-missing-config"])
def test_malformed_input_exits_2_naming_it(argv, message, tmp_path, capsys,
                                           monkeypatch):
    # each check at its boundary: the least bad value exits 2 with one
    # error line that names the check, and writes nothing
    monkeypatch.chdir(tmp_path)
    assert run(argv + ["--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert message in err[0]
    assert not list(tmp_path.iterdir())


def test_eigenstate_residual_at_the_tolerance_passes(tmp_path, monkeypatch,
                                                     capsys):
    # the residual verdict is strict: exactly RECURRENCE_RESIDUAL_TOL
    # passes, the next float up exits 3 naming each row
    from rabi2q import eigenstates
    tol = eigenstates.RECURRENCE_RESIDUAL_TOL
    argv = ["eigenstate", "--omega1", "1.3", "--omega2", "0.7", "--g1", "0.3",
            "--g2", "0.4", "--count", "2", "--nmax", "40",
            "--out", str(tmp_path / "e.csv")]
    for res, code in ((tol, 0), (np.nextafter(tol, 1), 3)):
        monkeypatch.setattr(eigenstates, "chain_residual",
                            lambda params, parity, xi, v, res=res:
                            np.full(len(xi), res))
        assert run(argv) == code
        assert len(capsys.readouterr().err.splitlines()) == (
            0 if code == 0 else 5)


@pytest.mark.parametrize("text, points", [
    ("0:1:0.35", [0.0, 0.35, 0.7]),
    ("0:0.3:0.1", [0.0, 0.1, 0.2, 0.3]),
    ("0:2:0.01", [0.01 * i for i in range(201)]),
])
def test_range_ends_at_or_below_stop(text, points):
    assert cli._parse_range(text).tolist() == pytest.approx(points,
                                                            abs=1e-12)


def test_internal_value_error_is_not_a_config_error(tmp_path, monkeypatch):
    # a ValueError from a broken invariant must surface, not read as exit 2
    def broken(*args, **kwargs):
        raise ValueError("state dimension does not match decomposition")

    monkeypatch.setattr(cli.spectra, "rwa_relative_error", broken)
    with pytest.raises(ValueError, match="state dimension"):
        run(["rwa-compare", "--nmax", "20", "--out", str(tmp_path / "r.csv")])


def test_eigenstate_diagonalizes_each_chain_once(tmp_path, monkeypatch):
    # at the README configuration both parities climb their ladders in one
    # call, whose first rung certifies both chains by one 2-lane inertia
    # count, and no whole chain is solved
    from rabi2q import eigenstates, numerics, spectra
    climbs, counts, rows = [], [], []
    climb, count, solve = (eigenstates.converged_pairs,
                           spectra._levels_below, numerics.eigh)
    monkeypatch.setattr(eigenstates, "converged_pairs",
                        lambda chains, *args: climbs.append(
                            [parity.value for _, parity in chains])
                        or climb(chains, *args))
    monkeypatch.setattr(spectra, "_levels_below",
                        lambda bands, *args: counts.append(len(bands))
                        or count(bands, *args))
    for module in (numerics, spectra):
        monkeypatch.setattr(module, "eigh",
                            lambda h: rows.append(len(h)) or solve(h))
    assert run(["eigenstate", "--omega1", "1.3", "--omega2", "0.7",
                "--g1", "0.3", "--g2", "0.4", "--parity", "both",
                "--count", "10", "--nmax", "200",
                "--out", str(tmp_path / "e.csv")]) == 0
    assert climbs == [["even", "odd"]] and counts == [2]
    assert rows and max(rows) < 2 * (200 + 1)


README_EIGENSTATE = ["eigenstate", "--omega1", "1.3", "--omega2", "0.7",
                     "--g1", "0.3", "--g2", "0.4", "--parity", "both",
                     "--count", "10", "--nmax", "200", "--bargmann"]


def test_readme_eigenstate_runs_its_levels_as_lanes(tmp_path, monkeypatch):
    # the Bargmann null vectors of the 20 levels come from banded
    # substitution, with no LU solve, and the twisted states of both
    # parities from one block-pivot pass of 40 lanes (up and down)
    import numpy as np
    from rabi2q import eigenstates
    solves, passes = [], []
    solve, pivots = np.linalg.solve, eigenstates.block_pivots
    monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(
        len(args[0])) or solve(*args))
    monkeypatch.setattr(eigenstates, "block_pivots",
                        lambda *args: passes.append(args[0].shape[1])
                        or pivots(*args))
    assert run(README_EIGENSTATE + ["--out", str(tmp_path / "e.csv")]) == 0
    assert solves == [] and passes == [40]


def test_readme_perturb_reads_one_table_per_coupling(tmp_path, monkeypatch):
    # the README perturb makes no per-element displacement call: its sums
    # read one table of <m|D(2g)|n> per coupling, every branch m by every
    # intermediate level n below W = ceil((2 * 2 + sqrt(11) + 4)^2) = 129
    from rabi2q import spectra
    calls, table = [], spectra.displacement_elements
    monkeypatch.setattr(spectra, "displacement_elements",
                        lambda m, n, g: calls.append(
                            (np.broadcast(m, n).shape, g)) or table(m, n, g))
    assert run(["perturb", "--omega1", "1.3", "--omega2", "0.7", "--g1", "2",
                "--g2", "2", "--mmax", "11",
                "--out", str(tmp_path / "p.csv")]) == 0
    assert calls == [((12, 129), 2.0)] * 2


def test_perturb_has_no_ncut_flag():
    # the sums run over the table that the couplings and --mmax size
    with pytest.raises(SystemExit) as info:
        run(["perturb", "--ncut", "40"])
    assert info.value.code == 2


def test_perturb_table_bound_names_the_coupling(tmp_path, capsys):
    # 12 rows of ceil((2 * 141 + sqrt(11) + 4)^2) = 83,705 levels pass 10^6
    # entries, and so does g = 1e150, whose squares fit; at g 140 (82,551
    # levels) they do not, and every row of that largest table holds its
    # unit norm
    for g1, g2, mmax in (("0.5", "-141", "11"), ("1e150", "1e150", "1")):
        assert run(["perturb", "--g1", g1, "--g2", g2, "--mmax", mmax,
                    "--out", str(tmp_path / "p.csv")]) == 2
        assert capsys.readouterr().err == (
            f"error: coupling {float(g2):g} at m_max={mmax} is out of range "
            f"for the perturbative sums: its displacement table would pass "
            f"1e+06 entries\n")
    assert not list(tmp_path.iterdir())
    assert run(["perturb", "--g1", "0.5", "--g2", "-140", "--mmax", "11",
                "--out", str(tmp_path / "p.csv")]) == 0


def test_spectrum_has_no_jobs_flag():
    with pytest.raises(SystemExit) as info:
        run(["spectrum", "--jobs", "2"])
    assert info.value.code == 2


def test_eigenstate_has_no_jmax_flag():
    # the Bargmann series runs to the recurrence states' own cut
    with pytest.raises(SystemExit) as info:
        run(["eigenstate", "--bargmann", "--jmax", "120"])
    assert info.value.code == 2


def test_dynamics_rwa_engine(tmp_path):
    out = tmp_path / "d.csv"
    code = run(["dynamics", "--omega1", "1.0", "--omega2", "1.0",
                "--g1", "0.05", "--g2", "0.05", "--alpha", "1.0",
                "--nmax", "20", "--tmax", "10", "--steps", "20",
                "--engine", "rwa", "--out", str(out),
                "--svg", str(tmp_path / "d.svg")])
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["t", "mean_n", "s_z", "entropy", "concurrence"]
    assert len(rows) == 21
    assert (tmp_path / "d.svg").read_text().startswith("<svg")


def _outputs_at_blas_threads(commands, tmp_path):
    """Run each command in a fresh process with both thread variables
    unset, and under one and under two OpenBLAS threads; for each setting,
    the bytes of every file written."""
    env = {name: value for name, value in os.environ.items()
           if name not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    src = str(Path(rabi2q.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    outputs = []
    for threads in ("unset", "1", "2"):
        out_dir = tmp_path / threads
        out_dir.mkdir()
        setting = {} if threads == "unset" else {
            "OPENBLAS_NUM_THREADS": threads}
        for k, argv in enumerate(commands):
            subprocess.run([sys.executable, "-m", "rabi2q.cli", *argv,
                            "--out", str(out_dir / f"{k}.csv")],
                           env=dict(env, **setting),
                           check=True, capture_output=True)
        outputs.append({path.name: path.read_bytes()
                        for path in sorted(out_dir.iterdir())})
    return outputs


def test_dynamics_does_not_depend_on_blas_threads(tmp_path):
    # both engines at the Fig. 2 parameters, shortened, with the thread
    # variables unset and under one and two OpenBLAS threads
    argv = ["dynamics", "--omega1", "1.1", "--omega2", "0.3", "--g1", "0.3",
            "--g2", "0.4", "--alpha", "1.41421356", "--qubits", "gg",
            "--nmax", "300", "--tmax", "30", "--steps", "300", "--engine"]
    outs = _outputs_at_blas_threads([argv + ["full"], argv + ["rwa"]],
                                    tmp_path)
    assert sorted(outs[0]) == ["0.csv", "1.csv"]
    assert outs[0] == outs[1] == outs[2]


def test_readme_commands_do_not_depend_on_blas_threads(tmp_path):
    # the README spectrum (on a coarser g grid), perturb, rwa-compare,
    # eigenstate (fewer levels) and Fig. 3 dynamics (200 steps, whose whole
    # chains took two OpenBLAS threads at the default setting before every
    # solve held one) runs write the same bytes, crossings file included,
    # with the thread variables unset and at one and at two threads
    commands = [
        ["spectrum", "--omega1", "1.3", "--omega2", "0.7", "--lock", "g2=g1",
         "--g1", "0:2:0.1", "--nmax", "300", "--k", "20"],
        ["perturb", "--omega1", "1.3", "--omega2", "0.7", "--g1", "2",
         "--g2", "2", "--mmax", "11"],
        ["rwa-compare", "--omega1", "0.9", "--omega2", "1.1", "--g1", "0.2",
         "--g2", "0.2", "--k", "20", "--nmax", "60"],
        ["eigenstate", "--omega1", "1.3", "--omega2", "0.7", "--g1", "0.3",
         "--g2", "0.4", "--parity", "both", "--count", "3", "--nmax", "200",
         "--bargmann"],
        ["dynamics", "--omega1", "1.1", "--omega2", "0.3", "--g1", "3",
         "--g2", "4", "--alpha", "1.41421356", "--qubits", "gg", "--nmax",
         "340", "--steps", "200"],
    ]
    outs = _outputs_at_blas_threads(commands, tmp_path)
    assert sorted(outs[0]) == ["0.crossings.csv", "0.csv", "1.csv", "2.csv",
                               "3.csv", "4.csv"]
    for name, data in outs[0].items():
        assert data == outs[1][name] == outs[2][name], name


def test_omega_f_rescales_output(tmp_path):
    base, scaled = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["rwa-compare", "--omega1", "1.3", "--omega2", "0.7",
            "--g1", "0.1", "--g2", "0.1", "--k", "3", "--nmax", "25"]
    assert run(args + ["--out", str(base)]) == 0
    assert run(args + ["--omega-f", "2.0", "--out", str(scaled)]) == 0
    _, rows_a = read_rows(base)
    _, rows_b = read_rows(scaled)
    assert float(rows_b[0][1]) == pytest.approx(2 * float(rows_a[0][1]))
    # relative errors are dimensionless
    assert rows_b[0][3] == rows_a[0][3]


_RERUN = """
import sys
from rabi2q.cli import main

out = sys.argv[1]
dynamics = ["dynamics", "--omega1", "1.3", "--omega2", "0.7", "--g1", "0.3",
            "--g2", "0.4", "--alpha", "1", "--nmax", "30", "--tmax", "10",
            "--steps", "100"]
commands = [
    ["perturb", "--omega1", "1.3", "--omega2", "0.7", "--g1", "2", "--g2",
     "1.5", "--mmax", "2"],
    dynamics + ["--engine", "full"],
    dynamics + ["--engine", "rwa"],
    ["eigenstate", "--omega1", "1.3", "--omega2", "0.7", "--g1", "0.3",
     "--g2", "0.4", "--count", "2", "--nmax", "40", "--bargmann"],
]
for i, argv in enumerate(commands):
    assert main(argv + ["--out", f"{out}/{i}.csv"]) == 0, argv
"""


def test_rerun_in_fresh_interpreter_is_byte_identical(tmp_path):
    # the header hash must not depend on anything of the process, such as
    # the address of the command function; the dynamics runs of both
    # engines show that the batched observables repeat bit for bit, and the
    # eigenstate run that the recurrence and the Bargmann gather do
    env = dict(os.environ)
    src = str(Path(rabi2q.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        out.mkdir()
        subprocess.run([sys.executable, "-c", _RERUN, str(out)],
                       env=env, check=True, capture_output=True)
        outs.append([(out / f"{i}.csv").read_bytes() for i in range(4)])
    assert outs[0] == outs[1]


_IMPORT_PROBE = """
import sys
from rabi2q import spectra
from rabi2q.cli import main

counts = []
count = spectra._levels_below
spectra._levels_below = lambda *args: counts.append(args) or count(*args)
out = sys.argv[1]
common = ["--omega1", "1.3", "--omega2", "0.7", "--g1", "0.3", "--g2", "0.4"]
commands = [
    ["dynamics", "--alpha", "1", "--nmax", "20", "--tmax", "2",
     "--steps", "4"],
    ["dynamics", "--alpha", "1", "--nmax", "20", "--tmax", "2",
     "--steps", "4", "--engine", "rwa"],
    ["perturb", "--mmax", "2"],
    # the full model's 4 lowest levels certify from n_max = 25
    ["rwa-compare", "--k", "4", "--nmax", "30"],
    ["eigenstate", "--bargmann", "--count", "2", "--nmax", "40"],
    ["spectrum", "--nmax", "60", "--k", "2"],
]
for i, argv in enumerate(commands):
    assert main(argv + common + ["--out", f"{out}/{i}.csv"]) == 0, argv
# at n_max = 60 the sweep's window gets as far as the inertia count, the
# one step that ever loaded scipy
assert counts
assert "scipy" not in sys.modules
"""


def _run_probe(*args):
    env = dict(os.environ)
    src = str(Path(rabi2q.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", *args],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


def test_no_command_imports_scipy(tmp_path):
    # scipy costs about 0.2 s and 23 MB at import, and no command needs
    # it: the sweep's inertia count is numpy only
    _run_probe(_IMPORT_PROBE, str(tmp_path))


def test_eigenstate_tie_across_the_cut_prints_nothing(tmp_path):
    # the odd chain's third and fourth levels tie at 1, so a window's cut
    # can land on a window level; the run writes its levels and no float
    # warning
    proc = _run_probe(
        "import sys; from rabi2q.cli import main; "
        "sys.exit(main(sys.argv[1:]))",
        "eigenstate", "--omega1", "0", "--omega2", "0",
        "--g1=-4.675842848598354e-22", "--g2=-4.675842848598354e-22",
        "--parity", "odd", "--count", "3", "--nmax", "23",
        "--out", str(tmp_path / "e.csv"))
    assert proc.stderr == ""
    _, rows = read_rows(tmp_path / "e.csv")
    assert [float(row[2]) for row in rows] == pytest.approx([0, 0, 1],
                                                           abs=1e-12)


# per command: a quick run, and flags that each change an output of it
_HASH_RUNS = {
    "spectrum": (["--g1", "0.1", "--nmax", "20", "--k", "2"],
                 [["--omega1", "1.2"], ["--omega2", "1.2"], ["--g1", "0.2"],
                  ["--g2", "0.1"], ["--lock", "g2=g1"], ["--omega-f", "2"],
                  ["--nmax", "21"], ["--k", "3"], ["--gap-tol", "0.1"],
                  ["--overlap-tol", "0.3"]]),
    "dynamics": (["--alpha", "1", "--nmax", "20", "--tmax", "2",
                  "--steps", "4"],
                 [["--omega1", "1.2"], ["--omega2", "1.2"], ["--g1", "0.1"],
                  ["--g2", "0.1"], ["--omega-f", "2"], ["--nmax", "21"],
                  ["--alpha", "0.5"], ["--qubits", "eg"], ["--tmax", "3"],
                  ["--steps", "5"], ["--engine", "rwa"]]),
    "perturb": (["--g1", "2", "--g2", "1.5", "--mmax", "2"],
                [["--omega1", "1.2"], ["--omega2", "1.2"], ["--g1", "2.1"],
                 ["--g2", "1.6"], ["--omega-f", "2"], ["--mmax", "3"]]),
    "rwa-compare": (["--g1", "0.1", "--nmax", "20", "--k", "4"],
                    [["--omega1", "1.2"], ["--omega2", "1.2"],
                     ["--g1", "0.2"], ["--g2", "0.1"], ["--omega-f", "2"],
                     ["--nmax", "21"], ["--k", "5"]]),
    "eigenstate": (["--omega1", "1.3", "--omega2", "0.7", "--g1", "0.3",
                    "--g2", "0.4", "--count", "2", "--nmax", "40"],
                   [["--omega1", "1.2"], ["--omega2", "0.6"], ["--g1", "0.2"],
                    ["--g2", "0.3"], ["--omega-f", "2"], ["--nmax", "41"],
                    ["--parity", "even"], ["--count", "3"],
                    ["--bargmann"]]),
}


def _header_hash(tmp_path, command, argv):
    out = tmp_path / "h.csv"
    assert run([command, *argv, "--out", str(out)]) == 0, argv
    return out.read_text().split("\n", 1)[0].split()[-1]


@pytest.mark.parametrize("command", sorted(_HASH_RUNS))
def test_config_hash_follows_every_output_flag(command, tmp_path):
    # each flag that changes an output changes the header hash, --nmax
    # included; the output paths and a config file that only restates the
    # flags do not
    base, changes = _HASH_RUNS[command]
    reference = _header_hash(tmp_path, command, base)
    hashes = [_header_hash(tmp_path, command, base + flags)
              for flags in changes]
    assert reference not in hashes and len(set(hashes)) == len(hashes)
    config = tmp_path / "restated.cfg"
    config.write_text("\n".join(f"{flag[2:]}={value}" for flag, value
                                in zip(base[0::2], base[1::2])) + "\n")
    same = [base + ["--config", str(config)], ["--config", str(config)]]
    if command in ("spectrum", "dynamics"):
        same.append(base + ["--svg", str(tmp_path / "h.svg")])
    assert [_header_hash(tmp_path, command, argv) for argv in same] == \
        [reference] * len(same)
    other = tmp_path / "elsewhere.csv"
    assert run([command, *base, "--out", str(other)]) == 0
    assert other.read_text().split("\n", 1)[0].split()[-1] == reference


@pytest.mark.parametrize("command", sorted(_HASH_RUNS))
def test_svg_is_taken_only_where_a_plot_is_drawn(command, tmp_path):
    # spectrum and dynamics draw the plot; the other commands reject
    # --svg, given as a flag or in a config file, and write nothing
    base = _HASH_RUNS[command][0]
    out, svg = tmp_path / "s.csv", tmp_path / "s.svg"
    config = tmp_path / "plot.cfg"
    config.write_text(f"svg={svg}\n")
    for extra in (["--svg", str(svg)], ["--config", str(config)]):
        argv = [command, *base, *extra, "--out", str(out)]
        if command in ("spectrum", "dynamics"):
            assert run(argv) == 0
            assert svg.read_text().startswith("<svg")
            svg.unlink()
        else:
            with pytest.raises(SystemExit) as info:
                run(argv)
            assert info.value.code == 2
            assert not out.exists() and not svg.exists()


@pytest.mark.parametrize("command", sorted(_HASH_RUNS))
def test_nmax_is_taken_only_where_a_chain_is_read(command, tmp_path):
    # perturb reads no chain, so --nmax would only move its config hash:
    # given as a flag or in a config file it exits 2 and writes nothing;
    # the other four commands take it
    base = _HASH_RUNS[command][0]
    out = tmp_path / "n.csv"
    config = tmp_path / "cutoff.cfg"
    config.write_text("nmax=21\n")
    for extra in (["--nmax", "21"], ["--config", str(config)]):
        argv = [command, *base, *extra, "--out", str(out)]
        if command != "perturb":
            assert run(argv) == 0
            out.unlink()
        else:
            with pytest.raises(SystemExit) as info:
                run(argv)
            assert info.value.code == 2
            assert not out.exists()


def _parser_runs(command, tmp_path):
    """The argvs of command's _HASH_RUNS, each also after a --config file
    that restates its base run, raw and with the file's flags spliced in
    as ``main`` does."""
    base, changes = _HASH_RUNS[command]
    config = tmp_path / "restated.cfg"
    config.write_text("\n".join(f"{flag[2:]}={value}" for flag, value
                                in zip(base[0::2], base[1::2])) + "\n")
    runs = []
    for argv in [base] + [base + flags for flags in changes]:
        runs += [[command, *argv], [command, "--config", str(config), *argv],
                 [command, *cli._config_flags(str(config)), *argv]]
    return runs


@pytest.mark.parametrize("command", sorted(_HASH_RUNS))
def test_one_command_parser_parses_as_the_full_one(command, tmp_path,
                                                   capsys):
    # the parser built for one command gives the full parser's Namespace
    # on every run, the same --help, and the same error for an unknown flag
    alone, full = cli.build_parser(command), cli.build_parser()
    for argv in _parser_runs(command, tmp_path):
        assert alone.parse_args(argv) == full.parse_args(argv), argv
    for extra in (["--help"], ["--not-a-flag"]):
        outcomes = []
        for parser in (alone, full):
            with pytest.raises(SystemExit) as info:
                parser.parse_args([command, *extra])
            outcomes.append((info.value.code, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == (0 if extra == ["--help"] else 2)


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0), (["--version"], 0), ([], 2), (["no-such-command"], 2),
    (["--omega1", "1", "spectrum"], 2)])
def test_top_level_runs_get_the_full_parser(argv, code, capsys):
    # --help lists all five commands, and an unknown or missing command is
    # reported against all five, as the full parser does
    with pytest.raises(SystemExit) as info:
        run(argv)
    got = (info.value.code, *capsys.readouterr())
    with pytest.raises(SystemExit) as info:
        cli.build_parser().parse_args(argv)
    assert got == (info.value.code, *capsys.readouterr())
    assert got[0] == code
    if argv == ["--version"]:
        assert got[1] == f"rabi2q {rabi2q.__version__}\n"
    if argv in (["--help"], ["no-such-command"]):
        assert all(name in got[1] + got[2] for name in cli.COMMANDS)


_POOL_PROBE = """
import sys
from rabi2q import numerics
from rabi2q.cli import main

out = sys.argv[1]
common = ["--omega1", "1.3", "--omega2", "0.7", "--g1", "0.3", "--g2", "0.4"]
commands = [
    ["dynamics", "--alpha", "1", "--nmax", "20", "--tmax", "2",
     "--steps", "4"],
    ["perturb", "--mmax", "2"],
    ["rwa-compare", "--k", "4", "--nmax", "30"],
    ["eigenstate", "--bargmann", "--count", "2", "--nmax", "40"],
]
for i, argv in enumerate(commands):
    assert main(argv + common + ["--out", f"{out}/{i}.csv"]) == 0, argv
assert "concurrent.futures" not in sys.modules
# a sweep of three points, a thread per core and point under the hold
assert main(["spectrum", "--lock", "g2=g1", "--g1", "0:0.2:0.1",
             "--nmax", "20", "--k", "2", "--out", f"{out}/s.csv"]) == 0
with numerics.one_blas_thread() as cores:
    assert ("concurrent.futures" in sys.modules) == (min(cores, 3) > 1)
"""


def test_only_the_sweep_makes_a_pool(tmp_path):
    # under the hold of one BLAS thread each core may take a thread of its
    # own; yet rwa-compare and eigenstate climb their two chains on the
    # calling thread, and only spectrum makes (and imports) a thread pool
    _run_probe(_POOL_PROBE, str(tmp_path))


def test_sweep_without_a_blas_setter_runs_on_the_calling_thread(
        tmp_path, monkeypatch):
    # where numpy's LAPACK has no OpenBLAS thread setter (MKL, Accelerate)
    # the sweep makes no pool, and writes the same bytes
    argv = ["spectrum", "--omega1", "1.3", "--omega2", "0.7", "--lock",
            "g2=g1", "--g1", "0:2:0.5", "--nmax", "300", "--k", "20"]
    assert run(argv + ["--out", str(tmp_path / "held.csv")]) == 0
    monkeypatch.setattr(numerics, "_blas_threads", lambda: None)
    threads = set()
    residuals = spectra.padded_residuals
    monkeypatch.setattr(spectra, "padded_residuals", lambda *args: (
        threads.add(threading.get_ident()) or residuals(*args)))
    assert run(argv + ["--out", str(tmp_path / "none.csv")]) == 0
    assert threads == {threading.get_ident()}
    for name in ("held.csv", "held.crossings.csv"):
        assert ((tmp_path / name).read_bytes()
                == (tmp_path / name.replace("held", "none")).read_bytes())


def test_importing_the_cli_does_not_import_scipy():
    # scipy is not a runtime dependency, so a command's setup does not
    # pay for it
    _run_probe("import sys, rabi2q.cli; assert 'scipy' not in sys.modules")


# ---------------------------------------------------------------------------
# qubit symmetries at the command line
# ---------------------------------------------------------------------------

def _model_flags(params):
    return [f"--{flag}={value!r}" for flag, value in (
        ("omega1", params.omega_1), ("omega2", params.omega_2),
        ("g1", params.g_1), ("g2", params.g_2))]


def _mirrored_rows(tmp_path, command, params, mirror, argv):
    """The rows of command at params and at mirror(params)."""
    sides = []
    for side, p in enumerate((params, mirror(params))):
        out = tmp_path / f"{side}.csv"
        assert run([command, *_model_flags(p), *argv, "--out", str(out)]) == 0
        sides.append(read_rows(out)[1])
    return sides


def _chain_norm(params, n_max):
    return max(band_norm(build_parity_band(params, parity,
                                           TruncationConfig(n_max)))
               for parity in Parity)


# the library's tolerance, relative to ||H||
SYMMETRY_TOL = 1e-13
MIRRORS = pytest.mark.parametrize("mirror", [exchanged, g1_flipped,
                                             both_flipped],
                                  ids=["exchange", "g1-flip", "joint-flip"])


@MIRRORS
def test_eigenstate_keeps_the_qubit_symmetries(tmp_path, monkeypatch, mirror):
    # at the README configuration each symmetry keeps every energy to 1e-13
    # ||H||, every residual cell within the bound on both sides, and the
    # Bargmann series length: the cut comes from w, G and the top level,
    # which are all invariant
    lengths = _bargmann_lengths(monkeypatch)
    params = ModelParams(1.3, 0.7, 0.3, 0.4)
    seen, mirrored = _mirrored_rows(
        tmp_path, "eigenstate", params, mirror,
        ["--count", "10", "--nmax", "200", "--bargmann"])
    tol = SYMMETRY_TOL * _chain_norm(params, 200)
    assert len(seen) == len(mirrored) == 20 and lengths == [57, 57]
    for row, row_m in zip(seen, mirrored):
        assert row[:2] == row_m[:2]
        assert abs(float(row[2]) - float(row_m[2])) <= tol
        assert all(float(cell) <= 1e-6 for cell in row[3:] + row_m[3:])


@MIRRORS
def test_perturb_keeps_the_qubit_symmetries(tmp_path, mirror):
    # bit for bit, as in the library: exchange and the joint flip keep both
    # branches, and g_1 -> -g_1 swaps branches 1 and 2
    seen, mirrored = _mirrored_rows(tmp_path, "perturb",
                                    ModelParams(1.3, 0.7, 2.1, 1.7), mirror,
                                    ["--mmax", "11"])
    swap = {"1": "2", "2": "1"} if mirror is g1_flipped else {}
    assert len(seen) == 24
    assert ({(m, swap.get(branch, branch)): cells
             for m, branch, *cells in seen}
            == {(m, branch): cells for m, branch, *cells in mirrored})


@MIRRORS
def test_rwa_compare_keeps_the_qubit_symmetries(tmp_path, mirror):
    # at the README configuration each symmetry keeps every full and RWA
    # level and every relative error to 1e-13 ||H||, as in the library
    params = ModelParams(0.9, 1.1, 0.2, 0.2)
    seen, mirrored = _mirrored_rows(tmp_path, "rwa-compare", params, mirror,
                                    ["--k", "20", "--nmax", "60"])
    tol = SYMMETRY_TOL * _chain_norm(params, 60)
    assert len(seen) == len(mirrored) == 22
    for row, row_m in zip(seen, mirrored):
        assert row[0] == row_m[0]
        for cell, cell_m in zip(row[1:], row_m[1:]):
            assert cell == cell_m or abs(float(cell) - float(cell_m)) <= tol
