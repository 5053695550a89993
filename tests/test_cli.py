import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import rabi2q
from rabi2q import cli
from rabi2q.cli import main


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
    code = run([command, "--seed", "7", "--nmax", "4",
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
    assert all(row[3] in ("0", "-0") for row in rows)


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
                "--count", "2", "--nmax", "100", "--jmax", "80",
                "--bargmann", "--out", str(out)])
    assert code == 0
    _, rows = read_rows(out)
    assert len(rows) == 2
    assert all(float(row[3]) < 1e-8 for row in rows)
    assert all(float(row[4]) < 1e-3 for row in rows)


def test_eigenstate_bargmann_past_factorial_overflow(tmp_path):
    # sqrt(j!) passes the largest float from j = 301 on
    out = tmp_path / "e.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(["eigenstate", "--omega1", "1.3", "--omega2", "0.7",
                    "--g1", "0.3", "--g2", "0.4", "--parity", "both",
                    "--count", "2", "--nmax", "60", "--jmax", "400",
                    "--bargmann", "--out", str(out)])
    assert code == 0
    _, rows = read_rows(out)
    assert len(rows) == 4
    assert all(float(row[4]) < 1e-3 for row in rows)


def test_eigenstate_singular_coupling_exits_3(tmp_path):
    code = run(["eigenstate", "--g1", "0.3", "--g2", "0.3",
                "--count", "1", "--nmax", "40",
                "--out", str(tmp_path / "e.csv")])
    assert code == 3


def test_eigenstate_invalid_nmax_exits_2(tmp_path):
    code = run(["eigenstate", "--nmax", "0", "--g1", "0.3", "--g2", "0.4",
                "--count", "1", "--out", str(tmp_path / "e.csv")])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["spectrum", "--k", "0"],
    ["perturb", "--mmax", "-1"],
    ["eigenstate", "--bargmann", "--jmax", "5", "--count", "1"],
    ["rwa-compare", "--k", "0"],
    ["eigenstate", "--count", "50"],
    ["dynamics", "--fock", "-1", "--steps", "2"],
    ["perturb", "--ncut", "-5", "--mmax", "1"],
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
], ids=["spectrum-k", "perturb-mmax", "eigenstate-jmax", "rwa-compare-k",
        "eigenstate-count", "dynamics-fock", "perturb-ncut",
        "dynamics-tmax-nan", "dynamics-tmax-inf", "dynamics-alpha-nan",
        "spectrum-stop-nan", "spectrum-step-nan", "spectrum-not-a-number",
        "dynamics-omega-f-0",
        "dynamics-omega-f-negative", "dynamics-omega-f-nan",
        "rwa-compare-omega-f-0", "rwa-compare-omega-f-negative",
        "rwa-compare-omega-f-nan", "eigenstate-count-0",
        "eigenstate-count-negative"])
def test_out_of_range_input_exits_2(argv, tmp_path, capsys):
    # the flags of argv come last, so they win over the defaults here
    code = run(argv[:1] + ["--g1", "0.3", "--g2", "0.4", "--nmax", "20",
                           "--out", str(tmp_path / "x.csv")] + argv[1:])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not (tmp_path / "x.csv").exists()


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
    from rabi2q import eigenstates
    calls = []

    def counting(name, fn):
        return lambda h: calls.append(name) or fn(h)

    monkeypatch.setattr(cli, "eigh", counting("cli", cli.eigh))
    monkeypatch.setattr(eigenstates, "eigh",
                        counting("eigenstates", eigenstates.eigh))
    assert run(["eigenstate", "--omega1", "1.3", "--omega2", "0.7",
                "--g1", "0.3", "--g2", "0.4", "--count", "3",
                "--nmax", "60", "--out", str(tmp_path / "e.csv")]) == 0
    assert calls == ["cli", "cli"]


def test_spectrum_has_no_jobs_flag():
    with pytest.raises(SystemExit) as info:
        run(["spectrum", "--jobs", "2"])
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
    # eigenstate run that the refiner and the Bargmann gather do
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
from rabi2q.cli import main

out = sys.argv[1]
common = ["--omega1", "1.3", "--omega2", "0.7", "--g1", "0.3", "--g2", "0.4"]
commands = [
    ["dynamics", "--alpha", "1", "--nmax", "20", "--tmax", "2",
     "--steps", "4"],
    ["dynamics", "--alpha", "1", "--nmax", "20", "--tmax", "2",
     "--steps", "4", "--engine", "rwa"],
    ["perturb", "--mmax", "2"],
    ["rwa-compare", "--k", "4", "--nmax", "20"],
    ["eigenstate", "--bargmann", "--count", "2", "--nmax", "40",
     "--jmax", "40"],
]
for i, argv in enumerate(commands):
    assert main(argv + common + ["--out", f"{out}/{i}.csv"]) == 0, argv
assert "scipy" not in sys.modules
# the probe can see an import: the sweep loads scipy
assert main(["spectrum", "--nmax", "30", "--k", "2"] + common
            + ["--out", f"{out}/spectrum.csv"]) == 0
assert "scipy" in sys.modules
"""


def _run_probe(*args):
    env = dict(os.environ)
    src = str(Path(rabi2q.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", *args],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_commands_without_a_sweep_do_not_import_scipy(tmp_path):
    # scipy costs about 0.3 s and 23 MB at import; only the banded
    # eigensolver of the sweep may load it
    _run_probe(_IMPORT_PROBE, str(tmp_path))


def test_importing_the_cli_does_not_import_scipy():
    # the scipy imports sit inside the banded kernels, so a command's
    # setup does not pay for them
    _run_probe("import sys, rabi2q.cli; assert 'scipy' not in sys.modules")
