"""Command-line front end.

Commands: spectrum, dynamics, perturb, rwa-compare, eigenstate.  All physics
parameters arrive via flags (or an optional key=value config file; flags
win), energies are in units of the field frequency, and every CSV starts
with a comment line carrying the tool version, the command and a hash of the
resolved configuration so identical configs produce byte-identical files.
``main`` builds the parser of the one command it runs (``build_parser``,
from the ``COMMANDS`` table); ``--help``, ``--version`` and a missing or
unknown command get the parser of all five.  No command solves a chain
itself: ``eigenstate`` makes one ``eigenstates.eigenstates_by_parity``
call for all its parities, which also checks ``--count``, and one
``eigenstates.bargmann_residuals`` call, its series as long as the
recurrence states' cut (at least 8 amplitudes).

Exit codes: 0 success, 2 configuration error (a ConfigError, raised by the
front end and by the input checks of the library, or a configuration too
large to allocate), 3 numerical/truncation failure, also when
``eigenstate`` has written rows whose recurrence or Bargmann residual
exceeds ``eigenstates.RECURRENCE_RESIDUAL_TOL`` or is nan (a cluster member
the recurrence cannot resolve).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import math
import sys

import numpy as np

from . import __version__, dynamics, eigenstates, spectra
from ._svg import Panel, Series, render
from .errors import ConfigError, Rabi2qError
from .model import ModelParams, Parity, QubitLevel, TruncationConfig

EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL = 0, 2, 3


def _fmt(value) -> str:
    if isinstance(value, float):
        # a signed zero, such as the entropy -(1 ln 1) of a pure state, is
        # written 0
        return f"{value:.12g}" if value else "0"
    return str(value)


def _config_hash(resolved: dict) -> str:
    skip = {"out", "svg", "config", "func"}
    parts = [f"{k}={_fmt(v)}" for k, v in sorted(resolved.items())
             if k not in skip and v is not None]
    digest = hashlib.sha256(";".join(parts).encode()).hexdigest()
    return digest[:12]


def _write_csv(path, command, cfg_hash, header, rows):
    """Write each row as it is formatted: rows may be a generator."""
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8", newline="\n")) as fh:
        fh.write(f"# rabi2q {__version__} {command} {cfg_hash}\n"
                 + ",".join(header) + "\n")
        fh.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)


def _parse_range(text: str) -> np.ndarray:
    """Coupling value or start:stop:step range."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ConfigError(f"expected VALUE or START:STOP:STEP, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"expected numbers in {text!r}") from exc
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"coupling values must be finite, got {text!r}")
    if len(values) == 1:
        return np.array(values)
    start, stop, step = values
    if stop < start:
        raise ConfigError("range STOP must be >= START")
    if stop == start:
        return np.array([start])
    if step <= 0:
        raise ConfigError("range STEP must be positive")
    # the last point is at most STOP, give or take rounding in the ratio
    count = math.floor((stop - start) / step + 1e-9) + 1
    return np.round(start + step * np.arange(count), 12)


_QUBITS = {"g": QubitLevel.G, "e": QubitLevel.E}


def _parse_qubits(text: str):
    if len(text) != 2 or any(c not in _QUBITS for c in text):
        raise ConfigError(f"--qubits must be two of 'g'/'e', got {text!r}")
    return _QUBITS[text[0]], _QUBITS[text[1]]


def _add_common(parser: argparse.ArgumentParser, couplings: str = "value"):
    parser.add_argument("--omega1", type=float, default=1.0,
                        help="qubit-1 frequency in units of omega_f")
    parser.add_argument("--omega2", type=float, default=1.0,
                        help="qubit-2 frequency in units of omega_f")
    if couplings == "range":
        parser.add_argument("--g1", type=str, default="0",
                            help="coupling 1: VALUE or START:STOP:STEP")
        parser.add_argument("--g2", type=str, default="0",
                            help="coupling 2: VALUE or START:STOP:STEP")
        parser.add_argument("--lock", type=str, default=None,
                            help="tie couplings together: g2=g1 or g1=g2")
    else:
        parser.add_argument("--g1", type=float, default=0.0)
        parser.add_argument("--g2", type=float, default=0.0)
    parser.add_argument("--omega-f", type=float, default=1.0, dest="omega_f",
                        help="display unit: energies are multiplied by this "
                             "on output (internal computations are unitless)")
    parser.add_argument("--nmax", type=int, default=300,
                        help="photon-number cutoff")
    parser.add_argument("--config", type=str, default=None,
                        help="key=value file with defaults; flags win")
    parser.add_argument("--out", type=str, default=None,
                        help="CSV output path (stdout if omitted)")
    parser.add_argument("--svg", type=str, default=None,
                        help="optional SVG plot path")
    parser.add_argument("--seed", type=str, default=None,
                        help=argparse.SUPPRESS)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    g1 = _parse_range(args.g1)
    g2 = _parse_range(args.g2)
    if args.lock:
        lock = args.lock.replace(" ", "")
        if lock == "g2=g1":
            g2 = g1
        elif lock == "g1=g2":
            g1 = g2
        else:
            raise ConfigError("--lock accepts g2=g1 or g1=g2")
    if len(g1) != len(g2):
        if len(g1) == 1:
            g1 = np.full_like(g2, g1[0])
        elif len(g2) == 1:
            g2 = np.full_like(g1, g2[0])
        else:
            raise ConfigError("g1 and g2 ranges must have equal length")
    spectra.check_crossing_tolerances(args.gap_tol, args.overlap_tol)
    template = ModelParams(args.omega1, args.omega2, 0.0, 0.0)
    sweep = spectra.sweep_spectrum(template, g1, g2,
                                   TruncationConfig(args.nmax), args.k)
    crossing_rows = []
    for parity in (Parity.EVEN, Parity.ODD):
        for rec in spectra.detect_crossings(sweep, parity, args.gap_tol,
                                            args.overlap_tol):
            crossing_rows.append((rec.parity.value, rec.branch_lo,
                                  rec.g_lo, rec.g_hi, rec.kind.value))
    cfg_hash = _config_hash(vars(args))
    w = args.omega_f
    rows = []
    for i in range(sweep.n_points):
        for parity in (Parity.EVEN, Parity.ODD):
            for branch in range(args.k):
                rows.append((float(g1[i]), float(g2[i]), parity.value,
                             branch,
                             float(sweep.energies[parity][i, branch]) * w))
    _write_csv(args.out, "spectrum", cfg_hash,
               ("g1", "g2", "parity", "branch", "energy"), rows)

    sibling = (args.out.removesuffix(".csv") + ".crossings.csv"
               if args.out and args.out.endswith(".csv")
               else (args.out + ".crossings" if args.out else None))
    _write_csv(sibling, "spectrum-crossings", cfg_hash,
               ("parity", "branch_lo", "g_lo", "g_hi", "kind"),
               crossing_rows)

    if args.svg:
        panel = Panel(title="parity-resolved spectrum",
                      xlabel="g / omega_f", ylabel="E / omega_f")
        colors = {Parity.EVEN: "#d62728", Parity.ODD: "#1f77b4"}
        dashes = {Parity.EVEN: "", Parity.ODD: "4,3"}
        axis = sweep.primary_values
        for parity in (Parity.EVEN, Parity.ODD):
            for branch in range(args.k):
                panel.series.append(Series(
                    axis, sweep.energies[parity][:, branch] * w,
                    colors[parity], dashes[parity],
                    parity.value if branch == 0 else ""))
        render([panel], args.svg, panel_size=(640, 480), columns=1)
    return EXIT_OK


def _initial_state(args, trunc):
    q1, q2 = _parse_qubits(args.qubits)
    if args.fock is not None and args.alpha is not None:
        raise ConfigError("give either --alpha or --fock, not both")
    if args.fock is not None:
        field = int(args.fock)
    else:
        alpha = args.alpha if args.alpha is not None else 0.0
        if not math.isfinite(alpha):
            raise ConfigError("--alpha must be finite")
        field = ("coherent", float(alpha))
    return dynamics.decompose_initial_state(field, q1, q2, trunc)


def cmd_dynamics(args) -> int:
    params = ModelParams(args.omega1, args.omega2, args.g1, args.g2)
    trunc = TruncationConfig(args.nmax)
    if args.steps < 1 or not 0 < args.tmax < math.inf:
        raise ConfigError("--steps must be >= 1 and --tmax positive and "
                          "finite")
    times = np.linspace(0.0, args.tmax, args.steps + 1)
    state = _initial_state(args, trunc)
    if args.engine == "full":
        traj = dynamics.evolve_parity(state, params, times)
    else:
        traj = dynamics.evolve_rwa_closed_form(state, params, times)
    cfg_hash = _config_hash(vars(args))
    w = args.omega_f
    rows = zip(traj.times / w, traj.mean_n, traj.s_z, traj.entropy,
               traj.concurrence)
    _write_csv(args.out, "dynamics", cfg_hash,
               ("t", "mean_n", "s_z", "entropy", "concurrence"), rows)
    if args.svg:
        panels = []
        for name, data in (("mean photon number", traj.mean_n),
                           ("population inversion", traj.s_z),
                           ("von Neumann entropy", traj.entropy),
                           ("concurrence", traj.concurrence)):
            panels.append(Panel([Series(traj.times / w, data, "#1f77b4")],
                                title=name, xlabel="t * omega_f"))
        render(panels, args.svg)
    return EXIT_OK


def cmd_perturb(args) -> int:
    params = ModelParams(args.omega1, args.omega2, args.g1, args.g2)
    spectrum = spectra.dsc_perturbative_spectrum(params, args.mmax)
    if spectrum.resonant:
        for branch, m, n in spectrum.resonant:
            print(f"perturb: branch {branch}, m={m} skipped "
                  f"(near-resonant denominator at intermediate level n={n})",
                  file=sys.stderr)
    w = args.omega_f
    rows = []
    with np.errstate(over="ignore"):
        for m in range(args.mmax + 1):
            for branch, zeroth, shift in ((1, spectrum.branch1_zeroth,
                                           spectrum.branch1_shift),
                                          (2, spectrum.branch2_zeroth,
                                           spectrum.branch2_shift)):
                if np.isnan(shift[m]):
                    continue
                rows.append((m, branch, zeroth[m] * w, -shift[m] * w,
                             (zeroth[m] - shift[m]) * w))
    if not np.isfinite([row[2:] for row in rows]).all():
        raise ConfigError("perturbative energies in units of --omega-f "
                          "pass the float range")
    cfg_hash = _config_hash(vars(args))
    _write_csv(args.out, "perturb", cfg_hash,
               ("m", "branch", "energy_zeroth", "correction_second",
                "energy_total"), rows)
    return EXIT_OK


def cmd_rwa_compare(args) -> int:
    params = ModelParams(args.omega1, args.omega2, args.g1, args.g2)
    report = spectra.rwa_relative_error(params, TruncationConfig(args.nmax),
                                        args.k)
    w = args.omega_f
    rows = [(i, report.e_full[i] * w, report.e_rwa[i] * w, report.errors[i])
            for i in range(args.k)]
    rows.append(("mean", "", "", report.mean_error))
    rows.append(("ground", "", "", report.ground_error))
    cfg_hash = _config_hash(vars(args))
    _write_csv(args.out, "rwa-compare", cfg_hash,
               ("index", "e_full", "e_rwa", "rel_error"), rows)
    return EXIT_OK


def cmd_eigenstate(args) -> int:
    params = ModelParams(args.omega1, args.omega2, args.g1, args.g2)
    parities = ([Parity.EVEN, Parity.ODD] if args.parity == "both"
                else [Parity.EVEN if args.parity == "even" else Parity.ODD])
    found = eigenstates.eigenstates_by_parity(params, parities, args.count,
                                              args.nmax)
    rows = []
    for parity in parities:
        states = found[parity]
        res = eigenstates.chain_residual(
            params, parity, np.array([state.xi for state in states]),
            np.column_stack([state.v for state in states]))
        rows += [(parity.value, index, state.xi * args.omega_f, float(r), "")
                 for index, (state, r) in enumerate(zip(states, res))]
    if args.bargmann:
        levels = [(parity, state.xi) for parity in parities
                  for state in found[parity]]
        for i, res in enumerate(eigenstates.bargmann_residuals(
                params, levels, max(8, found[parities[0]][0].cut),
                args.nmax)):
            if isinstance(res, Rabi2qError):
                print(f"eigenstate: bargmann route unavailable for "
                      f"{rows[i][0]} #{rows[i][1]}: {res}", file=sys.stderr)
            else:
                rows[i] = (*rows[i][:4], res)
    cfg_hash = _config_hash(vars(args))
    _write_csv(args.out, "eigenstate", cfg_hash,
               ("parity", "index", "energy", "residual_recurrence",
                "residual_bargmann"), rows)
    # an empty Bargmann cell (route unavailable) is not judged
    tol = eigenstates.RECURRENCE_RESIDUAL_TOL
    loose = [(parity, index, route, res)
             for parity, index, _, *cells in rows
             for route, res in zip(("recurrence", "bargmann"), cells)
             if res != "" and not res <= tol]
    for parity, index, route, res in loose:
        print(f"eigenstate: {parity} #{index} {route} residual {res:.3g} "
              f"exceeds {tol:g}", file=sys.stderr)
    if loose:
        print(f"error: {len(loose)} residuals of {len(rows)} states exceed "
              f"{tol:g}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def _spectrum_args(parser):
    _add_common(parser, couplings="range")
    parser.add_argument("--k", type=int, default=20,
                        help="branches per parity")
    parser.add_argument("--gap-tol", type=float, default=0.05,
                        dest="gap_tol")
    parser.add_argument("--overlap-tol", type=float, default=0.2,
                        dest="overlap_tol")


def _dynamics_args(parser):
    _add_common(parser)
    parser.add_argument("--alpha", type=float, default=None,
                        help="coherent field amplitude")
    parser.add_argument("--fock", type=int, default=None,
                        help="Fock occupation (alternative to --alpha)")
    parser.add_argument("--qubits", type=str, default="gg",
                        help="initial qubit pair, e.g. gg, eg")
    parser.add_argument("--tmax", type=float, default=100.0,
                        help="final time in units of 1/omega_f")
    parser.add_argument("--steps", type=int, default=1000)
    parser.add_argument("--engine", choices=("full", "rwa"), default="full")


def _perturb_args(parser):
    _add_common(parser)
    parser.add_argument("--mmax", type=int, default=11,
                        help="highest branch index")


def _rwa_compare_args(parser):
    _add_common(parser)
    parser.add_argument("--k", type=int, default=20)


def _eigenstate_args(parser):
    _add_common(parser)
    parser.add_argument("--parity", choices=("even", "odd", "both"),
                        default="both")
    parser.add_argument("--count", type=int, default=5,
                        help="number of lowest states per parity")
    parser.add_argument("--bargmann", action="store_true",
                        help="also report Bargmann reconstruction residuals")


# command -> (help, the function that adds its arguments, the command)
COMMANDS = {
    "spectrum": ("parity-resolved coupling sweep", _spectrum_args,
                 cmd_spectrum),
    "dynamics": ("time evolution of observables", _dynamics_args,
                 cmd_dynamics),
    "perturb": ("deep-strong-coupling perturbative branches", _perturb_args,
                cmd_perturb),
    "rwa-compare": ("RWA vs full spectrum relative errors", _rwa_compare_args,
                    cmd_rwa_compare),
    "eigenstate": ("recurrence eigenstates and their residuals",
                   _eigenstate_args, cmd_eigenstate),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of command alone, or of every command when None."""
    parser = argparse.ArgumentParser(
        prog="rabi2q",
        description="Two-qubit quantum Rabi model: spectra, eigenstates "
                    "and entanglement dynamics")
    parser.add_argument("--version", action="version",
                        version=f"rabi2q {__version__}")
    # the usage line of one command's parser names every command, as the
    # full parser's does, so that an unknown flag's error reads the same
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(COMMANDS) + "}")
    for name in COMMANDS if command is None else [command]:
        help_text, add_arguments, func = COMMANDS[name]
        command_parser = sub.add_parser(name, help=help_text)
        add_arguments(command_parser)
        command_parser.set_defaults(func=func)
    return parser


def _config_flags(path: str) -> list[str]:
    """The key=value entries of a config file as command-line flags."""
    flags = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"config line {line!r} is not "
                                      f"key=value")
                key, value = line.split("=", 1)
                flags.extend([f"--{key.strip().replace('_', '-')}",
                              value.strip()])
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return flags


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        # --help, --version or no known command: the full parser
        parser = build_parser(argv[0] if argv and argv[0] in COMMANDS
                              else None)
        args = parser.parse_args(argv)
        if args.config is not None:
            # the file's flags go right after the subcommand, so explicit
            # flags (later) win
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_flags(args.config)
                                     + argv[at:])
        if args.seed is not None:
            raise ConfigError("--seed is rejected: this tool is "
                              "deterministic and accepts no random seed")
        if not 0 < args.omega_f < math.inf:
            raise ConfigError("--omega-f must be positive and finite")
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: the configuration is too large to allocate{detail}",
              file=sys.stderr)
        return EXIT_CONFIG
    except Rabi2qError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
