"""Independent checks of the rabi2q CLI outputs.

Nothing here imports rabi2q.  The references are built from scratch:

- the Hamiltonian from Kronecker products of the field and qubit operators,
  split by the parity operator (-1)^n sz1 sz2 and diagonalized with
  ``scipy.linalg.eigh``;
- the free (g = 0) spectrum in closed form;
- time evolution with ``scipy.sparse.linalg.expm_multiply``, with an own
  partial trace, von Neumann entropy and Wootters concurrence;
- the RWA spectrum from the 4x4 excitation-sector blocks.

Every check returns a list of problems (empty when the output passes).
Tolerances are absolute and sit below 1e-6, so one value shifted by 1e-6
is rejected; the CSVs carry 12 significant digits.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply
from scipy.special import gammaln

ENERGY_TOL = 1e-9          # eigenvalues against a dense reference
OBSERVABLE_TOL = 1e-7      # dynamics observables against expm_multiply
RECURRENCE_RESIDUAL_MAX = 1e-6
BARGMANN_RESIDUAL_MAX = 1e-4
DSC_BRANCH_TOL = 0.05
DSC_REFERENCE_NMAX = 400

# qubit basis order (e, g): sz = diag(+1, -1)
_SZ = np.diag([1.0, -1.0])
_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SPLUS = np.array([[0.0, 1.0], [0.0, 0.0]])     # |e><g|
_I2 = np.eye(2)
_SY_SY = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))


# ---------------------------------------------------------------------------
# CSV reading
# ---------------------------------------------------------------------------

def read_csv(path):
    """(comment line, column names, rows of strings) of a rabi2q CSV."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2 or not lines[0].startswith("# rabi2q "):
        raise ValueError(f"{path}: missing rabi2q header line")
    return lines[0], lines[1].split(","), [ln.split(",") for ln in lines[2:]]


def csv_body(path) -> bytes:
    """File bytes without the first (comment) line."""
    with open(path, "rb") as fh:
        data = fh.read()
    return data.split(b"\n", 1)[1] if b"\n" in data else b""


def _columns(path, expected):
    _, names, rows = read_csv(path)
    if names != list(expected):
        raise ValueError(f"{path}: columns {names}, expected {expected}")
    return rows


# ---------------------------------------------------------------------------
# reference physics
# ---------------------------------------------------------------------------

def _field_ops(n_max):
    n = np.arange(n_max + 1, dtype=float)
    a = sp.diags(np.sqrt(n[1:]), 1, format="csr")
    return sp.diags(n, format="csr"), a


def hamiltonian(omega1, omega2, g1, g2, n_max, rwa=False):
    """Sparse H on |n> x |q1> x |q2>, qubit order (e, g), omega_f = 1."""
    num, a = _field_ops(n_max)
    eye_f = sp.identity(n_max + 1, format="csr")

    def k3(f, q1, q2):
        return sp.kron(f, sp.kron(sp.csr_matrix(q1), sp.csr_matrix(q2)))

    h = (k3(num, _I2, _I2) + 0.5 * omega1 * k3(eye_f, _SZ, _I2)
         + 0.5 * omega2 * k3(eye_f, _I2, _SZ))
    if rwa:
        for g, (q1p, q2p) in ((g1, (_SPLUS, _I2)), (g2, (_I2, _SPLUS))):
            term = k3(a, q1p, q2p)
            h = h + g * (term + term.T)
    else:
        x = a + a.T
        h = h + k3(x, g1 * _SX, _I2) + k3(x, _I2, g2 * _SX)
    return h.tocsr()


def parity_diagonal(n_max):
    """+1/-1 eigenvalues of (-1)^n sz1 sz2 in the product basis."""
    field = (-1.0) ** np.arange(n_max + 1)
    return np.kron(field, np.kron(np.diag(_SZ), np.diag(_SZ)))


def parity_levels(omega1, omega2, g1, g2, n_max, count):
    """{"even": lowest count eigenvalues, "odd": ...} from dense blocks."""
    h = hamiltonian(omega1, omega2, g1, g2, n_max).toarray()
    par = parity_diagonal(n_max)
    out = {}
    for name, sign in (("even", 1.0), ("odd", -1.0)):
        idx = np.nonzero(par == sign)[0]
        out[name] = scipy.linalg.eigh(h[np.ix_(idx, idx)], eigvals_only=True,
                                      subset_by_index=[0, count - 1])
    return out


def free_levels(omega1, omega2, n_max, count):
    """Closed-form g = 0 spectrum n + (s1 w1 + s2 w2)/2 of each parity."""
    out = {"even": [], "odd": []}
    for n in range(n_max + 1):
        for s1 in (1, -1):
            for s2 in (1, -1):
                name = "even" if s1 * s2 * (-1) ** n == 1 else "odd"
                out[name].append(n + 0.5 * (s1 * omega1 + s2 * omega2))
    return {k: np.sort(v)[:count] for k, v in out.items()}


def rwa_sector_levels(omega1, omega2, g1, g2, n_sectors, count):
    """Lowest count RWA eigenvalues from the excitation-sector blocks.

    Sector N spans |N-2,ee>, |N-1,eg>, |N-1,ge>, |N,gg> (rows with negative
    photon number dropped); energies in the lab frame.
    """
    values = []
    for n_exc in range(n_sectors):
        photons = (n_exc - 2, n_exc - 1, n_exc - 1, n_exc)
        sz = ((1, 1), (1, -1), (-1, 1), (-1, -1))
        m = np.diag([p + 0.5 * (s1 * omega1 + s2 * omega2)
                     for p, (s1, s2) in zip(photons, sz)])
        s, t = math.sqrt(max(n_exc - 1, 0)), math.sqrt(n_exc)
        m[0, 1] = m[1, 0] = g2 * s
        m[0, 2] = m[2, 0] = g1 * s
        m[1, 3] = m[3, 1] = g1 * t
        m[2, 3] = m[3, 2] = g2 * t
        keep = [i for i, p in enumerate(photons) if p >= 0]
        values.extend(np.linalg.eigvalsh(m[np.ix_(keep, keep)]))
    return np.sort(values)[:count]


def coherent_ground_state(alpha, n_max):
    """|alpha> x |g> x |g>, truncated at n_max and renormalized."""
    n = np.arange(n_max + 1)
    amp = np.exp(n * math.log(alpha) - 0.5 * alpha ** 2 - 0.5 * gammaln(n + 1))
    amp /= np.linalg.norm(amp)
    return np.kron(amp, np.kron([0.0, 1.0], [0.0, 1.0])).astype(complex)


def two_qubit_observables(psi, n_max):
    """mean_n, s_z, entropy (nats) and Wootters concurrence of psi."""
    amps = psi.reshape(n_max + 1, 4)
    prob = np.abs(amps) ** 2
    mean_n = float(np.arange(n_max + 1) @ prob.sum(axis=1))
    s_z = float(prob.sum(axis=0) @ np.array([1.0, 0.0, 0.0, -1.0]))
    rho = amps.T @ amps.conj()                  # trace over the field
    lam = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    lam = lam[lam > 0]
    entropy = float(-np.sum(lam * np.log(lam)))
    flipped = _SY_SY @ rho.conj() @ _SY_SY
    r = np.sqrt(np.clip(np.sort(np.linalg.eigvals(rho @ flipped).real)[::-1],
                        0.0, None))
    conc = float(max(0.0, r[0] - r[1] - r[2] - r[3]))
    return mean_n, s_z, entropy, conc


def reference_trajectory(cfg, indices):
    """Observables at the given output-time indices, by expm_multiply."""
    times = np.linspace(0.0, cfg["tmax"], cfg["steps"] + 1)
    h = hamiltonian(cfg["omega1"], cfg["omega2"], cfg["g1"], cfg["g2"],
                    cfg["nmax"], rwa=cfg["engine"] == "rwa")
    psi = coherent_ground_state(cfg["alpha"], cfg["nmax"])
    out, t_now = {}, 0.0
    for i in sorted(indices):
        if times[i] > t_now:
            psi = expm_multiply(-1j * (times[i] - t_now) * h, psi)
            t_now = times[i]
        out[i] = two_qubit_observables(psi, cfg["nmax"])
    return out


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _compare(label, got, want, tol):
    got, want = np.asarray(got, float), np.asarray(want, float)
    if got.shape != want.shape:
        return [f"{label}: {got.shape[0]} values, expected {want.shape[0]}"]
    err = np.abs(got - want)
    bad = np.nonzero(~(err <= tol))[0]
    if bad.size:
        i = int(bad[0])
        return [f"{label}: {len(bad)} values off, first at {i}: "
                f"{got[i]!r} vs reference {want[i]!r}"]
    return []


def grid(spec: str) -> np.ndarray:
    start, stop, step = (float(p) for p in spec.split(":"))
    return np.round(start + step * np.arange(round((stop - start) / step) + 1),
                    12)


def check_spectrum(csv_path, crossings_path, svg_path, cfg, points):
    """Sweep CSV against the free spectrum at g = 0 and against dense
    parity-block references at the chosen sweep points."""
    rows = _columns(csv_path, ("g1", "g2", "parity", "branch", "energy"))
    g, k = grid(cfg["g"]), cfg["k"]
    problems = []
    if len(rows) != len(g) * 2 * k:
        return [f"spectrum: {len(rows)} rows, expected {len(g) * 2 * k}"]
    energy = {"even": np.empty((len(g), k)), "odd": np.empty((len(g), k))}
    for r, (g1, g2, parity, branch, e) in enumerate(rows):
        i = r // (2 * k)
        if float(g1) != g[i] or float(g2) != g[i]:
            return [f"spectrum: row {r} has g=({g1},{g2}), expected {g[i]}"]
        energy[parity][i, int(branch)] = float(e)
    for parity, e in energy.items():
        if np.any(np.diff(e, axis=1) < 0):
            problems.append(f"spectrum: {parity} branches not ascending")
    free = free_levels(cfg["omega1"], cfg["omega2"], cfg["nmax"], k)
    if g[0] == 0.0:
        for parity in energy:
            problems += _compare(f"spectrum g=0 {parity}",
                                 energy[parity][0], free[parity], ENERGY_TOL)
    for i in points:
        ref = parity_levels(cfg["omega1"], cfg["omega2"], g[i], g[i],
                            cfg["nmax"], k)
        for parity in energy:
            problems += _compare(f"spectrum g={g[i]} {parity}",
                                 energy[parity][i], ref[parity], ENERGY_TOL)
    crossings = _columns(crossings_path,
                         ("parity", "branch_lo", "g_lo", "g_hi", "kind"))
    if not any(r[0] == "even" and r[4] == "crossing" for r in crossings):
        problems.append("crossings: no even-parity crossing")
    try:
        root = ET.parse(svg_path).getroot()
    except ET.ParseError as exc:
        return problems + [f"svg: not well-formed: {exc}"]
    lines = [el for el in root.iter() if el.tag.endswith("polyline")]
    if len(lines) < 2 * k:
        problems.append(f"svg: {len(lines)} polylines, expected >= {2 * k}")
    return problems


def read_dynamics(path):
    rows = _columns(path, ("t", "mean_n", "s_z", "entropy", "concurrence"))
    return np.array(rows, dtype=float)


def check_dynamics(data, cfg, reference):
    """One dynamics CSV (as an array) against expm_multiply references at
    the chosen times and against properties that must hold."""
    problems = []
    times = np.linspace(0.0, cfg["tmax"], cfg["steps"] + 1)
    label = f"dynamics g=({cfg['g1']},{cfg['g2']}) {cfg['engine']}"
    if data.shape != (len(times), 5):
        return [f"{label}: shape {data.shape}, expected ({len(times)}, 5)"]
    problems += _compare(f"{label} t", data[:, 0], times, ENERGY_TOL)
    t0 = data[0]
    problems += _compare(f"{label} t=0 mean_n", [t0[1]],
                         [cfg["alpha"] ** 2], 1e-6)
    problems += _compare(f"{label} t=0 s_z, entropy, concurrence",
                         t0[2:], [-1.0, 0.0, 0.0], 1e-9)
    if np.any(data[:, 3] < -1e-12) or np.any(data[:, 3] > math.log(4) + 1e-12):
        problems.append(f"{label}: entropy outside [0, ln 4]")
    if np.any(data[:, 4] < 0.0) or np.any(data[:, 4] > 1.0):
        problems.append(f"{label}: concurrence outside [0, 1]")
    if cfg["engine"] == "rwa":
        excitation = data[:, 1] + data[:, 2]
        problems += _compare(f"{label} mean_n + s_z", excitation,
                             np.full_like(excitation, excitation[0]), 1e-9)
    for i, ref in sorted(reference.items()):
        problems += _compare(f"{label} t={times[i]:g}", data[i, 1:], ref,
                             OBSERVABLE_TOL)
    return problems


def check_concurrence_order(usc, dsc):
    """Deep-strong coupling entangles less than ultra-strong coupling."""
    if not dsc[:, 4].max() < usc[:, 4].max():
        return [f"dynamics: max concurrence {dsc[:, 4].max():.6g} at deep-"
                f"strong coupling is not below {usc[:, 4].max():.6g}"]
    return []


def check_eigenstate(csv_path, cfg):
    rows = _columns(csv_path, ("parity", "index", "energy",
                               "residual_recurrence", "residual_bargmann"))
    count = cfg["count"]
    ref = parity_levels(cfg["omega1"], cfg["omega2"], cfg["g1"], cfg["g2"],
                        cfg["nmax"], count)
    problems = []
    for parity in ("even", "odd"):
        mine = [r for r in rows if r[0] == parity]
        if [int(r[1]) for r in mine] != list(range(count)):
            problems.append(f"eigenstate: {parity} indices are not 0..{count - 1}")
            continue
        problems += _compare(f"eigenstate {parity} energy",
                             [float(r[2]) for r in mine], ref[parity],
                             ENERGY_TOL)
        for r in mine:
            if not float(r[3]) <= RECURRENCE_RESIDUAL_MAX:
                problems.append(f"eigenstate {parity} #{r[1]}: recurrence "
                                f"residual {r[3]} above 1e-6")
            if r[4] == "" or not float(r[4]) <= BARGMANN_RESIDUAL_MAX:
                problems.append(f"eigenstate {parity} #{r[1]}: Bargmann "
                                f"residual {r[4]!r} above 1e-4")
    if len(rows) != 2 * count:
        problems.append(f"eigenstate: {len(rows)} rows, expected {2 * count}")
    return problems


def check_perturb(csv_path, cfg):
    rows = _columns(csv_path, ("m", "branch", "energy_zeroth",
                               "correction_second", "energy_total"))
    g1, g2, mmax = cfg["g1"], cfg["g2"], cfg["mmax"]
    problems = []
    branch1 = {}
    for r in rows:
        m, branch = int(r[0]), int(r[1])
        zeroth, corr, total = (float(v) for v in r[2:])
        offset = (g1 + g2) ** 2 if branch == 1 else (g1 - g2) ** 2
        problems += _compare(f"perturb m={m} branch {branch} energy_zeroth",
                             [zeroth], [m - offset], ENERGY_TOL)
        problems += _compare(f"perturb m={m} branch {branch} energy_total",
                             [total], [zeroth + corr], ENERGY_TOL)
        if branch == 1:
            branch1[m] = total
    if sorted(branch1) != list(range(mmax + 1)):
        return problems + [f"perturb: branch 1 rows for m={sorted(branch1)}"]
    ref = parity_levels(cfg["omega1"], cfg["omega2"], g1, g2,
                        DSC_REFERENCE_NMAX, mmax + 1)
    got = [branch1[m] for m in range(mmax + 1)]
    for parity in ("even", "odd"):
        problems += _compare(f"perturb branch 1 vs {parity} levels", got,
                             ref[parity], DSC_BRANCH_TOL)
    return problems


def check_rwa_compare(csv_path, cfg):
    rows = _columns(csv_path, ("index", "e_full", "e_rwa", "rel_error"))
    k = cfg["k"]
    if len(rows) != k + 2 or [r[0] for r in rows[k:]] != ["mean", "ground"]:
        return [f"rwa-compare: expected {k} indexed rows then mean, ground"]
    data = np.array([r[1:] for r in rows[:k]], dtype=float)
    h = hamiltonian(cfg["omega1"], cfg["omega2"], cfg["g1"], cfg["g2"],
                    cfg["nmax"]).toarray()
    e_full = scipy.linalg.eigh(h, eigvals_only=True,
                               subset_by_index=[0, k - 1])
    e_rwa = rwa_sector_levels(cfg["omega1"], cfg["omega2"], cfg["g1"],
                              cfg["g2"], cfg["nmax"], k)
    errors = np.abs(e_rwa - e_full) / np.abs(e_full)
    problems = _compare("rwa-compare e_full", data[:, 0], e_full, ENERGY_TOL)
    problems += _compare("rwa-compare e_rwa", data[:, 1], e_rwa, ENERGY_TOL)
    problems += _compare("rwa-compare rel_error", data[:, 2], errors,
                         ENERGY_TOL)
    problems += _compare("rwa-compare mean, ground",
                         [float(rows[k][3]), float(rows[k + 1][3])],
                         [errors.mean(), errors[0]], ENERGY_TOL)
    return problems
