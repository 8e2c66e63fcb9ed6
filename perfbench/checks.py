"""Output checks whose references do not come from the code path being timed.

Every reference here is computed by the benchmark itself: the SSH matrix is
rebuilt from its definition, spectra come straight from LAPACK through
``numpy.linalg.eigvals`` (not through ``majorana_pt.spectral``), and the
census comes from the closed-form table of the paper.  Each ``check_*``
function returns ``None`` when the output is correct and a one-line reason
when it is not.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.optimize import linear_sum_assignment

#: Tolerances named in the benchmark's documentation (README.md).
BETHE_TOL = 1e-9
RING_TOL = 1e-10
ZERO_MODE_TOL = 1e-12


def expected_census(n: int, mu: float) -> tuple[int, int, int]:
    """Closed-form (n_I, n_EP, n_S) at the coalescence locus."""
    return (0, 1, n - 2) if mu > 1 else (2, 1, n - 4)


def gamma_at_locus(n: int, mu: float) -> float:
    return float(mu) ** (1 - n // 2)


def ssh_matrix(n: int, mu: float, gamma: float) -> np.ndarray:
    """The chain from its definition: bonds (1, mu, 1, mu, ...), ends +/- i gamma."""
    h = np.zeros((n, n), dtype=complex)
    bonds = np.where(np.arange(n - 1) % 2 == 0, 1.0, mu)
    h[np.arange(n - 1), np.arange(1, n)] = bonds
    h[np.arange(1, n), np.arange(n - 1)] = bonds
    h[0, 0] = 1j * gamma
    h[n - 1, n - 1] = -1j * gamma
    return h


def _coalesce_zeros(values: np.ndarray, count: int) -> np.ndarray:
    """Set the ``count`` smallest-modulus values to 0: the split EP pairs."""
    values = np.array(values, dtype=complex)
    values[np.argsort(np.abs(values))[:count]] = 0.0
    return values


def ssh_reference(n: int, mu: float) -> np.ndarray:
    """Dense spectrum of the chain at the locus, its EP pair coalesced to 0."""
    h = ssh_matrix(n, mu, gamma_at_locus(n, mu))
    return _coalesce_zeros(np.linalg.eigvals(h), 2)


def match_error(got, reference) -> float:
    """Largest relative distance ``|a - b| / max(1, |b|)`` of the best pairing."""
    got = np.asarray(got, dtype=complex)
    reference = np.asarray(reference, dtype=complex)
    if got.size != reference.size:
        return np.inf
    cost = np.abs(got[:, None] - reference[None, :]) / np.maximum(1.0, np.abs(reference))[None, :]
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max()) if got.size else 0.0


def _csv_rows(text: str) -> list[list[str]]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]


def check_census_csv(text: str, grid) -> str | None:
    """Census or sweep CSV rows against the closed form; ``grid`` is the requested (N, mu) set."""
    seen = set()
    for row in _csv_rows(text):
        n, mu, census = int(row[0]), float(row[1]), tuple(int(c) for c in row[3:6])
        seen.add((n, mu))
        if census != expected_census(n, mu):
            return f"census {census} != {expected_census(n, mu)} at N={n}, mu={mu}"
    if seen != set(grid):
        return f"rows cover {sorted(seen)}, requested {sorted(grid)}"
    return None


def check_spectrum_json(text: str, n: int, mu: float) -> str | None:
    payload = json.loads(text)
    c = payload["census"]
    census = (c["n_I"], c["n_EP"], c["n_S"])
    if len(payload["eigenvalues"]) != n:
        return f"{len(payload['eigenvalues'])} eigenvalues for N={n}"
    if census != expected_census(n, mu):
        return f"census {census} != {expected_census(n, mu)}"
    return None


def check_bethe_values(epsilons, reference: np.ndarray) -> str | None:
    """Quantization-root energies plus the second zero vs the dense spectrum."""
    err = match_error(list(epsilons) + [0.0], reference)
    if not err <= BETHE_TOL:
        return f"roots vs dense spectrum {err:.3e} > {BETHE_TOL}"
    return None


def check_bethe_json(text: str, reference: np.ndarray) -> str | None:
    roots = json.loads(text)["roots"]
    return check_bethe_values([complex(*r["epsilon"]) for r in roots], reference)


def check_zero_mode_csv(text: str, n: int, mu: float) -> str | None:
    amps = np.array([complex(float(r[1]), float(r[2])) for r in _csv_rows(text)])
    if amps.size != n:
        return f"{amps.size} amplitudes for N={n}"
    h = ssh_matrix(n, mu, gamma_at_locus(n, mu))
    residual = float(np.max(np.abs(h @ amps)))
    bound = ZERO_MODE_TOL * float(np.max(np.abs(h).sum(axis=1)))
    if not residual <= bound:
        return f"|h psi| {residual:.3e} > {bound:.3e}"
    return None


def check_ring(eigenvalues, reference: np.ndarray) -> str | None:
    """Ring spectrum / (1/2) vs the union of the two SSH spectra (h and h^dagger)."""
    union = np.concatenate([reference, reference.conj()])
    err = match_error(_coalesce_zeros(2.0 * np.asarray(eigenvalues), 4), union)
    if not err <= RING_TOL:
        return f"ring spectrum vs SSH union {err:.3e} > {RING_TOL}"
    return None
