"""Physics-level claims assembled from the builders and solvers.

* :func:`dirac_distribution` -- site-resolved amplitude profile P(j) of a
  wavefunction (the quantity plotted when comparing chain sizes).
* :func:`common_part_compare` -- the finite-size projection property: zero
  modes of different chain lengths share their edge profiles, up to the
  length dependence of the normalization constant.
* :func:`census_sweep` -- (n, mu) parameter sweep of the mode census, one
  real solve per point (:func:`~.spectral.chain_eigensystem`); for long
  enough chains the derived edge-mode count jumps at mu = 1, the phase
  boundary of the underlying Hermitian chain (see :func:`edge_mode_count`).
* :func:`gap_bound_check` -- scattering eigenvalues stay inside the band
  ``|1 - mu| <= |eps| <= 1 + mu``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bethe
from .model import gamma_ep, _require_even_sites
from .spectral import (
    Classification,
    ModeCensus,
    chain_eigensystem,
    classify_modes,
    eig,  # noqa: F401 - unused; perfbench's tracer test reads it until ROADMAP item 1
)

__all__ = [
    "SweepPoint",
    "dirac_distribution",
    "common_part_compare",
    "gap_bound_check",
    "census_sweep",
    "edge_mode_count",
]


def dirac_distribution(wavefunction) -> np.ndarray:
    """Site-resolved amplitude moduli P(j) = |<j|psi>| of a unit vector.

    Accepts a :class:`~.bethe.ZeroModeWavefunction` or a plain vector.
    The input must be Dirac-normalized; the squared profile then sums to 1.
    """
    if isinstance(wavefunction, bethe.ZeroModeWavefunction):
        amps = wavefunction.amplitudes
    else:
        amps = np.asarray(wavefunction, dtype=complex)
    norm = np.linalg.norm(amps)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"wavefunction is not Dirac-normalized (norm {norm})")
    return np.abs(amps)


def common_part_compare(n_small: int, n_large: int, mu: float) -> float:
    """Largest profile deviation between zero modes of two chain sizes.

    The left halves are compared site by site on the odd sublattice
    (j = 1, 3, ...) and the right edges at equal distance from the right
    end, matching the nesting of the profiles.  The amplitude pattern is
    size-independent, so the whole deviation comes from the normalization
    constant and decays like mu**(-n_small) for mu > 1.
    """
    _require_even_sites(n_small)
    _require_even_sites(n_large)
    if n_small > n_large:
        raise ValueError("expected n_small <= n_large")
    if mu <= 1:
        raise ValueError("the shared-profile comparison applies for mu > 1")
    p_small = dirac_distribution(bethe.zero_mode(n_small, mu))
    p_large = dirac_distribution(bethe.zero_mode(n_large, mu))
    deviation = 0.0
    for j in range(1, n_small + 1, 2):
        deviation = max(deviation, abs(p_small[j - 1] - p_large[j - 1]))
        deviation = max(
            deviation, abs(p_small[n_small - j] - p_large[n_large - j])
        )
    return float(deviation)


#: Absolute slack of :func:`gap_bound_check` at both band edges.
GAP_TOLERANCE = 1e-10


def gap_bound_check(modes: Classification, mu: float) -> bool:
    """True when every real scattering level of a classified chain ``modes``
    lies inside the band.

    The dispersion confines scattering eigenvalues to
    ``|1 - mu| <= |eps| <= 1 + mu``, up to ``GAP_TOLERANCE``; the lower
    edge is the protected gap.  ``|eps|`` is taken by ``np.hypot``, bit for
    bit Python's ``abs(complex)``.
    """
    values = modes.es.eigenvalues[modes.real]
    moduli = np.hypot(values.real, values.imag)
    return not np.any((moduli < abs(1.0 - mu) - GAP_TOLERANCE)
                      | (moduli > 1.0 + mu + GAP_TOLERANCE))


def edge_mode_count(census: ModeCensus, mu: float) -> int:
    """Derived edge-mode count: 2 n_EP for mu > 1, 2 n_EP + n_I for mu < 1.

    Counts the coalescing pair as two states and, below the phase boundary,
    adds the imaginary evanescent pair.  The count jumps from 2 to 4 across
    mu = 1 only for chains of at least N*(mu) sites: a shorter mu < 1 chain
    has no imaginary pair and counts 2, as at (6, 0.9), whose census is
    (0, 1, 4).
    """
    if mu > 1:
        return 2 * census.n_EP
    return 2 * census.n_EP + census.n_I


@dataclass(frozen=True)
class SweepPoint:
    n: int
    mu: float
    gamma: float
    census: ModeCensus
    edge_modes: int


def census_sweep(n_list, mu_list) -> list[SweepPoint]:
    """Mode census over a grid of chain lengths and couplings.

    Every grid point is solved at its own coalescence coupling
    ``gamma_ep(mu, n)``, in row-major grid order, by one real solve
    (:func:`~.spectral.chain_eigensystem`) and classified by
    :func:`~.spectral.classify_modes`, as ``spectrum`` does.  Each ``n``
    must be a Python or NumPy integer: a float is refused, not truncated.  A
    failure at any point (a refused zero pair, a residual over its bound) is
    re-raised with the offending (n, mu) prefixed to its message and its
    type kept.
    """
    n_list = list(n_list)
    for n in n_list:
        _require_even_sites(n)
    n_list = [int(n) for n in n_list]
    mu_list = [float(mu) for mu in mu_list]
    for mu in mu_list:
        if mu <= 0 or mu == 1.0:
            raise ValueError(f"sweep requires mu > 0 and mu != 1, got {mu}")
    points = []
    for n in n_list:
        for mu in mu_list:
            try:
                gamma = gamma_ep(mu, n)
                census = classify_modes(chain_eigensystem(n, mu, gamma), mu, gamma).census
            except (ValueError, RuntimeError) as exc:
                exc.args = (f"sweep failed at (n={n}, mu={mu}): {exc}",)
                raise
            points.append(SweepPoint(n=n, mu=mu, gamma=gamma, census=census,
                                     edge_modes=edge_mode_count(census, mu)))
    return points
