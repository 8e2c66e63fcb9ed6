"""Matrix builders for the non-Hermitian PT-symmetric Kitaev ring.

A Kitaev ring of ``n`` fermionic sites with two impurity chemical potentials
(at sites 1 and n/2+1) maps, in the Majorana basis, onto a ``2n x 2n`` core
matrix describing a dimerized ring.  The ring is built only at the symmetric
point ``t = delta = 1`` with the PT-symmetric impurity pair ``+i*gamma`` and
``-i*gamma``; there a linear change of basis splits it into two decoupled
``n x n`` SSH chains with opposite imaginary ending potentials.

This module builds every matrix in that chain of reductions:

* :func:`build_majorana_ring` -- the ``2n x 2n`` Majorana core matrix,
* :func:`decompose_blocks` -- the two SSH blocks plus their off-block leakage,
* :func:`build_ssh` -- the ``n x n`` non-Hermitian SSH chain itself,
* :func:`build_ssh_real` -- the real matrix that the chain's PT symmetry
  makes it similar to, the form in which :mod:`.spectral` solves every chain
  and applies it to a vector,
* :func:`gamma_ep` -- the coupling ``gamma = mu**(1 - n/2)`` at which the two
  zero modes of the SSH chain coalesce (the exceptional point used throughout),
  and :func:`on_locus`, the test that a coupling sits there.

Sign convention: :func:`build_ssh` uses positive couplings ``(1, mu)`` on the
alternating bonds.  The equivalent convention with ``(1, -mu)`` is related by
conjugation with ``diag(staggered_signs(n))``; see :func:`staggered_signs`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "BlockDecomposition",
    "BLOCK_GRAM",
    "MAX_DIM",
    "gamma_ep",
    "on_locus",
    "build_ssh",
    "build_ssh_real",
    "build_majorana_ring",
    "decompose_blocks",
    "fit_block_scale",
    "parity_matrix",
    "staggered_signs",
    "pt_deviation",
]

#: Gram constant of the block transform: V^dag V equals BLOCK_GRAM * identity.
BLOCK_GRAM = 0.5

#: Dense-solver dimension ceiling accepted by the builders.
MAX_DIM = 4096


def _require_even_sites(n: int) -> None:
    if not isinstance(n, (int, np.integer)):
        raise TypeError(f"site count must be an integer, got {type(n).__name__}")
    if n < 4 or n % 2 != 0:
        raise ValueError(f"site count must be even and >= 4, got {n}")
    if 2 * n > MAX_DIM:
        raise ValueError(f"site count {n} exceeds the dimension ceiling {MAX_DIM // 2}")


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the Kitaev ring at ``t = delta = 1``.

    Parameters
    ----------
    n : int
        Number of fermionic sites.  Must be even and >= 4 so the impurity
        site n/2+1 exists and differs from site 1.
    mu : float
        Uniform chemical potential, required positive.
    gamma : float
        Non-Hermiticity strength, required >= 0: the impurity potentials are
        ``+i*gamma`` at site 1 and ``-i*gamma`` at site n/2+1.
    """

    n: int
    mu: float = 1.0
    gamma: float = 0.0

    def __post_init__(self):
        _require_chain(self.n, self.mu, self.gamma)
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")


def _locus(mu: float, n: int) -> float:
    """``mu**(1 - n/2)``, or infinity where that overflows a float."""
    _require_chain(n, mu)
    try:
        return float(mu) ** (1 - n // 2)
    except OverflowError:
        return math.inf


def gamma_ep(mu: float, n: int) -> float:
    """Coupling ``gamma = mu**(1 - n/2)`` at which the zero modes coalesce.

    Examples: ``gamma_ep(2, 6) == 0.25``, ``gamma_ep(0.5, 6) == 4.0`` and
    ``gamma_ep(1, n) == 1`` (the uniform chain).

    Raises
    ------
    ValueError
        If ``mu <= 0``, if ``n`` is odd or smaller than 4, or if the coupling
        overflows a float, ``(n/2 - 1) ln(1/mu) > ln(float max)``, or
        underflows to 0, ``(n/2 - 1) ln(mu) >= 1075 ln 2`` (half the least
        subnormal rounds to 0); the message turns either into the largest
        ``n`` this ``mu`` allows.
    """
    locus = _locus(mu, n)
    if locus == math.inf:
        largest = 2 * (int(math.log(sys.float_info.max) / math.log(1 / mu)) + 1)
        raise ValueError(f"gamma_ep(mu={mu}, N={n}) = mu**(1 - N/2) overflows a float; "
                         f"the largest N for mu={mu} is {largest}")
    if locus == 0.0:
        largest = 2 * math.ceil(1075 * math.log(2) / math.log(mu))
        raise ValueError(f"gamma_ep(mu={mu}, N={n}) = mu**(1 - N/2) underflows to 0; "
                         f"the largest N for mu={mu} is {largest}")
    return locus


def on_locus(mu: float, n: int, gamma: float) -> bool:
    """True when ``gamma`` is ``gamma_ep(mu, n)`` to a relative 1e-9.

    False where ``gamma_ep`` overflows or underflows to 0: no float coupling
    lies there, and ``gamma = 0`` is the Hermitian chain.
    """
    locus = _locus(mu, n)
    return 0.0 < locus < math.inf and abs(gamma - locus) <= 1e-9 * locus


def _require_chain(n: int, mu: float, gamma: float = 0.0) -> None:
    _require_even_sites(n)
    if not np.isfinite(mu) or mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if not np.isfinite(gamma):
        raise ValueError("gamma must be finite")


def _bonds(n: int, mu) -> np.ndarray:
    """Bond amplitudes ``(1, mu, 1, ..., mu, 1)`` of the n-site chain, along
    the first axis; an array ``mu`` adds its axes after it."""
    mu = np.asarray(mu, dtype=float)
    bonds = np.empty((n - 1,) + mu.shape)
    bonds[0::2] = 1.0
    bonds[1::2] = mu
    return bonds


def build_ssh(n: int, mu: float, gamma: float) -> np.ndarray:
    """Dense non-Hermitian SSH chain with imaginary ending potentials.

    The ``n x n`` matrix has unit couplings on the (2l-1, 2l) bonds, ``mu``
    on the (2l, 2l+1) bonds (both directions; 1-based site labels), and
    diagonal entries ``+i*gamma`` at site 1 and ``-i*gamma`` at site n.
    All other entries vanish: 2(n-1) off-diagonal nonzeros and at most two
    diagonal ones.

    Parameters
    ----------
    n : int
        Even site count >= 4.
    mu : float
        Positive bulk coupling (the hopping amplitude is normalized to 1).
    gamma : float
        End-potential strength; ``gamma = 0`` gives the Hermitian chain and
        ``gamma = gamma_ep(mu, n)`` places the chain at the exceptional point.

    Returns
    -------
    np.ndarray
        Complex ``(n, n)`` matrix.
    """
    _require_chain(n, mu, gamma)
    h = np.zeros((n, n), dtype=complex)
    i = np.arange(n - 1)
    h[i, i + 1] = h[i + 1, i] = _bonds(n, mu)
    h[0, 0] = 1j * gamma
    h[n - 1, n - 1] = -1j * gamma
    return h


def build_ssh_real(n: int, mu: float, gamma: float) -> np.ndarray:
    """Real matrix similar to ``build_ssh(n, mu, gamma)`` for every real gamma.

    The chain is PT symmetric, ``P conj(h) P = h`` with ``P`` the site
    reversal (:func:`parity_matrix`).  So ``Q = (I + i P) / sqrt(2)``, which
    is unitary, takes it to a real matrix: ``Q^dag h Q = M``.  ``M`` keeps
    the chain's bonds and trades the end potentials ``+/- i gamma`` for two
    corner entries, ``M[0, n-1] = -gamma`` and ``M[n-1, 0] = +gamma``.  The
    two matrices share their spectrum, which a real eigensolver finds with
    real levels exactly real.
    """
    _require_chain(n, mu, gamma)
    m = np.zeros((n, n))
    i = np.arange(n - 1)
    m[i, i + 1] = m[i + 1, i] = _bonds(n, mu)
    m[0, n - 1] = -gamma
    m[n - 1, 0] = gamma
    return m


def build_majorana_ring(params: ModelParams) -> np.ndarray:
    """Majorana core matrix of the Kitaev ring with two impurity dimers.

    Basis ordering is ``(a_1, b_1, ..., a_n, b_n)``, each fermionic site
    contributing its Majorana pair (a, b); the matrix is ``2n x 2n``.  The
    ring is built at ``t = delta = 1``, where the reversed bonds
    ``+/- i(t - delta)/4`` vanish.  Each ring bond is ``h[b_l, a_{l+1}] = -i/2``
    and ``h[a_{l+1}, b_l] = +i/2`` (periodic, ``a_{n+1} == a_1``); each dimer
    is ``h[a_l, b_l] = -i pot_l / 2`` and ``h[b_l, a_l] = +i pot_l / 2``, with
    ``pot_l = mu`` in the bulk, ``+i*gamma`` at site 1 and ``-i*gamma`` at
    site n/2+1.  The impurity dimers are thus real, ``+/- gamma/2``, and make
    the matrix non-Hermitian for ``gamma > 0``.
    """
    n, dim = params.n, 2 * params.n
    a = np.arange(0, dim, 2)
    pot = np.full(n, complex(params.mu))
    pot[0], pot[n // 2] = 1j * params.gamma, -1j * params.gamma
    # adding onto zeros keeps every zero real part +0.0, bit for bit
    h = np.zeros((dim, dim), dtype=complex)
    following = (a + 2) % dim          # a_{l+1}, periodic
    h[a + 1, following] += -0.5j       # ring bonds b_l -> a_{l+1}
    h[following, a + 1] += 0.5j
    h[a, a + 1] += -0.5j * pot         # dimers a_l -> b_l
    h[a + 1, a] += 0.5j * pot
    return h


def _block_transform_entries(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two nonzeros of each column of the change of basis ``V`` that
    splits the Majorana ring into two chains.

    Column ``(sigma, 2l-1)`` of ``V`` is ``a (|2l> + i sigma |2n+3-2l>)`` and
    column ``(sigma, 2l)`` is ``b (|2l+1> - i sigma |2n+2-2l>)``, with
    ``a = exp(-i pi/4) / 2``, ``b = exp(+i pi/4) / 2``, ``l = 1..n/2``,
    ``sigma = +1, -1`` and 1-based ring labels taken modulo 2n (so ``|2n+1>``
    is ``|1>``).  Columns are ordered sigma=+1 first, then sigma=-1.  They
    are orthogonal with squared norm ``BLOCK_GRAM = 1/2``, so
    ``V^-1 = V^dag / BLOCK_GRAM``.

    Returns ``(rows, coefficients)``, each ``(2, 2n)``: column ``c`` is
    ``coefficients[0, c] |rows[0, c]> + coefficients[1, c] |rows[1, c]>``
    in 0-based labels, where column ``k`` of either block holds rows
    ``k + 1`` and ``2n - k`` modulo ``2n``.
    """
    _require_even_sites(n)
    k = np.arange(2 * n) % n
    rows = np.array([k + 1, (2 * n - k) % (2 * n)])
    odd = k % 2 == 1
    first = np.where(odd, np.exp(+1j * np.pi / 4) / 2, np.exp(-1j * np.pi / 4) / 2)
    sigma = np.repeat([1, -1], n)
    return rows, np.array([first, 1j * np.where(odd, -sigma, sigma) * first])


@dataclass(frozen=True)
class BlockDecomposition:
    """Result of splitting the Majorana ring matrix into its two SSH blocks.

    Attributes
    ----------
    h_plus, h_minus : np.ndarray
        The two ``n x n`` diagonal blocks in the ring normalization,
        oriented so that ``h_plus`` carries the ``+i`` ending potential at
        site 1 (``h_minus`` is its conjugate transpose).
    leakage : float
        Largest off-block entry magnitude after the change of basis.
    """

    h_plus: np.ndarray
    h_minus: np.ndarray
    leakage: float


def decompose_blocks(h: np.ndarray, n: int) -> BlockDecomposition:
    """Split a PT-configured Majorana ring matrix into its two SSH blocks.

    Conjugates ``h`` by ``V`` (:func:`_block_transform_entries`), whose
    inverse is ``V^dag / BLOCK_GRAM``, and returns the two diagonal blocks.
    ``V`` has two nonzeros per column, so both products are gathers of two
    rows or columns, O(n^2) in all.  Raises on non-finite entries, and if the
    off-diagonal blocks do not vanish or the blocks are not conjugate
    transposes of each other: then ``h`` is not a :func:`build_majorana_ring`.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape != (2 * n, 2 * n):
        raise ValueError(f"expected a {2 * n} x {2 * n} matrix, got {h.shape}")
    if not np.isfinite(h).all():
        raise ValueError("matrix entries must be finite")
    rows, coefficients = _block_transform_entries(n)
    hv = h[:, rows[0]] * coefficients[0] + h[:, rows[1]] * coefficients[1]
    ht = (coefficients[0, :, None].conj() * hv[rows[0]]
          + coefficients[1, :, None].conj() * hv[rows[1]]) / BLOCK_GRAM
    scale = max(float(np.max(np.abs(h))), 1e-300)
    leakage = float(max(np.max(np.abs(ht[:n, n:])), np.max(np.abs(ht[n:, :n]))))
    if leakage > 1e-10 * scale:
        raise ValueError(
            f"input does not block-diagonalize (leakage {leakage:.3e}); "
            "expected a ring built by build_majorana_ring"
        )
    first, second = ht[:n, :n].copy(), ht[n:, n:].copy()
    if first[0, 0].imag < second[0, 0].imag:
        h_plus, h_minus = second, first
    else:
        h_plus, h_minus = first, second
    if np.max(np.abs(h_minus - h_plus.conj().T)) > 1e-10 * scale:
        raise ValueError("blocks are not conjugate transposes; inconsistent input")
    return BlockDecomposition(h_plus, h_minus, leakage)


def fit_block_scale(block: np.ndarray, mu: float, gamma: float) -> complex:
    """Least-squares complex scale relating a ring block to :func:`build_ssh`.

    The blocks of :func:`decompose_blocks` inherit the ring normalization
    (couplings ``t/2``, ``mu/2``) and the negative-coupling sign convention,
    while :func:`build_ssh` uses unit hopping and positive couplings.  This
    fits ``s`` minimizing ``|block - s * g @ build_ssh(n, mu, gamma) @ g|``
    in the Frobenius norm, with ``n`` the block's size and
    ``g = diag(staggered_signs(n))``.  For a consistent decomposition ``s``
    is 1/2 up to rounding.
    """
    block = np.asarray(block, dtype=complex)
    n = len(block)
    if block.shape != (n, n):
        raise ValueError(f"expected a square block, got shape {block.shape}")
    s = staggered_signs(n)
    reference = s[:, None] * build_ssh(n, mu, gamma) * s[None, :]
    denom = np.vdot(reference, reference)
    if denom == 0:
        raise ValueError("degenerate reference matrix")
    return complex(np.vdot(reference, block) / denom)


def parity_matrix(n: int) -> np.ndarray:
    """Site-reversal permutation sending site l to n+1-l (anti-diagonal)."""
    return np.eye(n)[::-1].copy()


def staggered_signs(n: int) -> np.ndarray:
    """Sign pattern ``(+1, +1, -1, -1, +1, ...)`` over the chain sites.

    Conjugating :func:`build_ssh` output with ``diag(staggered_signs(n))``
    flips the sign of every (2l, 2l+1) bond, mapping the positive-coupling
    convention ``(1, mu)`` onto the equivalent ``(1, -mu)`` one.  Closed-form
    eigenvectors derived in the latter convention pick up this pattern.
    """
    return (-1.0) ** (np.arange(n) // 2)


def pt_deviation(h: np.ndarray) -> float:
    """Largest entry of ``P conj(h) P - h``: zero for a PT-symmetric chain.

    ``P`` (:func:`parity_matrix`) reverses the sites, so ``P conj(h) P`` is
    ``conj(h)`` with rows and columns reversed, formed without a product.
    """
    h = np.asarray(h, dtype=complex)
    return float(np.max(np.abs(h.conj()[::-1, ::-1] - h)))
