"""Dense biorthogonal eigendecomposition and mode classification.

:func:`eig` is a dense non-Hermitian eigensolver contract that pairs every
right eigenvector with a left eigenvector of the conjugate-transpose
problem, verifies residuals, and reports the biorthogonal overlaps
``<w_i|v_i>`` whose vanishing signals an exceptional point.  A Majorana ring
(:func:`~.model.build_majorana_ring`) is ``V diag(h_plus^dag, h_plus)
V^-1`` with ``h_plus`` half an SSH chain, so :func:`eig` takes its whole
``2n x 2n`` eigensystem from one real ``n x n`` solve of that chain: the
levels ``eps / 2`` and ``conj(eps) / 2``, with right and left vectors lifted
through ``V``.  Residuals and overlaps are still taken against the ring.
:func:`chain_eigensystem` keeps that contract for the complex symmetric SSH
chain with one real solve: ``left = conj(right)``, with equal residuals, and
the overlaps ``v_i^T v_i`` have a basis-dependent phase, so only their
modulus is meaningful.  On the locus with ``mu >= 1`` that solve is of the
``n/2 x n/2`` sublattice product that :func:`chain_census` solves there,
and with ``gamma >= SPLIT_GAMMA`` (``mu < 1``) of the ``(n/2 - 1) x (n/2 -
1)`` product of the inner chain, the two end sites split off as the
evanescent pair ``+/- i gamma``; the coalescing pair's two rows then share
one solver vector, the product's null vector, and its residual is taken at
``eps = 0``.
:func:`detect_coalescence` groups numerically split eigenvalue pairs whose
eigenvectors have become parallel (the dense solver returns two nearly equal
eigenvalues rather than a Jordan block at an exceptional point).

The (n_I, n_EP, n_S) census of imaginary evanescent levels, coalescing zero
modes and real scattering levels needs eigenvalues only.  On the
coalescence locus the coalescing pair is the two levels nearest zero,
accepted only when they are isolated there and when the closed-form zero
mode (:func:`~.bethe.zero_mode`) certifies the Jordan block; off the locus
there is no pair.  :func:`classify_modes` applies this to a computed
eigensystem, and :func:`chain_census` to the eigenvalues of the chain's
real form ``M`` (:func:`~.model.build_ssh_real`), one real eigenvalues-only
solve: on the locus with ``mu >= 1``, of the ``n/2 x n/2`` product of
``M``'s sublattice blocks (:func:`_sublattice_product`, the one place that
rule is written), whose eigenvalues are the levels squared; on the locus
with ``gamma >= SPLIT_GAMMA``, of the same product of the inner chain left
when the two end sites are split off as ``+/- i gamma``; elsewhere of
``M``, since the product loses the pair for ``1 < gamma < SPLIT_GAMMA``
and, off the locus, can read a real level near zero as imaginary.

A classified chain is one :class:`Classification`: its eigensystem, the
mode class code of each level, the coalescing pair's indices and the
closed-form zero mode that certified it; the census, the class masks, the
coalesced spectrum and the pair's ``<eta|psi>`` are read from these arrays.

The chain pipeline also runs on a stack of same-length chains:
:func:`chain_eigensystems` solves them in one ``np.linalg.eig`` call per
route (the real form, the sublattice product, the inner chain's product), and
:func:`classify_stack` classifies them together.  Each returns one row
per chain, which is either the chain's result or the error that refused
that chain alone; a refused row does not stop the others, and a row that
arrives as an error passes through unchanged.  Each row is the same, bit
for bit, as when the chain is run alone: :func:`chain_eigensystem` and
:func:`classify_modes` are the stacks of one, and raise a refused row's
error.  A stack's per-chain inputs must have one length; an empty stack
gives no rows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import bethe, model
from .model import MAX_DIM

__all__ = [
    "EigenSystem",
    "Coalescence",
    "ModeClass",
    "ModeCensus",
    "ClassificationError",
    "eig",
    "chain_eigensystem",
    "chain_eigensystems",
    "pseudo_hermiticity_check",
    "detect_coalescence",
    "classify_modes",
    "classify_stack",
    "Classification",
    "chain_census",
    "coalesced_eigenvalues",
    "match_multisets",
]


class ClassificationError(ValueError):
    """The levels admit no census: an eigenvalue fits no mode class, or no
    isolated zero pair exists on the coalescence locus."""


#: On the coalescence locus the third level nearest zero must lie this many
#: times farther out than the second; a pair less isolated is refused.
PAIR_SEPARATION = 1e3

#: Eigenpair residual bound, relative to the matrix infinity norm: of every
#: right/left eigenpair, and of the closed-form zero mode ``h psi`` in the
#: census.
RESIDUAL_TOLERANCE = 1e-11

#: Real/imaginary classification threshold, relative to the largest
#: eigenvalue magnitude.
CLASS_TOLERANCE = 1e-8

#: Exceptional-point bound.  In the census: the distance from zero (relative
#: to the largest eigenvalue magnitude) within which the coalescing pair must
#: lie, and the bound on the closed-form biorthogonal norm ``<eta|psi> =
#: psi^T psi``.  In :func:`detect_coalescence`: the eigenvalue cluster width,
#: the eigenvector parallelism deficit and the coalesced biorthogonal norm.
EP_TOLERANCE = 1e-6


@dataclass(frozen=True)
class EigenSystem:
    """Full eigensystem of a dense complex matrix.

    Attributes
    ----------
    eigenvalues : np.ndarray
        Sorted ascending by (real, imaginary) part.
    right, left : np.ndarray
        Unit-norm eigenvector columns; ``left[:, i]`` is an eigenvector of
        the conjugate transpose for ``conj(eigenvalues[i])``.  From
        :func:`eig` of a ring both are lifted from the chain's vectors ``x``
        and ``conj(x)`` (:func:`_ring_eigenvectors`); of any other matrix
        the left vectors come from a second solve, of the conjugate
        transpose, paired greedily by nearest eigenvalue.  From
        :func:`chain_eigensystem` ``left`` is ``conj(right)``; on its
        product routes (the locus with ``mu >= 1`` or ``gamma >=
        SPLIT_GAMMA``) the coalescing pair's two columns are one vector,
        the null vector of the sublattice product.
    residuals, left_residuals : np.ndarray
        Per-column residual magnitudes, each against its own eigenvalue,
        except the shared pair columns of :func:`chain_eigensystem` on its
        product routes, taken at ``eps = 0``; equal for
        :func:`chain_eigensystem`.
    biorth_norms : np.ndarray
        Complex overlaps ``<left_i|right_i>`` of the unit-norm pairs; these
        approach zero when two levels coalesce.  Only the modulus is
        independent of the phases the solver gave the vectors.
    norm_inf : float
        Infinity norm of the decomposed matrix, for residual scaling.
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    residuals: np.ndarray
    left_residuals: np.ndarray
    biorth_norms: np.ndarray
    norm_inf: float

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def scale(self) -> float:
        """Largest eigenvalue magnitude (1.0 for the zero matrix)."""
        s = float(np.max(np.abs(self.eigenvalues))) if self.dim else 0.0
        return s if s > 0 else 1.0


def _sort_by_re_im(values: np.ndarray) -> np.ndarray:
    """Order along the last axis by (real, imaginary) part."""
    return np.lexsort((values.imag, values.real))


def _served(row):
    """One row of a stacked result: its value, or the error refusing it, raised."""
    if isinstance(row, Exception):
        raise row
    return row


def _same_lengths(**rows) -> None:
    """Refuse a stack whose per-chain inputs differ in length."""
    lengths = [len(row) for row in rows.values()]
    if len(set(lengths)) > 1:
        raise ValueError("stack inputs differ in length: "
                         + ", ".join(f"{k} {name}" for k, name in zip(lengths, rows)))


def _greedy_pairing(gaps: np.ndarray) -> np.ndarray:
    """Row by row, the column of least gap not taken by an earlier row."""
    free = gaps.copy()
    assignment = np.empty(len(gaps), dtype=int)
    for i, row in enumerate(free):
        assignment[i] = j = row.argmin()
        free[:, j] = np.inf
    return assignment


def _eigensystems(values, right, apply, norm_inf, left=None, shifts=None) -> list:
    """Normalise each row of a stack, bound its residuals by
    ``RESIDUAL_TOLERANCE * norm_inf`` and form ``biorth = sum(conj(left) *
    right)``.

    ``values`` is ``(s, n)``, ``right`` is ``(s, n, n)`` with each row's
    vectors as columns, and ``norm_inf`` is ``(s,)``.  ``apply(x)`` is each
    row's matrix times the columns of that row of ``x``; ``left`` is the
    paired ``(vectors, values, apply)`` of the adjoint problem, or ``None``
    for complex symmetric matrices: ``A^dag conj(v) = conj(A v)``, so ``left
    = conj(right)`` with the same residuals.  The right residuals are taken
    against ``shifts``, ``(s, n)``, where given, else against ``values``.
    Row ``i`` becomes an :class:`EigenSystem`, or the ``RuntimeError``
    naming its worst residual over the bound.
    """
    def unit_and_residuals(vectors, eps, apply):
        vectors = vectors / np.linalg.norm(vectors, axis=-2, keepdims=True)
        residuals = np.abs(apply(vectors) - vectors * eps[:, None, :])
        return vectors, residuals.max(axis=-2, initial=0.0)

    right, residuals = unit_and_residuals(right, values if shifts is None else shifts, apply)
    if left is None:
        left, left_residuals = right.conj(), residuals
        biorth = np.einsum("sij,sij->sj", right, right)
    else:
        left, left_residuals = unit_and_residuals(*left)
        biorth = np.einsum("sij,sij->sj", left.conj(), right)
    peaks = np.maximum(residuals, left_residuals).max(axis=-1, initial=0.0).tolist()
    rows = []
    for i, norm in enumerate(norm_inf.tolist()):
        rows.append(EigenSystem(values[i], right[i], left[i], residuals[i],
                                left_residuals[i], biorth[i], norm))
        bound = RESIDUAL_TOLERANCE * max(norm, 1e-300)
        if peaks[i] > bound:
            label, res = (("right", residuals[i]) if np.max(residuals[i]) > bound
                          else ("left", left_residuals[i]))
            worst = int(np.argmax(res))
            rows[i] = RuntimeError(f"{label} eigenpair {worst} residual "
                                   f"{res[worst]:.3e} exceeds {bound:.3e}")
    return rows


def _ring_eigenvectors(a: np.ndarray):
    """``(values, right, left)``, sorted, if ``a`` is exactly a
    :func:`~.model.build_majorana_ring`; else ``None``.

    The ring is ``V diag(h_plus^dag, h_plus) V^-1``, with ``h_plus = g
    build_ssh g / 2`` on the sigma = -1 columns ``V_+`` of
    :func:`~.model._block_transform_entries` and ``g`` the staggered signs.
    So the real solve of :func:`chain_eigensystem`, ``build_ssh x = eps
    x``, gives ``eps / 2`` with right vector ``V_+ g x`` and left vector
    ``V_+ g conj(x)``, and ``conj(eps) / 2`` with ``V_- g conj(x)`` and
    ``V_- g x``.  Both blocks of ``V`` hold their two nonzeros per column in
    the same rows, so each lift is two row scatters.  The chain is solved
    ``n x n`` for every ring: :func:`eig` bounds each residual at its own
    level, which the one vector that the sublattice product of
    :func:`chain_eigensystem` gives both pair levels misses by ``|eps|``.
    """
    dim = len(a)
    if dim < 8 or dim % 2:
        return None
    n = dim // 2
    try:
        params = model.ModelParams(n, float((2j * a[2, 3]).real), float(2 * a[0, 1].real))
    except ValueError:
        return None
    if not np.array_equal(a, model.build_majorana_ring(params)):
        return None
    # the n x n real solve of the chain's real form: build_ssh x = eps x for
    # x = Q v, left unnormalised, since the lifted vectors are normalised on
    # the ring
    eps, v = np.linalg.eig(model.build_ssh_real(n, params.mu, params.gamma))
    gx = model.staggered_signs(n)[:, None] * (v + 1j * v[::-1])
    eps = eps.astype(complex)
    values = np.concatenate([eps, eps.conj()]) / 2
    order = _sort_by_re_im(values)
    rows, coefficients = model._block_transform_entries(n)

    def lift(plus, minus):  # V_+ plus next to V_- minus, in the sorted order
        out = np.empty((dim, dim), dtype=complex)
        out[rows[0, :n]] = (coefficients[0, :n, None]
                            * np.concatenate([plus, minus], axis=1)[:, order])
        out[rows[1, :n]] = np.concatenate([coefficients[1, n:, None] * plus,
                                           coefficients[1, :n, None] * minus], axis=1)[:, order]
        return out

    return values[order], lift(gx, gx.conj()), lift(gx.conj(), gx)


def eig(a: np.ndarray) -> EigenSystem:
    """Dense eigendecomposition with verified residuals and left pairing.

    A Kitaev ring, ``a`` equal to :func:`~.model.build_majorana_ring` of its
    own ``(n, mu, gamma)`` (``mu = 2i a[2, 3]``, ``gamma = 2 Re a[0, 1]``),
    takes its whole eigensystem from the one real ``n x n`` solve of
    :func:`chain_eigensystem` (:func:`_ring_eigenvectors`).  Any other
    matrix is solved with its conjugate transpose ``a^dag``, and each left
    vector is paired greedily, by nearest eigenvalue, with ``conj(eps)``.
    Either way the residuals and left residuals are computed against ``a``
    and ``a^dag``.

    Parameters
    ----------
    a : np.ndarray
        Square complex matrix, dimension at most ``MAX_DIM``.

    Returns
    -------
    EigenSystem

    Raises
    ------
    ValueError
        On non-square or non-finite input, or dimension overflow.
    RuntimeError
        If the backend fails to converge or a residual exceeds
        ``RESIDUAL_TOLERANCE * ||a||_inf`` (the offending index is reported).
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {a.shape[0]} exceeds ceiling {MAX_DIM}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("matrix entries must be finite")
    n = a.shape[0]
    norm_inf = float(np.max(np.abs(a).sum(axis=1), initial=0.0))
    adjoint = a.conj().T
    try:
        ring = _ring_eigenvectors(a)
        if ring is None:
            values, right = np.linalg.eig(a)
            left_values, left = np.linalg.eig(adjoint)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - backend failure
        raise RuntimeError(f"eigensolver did not converge: {exc}") from exc
    if ring is not None:
        values, right, left = ring
        left_values = values.conj()
    else:
        order = _sort_by_re_im(values)
        values, right = values[order], right[:, order]
        # Greedy nearest-eigenvalue pairing of the left system to conj(values).
        gaps = np.abs(left_values[None, :] - values.conj()[:, None])
        assignment = _greedy_pairing(gaps)
        gaps = gaps[np.arange(n), assignment]
        scale = float(np.max(np.abs(values), initial=1.0))
        if float(np.max(gaps, initial=0.0)) > 1e-3 * scale:
            worst = int(np.argmax(gaps))
            raise RuntimeError(
                f"left/right eigenvalue pairing conflict at index {worst} "
                f"(gap {gaps[worst]:.3e})"
            )
        left, left_values = left[:, assignment], left_values[assignment]
    left = (left[None], left_values[None], adjoint.__matmul__)
    return _served(_eigensystems(values[None], right[None], a.__matmul__,
                                 np.array([norm_inf]), left)[0])


def chain_eigensystem(n: int, mu: float, gamma: float) -> EigenSystem:
    """:func:`eig` of ``build_ssh(n, mu, gamma)`` from one real solve.

    The real form ``M = Q^dag h Q`` (:func:`~.model.build_ssh_real`) is
    solved, and each of its vectors ``V`` gives ``right = Q V = (V + i
    V[::-1]) / sqrt(2)``, with real levels exactly real.  On the locus with
    ``gamma <= 1`` the one ``np.linalg.eig`` call is of the ``n/2 x n/2``
    sublattice product of ``M`` (:func:`_sublattice_product`), and the
    coalescing pair's two levels ``+/- sqrt(x)`` share one vector, the
    product's null vector, whose residual is taken at ``eps = 0``.  On the
    locus with ``gamma >= SPLIT_GAMMA`` it is of the ``(n/2 - 1) x (n/2 -
    1)`` product of the inner chain, with the pair as above; each vector
    gains its two end rows, and the evanescent pair ``+/- i gamma`` lives on
    the end sites (:func:`_with_end_sites`).  Elsewhere it is of ``M``.
    Each route is taken at ``|gamma|``: ``h(-gamma) = P h(gamma) P``, ``P``
    the site reversal, so for ``gamma < 0`` the vectors are reversed site for
    site, and the mirrored locus ``-gamma_ep`` takes the routes of the locus.
    ``h`` is complex symmetric, so ``left = conj(right)``: no second solve
    and no pairing.  Residuals are applied bond by bond
    (:func:`~.model.apply_ssh`) and bounded as in :func:`eig`.  This is the
    stack of one of :func:`chain_eigensystems`.
    """
    return _served(chain_eigensystems(n, [mu], [gamma])[0])


#: On the locus with ``mu < 1``, the coupling from which the two end sites
#: are split off the real form (:func:`_sublattice_product`): there the terms
#: their Schur complement drops are under ``2 / gamma^2 <= 2^-53``.
SPLIT_GAMMA = 2.0 ** 27


def _sublattice_product(m: np.ndarray, n: int, mu: float, gamma: float):
    """``(split, own, outward, product)`` of the real form ``m`` of
    ``build_ssh(n, mu, gamma)`` on the locus with ``gamma <= 1`` or ``gamma
    >= SPLIT_GAMMA``; ``None`` elsewhere.

    ``m`` is bipartite, so its square is block diagonal on the two
    sublattices (even and odd sites), each block the product of the two
    hopping blocks.  The zero mode lives on one sublattice, ``own``: on the
    locus the chain of equations ``(m u)_j = 0`` for ``u`` on the even sites
    closes with ``gamma = (-1)^(n/2) mu^(1 - n/2)``, and for ``u`` on the
    odd sites with ``gamma = (-1)^(n/2 - 1) mu^(1 - n/2)``; so ``own = n/2
    mod 2``.  ``outward = m[other::2, own::2]`` maps the own sublattice to
    the other, and ``product = m[own::2, other::2] @ outward`` is the own
    block of ``m^2``: its ``n/2`` eigenvalues ``x`` give the levels ``+/-
    sqrt(x)``, and an eigenvector ``w`` the real-form vectors ``+/- sqrt(x)
    w`` on the own sites next to ``outward @ w`` on the other.  The rule
    holds where the product is well scaled (its norm is at most ``(1 +
    mu)^2``) and the pair rule reads the ``x`` near zero; see
    :func:`chain_census`.

    With ``split`` (``gamma >= SPLIT_GAMMA``) the rule is applied to the
    inner chain instead: ``m[1:-1, 1:-1]`` with the corners ``-1/gamma`` and
    ``+1/gamma``, the real form of the ``n - 2`` sites with bonds ``(mu, 1,
    ..., 1, mu)`` at ``1/gamma``, so ``own = (n/2 - 1) mod 2`` in inner
    sites, the full chain's sites that carry the zero mode.  It is the Schur
    complement ``K + G (eps - E)^-1 F`` of the end block ``E = [[0, -gamma],
    [gamma, 0]]`` at ``eps = 0``, which keeps the zero mode and the pair
    rule exact; at a level ``|eps| <= 1 + mu`` it drops ``eps / (eps^2 +
    gamma^2)`` on two diagonal entries and ``gamma / (eps^2 + gamma^2) -
    1/gamma`` on the corners, both under rounding.  The end sites carry the
    evanescent pair ``+/- i gamma`` (:func:`_with_end_sites`).
    """
    if not model.on_locus(mu, n, gamma):
        return None
    split = gamma >= SPLIT_GAMMA
    if split:
        m = m[1:-1, 1:-1].copy()
        m[0, -1], m[-1, 0] = -1.0 / gamma, 1.0 / gamma
    elif gamma > 1:
        return None
    own = len(m) // 2 % 2
    outward = m[1 - own::2, own::2]
    return split, own, outward, m[own::2, 1 - own::2] @ outward


def _end_levels(gammas) -> np.ndarray:
    """The evanescent pair ``+i gamma`` and then ``-i gamma`` of each chain,
    along the last axis, with a positive zero real part."""
    upper = 1j * np.asarray(gammas, dtype=float)[..., None]
    return np.concatenate([upper, 0.0 - upper], axis=-1)


def _product_levels(x: np.ndarray) -> np.ndarray:
    """The levels ``sqrt(x)`` and then ``-sqrt(x)`` of the eigenvalues ``x``
    of sublattice products, along the last axis; ``0 - sqrt(x)``, so that a
    real or imaginary level keeps a positive zero part."""
    roots = np.sqrt(x.astype(complex))
    return np.concatenate([roots, 0.0 - roots], axis=-1)


def _product_vectors(own: int, outward: np.ndarray, x: np.ndarray, w: np.ndarray):
    """``(levels, shifts, vectors)`` of a stack of chains from the
    eigenpairs ``(x, w)`` of their sublattice products
    (:func:`_sublattice_product`), unsorted.

    ``vectors[i, j]`` is the real-form vector of level ``levels[i, j]``.
    The pair, the ``x`` of least modulus, gives both its levels ``+/-
    sqrt(x)`` the vector ``w`` on the own sites and zero on the other, the
    product's null vector; its ``shifts`` are 0, the level at which its
    residual is taken, and every other level's shift is the level itself.
    """
    s, half, _ = w.shape
    levels = _product_levels(x)
    vectors = np.empty((s, 2 * half, 2 * half), dtype=complex)
    wt, kwt = w.transpose(0, 2, 1), (outward @ w).transpose(0, 2, 1)  # level by level
    for block in (slice(None, half), slice(half, None)):  # +sqrt(x), then -sqrt(x)
        vectors[:, block, own::2] = levels[:, block, None] * wt
        vectors[:, block, 1 - own::2] = kwt
    rows, pair = np.arange(s), np.argmin(np.abs(x), axis=1)
    shifts = levels.copy()
    for j in (pair, pair + half):
        vectors[rows, j, own::2] = wt[rows, pair]
        vectors[rows, j, 1 - own::2] = 0.0
        shifts[rows, j] = 0.0
    return levels, shifts, vectors


def _with_end_sites(mus: np.ndarray, gammas: np.ndarray, levels, shifts, inner):
    """``(levels, shifts, vectors)`` of a stack of chains on the split route
    (:func:`_sublattice_product`), from those of their inner chains,
    :func:`_product_vectors` of ``n - 2`` sites.

    An inner vector ``u`` at its shift ``eps`` gains the end rows ``[u_0,
    u_{n-1}] = [[eps, -gamma], [gamma, eps]] [u_1, u_{n-2}] / (eps^2 +
    gamma^2)``, written in ``t = eps / gamma`` so that ``gamma^2`` does not
    overflow.  The evanescent pair ``+/- i gamma`` follows: ``(1, -/+ i)``
    on the end sites, and on the inner ones the response ``(eps - K)^-1 b``
    to the end values ``b`` that the unit end bonds carry to sites 1 and
    ``n - 2``, from the first three terms of its Neumann series in ``K /
    eps``, ``K`` the inner block of the real form, applied bond by bond; the
    next term is under ``(2 / gamma)^3``.
    The true pair lies within ``1 / gamma`` of ``+/- i gamma``, under half
    an ulp of ``gamma``.
    """
    s, k, _ = inner.shape
    g = gammas[:, None]
    t = shifts / g
    scale = g * (1.0 + t * t)
    first, last = inner[:, :, 0], inner[:, :, -1]
    ends = _end_levels(gammas)
    vectors = np.zeros((s, k + 2, k + 2), dtype=complex)
    vectors[:, :k, 1:-1] = inner
    vectors[:, :k, 0] = (t * first - last) / scale
    vectors[:, :k, -1] = (first + t * last) / scale
    vectors[:, k:, 0], vectors[:, k:, -1] = 1.0, [-1j, 1j]
    bonds = model._bonds(k + 2, mus)[1:-1].T[:, None, :]  # K's, (mu, 1, ..., 1, mu)
    term = np.zeros((s, 2, k), dtype=complex)  # b and its Neumann terms, level by level
    term[:, :, 0], term[:, :, -1] = 1.0, [-1j, 1j]
    response = term.copy()
    for _ in range(2):
        hop = np.zeros_like(term)
        hop[:, :, :-1] += bonds * term[:, :, 1:]
        hop[:, :, 1:] += bonds * term[:, :, :-1]
        term = hop / ends[:, :, None]
        response += term
    vectors[:, k:, 1:-1] = response / ends[:, :, None]
    return (np.concatenate([levels, ends], axis=1),
            np.concatenate([shifts, ends], axis=1), vectors)


def chain_eigensystems(n: int, mus, gammas) -> list:
    """:func:`chain_eigensystem` of a stack of chains of one length, from one
    ``np.linalg.eig`` call per route: one of the stacked real forms off the
    product routes, one of the stacked sublattice products on each.

    Row ``i`` is the eigensystem of ``build_ssh(n, mus[i], gammas[i])``, or
    the ``RuntimeError`` that refused it; the other rows are still served.
    Each row is the same, bit for bit, as when solved alone.  ``mus`` and
    ``gammas`` must have one length (else ``ValueError``); none gives ``[]``.
    """
    _same_lengths(mus=mus, gammas=gammas)
    if not len(mus):
        return []
    mus, gammas = np.asarray(mus, dtype=float), np.asarray(gammas, dtype=float)
    sizes = np.abs(gammas)
    m = [model.build_ssh_real(n, mu, size) for mu, size in zip(mus, sizes)]
    routes = [_sublattice_product(mi, n, mu, size) for mi, mu, size in zip(m, mus, sizes)]
    full = [i for i, route in enumerate(routes) if route is None]
    solved = []  # (rows of the stack, levels, shifts, real-form vectors level by level)
    try:
        if full:
            levels, v = np.linalg.eig(np.array([m[i] for i in full]))
            solved.append((full, levels, levels, v.transpose(0, 2, 1)))
        for split in (False, True):
            halved = [i for i, route in enumerate(routes) if route and route[0] == split]
            if not halved:
                continue
            x, w = np.linalg.eig(np.array([routes[i][3] for i in halved]))
            outward = np.array([routes[i][2] for i in halved])
            product = _product_vectors(routes[halved[0]][1], outward, x, w)
            if split:
                product = _with_end_sites(mus[halved], sizes[halved], *product)
            solved.append((halved, *product))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - backend failure
        raise RuntimeError(f"eigensolver did not converge: {exc}") from exc
    values = np.empty((len(m), n), dtype=complex)
    shifts = np.empty((len(m), n), dtype=complex)
    # sorted level by level, so that each row's vectors are contiguous
    # columns once transposed, as after a single solve's v[:, order]: norms
    # and overlaps then sum in the same order
    vt = np.empty((len(m), n, n), dtype=complex)
    for index, levels, level_shifts, vectors in solved:
        rows, order = np.arange(len(index))[:, None], _sort_by_re_im(levels)
        values[index], shifts[index] = levels[rows, order], level_shifts[rows, order]
        vt[index] = vectors[rows, order]
    right = ((vt + 1j * vt[:, :, ::-1]) / np.sqrt(2)).transpose(0, 2, 1)
    right[gammas < 0] = right[gammas < 0, ::-1]  # P, the site reversal

    def apply(x):  # sites first for apply_ssh, one chain per stack row
        hx = model.apply_ssh(n, mus[:, None], gammas[:, None], x.transpose(1, 0, 2))
        return hx.transpose(1, 0, 2)

    return _eigensystems(values, right, apply, 1.0 + np.maximum(mus, sizes), shifts=shifts)


def pseudo_hermiticity_check(
    eigenvalues, tol: float
) -> tuple[bool, list[complex]]:
    """Check that a spectrum is invariant under complex conjugation.

    Real values match themselves; complex ones must occur in conjugate pairs
    within the absolute tolerance ``tol``.  Returns ``(ok, unmatched)``.
    """
    pool = [complex(v) for v in np.asarray(eigenvalues, dtype=complex)]
    unmatched: list[complex] = []
    while pool:
        v = pool.pop(0)
        if abs(v - v.conjugate()) <= tol:
            continue
        best, best_dist = -1, np.inf
        for idx, w in enumerate(pool):
            dist = abs(v.conjugate() - w)
            if dist < best_dist:
                best, best_dist = idx, dist
        if best >= 0 and best_dist <= tol:
            pool.pop(best)
        else:
            unmatched.append(v)
    return (not unmatched), unmatched


def _canonical_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the largest component is real positive."""
    pivot = int(np.argmax(np.abs(vec)))
    phase = vec[pivot] / abs(vec[pivot])
    return vec / phase


@dataclass(frozen=True)
class Coalescence:
    """A cluster of eigenvalues whose eigenvectors have coalesced.

    ``right_vector`` is the dominant singular vector of the clustered right
    eigenvectors, and ``biorth_norm = <left|right>`` pairs it with that of
    the left ones; the numerical +/- splitting of the cluster members
    cancels in them, so ``biorth_norm`` reproduces the defective-point zero
    far more accurately than the per-member overlaps.
    """

    indices: tuple[int, ...]
    eigenvalue: complex
    right_vector: np.ndarray
    biorth_norm: complex


def detect_coalescence(es: EigenSystem) -> list[Coalescence]:
    """Find exceptional-point clusters in a computed eigensystem.

    A cluster is a set of indices whose eigenvalues agree within
    ``EP_TOLERANCE * scale``, whose right eigenvectors are pairwise parallel
    (overlap modulus >= 1 - EP_TOLERANCE), and whose coalesced left/right
    pair has ``|<left|right>| <= EP_TOLERANCE``.  Returns an empty list when
    no exceptional point is present.  It serves the six-site chains; a
    classified chain reads its pair from :func:`classify_modes`.
    """
    values = es.eigenvalues
    close = np.abs(values[:, None] - values[None, :]) <= EP_TOLERANCE * es.scale
    parallel = np.abs(es.right.conj().T @ es.right) >= 1.0 - EP_TOLERANCE
    parent = list(range(es.dim))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zip(*(axis.tolist() for axis in np.nonzero(np.triu(close & parallel, 1)))):
        parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(es.dim):
        groups.setdefault(find(i), []).append(i)

    clusters = []
    for idx in (tuple(members) for members in groups.values() if len(members) > 1):
        v_coal = _canonical_phase(np.linalg.svd(es.right[:, idx], full_matrices=False)[0][:, 0])
        w_coal = _canonical_phase(np.linalg.svd(es.left[:, idx], full_matrices=False)[0][:, 0])
        biorth = complex(np.vdot(w_coal, v_coal))
        if abs(biorth) <= EP_TOLERANCE:
            centroid = complex(np.mean(values[list(idx)]))
            clusters.append(Coalescence(idx, centroid, v_coal, biorth))
    clusters.sort(key=lambda c: (c.eigenvalue.real, c.eigenvalue.imag))
    return clusters


class ModeClass(enum.Enum):
    REAL_SCATTERING = "RealScattering"
    ZERO_COALESCING = "ZeroCoalescing"
    IMAGINARY_EVANESCENT = "ImaginaryEvanescent"


@dataclass(frozen=True)
class ModeCensus:
    """Level counts (n_I, n_EP, n_S) satisfying ``n_I + 2 n_EP + n_S = n``."""

    n_I: int
    n_EP: int
    n_S: int
    n: int

    def __post_init__(self):
        if self.n_I + 2 * self.n_EP + self.n_S != self.n:
            raise ClassificationError(
                f"census identity violated: {self.n_I} + 2*{self.n_EP} + "
                f"{self.n_S} != {self.n}"
            )


#: Mode classes by the codes of :func:`_classify_levels`.
_MODE_CLASSES = (ModeClass.REAL_SCATTERING, ModeClass.ZERO_COALESCING,
                 ModeClass.IMAGINARY_EVANESCENT)
_REAL, _ZERO, _IMAGINARY = range(3)


def _certify_zero_mode(n: int, mus, gammas) -> list:
    """The closed-form zero mode ``psi`` of each chain ``build_ssh(n,
    mus[i], gammas[i])``, once certified.

    ``h`` is complex symmetric, so ``eta = conj(psi)``; ``h psi`` is applied
    bond by bond (:func:`~.model.apply_ssh`), to all the chains at once.
    Row ``i`` is a ``RuntimeError`` when ``|h psi|_inf`` exceeds
    ``RESIDUAL_TOLERANCE * |h|_inf`` or ``|psi^T psi|`` exceeds
    ``EP_TOLERANCE``.
    """
    if not len(mus):
        return []
    mus, gammas = np.asarray(mus, dtype=float), np.asarray(gammas, dtype=float)
    # h(-gamma) = P h(gamma) P, P the site reversal: at -gamma_ep the zero mode is P psi
    psis = [bethe.zero_mode_amplitudes(n, mu)[::-1 if gamma < 0 else 1]
            for mu, gamma in zip(mus, gammas)]
    residuals = np.abs(model.apply_ssh(n, mus, gammas, np.array(psis).T)).max(axis=0)
    rows = []
    for psi, residual, mu, gamma in zip(psis, residuals.tolist(), mus.tolist(), gammas.tolist()):
        bound = RESIDUAL_TOLERANCE * (1.0 + max(mu, abs(gamma)))
        biorth = complex(psi @ psi)
        if residual > bound:
            rows.append(RuntimeError(f"closed-form zero mode residual {residual:.3e} "
                                     f"exceeds {bound:.3e}"))
        elif abs(biorth) > EP_TOLERANCE:
            rows.append(RuntimeError(f"closed-form zero mode <eta|psi> {abs(biorth):.3e} "
                                     f"exceeds {EP_TOLERANCE:.3e}"))
        else:
            rows.append(psi)
    return rows


def _classify_levels(values, mus, gammas) -> list:
    """Mode class of each level of each row of ``values``, the eigenvalues of
    ``build_ssh(n, mus[i], gammas[i])``.

    Row ``i`` becomes ``(codes, pair, psi)`` or the
    :class:`ClassificationError` or ``RuntimeError`` that refused it.
    ``codes`` indexes ``_MODE_CLASSES`` level by level; ``pair`` holds the
    indices of the coalescing levels and ``psi`` the closed-form zero mode
    that certified them, both ``None`` off the locus.  The classes follow
    the rules of :func:`classify_modes`.
    """
    values = np.asarray(values, dtype=complex)
    n = values.shape[1]
    magnitudes = np.abs(values)
    scales = [s if s > 0 else 1.0 for s in magnitudes.max(axis=1, initial=0.0).tolist()]
    threshold = CLASS_TOLERANCE * np.array(scales)[:, None]
    codes = np.where(np.abs(values.imag) <= threshold, _REAL,
                     np.where(np.abs(values.real) <= threshold, _IMAGINARY, -1))
    nearest = np.argsort(magnitudes, axis=1, kind="stable")[:, :3]
    smallest = magnitudes[np.arange(len(values))[:, None], nearest].tolist()
    rows = [None] * len(values)
    pairs = {}
    for i, (mu, gamma, scale) in enumerate(zip(mus, gammas, scales)):
        if not model.on_locus(mu, n, abs(gamma)):
            continue
        _, second, third = smallest[i]
        if third <= PAIR_SEPARATION * second:
            rows[i] = ClassificationError(
                f"no isolated zero pair: the third smallest |eps|, {third:.3e}, "
                f"is under {PAIR_SEPARATION:g} times the second, {second:.3e}")
        elif second > EP_TOLERANCE * scale:
            rows[i] = ClassificationError(
                f"zero pair |eps| {second:.3e} exceeds the exceptional-point "
                f"width {EP_TOLERANCE * scale:.3e}")
        else:
            pairs[i] = tuple(sorted(nearest[i, :2].tolist()))
    certified = _certify_zero_mode(n, [mus[i] for i in pairs], [gammas[i] for i in pairs])
    psis = {}
    for (i, pair), psi in zip(pairs.items(), certified):
        if isinstance(psi, Exception):
            rows[i] = psi
        else:
            codes[i, list(pair)] = _ZERO
            psis[i] = psi
    unclassified = (codes < 0).any(axis=1).tolist()
    for i, row in enumerate(rows):
        if row is None and unclassified[i]:
            value = complex(values[i, np.argmax(codes[i] < 0)])
            rows[i] = ClassificationError(
                f"eigenvalue {value} is neither real nor imaginary at threshold "
                f"{threshold[i, 0]:.3e}; off the coalescence locus")
        elif row is None:
            rows[i] = (codes[i], pairs.get(i), psis.get(i))
    return rows


def _census(codes) -> ModeCensus:
    n_s, n_zero, n_i = np.bincount(codes, minlength=3).tolist()
    return ModeCensus(n_I=n_i, n_EP=n_zero // 2, n_S=n_s, n=len(codes))


def classify_modes(es: EigenSystem, mu: float, gamma: float) -> Classification:
    """Assign every level of an eigensystem ``es`` of ``build_ssh(n, mu, gamma)``
    (:func:`chain_eigensystem` or :func:`eig`) a mode class.

    On the coalescence locus (:func:`~.model.on_locus`), and on its mirror
    ``-gamma_ep``, where the chain is site-reversed, the coalescing pair
    is the two eigenvalues of least modulus.  They are refused with
    :class:`ClassificationError` unless the third lies more than
    ``PAIR_SEPARATION`` times farther out than the second and both lie
    within ``EP_TOLERANCE * scale`` of zero; the closed-form zero mode must
    then pass :func:`_certify_zero_mode`.  Off the locus there is no pair.
    Every other eigenvalue is a real scattering level when its imaginary
    part is at most ``CLASS_TOLERANCE * scale``, an imaginary evanescent
    level when instead its real part is; one exceeding the threshold in both
    parts raises :class:`ClassificationError`.

    This is the stack of one of :func:`classify_stack`.
    """
    return _served(classify_stack([es], [mu], [gamma])[0])


def classify_stack(systems, mus, gammas) -> list:
    """:func:`classify_modes` of each row of a stack of eigensystems of one
    dimension, ``systems[i]`` of ``build_ssh(n, mus[i], gammas[i])``.

    Row ``i`` is the chain's :class:`Classification`, or the
    :class:`ClassificationError` or ``RuntimeError`` that refused it; the
    other rows are still served.  A row of ``systems`` that is an error (see
    :func:`chain_eigensystems`) stays that error.  The three inputs must
    have one length (else ``ValueError``).
    """
    _same_lengths(systems=systems, mus=mus, gammas=gammas)
    rows = list(systems)
    solved = [i for i, es in enumerate(systems) if isinstance(es, EigenSystem)]
    if not solved:
        return rows
    levels = _classify_levels(np.array([systems[i].eigenvalues for i in solved]),
                              [mus[i] for i in solved], [gammas[i] for i in solved])
    for i, level in zip(solved, levels):
        if isinstance(level, Exception):
            rows[i] = level
        else:
            codes, pair, psi = level
            rows[i] = Classification(systems[i], codes, list(pair or ()), psi)
    return rows


@dataclass(frozen=True, eq=False)
class Classification:
    """The mode classes of the levels of one eigensystem ``es``, as arrays.

    ``codes`` indexes ``_MODE_CLASSES`` level by level, ``pair`` lists the
    indices of the coalescing levels and ``psi`` is the closed-form zero
    mode that certified them (``[]`` and ``None`` off the locus).  Every
    property reads these arrays.
    """

    es: EigenSystem
    codes: np.ndarray
    pair: list
    psi: np.ndarray | None

    @property
    def biorth(self) -> complex | None:
        """The pair's closed-form ``<eta|psi> = psi^T psi``."""
        return None if self.psi is None else complex(self.psi @ self.psi)

    @property
    def census(self) -> ModeCensus:
        return _census(self.codes)

    @property
    def mode_classes(self) -> list[ModeClass]:
        """The :class:`ModeClass` of each level."""
        return [_MODE_CLASSES[code] for code in self.codes.tolist()]

    @property
    def real(self) -> np.ndarray:
        """Mask of the real scattering levels."""
        return self.codes == _REAL

    @property
    def imaginary(self) -> np.ndarray:
        """Mask of the imaginary evanescent levels."""
        return self.codes == _IMAGINARY

    @property
    def coalesced(self) -> np.ndarray:
        """The eigenvalues with the pair at its centroid, the raw numerically
        split values of which remain in ``es``."""
        values = np.array(self.es.eigenvalues, dtype=complex)
        if self.pair:
            values[self.pair] = complex(values[self.pair].mean())
        return values


def chain_census(n: int, mu: float, gamma: float) -> ModeCensus:
    """Census of ``build_ssh(n, mu, gamma)`` from the eigenvalues alone,
    classified as in :func:`classify_modes`.

    The levels come from one real, eigenvalues-only LAPACK solve of the
    similar real form ``M`` (:func:`~.model.build_ssh_real`) at ``|gamma|``:
    ``M(-gamma) = M(gamma)^T`` has the same spectrum, and the classes keep
    the sign, so that ``-gamma_ep`` certifies the site-reversed zero mode.
    ``M`` is bipartite: every bond and both corners join an even site to an
    odd one.  So ``M^2 = diag(B C, C B)``, with ``B = M[0::2, 1::2]`` and
    ``C = M[1::2, 0::2]``, and each eigenvalue ``x`` of the ``n/2 x n/2``
    matrix ``B C``, or of ``C B``, which shares them, gives the level pair
    ``+/- sqrt(x)``.

    On the locus with ``gamma <= 1`` (that is, ``mu >= 1``) the levels are
    taken from the product on the sublattice of the zero mode
    (:func:`_sublattice_product`), as :func:`chain_eigensystem` takes them.
    Its norm is at most ``(1 + mu)^2``, so ``x`` is accurate to about
    ``2^-52 (1 + mu)^2``; a real ``x`` gives an exactly real or imaginary
    level; and the EP pair comes from one simple ``x`` near zero, which the
    pair rule reads whatever its sign.  On the locus with ``gamma >=
    SPLIT_GAMMA`` the two end sites are split off as the levels ``+/- i
    gamma``, and the other ``n - 2`` come from the ``(n/2 - 1) x (n/2 -
    1)`` product of the inner chain, again well scaled.  Everywhere else
    ``M`` itself is solved.  For ``|gamma| > 1`` a diagonal entry ``1 -
    gamma^2`` of either product of ``M`` swamps the pair's ``x``, and loses
    it once ``gamma^2 > 2^53``.  Off the locus no pair rule applies, and the
    class threshold ``CLASS_TOLERANCE * scale`` is finer than ``sqrt`` of
    the noise in ``x``: a real level near zero, as in the Hermitian chain at
    ``mu > 1``, can come out of the product imaginary.
    """
    m = model.build_ssh_real(n, mu, abs(gamma))
    route = _sublattice_product(m, n, mu, abs(gamma))
    if route is None:
        values = np.linalg.eigvals(m)
    else:
        values = _product_levels(np.linalg.eigvals(route[3]))
        if route[0]:
            values = np.concatenate([values, _end_levels(abs(gamma))])
    codes, _, _ = _served(_classify_levels(values[None], [mu], [gamma])[0])
    return _census(codes)


def coalesced_eigenvalues(es: EigenSystem) -> np.ndarray:
    """Eigenvalues with each coalescence cluster replaced by its centroid.

    The numerical splitting of a defective pair is of order
    sqrt(machine epsilon); the centroid cancels its leading term and is the
    right quantity to compare against analytic spectra.
    """
    values = es.eigenvalues.copy()
    for cluster in detect_coalescence(es):
        values[list(cluster.indices)] = cluster.eigenvalue
    return values


def match_multisets(a, b) -> float:
    """Greedy nearest-neighbor distance between two complex multisets.

    Walks ``a`` in (real, imaginary) order, pairs each value with the
    nearest still unpaired value of ``b`` (:func:`_greedy_pairing`) and
    returns the largest pairing distance; raises if the lengths differ.
    Used to compare spectra coming from independent routes.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.size != b.size:
        raise ValueError(f"multiset sizes differ: {a.size} vs {b.size}")
    if not a.size:
        return 0.0
    a = a[_sort_by_re_im(a)]
    d = a[:, None] - b[None, :]
    # hypot, as Python's abs(complex); np.abs can differ from it by an ulp,
    # which flips the greedy choice on near-ties
    gaps = np.hypot(d.real, d.imag)
    return float(np.max(gaps[np.arange(a.size), _greedy_pairing(gaps)]))
