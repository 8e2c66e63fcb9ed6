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
chain with one real solve, and keeps the eigensystem in the chain's real
form ``M = Q^dag h Q``: every residual and overlap is read from ``M``'s
vectors, ``left = conj(right)`` with the same residuals, and the complex
vectors are lifted only when first read.  The overlaps ``v_i^T v_i`` have a
basis-dependent phase, so only their modulus is meaningful.  On the locus
with ``mu >= 1`` that solve is of the ``n/2 x n/2`` sublattice product that
:func:`chain_census` solves there, and with ``gamma >= SPLIT_GAMMA`` (``mu
< 1``) of the ``(n/2 - 1) x (n/2 - 1)`` product of the inner chain, the two
end sites split off as the evanescent pair ``+/- i gamma``; the coalescing
pair's two rows then share one solver vector, the product's null vector,
and its residual is taken at ``eps = 0``.  There the residuals come from the
half-size solve too, so past ``M`` itself no ``n x n`` array is formed but
its vectors.
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
``M``.  Off the locus the product can read a real level near zero as
imaginary.  On the locus with ``1 < gamma < SPLIT_GAMMA`` its diagonal
entries ``1 - gamma^2`` swamp the pair's ``x`` without losing it at the
points measured: the product's census is ``M``'s, or both refuse, at all but
two points of a scan with mu from 0.2 to 0.9999 and ``n`` from 4 to 1000,
where the product refuses a pair that ``M`` certifies (ROADMAP item 11).

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
from functools import cached_property

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
    vectors : np.ndarray
        Unit-norm eigenvector columns.  From :func:`eig` the right vectors.
        From :func:`chain_eigensystem` the vectors ``V`` of the chain's real
        form ``M = Q^dag h Q`` at ``|gamma|`` (:func:`~.model.build_ssh_real`,
        ``Q = (I + i P) / sqrt(2)``, ``P`` the site reversal), from which
        ``right`` is lifted; on its product routes (the locus with ``mu >=
        1`` or ``gamma >= SPLIT_GAMMA``) the coalescing pair's two columns
        are one vector, the null vector of the sublattice product.
    left_vectors : np.ndarray or None
        From :func:`eig` the left vectors: ``left_vectors[:, i]`` is a unit
        eigenvector of the conjugate transpose for ``conj(eigenvalues[i])``.
        Of a ring both sets are lifted from the chain's vectors ``x`` and
        ``conj(x)`` (:func:`_ring_eigenvectors`); of any other matrix the left
        vectors come from a second solve, of the conjugate transpose, paired
        greedily by nearest eigenvalue.  ``None`` from
        :func:`chain_eigensystem`, where ``left = conj(right)``.
    residuals, left_residuals : np.ndarray
        Per-column residual magnitudes of the unit right and left pairs,
        each against its own eigenvalue, except the shared pair columns of
        :func:`chain_eigensystem` on its product routes, taken at ``eps =
        0``.  From :func:`chain_eigensystem` they are one array, read from
        the real form (see there).
    biorth_norms : np.ndarray
        Complex overlaps ``<left_i|right_i>`` of the unit-norm pairs; these
        approach zero when two levels coalesce.  Only the modulus is
        independent of the phases the solver gave the vectors.
    norm_inf : float
        Infinity norm of the decomposed matrix, for residual scaling.
    mirrored : bool
        From :func:`chain_eigensystem` at ``gamma < 0``, where ``right`` is
        ``P Q V``: ``h(-gamma) = P h(gamma) P``.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    left_vectors: np.ndarray | None
    residuals: np.ndarray
    left_residuals: np.ndarray
    biorth_norms: np.ndarray
    norm_inf: float
    mirrored: bool = False

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def scale(self) -> float:
        """Largest eigenvalue magnitude (1.0 for the zero matrix)."""
        s = float(np.max(np.abs(self.eigenvalues))) if self.dim else 0.0
        return s if s > 0 else 1.0

    @cached_property
    def right(self) -> np.ndarray:
        """The unit right vectors as columns: ``vectors`` from :func:`eig`;
        from :func:`chain_eigensystem` ``Q V = (V + i V[::-1]) / sqrt(2)``,
        reversed site for site when ``mirrored``, lifted on first read."""
        if self.left_vectors is not None:
            return self.vectors
        v = self.vectors
        first, second = (v[::-1], v) if self.mirrored else (v, v[::-1])
        return (first + 1j * second) / np.sqrt(2)

    @cached_property
    def left(self) -> np.ndarray:
        """The unit left vectors as columns: ``conj(right)`` from
        :func:`chain_eigensystem`, lifted on first read."""
        return self.right.conj() if self.left_vectors is None else self.left_vectors


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


def _bounded(es: EigenSystem):
    """``es``, or the ``RuntimeError`` naming its worst residual over
    ``RESIDUAL_TOLERANCE * norm_inf``."""
    bound = RESIDUAL_TOLERANCE * max(es.norm_inf, 1e-300)
    for label, residuals in (("right", es.residuals), ("left", es.left_residuals)):
        if np.max(residuals, initial=0.0) > bound:
            worst = int(np.argmax(residuals))
            return RuntimeError(f"{label} eigenpair {worst} residual "
                                f"{residuals[worst]:.3e} exceeds {bound:.3e}")
    return es


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
    and ``a^dag``, and ``biorth = sum(conj(left) * right)``.

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

    def unit_and_residuals(vectors, eps, matrix):
        vectors = vectors / np.linalg.norm(vectors, axis=0, keepdims=True)
        return vectors, np.abs(matrix @ vectors - vectors * eps).max(axis=0, initial=0.0)

    right, residuals = unit_and_residuals(right, values, a)
    left, left_residuals = unit_and_residuals(left, left_values, adjoint)
    biorth = np.einsum("ij,ij->j", left.conj(), right)
    return _served(_bounded(EigenSystem(values, right, left, residuals, left_residuals,
                                        biorth, norm_inf)))


def chain_eigensystem(n: int, mu: float, gamma: float) -> EigenSystem:
    """:func:`eig` of ``build_ssh(n, mu, gamma)`` from one real solve.

    The real form ``M = Q^dag h Q`` (:func:`~.model.build_ssh_real`) is
    solved, and the eigensystem is kept in it: ``vectors`` are ``M``'s unit
    vectors ``V``, and ``right = Q V = (V + i V[::-1]) / sqrt(2)`` and
    ``left = conj(right)`` are lifted only when first read.  On the locus
    with ``gamma <= 1`` the one ``np.linalg.eig`` call is of the ``n/2 x
    n/2`` sublattice product of ``M`` (:func:`_sublattice_product`), and the
    coalescing pair's two levels ``+/- sqrt(x)`` share one vector, the
    product's null vector, whose residual is taken at ``eps = 0``.  On the
    locus with ``gamma >= SPLIT_GAMMA`` it is of the ``(n/2 - 1) x (n/2 -
    1)`` product of the inner chain, with the pair as above; each vector
    gains its two end rows, and the evanescent pair ``+/- i gamma`` lives on
    the end sites (:func:`_end_sites`).  Elsewhere it is of ``M``.
    Each route is taken at ``|gamma|``: ``h(-gamma) = P h(gamma) P``, ``P``
    the site reversal, so for ``gamma < 0`` (``mirrored``) ``right`` is
    reversed site for site, and the mirrored locus ``-gamma_ep`` takes the
    routes of the locus.

    ``h`` is complex symmetric, so ``left = conj(right)``: no second solve,
    no pairing, and ``left_residuals`` is ``residuals``.  ``Q`` is unitary,
    so every reported number comes from the real form.  With ``r = M v - s
    v`` for a vector ``v`` of ``M`` at its shift ``s`` (the level, or 0 for
    the pair on a product route), ``h Q v - s Q v = Q r``, and
    ``residuals = max_j |r_j + i r_{n-1-j}| / (sqrt(2) |v|)``; since ``Q^T
    Q = i P``, ``biorth_norms = i sum_j v_j v_{n-1-j} / |v|^2``.  On the
    product routes ``r`` comes from the half-size solve
    (:func:`_product_parts`), so no ``n x n`` array is formed but ``V``;
    elsewhere ``M v`` is applied bond by bond.  The residuals are bounded
    as in :func:`eig`.  This is the stack of one of
    :func:`chain_eigensystems`.
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
    evanescent pair ``+/- i gamma`` (:func:`_end_sites`).
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


def _norms2(v: np.ndarray) -> np.ndarray:
    """``|v|^2`` along the last axis."""
    return (v * v.conj()).real.sum(axis=-1)


def _folds(v: np.ndarray) -> np.ndarray:
    """``sum_j v_j v_{n-1-j}`` along the last axis: ``-i (Q v)^T (Q v)``."""
    return (v * v[..., ::-1]).sum(axis=-1)


def _apply_real(mus: np.ndarray, gammas: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``build_ssh_real(n, mus[i], gammas[i]) @ v[i, j]`` for every vector
    ``v[i, j]`` of a stack of ``(s, levels, n)``, bond by bond."""
    n = v.shape[-1]
    bonds = model._bonds(n, mus).T[:, None, :]
    mv = np.zeros(v.shape, dtype=np.result_type(v, float))
    mv[..., :-1] += bonds * v[..., 1:]
    mv[..., 1:] += bonds * v[..., :-1]
    mv[..., 0] -= gammas[:, None] * v[..., -1]
    mv[..., -1] += gammas[:, None] * v[..., 0]
    return mv


def _lifted_peaks(r: np.ndarray) -> np.ndarray:
    """``max_j |r_j + i r_{n-1-j}|`` along the last axis: ``sqrt(2) max |Q r|``."""
    return np.abs(r + 1j * r[..., ::-1]).max(axis=-1, initial=0.0)


def _full_route(mus, gammas, levels, v):
    """``(levels, vectors, peaks, norms2, folds)`` of a stack of chains from
    ``np.linalg.eig`` of their real forms ``M``, sorted level by level.

    ``vectors[i, j]`` is the unit real-form vector of ``levels[i, j]``, and
    ``peaks``, ``norms2`` and ``folds`` are ``max_j |r_j + i r_{n-1-j}|``
    (:func:`_lifted_peaks`), ``|v|^2`` and ``sum_j v_j v_{n-1-j}`` of the
    solver's vector ``v``, with ``r = M v - eps v`` applied bond by bond.
    """
    rows, order = np.arange(len(levels))[:, None], _sort_by_re_im(levels)
    levels = levels[rows, order]
    vectors = v.transpose(0, 2, 1)[rows, order]  # level by level, a copy
    peaks = _lifted_peaks(_apply_real(mus, gammas, vectors) - levels[..., None] * vectors)
    norms2, folds = _norms2(vectors), _folds(vectors)
    vectors /= np.sqrt(norms2)[..., None]
    return levels.astype(complex), vectors, peaks, norms2, folds


def _product_parts(outward, product, x, w):
    """The levels of a stack of chains from the eigenpairs ``(x, w)`` of
    their sublattice products (:func:`_sublattice_product`), unsorted:
    ``+sqrt(x)``, then ``-sqrt(x)``.

    Returns ``(levels, own, other, peaks, norms2, folds, kw)``.  Level
    ``j``'s real-form vector ``v`` is ``own[:, j] w`` on the own sites next
    to ``other[:, j] kw`` on the other, with ``kw = outward @ w`` and both
    at column ``j mod n/2``: ``own`` is the level and ``other`` is 1, except
    for the pair, the ``x`` of least modulus, whose two levels both take
    the product's null vector, ``own = 1`` and ``other = 0``, at the shift
    0; the other shifts are the levels, ``levels * other`` in all.  ``r = M
    v - shift v`` vanishes off the own sites and is ``product @ w - x w`` on
    them, one residual for both levels ``+/- sqrt(x)``; the pair's is
    ``kw`` on the other sites.  The site reversal maps own site ``a`` to
    other site ``n/2 - 1 - a``, so each ``|r_j + i r_{n-1-j}|`` is one
    ``|r_j|``, and ``sum_j v_j v_{n-1-j} = 2 own other sum_a w_a
    kw_{n/2-1-a}``.  ``peaks``, ``norms2`` and ``folds`` are these as in
    :func:`_full_route`, of the unnormalised ``v``.
    """
    half = x.shape[1]
    levels = _product_levels(x)
    kw = outward @ w
    pair = np.argmin(np.abs(x), axis=1)
    in_pair = np.arange(2 * half) % half == pair[:, None]
    own, other = np.where(in_pair, 1.0, levels), np.where(in_pair, 0.0, 1.0)

    def doubled(a):  # a value of each column for both its levels
        return np.concatenate([a, a], axis=-1)

    pair_peaks = np.abs(kw[np.arange(len(x)), :, pair]).max(axis=-1, initial=0.0)
    peaks = np.where(in_pair, pair_peaks[:, None],
                     doubled(np.abs(product @ w - w * x[:, None, :]).max(axis=-2)))
    columns, kw_columns = w.transpose(0, 2, 1), kw.transpose(0, 2, 1)
    norms2 = ((own * own.conj()).real * doubled(_norms2(columns))
              + other * doubled(_norms2(kw_columns)))
    folds = 2 * own * other * doubled((columns * kw_columns[..., ::-1]).sum(axis=-1))
    return levels, own, other, peaks, norms2, folds, kw


def _end_sites(mus, gammas, levels, own, other, w, kw, own_sites):
    """The two end sites of a stack of chains on the split route
    (:func:`_sublattice_product`): ``(head, tail, ends, evanescent)``, for
    the inner levels of :func:`_product_parts` of ``n - 2`` sites.

    An inner vector ``u`` at its shift ``eps`` gains the end rows ``[u_0,
    u_{n-1}] = [head, tail] = [[eps, -gamma], [gamma, eps]] [u_1, u_{n-2}] /
    (eps^2 + gamma^2)``, written in ``t = eps / gamma`` so that ``gamma^2``
    does not overflow; they solve the end rows of ``M v = eps v``, so ``r``
    is the inner chain's there and zero on the end sites, up to the terms
    the Schur complement drops.  The evanescent pair, the levels ``ends =
    +/- i gamma``, has the vectors ``evanescent``: ``(1, -/+ i)`` on the end
    sites, and on the inner ones the response ``(eps - K)^-1 b`` to the end
    values ``b`` that the unit end bonds carry to sites 1 and ``n - 2``,
    from the first three terms of its Neumann series in ``K / eps``, ``K``
    the inner block of the real form, applied bond by bond; the next term is
    under ``(2 / gamma)^3``.  The true pair lies within ``1 / gamma`` of
    ``+/- i gamma``, under half an ulp of ``gamma``.
    """
    s, k = levels.shape
    # inner site 0 is on the even sublattice and inner site k - 1 on the odd
    w_ends, kw_ends = (np.tile(a[:, [0, -1], :], 2) for a in (w, kw))
    own_ends, other_ends = own[:, None] * w_ends, other[:, None] * kw_ends
    first, last = ((own_ends[:, 0], other_ends[:, 1]) if own_sites == 0
                   else (other_ends[:, 0], own_ends[:, 1]))
    g = gammas[:, None]
    t = levels * other / g
    scale = g * (1.0 + t * t)
    ends = _end_levels(gammas)
    evanescent = np.zeros((s, 2, k + 2), dtype=complex)
    evanescent[:, :, 0], evanescent[:, :, -1] = 1.0, [-1j, 1j]
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
    evanescent[:, :, 1:-1] = response / ends[:, :, None]
    return (t * first - last) / scale, (first + t * last) / scale, ends, evanescent


def _write_product_vectors(out, own_sites, w, kw, columns, own, other) -> None:
    """Write ``own w[:, columns]`` to the own sites and ``other
    kw[:, columns]`` to the other sites of the vectors ``out``, one chain's
    level by level: the real-form vectors of :func:`_product_parts`.  The
    levels go in blocks of 128, so that the gathered columns stay small."""
    other_sites = slice(1 - own_sites.start, None, 2)
    for start in range(0, len(columns), 128):
        block = slice(start, start + 128)
        np.multiply(w[:, columns[block]].T, own[block, None], out=out[block, own_sites])
        np.multiply(kw[:, columns[block]].T, other[block, None], out=out[block, other_sites])


def _product_route(own_sites, outward, product, x, w, mus=None, gammas=None):
    """``(levels, vectors, peaks, norms2, folds)`` of a stack of chains on a
    product route, as :func:`_full_route` gives them, from the eigenpairs
    ``(x, w)`` of their sublattice products (:func:`_product_parts`).

    With ``gammas`` the chains are on the split route: ``w`` is of the inner
    chains, each inner vector gains its end rows and the evanescent pair
    joins the levels (:func:`_end_sites`), with its residuals applied bond by
    bond.  Each chain's unit vectors are written into one array, level by
    level in sorted order.
    """
    levels, own, other, peaks, norms2, folds, kw = _product_parts(outward, product, x, w)
    s, k = levels.shape
    inner = slice(None)
    parts = [levels, own, other, peaks, norms2, folds]
    if gammas is not None:
        inner = slice(1, -1)
        head, tail, ends, evanescent = _end_sites(mus, gammas, levels, own, other, w, kw,
                                                  own_sites)
        norms2 = norms2 + (head * head.conj()).real + (tail * tail.conj()).real
        folds = folds + 2 * head * tail
        end_peaks = _lifted_peaks(_apply_real(mus, gammas, evanescent)
                                  - ends[:, :, None] * evanescent)
        zeros = np.zeros((s, 2))
        parts = [np.concatenate(pair, axis=1) for pair in (
            (levels, ends), (own, zeros), (other, zeros), (peaks, end_peaks),
            (norms2, _norms2(evanescent)), (folds, _folds(evanescent)),
            (head, zeros), (tail, zeros))]
    rows, order = np.arange(s)[:, None], _sort_by_re_im(parts[0])
    levels, own, other, peaks, norms2, folds, *end_rows = (part[rows, order] for part in parts)
    scale = 1.0 / np.sqrt(norms2)
    vectors = np.empty((s,) + levels.shape[-1:] * 2, dtype=complex)
    for i, source in enumerate(order):
        solved = source < k  # the evanescent pair takes column 0, then its own vectors
        _write_product_vectors(vectors[i, :, inner], slice(own_sites, None, 2), w[i], kw[i],
                               np.where(solved, source, 0) % (k // 2),
                               own[i] * scale[i], other[i] * scale[i])
        if end_rows:
            vectors[i, :, 0], vectors[i, :, -1] = (part[i] * scale[i] for part in end_rows)
            at_ends = np.flatnonzero(~solved)
            vectors[i, at_ends] = evanescent[i, source[at_ends] - k] * scale[i, at_ends, None]
    return levels, vectors, peaks, norms2, folds


def _route_stacks(n: int, mus: np.ndarray, sizes: np.ndarray) -> list:
    """The chains of a stack grouped by route, as ``(rows, split, own,
    matrices, outward)``: ``split`` is ``None`` for the ``n x n`` real forms
    ``matrices``; else ``matrices`` are the sublattice products of
    :func:`_sublattice_product`, with its ``split``, ``own`` and
    ``outward``.  The real forms themselves are dropped on return."""
    m = [model.build_ssh_real(n, mu, size) for mu, size in zip(mus, sizes)]
    routes = [_sublattice_product(mi, n, mu, size) for mi, mu, size in zip(m, mus, sizes)]
    full = [i for i, route in enumerate(routes) if route is None]
    stacks = [(full, None, None, np.array([m[i] for i in full]), None)] if full else []
    for split in (False, True):
        halved = [i for i, route in enumerate(routes) if route and route[0] == split]
        if halved:
            stacks.append((halved, split, routes[halved[0]][1],
                           np.array([routes[i][3] for i in halved]),
                           np.array([routes[i][2] for i in halved])))
    return stacks


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
    norms_inf = (1.0 + np.maximum(mus, sizes)).tolist()
    systems = [None] * len(mus)
    for index, split, own, matrices, outward in _route_stacks(n, mus, sizes):
        try:
            solved = np.linalg.eig(matrices)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - backend failure
            raise RuntimeError(f"eigensolver did not converge: {exc}") from exc
        if split is None:
            solved = _full_route(mus[index], sizes[index], *solved)
        elif split:
            solved = _product_route(own, outward, matrices, *solved, mus[index], sizes[index])
        else:
            solved = _product_route(own, outward, matrices, *solved)
        levels, vectors, peaks, norms2, folds = solved
        residuals = peaks / (np.sqrt(2) * np.sqrt(norms2))
        biorth = 1j * folds / norms2 + 0.0  # + 0.0: no -0.0 parts
        for row, i in enumerate(index):
            systems[i] = _bounded(EigenSystem(
                levels[row], vectors[row].T, None, *[residuals[row]] * 2,
                biorth[row], norms_inf[i], bool(gammas[i] < 0)))
    return systems


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
