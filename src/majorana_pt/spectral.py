"""Dense biorthogonal eigendecomposition and mode classification.

Everything downstream of the matrix builders rests on :func:`eig`: a dense
non-Hermitian eigensolver contract that pairs every right eigenvector with a
left eigenvector of the conjugate-transpose problem, verifies residuals, and
reports the biorthogonal overlaps ``<w_i|v_i>`` whose vanishing signals an
exceptional point.

:func:`detect_coalescence` groups numerically split eigenvalue pairs whose
eigenvectors have become parallel (the dense solver returns two nearly equal
eigenvalues rather than a Jordan block at an exceptional point), and
:func:`classify_modes` produces the (n_I, n_EP, n_S) census of real
scattering levels, coalescing zero modes, and imaginary evanescent levels.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .model import MAX_DIM

__all__ = [
    "Tolerances",
    "EigenSystem",
    "Coalescence",
    "ModeClass",
    "ModeRecord",
    "ModeCensus",
    "ClassificationError",
    "eig",
    "pseudo_hermiticity_check",
    "detect_coalescence",
    "classify_modes",
    "coalesced_eigenvalues",
    "match_multisets",
]


class ClassificationError(ValueError):
    """An eigenvalue fits no mode class: the chain is off the coalescence locus."""


@dataclass(frozen=True)
class Tolerances:
    """Tolerance bundle used by the eigensolver and the classifier.

    residual : right/left eigenpair residual bound, relative to the matrix
        infinity norm.
    mode_class : real/imaginary classification threshold, relative to the
        largest eigenvalue magnitude.
    ep : exceptional-point detection threshold: eigenvalue cluster width
        (relative to the largest eigenvalue magnitude), eigenvector
        parallelism deficit, and coalesced biorthogonal norm.
    """

    residual: float = 1e-11
    mode_class: float = 1e-8
    ep: float = 1e-6


DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True)
class EigenSystem:
    """Full eigensystem of a dense complex matrix.

    Attributes
    ----------
    eigenvalues : np.ndarray
        Sorted ascending by (real, imaginary) part.
    right, left : np.ndarray
        Unit-norm eigenvector columns.  The left vectors come from a second
        solve, of the conjugate transpose; ``left[:, i]`` is the one whose
        eigenvalue is paired greedily, by nearest distance, with
        ``conj(eigenvalues[i])``.
    residuals, left_residuals : np.ndarray
        Per-column residual magnitudes, each against its own eigenvalue.
    biorth_norms : np.ndarray
        Complex overlaps ``<left_i|right_i>`` of the unit-norm pairs; these
        approach zero when two levels coalesce.
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
    return np.lexsort((values.imag, values.real))


def _greedy_pairing(gaps: np.ndarray) -> np.ndarray:
    """Row by row, the column of least gap not taken by an earlier row."""
    free = gaps.copy()
    assignment = np.empty(len(gaps), dtype=int)
    for i, row in enumerate(free):
        assignment[i] = np.argmin(row)
        free[:, assignment[i]] = np.inf
    return assignment


def eig(a: np.ndarray, residual_tolerance: float | None = None) -> EigenSystem:
    """Dense eigendecomposition with verified residuals and left pairing.

    Parameters
    ----------
    a : np.ndarray
        Square complex matrix, dimension at most ``MAX_DIM``.
    residual_tolerance : float, optional
        Relative residual bound; defaults to ``Tolerances().residual``.

    Returns
    -------
    EigenSystem

    Raises
    ------
    ValueError
        On non-square or non-finite input, or dimension overflow.
    RuntimeError
        If the backend fails to converge or a residual exceeds the bound
        (the offending index is reported).
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {a.shape[0]} exceeds ceiling {MAX_DIM}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("matrix entries must be finite")
    if residual_tolerance is None:
        residual_tolerance = DEFAULT_TOLERANCES.residual
    n = a.shape[0]
    norm_inf = float(np.max(np.abs(a).sum(axis=1))) if n else 0.0

    try:
        values, right = np.linalg.eig(a)
        left_values, left = np.linalg.eig(a.conj().T)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - backend failure
        raise RuntimeError(f"eigensolver did not converge: {exc}") from exc

    order = _sort_by_re_im(values)
    values = values[order]
    right = right[:, order]
    right = right / np.linalg.norm(right, axis=0)

    # Greedy nearest-eigenvalue pairing of the left system to conj(values).
    gaps = np.abs(left_values[None, :] - values.conj()[:, None])
    assignment = _greedy_pairing(gaps)
    gaps = gaps[np.arange(n), assignment]
    scale = max(float(np.max(np.abs(values))), 1.0) if n else 1.0
    if n and float(np.max(gaps)) > 1e-3 * scale:
        worst = int(np.argmax(gaps))
        raise RuntimeError(
            f"left/right eigenvalue pairing conflict at index {worst} "
            f"(gap {gaps[worst]:.3e})"
        )
    left = left[:, assignment]
    left_values = left_values[assignment]
    left = left / np.linalg.norm(left, axis=0)

    residuals = np.max(np.abs(a @ right - right * values[None, :]), axis=0)
    left_residuals = np.max(
        np.abs(a.conj().T @ left - left * left_values[None, :]), axis=0
    )
    bound = residual_tolerance * max(norm_inf, 1e-300)
    for label, res in (("right", residuals), ("left", left_residuals)):
        if n and float(np.max(res)) > bound:
            worst = int(np.argmax(res))
            raise RuntimeError(
                f"{label} eigenpair {worst} residual {res[worst]:.3e} exceeds "
                f"{bound:.3e}"
            )
    biorth = np.einsum("ij,ij->j", left.conj(), right)
    return EigenSystem(
        eigenvalues=values,
        right=right,
        left=left,
        residuals=residuals,
        left_residuals=left_residuals,
        biorth_norms=biorth,
        norm_inf=norm_inf,
    )


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

    ``right_vector`` and ``left_vector`` are the dominant singular vectors of
    the clustered eigenvector sets; the numerical +/- splitting of the
    cluster members cancels in them, so ``biorth_norm = <left|right>`` of the
    coalesced pair reproduces the defective-point zero far more accurately
    than the per-member overlaps.
    """

    indices: tuple[int, ...]
    eigenvalue: complex
    right_vector: np.ndarray
    left_vector: np.ndarray
    biorth_norm: complex


def detect_coalescence(
    es: EigenSystem, ep_tolerance: float = DEFAULT_TOLERANCES.ep
) -> list[Coalescence]:
    """Find exceptional-point clusters in a computed eigensystem.

    A cluster is a set of indices whose eigenvalues agree within
    ``ep_tolerance * scale``, whose right eigenvectors are pairwise parallel
    (overlap modulus >= 1 - ep_tolerance), and whose coalesced left/right
    pair has ``|<left|right>| <= ep_tolerance``.  Returns an empty list when
    no exceptional point is present.
    """
    n = es.dim
    values = es.eigenvalues
    close = np.abs(values[:, None] - values[None, :]) <= ep_tolerance * es.scale
    parallel = np.abs(es.right.conj().T @ es.right) >= 1.0 - ep_tolerance
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    rows, cols = np.nonzero(np.triu(close & parallel, 1))
    for i, j in zip(rows.tolist(), cols.tolist()):
        parent[find(i)] = find(j)

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)

    clusters = []
    for members in groups.values():
        if len(members) < 2:
            continue
        idx = tuple(sorted(members))
        u_r, _, _ = np.linalg.svd(es.right[:, idx], full_matrices=False)
        u_l, _, _ = np.linalg.svd(es.left[:, idx], full_matrices=False)
        v_coal = _canonical_phase(u_r[:, 0])
        w_coal = _canonical_phase(u_l[:, 0])
        biorth = complex(np.vdot(w_coal, v_coal))
        if abs(biorth) > ep_tolerance:
            continue
        centroid = complex(np.mean(es.eigenvalues[list(idx)]))
        clusters.append(Coalescence(idx, centroid, v_coal, w_coal, biorth))
    clusters.sort(key=lambda c: (c.eigenvalue.real, c.eigenvalue.imag))
    return clusters


class ModeClass(enum.Enum):
    REAL_SCATTERING = "RealScattering"
    ZERO_COALESCING = "ZeroCoalescing"
    IMAGINARY_EVANESCENT = "ImaginaryEvanescent"


@dataclass(frozen=True)
class ModeRecord:
    """Classification of a single level.

    ``eigenvalue`` is the cluster centroid for coalescing levels (the raw
    numerically split values remain in the eigensystem) and the raw computed
    value otherwise.  ``biorth_norm`` is the coalesced-pair overlap for
    coalescing levels, the per-pair overlap otherwise.
    """

    index: int
    eigenvalue: complex
    mode_class: ModeClass
    biorth_norm: complex


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


def classify_modes(
    es: EigenSystem, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> tuple[list[ModeRecord], ModeCensus]:
    """Assign every eigenvalue a mode class and count the census.

    Coalescing zero modes are identified first via
    :func:`detect_coalescence`; every zero cluster must contain exactly two
    levels.  Remaining eigenvalues are real scattering levels when the
    imaginary part is below ``mode_class * scale``, imaginary evanescent
    levels when instead the real part is below threshold.  An eigenvalue
    exceeding the threshold in both parts signals a chain off the
    coalescence locus and raises :class:`ClassificationError`.
    """
    scale = es.scale
    threshold = tolerances.mode_class * scale
    clusters = detect_coalescence(es, tolerances.ep)
    zero_clusters = [c for c in clusters if abs(c.eigenvalue) <= threshold]

    class_by_index: dict[int, ModeRecord] = {}
    for cluster in zero_clusters:
        if len(cluster.indices) != 2:
            raise ClassificationError(
                f"zero-mode cluster of size {len(cluster.indices)}; expected a "
                "two-fold coalescence"
            )
        for i in cluster.indices:
            class_by_index[i] = ModeRecord(
                index=i,
                eigenvalue=cluster.eigenvalue,
                mode_class=ModeClass.ZERO_COALESCING,
                biorth_norm=cluster.biorth_norm,
            )

    records: list[ModeRecord] = []
    n_imag = n_real = 0
    for i, value in enumerate(es.eigenvalues):
        if i in class_by_index:
            records.append(class_by_index[i])
            continue
        value = complex(value)
        if abs(value.imag) <= threshold:
            mode = ModeClass.REAL_SCATTERING
            n_real += 1
        elif abs(value.real) <= threshold:
            mode = ModeClass.IMAGINARY_EVANESCENT
            n_imag += 1
        else:
            raise ClassificationError(
                f"eigenvalue {value} is neither real nor imaginary at "
                f"threshold {threshold:.3e}; off the coalescence locus"
            )
        records.append(
            ModeRecord(
                index=i,
                eigenvalue=value,
                mode_class=mode,
                biorth_norm=complex(es.biorth_norms[i]),
            )
        )
    census = ModeCensus(n_I=n_imag, n_EP=len(zero_clusters), n_S=n_real, n=es.dim)
    return records, census


def coalesced_eigenvalues(
    es: EigenSystem, ep_tolerance: float = DEFAULT_TOLERANCES.ep
) -> np.ndarray:
    """Eigenvalues with each coalescence cluster replaced by its centroid.

    The numerical splitting of a defective pair is of order
    sqrt(machine epsilon); the centroid cancels its leading term and is the
    right quantity to compare against analytic spectra.
    """
    values = es.eigenvalues.copy()
    for cluster in detect_coalescence(es, ep_tolerance):
        for i in cluster.indices:
            values[i] = cluster.eigenvalue
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
