"""Deterministic JSON / CSV / text encodings of the library objects.

Complex numbers are serialized as ``[re, im]`` pairs in JSON and as two
adjacent columns in CSV; floats use the shortest round-trip representation,
so identical inputs produce byte-identical artifacts.  The exact layouts are
documented in docs/FORMATS.md.
"""

from __future__ import annotations

import io
import json
import os

import numpy as np

__all__ = [
    "complex_pair",
    "matrix_to_json",
    "matrix_from_json",
    "matrix_to_text",
    "eigensystem_to_json",
    "census_csv",
    "sweep_csv",
    "roots_to_json",
    "roots_csv",
    "zero_mode_csv",
    "distribution_csv",
    "dump_json",
    "atomic_write",
]


def _f(x) -> float:
    """Plain float for JSON (round-trip repr happens in json.dumps)."""
    return float(x)


def complex_pair(z) -> list[float]:
    z = complex(z)
    return [_f(z.real), _f(z.imag)]


def matrix_to_json(m: np.ndarray) -> dict:
    """``{"dim": d, "entries": [[re, im], ...]}`` with row-major entries."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return {
        "dim": int(m.shape[0]),
        "entries": [complex_pair(z) for z in m.reshape(-1)],
    }


def matrix_from_json(payload: dict) -> np.ndarray:
    dim = int(payload["dim"])
    entries = payload["entries"]
    if len(entries) != dim * dim:
        raise ValueError(f"expected {dim * dim} entries, got {len(entries)}")
    flat = np.array([complex(re, im) for re, im in entries])
    return flat.reshape(dim, dim)


def format_complex(z) -> str:
    """Single-token complex literal ``re+imi`` for text tables."""
    z = complex(z)
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def matrix_to_text(m: np.ndarray) -> str:
    """Tab-separated table with one ``re+imi`` entry per cell."""
    m = np.asarray(m, dtype=complex)
    lines = ["\t".join(format_complex(z) for z in row) for row in m]
    return "\n".join(lines) + "\n"


def eigensystem_to_json(es, include_vectors: bool = False) -> dict:
    payload = {
        "dim": es.dim,
        "eigenvalues": [complex_pair(z) for z in es.eigenvalues],
        "residuals": [_f(r) for r in es.residuals],
        "left_residuals": [_f(r) for r in es.left_residuals],
        "biorth_norms": [complex_pair(z) for z in es.biorth_norms],
        "norm_inf": _f(es.norm_inf),
    }
    if include_vectors:
        payload["right_vectors"] = [
            [complex_pair(z) for z in es.right[:, i]] for i in range(es.dim)
        ]
        payload["left_vectors"] = [
            [complex_pair(z) for z in es.left[:, i]] for i in range(es.dim)
        ]
    return payload


CENSUS_HEADER = "N,mu,gamma,n_I,n_EP,n_S"
SWEEP_HEADER = "N,mu,gamma,n_I,n_EP,n_S,edge_modes"


def census_csv(rows, config_lines=()) -> str:
    """CSV ``N,mu,gamma,n_I,n_EP,n_S``; rows are (n, mu, gamma, census)."""
    out = io.StringIO()
    for line in config_lines:
        out.write(f"# {line}\n")
    out.write(CENSUS_HEADER + "\n")
    for n, mu, gamma, census in rows:
        out.write(f"{n},{mu!r},{gamma!r},{census.n_I},{census.n_EP},{census.n_S}\n")
    return out.getvalue()


def sweep_csv(result, config_lines=()) -> str:
    out = io.StringIO()
    for line in config_lines:
        out.write(f"# {line}\n")
    out.write(SWEEP_HEADER + "\n")
    for p in result.points:
        out.write(
            f"{p.n},{p.mu!r},{p.gamma!r},{p.census.n_I},{p.census.n_EP},"
            f"{p.census.n_S},{p.edge_modes}\n"
        )
    return out.getvalue()


def roots_to_json(roots) -> list[dict]:
    return [
        {
            "k": complex_pair(r.k),
            "branch": "+" if r.branch > 0 else "-",
            "sector": r.sector,
            "epsilon": complex_pair(r.epsilon),
            "residual": _f(r.residual),
        }
        for r in roots
    ]


ROOTS_HEADER = "k_re,k_im,branch,sector,eps_re,eps_im,residual"


def roots_csv(roots, config_lines=()) -> str:
    out = io.StringIO()
    for line in config_lines:
        out.write(f"# {line}\n")
    out.write(ROOTS_HEADER + "\n")
    for r in roots:
        k, e = complex(r.k), complex(r.epsilon)
        sign = "+" if r.branch > 0 else "-"
        out.write(
            f"{k.real!r},{k.imag!r},{sign},{r.sector},{e.real!r},{e.imag!r},"
            f"{r.residual!r}\n"
        )
    return out.getvalue()


ZERO_MODE_HEADER = "j,re,im,P_j"


def zero_mode_csv(wavefunction, config_lines=()) -> str:
    """CSV ``j,re,im,P_j`` over the chain sites (1-based)."""
    out = io.StringIO()
    for line in config_lines:
        out.write(f"# {line}\n")
    out.write(ZERO_MODE_HEADER + "\n")
    for j, amp in enumerate(wavefunction.amplitudes, start=1):
        amp = complex(amp)
        out.write(f"{j},{amp.real!r},{amp.imag!r},{abs(amp)!r}\n")
    return out.getvalue()


DISTRIBUTION_HEADER = "j,P"


def distribution_csv(profile, config_lines=()) -> str:
    out = io.StringIO()
    for line in config_lines:
        out.write(f"# {line}\n")
    out.write(DISTRIBUTION_HEADER + "\n")
    for j, p in enumerate(profile.values, start=1):
        out.write(f"{j},{p!r}\n")
    return out.getvalue()


def dump_json(payload) -> str:
    """Canonical JSON: sorted keys, no whitespace variance, newline-terminated."""
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def atomic_write(path: str, content: str) -> None:
    """Write via a temporary file in the target directory, then rename.

    The file gets mode 0o666 less the umask, as a plain ``open`` would give.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-artifact-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
