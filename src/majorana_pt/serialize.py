"""Deterministic JSON / CSV / text encodings of the library objects.

Complex numbers are serialized as ``[re, im]`` pairs in JSON and as two
adjacent columns in CSV; floats use the shortest round-trip representation,
so identical inputs produce byte-identical artifacts.  The exact layouts are
documented in docs/FORMATS.md.
"""

from __future__ import annotations

import json
import os

import numpy as np

__all__ = [
    "complex_pair",
    "matrix_to_text",
    "eigensystem_to_json",
    "spectrum_csv",
    "census_csv",
    "sweep_csv",
    "roots_to_json",
    "roots_csv",
    "zero_mode_csv",
    "dump_json",
    "atomic_write",
]


def _f(x) -> float:
    """Plain float for JSON (round-trip repr happens in json.dumps)."""
    return float(x)


def complex_pair(z) -> list[float]:
    z = complex(z)
    return [_f(z.real), _f(z.imag)]


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


def eigensystem_to_json(es) -> dict:
    return {
        "dim": es.dim,
        "eigenvalues": [complex_pair(z) for z in es.eigenvalues],
        "residuals": [_f(r) for r in es.residuals],
        "left_residuals": [_f(r) for r in es.left_residuals],
        "biorth_norms": [complex_pair(z) for z in es.biorth_norms],
        "norm_inf": _f(es.norm_inf),
    }


def _csv(config_lines, header: str, rows) -> str:
    """``# key=value`` comment lines, the header, then one line per row."""
    lines = [f"# {line}" for line in config_lines] + [header, *rows]
    return "\n".join(lines) + "\n"


SPECTRUM_HEADER = "re,im,residual,biorth_re,biorth_im,mode_class"


def spectrum_csv(es, records, config_lines=()) -> str:
    """CSV ``re,im,residual,biorth_re,biorth_im,mode_class``, one row per level."""
    rows = []
    for i, record in enumerate(records):
        z, b = complex(es.eigenvalues[i]), complex(es.biorth_norms[i])
        rows.append(f"{z.real!r},{z.imag!r},{float(es.residuals[i])!r},{b.real!r},"
                    f"{b.imag!r},{record.mode_class.value}")
    return _csv(config_lines, SPECTRUM_HEADER, rows)


CENSUS_HEADER = "N,mu,gamma,n_I,n_EP,n_S"
SWEEP_HEADER = "N,mu,gamma,n_I,n_EP,n_S,edge_modes"


def census_csv(rows, config_lines=()) -> str:
    """CSV ``N,mu,gamma,n_I,n_EP,n_S``; rows are (n, mu, gamma, census)."""
    return _csv(config_lines, CENSUS_HEADER, (
        f"{n},{mu!r},{gamma!r},{census.n_I},{census.n_EP},{census.n_S}"
        for n, mu, gamma, census in rows
    ))


def sweep_csv(points, config_lines=()) -> str:
    return _csv(config_lines, SWEEP_HEADER, (
        f"{p.n},{p.mu!r},{p.gamma!r},{p.census.n_I},{p.census.n_EP},"
        f"{p.census.n_S},{p.edge_modes}"
        for p in points
    ))


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
    rows = []
    for r in roots:
        k, e = complex(r.k), complex(r.epsilon)
        sign = "+" if r.branch > 0 else "-"
        rows.append(f"{k.real!r},{k.imag!r},{sign},{r.sector},{e.real!r},"
                    f"{e.imag!r},{r.residual!r}")
    return _csv(config_lines, ROOTS_HEADER, rows)


ZERO_MODE_HEADER = "j,re,im,P_j"


def zero_mode_csv(wavefunction, config_lines=()) -> str:
    """CSV ``j,re,im,P_j`` over the chain sites (1-based)."""
    amps = (complex(amp) for amp in wavefunction.amplitudes)
    return _csv(config_lines, ZERO_MODE_HEADER, (
        f"{j},{amp.real!r},{amp.imag!r},{abs(amp)!r}"
        for j, amp in enumerate(amps, start=1)
    ))


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
