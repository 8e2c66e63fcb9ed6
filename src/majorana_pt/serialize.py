"""Deterministic JSON / CSV / text encodings of the library objects.

Complex numbers are serialized as ``[re, im]`` pairs in JSON and as two
adjacent columns in CSV; floats use the shortest round-trip representation,
so identical inputs produce byte-identical artifacts.  The exact layouts are
documented in docs/FORMATS.md.

The JSON contract: :func:`dump_json` returns exactly ``json.dumps(payload,
sort_keys=True, separators=(",", ": "), indent=1) + "\\n"``.  Non-ASCII
characters are written as ``\\uXXXX`` escapes, and non-finite floats as
``NaN``, ``Infinity`` and ``-Infinity``.  The stdlib's indenting encoder is
pure Python, so :func:`dump_json` writes the common values itself (str keys
and values, finite floats, ints, bools, ``None``, and lists of finite floats
and of ``[re, im]`` pairs) and hands every other value to a
``json.JSONEncoder`` with the same settings.
"""

from __future__ import annotations

import json
import os
from json.encoder import encode_basestring_ascii

import numpy as np

__all__ = [
    "complex_pair",
    "complex_pairs",
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


def complex_pairs(values) -> list[list[float]]:
    """``[complex_pair(z) for z in values]``, from one array."""
    z = np.asarray(values, dtype=complex).reshape(-1)
    return np.stack([z.real, z.imag], axis=-1).tolist()


def eigensystem_to_json(es) -> dict:
    return {
        "dim": es.dim,
        "eigenvalues": complex_pairs(es.eigenvalues),
        "residuals": np.asarray(es.residuals, dtype=float).tolist(),
        "left_residuals": np.asarray(es.left_residuals, dtype=float).tolist(),
        "biorth_norms": complex_pairs(es.biorth_norms),
        "norm_inf": _f(es.norm_inf),
    }


def _csv(config_lines, header: str, rows) -> str:
    """``# key=value`` comment lines, the header, then one line per row."""
    lines = [f"# {line}" for line in config_lines] + [header, *rows]
    return "\n".join(lines) + "\n"


SPECTRUM_HEADER = "re,im,residual,biorth_re,biorth_im,mode_class"


def spectrum_csv(modes, config_lines=()) -> str:
    """CSV ``re,im,residual,biorth_re,biorth_im,mode_class``, one row per level
    of a classified chain ``modes`` (:class:`~.spectral.Classification`)."""
    es = modes.es
    rows = [f"{z.real!r},{z.imag!r},{residual!r},{b.real!r},{b.imag!r},{mode_class.value}"
            for z, residual, b, mode_class in zip(
                es.eigenvalues.tolist(), es.residuals.tolist(), es.biorth_norms.tolist(),
                modes.mode_classes)]
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


#: The stdlib encoder :func:`dump_json` hands the values it does not write itself.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ": "), indent=1)


def _floats(values, separator: str):
    """The items of a list of finite floats joined by ``separator``, or
    ``None`` if any item is not a finite ``float``."""
    if not all(type(x) is float for x in values):
        return None
    body = separator.join(map(float.__repr__, values))
    # the repr of a finite float holds no "n"; "nan" and "inf" do
    return None if "n" in body else body


def _pairs(values, separator: str):
    """The items of a list of ``[re, im]`` pairs of finite floats joined by
    ``separator``, or ``None`` if any item is not such a pair."""
    if not all(type(x) is list and len(x) == 2 and type(x[0]) is float
               and type(x[1]) is float for x in values):
        return None
    pair_break = separator[1:]
    number_break = pair_break + " "
    body = separator.join(f"[{number_break}{re!r},{number_break}{im!r}{pair_break}]"
                          for re, im in values)
    return None if "n" in body else body


def _encode(value, newline: str) -> str:
    """``value`` as the stdlib writes it where ``newline`` is the line break
    and indentation of the enclosing level."""
    kind = type(value)
    if kind is float and value - value == 0.0:  # finite
        return float.__repr__(value)
    if kind is str:
        return encode_basestring_ascii(value)
    inner = newline + " "
    if kind is list or kind is tuple:
        if len(value) == 2:  # an [re, im] pair
            re, im = value
            if type(re) is float and type(im) is float and re - re == 0.0 == im - im:
                return f"[{inner}{re!r},{inner}{im!r}{newline}]"
        if not value:
            return "[]"
        separator = "," + inner
        body = (_floats(value, separator) or _pairs(value, separator)
                or separator.join([_encode(item, inner) for item in value]))
        return f"[{inner}{body}{newline}]"
    if kind is dict and all(type(key) is str for key in value):
        if not value:
            return "{}"
        separator = "," + inner
        body = separator.join([f"{encode_basestring_ascii(key)}: {_encode(value[key], inner)}"
                               for key in sorted(value)])
        return f"{{{inner}{body}{newline}}}"
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    # written at level 0 by the stdlib; each of its line breaks starts a line
    # of indentation counted from level 0, so shifting them all shifts the value
    return _ENCODER.encode(value).replace("\n", newline)


def dump_json(payload) -> str:
    """Canonical JSON: sorted keys, one-space indentation, newline-terminated.

    Exactly ``json.dumps(payload, sort_keys=True, separators=(",", ": "),
    indent=1) + "\\n"``; see the module docstring.
    """
    return _encode(payload, "\n") + "\n"


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
