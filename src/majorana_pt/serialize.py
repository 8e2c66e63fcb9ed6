"""Every artifact layout: deterministic JSON / CSV / text encodings of the
library objects.

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

Every CLI artifact comes from one writer per subcommand, which takes the
format, the solved object and the configuration and returns the artifact
text: :func:`spectrum` (json, csv, text), :func:`zero_mode`,
:func:`bethe`, :func:`census` and :func:`sweep` (csv, json), :func:`plot`
(SVG) and :func:`verify` (the text report, or json for ``--out``).  The
configuration is echoed into every artifact but the ``verify`` report, a
list value as its items comma-joined: as ``# key=value`` lines
(:func:`config_lines`) or as the JSON ``config`` object.
"""

from __future__ import annotations

import json
import os
from json.encoder import encode_basestring_ascii

import numpy as np

from . import analysis, model, spectral, svgfig

__all__ = [
    "spectrum",
    "zero_mode",
    "bethe",
    "census",
    "sweep",
    "plot",
    "verify",
    "config_lines",
    "complex_pair",
    "complex_pairs",
    "matrix_to_text",
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


def _echo(config: dict) -> dict:
    """``config`` with each list value written as its items' reprs, comma-joined."""
    return {key: ",".join(map(repr, value)) if isinstance(value, list) else value
            for key, value in config.items()}


def config_lines(config: dict) -> list[str]:
    """The ``key=value`` echo of ``config``, one line per key in sorted order;
    a string value is written as its repr, a list as its items' reprs
    comma-joined."""
    return [f"{key}={value!r}" if isinstance(value, str) else f"{key}={value}"
            for key, value in sorted(_echo(config).items())]


def _commented(config: dict, lines) -> str:
    """``# key=value`` lines echoing ``config``, then ``lines``, each ending in
    a newline: a CSV artifact when ``lines`` are its header and rows."""
    return "\n".join([*(f"# {line}" for line in config_lines(config)), *lines]) + "\n"


def _json(config: dict, **fields) -> str:
    """The JSON artifact of ``fields`` and the ``config`` object echoing ``config``."""
    return dump_json({"config": _echo(config), **fields})


def _census_fields(census) -> dict:
    """The JSON fields of a :class:`~.spectral.ModeCensus`."""
    return {"n_I": census.n_I, "n_EP": census.n_EP, "n_S": census.n_S, "N": census.n}


def _census_row(n, mu, gamma, census) -> str:
    return f"{n},{mu!r},{gamma!r},{census.n_I},{census.n_EP},{census.n_S}"


def spectrum(fmt: str, modes, config: dict) -> str:
    """The ``spectrum`` artifact of a classified chain ``modes``
    (:class:`~.spectral.Classification`) at ``config``'s ``N``, ``mu`` and
    ``gamma``.  Only the JSON layout reports the pseudo-Hermiticity check,
    so only it runs the check."""
    es = modes.es
    if fmt == "json":
        ok, unmatched = spectral.pseudo_hermiticity_check(
            es.eigenvalues, spectral.CLASS_TOLERANCE * es.scale)
        return _json(
            config,
            dim=es.dim,
            eigenvalues=complex_pairs(es.eigenvalues),
            residuals=np.asarray(es.residuals, dtype=float).tolist(),
            left_residuals=np.asarray(es.left_residuals, dtype=float).tolist(),
            biorth_norms=complex_pairs(es.biorth_norms),
            norm_inf=_f(es.norm_inf),
            coalesced_eigenvalues=complex_pairs(modes.coalesced),
            mode_classes=[c.value for c in modes.mode_classes],
            census=_census_fields(modes.census),
            pseudo_hermitian=ok,
            unmatched=complex_pairs(unmatched),
        )
    if fmt == "csv":
        return _commented(config, ["re,im,residual,biorth_re,biorth_im,mode_class", *(
            f"{z.real!r},{z.imag!r},{residual!r},{b.real!r},{b.imag!r},{mode_class.value}"
            for z, residual, b, mode_class in zip(
                es.eigenvalues.tolist(), es.residuals.tolist(), es.biorth_norms.tolist(),
                modes.mode_classes))])
    matrix = matrix_to_text(model.build_ssh(config["N"], config["mu"], config["gamma"]))
    return _commented(config, [matrix.rstrip("\n"), "eigenvalues: " + " ".join(
        format_complex(z) for z in es.eigenvalues)])


def zero_mode(fmt: str, wavefunction, config: dict) -> str:
    """The ``zero-mode`` artifact of a :class:`~.bethe.ZeroModeWavefunction`;
    the CSV has one row per site ``j`` (1-based)."""
    if fmt == "json":
        return _json(config, omega=wavefunction.omega,
                     amplitudes=complex_pairs(wavefunction.amplitudes))
    amps = (complex(amp) for amp in wavefunction.amplitudes)
    return _commented(config, ["j,re,im,P_j", *(
        f"{j},{amp.real!r},{amp.imag!r},{abs(amp)!r}" for j, amp in enumerate(amps, start=1))])


def bethe(fmt: str, roots, config: dict) -> str:
    """The ``bethe`` artifact of a list of :class:`~.bethe.BetheRoot`."""
    fields = [(complex_pair(r.k), "+" if r.branch > 0 else "-", r.sector,
               complex_pair(r.epsilon), _f(r.residual)) for r in roots]
    if fmt == "json":
        keys = ("k", "branch", "sector", "epsilon", "residual")
        return _json(config, roots=[dict(zip(keys, f)) for f in fields])
    return _commented(config, ["k_re,k_im,branch,sector,eps_re,eps_im,residual", *(
        f"{k_re!r},{k_im!r},{branch},{sector},{eps_re!r},{eps_im!r},{residual!r}"
        for (k_re, k_im), branch, sector, (eps_re, eps_im), residual in fields)])


def census(fmt: str, mode_census, config: dict) -> str:
    """The ``census`` artifact of a :class:`~.spectral.ModeCensus` at
    ``config``'s ``N``, ``mu`` and ``gamma``."""
    if fmt == "json":
        return _json(config, census=_census_fields(mode_census))
    return _commented(config, ["N,mu,gamma,n_I,n_EP,n_S", _census_row(
        config["N"], config["mu"], config["gamma"], mode_census)])


def sweep(fmt: str, points, config: dict) -> str:
    """The ``sweep`` artifact of a list of :class:`~.analysis.SweepPoint`."""
    if fmt == "json":
        return _json(config, points=[
            {**_census_fields(p.census), "mu": p.mu, "gamma": p.gamma,
             "edge_modes": p.edge_modes} for p in points])
    return _commented(config, ["N,mu,gamma,n_I,n_EP,n_S,edge_modes", *(
        f"{_census_row(p.n, p.mu, p.gamma, p.census)},{p.edge_modes}" for p in points)])


def plot(wavefunctions, config: dict) -> str:
    """The ``plot`` SVG: one stem panel of the profile P(j) per zero mode
    (:class:`~.bethe.ZeroModeWavefunction`), in the given order."""
    panels = [(f"N={wf.n}, mu={wf.mu}", list(analysis.dirac_distribution(wf)))
              for wf in wavefunctions]
    return svgfig.stem_panels(panels, title=f"Coalescing zero-mode profile P(j), "
                              f"mu={config['mu']}", comment="; ".join(config_lines(config)))


def verify(fmt: str, results) -> str:
    """The ``verify`` report of a list of :class:`~.verify.CriterionResult`:
    one ``PASS``/``FAIL`` line per criterion (``text``), or the ``--out``
    JSON report."""
    if fmt == "text":
        return "".join(f"{'PASS' if r.passed else 'FAIL'} {r.criterion_id} "
                       f"({r.elapsed:.3f} s): {r.detail}\n" for r in results)
    return dump_json({
        "criteria": [{"id": r.criterion_id, "passed": r.passed, "detail": r.detail,
                      "elapsed": r.elapsed} for r in results],
        "all_passed": all(r.passed for r in results),
    })


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
