"""Command-line front end.

Subcommands
-----------
spectrum   eigenvalues, residuals, biorthogonal norms, mode classes
zero-mode  closed-form coalescing zero mode amplitudes
bethe      quantization roots (scattering, zero mode, imaginary pair)
census     (n_I, n_EP, n_S) mode census at one parameter point
sweep      census over an (N, mu) grid with derived edge-mode counts
plot       stacked stem plot of zero-mode amplitude profiles (SVG)
verify     run the verification suite; exit 3 on any failure

Exit codes: 0 success, 1 usage, parameter or numerical error (``zero-mode``
and ``bethe`` refuse a gamma off the coalescence locus), 2 classification
failure (no isolated zero pair on the locus, or a level neither real nor
imaginary), 3 verification failure.
An optional ``--config`` file of ``key = value`` lines, whose keys must
name flags of the subcommand, is parsed as those flags ahead of the command
line's: flags override it, and its values are checked as flags are.  Each
subcommand's formats and defaults are declared on its flags and shown by
``--help``; the effective configuration is echoed into every artifact.
Each subcommand parses, makes its library call and writes the text of its
writer in :mod:`.serialize`, which holds every artifact layout and the
configuration echo: the CLI adds nothing to a payload.
Flags must be spelled out in full.  ``spectrum`` solves the chain's real
form once: ``left_residuals`` equal ``residuals``, and only ``|biorth|`` is
basis-independent.  All computations are deterministic, so identical
configurations give byte-identical artifacts.  ``main`` may be called any
number of times in one process; the parser is built on the first call and
reused.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from . import analysis, bethe, model, serialize, spectral, verify

USAGE_ERROR, CLASSIFICATION_ERROR, VERIFY_FAILURE = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    """Flags match only when spelled out; usage errors exit 1.  A value may
    start with a minus: ``--gamma -1e-3``, ``--gamma -inf`` and ``--mu-grid
    -0.5,1`` pass their value to the flag (argparse alone takes only ``-2``
    and ``-.5`` for values)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)

    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _read_config(path: str, keys) -> list[str]:
    """``key = value`` lines as flags ``--key=value``; every key must be one
    of ``keys``, the flags' destinations."""
    flags = []
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            name = key.replace("-", "_")
            if name not in keys:
                raise ValueError(f"{path}: unknown key {key!r}")
            flags.append(f"--{name.replace('_', '-')}={value}")
    return flags


def _csv_ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _csv_floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _model_config(args):
    n, mu = args.N, args.mu
    if n is None or mu is None:
        raise ValueError(f"{args.command} requires --N and --mu")
    gamma = model.gamma_ep(mu, n) if args.gamma.strip() == "auto" else float(args.gamma)
    return n, mu, gamma, {"command": args.command, "N": n, "mu": mu, "gamma": gamma}


def _emit(args, content: str) -> None:
    if args.out:
        serialize.atomic_write(args.out, content)
    else:
        sys.stdout.write(content)


def _cmd_spectrum(args) -> int:
    n, mu, gamma, config = _model_config(args)
    modes = spectral.classify_modes(spectral.chain_eigensystem(n, mu, gamma), mu, gamma)
    _emit(args, serialize.spectrum(args.format, modes, config))
    return 0


def _require_locus(n: int, mu: float, gamma: float, subject: str) -> None:
    """Refuse an invalid chain (a non-finite gamma first), then a gamma off the
    coalescence locus, where ``subject`` does not hold."""
    model._require_chain(n, mu, gamma)
    if not model.on_locus(mu, n, gamma):
        raise ValueError(f"{subject} only at gamma = gamma_ep(mu, N) = "
                         f"{model.gamma_ep(mu, n)!r}, got {gamma!r}")


def _cmd_zero_mode(args) -> int:
    n, mu, gamma, config = _model_config(args)
    _require_locus(n, mu, gamma, "the coalescing zero mode exists")
    _emit(args, serialize.zero_mode(args.format, bethe.zero_mode(n, mu, args.side),
                                    {**config, "side": args.side}))
    return 0


def _cmd_bethe(args) -> int:
    n, mu, gamma, config = _model_config(args)
    _require_locus(n, mu, gamma, "the zero-mode root exists")
    _emit(args, serialize.bethe(args.format, bethe.roots(mu, gamma, n), config))
    return 0


def _cmd_census(args) -> int:
    n, mu, gamma, config = _model_config(args)
    _emit(args, serialize.census(args.format, spectral.chain_census(n, mu, gamma), config))
    return 0


def _cmd_sweep(args) -> int:
    n_grid, mu_grid = args.N_grid, args.mu_grid
    if not n_grid or not mu_grid:
        raise ValueError("sweep requires --N-grid and --mu-grid")
    config = {"command": "sweep", "N_grid": n_grid, "mu_grid": mu_grid}
    _emit(args, serialize.sweep(args.format, analysis.census_sweep(n_grid, mu_grid), config))
    return 0


def _cmd_plot(args) -> int:
    n_grid, mu = args.N_grid, args.mu
    if not n_grid or mu is None:
        raise ValueError("plot requires --N-grid and --mu")
    config = {"command": "plot", "N_grid": n_grid, "mu": mu}
    _emit(args, serialize.plot([bethe.zero_mode(n, mu) for n in sorted(n_grid, reverse=True)],
                               config))
    return 0


def _cmd_verify(args) -> int:
    results = verify.run_criteria(only=args.only)
    sys.stdout.write(serialize.verify("text", results))
    if args.out:
        serialize.atomic_write(args.out, serialize.verify("json", results))
    return 0 if all(r.passed for r in results) else VERIFY_FAILURE


def _add_model_flags(parser) -> None:
    parser.add_argument("--N", type=int, help="even site count >= 4")
    parser.add_argument("--mu", type=float, help="bulk coupling mu > 0")
    parser.add_argument("--gamma", default="auto",
                        help="end potential, a number or 'auto' (default: %(default)s)")


def _add_common_flags(parser, formats=()) -> None:
    """``--config`` and ``--out``, and ``--format`` where the subcommand
    writes ``formats``, the first of them by default."""
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--out", help="output path (default: stdout)")
    if formats:
        parser.add_argument("--format", choices=formats, default=formats[0],
                            help="artifact format (default: %(default)s)")


@functools.cache
def build_parser() -> _Parser:
    """The ``majorana-pt`` parser, built once per process and shared.

    Parsing leaves it unchanged: every ``parse_args`` call returns a fresh
    namespace, and errors and help go to the streams current at that call.
    """
    parser = _Parser(prog="majorana-pt", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    for name, handler, formats in [
        ("spectrum", _cmd_spectrum, ("json", "csv", "text")),
        ("zero-mode", _cmd_zero_mode, ("csv", "json")),
        ("bethe", _cmd_bethe, ("json", "csv")),
        ("census", _cmd_census, ("csv", "json")),
    ]:
        p = sub.add_parser(name)
        _add_model_flags(p)
        _add_common_flags(p, formats)
        if name == "zero-mode":
            p.add_argument("--side", choices=("right", "left"), default="right",
                           help="the right or left zero mode (default: %(default)s)")
        p.set_defaults(handler=handler)

    p = sub.add_parser("sweep")
    p.add_argument("--N-grid", dest="N_grid", type=_csv_ints,
                   help="comma-separated even site counts")
    p.add_argument("--mu-grid", dest="mu_grid", type=_csv_floats,
                   help="comma-separated couplings")
    _add_common_flags(p, ("csv", "json"))
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("plot")
    p.add_argument("--N-grid", dest="N_grid", type=_csv_ints)
    p.add_argument("--mu", type=float)
    _add_common_flags(p)
    p.set_defaults(handler=_cmd_plot)

    p = sub.add_parser("verify")
    p.add_argument("--only", help="run only criteria whose id contains this")
    _add_common_flags(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser, argv = build_parser(), (sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
        if args.config:  # again, the file's lines as flags ahead of the subcommand's own
            flags = _read_config(args.config, set(vars(args)) - {"command", "handler", "config"})
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + flags + argv[at:])
        return args.handler(args)
    except SystemExit as exc:  # a usage error or --help, from either parse
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    except spectral.ClassificationError as exc:
        print(f"classification error: {exc}", file=sys.stderr)
        return CLASSIFICATION_ERROR
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
