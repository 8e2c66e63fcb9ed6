"""The three workloads: ``verify``, ``sweep-large`` and ``requests``.

A workload is a fixed sequence of operations, its *unit*, built from the
seed.  The run repeats whole units, so every count in a unit (calls,
failures, LAPACK work) repeats exactly from run to run.

* ``verify``: one unit is one full ``verify.run_criteria()`` suite.  Every
  matrix has N <= 30, so time goes to Python overhead per call, to the
  78-point grid solved three times and to the mpmath roots, not to LAPACK.
* ``sweep-large``: one unit is one in-process CLI ``sweep --out`` over
  N in {100, 200, 300, 400} x mu in {0.95, 1.05, 1.1}.  Time goes to the
  O(N^3) dense path.  The dense census is correct at every point of this
  grid.  The grid order is fixed: the sweep's thread pool hands points to
  the cores in order, so a permuted grid would change the sweep's time by
  up to 20% and make the seed a cost factor.  Inputs of ``verify`` and
  ``sweep-large`` do not depend on the seed.  This workload is not in
  ``BENCHMARK.json`` (see README.md); run it by name.
* ``requests``: one unit is a seeded stream of single-point requests from
  one closed-loop client: the CLI subcommands ``spectrum``, ``census``,
  ``bethe`` and ``zero-mode`` plus a library ring request.  N is drawn
  log-uniformly (6..200, 6..60 for the ring) on strata, so that every
  seed's stream costs about the same, and mu from a fixed set.  The stream
  straddles the measured domain edges (``DOMAIN_EDGE``) on purpose.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import time
from dataclasses import dataclass
from typing import Callable

from majorana_pt import cli, model, spectral, verify

from . import checks

WORKLOADS = ("verify", "sweep-large", "requests")

SWEEP_N = (100, 200, 300, 400)
SWEEP_MU = (0.95, 1.05, 1.1)

REQUEST_KINDS = ("spectrum", "census", "bethe", "zero-mode", "ring")
REQUEST_MU = (0.5, 0.8, 1.1, 1.5, 2.0)
REQUEST_FORMAT = {"spectrum": "json", "census": "csv", "bethe": "json", "zero-mode": "csv"}
#: One stratum in this many of each CLI kind is requested twice.
REPEAT_EVERY = 8

#: First N at which each request kind fails its check, per mu, measured at
#: the commit that introduced the benchmark (None: no failure up to the
#: largest N drawn).  Spectrum and census lose the EP pair (dense census),
#: bethe raises RootScanError, and the ring spectrum drifts past 1e-10 at
#: mu = 0.5.  Requests at or beyond the edge still run and are checked; their
#: failures count in ``failed_frac`` but not in the run's ``failed`` total,
#: which covers only requests inside the measured domain.
DOMAIN_EDGE = {
    "spectrum": {0.5: 66, 0.8: 180, 1.1: None, 1.5: 104, 2.0: 64},
    "census": {0.5: 66, 0.8: 180, 1.1: None, 1.5: 104, 2.0: 64},
    "bethe": {0.5: 96, 0.8: 92, 1.1: 178, 1.5: 160, 2.0: 132},
    "zero-mode": {0.5: None, 0.8: None, 1.1: None, 1.5: None, 2.0: None},
    "ring": {0.5: 48, 0.8: None, 1.1: None, 1.5: None, 2.0: None},
}

#: Sizes per workload: "full" is what the benchmark measures, "tiny" is the
#: smoke-test size used by the benchmark's own tests.
SIZES = {
    "full": {"verify_only": None, "sweep_n": SWEEP_N, "sweep_mu": SWEEP_MU,
             "per_kind": 40, "n_max": 200, "ring_n_max": 60},
    "tiny": {"verify_only": "six-site", "sweep_n": (6, 8), "sweep_mu": (0.5, 1.5),
             "per_kind": 3, "n_max": 20, "ring_n_max": 10},
}


@dataclass
class Op:
    """One operation: a timed ``call`` and a ``check`` of what it returned.

    ``check`` returns None when the output is correct, else a reason.
    ``in_domain`` is False for requests at or beyond ``DOMAIN_EDGE``.
    """

    kind: str
    n: int | None
    mu: float | None
    call: Callable[[], object]
    check: Callable[[object], str | None]
    in_domain: bool = True


@dataclass
class Outcome:
    op: Op
    seconds: float
    failure: str | None


def execute(op: Op, checking=contextlib.nullcontext) -> Outcome:
    """Time ``op.call`` alone, then check its output outside the timed region.

    The check runs inside the ``checking()`` context (a traced run pauses
    its tracer there).  An exception, a non-zero exit or a failed check is a
    failure; none of them stops the run.
    """
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        started = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:
            seconds = time.perf_counter() - started
            return Outcome(op, seconds, f"raised {type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - started
    try:
        with checking():
            failure = op.check(result)
    except Exception as exc:
        failure = f"check raised {type(exc).__name__}: {exc}"
    if failure and err.getvalue().strip():
        failure += f" ({err.getvalue().strip().splitlines()[-1]})"
    return Outcome(op, seconds, failure)


@dataclass
class Request:
    kind: str
    n: int
    mu: float


def request_stream(seed: int, per_kind: int, n_max: int, ring_n_max: int) -> list[Request]:
    """The seeded request mix, stratified so every seed costs about the same.

    Each kind gets ``per_kind`` fresh requests, one per equal-width stratum
    of log N (N from 6 to ``n_max``, ``ring_n_max`` for the ring), at the
    even N nearest the stratum's centre, so N is log-uniform and the dense
    work of a unit is the same for every seed.  Every run of
    ``len(REQUEST_MU)`` consecutive strata gets each mu once, in random
    order, so each mu sees the whole N range.  The last stratum of every
    ``REPEAT_EVERY`` of each CLI kind is sent a second time, later in the
    stream.  The seed draws the mu order and the interleaving.
    """
    rng = random.Random(seed)
    stream: list[Request] = []
    repeats: list[Request] = []
    for kind in REQUEST_KINDS:
        lo, hi = math.log(6), math.log(ring_n_max if kind == "ring" else n_max)
        width = (hi - lo) / per_kind
        mus: list[float] = []
        while len(mus) < per_kind:
            mus += rng.sample(REQUEST_MU, len(REQUEST_MU))
        for i in range(per_kind):
            request = Request(kind, 2 * round(math.exp(lo + (i + 0.5) * width) / 2), mus[i])
            stream.append(request)
            if kind != "ring" and i % REPEAT_EVERY == REPEAT_EVERY - 1:
                repeats.append(request)
    rng.shuffle(stream)
    for request in repeats:
        stream.insert(rng.randint(stream.index(request) + 1, len(stream)), request)
    return stream


def in_domain(kind: str, n: int, mu: float) -> bool:
    edge = DOMAIN_EDGE[kind].get(mu)
    return edge is None or n < edge


class Workload:
    """Builds the unit and the set-up probe of one workload from its seed.

    ``workdir`` receives CLI artifacts.  Byte digests of artifacts and the
    dense references persist for the life of the object, so a repeated
    request is compared byte for byte with its first answer, and references
    are computed once per (N, mu).
    """

    def __init__(self, name: str, seed: int, workdir: str, size: str = "full"):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.size = SIZES[size]
        self._digests: dict[tuple, str] = {}
        self._references: dict[tuple, object] = {}

    # -- references and artifact identity ---------------------------------

    def reference(self, n: int, mu: float):
        key = (n, mu)
        if key not in self._references:
            self._references[key] = checks.ssh_reference(n, mu)
        return self._references[key]

    def _read_artifact(self, argv: list[str], path: str, rc) -> tuple[str, str | None]:
        """Artifact text plus a failure if the exit code or bytes are wrong."""
        if rc != 0:
            return "", f"exit code {rc}"
        with open(path, "rb") as handle:
            data = handle.read()
        key = tuple(a for a in argv if a != path)
        digest = hashlib.sha256(data).hexdigest()
        if self._digests.setdefault(key, digest) != digest:
            return "", "artifact differs from an identical earlier request"
        return data.decode(), None

    def _cli_op(self, kind, n, mu, argv, path, check, domain=True) -> Op:
        def checked(rc):
            text, failure = self._read_artifact(argv, path, rc)
            return failure or check(text)

        return Op(kind, n, mu, lambda: cli.main(argv), checked, domain)

    # -- operations -------------------------------------------------------

    def verify_op(self) -> Op:
        only = self.size["verify_only"]
        expected = len([c for c, _ in verify.CRITERIA if not only or only in c])

        def check(results):
            failed = [r.criterion_id for r in results if not r.passed]
            if failed or len(results) != expected:
                return f"{len(results)} criteria run, failed: {failed}"
            return None

        return Op("verify", None, None, lambda: verify.run_criteria(only), check)

    def sweep_op(self, n_grid, mu_grid) -> Op:
        path = os.path.join(self.workdir, "sweep.csv")
        argv = ["sweep", "--N-grid", ",".join(map(str, n_grid)),
                "--mu-grid", ",".join(map(repr, mu_grid)), "--out", path]
        grid = [(n, mu) for n in n_grid for mu in mu_grid]
        return self._cli_op("sweep", None, None, argv, path,
                            lambda text: checks.check_census_csv(text, grid))

    def request_op(self, req: Request) -> Op:
        kind, n, mu = req.kind, req.n, req.mu
        domain = in_domain(kind, n, mu)
        if kind == "ring":
            def ring():
                params = model.ModelParams(n=n, mu=mu, gamma=model.gamma_ep(mu, n))
                h = model.build_majorana_ring(params)
                model.decompose_blocks(h, n)
                return spectral.eig(h).eigenvalues

            return Op(kind, n, mu, ring,
                      lambda values: checks.check_ring(values, self.reference(n, mu)),
                      domain)
        fmt = REQUEST_FORMAT[kind]
        path = os.path.join(self.workdir, f"{kind}.{fmt}")
        argv = [kind, "--N", str(n), "--mu", repr(mu), "--gamma", "auto",
                "--format", fmt, "--out", path]
        if kind == "spectrum":
            check = lambda text: checks.check_spectrum_json(text, n, mu)
        elif kind == "census":
            check = lambda text: checks.check_census_csv(text, [(n, mu)])
        elif kind == "bethe":
            check = lambda text: checks.check_bethe_json(text, self.reference(n, mu))
        else:
            check = lambda text: checks.check_zero_mode_csv(text, n, mu)
        return self._cli_op(kind, n, mu, argv, path, check, domain)

    # -- units ------------------------------------------------------------

    def unit(self) -> list[Op]:
        """The fixed operation sequence the run repeats."""
        if self.name == "verify":
            return [self.verify_op()]
        if self.name == "sweep-large":
            return [self.sweep_op(self.size["sweep_n"], self.size["sweep_mu"])]
        stream = request_stream(self.seed, self.size["per_kind"],
                                self.size["n_max"], self.size["ring_n_max"])
        return [self.request_op(r) for r in stream]

    def probe(self) -> list[Op]:
        """Operations whose first checked results end the set-up time.

        verify: one suite.  sweep-large: a one-point sweep at the smallest
        N of its grid.  requests: one request of each kind at N = 6.
        """
        if self.name == "verify":
            return [self.verify_op()]
        if self.name == "sweep-large":
            return [self.sweep_op([min(self.size["sweep_n"])], [max(self.size["sweep_mu"])])]
        return [self.request_op(Request(kind, 6, 0.5)) for kind in REQUEST_KINDS]
