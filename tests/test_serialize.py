import contextlib
import inspect
import io
import json
import os

import numpy as np
import pytest

from majorana_pt import bethe, build_ssh, cli, eig, verify, zero_mode
from majorana_pt import serialize
from majorana_pt.analysis import census_sweep
from majorana_pt.spectral import classify_modes


class TestMatrixFormats:
    def test_text_table(self):
        text = serialize.matrix_to_text(np.array([[1 + 2j, -0.5 - 1j]] * 2)[:, :2])
        lines = text.strip().split("\n")
        assert lines[0].split("\t") == ["1.0+2.0i", "-0.5-1.0i"]

    def test_format_complex(self):
        assert serialize.format_complex(0.25j) == "0.0+0.25i"
        assert serialize.format_complex(-1.0 - 0.5j) == "-1.0-0.5i"


class TestEigenSystemFormat:
    CONFIG = {"command": "spectrum", "N": 6, "mu": 2.0, "gamma": 0.25}

    def test_keys_and_vectors_flag(self):
        modes = classify_modes(eig(build_ssh(6, 2.0, 0.25)), 2.0, 0.25)
        payload = json.loads(serialize.spectrum("json", modes, self.CONFIG))
        assert set(payload) == {
            "config", "dim", "eigenvalues", "residuals", "left_residuals",
            "biorth_norms", "norm_inf", "coalesced_eigenvalues", "mode_classes",
            "census", "pseudo_hermitian", "unmatched",
        }
        assert payload["census"] == {"n_I": 0, "n_EP": 1, "n_S": 4, "N": 6}
        assert "include_vectors" not in inspect.signature(serialize.spectrum).parameters

    @pytest.mark.parametrize("fmt,checks", [("json", 1), ("csv", 0), ("text", 0)])
    def test_only_json_runs_the_pseudo_hermiticity_check(self, monkeypatch, fmt, checks):
        calls, check = [], serialize.spectral.pseudo_hermiticity_check
        monkeypatch.setattr(serialize.spectral, "pseudo_hermiticity_check",
                            lambda *args: calls.append(args) or check(*args))
        modes = classify_modes(eig(build_ssh(6, 2.0, 0.25)), 2.0, 0.25)
        serialize.spectrum(fmt, modes, self.CONFIG)
        assert len(calls) == checks


class TestConfigEcho:
    def test_sorted_lines_with_strings_in_repr_and_lists_joined(self):
        config = {"mu_grid": [0.5, 2.0], "command": "sweep", "N_grid": [6, 30], "gamma": 0.25}
        assert serialize.config_lines(config) == [
            "N_grid='6,30'", "command='sweep'", "gamma=0.25", "mu_grid='0.5,2.0'"]

    def test_sweep_json_echoes_the_grids_as_strings(self):
        config = {"command": "sweep", "N_grid": [6], "mu_grid": [2.0]}
        payload = json.loads(serialize.sweep("json", census_sweep([6], [2.0]), config))
        assert payload["config"] == {"command": "sweep", "N_grid": "6", "mu_grid": "2.0"}
        assert payload["points"] == [{"N": 6, "mu": 2.0, "gamma": 0.25, "n_I": 0,
                                      "n_EP": 1, "n_S": 4, "edge_modes": 2}]


class TestVerifyReport:
    RESULTS = [verify.CriterionResult("one", True, "fine", 0.0125),
               verify.CriterionResult("two", False, "off", 1.5)]

    def test_text_lines(self):
        assert serialize.verify("text", self.RESULTS) == (
            "PASS one (0.013 s): fine\nFAIL two (1.500 s): off\n")

    def test_json_report(self):
        assert json.loads(serialize.verify("json", self.RESULTS)) == {
            "all_passed": False,
            "criteria": [{"id": "one", "passed": True, "detail": "fine", "elapsed": 0.0125},
                         {"id": "two", "passed": False, "detail": "off", "elapsed": 1.5}],
        }


class TestCsvFormats:
    """The CSV writers: the configuration echo, the header, then the rows."""

    CONFIG = {"command": "census", "N": 6, "mu": 2.0, "gamma": 0.25}

    def test_census_header_and_row(self):
        es = eig(build_ssh(6, 2.0, 0.25))
        census = classify_modes(es, 2.0, 0.25).census
        text = serialize.census("csv", census, self.CONFIG)
        lines = text.strip().split("\n")
        assert lines[:4] == ["# N=6", "# command='census'", "# gamma=0.25", "# mu=2.0"]
        assert lines[4] == "N,mu,gamma,n_I,n_EP,n_S"
        assert lines[5] == "6,2.0,0.25,0,1,4"

    def test_sweep_header(self):
        result = census_sweep([6], [2.0])
        text = serialize.sweep("csv", result, {"command": "sweep"})
        lines = text.strip().split("\n")
        assert lines[0] == "# command='sweep'"
        assert lines[1] == "N,mu,gamma,n_I,n_EP,n_S,edge_modes"
        assert lines[2] == "6,2.0,0.25,0,1,4,2"

    def test_zero_mode_csv(self):
        text = serialize.zero_mode("csv", zero_mode(6, 2.0), {})
        lines = text.strip().split("\n")
        assert lines[0] == "j,re,im,P_j"
        assert len(lines) == 7
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[3]) == pytest.approx(4 / np.sqrt(42), rel=1e-12)

    def test_roots_csv(self):
        roots = bethe.solve_real_k(2.0, 0.25, 6)
        lines = serialize.bethe("csv", roots, {}).strip().split("\n")
        assert lines[0] == "k_re,k_im,branch,sector,eps_re,eps_im,residual"
        assert len(lines) == 5
        assert lines[1].split(",")[2] in "+-"

    def test_roots_json(self):
        roots = bethe.solve_evanescent_pair(0.5, 4.0, 6)
        payload = json.loads(serialize.bethe("json", roots, {}))["roots"]
        assert payload[0]["sector"] == "imaginary"
        assert payload[0]["branch"] == "+"
        assert payload[1]["branch"] == "-"


def stdlib_json(payload) -> str:
    """The JSON contract of ``dump_json``, from the stdlib encoder."""
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


#: The couplings of the benchmark's single-point requests.
REQUEST_MU = (0.5, 0.8, 1.1, 1.5, 2.0)


class TestDumpJson:
    """``dump_json`` writes exactly what the stdlib encoder writes."""

    @pytest.mark.parametrize("command", ["spectrum", "bethe", "zero-mode", "census", "sweep"])
    def test_every_cli_payload(self, monkeypatch, command):
        payloads, dump_json = [], serialize.dump_json

        def recording(payload):
            payloads.append(payload)
            return dump_json(payload)

        monkeypatch.setattr(cli.serialize, "dump_json", recording)
        grid = [6, 14, 30, 62, 134, 192]
        if command == "sweep":
            argvs = [["--N-grid", ",".join(map(str, grid)),
                      "--mu-grid", ",".join(map(str, REQUEST_MU))]]
        else:
            argvs = [["--N", str(n), "--mu", str(mu)] for n in grid for mu in REQUEST_MU]
        codes = []
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes.append(cli.main([command, *argv, "--format", "json"]))
        # bethe refuses some large-N points (the fixed root bound); they write nothing
        assert len(payloads) == codes.count(0) > 0
        for payload in payloads:
            assert dump_json(payload) == stdlib_json(payload)

    @pytest.mark.parametrize("payload", [
        float("nan"), float("inf"), -float("inf"), -0.0, 1e-05, 1e16, 5e-324,
        [float("nan"), 1.0], [1.0, -float("inf")], [[1.0, float("nan")], [0.0, -0.0]],
        [[-0.0, 2.5]], [[1.0, 2.0, 3.0]], [[1.0, 2]], [(1.0, 2.0)],
        [], {}, [[]], [{}], {"a": []}, {"a": {}}, {"a": [[], {}, [[]], [{}]]},
        "plain", "caf\u00e9 \u2603 \U0001d49c", "quote \" back \\ tab \t nl \n nul \x00",
        {"k\u00e9y": "v\u00e4lue", "\"": "\\"},
        True, False, None, 10 ** 30, -10 ** 30, [True, None, 0, -1],
        np.float64(0.1), [np.float64(0.1), 0.2], [[np.float64(1.0), 2.0]],
        (1.0, 2.0), ((1.0, "a"), ()), {"t": (None, (1.5,))},
        {1: "one", 2: [1.0, {"x": None}]}, {"a": {3: [1.0, [2.0, float("nan")]]}},
        {"nest": [{"deep": [[1.0, 2.0], [3.0, 4.0]]}, {"deep": {}}]},
    ])
    def test_edge_payloads(self, payload):
        assert serialize.dump_json(payload) == stdlib_json(payload)

    @pytest.mark.parametrize("payload", [np.float32(1.0), {"a": np.int64(1)},
                                         {1: 1, "a": 2}, [object()]])
    def test_refuses_what_the_stdlib_refuses(self, payload):
        with pytest.raises(TypeError) as expected:
            stdlib_json(payload)
        with pytest.raises(TypeError, match=str(expected.value)):
            serialize.dump_json(payload)

    def test_stacked_pairs_are_complex_pair(self):
        values = np.array([1 + 2j, -0.0 - 0.0j, 3e-300 + 1e300j])
        assert serialize.complex_pairs(values) == [serialize.complex_pair(z) for z in values]
        assert serialize.complex_pairs([]) == []


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "artifact.json"
        serialize.atomic_write(str(target), "one\n")
        serialize.atomic_write(str(target), "two\n")
        assert target.read_text() == "two\n"
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
        assert leftovers == []

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_mode_follows_the_umask(self, tmp_path, umask, mode):
        target = tmp_path / "artifact.csv"
        previous = os.umask(umask)
        try:
            serialize.atomic_write(str(target), "x\n")
        finally:
            os.umask(previous)
        assert target.stat().st_mode & 0o777 == mode

    def test_failed_write_leaves_no_temporary_file(self, tmp_path):
        with pytest.raises(TypeError):
            serialize.atomic_write(str(tmp_path / "artifact.csv"), b"not text")
        assert os.listdir(tmp_path) == []
