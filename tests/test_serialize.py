import inspect
import os

import numpy as np
import pytest

from majorana_pt import bethe, build_ssh, eig, zero_mode
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
    def test_keys_and_vectors_flag(self):
        es = eig(build_ssh(4, 1.5, 0.2))
        payload = serialize.eigensystem_to_json(es)
        assert set(payload) == {
            "dim", "eigenvalues", "residuals", "left_residuals",
            "biorth_norms", "norm_inf",
        }
        assert "include_vectors" not in inspect.signature(
            serialize.eigensystem_to_json).parameters


class TestCsvFormats:
    def test_census_header_and_row(self):
        es = eig(build_ssh(6, 2.0, 0.25))
        _, census = classify_modes(es, 2.0, 0.25)
        text = serialize.census_csv([(6, 2.0, 0.25, census)])
        lines = text.strip().split("\n")
        assert lines[0] == "N,mu,gamma,n_I,n_EP,n_S"
        assert lines[1] == "6,2.0,0.25,0,1,4"

    def test_sweep_header(self):
        result = census_sweep([6], [2.0])
        text = serialize.sweep_csv(result, config_lines=["command=sweep"])
        lines = text.strip().split("\n")
        assert lines[0] == "# command=sweep"
        assert lines[1] == "N,mu,gamma,n_I,n_EP,n_S,edge_modes"
        assert lines[2] == "6,2.0,0.25,0,1,4,2"

    def test_zero_mode_csv(self):
        text = serialize.zero_mode_csv(zero_mode(6, 2.0))
        lines = text.strip().split("\n")
        assert lines[0] == "j,re,im,P_j"
        assert len(lines) == 7
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[3]) == pytest.approx(4 / np.sqrt(42), rel=1e-12)

    def test_roots_csv(self):
        roots = bethe.solve_real_k(2.0, 0.25, 6)
        lines = serialize.roots_csv(roots).strip().split("\n")
        assert lines[0] == "k_re,k_im,branch,sector,eps_re,eps_im,residual"
        assert len(lines) == 5
        assert lines[1].split(",")[2] in "+-"

    def test_roots_json(self):
        roots = bethe.solve_evanescent_pair(0.5, 4.0, 6)
        payload = serialize.roots_to_json(roots)
        assert payload[0]["sector"] == "imaginary"
        assert payload[0]["branch"] == "+"
        assert payload[1]["branch"] == "-"


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
