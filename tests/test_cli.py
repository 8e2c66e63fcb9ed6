import hashlib
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from majorana_pt.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrum:
    def test_six_site_json_contains_exact_levels(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--N", "6", "--mu", "2", "--gamma", "auto")
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["gamma"] == 0.25
        coalesced = [complex(re, im) for re, im in payload["coalesced_eigenvalues"]]
        zeros = [z for z in coalesced if abs(z) < 1e-10]
        assert len(zeros) == 2 and zeros[0] == zeros[1]
        radicals = sorted(abs(z) for z in coalesced if abs(z) > 1e-10)
        assert radicals[0] == pytest.approx(np.sqrt(350 - 2 * np.sqrt(3553)) / 8, abs=1e-10)
        assert radicals[-1] == pytest.approx(np.sqrt(350 + 2 * np.sqrt(3553)) / 8, abs=1e-10)
        assert payload["census"] == {"n_I": 0, "n_EP": 1, "n_S": 4, "N": 6}

    def test_hermitian_chain_exits_zero(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--N", "6", "--mu", "2", "--gamma", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["pseudo_hermitian"] is True
        assert payload["census"]["n_EP"] == 0
        assert max(abs(im) for _, im in payload["eigenvalues"]) < 1e-12

    def test_off_locus_classification_failure_exits_two(self, capsys):
        code, _, err = run(capsys, "spectrum", "--N", "6", "--mu", "0.5",
                           "--gamma", "0.55")
        assert code == 2
        assert "classification" in err

    def test_imaginary_pair_grows_with_small_mu(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--N", "14", "--mu", "0.5",
                           "--gamma", "auto")
        assert code == 0
        payload = json.loads(out)
        imag = sorted(im for _, im in payload["eigenvalues"])
        assert imag[-1] == pytest.approx(0.5 ** (-6), rel=1e-3)

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--N", "6", "--mu", "2",
                           "--gamma", "auto", "--format", "csv")
        assert code == 0
        lines = [l for l in out.strip().split("\n") if not l.startswith("#")]
        assert lines[0] == "re,im,residual,biorth_re,biorth_im,mode_class"
        assert len(lines) == 7

    def test_text_format_prints_matrix_and_levels(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--N", "6", "--mu", "2",
                           "--gamma", "auto", "--format", "text")
        assert code == 0
        lines = [l for l in out.strip().split("\n") if not l.startswith("#")]
        assert lines[0].split("\t")[0] == "0.0+0.25i"
        assert lines[-1].startswith("eigenvalues: ")

    def test_unknown_format_exits_one(self, capsys):
        code, _, err = run(capsys, "spectrum", "--N", "6", "--mu", "2",
                           "--gamma", "auto", "--format", "yaml")
        assert code == 1
        assert "format" in err


class TestZeroMode:
    def test_csv_default(self, capsys):
        code, out, _ = run(capsys, "zero-mode", "--N", "6", "--mu", "2")
        assert code == 0
        lines = [l for l in out.strip().split("\n") if not l.startswith("#")]
        assert lines[0] == "j,re,im,P_j"
        assert len(lines) == 7

    def test_left_side_json_is_conjugate(self, capsys):
        _, out_r, _ = run(capsys, "zero-mode", "--N", "6", "--mu", "2",
                          "--format", "json")
        _, out_l, _ = run(capsys, "zero-mode", "--N", "6", "--mu", "2",
                          "--side", "left", "--format", "json")
        right = json.loads(out_r)["amplitudes"]
        left = json.loads(out_l)["amplitudes"]
        assert all(
            pytest.approx(l) == [r[0], -r[1]] for r, l in zip(right, left)
        )


class TestBethe:
    def test_topological_root_content(self, capsys):
        code, out, _ = run(capsys, "bethe", "--N", "6", "--mu", "2", "--gamma", "auto")
        assert code == 0
        roots = json.loads(out)["roots"]
        sectors = [r["sector"] for r in roots]
        assert sectors.count("real") == 4
        assert sectors.count("imaginary") == 1  # the zero-mode root
        assert all(r["residual"] <= 1e-9 for r in roots)

    def test_trivial_side_has_imaginary_pair(self, capsys):
        code, out, _ = run(capsys, "bethe", "--N", "6", "--mu", "0.5", "--gamma", "auto")
        assert code == 0
        roots = json.loads(out)["roots"]
        assert [r["sector"] for r in roots].count("imaginary") == 3

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "bethe", "--N", "14", "--mu", "0.5",
                           "--gamma", "auto", "--format", "csv")
        assert code == 0
        lines = [l for l in out.strip().split("\n") if not l.startswith("#")]
        assert lines[0] == "k_re,k_im,branch,sector,eps_re,eps_im,residual"
        pair = [l for l in lines[1:] if l.split(",")[3] == "imaginary"
                and abs(float(l.split(",")[5])) > 1]
        assert len(pair) == 2
        assert float(pair[0].split(",")[5]) == pytest.approx(
            0.5 ** (-6), rel=1e-3
        )


class TestCensusAndSweep:
    def test_census_row(self, capsys):
        code, out, _ = run(capsys, "census", "--N", "6", "--mu", "0.5", "--gamma", "auto")
        assert code == 0
        lines = [l for l in out.strip().split("\n") if not l.startswith("#")]
        assert lines == ["N,mu,gamma,n_I,n_EP,n_S", "6,0.5,4.0,2,1,2"]

    def test_sweep_grid(self, capsys):
        code, out, _ = run(capsys, "sweep", "--N-grid", "6,8", "--mu-grid", "0.5,2.0")
        assert code == 0
        lines = [l for l in out.strip().split("\n") if not l.startswith("#")]
        assert lines[0] == "N,mu,gamma,n_I,n_EP,n_S,edge_modes"
        assert lines[1:] == [
            "6,0.5,4.0,2,1,2,4",
            "6,2.0,0.25,0,1,4,2",
            "8,0.5,8.0,2,1,4,4",
            "8,2.0,0.125,0,1,6,2",
        ]

    @pytest.mark.parametrize("threads", [None, "1", "2"])
    def test_sweep_failure_names_the_point_and_exits_two(
        self, capsys, monkeypatch, threads
    ):
        if threads is None:
            monkeypatch.delenv("MAJORANA_PT_THREADS", raising=False)
        else:
            monkeypatch.setenv("MAJORANA_PT_THREADS", threads)
        code, out, err = run(capsys, "sweep", "--N-grid", "6,8", "--mu-grid", "2.0",
                             "--tol-class", "1e-20")
        assert code == 2
        assert out == ""
        assert err.startswith("classification error: ")
        assert "n=6" in err and "mu=2.0" in err

    def test_sweep_is_deterministic(self, capsys):
        _, first, _ = run(capsys, "sweep", "--N-grid", "6,10", "--mu-grid", "1.5")
        _, second, _ = run(capsys, "sweep", "--N-grid", "6,10", "--mu-grid", "1.5")
        assert first == second


class TestPlot:
    def test_svg_structure(self, capsys, tmp_path):
        out_path = tmp_path / "fig.svg"
        code, _, _ = run(capsys, "plot", "--N-grid", "14,22,30", "--mu", "1.5",
                         "--out", str(out_path))
        assert code == 0
        root = ET.fromstring(out_path.read_text())
        assert root.tag.endswith("svg")
        ns = root.tag[: -len("svg")]
        assert len(root.findall(f".//{ns}rect")) >= 4  # background + 3 panels
        assert len(root.findall(f".//{ns}circle")) == 14 + 22 + 30


class TestVerifyCommand:
    def test_only_six_site_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "six-site")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert all(line.startswith("PASS") for line in lines)

    def test_tampered_ep_tolerance_fails_with_exit_three(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "six-site-mu2",
                           "--tol-ep", "0")
        assert code == 3
        assert out.startswith("FAIL")

    def test_unknown_filter_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--only", "banana")
        assert code == 1
        assert "no criterion" in err

    def test_report_artifact(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", "--only", "common-part", "--out", str(out_path))
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["all_passed"] is True
        assert report["criteria"][0]["id"] == "common-part"


class TestConfigAndErrors:
    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("N = 6\nmu = 2.0\ngamma = auto\n# a comment\n")
        code, out, _ = run(capsys, "census", "--config", str(config))
        assert code == 0
        assert "6,2.0,0.25,0,1,4" in out

    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("N = 6\nmu = 2.0\n")
        code, out, _ = run(capsys, "census", "--config", str(config), "--mu", "0.5")
        assert code == 0
        assert "6,0.5,4.0,2,1,2" in out

    def test_missing_parameters_exit_one(self, capsys):
        code, _, err = run(capsys, "census")
        assert code == 1
        assert "requires" in err

    def test_sweep_without_grids_exits_one(self, capsys):
        code, _, err = run(capsys, "sweep")
        assert code == 1
        assert "requires" in err

    def test_invalid_subcommand_exits_one(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_bad_parameter_exits_one(self, capsys):
        code, _, _ = run(capsys, "census", "--N", "7", "--mu", "2.0")
        assert code == 1

    def test_malformed_config_exits_one(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("just words\n")
        code, _, _ = run(capsys, "census", "--config", str(config),
                         "--N", "6", "--mu", "2.0")
        assert code == 1


class TestArtifactDeterminism:
    def test_identical_json_artifacts(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "spectrum", "--N", "10", "--mu", "0.5", "--gamma", "auto",
            "--out", str(a))
        run(capsys, "spectrum", "--N", "10", "--mu", "0.5", "--gamma", "auto",
            "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestModelFlags:
    @pytest.mark.parametrize("flags", [
        ("--t", "2"), ("--delta", "0.3"), ("--t", "2", "--delta", "0.3"),
    ])
    @pytest.mark.parametrize("command", ["spectrum", "census", "bethe", "zero-mode"])
    def test_rejects_t_and_delta_other_than_one(self, capsys, command, flags):
        code, out, err = run(capsys, command, "--N", "6", "--mu", "2", *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error: only t = delta = 1")

    def test_explicit_unit_t_and_delta_keep_the_artifact(self, capsys):
        _, default, _ = run(capsys, "census", "--N", "6", "--mu", "2")
        code, explicit, _ = run(capsys, "census", "--N", "6", "--mu", "2",
                                "--t", "1", "--delta", "1")
        assert code == 0
        assert explicit == default
        assert "# delta=1.0\n" in explicit and "# t=1.0\n" in explicit

    def test_zero_mode_rejects_gamma_off_the_locus(self, capsys):
        code, out, err = run(capsys, "zero-mode", "--N", "6", "--mu", "2",
                             "--gamma", "0.7")
        assert code == 1
        assert out == ""
        assert "gamma_ep" in err

    @pytest.mark.parametrize("gamma,code", [
        ("0.25", 0), (repr(0.25 * (1 + 5e-10)), 0), (repr(0.25 * (1 + 2e-9)), 1),
    ])
    def test_zero_mode_gamma_tolerance(self, capsys, gamma, code):
        assert run(capsys, "zero-mode", "--N", "6", "--mu", "2",
                   "--gamma", gamma)[0] == code


class TestNumericalFailures:
    @pytest.mark.parametrize("n", ["132", "300"])
    def test_bethe_root_scan_failure_is_an_error_line(self, capsys, n):
        code, out, err = run(capsys, "bethe", "--N", n, "--mu", "2.0")
        assert code == 1
        assert out == ""
        assert err.startswith("error: polished root")
        assert "Traceback" not in err

    def test_eigensolver_residual_failure_is_an_error_line(self, capsys):
        code, out, err = run(capsys, "census", "--N", "6", "--mu", "2",
                             "--tol-residual", "1e-20")
        assert code == 1
        assert out == ""
        assert err.startswith("error: right eigenpair")


class TestCsvArtifactBytes:
    """CSV artifacts keep the bytes written before the shared CSV writer.

    The spectrum rows hold LAPACK residuals and overlaps, so their digests
    were recorded with numpy 2.4 on OpenBLAS; the other artifacts do not
    depend on the BLAS build.
    """

    @pytest.mark.parametrize("argv,digest", [
        ("spectrum --N 6 --mu 2.0",
         "e3765d3a631ad2f085a19286d8f7d1302447a1724c8f8796adbf51f682f961a5"),
        ("census --N 6 --mu 2.0",
         "675af7f9a1f645d893159fd97b59ca7870dd00e4c4a3fd434beb189476cbbb2e"),
        ("bethe --N 6 --mu 2.0",
         "7b30215c4d1b14487020ed5f505a02125bfdfca915e7960bab1ecfd453ae6dff"),
        ("zero-mode --N 6 --mu 2.0",
         "22e1ed336c3680414c34d5cc03ec9486d46ad3117778500daf9338749f7ab2a1"),
        ("sweep --N-grid 6 --mu-grid 2.0",
         "517dacb0a3399c2859932fdf381472bd6c31634329ca11ba13f1e36fa7836dde"),
        ("spectrum --N 14 --mu 0.5",
         "2c2e8693253f3db4461455efc2d60a9f366f4637253921836bdaf079b974a902"),
        ("census --N 14 --mu 0.5",
         "6b2a98d6f883ad2f566c3b9b27f4547b8b84436618a6b675a23923140d332414"),
        ("bethe --N 14 --mu 0.5",
         "c12568a32181e6c637743e3b11298557024090ac204c7d7925548bb6d3a9c64d"),
        ("zero-mode --N 14 --mu 0.5",
         "c10cba6b36f9c3329b84cb294a4f59ba2b0026e62d2ba451be6ffd8a259fe718"),
        ("sweep --N-grid 14 --mu-grid 0.5",
         "63641852fd26400e834175460454bb294c083f067e2e48e43cffec52efcc316f"),
        ("sweep --N-grid 6,8 --mu-grid 0.5,2.0",
         "97390f36b8a3221c4b261489af72858d6a55034683d398ad841519aa3ad9ce7b"),
    ])
    def test_sha256(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv.split(), "--format", "csv")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
