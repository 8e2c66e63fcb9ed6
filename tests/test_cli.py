import hashlib
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from majorana_pt import bethe, build_ssh, cli, gamma_ep
from majorana_pt.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_one_real_lapack_solve_per_request(self, capsys, monkeypatch, fmt):
        solved = []
        solve = np.linalg.eig

        def counted(a, *args, **kwargs):
            solved.append(np.asarray(a).dtype)
            return solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eig", counted)
        code, _, _ = run(capsys, "spectrum", "--N", "30", "--mu", "0.5", "--format", fmt)
        assert code == 0
        assert solved == [np.float64]

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

    @pytest.mark.parametrize("n,mu", [("6", "2.0"), ("14", "0.5")])
    def test_csv_residuals_are_plain_floats(self, capsys, n, mu):
        code, out, _ = run(capsys, "spectrum", "--N", n, "--mu", mu, "--format", "csv")
        assert code == 0
        lines = [l for l in out.strip().split("\n") if not l.startswith("#")]
        column = lines[0].split(",").index("residual")
        fields = [line.split(",")[column] for line in lines[1:]]
        assert len(fields) == int(n)
        for field in fields:
            assert "np." not in field
            float(field)

    def test_text_format_prints_matrix_and_levels(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--N", "6", "--mu", "2",
                           "--gamma", "auto", "--format", "text")
        assert code == 0
        lines = [l for l in out.strip().split("\n") if not l.startswith("#")]
        assert lines[0].split("\t")[0] == "0.0+0.25i"
        assert lines[-1].startswith("eigenvalues: ")

    @pytest.mark.parametrize("n", ["6", "18"])
    @pytest.mark.parametrize("gamma", ["0.5", "-0.5"])
    def test_spectrum_and_census_agree_at_either_sign_of_gamma(self, capsys, n, gamma):
        # at -0.5 the N x N solve of M(-gamma) read a real double level as
        # neither real nor imaginary; both now solve at |gamma|
        code, out, _ = run(capsys, "spectrum", "--N", n, "--mu", "0.5", f"--gamma={gamma}")
        assert code == 0
        census = json.loads(out)["census"]
        code, out, _ = run(capsys, "census", "--N", n, "--mu", "0.5", f"--gamma={gamma}",
                           "--format", "json")
        assert code == 0
        assert census == json.loads(out)["census"] == {"n_I": 0, "n_EP": 0, "n_S": int(n),
                                                       "N": int(n)}

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


    @pytest.mark.parametrize("n", [124, 134])
    def test_deep_evanescent_pair_matches_dense(self, capsys, n):
        # gamma^2 + eps^2 cancels (n - 2) log10(2), 37 and 40 digits, in the
        # evanescent root: more than 60 working digits can resolve
        code, out, _ = run(capsys, "bethe", "--N", str(n), "--mu", "0.5")
        assert code == 0
        roots = [complex(*r["epsilon"]) for r in json.loads(out)["roots"]]
        dense = np.linalg.eigvals(build_ssh(n, 0.5, gamma_ep(0.5, n)))
        dense[np.argsort(np.abs(dense))[:2]] = 0.0  # the split EP pair
        got = np.array(roots + [0.0])  # the zero root stands for both levels
        cost = np.abs(got[:, None] - dense[None, :]) / np.maximum(1.0, np.abs(dense))
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() <= 1e-9


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

    def test_sweep_failure_names_the_point_and_exits_two(self, capsys):
        # (6, mu) has an isolated zero pair; (78, mu) has none
        code, out, err = run(capsys, "sweep", "--N-grid", "6,78", "--mu-grid", "0.99901401")
        assert code == 2
        assert out == ""
        assert err.startswith("classification error: sweep failed at (n=78, mu=0.99901401): "
                              "no isolated zero pair")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("n,mu", [
        (44, 3.0), (64, 2.0), (66, 0.5), (104, 1.5), (180, 0.8), (42, 0.3), (398, 1.1),
        (300, 0.8), (300, 2.0),
    ])
    def test_census_and_spectrum_past_the_former_edges(self, capsys, n, mu):
        # the first failing points of the eigenvector route, and two chains beyond
        expected = [0, 1, n - 2] if mu > 1 else [2, 1, n - 4]
        code, out, _ = run(capsys, "census", "--N", str(n), "--mu", str(mu))
        assert code == 0
        assert out.splitlines()[-1].split(",")[3:] == [str(c) for c in expected]
        code, out, _ = run(capsys, "spectrum", "--N", str(n), "--mu", str(mu))
        assert code == 0
        census = json.loads(out)["census"]
        assert [census["n_I"], census["n_EP"], census["n_S"]] == expected

    @pytest.mark.parametrize("command,n,mu", [
        ("census", 1026, 2.0), ("census", 648, 3.0), ("spectrum", 648, 3.0),
    ])
    def test_long_chains_where_mu_to_the_n_overflows(self, capsys, command, n, mu):
        # the zero-mode certificate's normalization once evaluated mu**n here
        code, out, _ = run(capsys, command, "--N", str(n), "--mu", str(mu),
                           "--format", "json")
        assert code == 0
        census = json.loads(out)["census"]
        assert [census["n_I"], census["n_EP"], census["n_S"]] == [0, 1, n - 2]

    @pytest.mark.parametrize("command", ["census", "spectrum"])
    def test_pair_without_a_gap_is_refused(self, capsys, command):
        # the third |eps| is 660 times the second, under the required 1e3
        code, out, err = run(capsys, command, "--N", "78", "--mu", "0.99901401")
        assert code == 2
        assert out == ""
        assert err.startswith("classification error: no isolated zero pair")

    def test_census_off_the_locus(self, capsys):
        code, out, _ = run(capsys, "census", "--N", "6", "--mu", "2", "--gamma", "0")
        assert code == 0
        assert out.splitlines()[-1] == "6,2.0,0.0,0,0,6"
        code, out, err = run(capsys, "census", "--N", "6", "--mu", "0.5", "--gamma", "0.55")
        assert code == 2
        assert out == ""
        assert "neither real nor imaginary" in err

    def test_census_needs_no_eigenvectors(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("census must not reach this solver")

        for module, name in [(cli.spectral, "eig"), (cli.spectral, "detect_coalescence"),
                             (np.linalg, "eig")]:
            monkeypatch.setattr(module, name, refuse)
        code, out, _ = run(capsys, "census", "--N", "14", "--mu", "0.5")
        assert code == 0
        assert out.splitlines()[-1] == "14,0.5,64.0,2,1,10"

    def test_sweep_makes_one_real_solve_per_point(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sweep must not reach this solver")

        solved = []
        solve = np.linalg.eig

        def counted(a, *args, **kwargs):
            solved.append((np.asarray(a).dtype, np.shape(a)[-1]))
            return solve(a, *args, **kwargs)

        for module, name in [(cli.spectral, "eig"), (cli.analysis, "eig"),
                             (cli.model, "build_ssh")]:
            monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(np.linalg, "eig", counted)
        code, out, _ = run(capsys, "sweep", "--N-grid", "6,10,14", "--mu-grid", "0.5,2.0")
        assert code == 0
        assert out.splitlines()[-1] == "14,2.0,0.015625,0,1,12,2"
        # mu = 2.0 lies on the product route: the (N/2) x (N/2) sublattice product
        assert solved == [(np.float64, size) for n in (6, 10, 14) for size in (n, n // 2)]

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

    def test_tampered_ep_tolerance_fails_with_exit_three(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.spectral, "EP_TOLERANCE", 0.0)
        code, out, _ = run(capsys, "verify", "--only", "six-site-mu2")
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

    def test_misspelt_config_key_exits_one(self, capsys, tmp_path):
        config = tmp_path / "c.cfg"
        config.write_text("N = 6\nmu = 2.0\ntol_residul = 1e-30\n")
        code, out, err = run(capsys, "census", "--config", str(config))
        assert code == 1
        assert out == ""
        assert err == f"error: {config}: unknown key 'tol_residul'\n"

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--N", "6", "--mu", "2"), ("zero-mode", "--N", "6", "--mu", "2"),
        ("bethe", "--N", "6", "--mu", "2"), ("census", "--N", "6", "--mu", "2"),
        ("sweep", "--N-grid", "6", "--mu-grid", "2"), ("plot", "--N-grid", "6", "--mu", "2"),
        ("verify", "--only", "six-site-mu2"),
    ])
    def test_config_t_is_an_unknown_key(self, capsys, tmp_path, argv):
        config = tmp_path / "c.cfg"
        config.write_text("t = 2\n")
        code, out, err = run(capsys, *argv, "--config", str(config))
        assert code == 1
        assert out == ""
        assert err == f"error: {config}: unknown key 't'\n"

    @pytest.mark.parametrize("command,flag", [
        ("plot", "--format"), ("plot", "--tol-residual"), ("plot", "--tol-class"),
        ("plot", "--tol-ep"), ("verify", "--format"), ("zero-mode", "--tol-residual"),
        ("zero-mode", "--tol-class"), ("zero-mode", "--tol-ep"), ("bethe", "--tol-residual"),
        ("bethe", "--tol-class"), ("bethe", "--tol-ep"),
    ] + [(command, flag) for command in ("spectrum", "census", "sweep", "verify")
         for flag in ("--tol-residual", "--tol-class", "--tol-ep")])
    def test_flags_the_subcommand_does_not_read_are_refused(self, capsys, tmp_path,
                                                            command, flag):
        argv = {"plot": ("plot", "--N-grid", "6", "--mu", "2"),
                "verify": ("verify", "--only", "six-site-mu2"),
                "zero-mode": ("zero-mode", "--N", "6", "--mu", "2"),
                "bethe": ("bethe", "--N", "6", "--mu", "2"),
                "spectrum": ("spectrum", "--N", "6", "--mu", "2"),
                "census": ("census", "--N", "6", "--mu", "2"),
                "sweep": ("sweep", "--N-grid", "6", "--mu-grid", "2")}[command]
        code, out, err = run(capsys, *argv, flag, "1")
        assert code == 1
        assert out == ""
        assert f"error: unrecognized arguments: {flag} 1" in err
        config = tmp_path / "c.cfg"
        config.write_text(f"{flag[2:]} = 1\n")
        code, out, err = run(capsys, *argv, "--config", str(config))
        assert code == 1
        assert out == ""
        assert err == f"error: {config}: unknown key '{flag[2:]}'\n"

    @pytest.mark.parametrize("key", ["N", "mu"])
    def test_sweep_config_rejects_single_point_keys(self, capsys, tmp_path, key):
        config = tmp_path / "c.cfg"
        config.write_text(f"N-grid = 6\nmu-grid = 2.0\n{key} = 8\n")
        code, _, err = run(capsys, "sweep", "--config", str(config))
        assert code == 1
        assert err == f"error: {config}: unknown key '{key}'\n"

    def test_config_keys_take_dashes_or_underscores(self, capsys, tmp_path):
        config = tmp_path / "c.cfg"
        config.write_text("N-grid = 6\nmu_grid = 2.0\n")
        code, out, _ = run(capsys, "sweep", "--config", str(config))
        assert code == 0
        assert "6,2.0,0.25,0,1,4,2" in out

    @pytest.mark.parametrize("argv", [
        "spectrum --N 6 --mu 2.0 --format json", "spectrum --N 6 --mu 2.0 --format csv",
        "spectrum --N 6 --mu 2.0 --gamma 0.3 --format text",
        "zero-mode --N 6 --mu 0.5 --format csv",
        "zero-mode --N 6 --mu 0.5 --side left --format json",
        "bethe --N 14 --mu 0.5 --format json", "bethe --N 14 --mu 0.5 --format csv",
        "census --N 6 --mu 2.0 --gamma auto --format csv", "census --N 6 --mu 0.5 --format json",
        "sweep --N-grid 6,8 --mu-grid 0.5,2.0 --format csv",
        "sweep --N-grid 6,8 --mu-grid 0.5,2.0 --format json",
    ])
    def test_a_config_file_writes_the_bytes_of_its_flags(self, capsys, tmp_path, argv):
        command, *flags = argv.split()
        config = tmp_path / "run.cfg"
        config.write_text("".join(f"{flag[2:]} = {value}\n"
                                  for flag, value in zip(flags[::2], flags[1::2])))
        expected = run(capsys, command, *flags)
        assert expected[0] == 0
        assert run(capsys, command, "--config", str(config)) == expected

    @pytest.mark.parametrize("command,line,flag,value", [
        ("census", "N = x", "--N", "6"), ("census", "format = yaml", "--format", "csv"),
        ("spectrum", "format = yaml", "--format", "json"),
        ("zero-mode", "side = up", "--side", "right"),
    ])
    def test_a_config_value_the_parser_refuses_is_a_usage_error(self, capsys, tmp_path,
                                                                command, line, flag, value):
        # checked as the flag is, also where a flag overrides it
        config = tmp_path / "c.cfg"
        config.write_text(f"N = 6\nmu = 2.0\n{line}\n")
        for argv in ((), (flag, value)):
            code, out, err = run(capsys, command, "--config", str(config), *argv)
            assert (code, out) == (1, "")
            assert err.startswith(f"usage: majorana-pt {command} ")
            assert err.count("error:") == 1
            assert f"majorana-pt {command}: error: argument {flag}: invalid " in err

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
        assert f"error: unrecognized arguments: {flags[0]} " in err

    @pytest.mark.parametrize("command", ["spectrum", "census", "bethe", "zero-mode"])
    def test_unit_t_and_delta_are_unrecognized_too(self, capsys, command):
        code, out, err = run(capsys, command, "--N", "6", "--mu", "2",
                             "--t", "1", "--delta", "1")
        assert code == 1
        assert out == ""
        assert "error: unrecognized arguments: --t 1 --delta 1" in err

    @pytest.mark.parametrize("command", ["spectrum", "census", "bethe", "zero-mode"])
    def test_echoed_config_has_no_t_or_delta(self, capsys, command):
        code, out, _ = run(capsys, command, "--N", "6", "--mu", "2", "--format", "json")
        assert code == 0
        assert not {"t", "delta"} & set(json.loads(out)["config"])

    def test_flag_prefixes_are_not_expanded(self, capsys):
        code, out, err = run(capsys, "sweep", "--N", "6", "--mu-grid", "2.0")
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --N 6" in err

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


class TestValuesWithALeadingMinus:
    """A flag's value may start with a minus, as after ``=``."""

    @pytest.mark.parametrize("command", ["census", "spectrum", "bethe", "zero-mode"])
    @pytest.mark.parametrize("gamma", ["-inf", "-nan", "-1e400", "-Infinity"])
    def test_a_non_finite_gamma_reaches_the_finite_check(self, capsys, command, gamma):
        expected = (1, "", "error: gamma must be finite\n")
        assert run(capsys, command, "--N", "6", "--mu", "2", "--gamma", gamma) == expected
        assert run(capsys, command, "--N", "6", "--mu", "2", f"--gamma={gamma}") == expected

    @pytest.mark.parametrize("command,gamma,last", [
        ("census", "-1e-3", "6,2.0,-0.001,0,0,6"),
        ("census", "-2.5e-1", "6,2.0,-0.25,0,1,4"),
        ("spectrum", "-1e-3", None),
        ("bethe", "-2.5e-1", None),
        ("zero-mode", "-2.5e-1", None),
    ])
    def test_a_negative_gamma_is_read_as_with_equals(self, capsys, command, gamma, last):
        spaced = run(capsys, command, "--N", "6", "--mu", "2", "--gamma", gamma)
        assert spaced == run(capsys, command, "--N", "6", "--mu", "2", f"--gamma={gamma}")
        code, out, err = spaced
        if command in ("census", "spectrum"):
            assert (code, err) == (0, "")
        else:  # -0.25 mirrors the locus, whose gamma is +0.25; bethe and zero-mode refuse it
            assert (code, out) == (1, "")
            assert err.endswith("only at gamma = gamma_ep(mu, N) = 0.25, got -0.25\n")
        if last is not None:
            assert out.splitlines()[-1] == last

    @pytest.mark.parametrize("argv,err", [
        ("sweep --N-grid 6 --mu-grid -0.5,1",
         "error: sweep requires mu > 0 and mu != 1, got -0.5\n"),
        ("sweep --N-grid -6,8 --mu-grid 2",
         "error: site count must be even and >= 4, got -6\n"),
        ("census --N -6 --mu 2", "error: site count must be even and >= 4, got -6\n"),
        ("census --N 6 --mu -2e0", "error: mu must be positive, got -2.0\n"),
    ])
    def test_negative_grids_and_counts_reach_their_checks(self, capsys, argv, err):
        assert run(capsys, *argv.split()) == (1, "", err)

    def test_a_flag_is_still_not_a_value(self, capsys):
        code, out, err = run(capsys, "census", "--N", "6", "--gamma", "--mu", "2")
        assert (code, out) == (1, "")
        assert "error: argument --gamma: expected one argument" in err


class TestNumericalFailures:
    @pytest.mark.parametrize("n", ["132", "300"])
    def test_bethe_root_scan_failure_is_an_error_line(self, capsys, monkeypatch, n):
        # the roots answer under the bound of 1e-13 per site, residuals
        # 1.0e-12 and 1.6e-12, and are refused under 1e-16 per site
        assert run(capsys, "bethe", "--N", n, "--mu", "2.0")[0] == 0
        monkeypatch.setattr(bethe, "ROOT_TOLERANCE", 1e-16)
        code, out, err = run(capsys, "bethe", "--N", n, "--mu", "2.0")
        assert code == 1
        assert out == ""
        assert err.startswith("error: polished root")
        assert "Traceback" not in err

    @pytest.mark.parametrize("n,mu,largest", [("592", "0.3", 590), ("1000", "0.3", 590),
                                              ("1026", "0.5", 1024)])
    def test_bethe_gamma_squared_overflow_is_one_error_line(self, capsys, n, mu, largest):
        code, out, err = run(capsys, "bethe", "--N", n, "--mu", mu)
        assert code == 1
        assert out == ""
        assert err.startswith("error: gamma^2") and err.count("\n") == 1
        assert f"the largest N for mu={mu} is {largest}" in err
        assert "Warning" not in err and "Traceback" not in err

    @pytest.mark.parametrize("mu", ["2", "0.5"])
    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_bethe_refuses_a_non_finite_gamma(self, capsys, mu, gamma):
        code, out, err = run(capsys, "bethe", "--N", "6", "--mu", mu, "--gamma", gamma)
        assert (code, out, err) == (1, "", "error: gamma must be finite\n")

    @pytest.mark.parametrize("argv,locus", [
        ("bethe --N 6 --mu 2.0 --gamma 0.3", "0.25"),
        ("bethe --N 14 --mu 0.5 --gamma 1.0", "64.0"),
        ("bethe --N 6 --mu 1.0 --gamma 0.3", "1.0"),
        ("bethe --N 6 --mu 2.0 --gamma -0.25", "0.25"),
    ])
    def test_bethe_refuses_a_gamma_off_the_locus(self, capsys, argv, locus):
        # the zero-mode root and the imaginary pair exist only on the locus:
        # at (6, 2.0, 0.3) k = (i/2) ln mu leaves a residual of 8.1e-2, and
        # the imaginary pair at +/-0.129i that spectrum finds goes unsolved
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (1, "")
        assert err == (f"error: the zero-mode root exists only at gamma = gamma_ep(mu, N) = "
                       f"{locus}, got {float(argv.split()[-1])!r}\n")

    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_zero_mode_refuses_a_non_finite_gamma_as_bethe_does(self, capsys, gamma):
        # the shared locus check refuses a non-finite gamma first
        code, out, err = run(capsys, "zero-mode", "--N", "6", "--mu", "2", "--gamma", gamma)
        assert (code, out, err) == (1, "", "error: gamma must be finite\n")

    @pytest.mark.parametrize("n,mu", [("24", "0.97"), ("60", "0.99"), ("116", "0.999")])
    def test_bethe_unconverged_evanescent_root_is_one_error_line(self, capsys, n, mu):
        # just past N*(mu): mpmath's findroot fails from the asymptotic seed
        code, out, err = run(capsys, "bethe", "--N", n, "--mu", mu)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: the evanescent root did not converge for n={n}, "
                              f"mu={mu} from the seed kappa=")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("n,mu", [("20", "0.98503756"), ("20", "0.98503383"),
                                      ("40", "0.99625282")])
    def test_bethe_refuses_the_zero_mode_root_as_the_pair(self, capsys, n, mu):
        code, out, err = run(capsys, "bethe", "--N", n, "--mu", mu)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: the evanescent root for n={n}, mu={mu} is the "
                              "zero-mode root kappa = ln(1/mu)/2: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("n,mu", [("590", "0.3"), ("1024", "0.5")])
    def test_bethe_at_the_gamma_squared_edge_answers(self, capsys, n, mu):
        # refused under a fixed 1e-12 root bound; under 1e-13 N the N - 4
        # real roots, the zero-mode root and the evanescent pair
        code, out, err = run(capsys, "bethe", "--N", n, "--mu", mu)
        assert (code, err) == (0, "")
        assert len(json.loads(out)["roots"]) == int(n) - 1

    def test_eigensolver_residual_failure_is_an_error_line(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.spectral, "RESIDUAL_TOLERANCE", 1e-20)
        code, out, err = run(capsys, "spectrum", "--N", "6", "--mu", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("error: right eigenpair")

    def test_spectrum_residual_refusal_is_one_error_line(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.spectral, "RESIDUAL_TOLERANCE", 1e-30)
        code, out, err = run(capsys, "spectrum", "--N", "14", "--mu", "0.5")
        assert code == 1
        assert out == ""
        assert err.startswith("error: right eigenpair")
        assert err.count("\n") == 1

    def test_census_certificate_failure_is_an_error_line(self, capsys, monkeypatch):
        # |h psi| of the closed-form zero mode is 5.6e-17 at (6, 0.8)
        monkeypatch.setattr(cli.spectral, "RESIDUAL_TOLERANCE", 1e-20)
        code, out, err = run(capsys, "census", "--N", "6", "--mu", "0.8")
        assert code == 1
        assert out == ""
        assert err.startswith("error: closed-form zero mode residual")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        "census --N 1182 --mu 0.3", "census --N 1400 --mu 0.3",
        "zero-mode --N 2000 --mu 0.3", "bethe --N 2000 --mu 0.3",
        "spectrum --N 2000 --mu 0.3",
    ])
    def test_unrepresentable_locus_is_an_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == 1
        assert out == ""
        assert err == (f"error: gamma_ep(mu=0.3, N={argv.split()[2]}) = mu**(1 - N/2) "
                       "overflows a float; the largest N for mu=0.3 is 1180\n")

    @pytest.mark.parametrize("argv,prefix", [
        ("census --N 1360 --mu 3.0", ""), ("zero-mode --N 1360 --mu 3.0", ""),
        ("sweep --N-grid 1360 --mu-grid 3.0", "sweep failed at (n=1360, mu=3.0): "),
        ("census --N 2012 --mu 2.1", ""),
    ])
    def test_locus_underflowing_to_zero_is_an_error_line(self, capsys, argv, prefix):
        # gamma = 0 is the Hermitian chain, which has no exceptional point
        code, out, err = run(capsys, *argv.split())
        n, mu = argv.split()[2], argv.split()[4]
        largest = {"3.0": 1358, "2.1": 2010}[mu]
        assert (code, out) == (1, "")
        assert err == (f"error: {prefix}gamma_ep(mu={mu}, N={n}) = mu**(1 - N/2) "
                       f"underflows to 0; the largest N for mu={mu} is {largest}\n")

    @pytest.mark.parametrize("n,mu,gamma", [
        (1358, "3.0", "5e-324"), (2048, "2.0", "1.1125369292536007e-308"),
    ])
    def test_census_below_the_underflow_edge(self, capsys, n, mu, gamma):
        code, out, _ = run(capsys, "census", "--N", str(n), "--mu", mu)
        assert code == 0
        assert out == (f"# N={n}\n# command='census'\n# gamma={gamma}\n# mu={mu}\n"
                       f"N,mu,gamma,n_I,n_EP,n_S\n{n},{mu},{gamma},0,1,{n - 2}\n")


class TestCsvArtifactBytes:
    """CSV artifacts keep their recorded bytes.

    The spectrum rows hold LAPACK residuals and overlaps, so their digests
    were recorded with numpy 2.4 on OpenBLAS; the other artifacts do not
    depend on the BLAS build.  The spectrum digests were re-recorded when
    the residuals and overlaps came to be read from the real form; only the
    residual and overlap columns changed, each within rounding.
    """

    DIGESTS = {
        # re-recorded when the chain on the locus with mu >= 1 took the
        # sublattice product solve
        "spectrum --N 6 --mu 2.0":
            "2181a9549fac3eba5c36d8c4e38679d75289933d41ba7cc49ecb588ab5631277",
        "census --N 6 --mu 2.0":
            "83b9cfb163f67fb67cdcbb46f67b87279e3333d0525b794063864ae12157912b",
        "bethe --N 6 --mu 2.0":
            "eb66b07f37fbb734dc73c6a5603816bd3f997d0a4200bc3618d934725bbadcae",
        "zero-mode --N 6 --mu 2.0":
            "a6d9c1d4db183dbf7d45a0275abab8e93f09b3d49bdf47fa3d20f281960b2934",
        "sweep --N-grid 6 --mu-grid 2.0":
            "86158557a45e4e503797deee7b01f04b40d2bb8eedd3b6f5aacda703c9796c2a",
        "spectrum --N 14 --mu 0.5":
            "f728c7bc5774ea6125d6acce008f24a06ab9f0f30f473567b1d3ce267e371927",
        "census --N 14 --mu 0.5":
            "9637316d478283040e05a77dfdd1c6d73edda446f9c972fed5357bdad776f2e1",
        "bethe --N 14 --mu 0.5":
            "1c1d9666b32a3ef42ceb10c5854100f9691f6ab81f72335b4590629735bec498",
        "zero-mode --N 14 --mu 0.5":
            "f9896dd7ab3e8eb998ed007df646e5bc10d963e5d98523cfece0b417a639a460",
        "sweep --N-grid 14 --mu-grid 0.5":
            "63d09d6aa3780a1ffcc9e946599a08e6a3ef88a9f13574810dc9e5afabce2366",
        "sweep --N-grid 6,8 --mu-grid 0.5,2.0":
            "fd10f6d4d7aa9a8bf70639d0450926108c4e25b32b5340fd07a42bfe44e68667",
        "sweep --N-grid 100,200,300,400 --mu-grid 0.95,1.05,1.1":
            "f7cbc12b1e3b3211527773946720b218426a260e9705f22e078b3bc16d4520c4",
        "spectrum --N 30 --mu 1.5 --gamma 1.0":
            "784c1cee8e6c25ceffc63fde1fb762081317087bdca816f3d835dc7ffea1922f",
        # recorded before the writers moved into serialize: the split route,
        # the N x N locus route and the mirrored locus
        "spectrum --N 60 --mu 0.5":
            "a24b30252b6f084a9dd806d96df89ec875cac624b5ec37ee1c649ddc124b7eaf",
        "census --N 60 --mu 0.5":
            "794b13b7d8ac98ab1096e6edd47e2f87b5451810ba510af9d8d709914c673c9e",
        "bethe --N 60 --mu 0.5":
            "7f8838a72a0ec727f74ba7814a2577ab21b1c5b28e2ae922064b0745f0d26516",
        "zero-mode --N 60 --mu 0.5":
            "bb0d5f067e14d874f38ce79208362315e0d8c1b8eaabeeabc959872d6a761351",
        "spectrum --N 30 --mu 0.8":
            "73f5418be0348b62b6d2de7f60416df737bbe3cbbabf2e40bf31e28efe7d2b0f",
        "census --N 30 --mu 0.8":
            "e4717d405b3937019d5100fb89702755ebc92c42f47720c71932e00a3f4cb082",
        "bethe --N 30 --mu 0.8":
            "1b928525ebd9cd8cecd7e436c27e2e2b9d943062fced328e25035215e9ae68d9",
        "zero-mode --N 30 --mu 0.8":
            "6844105ae1c8e62bd7d3c126aba250a09c318ca26070b67ea58cb82d9140b33f",
        "spectrum --N 14 --mu 0.5 --gamma=-64.0":
            "1a3e3be5009faa709c53cc4e268ce11ec638d2084a1066f53cfc8b1b0fc11cef",
        "census --N 14 --mu 0.5 --gamma=-64.0":
            "64d3bb64c38107ebc871439989880d07ec61f39492b382da91267a4fc999922f",
    }

    #: The text and SVG artifacts, recorded with the CSV ones above; each key
    #: is the whole command line.
    TEXT_DIGESTS = {
        "spectrum --N 6 --mu 2.0 --format text":
            "4e5e4a501f402de8ef0b6a92bbc8f8770fd8ee9793edb22370840da74746c522",
        "spectrum --N 60 --mu 0.5 --format text":
            "eb0df9f9bd16b15d97fce2c9e80000c72756c47d5a077d2b30de06b16a9f7b5c",
        "spectrum --N 30 --mu 0.8 --format text":
            "1ba78836530fce5559c6b928a9a00762537df30d023dd28ccb0883d34d4ff037",
        "spectrum --N 14 --mu 0.5 --gamma=-64.0 --format text":
            "76bc765302c3f5e6cf10a8a6a32560bb02c0dfa25957ae6255839bd697987584",
        "plot --N-grid 14,22,30 --mu 1.5":
            "c1a6f85da754b8b48c30cff3d672f6fd4daec2ba1e73478472ff590ec1c73010",
    }

    @pytest.mark.parametrize("argv", DIGESTS)
    def test_sha256(self, capsys, argv):
        code, out, _ = run(capsys, *argv.split(), "--format", "csv")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[argv]

    @pytest.mark.parametrize("argv", TEXT_DIGESTS)
    def test_text_sha256(self, capsys, argv):
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.TEXT_DIGESTS[argv]


class TestJsonArtifactBytes:
    """JSON artifacts keep the bytes that ``json.dumps`` wrote for them.

    Recorded with the stdlib encoder, before ``serialize.dump_json`` wrote
    JSON itself; the spectrum digests depend on the BLAS build as in
    :class:`TestCsvArtifactBytes`, and were re-recorded with them when the
    residuals and overlaps came to be read from the real form.
    """

    DIGESTS = {
        # re-recorded, and checked equal to the stdlib encoding, when the
        # chain on the locus with mu >= 1 took the sublattice product solve
        "spectrum --N 6 --mu 2.0":
            "66e6eea70609bf432a3698e1412479e5638aecd30d512e11588101c946b43303",
        "bethe --N 6 --mu 2.0":
            "6484a3087a33813bf99f94e3e738b22425832b6a86e3895d870723a696da301e",
        "zero-mode --N 6 --mu 2.0":
            "f3623231821fde6c14ec1a55a9a09345efc7ae2a39aecae2edcd0cb1e0d5afd1",
        "census --N 6 --mu 2.0":
            "32392c8955d6048617578923eba739feff61d0d7b552c343af54ca9ece66d03e",
        "spectrum --N 14 --mu 0.5":
            "d0db8e36635d919c9bbd64b7e2210906280a5ce005d158322784cfad21d06577",
        "bethe --N 14 --mu 0.5":
            "a337c17cc7ac8584691e0275e1bde00e722988da0f44171664551830e1ceed72",
        "zero-mode --N 14 --mu 0.5":
            "f82cd632777837f4b96cd17459f5c4d4f4e257df8f485eea716111ffd6569e43",
        "census --N 14 --mu 0.5":
            "1923d6da28a9716bff9a8aeace192414de6295ea493152d6b72b29c7512676a9",
        # off the locus: no pair, two imaginary and 28 real levels; recorded
        # when the mode classes were read from per-level records
        "spectrum --N 30 --mu 1.5 --gamma 1.0":
            "ab909aff5ba942151d252b70e267b608ffe4c2727dd70f1c622d6eb6521aad61",
        # recorded before the writers moved into serialize: the split route,
        # the N x N locus route and the mirrored locus
        "spectrum --N 60 --mu 0.5":
            "d71f0430fb5f2097775ba3a6120306fb440ee56c8a8b3a1cec5ea056fe006d25",
        "census --N 60 --mu 0.5":
            "b9af1fb4c1476e68f07e53bd3661f95c9a8a275c0cdae67daa037b0d6c32689c",
        "bethe --N 60 --mu 0.5":
            "17189f5e9dc1e222f37fc6dd5311e3fe8ace23550a1df91e1b71faab7d200b17",
        "zero-mode --N 60 --mu 0.5":
            "e503ef4f709b6dbbfb43f6d8b418bdc429ee2e76d6770c407e5465601428d72a",
        "spectrum --N 30 --mu 0.8":
            "3dc1dc19af99b7cdd5f0fea96551d45194b6b393ce76bc3ad30366902ee1ab2e",
        "census --N 30 --mu 0.8":
            "ac96e480983a67132b61cc01564f71a0e267e7ae50866513529db5aae5673710",
        "bethe --N 30 --mu 0.8":
            "0448c23fd4e131dfb5532f4cf9e91af936539ac79486bb664181094ff2dd11ad",
        "zero-mode --N 30 --mu 0.8":
            "3c698fb17d0d5b93fb254c34091cb8e8278e21a19ae4dd82c3b23fca2b01a151",
        "spectrum --N 14 --mu 0.5 --gamma=-64.0":
            "4a313fb8fed870c1345f720ed573648385dcafb6c194f4e229df2eef7235c9d0",
        "census --N 14 --mu 0.5 --gamma=-64.0":
            "9b120a2d74b25b67ef7f5b325f1c13bde66a16eb648db9d23ed68871405cad77",
    }

    @pytest.mark.parametrize("argv", DIGESTS)
    def test_sha256(self, capsys, argv):
        code, out, _ = run(capsys, *argv.split(), "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[argv]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_off_the_locus_at_mu_half_nothing_is_written(self, capsys, fmt):
        # at (30, 0.5, 1.0) PT is broken: a level is neither real nor
        # imaginary, so the chain is refused with exit 2 and no artifact
        code, out, err = run(capsys, "spectrum", "--N", "30", "--mu", "0.5",
                             "--gamma", "1.0", "--format", fmt)
        assert (code, out) == (2, "")
        assert err.startswith("classification error: eigenvalue (")
        assert err.endswith(" is neither real nor imaginary at threshold 1.492e-08; "
                            "off the coalescence locus\n")


class TestParserReuse:
    """``main`` builds its parser once per process, and reuse keeps no state."""

    def test_parser_is_built_once(self, capsys, monkeypatch):
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        run(capsys, "census", "--N", "6", "--mu", "2.0")
        built.clear()
        for argv in [
            ("spectrum", "--N", "6", "--mu", "2"), ("census", "--N", "8", "--mu", "0.5"),
            ("bethe", "--N", "6", "--mu", "2"), ("zero-mode", "--N", "6", "--mu", "2"),
            ("sweep", "--N-grid", "6", "--mu-grid", "2"),
            ("plot", "--N-grid", "6", "--mu", "2"), ("verify", "--only", "six-site-mu2"),
            ("census", "--frobnicate"), ("frobnicate",), ("bethe", "--help"),
        ]:
            run(capsys, *argv)
        assert built == []

    def test_reuse_keeps_no_state(self, capsys, tmp_path):
        code, out, err = run(capsys, "census", "--N", "6", "--frobnicate")
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --frobnicate" in err
        code, out, _ = run(capsys, "spectrum", "--help")
        assert code == 0 and out.startswith("usage: majorana-pt spectrum")
        config = tmp_path / "c.cfg"
        config.write_text("mu = 0.5\ngamma = 0.3\n")
        code, out, _ = run(capsys, "census", "--N", "6", "--format", "csv",
                           "--config", str(config), "--mu", "2.0")
        assert code == 0
        assert out.endswith("# gamma=0.3\n# mu=2.0\nN,mu,gamma,n_I,n_EP,n_S\n6,2.0,0.3,2,0,4\n")
        for argv in ("census --N 6 --mu 2.0", "spectrum --N 14 --mu 0.5"):
            code, out, _ = run(capsys, *argv.split(), "--format", "csv")
            assert code == 0
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert digest == TestCsvArtifactBytes.DIGESTS[argv]

    def test_help_width_follows_columns_at_call_time(self, capsys, monkeypatch):
        helps = []
        for columns in (40, 160):
            monkeypatch.setenv("COLUMNS", str(columns))
            code, out, _ = run(capsys, "spectrum", "--help")
            assert code == 0
            helps.append(out.splitlines())
        narrow, wide = helps
        assert len(narrow) > len(wide)
        assert max(map(len, wide)) > 40


class TestModuleEntryPoint:
    """``python -m majorana_pt`` runs the CLI from a checkout without an install."""

    @staticmethod
    def run_module(*argv):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-m", "majorana_pt", *argv],
                              capture_output=True, env=env, timeout=300)

    def test_verify_six_site_exits_zero(self):
        result = self.run_module("verify", "--only", "six-site")
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout.decode().count("PASS") == 2

    def test_census_csv_matches_the_recorded_digest(self):
        argv = "census --N 6 --mu 2.0"
        result = self.run_module(*argv.split(), "--format", "csv")
        assert result.returncode == 0, result.stderr
        digest = hashlib.sha256(result.stdout).hexdigest()
        assert digest == TestCsvArtifactBytes.DIGESTS[argv]

    def test_the_cli_import_path_loads_no_scipy(self, tmp_path):
        # scipy is a test-only oracle: importing the CLI and running the
        # commands that solve, root-scan and verify must not load it
        code = "\n".join([
            "import contextlib, io, sys",
            "import majorana_pt.cli as cli",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    for argv in (['census', '--N', '6', '--mu', '0.5'],",
            "                 ['bethe', '--N', '14', '--mu', '0.5'],",
            "                 ['verify', '--only', 'six-site']):",
            "        assert cli.main(argv) == 0, argv",
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                                cwd=tmp_path, timeout=300, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"
