"""The benchmark's own tests: tiny smoke runs, negative checks, no wrappers untraced."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

import majorana_pt  # noqa: E402
from majorana_pt import spectral  # noqa: E402
from perfbench import checks, run, speed, tracer, workloads  # noqa: E402


def traced_names() -> list[str]:
    """Every attribute of majorana_pt or numpy.linalg that is a tracing wrapper."""
    found = []
    for name, module in list(sys.modules.items()):
        if name == "numpy.linalg" or name.startswith("majorana_pt"):
            for attr, value in list(vars(module).items()):
                if hasattr(value, "__perfbench_traced__"):
                    found.append(f"{name}.{attr}")
    return found


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_untraced_run_passes_its_checks(name, tmp_path):
    workload = workloads.Workload(name, 0, str(tmp_path), "tiny")
    outcomes, scaled, units = run.run_untraced(workloads, workload.unit(), seconds=1e-9)
    assert units == 1 and outcomes and len(scaled) == len(outcomes)
    assert [o.failure for o in outcomes if o.failure] == []
    assert all(o.seconds > 0 for o in outcomes)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_traced_run_reports_every_layer_metric(name, tmp_path):
    workload = workloads.Workload(name, 0, str(tmp_path), "tiny")
    spans = tracer.Tracer()
    outcomes, traced_s, untraced_s = run.run_traced(workloads, workload.unit(), 1e-9, spans)
    assert len(traced_s) == 1 and len(untraced_s) == 1
    assert [o.failure for o in outcomes if o.failure] == []
    metrics = spans.metrics(traced_s, untraced_s)
    assert list(metrics) == [s["name"] for s in tracer.metric_specs()]
    assert metrics["numpy.linalg.eig.calls"] > 0
    assert metrics["numpy.linalg.eig.dim3_sum"] > 0
    assert all(s["parent"] is None or s["parent"] < s["id"] for s in spans.spans)
    assert all(own >= -1e-9 for own in spans.self_times())
    assert traced_names() == []


def test_traced_verify_counts_repeat_per_suite(tmp_path):
    workload = workloads.Workload("verify", 0, str(tmp_path), "tiny")
    spans = tracer.Tracer()
    run.run_traced(workloads, workload.unit(), 1e-9, spans)
    metrics = spans.metrics([1.0], [1.0])
    # six-site criteria: one spectral.eig each, two LAPACK solves plus one warm-up
    assert metrics["spectral.eig.calls"] == 2
    assert metrics["numpy.linalg.eig.calls"] == 6
    assert metrics["numpy.linalg.eig.dim3_sum"] == 4 * 6**3 + 2 * 2**3
    assert metrics["spectral.eig.distinct_frac"] == 1.0
    assert metrics["verify.six-site-mu2.s"] > 0


def test_untraced_run_installs_no_wrappers(tmp_path):
    workload = workloads.Workload("requests", 1, str(tmp_path), "tiny")
    seen = []
    snapshot = workloads.Op("snapshot", None, None, lambda: seen.extend(traced_names()),
                            lambda _: None)
    outcomes, _, _ = run.run_untraced(workloads, workload.unit() + [snapshot], 1e-9)
    assert seen == [] and traced_names() == []
    assert not hasattr(spectral.eig, "__perfbench_traced__")
    assert not hasattr(np.linalg.eig, "__perfbench_traced__")
    assert [o.failure for o in outcomes if o.failure] == []


def test_tracer_uninstall_restores_originals():
    originals = (spectral.eig, majorana_pt.analysis.eig, np.linalg.eig)
    spans = tracer.Tracer()
    spans.install()
    try:
        assert hasattr(majorana_pt.analysis.eig, "__perfbench_traced__")
        assert hasattr(np.linalg.eig, "__perfbench_traced__")
    finally:
        spans.uninstall()
    assert (spectral.eig, majorana_pt.analysis.eig, np.linalg.eig) == originals


def test_wrong_census_is_marked_failed():
    good = "# c\nN,mu,gamma,n_I,n_EP,n_S\n30,2.0,1e-4,0,1,28\n"
    assert checks.check_census_csv(good, [(30, 2.0)]) is None
    assert checks.check_census_csv(good.replace("0,1,28", "0,0,30"), [(30, 2.0)])
    assert checks.check_census_csv(good, [(30, 2.0), (30, 0.5)])
    spectrum = json.dumps({"census": {"n_I": 2, "n_EP": 0, "n_S": 28, "N": 30},
                           "eigenvalues": [[0.0, 0.0]] * 30})
    assert checks.check_spectrum_json(spectrum, 30, 0.5)


def test_perturbed_spectrum_is_marked_failed():
    n, mu = 14, 0.5
    reference = checks.ssh_reference(n, mu)
    from majorana_pt import bethe, model

    gamma = model.gamma_ep(mu, n)
    epsilons = [r.epsilon for r in bethe.solve_real_k(mu, gamma, n)]
    epsilons += [0.0] + [r.epsilon for r in bethe.solve_evanescent_pair(mu, gamma, n)]
    assert checks.check_bethe_values(epsilons, reference) is None
    epsilons[0] += 1e-7
    assert checks.check_bethe_values(epsilons, reference)
    ring = model.build_majorana_ring(model.ModelParams(n=n, mu=mu, gamma=gamma))
    values = spectral.eig(ring).eigenvalues
    assert checks.check_ring(values, reference) is None
    values[-1] += 1e-8
    assert checks.check_ring(values, reference)
    psi = bethe.zero_mode(n, mu).amplitudes

    def zero_mode_csv(amplitudes):
        rows = (complex(z) for z in amplitudes)
        return "j,re,im,P_j\n" + "".join(f"{j},{z.real!r},{z.imag!r},{abs(z)!r}\n"
                                         for j, z in enumerate(rows, start=1))

    assert checks.check_zero_mode_csv(zero_mode_csv(psi), n, mu) is None
    psi[0] += 1e-9
    assert checks.check_zero_mode_csv(zero_mode_csv(psi), n, mu)


def test_failed_operations_are_counted_and_the_run_goes_on(tmp_path):
    def boom():
        raise RuntimeError("boom")

    unit = [workloads.Op("raise", None, None, boom, lambda _: None),
            workloads.Op("wrong", 6, 2.0, lambda: 1, lambda rc: f"exit code {rc}"),
            workloads.Op("right", 6, 2.0, lambda: 0, lambda rc: None)]
    outcomes, _, _ = run.run_untraced(workloads, unit, 1e-9)
    assert [o.failure is not None for o in outcomes] == [True, True, False]
    assert "RuntimeError" in outcomes[0].failure


def test_repeated_request_must_give_identical_bytes(tmp_path):
    workload = workloads.Workload("requests", 0, str(tmp_path), "tiny")
    op = workload.request_op(workloads.Request("census", 8, 2.0))
    assert workloads.execute(op).failure is None
    workload._digests = {key: "0" * 64 for key in workload._digests}
    assert "differs" in workloads.execute(op).failure


def test_request_stream_is_seeded_and_straddles_the_domain():
    stream = workloads.request_stream(0, 40, 200, 60)
    assert stream == workloads.request_stream(0, 40, 200, 60)
    assert stream != workloads.request_stream(1, 40, 200, 60)
    assert len(stream) == 5 * 40 + 4 * 5
    fresh = list({id(r): r for r in stream}.values())
    for kind in workloads.REQUEST_KINDS:
        mus = [r.mu for r in fresh if r.kind == kind]
        assert sorted(mus) == sorted(workloads.REQUEST_MU * 8)
    repeats = [r for i, r in enumerate(stream) if any(r is q for q in stream[:i])]
    assert len(repeats) == 20 and all(r.kind != "ring" for r in repeats)
    assert all(6 <= r.n <= (60 if r.kind == "ring" else 200) and r.n % 2 == 0 for r in stream)
    outside = [r for r in stream if not workloads.in_domain(r.kind, r.n, r.mu)]
    assert 0 < len(outside) < len(stream)


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert spec["per_layer"] == tracer.metric_specs()
    assert [w["name"] for w in spec["workloads"]] == ["verify", "requests"]


def test_command_prints_the_result_line_last(tmp_path):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "requests", "--seed", "2",
         "--seconds", "0.01", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_operation_times_are_scaled_by_the_host_slowdown(monkeypatch):
    # slowdown 1 before the ops and 3 after them: each op is scaled by the mean, 2
    calibrations = iter([speed.REFERENCE_S, 3 * speed.REFERENCE_S])
    monkeypatch.setattr(speed, "task_seconds", lambda: next(calibrations))
    unit = [workloads.Op("noop", None, None, lambda: None, lambda _: None)] * 3
    outcomes, scaled, _ = run.run_untraced(workloads, unit, 1e-9)
    assert scaled == pytest.approx([o.seconds / 2 for o in outcomes])


def test_calibration_task_runs():
    assert speed.task_seconds() > 0
