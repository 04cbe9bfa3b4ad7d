"""Tests of the benchmark harness.  They assert no wall-clock bounds.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

import run

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

import diskxray  # noqa: E402
from diskxray import specfun, svdcore, zernike  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import CCD_CHARTS, WORKLOADS, RenderBumps, SinoRoundtrip, VerifyOracles  # noqa: E402

# the same workloads at sizes that run in well under a second per request
TINY = {
    "sino_roundtrip": SinoRoundtrip(degree=6, pool=2),
    "render_bumps": RenderBumps(degree=5, resolution=24, pool=1, pixels=16),
    "verify_oracles": VerifyOracles(verify_argv=("verify", "--suite", "funcrel", "--degree", "4"), charts=CCD_CHARTS[:2]),
}


def _benchmark_json() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_benchmark_json():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert set(TINY) == set(WORKLOADS)


def _files(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("name", sorted(TINY))
def test_inputs_from_one_seed_are_byte_identical(name, tmp_path, monkeypatch):
    workload = TINY[name]

    def generate(seed, label):
        d = tmp_path / label
        d.mkdir()
        monkeypatch.chdir(d)  # relative paths, so requests compare equal
        inputs = workload.generate(seed, ".")
        return _files(d), [workload.request(inputs, i, "out") for i in range(3)]

    first = generate(7, "a")
    assert generate(7, "b") == first
    assert generate(8, "c") != first


def _assert_result(result, units):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert math.isfinite(metric["value"])
    json.dumps(result, allow_nan=False)


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_run_passes_its_checks(name, tmp_path):
    result, detail = run.run(name, TINY[name], seed=5, seconds=0.0, trace=False, workdir=tmp_path, setup_reps=1)
    _assert_result(result, run.END_TO_END)
    assert detail["inputs_deterministic"]
    assert result["metrics"]["accuracy_digits"]["value"] >= 10.0
    assert detail["provenance"]["seed"] == 5
    want = {"request_p50_s"} | {c.replace("-", "_") + "_p50_s" for c in TINY[name].commands}
    assert set(detail["commands"]) == want


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_traced_run_reports_every_layer_metric(name, tmp_path):
    originals = (svdcore.gegenbauer_L, zernike.jacobi_eval, zernike.CoefficientField.evaluate)
    trace_path = tmp_path / "trace.npz"
    result, _ = run.run(name, TINY[name], seed=5, seconds=0.0, trace=True, workdir=tmp_path, setup_reps=1,
                        trace_path=trace_path)
    _assert_result(result, run.PER_LAYER)
    assert result["attempted"] == 2  # one untraced and one traced pass
    assert trace_path.stat().st_size > 0
    # tracing leaves no wrapper behind
    assert (svdcore.gegenbauer_L, zernike.jacobi_eval, zernike.CoefficientField.evaluate) == originals
    assert svdcore.gegenbauer_L is specfun.gegenbauer_L


def test_accuracy_counts_requests_that_failed_their_checks(tmp_path):
    """A request that misses its tolerance still contributes its accuracy figure."""
    strict = SinoRoundtrip(degree=6, pool=2, tol=1e-30)
    result, _ = run.run("sino_roundtrip", strict, seed=5, seconds=0.0, trace=False, workdir=tmp_path, setup_reps=1)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert 10.0 <= result["metrics"]["accuracy_digits"]["value"] < 17.0


def test_digits_of_an_unusable_error_are_zero():
    assert workloads._digits(math.inf) == workloads._digits(math.nan) == workloads._digits(2.0) == 0.0
    assert workloads._digits(1e-12) == pytest.approx(12.0)


def test_set_up_repeats_are_timed_checked_and_removed(tmp_path):
    workload = TINY["verify_oracles"]
    setup = run.SetUp(workload, 3, tmp_path)
    setup.repeat(0.01, 50)
    setup.repeat()
    assert setup.deterministic and 3 <= len(setup.times) <= 52
    assert setup.median_s > 0.0
    assert sorted(setup.inputs) == sorted(workload.charts)
    assert [p.name for p in tmp_path.iterdir()] == ["inputs"]


def test_self_times_partition_the_request_span(tmp_path):
    """Self times of all spans in a request add up to the root span's duration."""
    workload = TINY["render_bumps"]
    inputs = workload.generate(3, str(tmp_path))
    tracer = Tracer()
    tracer.install(0)
    try:
        with tracer.request_span():
            res = run.run_request(workload.request(inputs, 0, str(tmp_path)))
    finally:
        tracer.uninstall()
    assert [o.returncode for o in res.outputs] == [0, 0]
    agg = tracer.requests[0]
    assert sum(agg["self"].values()) == pytest.approx(agg["total"]["request"], rel=1e-9)
    # functions imported by name are traced at their call sites
    assert agg["calls"]["specfun.jacobi_eval"] == agg["calls"]["zernike.G_hat_eval"] > 0
    assert agg["calls"]["specfun.gegenbauer_L"] > 0
    assert agg["counts"]["zernike.evaluate.mode_points"] == 21 * (24 * 24 - _outside_pixels(24))
    assert set(tracer.peaks_mib) == {"svdcore.analyze", "zernike.evaluate"}


def _outside_pixels(m: int) -> int:
    import numpy as np

    axis = np.linspace(-1.0, 1.0, m)
    return int((np.hypot(axis[None, :], axis[:, None]) > 1.0).sum())


def test_missing_sources_exit_nonzero_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "sino_roundtrip", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_diskxray_is_imported_from_this_checkout():
    assert Path(diskxray.__file__).resolve().is_relative_to(run.SRC.resolve())
