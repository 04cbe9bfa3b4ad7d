import math
import re

import numpy as np
import pytest

from diskxray import ccd
from diskxray.cli import build_parser, main, parse_phantom
from diskxray.svdcore import sigma_sq_flat
from diskxray.verify import run_suite
from diskxray.xray import read_sinogram
from diskxray.zernike import read_coefficients, triangle


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_spectrum_gamma_zero(tmp_path, capsys):
    out = tmp_path / "sigma.csv"
    assert main(["spectrum", "--gamma", "0", "--degree", "2", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,k,sigma,sigma_sq"
    assert len(lines) == 7  # header + six (n,k) rows
    for row in lines[1:]:
        n, k, s, s2 = row.split(",")
        assert float(s2) == pytest.approx(4.0 * math.pi / (int(n) + 1.0), rel=1e-12)


def test_spectrum_file_holds_sigma_sq_flat_bit_for_bit(tmp_path):
    out = tmp_path / "sigma.csv"
    assert main(["spectrum", "--gamma", "0.5", "--degree", "64", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert [(int(n), int(k)) for n, k, _, _ in rows] == list(triangle(64).pairs())
    sq = sigma_sq_flat(0.5, 64)
    assert [float(s2) for _, _, _, s2 in rows] == sq.tolist()
    assert [float(s) for _, _, s, _ in rows] == np.sqrt(sq).tolist()


def test_spectrum_degree_zero(tmp_path):
    out = tmp_path / "sigma.csv"
    assert main(["spectrum", "--degree", "0", "--out", str(out)]) == 0
    assert len(out.read_text().strip().split("\n")) == 2


def test_spectrum_extreme_gamma(tmp_path):
    out = tmp_path / "sigma.csv"
    assert main(["spectrum", "--gamma", "-0.99", "--degree", "40", "--out", str(out)]) == 0
    for row in out.read_text().strip().split("\n")[1:]:
        s2 = float(row.split(",")[3])
        assert math.isfinite(s2) and s2 > 0.0


def test_synthesize_constant_phantom(tmp_path):
    phantom = _write(tmp_path / "ph.txt", "gamma=0\ndegree=0\n0,0,1.0,0.0\n")
    out = tmp_path / "sino.txt"
    assert main(["synthesize", phantom, "--gamma", "0", "--degree", "4", "--out", str(out)]) == 0
    sino, _ = read_sinogram(out)
    # delta at (0,0) synthesizes to sigma_00 * psihat-tilde = 2/sqrt(pi)
    assert np.allclose(sino.values, 2.0 / math.sqrt(math.pi), rtol=1e-12)


def test_synthesize_empty_phantom_gives_zero(tmp_path):
    phantom = _write(tmp_path / "ph.txt", "gamma=0.5\ndegree=2\n")
    out = tmp_path / "sino.txt"
    assert main(["synthesize", phantom, "--gamma", "0.5", "--degree", "3", "--out", str(out)]) == 0
    sino, _ = read_sinogram(out)
    assert np.all(sino.values == 0.0)


def test_synthesize_noise_is_deterministic(tmp_path):
    phantom = _write(tmp_path / "ph.txt", "gamma=0\ndegree=1\n0,0,1.0,0.0\n1,0,0.5,0.5\n")
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["synthesize", phantom, "--degree", "3", "--noise", "0.01", "--seed", "42"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    sino, header = read_sinogram(out1)
    assert header["noise"] == "0.01" and header["seed"] == "42"


def test_reconstruct_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(3)
    entries = []
    for n in range(4):
        for k in range(n + 1):
            c = rng.standard_normal() + 1j * rng.standard_normal()
            entries.append(f"{n},{k},{c.real:.17g},{c.imag:.17g}")
    phantom = _write(tmp_path / "ph.txt", "gamma=0.5\ndegree=3\n" + "\n".join(entries) + "\n")
    sino_path = tmp_path / "sino.txt"
    rec_path = tmp_path / "rec.txt"
    assert main(["synthesize", phantom, "--gamma", "0.5", "--degree", "5", "--out", str(sino_path)]) == 0
    assert main(["reconstruct", str(sino_path), "--gamma", "0.5", "--degree", "5", "--out", str(rec_path)]) == 0
    printed = capsys.readouterr().out
    assert "range defect" in printed
    defect = float([ln for ln in printed.splitlines() if "range defect" in ln][-1].split(":")[1])
    assert defect <= 1e-9
    source = read_coefficients(phantom)
    recon = read_coefficients(rec_path)
    for n in range(4):
        for k in range(n + 1):
            assert recon[(n, k)] == pytest.approx(source[(n, k)], abs=1e-9)


def test_reconstruct_gamma_mismatch_is_fatal(tmp_path):
    phantom = _write(tmp_path / "ph.txt", "gamma=0\ndegree=0\n0,0,1.0,0.0\n")
    sino_path = tmp_path / "sino.txt"
    main(["synthesize", phantom, "--gamma", "0", "--degree", "2", "--out", str(sino_path)])
    with pytest.raises(SystemExit, match="refusing"):
        main(["reconstruct", str(sino_path), "--gamma", "0.5", "--degree", "2", "--out", str(tmp_path / "r.txt")])


def test_reconstruct_zero_sinogram(tmp_path, capsys):
    phantom = _write(tmp_path / "ph.txt", "gamma=0\ndegree=1\n")
    sino_path = tmp_path / "s.txt"
    rec_path = tmp_path / "r.txt"
    main(["synthesize", phantom, "--gamma", "0", "--degree", "2", "--out", str(sino_path)])
    assert main(["reconstruct", str(sino_path), "--gamma", "0", "--degree", "2", "--out", str(rec_path)]) == 0
    assert "range defect: 0" in capsys.readouterr().out
    assert np.all(read_coefficients(rec_path).coeffs == 0.0)


def test_reconstruct_writes_graymap(tmp_path):
    phantom = _write(tmp_path / "ph.txt", "gamma=0\ndegree=1\n0,0,1.0,0.0\n1,0,0.3,0.1\n")
    sino_path = tmp_path / "s.txt"
    image = tmp_path / "img.pgm"
    main(["synthesize", phantom, "--gamma", "0", "--degree", "3", "--out", str(sino_path)])
    assert (
        main(
            [
                "reconstruct",
                str(sino_path),
                "--degree",
                "3",
                "--out",
                str(tmp_path / "r.txt"),
                "--image",
                str(image),
                "--resolution",
                "32",
                "--image-part",
                "real",
            ]
        )
        == 0
    )
    text = image.read_text().split("\n")
    assert text[0] == "P2" and text[1] == "32 32" and text[2] == "255"
    sidecar = (tmp_path / "img.pgm.scale.txt").read_text()
    assert "part=real" in sidecar and "resolution=32" in sidecar
    pixels = np.array([int(v) for row in text[3:] if row for v in row.split()])
    assert pixels.min() >= 0 and pixels.max() <= 255


def test_reconstruct_truncation(tmp_path):
    phantom = _write(tmp_path / "ph.txt", "gamma=0\ndegree=1\n0,0,1.0,0.0\n1,1,1e-6,0.0\n")
    sino_path = tmp_path / "s.txt"
    rec_path = tmp_path / "r.txt"
    main(["synthesize", phantom, "--gamma", "0", "--degree", "2", "--out", str(sino_path)])
    main(["reconstruct", str(sino_path), "--degree", "2", "--truncate", "1e-3", "--out", str(rec_path)])
    field = read_coefficients(rec_path)
    assert field[(0, 0)] == pytest.approx(1.0, abs=1e-10)
    assert field[(1, 1)] == 0.0  # below the truncation threshold


def test_range_check_flags_kernel_contamination(tmp_path, capsys):
    import diskxray.svdcore as svdcore
    from diskxray.quadrature import boundary_rule
    from diskxray.xray import Sinogram, write_sinogram

    g = 0.0
    rule = boundary_rule(g, 40, 10)
    beta, _ = rule.grids()
    values = svdcore.psi_hat_values(3, -1, g, beta, rule.s_nodes[None, :])
    path = tmp_path / "bad_sino.txt"
    write_sinogram(path, Sinogram(gamma=g, rule=rule, values=values))
    assert main(["range-check", str(path), "--degree", "4"]) == 0
    defect = float(capsys.readouterr().out.split(":")[1])
    assert defect == pytest.approx(1.0, abs=1e-9)
    assert main(["range-check", str(path), "--degree", "4", "--tol", "1e-6"]) == 1


def test_reconstruct_contaminated_sinogram_proceeds(tmp_path, capsys):
    import diskxray.svdcore as svdcore
    from diskxray.quadrature import boundary_rule, default_orders
    from diskxray.xray import Sinogram, write_sinogram
    from diskxray.zernike import CoefficientField

    g, N = 0.0, 4
    o = default_orders(N)
    rule = boundary_rule(g, o["beta_count"], o["s_order"])
    clean = svdcore.synthesize(CoefficientField.delta(g, N, 2, 1), rule)
    beta, _ = rule.grids()
    contaminated = clean.values + svdcore.psi_hat_values(3, -1, g, beta, rule.s_nodes[None, :])
    path = tmp_path / "dirty.txt"
    write_sinogram(path, Sinogram(gamma=g, rule=rule, values=contaminated))
    rec = tmp_path / "rec.txt"
    assert main(["reconstruct", str(path), "--degree", "4", "--out", str(rec)]) == 0
    out = capsys.readouterr().out
    defect = float([ln for ln in out.splitlines() if "defect" in ln][0].split(":")[1])
    assert defect == pytest.approx(1.0, abs=1e-9)  # contamination reported
    field = read_coefficients(rec)  # range part still inverted
    assert field[(2, 1)] == pytest.approx(1.0, abs=1e-9)


def test_verify_funcrel_suite(capsys):
    assert main(["verify", "--suite", "funcrel", "--gamma", "0.5", "--degree", "12"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


_SUITE_GAMMAS = ("-0.5", "0", "0.5", "1", "2")
_SPECTRUM_GAMMAS = ("-0.9", "-0.5", "-0.1", "0.1", "1", "3")
_ASYM = (("extremizers", "5.0e-01"), ("envelope-band", "1.2e+00"))
_LADDER = (("finite-difference gamma={} N=8", "1.0e-07"), ("coefficient-bound gamma={} n<=200", "0.0e+00"))
_CCD = (("murel {}", "1.0e-12"), ("interIstar {} gamma=0", "1.0e-06"), ("interIstar {} gamma=0.5", "1.0e-06"))
# (name, printed tolerance) of each row of `verify --suite all`, in order
VERIFY_ALL_ROWS = [
    *((f"eigen gamma={g} N=8", "1.0e-08") for g in _SUITE_GAMMAS),
    *((f"kernel gamma={g} N=10", "1.0e-10") for g in _SUITE_GAMMAS),
    *((f"funcrel gamma={g} N=50", "1.0e-12") for g in _SPECTRUM_GAMMAS),
    *((f"asym {check} gamma={g} N=300", tol) for g in _SPECTRUM_GAMMAS for check, tol in _ASYM),
    *(("ladder " + check.format(g), tol) for g in ("-0.5", "0", "0.5", "1.5") for check, tol in _LADDER),
    *(("ccd " + check.format(c), tol) for c in ("kappa=0.3 R=0.9", "kappa=-0.3 R=0.9") for check, tol in _CCD),
    ("ccd kappa=0 reduction", "1.0e-10"),
]
# (name, printed tolerance) of a passing check line
_PASS_ROW = re.compile(r"^PASS  (.+)  residual=\S+  tol=(\S+)$", re.MULTILINE)


def test_verify_check_inventory(capsys):
    assert main(["verify", "--suite", "all"]) == 0
    out = capsys.readouterr().out
    assert _PASS_ROW.findall(out) == VERIFY_ALL_ROWS and len(VERIFY_ALL_ROWS) == 43
    assert out.splitlines()[-1] == "43/43 checks passed"
    assert main(["ccd-verify", "--kappa", "0.3", "--radius", "0.9", "--gamma", "0.5"]) == 0
    rows = [("murel identity", "1.0e-12"), ("interIstar intertwining", "1.0e-06"), ("kappa=0 reduction", "1.0e-10")]
    assert _PASS_ROW.findall(capsys.readouterr().out) == rows


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "nonsense"])


@pytest.mark.parametrize(
    "suite, chart, option",
    [
        ("ccd", {"kappa": 0.9}, "--kappa needs --radius"),
        ("all", {"radius": 0.9}, "--radius needs --kappa"),
        ("eigen", {"kappa": 0.3, "radius": 0.9}, "--kappa and --radius .* suite 'eigen' runs no ccd checks"),
    ],
    ids=["kappa-alone", "radius-alone", "suite-without-ccd"],
)
def test_verify_rejects_chart_options_that_select_nothing(suite, chart, option, capsys):
    with pytest.raises(ValueError, match=option):
        run_suite(suite, **chart)
    assert main(["verify", "--suite", suite, *(f"--{key}={value}" for key, value in chart.items())]) == 2
    assert re.search(option, capsys.readouterr().err)


def test_each_geodesic_fan_is_traced_once(monkeypatch, capsys):
    calls = []
    trace = ccd.fanbeam_from_interior
    monkeypatch.setattr(ccd, "fanbeam_from_interior", lambda *args: calls.append(args) or trace(*args))
    assert main(["verify", "--suite", "ccd"]) == 0
    assert len(calls) == 3  # one fan per chart for both gammas, plus the flat reduction
    calls.clear()
    assert main(["ccd-verify", "--kappa", "0.3", "--radius", "0.9"]) == 0
    assert len(calls) == 2


def test_ccd_verify_rejects_a_probe_point_outside_the_chart(capsys):
    assert main(["ccd-verify", "--kappa", "0", "--radius", "0.25"]) == 2
    assert "probe point (0.27+0.11j) lies outside the open disk of radius 0.25" in capsys.readouterr().err


def test_ccd_verify(capsys):
    assert main(["ccd-verify", "--kappa", "0.3", "--radius", "0.9", "--gamma", "0", "--degree", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3


@pytest.mark.parametrize(
    "option, message",
    [
        ("--beta-count", "beta_count and s_order must be >= 1"),
        ("--s-order", "beta_count and s_order must be >= 1"),
        ("--radial-order", "radial_order and angular_count must be >= 1"),
        ("--angular-count", "radial_order and angular_count must be >= 1"),
    ],
    ids=["beta-count", "s-order", "radial-order", "angular-count"],
)
def test_synthesize_rejects_a_zero_rule_size(option, message, tmp_path, capsys):
    phantom = _write(tmp_path / "b.txt", "bumps\n0.25,0.1,0.35,1.0\n")
    out = tmp_path / "s.txt"
    assert main(["synthesize", phantom, "--degree", "4", option, "0", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


_BAD_FLOAT_OPTIONS = [
    (["range-check", "s.txt"], "--tol", "nan"),
    (["range-check", "s.txt"], "--tol", "-1e-3"),
    (["ccd-verify", "--kappa", "0.3", "--radius", "0.9"], "--tol", "nan"),
    (["ccd-verify", "--kappa", "0.3", "--radius", "0.9"], "--tol", "-inf"),
    (["synthesize", "p.txt", "--out", "s.txt"], "--noise", "-0.5"),
    (["synthesize", "p.txt", "--out", "s.txt"], "--noise", "nan"),
    (["reconstruct", "s.txt", "--out", "r.txt"], "--truncate", "nan"),
    (["reconstruct", "s.txt", "--out", "r.txt"], "--truncate", "inf"),
]


@pytest.mark.parametrize(
    "argv, option, value", _BAD_FLOAT_OPTIONS, ids=[f"{argv[0]}{opt}={val}" for argv, opt, val in _BAD_FLOAT_OPTIONS]
)
def test_float_options_reject_non_finite_or_negative_values(argv, option, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"{option}={value}"])
    assert exc.value.code == 2
    assert f"argument {option}: expected a finite number >= 0, got '{value}'" in capsys.readouterr().err
    assert getattr(build_parser().parse_args([*argv, f"{option}=0"]), option[2:]) == 0.0


def test_reconstruct_rejects_a_bad_resolution_before_writing(tmp_path, capsys):
    phantom = _write(tmp_path / "ph.txt", "gamma=0\ndegree=0\n0,0,1.0,0.0\n")
    sino_path, rec_path, img_path = tmp_path / "s.txt", tmp_path / "r.txt", tmp_path / "i.pgm"
    assert main(["synthesize", phantom, "--degree", "2", "--out", str(sino_path)]) == 0
    argv = ["reconstruct", str(sino_path), "--degree", "2", "--out", str(rec_path), "--image", str(img_path)]
    for resolution in ("1", "2"):
        assert main([*argv, "--resolution", resolution]) == 2
        assert "image resolution must be at least 3" in capsys.readouterr().err
        assert not rec_path.exists() and not img_path.exists()
    assert main([*argv, "--resolution", "3"]) == 0
    assert rec_path.exists() and img_path.exists()


def test_cli_reports_file_errors_cleanly(tmp_path, capsys):
    bad = _write(tmp_path / "bad.txt", "gamma=0\ndegree=2\n2,3,1.0,0.0\n")
    assert main(["synthesize", bad, "--degree", "2", "--out", str(tmp_path / "s.txt")]) == 2
    assert "violates" in capsys.readouterr().err
    assert main(["reconstruct", str(tmp_path / "missing.txt"), "--degree", "2", "--out", str(tmp_path / "r.txt")]) == 2
    assert "missing.txt" in capsys.readouterr().err


def test_parse_phantom_bumps(tmp_path):
    path = _write(tmp_path / "b.txt", "bumps\n0.3,0.0,0.2,1.0\n-0.2,0.4,0.15,0.5\n")
    kind, bumps = parse_phantom(path)
    assert kind == "bumps" and len(bumps) == 2
    assert bumps[0].center == 0.3 + 0.0j


def test_parse_phantom_bump_errors(tmp_path):
    path = _write(tmp_path / "b.txt", "bumps\n1.5,0.0,0.2,1.0\n")
    with pytest.raises(ValueError, match="b.txt:2"):
        parse_phantom(path)
    path = _write(tmp_path / "c.txt", "bumps\n0.1,0.0,0.2\n")
    with pytest.raises(ValueError, match="c.txt:2"):
        parse_phantom(path)


@pytest.mark.parametrize(
    "row", ["nan,0.0,0.2,1.0", "0.1,0.0,inf,1.0"], ids=["center-nan", "width-inf"]
)
def test_parse_phantom_rejects_non_finite_bumps(row, tmp_path, capsys):
    path = _write(tmp_path / "b.txt", f"bumps\n0.1,0.0,0.2,1.0\n{row}\n")
    with pytest.raises(ValueError, match="b.txt:3: bump values must be finite"):
        parse_phantom(path)
    out = tmp_path / "s.txt"
    assert main(["synthesize", path, "--degree", "4", "--out", str(out)]) == 2
    assert "b.txt:3: bump values must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_bump_phantom_pipeline(tmp_path, capsys):
    phantom = _write(tmp_path / "b.txt", "bumps\n0.25,0.1,0.35,1.0\n")
    sino_path = tmp_path / "s.txt"
    rec_path = tmp_path / "r.txt"
    assert main(["synthesize", phantom, "--gamma", "0", "--degree", "8", "--out", str(sino_path)]) == 0
    assert main(["reconstruct", str(sino_path), "--gamma", "0", "--degree", "8", "--out", str(rec_path)]) == 0
    field = read_coefficients(rec_path)
    # the projected bump keeps most of its mass: compare L2 norms
    bump_norm_sq = float(field.norm_sq())
    assert bump_norm_sq > 0.1
    defect = float([ln for ln in capsys.readouterr().out.splitlines() if "defect" in ln][0].split(":")[1])
    assert defect <= 1e-9


def test_noisy_pipeline_recovers_up_to_noise_scale(tmp_path, capsys):
    phantom = _write(tmp_path / "ph.txt", "gamma=0\ndegree=2\n0,0,1.0,0.0\n2,0,0.5,0.0\n2,2,0.5,0.0\n")
    sino_path = tmp_path / "s.txt"
    rec_path = tmp_path / "r.txt"
    main(["synthesize", phantom, "--degree", "4", "--noise", "1e-4", "--seed", "11", "--out", str(sino_path)])
    main(["reconstruct", str(sino_path), "--degree", "4", "--truncate", "1e-2", "--out", str(rec_path)])
    out = capsys.readouterr().out
    defect = float([ln for ln in out.splitlines() if "defect" in ln][0].split(":")[1])
    assert 0.0 < defect < 1e-2  # noise shows up in the kernel band at its own scale
    field = read_coefficients(rec_path)
    assert field[(0, 0)] == pytest.approx(1.0, abs=1e-2)
    assert field[(2, 0)] == pytest.approx(0.5, abs=1e-2)


def test_byte_identical_rerun(tmp_path):
    phantom = _write(tmp_path / "ph.txt", "gamma=0\ndegree=2\n0,0,1.0,0.0\n2,1,0.25,-0.5\n")
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    main(["synthesize", phantom, "--degree", "4", "--out", str(a)])
    main(["synthesize", phantom, "--degree", "4", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    for rec, img in ((tmp_path / "r1.txt", tmp_path / "i1.pgm"), (tmp_path / "r2.txt", tmp_path / "i2.pgm")):
        main(["reconstruct", str(a), "--degree", "4", "--out", str(rec), "--image", str(img), "--resolution", "24"])
    assert (tmp_path / "r1.txt").read_bytes() == (tmp_path / "r2.txt").read_bytes()
    assert (tmp_path / "i1.pgm").read_bytes() == (tmp_path / "i2.pgm").read_bytes()


def test_written_sinogram_reads_back_exactly(tmp_path):
    phantom = _write(tmp_path / "ph.txt", "gamma=0\ndegree=2\n1,1,0.7071067811865476,0.1\n")
    path = tmp_path / "s.txt"
    main(["synthesize", phantom, "--degree", "3", "--out", str(path)])
    sino1, _ = read_sinogram(path)
    path2 = tmp_path / "s2.txt"
    from diskxray.xray import write_sinogram

    write_sinogram(path2, sino1)
    sino2, _ = read_sinogram(path2)
    assert np.array_equal(sino1.values, sino2.values)
