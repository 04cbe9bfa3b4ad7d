"""Command-line surface: spectrum export, phantom synthesis, reconstruction,
range checking, and the verification suites.

All file formats are plain text (key=value headers + CSV bodies) with floats
printed at 17 significant digits, so write-then-read round trips are exact
and reruns are byte-identical for a fixed seed.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import ccd as ccdmod
from . import svdcore, verify, xray, zernike
from .quadrature import boundary_rule, default_orders, disk_rule
from .specfun import as_gamma, gamma_matches

__all__ = ["main", "build_parser", "parse_phantom", "write_pgm"]


def _nonnegative(text: str) -> float:
    """argparse type: a finite float >= 0, so a nan or negative option cannot switch its check off."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskxray",
        description="Weighted X-ray transforms on the unit disk: SVD spectra, "
        "synthesis, reconstruction, range checks, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, degree_default=8):
        p.add_argument("--gamma", type=float, default=0.0, help="weight exponent gamma > -1")
        p.add_argument("--degree", type=int, default=degree_default, help="max basis degree N")

    p = sub.add_parser("spectrum", help="tabulate singular values sigma_{n,k}")
    common(p, degree_default=16)
    p.add_argument("--out", required=True, help="output table path")

    p = sub.add_parser("synthesize", help="forward-project a phantom to a sinogram")
    p.add_argument("phantom", help="phantom file (coefficient format, or 'bumps' list)")
    common(p)
    p.add_argument("--beta-count", type=int, default=None)
    p.add_argument("--s-order", type=int, default=None)
    p.add_argument("--radial-order", type=int, default=None, help="disk rule size for bump analysis")
    p.add_argument("--angular-count", type=int, default=None, help="disk rule size for bump analysis")
    p.add_argument("--noise", type=_nonnegative, default=0.0, help="relative additive noise amplitude")
    p.add_argument("--seed", type=int, default=0, help="noise generator seed")
    p.add_argument("--out", required=True, help="output sinogram path")

    p = sub.add_parser("reconstruct", help="SVD-invert a sinogram file")
    p.add_argument("sinogram", help="sinogram file")
    common(p)
    p.add_argument("--truncate", type=_nonnegative, default=0.0, help="zero coefficients below this |a|/sigma")
    p.add_argument("--out", required=True, help="output coefficient path")
    p.add_argument("--image", default=None, help="optional portable graymap output")
    p.add_argument("--resolution", type=int, default=256, help="image resolution (pixels per side)")
    p.add_argument("--image-part", choices=("abs", "real"), default="abs", help="rendered quantity")

    p = sub.add_parser("range-check", help="report the range defect of a sinogram file")
    p.add_argument("sinogram", help="sinogram file")
    common(p)
    p.add_argument("--tol", type=_nonnegative, default=None, help="fail (exit 1) if defect exceeds this")

    p = sub.add_parser("verify", help="run a named identity suite")
    p.add_argument("--suite", default="all", choices=verify.SUITE_NAMES)
    p.add_argument("--gamma", type=float, default=None, help="restrict to a single gamma")
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--kappa", type=float, default=None, help="ccd suite curvature parameter")
    p.add_argument("--radius", type=float, default=None, help="ccd suite disk radius")

    p = sub.add_parser("ccd-verify", help="constant-curvature transfer checks for one chart")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--tol", type=_nonnegative, default=1e-6)
    return parser


class Bump:
    """Gaussian bump amplitude * exp(-|z-c|^2 / (2 width^2)) on the disk."""

    def __init__(self, cx: float, cy: float, width: float, amplitude: float):
        if not all(map(math.isfinite, (cx, cy, width, amplitude))):
            raise ValueError("bump values must be finite")
        if math.hypot(cx, cy) >= 1.0:
            raise ValueError("bump center must lie strictly inside the disk")
        if width <= 0.0:
            raise ValueError("bump width must be positive")
        self.center = complex(cx, cy)
        self.width = width
        self.amplitude = amplitude


def parse_phantom(path):
    """Parse a phantom file.

    Returns ("coefficients", CoefficientField) for the coefficient format, or
    ("bumps", [Bump, ...]) when the first content line is the marker 'bumps'.
    """
    lines = list(zernike.content_lines(path))
    if not lines or lines[0][1] != "bumps":
        return "coefficients", zernike.read_coefficients(path)
    bumps = []
    for lineno, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"{path}:{lineno}: expected 'cx,cy,width,amplitude', got {line!r}")
        try:
            cx, cy, width, amp = (float(v) for v in parts)
            bumps.append(Bump(cx, cy, width, amp))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return "bumps", bumps


def _bump_function(bumps):
    def func(z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape, dtype=complex)
        for b in bumps:
            out += b.amplitude * np.exp(-np.abs(z - b.center) ** 2 / (2.0 * b.width**2))
        return out

    return func


def _bump_field(bumps, gamma, degree, radial_order, angular_count) -> zernike.CoefficientField:
    """Project a bump phantom onto the orthonormal basis by disk quadrature."""
    rule = disk_rule(gamma, radial_order, angular_count)
    func = _bump_function(bumps)
    fvals = func(rule.z)
    coeffs = [
        rule.integrate(fvals * np.conj(zernike.G_hat_eval(zernike.ZernikeIndex(n, k, gamma), rule.z)))
        for n, k in zernike.triangle(degree).pairs()
    ]
    return zernike.CoefficientField(gamma, degree, coeffs)


def write_pgm(path, pixels: np.ndarray, lo: float, hi: float, part: str, resolution: int) -> None:
    """Write an ASCII portable graymap plus a sidecar recording the linear scale."""
    m = pixels.shape[0]
    body = "\n".join(" ".join(str(int(v)) for v in row) for row in pixels)
    with open(path, "w") as fh:
        fh.write(f"P2\n{m} {m}\n255\n{body}\n")
    with open(str(path) + ".scale.txt", "w") as fh:
        fh.write(f"min={lo:.17g}\nmax={hi:.17g}\npart={part}\nresolution={resolution}\n")


def _render(field: zernike.CoefficientField, resolution: int, part: str):
    axis = np.linspace(-1.0, 1.0, resolution)
    xx, yy = np.meshgrid(axis, -axis)  # row 0 at the top
    zz = xx + 1j * yy
    inside = np.abs(zz) <= 1.0
    vals = np.zeros_like(zz)
    vals[inside] = field.evaluate(zz[inside])
    quantity = np.abs(vals) if part == "abs" else vals.real
    lo = float(quantity[inside].min())
    hi = float(quantity[inside].max())
    span = hi - lo if hi > lo else 1.0
    pixels = np.zeros(zz.shape, dtype=int)
    pixels[inside] = np.rint(255.0 * (quantity[inside] - lo) / span).astype(int)
    return pixels, lo, hi


def _cmd_spectrum(args) -> int:
    sq = svdcore.sigma_sq_flat(as_gamma(args.gamma), args.degree)
    tri = zernike.triangle(args.degree)
    rows = zip(tri.n.tolist(), tri.k.tolist(), np.sqrt(sq).tolist(), sq.tolist())
    zernike.write_table(args.out, ["n,k,sigma,sigma_sq"], rows)
    print(f"wrote sigma table for gamma={args.gamma:g}, N={args.degree} to {args.out}")
    return 0


def _cmd_synthesize(args) -> int:
    gamma = as_gamma(args.gamma)
    # an unset size takes its default; a size of 0 reaches the rule, which rejects it
    orders = default_orders(args.degree)
    orders.update({key: getattr(args, key) for key in orders if getattr(args, key) is not None})
    beta_count, s_order = orders["beta_count"], orders["s_order"]
    rule = boundary_rule(gamma, beta_count, s_order)
    kind, phantom = parse_phantom(args.phantom)
    if kind == "coefficients":
        if not gamma_matches(phantom.gamma, gamma):
            raise SystemExit(f"phantom gamma {phantom.gamma:g} != configured gamma {gamma:g}")
        field = phantom
        if field.degree > args.degree:
            raise SystemExit(f"phantom degree {field.degree} exceeds --degree {args.degree}")
    else:
        field = _bump_field(phantom, gamma, args.degree, orders["radial_order"], orders["angular_count"])
    sino = svdcore.synthesize(field, rule)  # modes above a phantom's own degree are zero
    header = {}
    if args.noise > 0.0:
        rng = np.random.default_rng(args.seed)
        peak = float(np.abs(sino.values).max())
        scale = args.noise * (peak if peak > 0.0 else 1.0)
        noisy = sino.values + scale * (
            rng.standard_normal(sino.values.shape) + 1j * rng.standard_normal(sino.values.shape)
        )
        sino = xray.Sinogram(gamma=sino.gamma, rule=sino.rule, values=noisy)
        header = {"noise": f"{args.noise:.17g}", "seed": str(args.seed)}
    xray.write_sinogram(args.out, sino, header)
    print(f"wrote sinogram ({beta_count} x {s_order}) to {args.out}")
    return 0


def _read_sinogram(args) -> xray.Sinogram:
    """Read the sinogram argument, refusing data recorded at another gamma."""
    gamma = as_gamma(args.gamma)
    sino, _header = xray.read_sinogram(args.sinogram)
    if not gamma_matches(sino.gamma, gamma):
        raise SystemExit(
            f"sinogram gamma {sino.gamma:g} != configured gamma {gamma:g}; refusing to reweight"
        )
    return sino


def _cmd_reconstruct(args) -> int:
    # checked before any output is written; a 2 x 2 grid has no pixel inside the disk
    if args.image and args.resolution < 3:
        raise ValueError("image resolution must be at least 3")
    sino = _read_sinogram(args)
    result = svdcore.invert(sino, args.degree)
    field = result.field
    if args.truncate > 0.0:
        kept = np.where(np.abs(field.coeffs) >= args.truncate, field.coeffs, 0.0)
        field = zernike.CoefficientField(field.gamma, field.degree, kept)
    zernike.write_coefficients(args.out, field)
    print(f"range defect: {result.defect:.17g}")
    print(f"wrote coefficients (N={args.degree}) to {args.out}")
    if args.image:
        pixels, lo, hi = _render(field, args.resolution, args.image_part)
        write_pgm(args.image, pixels, lo, hi, args.image_part, args.resolution)
        print(f"wrote {args.image_part} graymap to {args.image}")
    return 0


def _cmd_range_check(args) -> int:
    sino = _read_sinogram(args)
    defect = svdcore.range_defect(sino, args.degree)
    print(f"range defect: {defect:.17g}")
    if args.tol is not None and defect > args.tol:
        print(f"FAIL: defect exceeds tolerance {args.tol:g}")
        return 1
    return 0


def _cmd_verify(args) -> int:
    results = verify.run_suite(
        args.suite, gamma=args.gamma, degree=args.degree, kappa=args.kappa, radius=args.radius
    )
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def _cmd_ccd_verify(args) -> int:
    chart = ccdmod.CCDChart(args.kappa, args.radius)
    gamma = as_gamma(args.gamma)
    murel = verify.murel_residual(chart, np.linspace(-1.5, 1.5, 13))
    [inter] = ccdmod.interIstar_verify(chart, [gamma], zernike.triangle(min(args.degree, 4)).pairs(), 0.27 + 0.11j)
    rows = [
        verify.CheckResult("murel identity", murel, 1e-12),
        verify.CheckResult("interIstar intertwining", inter, args.tol),
        verify.CheckResult("kappa=0 reduction", verify.flat_reduction_residual(gamma, min(args.degree, 2), 0), 1e-10),
    ]
    for res in rows:
        print(res.line())
    return 1 if any(not r.passed for r in rows) else 0


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "synthesize": _cmd_synthesize,
    "reconstruct": _cmd_reconstruct,
    "range-check": _cmd_range_check,
    "verify": _cmd_verify,
    "ccd-verify": _cmd_ccd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
