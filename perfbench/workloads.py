"""Seeded inputs, request scripts and output checks for the benchmark workloads.

A workload turns a seed into a pool of input files (its set-up), turns a
request number into the CLI argument lists that request runs, and checks the
files and text those commands produced against references the benchmark
computes itself.  Checks run outside the timed region.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from diskxray import quadrature, zernike

__all__ = ["CommandOutput", "Check", "SinoRoundtrip", "RenderBumps", "VerifyOracles", "WORKLOADS"]


@dataclass
class CommandOutput:
    argv: list
    returncode: int
    stdout: str
    stderr: str


@dataclass
class Check:
    """Outcome of one request's checks; ``digits`` is the accuracy figure, if computed."""

    problems: list = field(default_factory=list)
    digits: float | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def _digits(error: float) -> float:
    """-log10 of a relative error, capped at double-precision resolution.

    An error that is not finite, or not below 1, has no correct digits.
    """
    if not (math.isfinite(error) and error < 1.0):
        return 0.0
    return -math.log10(max(error, 1e-17))


def _read_coefficient_rows(path, degree: int) -> np.ndarray:
    """Parse 'n,k,re,im' rows of a coefficient file into a dense triangle array.

    Written independently of the library reader so that the check does not
    trust the code it checks.  Header lines contain '='.
    """
    out = np.full((degree + 1) * (degree + 2) // 2, np.nan, dtype=complex)
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#") or "=" in line:
                continue
            n, k, re, im = line.split(",")
            out[int(n) * (int(n) + 1) // 2 + int(k)] = complex(float(re), float(im))
    return out


def _relative_error(got: np.ndarray, want: np.ndarray) -> float:
    if not np.all(np.isfinite(got)):
        return math.inf
    return float(np.abs(got - want).max() / np.abs(want).max())


def _check_returncodes(outputs, check: Check, expected: int) -> None:
    for out in outputs:
        if out.returncode != 0:
            check.problems.append(f"{out.argv[0]} exited {out.returncode}: {out.stderr.strip()[-300:]}")
    if len(outputs) != expected:
        check.problems.append(f"ran {len(outputs)} of {expected} commands")


def _wrote_coefficients(outputs) -> bool:
    """Whether the request's second command, ``reconstruct``, ran and exited 0."""
    return len(outputs) > 1 and outputs[1].returncode == 0


@dataclass
class SinoRoundtrip:
    """Coefficient phantom -> synthesize -> reconstruct -> range-check."""

    degree: int = 64
    pool: int = 8
    gammas: tuple = (-0.5, 0.0, 0.5, 2.0)
    tol: float = 1e-10
    commands: tuple = ("synthesize", "reconstruct", "range-check")

    def generate(self, seed: int, workdir) -> list:
        rng = np.random.default_rng(seed)
        size = (self.degree + 1) * (self.degree + 2) // 2
        inputs = []
        for p in range(self.pool):
            gamma = float(rng.choice(self.gammas))
            coeffs = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            path = os.path.join(workdir, f"phantom{p}.txt")
            zernike.write_coefficients(path, zernike.CoefficientField(gamma, self.degree, coeffs))
            inputs.append({"gamma": gamma, "phantom": path, "coeffs": coeffs})
        return inputs

    def request(self, inputs, i: int, outdir) -> list:
        src = inputs[i % len(inputs)]
        common = ["--gamma", repr(src["gamma"]), "--degree", str(self.degree)]
        sino = os.path.join(outdir, "sino.txt")
        coef = os.path.join(outdir, "coef.txt")
        return [
            ["synthesize", src["phantom"], *common, "--out", sino],
            ["reconstruct", sino, *common, "--out", coef],
            ["range-check", sino, *common, "--tol", repr(self.tol)],
        ]

    def check(self, inputs, i: int, argvs, outputs) -> Check:
        check = Check()
        _check_returncodes(outputs, check, len(argvs))
        if not _wrote_coefficients(outputs):
            return check
        want = inputs[i % len(inputs)]["coeffs"]
        err = _relative_error(_read_coefficient_rows(argvs[1][-1], self.degree), want)
        check.digits = _digits(err)
        if not err <= self.tol:
            check.problems.append(f"round-trip relative error {err:.3e} exceeds {self.tol:g}")
        ranged = len(outputs) > 2 and outputs[2].returncode == 0
        if ranged and ("FAIL" in outputs[2].stdout or "range defect:" not in outputs[2].stdout):
            check.problems.append(f"range-check did not pass: {outputs[2].stdout.strip()!r}")
        return check


def _bump_values(bumps, z: np.ndarray) -> np.ndarray:
    out = np.zeros(z.shape, dtype=complex)
    for cx, cy, width, amp in bumps:
        out += amp * np.exp(-np.abs(z - complex(cx, cy)) ** 2 / (2.0 * width**2))
    return out


def _read_pgm(path) -> np.ndarray:
    with open(path) as fh:
        tokens = fh.read().split()
    if tokens[0] != "P2" or tokens[3] != "255":
        raise ValueError(f"{path}: not an 8-bit ASCII graymap")
    width, height = int(tokens[1]), int(tokens[2])
    pixels = np.array(tokens[4:], dtype=int)
    if pixels.size != width * height:
        raise ValueError(f"{path}: {pixels.size} pixels for a {width} x {height} image")
    return pixels.reshape(height, width)


def _read_sidecar(path) -> dict:
    with open(path) as fh:
        return dict(line.strip().split("=", 1) for line in fh if "=" in line)


@dataclass
class RenderBumps:
    """Gaussian-bump phantom -> synthesize -> reconstruct with a rendered image."""

    degree: int = 32
    resolution: int = 384
    gamma: float = 0.5
    pool: int = 3
    pixels: int = 64
    tol: float = 1e-10
    commands: tuple = ("synthesize", "reconstruct")

    def generate(self, seed: int, workdir) -> list:
        rng = np.random.default_rng(seed)
        orders = quadrature.default_orders(self.degree)
        rule = quadrature.disk_rule(self.gamma, orders["radial_order"], orders["angular_count"])
        inputs = []
        for p in range(self.pool):
            bumps = []
            for _ in range(int(rng.integers(3, 7))):
                radius, angle = 0.65 * math.sqrt(rng.random()), 2.0 * math.pi * rng.random()
                width = float(rng.uniform(0.12, 0.3))
                amp = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5))
                bumps.append((radius * math.cos(angle), radius * math.sin(angle), width, amp))
            path = os.path.join(workdir, f"bumps{p}.txt")
            with open(path, "w") as fh:
                fh.write("bumps\n" + "".join(",".join(repr(v) for v in b) + "\n" for b in bumps))
            # reference projection onto the orthonormal basis, mode by mode
            fvals = _bump_values(bumps, rule.z)
            coeffs = np.array(
                [
                    rule.integrate(fvals * np.conj(zernike.G_hat_eval(zernike.ZernikeIndex(n, k, self.gamma), rule.z)))
                    for n in range(self.degree + 1)
                    for k in range(n + 1)
                ]
            )
            inputs.append({"phantom": path, "coeffs": coeffs, "pixel_seed": int(rng.integers(2**32))})
        return inputs

    def request(self, inputs, i: int, outdir) -> list:
        src = inputs[i % len(inputs)]
        common = ["--gamma", repr(self.gamma), "--degree", str(self.degree)]
        sino = os.path.join(outdir, "sino.txt")
        coef = os.path.join(outdir, "coef.txt")
        image = os.path.join(outdir, "image.pgm")
        part = ("abs", "real")[i % 2]
        return [
            ["synthesize", src["phantom"], *common, "--out", sino],
            ["reconstruct", sino, *common, "--out", coef, "--image", image,
             "--resolution", str(self.resolution), "--image-part", part],
        ]

    def check(self, inputs, i: int, argvs, outputs) -> Check:
        check = Check()
        _check_returncodes(outputs, check, len(argvs))
        if not _wrote_coefficients(outputs):
            return check
        want = inputs[i % len(inputs)]["coeffs"]
        err = _relative_error(_read_coefficient_rows(argvs[1][argvs[1].index("--out") + 1], self.degree), want)
        check.digits = _digits(err)
        if not err <= self.tol:
            check.problems.append(f"coefficient relative error {err:.3e} exceeds {self.tol:g}")
        image = argvs[1][argvs[1].index("--image") + 1]
        part = argvs[1][-1]
        try:
            pixels = _read_pgm(image)
            scale = _read_sidecar(image + ".scale.txt")
        except (OSError, ValueError) as exc:
            check.problems.append(f"unreadable image: {exc}")
            return check
        m = self.resolution
        if pixels.shape != (m, m):
            check.problems.append(f"image is {pixels.shape}, want {(m, m)}")
            return check
        if scale.get("part") != part or scale.get("resolution") != str(m):
            check.problems.append(f"sidecar {scale} does not match part={part} resolution={m}")
            return check
        lo, hi = float(scale["min"]), float(scale["max"])
        axis = np.linspace(-1.0, 1.0, m)
        zz = axis[None, :] - 1j * axis[:, None]
        inside = np.flatnonzero(np.abs(zz) <= 1.0)
        rng = np.random.default_rng([inputs[i % len(inputs)]["pixel_seed"], i])
        picks = rng.choice(inside, size=min(self.pixels, inside.size), replace=False)
        z = zz.ravel()[picks]
        vals = np.zeros(z.shape, dtype=complex)
        for n in range(self.degree + 1):
            for k in range(n + 1):
                basis = zernike.G_hat_eval(zernike.ZernikeIndex(n, k, self.gamma), z)
                vals += want[n * (n + 1) // 2 + k] * basis
        quantity = np.abs(vals) if part == "abs" else vals.real
        span = hi - lo if hi > lo else 1.0
        if not (quantity.min() >= lo - 1e-9 * span and quantity.max() <= hi + 1e-9 * span):
            check.problems.append(f"sampled {part} values leave the sidecar range [{lo:g}, {hi:g}]")
        expected = np.rint(255.0 * (quantity - lo) / span)
        worst = float(np.abs(pixels.ravel()[picks] - expected).max())
        if worst > 1.0:
            check.problems.append(f"rendered pixels differ from the reference by {worst:g} grey levels")
        return check


# (kappa, R, gamma) charts that pass `ccd-verify` at its default tolerance
CCD_CHARTS = tuple(
    (kappa, radius, gamma)
    for kappa in (-0.4, -0.2, 0.2, 0.4)
    for radius in (0.7, 0.9)
    for gamma in (0.0, 0.5, 1.0)
)


# checks whose residual is a relative error: the eigen identity of the numeric
# normal operator, the functional relation of sigma^2, and the curved-disk
# intertwining identity
RELATIVE_CHECKS = ("eigen ", "funcrel ", "ccd interIstar ", "interIstar ")


def _relative_residuals(stdout: str) -> list:
    out = []
    for line in stdout.splitlines():
        parts = line.split("  ")
        if len(parts) >= 3 and parts[1].startswith(RELATIVE_CHECKS) and parts[2].startswith("residual="):
            out.append(float(parts[2][len("residual="):]))
    return out


@dataclass
class VerifyOracles:
    """`verify` over the identity suites, then `ccd-verify` on a seeded chart."""

    verify_argv: tuple = ("verify", "--suite", "all")
    charts: tuple = CCD_CHARTS
    commands: tuple = ("verify", "ccd-verify")

    def generate(self, seed: int, workdir) -> list:
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(self.charts))
        return [self.charts[j] for j in order]

    def request(self, inputs, i: int, outdir) -> list:
        kappa, radius, gamma = inputs[i % len(inputs)]
        return [
            list(self.verify_argv),
            ["ccd-verify", "--kappa", repr(kappa), "--radius", repr(radius), "--gamma", repr(gamma)],
        ]

    def check(self, inputs, i: int, argvs, outputs) -> Check:
        check = Check()
        _check_returncodes(outputs, check, len(argvs))
        for out in outputs:
            lines = [ln for ln in out.stdout.splitlines() if "residual=" in ln]
            if not lines:
                check.problems.append(f"{out.argv[0]} printed no check lines")
            bad = [ln for ln in lines if not ln.startswith("PASS")]
            if bad:
                check.problems.append(f"{out.argv[0]}: {bad[0]}")
        residuals = [r for out in outputs for r in _relative_residuals(out.stdout)]
        if residuals:
            check.digits = _digits(max(residuals))
        else:
            check.problems.append("no relative-residual check lines to measure accuracy")
        return check


WORKLOADS = {
    "sino_roundtrip": SinoRoundtrip(),
    "render_bumps": RenderBumps(),
    "verify_oracles": VerifyOracles(),
}
