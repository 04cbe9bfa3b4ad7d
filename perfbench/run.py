"""diskxray benchmark: CLI pipelines run in one process as a closed loop.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sino_roundtrip --seed 1 --seconds 30 --trace 0

One client sends each request (a short script of CLI commands, see
``workloads.py``) only after the previous one has finished, by calling
``diskxray.cli.main`` in this process.  All inputs are generated in set-up
from ``--seed``.  Every request's outputs are checked outside the timed
region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is the separate
traced run: it alternates an untraced and a traced pass of each request and
reports per-layer metrics from the spans (``tracing.py``) plus the tracing
overhead.  The last line of stdout is the JSON result; the line before it
holds provenance, sample counts, and the median latency of requests and of
each command.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# no request starts that would end later than this after start-up, so a run
# on a slow machine still exits well within three minutes
DEADLINE_S = 150.0
# after each untraced request, set-up is repeated until this much of it has
# been timed, but at most SETUP_SLICE_REPS times (a few microseconds of set-up
# then still gives a steady median)
SETUP_SLICE_S = 0.2
SETUP_SLICE_REPS = 500

# name -> unit; BENCHMARK.json lists the same names
END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "cpu_s_per_request": "s",
    "peak_rss_mib": "MiB",
    "success_rate": "ratio",
    "accuracy_digits": "digits",
}


def _per_layer() -> dict:
    timed = [
        "svdcore.analyze", "svdcore.range_defect", "svdcore.synthesize",
        "specfun.gegenbauer_L", "specfun.jacobi_eval", "zernike.G_hat_eval", "zernike.evaluate",
        "xray.read_sinogram", "xray.write_sinogram", "zernike.read_coefficients",
        "zernike.write_coefficients", "cli.write_pgm", "cli.parse_phantom",
        "cli.synthesize", "cli.reconstruct", "cli.range_check", "cli.verify", "cli.ccd_verify",
        "quadrature.gauss_jacobi", "quadrature.boundary_rule", "quadrature.disk_rule",
        "xray.normal_apply", "xray.backproject_grid", "geometry.fanbeam_through_arrays",
        "ccd.interIstar_verify", "ccd.fanbeam_from_interior",
    ]
    counted = {
        "svdcore.analyze", "specfun.gegenbauer_L", "specfun.jacobi_eval", "zernike.G_hat_eval",
        "zernike.evaluate", "quadrature.gauss_jacobi", "quadrature.boundary_rule",
        "quadrature.disk_rule", "xray.normal_apply", "xray.backproject_grid",
        "geometry.fanbeam_through_arrays", "ccd.interIstar_verify", "ccd.fanbeam_from_interior",
    }
    out = {}
    for name in timed:
        if name in counted:
            out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
    out.update({
        "svdcore.analyze.coeffs": "count",
        "svdcore.analyze.peak_mib": "MiB",
        "svdcore.synthesize.mode_nodes": "count",
        "zernike.evaluate.mode_points": "count",
        "zernike.evaluate.peak_mib": "MiB",
        "xray.sinogram_bytes": "B",
    })
    for suite in ("eigen", "kernel", "funcrel", "asym", "ladder", "ccd"):
        out[f"verify.{suite}_s"] = "s"
    out["trace.overhead_s"] = "s"
    return out


PER_LAYER = _per_layer()


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class RequestResult:
    outputs: list
    command_s: list
    wall_s: float
    cpu_s: float
    check: object = None


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_request(argvs) -> RequestResult:
    """Run one request's commands through ``cli.main``; stop at the first failure."""
    from diskxray import cli
    from workloads import CommandOutput

    outputs, command_s = [], []
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        c0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
                print(exc, file=sys.stderr)
            except Exception:  # a crashing command counts as a failed request
                rc = 1
                traceback.print_exc()
        command_s.append(time.perf_counter() - c0)
        outputs.append(CommandOutput(argv, rc, out.getvalue(), err.getvalue()))
        if rc != 0:
            break
    wall = time.perf_counter() - t0
    return RequestResult(outputs, command_s, wall, _cpu_seconds() - cpu0)


def _checked(workload, inputs, i, workdir, tag, traced=None) -> RequestResult:
    """Run request ``i`` in a fresh directory, check its outputs, then remove them."""
    outdir = workdir / f"req{i}{tag}"
    outdir.mkdir()
    argvs = workload.request(inputs, i, str(outdir))
    if traced is None:
        res = run_request(argvs)
    else:
        traced.install(i)
        try:
            with traced.request_span():
                res = run_request(argvs)
        finally:
            traced.uninstall()
    try:
        res.check = workload.check(inputs, i, argvs, res.outputs)
    except Exception as exc:  # malformed output fails the request, not the run
        from workloads import Check

        res.check = Check(problems=[f"check failed: {exc!r}"])
    for problem in res.check.problems:
        print(f"request {i}{tag}: {problem}", file=sys.stderr)
    shutil.rmtree(outdir)
    return res


def _tree_bytes(path: Path) -> dict:
    return {p.relative_to(path).as_posix(): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


class SetUp:
    """The run's inputs, generated from the seed, and the timings of set-up.

    One set-up is generating every input file and reference from the seed, in
    this process.  The first set-up makes the inputs the requests use.  It is
    repeated into a scratch directory between requests (``repeat``), so that
    the median set-up time is taken across the whole run, as the request
    metrics are; each repetition must produce the same bytes as the first.
    """

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload, self.seed = workload, seed
        self.times, self.deterministic = [], True
        self.scratch = workdir / "inputs-rep"
        first = workdir / "inputs"
        first.mkdir()
        t0 = time.perf_counter()
        self.inputs = workload.generate(seed, str(first))
        self.times.append(time.perf_counter() - t0)
        self.tree = _tree_bytes(first)

    def repeat(self, min_s: float = 0.0, max_reps: int = 1) -> None:
        """Set up again, until ``min_s`` seconds are timed or ``max_reps`` repetitions are done."""
        spent, reps = 0.0, 0
        while reps == 0 or (spent < min_s and reps < max_reps):
            self.scratch.mkdir()
            t0 = time.perf_counter()
            self.workload.generate(self.seed, str(self.scratch))
            self.times.append(time.perf_counter() - t0)
            spent += self.times[-1]
            reps += 1
            self.deterministic = self.deterministic and _tree_bytes(self.scratch) == self.tree
            shutil.rmtree(self.scratch)

    @property
    def median_s(self) -> float:
        return statistics.median(self.times)


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def layer_metrics(tracer, overheads) -> dict:
    reqs = tracer.requests
    values = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            v = _median(overheads)
        elif name.endswith(".peak_mib"):
            v = tracer.peaks_mib.get(name[: -len(".peak_mib")], 0.0)
        elif name.endswith(".calls"):
            v = _median(r["calls"].get(name[: -len(".calls")], 0) for r in reqs)
        elif name.endswith(".self_s"):
            v = _median(r["self"].get(name[: -len(".self_s")], 0.0) for r in reqs)
        elif name.startswith("verify."):
            v = _median(r["total"].get(name[: -len("_s")], 0.0) for r in reqs)
        else:
            v = _median(r["counts"].get(name, 0) for r in reqs)
        values[name] = v
    return values


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "diskxray").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _commit():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def run(name: str, workload, seed: int, seconds: float, trace: bool, workdir: Path, setup_reps: int = 3,
        trace_path=None):
    """Set up, measure for ``seconds`` of request time, and return (result, detail).

    Set-up runs at least ``setup_reps`` times.  A traced run writes its spans
    to ``trace_path`` when one is given.
    """
    started = time.perf_counter()
    setup = SetUp(workload, seed, workdir)
    inputs = setup.inputs
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    plain_runs, traced_runs, overheads = [], [], []
    measured, longest, i = 0.0, 0.0, 0
    # a request starts only if it is expected to end less than half a request
    # past ``seconds``, so measured time is ``seconds`` on average
    while i == 0 or (measured + 0.5 * measured / i < seconds
                     and time.perf_counter() - started + longest < DEADLINE_S):
        t0 = time.perf_counter()
        if tracer is None:
            plain_runs.append(_checked(workload, inputs, i, workdir, ""))
            measured += plain_runs[-1].wall_s
            setup.repeat(SETUP_SLICE_S, SETUP_SLICE_REPS)
        else:
            # alternate which pass goes first, so warm-up favours neither
            for traced in (False, True) if i % 2 == 0 else (True, False):
                if traced:
                    traced_runs.append(_checked(workload, inputs, i, workdir, "t", tracer))
                else:
                    plain_runs.append(_checked(workload, inputs, i, workdir, ""))
            measured += plain_runs[-1].wall_s + traced_runs[-1].wall_s
            overheads.append(traced_runs[-1].wall_s - plain_runs[-1].wall_s)
        longest = max(longest, time.perf_counter() - t0)
        i += 1
    while len(setup.times) < setup_reps:
        setup.repeat()

    results = plain_runs + traced_runs
    attempted = len(results)
    failed = sum(1 for r in results if not r.check.ok)
    if tracer is None:
        metrics = {
            "setup_s": setup.median_s,
            "requests_per_s": len(plain_runs) / sum(r.wall_s for r in plain_runs),
            "cpu_s_per_request": sum(r.cpu_s for r in plain_runs) / len(plain_runs),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": (attempted - failed) / attempted,
            # every request that computed an error counts, passed or failed
            "accuracy_digits": min((r.check.digits for r in results if r.check.digits is not None), default=0.0),
        }
        units = END_TO_END
        samples = {m: len(plain_runs) for m in metrics}
        samples.update(setup_s=len(setup.times), peak_rss_mib=1)
    else:
        metrics = layer_metrics(tracer, overheads)
        units = PER_LAYER
        samples = {m: len(tracer.requests) for m in metrics}
        samples.update({n: 1 for n in metrics if n.endswith(".peak_mib")})
        if trace_path is not None:
            tracer.write(trace_path)
    # medians are printed, not gated: on a shared 2-vCPU host their ten-seed
    # spread exceeded the largest allowed bound (see README.md)
    per_command = {"request_p50_s": {"value": _median(r.wall_s for r in plain_runs), "samples": len(plain_runs)}}
    for j, command in enumerate(workload.commands):
        times = [r.command_s[j] for r in plain_runs if len(r.command_s) > j]
        per_command[command.replace("-", "_") + "_p50_s"] = {"value": _median(times), "samples": len(times)}
    result = {
        "correct": failed == 0 and setup.deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": float(v), "unit": units[m]} for m, v in metrics.items()},
    }
    detail = {
        "workload": name,
        "provenance": provenance(seed),
        "samples": samples,
        "commands": per_command,
        "request_s": [round(r.wall_s, 4) for r in results],
        "inputs_deterministic": setup.deterministic,
        "wall_s": time.perf_counter() - started,
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "diskxray" / "__init__.py").is_file():
        print(f"error: no diskxray sources under {SRC}", file=sys.stderr)
        return 2
    # Fixed before numpy loads its BLAS.  The CLI's matrix products are small
    # (at most a few hundred by a hundred), where extra BLAS threads only add
    # spin-waiting CPU time and run-to-run noise.
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import diskxray

    if not Path(diskxray.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported diskxray from {diskxray.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        result, detail = run(args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                             workdir, trace_path=OUT / f"trace-{args.workload}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
