"""anharm2d benchmark: one workload per process, a closed loop of CLI commands.

    python3 perfbench/run.py --workload {resonance,rpm,survey} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout; the program is imported from
``src/``. One caller sends one command at a time through
``anharm2d.cli.main(argv)`` in this process, with stdout captured, and every
output is checked against ``perfbench/refs``. Passes over the workload's
command list repeat while another pass still fits in ``--seconds`` (at least
one pass runs).

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass),
``setup_s`` (median of fresh interpreters importing ``anharm2d.cli``),
``peak_rss_mb`` and ``correct_digits``. ``--trace 1`` runs the same untraced
passes, then one traced pass (see ``spans.py``), and reports the per-layer
metrics and the tracing overhead. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable summary, including ``failed_frac`` and the environment.

BLAS runs single-threaded: on 2 cores a second BLAS thread made complex
eigensolves no faster and much noisier next to a competing process
(``probe_blas.py`` measures both settings).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import mpmath  # noqa: E402
import numpy  # noqa: E402

from anharm2d import cli  # noqa: E402

import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 11

# Modules whose summed self time is reported; cli.self_s is dispatch and formatting.
MODULES = ("cli", "cases", "symmetry", "poly2d", "maps", "oscbasis", "eig", "resonance", "rpm")


@dataclass
class Outcome:
    argv: list
    rc: int
    stdout: str
    seconds: float


def run_command(argv) -> Outcome:
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse errors exit through parser.exit
            rc = exc.code if isinstance(exc.code, int) else 1
    return Outcome(list(argv), rc, out.getvalue(), time.perf_counter() - start)


def run_pass(commands) -> tuple[list[Outcome], float]:
    start = time.perf_counter()
    outcomes = [run_command(argv) for argv in commands]
    return outcomes, time.perf_counter() - start


def run_passes(commands, seconds: float) -> tuple[list[list[Outcome]], list[float]]:
    """Passes while the next one is expected to end within `seconds`."""
    passes, walls = [], []
    start = time.perf_counter()
    while True:
        outcomes, wall = run_pass(commands)
        passes.append(outcomes)
        walls.append(wall)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return passes, walls


def grade(refs: gate.References, workload: str, key: str, outcome: Outcome) -> gate.Verdict:
    if outcome.rc != 0:
        return gate.Verdict(problems=[f"exit code {outcome.rc}"])
    return refs.check(workload, key, outcome.argv, outcome.stdout)


def measure_setup(repeats: int = SETUP_REPEATS) -> float:
    """Median time for a fresh interpreter to finish ``import anharm2d.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", "import anharm2d.cli"]
    subprocess.run(argv, env=env, cwd=ROOT, check=True)  # warm the bytecode cache
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment() -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
    }


def layer_metrics(tracer: spans.Tracer, refs: gate.References) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    total, own, calls = tracer.by_name()
    module_self = defaultdict(float)
    for name, self_s in own.items():
        module_self[name.split(".")[0]] += self_s

    def attrs(name):
        return [s.attrs for s in tracer.spans if s.name == name]

    complex_dims = [a["dim"] for a in attrs("eig.eig_complex")]
    scans = attrs("resonance.theta_trajectory")
    resonances = calls["resonance.find_lowest_resonance"]
    rpm_runs = attrs("rpm.rpm_eigenvalue")
    roots = sum(a["roots"] for a in rpm_runs)
    graded = [
        (a["certified"], refs.digits_vs_hiprec([a["g"]], a["e_value"]))
        for a in rpm_runs
        if a["s"] == 0 and a["g"] in refs.hiprec
    ]
    metrics = {
        "eig.eig_complex.s": (total["eig.eig_complex"], "s"),
        "eig.eig_complex.calls": (calls["eig.eig_complex"], "count"),
        "eig.eig_complex.dim_max": (max(complex_dims, default=0), "rows"),
        "resonance.theta_trajectory.self_s": (own["resonance.theta_trajectory"], "s"),
        "resonance.theta_points": (sum(a["thetas"] for a in scans), "count"),
        "resonance.ambiguous_links": (sum(a["ambiguous"] for a in scans), "count"),
        "resonance.eigs_per_resonance": (sum(complex_dims) / resonances if resonances else 0.0, "eigs/res"),
        "oscbasis.build_hamiltonian.s": (total["oscbasis.build_hamiltonian"], "s"),
        "oscbasis.build_hamiltonian.calls": (calls["oscbasis.build_hamiltonian"], "count"),
        "oscbasis.build_hamiltonian.elements": (
            sum(a["dim"] ** 2 for a in attrs("oscbasis.build_hamiltonian")), "count"),
        "oscbasis.build_hamiltonian_1d.s": (total["oscbasis.build_hamiltonian_1d"], "s"),
        "eig.eig_selfadjoint.s": (total["eig.eig_selfadjoint"], "s"),
        "eig.eig_selfadjoint.calls": (calls["eig.eig_selfadjoint"], "count"),
        "rpm.hankel_det.s": (total["rpm.hankel_det"], "s"),
        "rpm.hankel_det.calls": (calls["rpm.hankel_det"], "count"),
        "rpm.riccati_coeffs.s": (total["rpm.riccati_coeffs"], "s"),
        "rpm.riccati_coeffs.calls": (calls["rpm.riccati_coeffs"], "count"),
        "rpm.rpm_eigenvalue.self_s": (own["rpm.rpm_eigenvalue"], "s"),
        "rpm.dets_per_root": (calls["rpm.hankel_det"] / roots if roots else 0.0, "dets/root"),
        "rpm.certified_digits": (min((c for c, _ in graded), default=0), "digits"),
        "rpm.digits_overclaim": (max((c - d for c, d in graded), default=0.0), "digits"),
        "symmetry.separating_rotation.s": (total["symmetry.separating_rotation"], "s"),
        "symmetry.detect_group.s": (total["symmetry.detect_group"], "s"),
        "poly2d.apply_linear_map.s": (total["poly2d.apply_linear_map"], "s"),
        "poly2d.apply_linear_map.calls": (calls["poly2d.apply_linear_map"], "count"),
        "poly2d.is_bounded_below.s": (total["poly2d.is_bounded_below"], "s"),
        "poly2d.quartic_form_min.s": (total["poly2d.quartic_form_min"], "s"),
    }
    for module in MODULES:
        metrics[f"{module}.self_s"] = (module_self[module], "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    return metrics


def _print_shares(tracer: spans.Tracer, wall: float, top: int = 12) -> None:
    _, own, calls = tracer.by_name()
    print(f"self time of the traced pass ({wall:.3f} s), largest first:")
    for name, self_s in sorted(own.items(), key=lambda kv: -kv[1])[:top]:
        print(f"  {name:<36} {self_s:9.3f} s {100 * self_s / wall:6.1f} %  {calls[name]:7d} calls")


def _per_command_counts(tracer: spans.Tracer, outcomes) -> None:
    """Counts per top-level command, e.g. hankel_det calls per root of ``rpm --g 1``."""
    print("per command: hankel_det calls / rpm roots, eig_complex calls")
    roots = [i for i, s in enumerate(tracer.spans) if s.parent is None]
    bounds = roots[1:] + [len(tracer.spans)]
    for outcome, lo, hi in zip(outcomes, roots, bounds):
        window = tracer.spans[lo:hi]
        dets = sum(s.name == "rpm.hankel_det" for s in window)
        trail = sum(s.attrs.get("roots", 0) for s in window if s.name == "rpm.rpm_eigenvalue")
        eigs = sum(s.name == "eig.eig_complex" for s in window)
        print(f"  {gate.argv_key(outcome.argv):<40} {dets}/{trail}  {eigs}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.COUPLINGS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    refs = gate.References()
    coupling = workloads.coupling_for(args.workload, args.seed)
    key = workloads.coupling_key(coupling)
    commands = workloads.commands(args.workload, coupling)
    print(f"workload={args.workload} seed={args.seed} coupling={key} trace={args.trace}")
    print(f"env: {json.dumps(environment())}")

    setup_s = measure_setup() if not args.trace else None
    passes, walls = run_passes(commands, args.seconds)
    traced = None
    if args.trace:
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            traced, traced_wall = run_pass(commands)
        passes.append(traced)

    outcomes = [outcome for one_pass in passes for outcome in one_pass]
    verdicts = [grade(refs, args.workload, key, outcome) for outcome in outcomes]
    if traced is not None:
        for verdict, plain, outcome in zip(verdicts[-len(traced):], passes[0], traced):
            if outcome.stdout != plain.stdout:
                verdict.problems.append("traced output differs from untraced")
    for verdict, outcome in zip(verdicts, outcomes):
        if not verdict.ok:
            print(f"FAILED {gate.argv_key(outcome.argv)}: {verdict.problems[:3]}")
    attempted, failed = len(verdicts), sum(not v.ok for v in verdicts)

    for outcome in passes[0]:
        print(f"  {gate.argv_key(outcome.argv):<40} rc={outcome.rc} {outcome.seconds:9.3f} s")
    print(f"passes={len(walls)} pass walls (s): {[round(w, 3) for w in walls]}")
    print(f"failed_frac = {failed / attempted} ({failed}/{attempted} commands)")

    if args.trace:
        overhead = traced_wall - statistics.median(walls)
        _print_shares(tracer, traced_wall)
        _per_command_counts(tracer, traced)
        measured = layer_metrics(tracer, refs)
        measured["trace.wall_s"] = (traced_wall, "s")
        measured["trace.overhead_s"] = (overhead, "s")
    else:
        passed = [v for v in verdicts if v.ok]
        digits = [d for v in passed for d in v.hiprec_digits] or [d for v in passed for d in v.float_digits]
        measured = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "correct_digits": (min(digits) if digits else 0.0, "digits"),
        }
    for name, (value, unit) in measured.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in measured.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
