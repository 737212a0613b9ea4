"""Tests of the benchmark itself: tracing, counts and the correctness gate.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json

import run  # sets the BLAS environment and sys.path first

import gate  # noqa: E402
import spans  # noqa: E402

# Small commands that reach every traced layer in well under a second.
SMALL = [
    ["transform", "--case", "1"],
    ["symmetry", "--case", "3"],
    ["spectrum", "--case", "5", "--nmax", "8"],
    ["resonance", "--nmax", "10", "--theta-steps", "5"],
    ["case", "1", "--dmax", "6", "--digits", "30"],
    ["rpm", "--g", "1", "--dmax", "6", "--digits", "30"],
]


def _traced_pass(commands):
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        outcomes, wall = run.run_pass(commands)
    return tracer, outcomes, wall


def test_traced_outputs_are_byte_identical_to_untraced():
    plain, _ = run.run_pass(SMALL)
    tracer, traced, _ = _traced_pass(SMALL)
    assert [o.rc for o in plain] == [0] * len(SMALL)
    assert [o.stdout for o in traced] == [o.stdout for o in plain]
    assert {"eig.eig_complex", "rpm.hankel_det", "cli.main"} <= {s.name for s in tracer.spans}


def test_instrument_restores_every_name():
    before = {mod.__name__: {k: id(v) for k, v in vars(mod).items()} for mod in spans.package_modules()}
    with spans.instrument(spans.Tracer()):
        pass
    after = {mod.__name__: {k: id(v) for k, v in vars(mod).items()} for mod in spans.package_modules()}
    assert before == after


def test_self_times_sum_to_traced_wall_within_overhead():
    _, untraced = run.run_pass(SMALL)
    tracer, _, traced = _traced_pass(SMALL)
    overhead = traced - untraced
    metrics = run.layer_metrics(tracer, gate.References())
    module_self = sum(metrics[f"{m}.self_s"][0] for m in run.MODULES)
    assert abs(module_self - sum(tracer.self_times())) < 1e-9  # MODULES covers every span
    assert abs(traced - module_self) <= abs(overhead) + 1e-3


def test_counts_repeat_exactly():
    counted = (
        "rpm.hankel_det.calls", "rpm.riccati_coeffs.calls", "resonance.theta_points",
        "resonance.ambiguous_links", "eig.eig_complex.calls", "oscbasis.build_hamiltonian.elements",
        "poly2d.apply_linear_map.calls", "rpm.dets_per_root",
    )
    refs = gate.References()
    first, second = (run.layer_metrics(_traced_pass(SMALL)[0], refs) for _ in range(2))
    assert {k: first[k] for k in counted} == {k: second[k] for k in counted}
    assert first["resonance.theta_points"][0] == 5
    assert first["eig.eig_complex.calls"][0] == 6  # 5 sweep angles + 1 convergence check


def test_dets_per_root_at_the_seed():
    tracer, outcomes, _ = _traced_pass([["rpm", "--g", "1"]])
    metrics = run.layer_metrics(tracer, gate.References())
    assert outcomes[0].rc == 0
    assert metrics["rpm.hankel_det.calls"][0] == 390
    assert metrics["rpm.dets_per_root"][0] == 390 / 24
    assert metrics["rpm.digits_overclaim"][0] > 0  # the certificate overclaims at the seed


def _check(workload, key, argv, output):
    return gate.References().check(workload, key, argv, json.dumps(output))


def test_gate_passes_the_program_output():
    argv = ["transform", "--case", "1"]
    outcome = run.run_command(argv)
    verdict = gate.References().check("survey", "default", argv, outcome.stdout)
    assert verdict.ok, verdict.problems
    assert min(verdict.float_digits) == gate.FLOAT_DIGITS


def test_gate_fails_perturbed_floats_and_exact_fields():
    refs = gate.References()
    argv = ["spectrum", "--case", "1", "--nmax", "40"]
    output = refs.expected("survey", "default", argv)
    assert _check("survey", "default", argv, output).ok
    eigs = output["eigenvalues"]
    nudged = dict(output, eigenvalues=[format(float(eigs[0]) * (1 + 1e-9), ".12g")] + eigs[1:])
    assert not _check("survey", "default", argv, nudged).ok
    argv = ["transform", "--case", "1"]
    output = refs.expected("survey", "default", argv)
    relabelled = dict(output, map=dict(output["map"], label="R(1pi/4)"))
    assert not _check("survey", "default", argv, relabelled).ok
    assert not _check("survey", "default", argv, dict(output, extra=1)).ok


def test_gate_fails_an_energy_off_in_the_twentieth_digit():
    refs = gate.References()
    argv = ["rpm", "--g", "1"]
    output = refs.expected("rpm", "1", argv)
    verdict = _check("rpm", "1", argv, output)
    assert verdict.ok and verdict.hiprec_digits[0] > gate.MIN_HIPREC_DIGITS
    digits = list(output["energy"])
    digits[21] = "0" if digits[21] != "0" else "1"  # 20th decimal of 1.39...
    assert not _check("rpm", "1", argv, dict(output, energy="".join(digits))).ok


def test_run_counts_a_perturbed_result_as_failed(monkeypatch, capsys):
    argv = ["transform", "--case", "1"]
    output = gate.References().expected("survey", "default", argv)
    wrong = json.dumps(dict(output, separable=False))
    monkeypatch.setattr(run.workloads, "commands", lambda workload, coupling: [argv])
    monkeypatch.setattr(run, "measure_setup", lambda: 0.2)
    monkeypatch.setattr(run.cli, "main", lambda a: print(wrong) or 0)
    assert run.main(["--workload", "survey", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] == 1
