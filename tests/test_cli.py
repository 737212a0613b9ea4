import contextlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anharm2d import cli
from anharm2d.cases import case_preset
from anharm2d.maps import flip_x
from anharm2d.poly2d import apply_linear_map
from anharm2d.resonance import Resonance
from anharm2d.rpm import rpm_eigenvalue

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def run_python(*args, env=None):
    """Run a child interpreter that imports the package from src/."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=600)


def run_cli(*args, env=None):
    """Run the CLI in a child interpreter that imports the package from src/."""
    return run_python("-m", "anharm2d.cli", *args, env=env)


def test_package_runs_as_a_module():
    package, module = run_python("-m", "anharm2d", "symmetry", "--case", "5"), run_cli("symmetry", "--case", "5")
    assert package.returncode == module.returncode == 0, package.stderr
    assert package.stdout == module.stdout
    assert run_python("-m", "anharm2d", "case", "7").returncode == 2
    # importing the module, as a tracer that walks the package does, runs nothing
    assert run_python("-c", "import anharm2d.__main__").returncode == 0


def test_transform_case1_emits_exact_map_and_potential():
    proc = run_cli("transform", "--case", "1")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["separable"] is True
    assert payload["map"]["entries"][0] == ["1/2*sqrt(2)", "1/2*sqrt(2)"]
    transformed = {(t["i"], t["j"]): t["p"] for t in payload["transformed"]["terms"]}
    assert transformed == {(0, 2): "1/1", (0, 4): "4/1", (2, 0): "1/1"}


def test_transform_output_is_deterministic():
    first = run_cli("transform", "--case", "2")
    second = run_cli("transform", "--case", "2")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_symmetry_case5_reports_c4v():
    proc = run_cli("symmetry", "--case", "5")
    payload = json.loads(proc.stdout)
    assert payload["group"]["order"] == 8
    assert payload["boundedness"] == "Marginal"


def test_symmetry_case3_reports_unbounded():
    proc = run_cli("symmetry", "--case", "3", "--lambda", "1")
    payload = json.loads(proc.stdout)
    assert payload["group"]["order"] == 4
    assert len(payload["group"]["elements"]) == 4
    table = payload["group"]["table"]
    assert len(table) == 4 and all(len(row) == 4 for row in table)
    assert table[0] == [0, 1, 2, 3]
    assert payload["boundedness"] == "Unbounded"


def test_rpm_command_digits(tmp_path):
    out = tmp_path / "rpm.json"
    proc = run_cli("rpm", "--g", "4", "--digits", "50", "--dmax", "12", "--out", str(out))
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["energy"].startswith("1.90313694545900002229")
    assert payload["stabilized_digits"] >= 15
    assert [entry["D"] for entry in payload["trail"]] == list(range(2, 13))
    assert payload["trail"][-1]["E"].startswith("1.90313")


@pytest.mark.parametrize("g", ["2", "2/5"])
def test_rpm_command_at_clustered_couplings(g):
    """At g = 2 and 2/5 the high-D Hankel roots come in close clusters; the
    default settings still converge, to the eigenvalue of a higher-D,
    higher-precision run."""
    proc = run_cli("rpm", "--g", g)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    coupling = cli.exact_lambda(g)
    seed = float(cli._levels_1d(coupling, 40)[0])
    ref = rpm_eigenvalue([0, 1, coupling], s=0, D_max=32, seed=seed, precision_digits=110)
    with mp.workdps(110):
        assert abs(mp.mpf(payload["energy"]) - ref.e_value) < mp.mpf(10) ** -35 * ref.e_value


@pytest.mark.parametrize("case", ["1", "2"])
def test_separable_case_at_zero_coupling_is_harmonic(case):
    proc = run_cli("case", case, "--lambda", "0", "--digits", "30", "--dmax", "6")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert float(payload["ground_energy_rpm"]) == 2
    assert payload["agreement_digits"] == 30


def test_spectrum_case5():
    proc = run_cli("spectrum", "--case", "5", "--nmax", "8", "--count", "3", "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("case,")
    values = {line.split(",")[0]: line.split(",", 1)[1] for line in lines}
    assert values["eigenvalues.0"].startswith("2.014")


def test_spectrum_optimal_omega_runs():
    proc = run_cli("spectrum", "--case", "1", "--nmax", "10", "--omega", "optimal")
    payload = json.loads(proc.stdout)
    assert float(payload["omega"]) > 2.0


def test_case4_isospectrality_report():
    proc = run_cli("case", "4", "--nmax", "10", "--format", "json")
    payload = json.loads(proc.stdout)
    assert payload["flip_conjugation_exact"] is True
    assert payload["isospectral_max_diff"] == "0"
    assert len(payload["lowest_eigenvalues"]) == 10


def test_case5_pipeline():
    proc = run_cli("case", "5", "--nmax", "8")
    payload = json.loads(proc.stdout)
    assert payload["group_order"] == 8
    assert payload["boundedness"] == "Marginal"
    assert len(payload["lowest_eigenvalues"]) == 10


def test_resonance_small_basis():
    proc = run_cli(
        "resonance", "--nmax", "10", "--theta-steps", "5", "--lambda", "0.1"
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert abs(float(payload["re_e"]) - 2.0733) < 1e-3
    assert float(payload["im_e"]) < 0


@pytest.mark.parametrize(
    "stability, printed",
    [
        # lambda = 1/10 and 1/20 at nmax 30: block-by-block windows move the
        # 4th-6th digits of the whole-matrix windows' centred difference
        (2.33030043355e-10, "2.33e-10"),
        (2.33030977986e-10, "2.33e-10"),
        (3.6883081387e-13, "3.69e-13"),
        (3.6853658359e-13, "3.69e-13"),
        (0.0496, "0.0496"),
    ],
)
def test_resonance_prints_stability_to_three_digits(monkeypatch, capsys, stability, printed):
    def resonance_stub(poly, basis, theta_window, n_points):
        return Resonance(energy=2.07 - 4.6e-4j, theta_star=0.25, stability=stability, converged=True)

    monkeypatch.setattr(cli, "find_lowest_resonance", resonance_stub)
    assert cli.main(["resonance"]) == 0
    assert json.loads(capsys.readouterr().out)["stability"] == printed


def test_validation_failures_exit_2():
    assert run_cli("resonance", "--theta-steps", "2").returncode == 2
    assert run_cli("case", "7").returncode == 2
    assert run_cli("spectrum", "--case", "1", "--omega", "fixed:-1").returncode == 2
    assert run_cli("spectrum", "--case", "1", "--nmax", "4", "--omega", "fixed:inf").returncode == 2
    for seed in ("nan", "inf"):
        assert run_cli("rpm", "--g", "1", "--seed", seed).returncode == 2
    assert run_cli("rpm", "--g", "4", "--dmax", "2").returncode == 2
    for displacement in ("-1", "-3"):
        argv = ("rpm", "--g", "1", f"--displacement={displacement}", "--dmax", "8", "--digits", "30")
        assert run_cli(*argv).returncode == 2
    assert run_cli("case", "3", "--theta-min", "0.2", "--theta-max", "0.1").returncode == 2
    for count in ("-1", "0"):
        assert run_cli("spectrum", "--case", "5", "--nmax", "3", "--count", count).returncode == 2
    assert run_cli("spectrum", "--case", "5", "--nmax", "0").returncode == 2
    assert run_cli("rpm", "--g", "1", "--digits", "0").returncode == 2
    assert run_cli("case", "1", "--digits", "0").returncode == 2
    # at 10 digits or fewer the root tracker's stop threshold 10^(10-dps) is 1 or more,
    # so it would stop after one step at every D
    assert run_cli("rpm", "--g", "1", "--digits", "8").returncode == 2
    # the harmonic limit never calls the RPM, so a low precision is fine there
    assert run_cli("case", "1", "--lambda", "0", "--digits", "5").returncode == 0
    # a zero denominator is a bad value, not a numerical failure
    assert run_cli("symmetry", "--case", "1", "--lambda", "1/0").returncode == 2
    assert run_cli("rpm", "--g", "1/0").returncode == 2
    # so is a coupling outside the float range, where the command computes in floats
    for argv in (
        ["spectrum", "--case", "1", "--nmax", "4", "--lambda", "1e400"],
        ["case", "5", "--nmax", "4", "--lambda", "1e400"],
        ["rpm", "--g", "1e400", "--dmax", "4"],
        # symmetry floats the quartic coefficients of a form that is not Marginal
        ["symmetry", "--case", "2", "--lambda", "1e400"],
        ["symmetry", "--case", "3", "--lambda", "1e400"],
    ):
        proc = run_cli(*argv)
        assert proc.returncode == 2
        assert proc.stderr == "error: coupling 1.0e+400 puts a coefficient outside the float range\n"


def test_exact_commands_take_couplings_beyond_float_range():
    # symmetry floats no coefficient of a Marginal form (cases 1, 4 and 5)
    runs = [("symmetry", k) for k in (1, 4, 5)] + [("transform", k) for k in range(1, 6)]
    for command, k in runs:
        proc = run_cli(command, "--case", str(k), "--lambda", "1e400")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["lambda"] == str(10**400)


def test_unwritable_out_path_exits_2(capsys, tmp_path, monkeypatch):
    # the path is checked before anything is computed
    monkeypatch.setitem(cli._HANDLERS, "transform", lambda args: pytest.fail("computed first"))
    with pytest.raises(SystemExit) as exc:
        cli.main(["transform", "--case", "1", "--out", str(tmp_path / "missing" / "x.json")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_removed_settings_are_gone():
    for argv in (["resonance", "--case", "3"], ["case", "3", "--emit-table1"], ["rpm", "--g", "1", "--lambda", "2"]):
        assert run_cli(*argv).returncode == 2
    # --digits is the only precision setting; the environment is not read
    proc = run_cli("rpm", "--g", "1", "--dmax", "4", env=dict(os.environ, OSC_PRECISION_DIGITS="abc"))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["precision_digits"] == 80


# The harmonic limit lambda = 0 in every command: the Hermitian levels are
# exactly those of the 2D oscillator, the quartic form is zero (Marginal, at
# pi/2), and case 3 has no resonance.
HARMONIC_ARGVS = (
    [[command, "--case", str(k)] for command in ("transform", "symmetry") for k in range(1, 6)]
    + [["spectrum", "--case", str(k), "--nmax", "6", "--omega", omega] for k in range(1, 6) for omega in ("fixed:1", "optimal")]
    + [["case", k, "--digits", "30", "--dmax", "6", "--nmax", "6"] for k in "1245"]
    + [["case", "3", "--nmax", "6", "--theta-steps", "5"], ["resonance", "--nmax", "6", "--theta-steps", "5"]]
    # the default basis: the command refuses the bounded potential before any
    # sweep (test_resonance checks the refusal of the sweep's spurious pick)
    + [["case", "3"], ["resonance"]]
)


@pytest.mark.parametrize("argv", HARMONIC_ARGVS, ids=" ".join)
def test_harmonic_limit_in_every_command(capsys, argv):
    rc = cli.main(argv + ["--lambda", "0"])
    out, err = capsys.readouterr()
    if argv[:2] == ["case", "3"] or argv[0] == "resonance":
        assert rc == 3
        assert json.loads(err)["error"] == "NoStationaryPoint"
        assert "spectrum is discrete" in json.loads(err)["detail"]
        return
    assert rc == 0, err
    got = json.loads(out)
    levels = got.get("eigenvalues", got.get("lowest_eigenvalues"))
    if levels is not None:
        exact = sorted(2 * (nx + ny) + 2 for nx in range(6) for ny in range(6))
        assert _floats(levels) == pytest.approx(exact[: len(levels)], rel=0, abs=1e-12)
    if argv[0] == "symmetry":
        assert (got["boundedness"], got["quartic_form_min"], got["quartic_form_argmin"]) == (
            "Marginal", "0", "1.57079632679"
        )


# The survey reports, compared with the benchmark's stored outputs: floats
# (12 significant figures, single or listed) to 1e-10 relative, every other
# field exactly.
SURVEY_REFS = json.loads((ROOT / "perfbench" / "refs" / "out_survey.json").read_text())
FLOAT_FIELDS = ("quartic_form_min", "quartic_form_argmin", "omega", "eigenvalues", "lowest_eigenvalues")
SURVEY_COUPLINGS = [None, "1/2", "3/10", "2"]


def _floats(value):
    return [float(v) for v in (value if isinstance(value, list) else [value])]


def _assert_matches_survey_ref(capsys, argv, lam):
    argv = argv + ([] if lam is None else ["--lambda", lam])
    assert cli.main(argv) == 0
    got = json.loads(capsys.readouterr().out)
    want = SURVEY_REFS["default" if lam is None else lam][" ".join(argv)]
    for key in FLOAT_FIELDS:
        if key in want:
            assert _floats(got.pop(key)) == pytest.approx(_floats(want.pop(key)), rel=1e-10, abs=0)
    assert got == want


@pytest.mark.parametrize("lam", SURVEY_COUPLINGS)
@pytest.mark.parametrize("command", ["transform", "symmetry"])
@pytest.mark.parametrize("case", range(1, 6))
def test_exact_reports_match_stored_outputs(capsys, case, command, lam):
    _assert_matches_survey_ref(capsys, [command, "--case", str(case)], lam)


@pytest.mark.parametrize("lam", SURVEY_COUPLINGS)
@pytest.mark.parametrize(
    "argv",
    [["spectrum", "--case", "1"], ["spectrum", "--case", "2"], ["case", "4"], ["case", "5"]],
    ids=" ".join,
)
def test_hermitian_spectra_match_stored_outputs(capsys, argv, lam):
    _assert_matches_survey_ref(capsys, argv + ["--nmax", "40"], lam)


@pytest.mark.parametrize(
    "case, lam, verdict, qmin, argmin",
    [
        ("3", "1/10000000000000", "Unbounded", None, None),
        ("2", "1/10000000000000", "Bounded", None, None),
        ("1", "-1/10000000000000", "Unbounded", None, None),
        ("5", "-1/10000000000000", "Unbounded", None, None),
        ("1", "1/10000000000", "Marginal", "0", "-0.785398163397"),
        ("4", "1/10000000000", "Marginal", "0", "0.785398163397"),
    ],
)
def test_tiny_coupling_gets_the_exact_verdict(capsys, case, lam, verdict, qmin, argmin):
    assert cli.main(["symmetry", "--case", case, f"--lambda={lam}"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["boundedness"] == verdict
    if verdict == "Marginal":
        assert (got["quartic_form_min"], got["quartic_form_argmin"]) == (qmin, argmin)
    else:
        assert (float(got["quartic_form_min"]) > 0) == (verdict == "Bounded")


def test_numerical_failure_exits_3_with_json_error():
    proc = run_cli(
        "resonance",
        "--nmax", "4",
        "--theta-min", "0.01",
        "--theta-max", "0.02",
        "--theta-steps", "3",
    )
    assert proc.returncode == 3
    error = json.loads(proc.stderr)
    assert error["error"] == "NoStationaryPoint"
    # x overflows at this omega: the NaN entries pass the Hermitian check, and LAPACK rejects them
    proc = run_cli("spectrum", "--case", "1", "--nmax", "4", "--omega", "fixed:1e-320")
    assert proc.returncode == 3
    assert json.loads(proc.stderr.splitlines()[-1])["error"] == "ConvergenceFailure"


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--case", "3"],
        ["spectrum", "--case", "5", "--lambda=-1/10"],
        ["case", "4", "--lambda=-1/10"],
        ["case", "5", "--lambda=-1/10"],
        ["case", "1", "--lambda=-1/10"],
        ["case", "2", "--lambda=-1/10"],
    ],
    ids=" ".join,
)
def test_unbounded_potential_has_no_variational_spectrum(capsys, monkeypatch, argv):
    """Truncated levels of a potential with no ground state are artifacts: exit 2 before any solve."""

    def no_solve(*args, **kwargs):
        raise AssertionError("an unbounded potential was diagonalized")

    monkeypatch.setattr(cli, "swap_blocks", no_solve)
    monkeypatch.setattr(cli, "build_hamiltonian_1d", no_solve)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unbounded from below" in err and "resonance command" in err


def _main_result(capsys, argv):
    """(exit code, stdout, stderr) of cli.main(argv), argparse's exits included."""
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.mark.parametrize(
    "first, second, first_rc",
    [
        (["case", "3", "--nmax", "8", "--theta-steps", "5"], ["case", "1"], 0),
        (["spectrum", "--case", "1", "--count", "3"], ["spectrum", "--case", "2"], 0),
        (["spectrum", "--case", "9"], ["transform", "--case", "2"], 2),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else str(value),
)
def test_one_parser_serves_commands_in_turn(capsys, first, second, first_rc):
    """main builds its parser once per process, and no state of one command reaches the next."""
    fresh = []
    for argv in (first, second):
        cli._parser.cache_clear()
        fresh.append(_main_result(capsys, argv))
    cli._parser.cache_clear()
    assert [_main_result(capsys, first), _main_result(capsys, second)] == fresh
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)  # built for the first command, reused for the second
    assert [rc for rc, _, _ in fresh] == [first_rc, 0]


def test_negative_coupling_is_passed_with_an_equals_sign(capsys):
    assert cli.main(["symmetry", "--case", "3", "--lambda=-1/10"]) == 0
    assert '"lambda": "-1/10"' in capsys.readouterr().out
    with pytest.raises(SystemExit):
        cli.main(["symmetry", "--help"])
    assert "--lambda=-1/10" in capsys.readouterr().out


def test_text_format():
    proc = run_cli("symmetry", "--case", "3", "--format", "text")
    assert proc.returncode == 0
    assert "group.order: 4" in proc.stdout


@pytest.mark.parametrize(
    "argv, rc",
    [
        (["rpm", "--g", "4", "--dmax", "6", "--digits", "30", "--seed", "1.9"], 0),
        (["rpm", "--g", "1", "--seed", "nan"], 2),
    ],
)
def test_rpm_with_seed_skips_the_variational_solve(monkeypatch, argv, rc):
    calls = []
    levels = cli._levels_1d
    monkeypatch.setattr(cli, "_levels_1d", lambda *a: calls.append(a) or levels(*a))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            got = cli.main(argv)
        except SystemExit as exc:
            got = exc.code
    assert (got, calls) == (rc, [])
    if rc == 0:
        assert out.getvalue() == run_cli(*argv).stdout


def test_cli_import_does_not_load_concurrent_futures():
    # nor scipy, which complex scaling imports on first use (about 0.3 s and
    # 30 MB), so commands without it never pay for it: neither the import nor
    # any command of the survey benchmark loads it
    code = (
        "import contextlib, io, sys, anharm2d.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['transform', '--case', '1'], ['symmetry', '--case', '2'],\n"
        "                 ['spectrum', '--case', '1', '--nmax', '4'], ['spectrum', '--case', '2', '--nmax', '4'],\n"
        "                 ['case', '4', '--nmax', '4'], ['case', '5', '--nmax', '4']):\n"
        "        assert cli.main(argv) == 0\n"
        "print(sorted({'scipy', 'concurrent.futures'} & set(sys.modules)))"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[]"
    # complex scaling takes its blocks from the term keys, so it needs no graph search
    code = (
        "import contextlib, io, sys, anharm2d.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['case', '3', '--nmax', '6']) == 0\n"
        "print('scipy.sparse' in sys.modules, 'scipy.sparse.csgraph' in sys.modules)"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0
    assert proc.stdout.split() == ["True", "False"]


# One code path per printed result: `case K` prints the fields of the topic
# reports (transform, symmetry, spectrum) from the same helpers.


def _report(capsys, argv):
    assert cli.main(argv) == 0
    return json.loads(capsys.readouterr().out)


def _coupling(lam):
    return [] if lam is None else ["--lambda", lam]


@pytest.mark.parametrize("lam", [None, "3/10"])
@pytest.mark.parametrize("case", ["1", "2"])
def test_separable_case_prints_the_transform_fields(capsys, case, lam):
    got = _report(capsys, ["case", case, "--dmax", "6", "--digits", "30"] + _coupling(lam))
    want = _report(capsys, ["transform", "--case", case] + _coupling(lam))
    for key in ("rotation_angle", "map", "transformed"):
        assert got[key] == want[key]


@pytest.mark.parametrize("lam", [None, "13/100"])
def test_case3_prints_the_symmetry_quartic_fields(capsys, lam):
    got = _report(capsys, ["case", "3", "--nmax", "10", "--theta-steps", "5"] + _coupling(lam))
    want = _report(capsys, ["symmetry", "--case", "3"] + _coupling(lam))
    for key in ("quartic_form_min", "quartic_form_argmin"):
        assert got[key] == want[key]


@pytest.mark.parametrize("lam", [None, "1/2"])
@pytest.mark.parametrize("case", ["4", "5"])
def test_case_prints_the_spectrum_levels(capsys, case, lam):
    got = _report(capsys, ["case", case, "--nmax", "8"] + _coupling(lam))
    want = _report(capsys, ["spectrum", "--case", case, "--nmax", "8", "--count", "10"] + _coupling(lam))
    assert got["lowest_eigenvalues"] == want["eigenvalues"]


def _flip_mismatch(poly, twin) -> float:
    """Oracle: max |c - (-1)^i c'| over the float terms of `poly` and `twin` in assembly order,
    inf when their keys differ in set or order.

    A sign flip is exact in every product and sum of the assembly, so at 0
    the matrix of `poly` is bit for bit S H S, with H that of `twin` and
    S = diag((-1)^nx): the two have the same spectrum, with no solve of `twin`.
    """
    ours, theirs = poly.float_terms(), twin.float_terms()
    if list(ours) != list(theirs):
        return math.inf
    return max(abs(c - (-1) ** i * theirs[i, j]) for (i, j), c in ours.items())


# exact couplings, negative, tiny and large, whose coefficients (at most 6 lambda) stay in the float range
_EXACT_COUPLINGS = st.one_of(
    st.fractions(min_value=-10, max_value=10, max_denominator=1000),
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False).map(Fraction),
    st.builds(lambda sign, k: sign * Fraction(1, 10**k), st.sampled_from([1, -1]), st.integers(1, 300)),
    st.builds(lambda sign, k: sign * Fraction(10**k), st.sampled_from([1, -1]), st.integers(1, 300)),
)


@settings(max_examples=40, deadline=None)
@given(lam=_EXACT_COUPLINGS)
def test_isospectral_max_diff_comes_from_the_exact_flip_check(lam):
    """The exact flip check implies the float scan's 0, which case 4 prints without running it."""
    p4, p1 = case_preset(4, lam).potential, case_preset(1, lam).potential
    assert apply_linear_map(p4, flip_x()) == p1
    assert _flip_mismatch(p4, p1) == 0.0
    if lam < 0:
        return  # case 4 is unbounded from below there, and the command refuses it before any report
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["case", "4", "--nmax", "4", f"--lambda={lam.numerator}/{lam.denominator}"]) == 0
    got = json.loads(out.getvalue())
    assert (got["flip_conjugation_exact"], got["isospectral_max_diff"]) == (True, "0")


@pytest.mark.parametrize(
    "argv, sizes",
    [
        # case 1 separates into factors at g = 0 and g = 4 lambda, case 2 into two at
        # one g; the harmonic factor g = 0 has its ground energy 1 without a solve
        (["case", "1"], [60]),
        (["case", "2"], [60]),
        (["case", "1", "--lambda", "0", "--digits", "5"], []),
        # rpm prints the whole root trail, so it keeps its 40-state seed
        (["rpm", "--g", "1"], [40]),
    ],
    ids=lambda value: " ".join(map(str, value)),
)
def test_one_variational_solve_per_separated_factor(capsys, monkeypatch, argv, sizes):
    calls, build = [], cli.build_hamiltonian_1d
    monkeypatch.setattr(cli, "build_hamiltonian_1d", lambda *a, **k: calls.append(k["n_max"]) or build(*a, **k))
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert calls == sizes


@pytest.mark.parametrize("lam", [None, "1/2", "3/10", "2"])
@pytest.mark.parametrize("case", ["1", "2"])
def test_rpm_ground_energy_is_the_one_seeded_from_40_states(capsys, case, lam):
    """The 60-state level that seeds the RPM gives the same 80 digits as a 40-state seed."""
    got = _report(capsys, ["case", case] + _coupling(lam))
    couplings = [Fraction(g) for g in got["factor_couplings"]]
    with mp.workdps(80):
        grounds = {
            g: rpm_eigenvalue(
                [0, 1, g], s=0, d=0, D_max=25, seed=float(cli._levels_1d(g, 40)[0]), precision_digits=80
            ).e_value if g else mp.mpf(1)
            for g in set(couplings)
        }
        want = mp.nstr(mp.fsum(grounds[g] for g in couplings), 80)
    assert got["ground_energy_rpm"] == want
