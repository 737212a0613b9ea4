"""Command-line front end: case pipelines, transforms, spectra, resonances,
and high-precision 1D eigenvalues.

This is the only module that formats output: the library returns computed
values, and the JSON, CSV and text renderings are all built here.

Commands and their own options (every command also takes --format and --out;
all but rpm take --lambda, the coupling, written --lambda=-1/10 when negative):
  case K          --nmax, --theta-min/--theta-max/--theta-steps (case 3),
                  --digits (> 10 where the RPM runs), --dmax (cases 1 and 2)
  transform, symmetry   --case
  spectrum        --case, --count, --nmax, --omega fixed:<val>|optimal
  resonance       (case 3 only) --nmax, --theta-*, --emit-table1
  rpm             --g, --state, --seed, --displacement (>= 0), --digits (> 10), --dmax
There are no environment variables.

`case 4` reports isospectral_max_diff from the exact flip check, without a
second spectrum: 0 when flip_conjugation_exact holds, inf otherwise. Both
presets come from make_quartic with the same key order, and a negated float
is exact, so when the flipped case 4 equals case 1 exactly their float
coefficients agree bit for bit in assembly order, and case 4's matrix is
case 1's conjugated by diag((-1)^nx): the two spectra are equal.

rpm prints energy to --digits, and its trail entry for r_D below D_max only
to the digits r_D shares with r_{D+1} (rpm.shared_digits), at least 1 and at
most --digits: past them r_D is not a value of the eigenvalue, and the trail
computes each r_D below D_max - 1 only to about that many digits plus a
margin (see rpm.rpm_eigenvalue). The D_max entry is the energy string.

Exit codes: 0 success, 2 flag/validation error (argparse convention; also an
--out path that cannot be opened for writing, which is opened before the
computation, like a shell redirection, a coupling that puts a coefficient
outside the float range in a command that computes in floats, and a potential
unbounded from below in spectrum and case 1|2|4|5, whose levels in a truncated
basis would be truncation artifacts), 3 numerical failure (the error name
goes to stderr as a one-line JSON object), e.g. NoStationaryPoint when the
case-3 sweep finds no decaying trajectory, or, before any sweep, when case 3
is not unbounded from below: at lambda = 0 it is the harmonic oscillator,
whose spectrum is discrete.

Every numeric dependency is imported only where it runs, so `import
anharm2d.cli` loads only the exact layer (cases, exactnum, maps, poly2d and
symmetry): about 0.06 s on 2 cores, of which numpy alone was about 65 ms.
transform never loads numpy, nor does symmetry of case 1, 4 or 5 at a
coupling >= 0, whose quartic form vanishes on one exact ray (MARGINAL): they
compute over Q(sqrt(2)). symmetry of another form loads it for np.roots (see
quartic_form_min).
numpy, anharm2d.oscbasis and anharm2d.eig load in the handlers that build a
matrix (_levels_1d, _lowest_levels and --omega optimal), anharm2d.resonance
in _lowest_resonance, and scipy only in complex scaling (case 3, resonance).
mpmath and anharm2d.rpm load in case 1|2 and rpm, which compute the
Riccati-Pade factors in arbitrary precision, and in the error for a coupling
outside the float range, which prints it with mp.nstr. Each import runs at
call time, so the benchmark's tracer (perfbench/spans.py), which wraps the
defining modules' functions in place, sees every call.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import sys
from fractions import Fraction

from .cases import case_preset, exact_lambda
from .maps import flip_x
from .poly2d import Boundedness, apply_linear_map, is_bounded_below, quartic_form_min
from .symmetry import detect_group, separating_rotation

TABLE1_LAMBDAS = (Fraction(10, 100), Fraction(12, 100), Fraction(13, 100), Fraction(14, 100))


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def _emit(payload, fmt: str, out) -> None:
    if isinstance(payload, str):  # pre-rendered (CSV table)
        text = payload
    elif fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif fmt == "csv":
        text = _csv(_flatten(payload))
    else:
        text = "".join(f"{key}: {value}\n" for key, value in _flatten(payload))
    out.write(text)


def _flatten(payload, prefix=""):
    if isinstance(payload, dict):
        for key, value in payload.items():
            yield from _flatten(value, f"{prefix}{key}." if prefix else f"{key}.")
    elif isinstance(payload, (list, tuple)):
        for idx, value in enumerate(payload):
            yield from _flatten(value, f"{prefix}{idx}.")
    else:
        yield prefix.rstrip("."), payload


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _poly_dict(poly) -> dict:
    """Exact form of a potential: terms sorted by (i, j), coefficient p + q*sqrt(2)
    with p and q as "num/den" strings."""
    return {
        "terms": [
            {"i": i, "j": j, "p": _frac_str(c.p), "q": _frac_str(c.q)}
            for (i, j), c in sorted(poly.terms.items())
        ]
    }


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _table1_csv(lams, resonances, nmax: int) -> str:
    """Table 1 of the paper: one CSV row per coupling, floats to 10 significant figures."""
    rows = [["lambda", "re_e", "im_e", "theta_star", "nmax"]]
    for lam, res in zip(lams, resonances):
        values = (lam, res.energy.real, res.energy.imag, res.theta_star)
        rows.append([format(float(v), ".10g") for v in values] + [nmax])
    return _csv(rows)


def _separated_quartic_coeffs(poly) -> tuple[Fraction, Fraction] | None:
    """(a, b) of x^2 + y^2 + a x^4 + b y^4 if the potential has that shape."""
    expected = {(2, 0), (0, 2), (4, 0), (0, 4)}
    if not all(ij in expected for ij in poly.terms):
        return None
    coeffs = []
    for ij in ((4, 0), (0, 4)):
        c = poly.coefficient(*ij)
        if c.b:
            return None
        coeffs.append(c.p)
    return coeffs[0], coeffs[1]


def _require_float_range(lam: Fraction, values) -> None:
    """A coupling that puts one of `values` outside the float range is a bad
    value (exit 2) for the commands that compute in float64, not a numerical
    failure."""
    try:
        for value in values:
            float(value)
    except OverflowError:
        import mpmath as mp

        shown = mp.nstr(mp.mpf(lam.numerator) / lam.denominator, 6)
        raise ValueError(f"coupling {shown} puts a coefficient outside the float range") from None


def _float_case(case_id: int, lam):
    """case_preset for a command that computes in float64."""
    preset = case_preset(case_id, lam)
    _require_float_range(preset.lam, preset.potential.terms.values())
    return preset


def _require_bounded(preset, verdict: Boundedness) -> None:
    """A potential unbounded from below has no ground state, so the levels of
    a truncated basis would only be artifacts of the truncation: a bad value
    (exit 2) for the commands that print a Rayleigh-Ritz spectrum."""
    if verdict is Boundedness.UNBOUNDED:
        raise ValueError(
            f"case {preset.id} at lambda {preset.lam} is unbounded from below, so it has no variational "
            "spectrum; its states are resonances, which the resonance command computes for case 3"
        )


def _levels_1d(g: Fraction, n_max: int):
    """Variational levels of p^2 + x^2 + g x^4 in the basis at optimal_omega(g), as a numpy array."""
    from .eig import eig_selfadjoint
    from .oscbasis import build_hamiltonian_1d, optimal_omega

    _require_float_range(g, [g])
    g = float(g)
    ham = build_hamiltonian_1d({2: 1.0, 4: g}, n_max=n_max, omega=optimal_omega(g))
    return eig_selfadjoint(ham).eigenvalues


def _lowest_levels(poly, nmax: int, omega: float, count: int) -> list[str]:
    """The `count` lowest Rayleigh-Ritz levels of the 2D Hamiltonian in the
    nmax x nmax basis at `omega`, ascending and formatted.

    Each block of oscbasis.swap_blocks is diagonalized once and its levels
    are counted as often as its multiplicity says. The blocks are the parity
    blocks, split into swap-even and swap-odd parts when the swap (x, y) ->
    (y, x) leaves the potential invariant and the basis is square, with one
    of each pair of swap partners (eo and oe) standing for both. They are
    orthogonal projections of the full matrix with zero coupling between
    them, so the merged levels are the full matrix's spectrum.
    """
    import numpy as np

    from .eig import eig_selfadjoint
    from .oscbasis import BasisSpec, swap_blocks

    blocks = swap_blocks(poly, BasisSpec(nmax, nmax, omega=omega))
    levels = np.sort(np.concatenate([np.repeat(eig_selfadjoint(mat).eigenvalues, times) for mat, times in blocks]))
    return [_fmt(e) for e in levels[:count]]


def _rotation_fields(angle: float, mp2, separated) -> dict:
    """The fields of a separating rotation (separating_rotation's result), for transform and case 1|2."""
    return {
        "rotation_angle": _fmt(angle),
        "map": {"label": mp2.label, "entries": [[str(v) for v in row] for row in mp2.entries()]},
        "transformed": _poly_dict(separated),
    }


def _quartic_fields(poly) -> dict:
    """The minimum of the quartic form on the unit circle and its angle, for symmetry and case 3."""
    qmin, angle = quartic_form_min(poly)
    return {"quartic_form_min": _fmt(qmin), "quartic_form_argmin": _fmt(angle)}


def _cmd_transform(args) -> dict:
    preset = case_preset(args.case, args.lam)
    found = separating_rotation(preset.potential)
    payload = {
        "case": args.case,
        "lambda": str(preset.lam),
        "potential": _poly_dict(preset.potential),
        "separable": found is not None,
    }
    if found is not None:
        payload.update(_rotation_fields(*found))
    return payload


def _cmd_symmetry(args) -> dict:
    preset = case_preset(args.case, args.lam)
    bounded = is_bounded_below(preset.potential)
    if bounded is not Boundedness.MARGINAL:  # quartic_form_min floats the quartic coefficients
        _require_float_range(preset.lam, preset.potential.homogeneous_part(4).terms.values())
    group = detect_group(preset.potential)
    return {
        "case": args.case,
        "lambda": str(preset.lam),
        "group": {
            "order": group.order,
            "elements": [el.label for el in group.elements],
            "table": [list(row) for row in group.table],
        },
        "boundedness": bounded.value,
        **_quartic_fields(preset.potential),
    }


def _omega_for(args, poly) -> float:
    policy = args.omega
    if policy.startswith("fixed:"):
        # BasisSpec rejects a value that is not positive and finite
        return float(policy.split(":", 1)[1])
    if policy == "optimal":
        from .oscbasis import optimal_omega

        # strongest quartic growth direction sets the effective 1D coupling
        neg = poly.homogeneous_part(4).scale(-1)
        qmax = -quartic_form_min(neg)[0]
        return optimal_omega(max(qmax, 0.0))
    raise ValueError(f"unknown omega policy {policy!r}")


def _cmd_spectrum(args) -> dict:
    preset = _float_case(args.case, args.lam)
    _require_bounded(preset, is_bounded_below(preset.potential))
    omega = _omega_for(args, preset.potential)
    return {
        "case": args.case,
        "lambda": str(preset.lam),
        "nmax": args.nmax,
        "omega": _fmt(omega),
        "eigenvalues": _lowest_levels(preset.potential, args.nmax, omega, args.count),
    }


def _lowest_resonance(args, lam: Fraction):
    """Case-3 resonance at coupling `lam`, swept as --nmax and the --theta-* flags say.

    A potential that is not unbounded from below has a discrete spectrum and
    no resonance, so it is refused before the sweep."""
    from .oscbasis import BasisSpec
    from .resonance import NoStationaryPoint, find_lowest_resonance

    poly = _float_case(3, lam).potential
    verdict = is_bounded_below(poly)
    if verdict is not Boundedness.UNBOUNDED:
        raise NoStationaryPoint(
            f"case 3 at lambda {lam} is {verdict.value.lower()}, not unbounded from below, so its spectrum "
            "is discrete and has no resonance"
        )
    window = (args.theta_min * math.pi, args.theta_max * math.pi)
    basis = BasisSpec(args.nmax, args.nmax, omega=1.0)
    return find_lowest_resonance(poly, basis, theta_window=window, n_points=args.theta_steps)


def _resonance_report(args) -> dict:
    lam = case_preset(3, args.lam).lam
    res = _lowest_resonance(args, lam)
    return {
        "case": 3,
        "lambda": str(lam),
        "re_e": _fmt(res.energy.real),
        "im_e": _fmt(res.energy.imag),
        "theta_star": _fmt(res.theta_star),
        # a centred difference of window eigenvalues: past 3 digits it is rounding noise
        "stability": format(res.stability, ".3g"),
        "nmax": args.nmax,
        "converged": res.converged,
    }


def _cmd_resonance(args) -> dict | str:
    if not args.emit_table1:
        return _resonance_report(args)
    lams = TABLE1_LAMBDAS if args.lam is None else (case_preset(3, args.lam).lam,)
    return _table1_csv(lams, [_lowest_resonance(args, lam) for lam in lams], args.nmax)


def _cmd_rpm(args) -> dict:
    import mpmath as mp

    from .rpm import rpm_eigenvalue, shared_digits

    digits = args.digits
    g = exact_lambda(args.g)
    s = 0 if args.state == "even" else 1
    seed = args.seed if args.seed is not None else float(_levels_1d(g, 40)[s])
    result = rpm_eigenvalue(
        [0, 1, g], s=s, d=args.displacement, D_max=args.dmax, seed=seed, precision_digits=digits
    )
    energy = mp.nstr(result.e_value, digits)
    # each r_D below D_max to the digits it shares with r_{D+1} (module docstring)
    trail = [
        {"D": D, "E": mp.nstr(root, max(1, shared_digits(root, after, digits)))}
        for (D, root), (_, after) in zip(result.trail, result.trail[1:])
    ]
    return {
        "g": str(g),
        "state": args.state,
        "d": args.displacement,
        "D_max": args.dmax,
        "precision_digits": digits,
        "energy": energy,
        "stabilized_digits": result.stabilized_digits,
        "trail": trail + [{"D": args.dmax, "E": energy}],
    }


def _case_separable_report(preset, digits: int, d_max: int) -> dict:
    import mpmath as mp

    from .rpm import rpm_eigenvalue

    found = separating_rotation(preset.potential)
    ab = _separated_quartic_coeffs(found[2])
    with mp.workdps(digits):
        grounds = {}  # (RPM, variational) ground energies, once per distinct coupling
        for g in dict.fromkeys(ab):
            # the harmonic factor's ground energy is exactly 1, with no solve; any
            # other factor has one variational solve, which seeds the RPM and is
            # the printed variational energy
            if g == 0:
                grounds[g] = (mp.mpf(1), 1.0)
                continue
            level = float(_levels_1d(g, 60)[0])
            rpm = rpm_eigenvalue([0, 1, g], s=0, d=0, D_max=d_max, seed=level, precision_digits=digits).e_value
            grounds[g] = (rpm, level)
        total = mp.fsum(grounds[g][0] for g in ab)
        variational = sum(grounds[g][1] for g in ab)
        # Exact agreement (the harmonic limit λ = 0) certifies every digit.
        gap = abs(total - variational)
        agreement = digits if gap == 0 else int(mp.floor(-mp.log10(gap / abs(total))))
        return {
            **_rotation_fields(*found),
            "factor_couplings": [str(g) for g in ab],
            "ground_energy_rpm": mp.nstr(total, digits),
            "ground_energy_variational": _fmt(variational),
            "agreement_digits": agreement,
        }


def _cmd_case(args) -> dict:
    if args.nmax is None:
        args.nmax = 30 if args.case == 3 else 20
    preset = _float_case(args.case, args.lam)
    bounded = is_bounded_below(preset.potential)
    if args.case != 3:
        _require_bounded(preset, bounded)
    payload = {
        "case": args.case,
        "lambda": str(preset.lam),
        "boundedness": bounded.value,
        "group_order": detect_group(preset.potential).order,
    }
    if args.case in (1, 2):
        payload.update(_case_separable_report(preset, args.digits, args.dmax))
    elif args.case == 3:
        payload.update(_quartic_fields(preset.potential))
        res = _resonance_report(args)
        payload.update((key, res[key]) for key in ("re_e", "im_e", "theta_star", "converged"))
    else:
        if args.case == 4:
            exact = apply_linear_map(preset.potential, flip_x()) == case_preset(1, preset.lam).potential
            payload["flip_conjugation_exact"] = exact
            payload["isospectral_max_diff"] = _fmt(0.0 if exact else math.inf)
        payload["lowest_eigenvalues"] = _lowest_levels(preset.potential, args.nmax, 1.0, 10)
    return payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anharm2d",
        description="2D quartic anharmonic oscillators: transforms, symmetry, spectra, resonances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("--out", dest="out_path", default=None, help="write output to this path")
        return p

    p_case = common(sub.add_parser("case", help="run the full pipeline for a benchmark case"))
    p_case.add_argument("case", type=int, choices=range(1, 6))
    p_tr = common(sub.add_parser("transform", help="separating rotation and transformed potential"))
    p_tr.add_argument("--case", type=int, choices=range(1, 6), required=True)
    p_sym = common(sub.add_parser("symmetry", help="point group and boundedness report"))
    p_sym.add_argument("--case", type=int, choices=range(1, 6), required=True)
    p_sp = common(sub.add_parser("spectrum", help="lowest Rayleigh-Ritz eigenvalues"))
    p_sp.add_argument("--case", type=int, choices=range(1, 6), required=True)
    p_sp.add_argument("--count", type=_positive_int, default=10)
    p_res = common(sub.add_parser("resonance", help="lowest complex-rotation resonance of case 3"))
    p_res.add_argument("--emit-table1", action="store_true", help="emit the resonance table as CSV")
    p_rpm = common(sub.add_parser("rpm", help="high-precision 1D quartic eigenvalue"))
    p_rpm.add_argument("--g", required=True, help="coefficient of x^4 in p^2 + x^2 + g x^4")
    p_rpm.add_argument("--state", choices=("even", "odd"), default="even")
    p_rpm.add_argument("--seed", type=float, default=None, help="start of the root trail at D = 2 (default: variational)")
    p_rpm.add_argument("--displacement", type=int, default=0)

    for p in (p_case, p_tr, p_sym, p_sp, p_res):
        p.add_argument(
            "--lambda",
            dest="lam",
            default=None,
            help="coupling (exact decimal or fraction); give a negative one as --lambda=-1/10, since "
            "argparse reads a separate -1/10 as an option",
        )
    for p, nmax in ((p_case, None), (p_sp, 20), (p_res, 30)):
        # case picks its own default: 30 for case 3, 20 otherwise
        p.add_argument("--nmax", type=_positive_int, default=nmax, help="basis functions per mode")
    for p in (p_case, p_res):
        p.add_argument("--theta-min", type=float, default=0.03, help="window start in units of pi")
        p.add_argument("--theta-max", type=float, default=0.10, help="window end in units of pi")
        p.add_argument("--theta-steps", type=int, default=15)
    for p in (p_case, p_rpm):
        p.add_argument("--digits", type=_positive_int, default=80)
        p.add_argument("--dmax", type=int, default=25, help="largest Hankel dimension")
    p_sp.add_argument("--omega", default="fixed:1", help="basis frequency: fixed:<val> or optimal")
    return parser


_parser = functools.cache(build_parser)  # main's parser, built once: parse_args keeps no state in it
_HANDLERS = {
    "case": _cmd_case,
    "transform": _cmd_transform,
    "symmetry": _cmd_symmetry,
    "spectrum": _cmd_spectrum,
    "resonance": _cmd_resonance,
    "rpm": _cmd_rpm,
}


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        out = open(args.out_path, "w") if args.out_path else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        parser.exit(2, f"error: {exc}\n")
    with out as fh:
        try:
            if hasattr(args, "theta_min") and not (0.0 < args.theta_min < args.theta_max < 0.25):
                raise ValueError("theta window must satisfy 0 < min < max < 0.25 (units of pi)")
            payload = _HANDLERS[args.command](args)
        except (ValueError, KeyError) as exc:
            parser.exit(2, f"error: {exc}\n")
        except Exception as exc:  # numerical failures -> exit 3 with JSON on stderr
            sys.stderr.write(json.dumps({"error": type(exc).__name__, "detail": str(exc)}) + "\n")
            return 3
        _emit(payload, args.format, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
