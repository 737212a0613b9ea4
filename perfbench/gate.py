"""Correctness gate: every command's output against stored references.

Field classes, by JSON key (a list inherits its key):

- exact (default): maps, groups, polynomials, labels, couplings, booleans
  from exact checks. Compared byte-for-byte with the stored output.
- FLOAT_KEYS: floats the CLI prints with 12 significant figures. They must
  agree with the stored output to REL_TOL, which is the ROADMAP's
  10-significant-figure check for Table 1.
- NOISE_KEYS: round-off measures whose reference value is exactly zero;
  they must stay below NOISE_MAX.
- HIPREC_KEYS: arbitrary-precision energies. They are compared with
  ``refs/hiprec.json``, the digits on which two higher RPM settings agree,
  and must reach MIN_HIPREC_DIGITS.
- UNGATED_KEYS: certificates (``stabilized_digits``, ``converged``,
  ``agreement_digits``) and the root trail. They are reported, not gated,
  so that a fix to an overclaiming certificate is not counted as a failure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import mpmath as mp

REFS = Path(__file__).resolve().parent / "refs"

FLOAT_KEYS = frozenset({
    "rotation_angle", "quartic_form_min", "quartic_form_argmin", "omega", "eigenvalues",
    "lowest_eigenvalues", "re_e", "im_e", "theta_star", "ground_energy_variational",
})
NOISE_KEYS = frozenset({"isospectral_max_diff"})
HIPREC_KEYS = frozenset({"energy", "ground_energy_rpm"})
UNGATED_KEYS = frozenset({"stabilized_digits", "converged", "agreement_digits", "trail"})

REL_TOL = 1e-10
FLOAT_DIGITS = 12  # significant figures of the CLI's float format
NOISE_MAX = 1e-10
MIN_HIPREC_DIGITS = 25
_WORK_DPS = 150


@dataclass
class Verdict:
    problems: list = field(default_factory=list)
    float_digits: list = field(default_factory=list)
    hiprec_digits: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def argv_key(argv) -> str:
    return " ".join(argv)


class References:
    """Stored outputs per workload and coupling, plus high-precision energies."""

    def __init__(self, refs_dir: Path = REFS):
        self.outputs = {}
        for path in sorted(refs_dir.glob("out_*.json")):
            self.outputs[path.stem[len("out_"):]] = json.loads(path.read_text())
        hiprec = json.loads((refs_dir / "hiprec.json").read_text())
        self.hiprec = hiprec["energies"]

    def expected(self, workload: str, coupling_key: str, argv) -> dict:
        return self.outputs[workload][coupling_key][argv_key(argv)]

    def digits_vs_hiprec(self, couplings, value) -> float:
        """Digits on which `value` agrees with the summed even ground energies of
        p^2 + x^2 + g x^4 over `couplings`, capped at the reference's own digits."""
        entries = [self.hiprec[g] for g in couplings]
        cap = float(min(e["digits"] for e in entries))
        with mp.workdps(_WORK_DPS):
            ref = mp.fsum(mp.mpf(e["energy"]) for e in entries)
            err = abs(mp.mpf(value) - ref)
            return cap if err == 0 else min(cap, float(-mp.log10(err / abs(ref))))

    def check(self, workload: str, coupling_key: str, argv, stdout: str) -> Verdict:
        verdict = Verdict()
        try:
            got = json.loads(stdout)
        except json.JSONDecodeError:
            verdict.problems.append("output is not JSON")
            return verdict
        want = self.expected(workload, coupling_key, argv)
        _compare(got, want, None, "", verdict)
        for key in HIPREC_KEYS & set(want):
            couplings = want["factor_couplings"] if key == "ground_energy_rpm" else [want["g"]]
            if not isinstance(got, dict) or not isinstance(got.get(key), str):
                verdict.problems.append(f"{key}: missing")
                continue
            digits = self.digits_vs_hiprec(couplings, got[key])
            verdict.hiprec_digits.append(digits)
            if digits < MIN_HIPREC_DIGITS:
                verdict.problems.append(f"{key}: {digits:.1f} correct digits < {MIN_HIPREC_DIGITS}")
        return verdict


def _float_digits(a: float, b: float) -> float:
    if a == b:
        return float(FLOAT_DIGITS)
    return 0.0 if b == 0.0 else min(float(FLOAT_DIGITS), -math.log10(abs(a - b) / abs(b)))


def _compare(got, want, key, path, verdict: Verdict) -> None:
    if key in UNGATED_KEYS or key in HIPREC_KEYS:
        return
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            verdict.problems.append(f"{path or '/'}: keys differ")
            return
        for k, w in want.items():
            _compare(got[k], w, k, f"{path}/{k}", verdict)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            verdict.problems.append(f"{path}: length differs")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, key, f"{path}[{i}]", verdict)
    elif key in FLOAT_KEYS or key in NOISE_KEYS:
        try:
            a, b = float(got), float(want)
        except (TypeError, ValueError):
            verdict.problems.append(f"{path}: {got!r} is not a number")
            return
        if key in NOISE_KEYS:
            if not abs(a) <= NOISE_MAX:
                verdict.problems.append(f"{path}: {got} above {NOISE_MAX}")
        elif not abs(a - b) <= REL_TOL * abs(b):
            verdict.problems.append(f"{path}: {got} != {want}")
        else:
            verdict.float_digits.append(_float_digits(a, b))
    elif got != want or type(got) is not type(want):
        verdict.problems.append(f"{path}: {got!r} != {want!r}")
