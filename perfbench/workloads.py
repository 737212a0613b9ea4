"""The benchmark's workloads: which CLI commands each one runs, per seed.

A seed only picks a coupling from a fixed list, so every input the benchmark
can produce has stored references (see ``make_refs.py``). Seed 0 gives the
paper's defaults, which is how the CLI runs without ``--lambda``.
"""

from __future__ import annotations

# Table 1 of the paper: the case-3 couplings of the resonance sweep.
# None means "the CLI default", which for case 3 is 1/10.
RESONANCE_COUPLINGS = (None, "12/100", "13/100", "14/100")

# x^4 couplings g for ``rpm --g``, chosen so that each root trail costs the
# same number of Hankel determinants (387-390), which keeps the run time
# independent of the seed. Not listed: g = 2 and 2/5, where ``rpm --g`` exits
# 3 (NewtonDivergence), and g = 3/4 and 4/5, where the RPM settings of the
# high-precision reference diverge (see make_refs.py).
RPM_COUPLINGS = ("1", "3/2", "5/4", "6/5")

# One coupling passed to every survey command; None keeps each case's default.
SURVEY_COUPLINGS = (None, "1/2", "3/10", "2")

COUPLINGS = {
    "resonance": RESONANCE_COUPLINGS,
    "rpm": RPM_COUPLINGS,
    "survey": SURVEY_COUPLINGS,
}


def coupling_for(workload: str, seed: int):
    choices = COUPLINGS[workload]
    return choices[seed % len(choices)]


def _with_lambda(argv: list[str], lam) -> list[str]:
    return argv if lam is None else argv + ["--lambda", lam]


def commands(workload: str, coupling) -> list[list[str]]:
    """The argv lists one pass of `workload` sends to ``anharm2d.cli.main``."""
    if workload == "resonance":
        return [_with_lambda(["case", "3"], coupling)]
    if workload == "rpm":
        return [["case", "1"], ["case", "2"], ["rpm", "--g", coupling]]
    if workload == "survey":
        argvs = []
        for k in range(1, 6):
            argvs.append(["transform", "--case", str(k)])
            argvs.append(["symmetry", "--case", str(k)])
        for k in (1, 2):
            argvs.append(["spectrum", "--case", str(k), "--nmax", "40"])
        for k in (4, 5):
            argvs.append(["case", str(k), "--nmax", "40"])
        return [_with_lambda(argv, coupling) for argv in argvs]
    raise ValueError(f"unknown workload {workload!r}")


def coupling_key(coupling) -> str:
    """Key of a coupling in the reference files."""
    return "default" if coupling is None else coupling
