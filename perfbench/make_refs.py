"""Regenerate the benchmark's references in ``perfbench/refs``.

    python3 perfbench/make_refs.py [resonance] [rpm] [survey] [hiprec]

With no argument it regenerates everything (about ten minutes on 2 cores).

- ``out_<workload>.json``: the output of every command of every coupling of
  the workload, from the code in ``src/`` (run this at the commit whose
  outputs are the reference).
- ``hiprec.json``: even ground energies of p^2 + x^2 + g x^4 for every g the
  ``rpm`` workload solves, each cut to the digits on which two RPM settings
  above the CLI's (D_max 25 at 80 digits) agree: D_max 30 at 100 digits and
  D_max 36 at 130 digits. g = 0 is the harmonic oscillator, E = 1 exactly.
  A coupling for which either setting diverges cannot be a workload input.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import run  # sets the BLAS environment and sys.path first

import mpmath as mp  # noqa: E402

from anharm2d.eig import eig_selfadjoint  # noqa: E402
from anharm2d.oscbasis import build_hamiltonian_1d, optimal_omega  # noqa: E402
from anharm2d.rpm import rpm_eigenvalue  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402

HIPREC_SETTINGS = ((30, 100), (36, 130))


def outputs(workload: str) -> dict:
    table = {}
    for coupling in workloads.COUPLINGS[workload]:
        key = workloads.coupling_key(coupling)
        table[key] = {}
        for argv in workloads.commands(workload, coupling):
            outcome = run.run_command(argv)
            if outcome.rc != 0:
                raise SystemExit(f"{gate.argv_key(argv)} exited {outcome.rc}; choose another coupling")
            table[key][gate.argv_key(argv)] = json.loads(outcome.stdout)
            print(f"{workload} {key}: {gate.argv_key(argv)} {outcome.seconds:.2f} s", flush=True)
    return table


def hiprec_energy(g: Fraction) -> dict:
    if g == 0:
        return {"energy": "1", "digits": HIPREC_SETTINGS[-1][1]}
    ham = build_hamiltonian_1d({2: 1.0, 4: float(g)}, n_max=40, omega=optimal_omega(float(g)))
    seed = float(eig_selfadjoint(ham).eigenvalues[0])
    roots = [
        rpm_eigenvalue([0, 1, g], s=0, d=0, D_max=D, seed=seed, precision_digits=dps).e_value
        for D, dps in HIPREC_SETTINGS
    ]
    with mp.workdps(HIPREC_SETTINGS[-1][1]):
        digits = int(mp.floor(-mp.log10(abs(roots[0] - roots[1]) / abs(roots[1]))))
        return {"energy": mp.nstr(roots[1], digits), "digits": digits}


def rpm_couplings() -> list[str]:
    """Every g the rpm workload solves: ``rpm --g`` plus the case 1/2 factors."""
    found = {str(Fraction(g)) for g in workloads.RPM_COUPLINGS}
    for case_outputs in json.loads((gate.REFS / "out_rpm.json").read_text()).values():
        for output in case_outputs.values():
            found.update(output.get("factor_couplings", []))
    return sorted(found, key=Fraction)


def main(parts) -> None:
    gate.REFS.mkdir(exist_ok=True)
    parts = parts or ["resonance", "rpm", "survey", "hiprec"]
    for workload in ("resonance", "rpm", "survey"):
        if workload in parts:
            path = gate.REFS / f"out_{workload}.json"
            path.write_text(json.dumps(outputs(workload), indent=1, sort_keys=True) + "\n")
    if "hiprec" in parts:
        energies = {}
        for g in rpm_couplings():
            energies[g] = hiprec_energy(Fraction(g))
            print(f"hiprec g={g}: {energies[g]['digits']} digits", flush=True)
        doc = {"settings": [list(s) for s in HIPREC_SETTINGS], "energies": energies}
        (gate.REFS / "hiprec.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
