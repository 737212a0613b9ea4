"""Time one complex eigensolve at n = 30 (dim 900) with 1 and with 2 BLAS threads.

    python3 perfbench/probe_blas.py [repeats]

Each setting runs in its own interpreter, because OpenBLAS reads its thread
count at import. Prints the times of each setting; ``run.py`` fixes
BLAS_THREADS to the steadier one.
"""

from __future__ import annotations

import os
import subprocess
import sys

from run import SRC

_SNIPPET = """
import sys, time
from anharm2d import BasisSpec, case_preset, build_hamiltonian, eig_complex
mat = build_hamiltonian(case_preset(3).potential, BasisSpec(30, 30, 1.0, 0.2))
for _ in range(int(sys.argv[1])):
    start = time.perf_counter()
    eig_complex(mat)
    print(round(time.perf_counter() - start, 3))
"""


def main(repeats: int = 5) -> None:
    for threads in (1, 2):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        done = subprocess.run(
            [sys.executable, "-c", _SNIPPET, str(repeats)],
            env=env, check=True, capture_output=True, text=True,
        )
        print(f"{threads} BLAS thread(s): {done.stdout.split()} s")


if __name__ == "__main__":
    main(*(int(a) for a in sys.argv[1:]))
