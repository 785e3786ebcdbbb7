"""Tiny solve in each basis, the warm-up counted in set-up time.

Kept free of top-level imports so that a set-up probe can import it
after starting its clock without pulling anything else in first.
"""


def warm_up(kts):
    """Solve a linear system, one zero at (3/4, 3/4), once in every basis."""
    import numpy as np

    c = np.zeros((2, 2, 2))
    c[0, 0] = (-0.5, -0.5)
    c[1, 0] = (1.0, 0.0)
    c[0, 1] = (0.0, 1.0)
    f = kts.BivariateSystem(kts.Basis.POWER, c)
    for basis in kts.Basis:
        report = kts.kts_solve(kts.convert(f, basis))
        if len(report.zeros) != 1:
            raise RuntimeError(f"warm-up solve in {basis.value} found {len(report.zeros)} zeros, expected 1")
