"""The purity of a reduced density matrix: the tests' independent route to
the family-I and family-II verdicts, beside the classifiers' discriminant
and margins."""

import numpy as np


def purity(rho: np.ndarray) -> float:
    return float(np.trace(rho @ rho).real)
