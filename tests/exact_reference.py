"""Floating-point evaluation of an exact polynomial: the tests' reference
for the certificates' expansions and amplitudes, beside the numeric
families and residuals they are compared with."""


def evaluate_complex(poly, values: dict[str, complex]) -> complex:
    acc = 0j
    for exps, coeff in poly.terms.items():
        term = coeff.to_complex()
        for name, e in zip(poly.variables, exps):
            term *= values[name] ** e
        acc += term
    return acc
