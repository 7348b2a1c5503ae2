"""Polynomial roots: companion-matrix eigenvalues, polished and checked."""

import numpy as np
import pytest

from entloc.roots import all_roots, normalized_residuals


def coeffs_from_roots(roots):
    c = np.array([1.0 + 0j])
    for r in roots:
        c = np.convolve(c, [1.0, -r])
    return c


def test_known_factorizations():
    roots = all_roots([1, 0, -1])  # z^2 - 1
    assert np.allclose(sorted(roots, key=lambda z: z.real), [-1, 1], atol=1e-12)
    roots = all_roots([1, -6, 11, -6])  # (z-1)(z-2)(z-3)
    assert np.allclose(sorted(r.real for r in roots), [1, 2, 3], atol=1e-10)
    assert np.max(np.abs(np.sort(np.imag(roots)))) < 1e-10


def test_random_quartics_have_tiny_residuals():
    rng = np.random.default_rng(77)
    for _ in range(50):
        c = rng.normal(size=5) + 1j * rng.normal(size=5)
        roots = all_roots(c)
        assert roots.size == 4
        assert normalized_residuals(c, roots).max() < 1e-12


def test_double_roots_keep_small_residuals():
    # (z^2 - 1)^2: location accuracy degrades to sqrt(eps) but the residual
    # stays far below the 1e-10 requirement
    c = np.convolve([1, 0, -1], [1, 0, -1]).astype(complex)
    roots = all_roots(c)
    assert np.allclose(np.sort(np.abs(roots)), 1.0, atol=1e-6)
    assert normalized_residuals(c, roots).max() < 1e-12


def test_linear_and_invalid_inputs():
    assert np.allclose(all_roots([2.0, -4.0]), [2.0])
    with pytest.raises(ValueError):
        all_roots([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        all_roots([3.0])


def test_roots_reconstruct_polynomial():
    rng = np.random.default_rng(5)
    for _ in range(20):
        true_roots = rng.normal(size=4) + 1j * rng.normal(size=4)
        c = coeffs_from_roots(true_roots)
        got = np.array(sorted(all_roots(c), key=lambda z: (z.real, z.imag)))
        want = np.array(sorted(true_roots, key=lambda z: (z.real, z.imag)))
        assert np.allclose(got, want, atol=1e-7)


def test_normalized_residuals_match_scalar_formula():
    # |p(z)| / (sum_k |c_k| |z|^(n-k) + |c_n|), root by root in Python arithmetic
    rng = np.random.default_rng(9)
    for _ in range(20):
        c = rng.normal(size=5) + 1j * rng.normal(size=5)
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        want = []
        for x in z:
            value = 0j
            for ck in c:
                value = value * x + ck
            scale = sum(abs(ck) * abs(x) ** (4 - k) for k, ck in enumerate(c)) + abs(c[-1])
            want.append(abs(value) / scale)
        assert np.allclose(normalized_residuals(c, z), want, rtol=1e-14, atol=0)
