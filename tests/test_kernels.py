"""Numeric kernels versus direct numpy oracles."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fddrecon import _kernels


def random_inputs(rng, shape=(3, 4, 5)):
    M_v, M_h, N = shape
    y3 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a_v = np.exp(1j * rng.uniform(-np.pi, np.pi, M_v))
    a_h = np.exp(1j * rng.uniform(-np.pi, np.pi, M_h))
    p_n = np.exp(1j * rng.uniform(-np.pi, np.pi, N))
    return y3, a_v, a_h, p_n


def cube_oracle(y3, a_v, a_h, p_n, c_v, c_h, c_n):
    """Literal six-deep loop over the moment definition."""
    out = np.zeros((3, 3, 3), dtype=complex)
    M_v, M_h, N = y3.shape
    for a in range(3):
        for b in range(3):
            for c in range(3):
                acc = 0.0 + 0.0j
                for v in range(M_v):
                    for h in range(M_h):
                        for n in range(N):
                            acc += (np.conj(y3[v, h, n]) * a_v[v] * a_h[h] * p_n[n]
                                    * (v - c_v) ** a * (h - c_h) ** b * (n - c_n) ** c)
                out[a, b, c] = acc
    return out


def test_kron3_matches_nested_kron():
    rng = np.random.default_rng(0)
    y3, a_v, a_h, p_n = random_inputs(rng)
    expect = np.kron(np.kron(a_v, a_h), p_n)
    np.testing.assert_allclose(_kernels.kron3(a_v, a_h, p_n), expect, rtol=1e-14)


def test_moment_cube_matches_loop_oracle():
    rng = np.random.default_rng(1)
    for trial in range(5):
        y3, a_v, a_h, p_n = random_inputs(rng)
        c_v, c_h, c_n = rng.uniform(0.0, 3.0, 3)
        oracle = cube_oracle(y3, a_v, a_h, p_n, c_v, c_h, c_n)
        got = _kernels.moment_cube(y3, a_v, a_h, p_n, c_v, c_h, c_n)
        np.testing.assert_allclose(got, oracle, rtol=1e-12, atol=1e-12)


def moment_cube_conj_copy(y3, a_v, a_h, p_n, c_v, c_h, c_n):
    """The contraction as first written: conj(y3) copied, then contracted."""
    M_v, M_h, N = y3.shape
    n = np.arange(N) - c_n
    pw = np.stack([p_n, p_n * n, p_n * n * n], axis=1)
    v = (y3.conj().reshape(M_v * M_h, N) @ pw).reshape(M_v, M_h, 3)
    h = np.arange(M_h) - c_h
    t = np.einsum("vhc,hb->vbc", v, np.stack([a_h, a_h * h, a_h * h * h], axis=1))
    m = np.arange(M_v) - c_v
    return np.einsum("vbc,va->abc", t, np.stack([a_v, a_v * m, a_v * m * m], axis=1))


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(1, 8), st.integers(1, 16), st.integers(1, 64)),
       st.integers(0, 2**32 - 1))
def test_moment_cube_matches_conjugated_copy_form(shape, seed):
    rng = np.random.default_rng(seed)
    y3, a_v, a_h, p_n = random_inputs(rng, shape)
    centers = tuple((np.array(shape) - 1) / 2.0)
    np.testing.assert_allclose(_kernels.moment_cube(y3, a_v, a_h, p_n, *centers),
                               moment_cube_conj_copy(y3, a_v, a_h, p_n, *centers),
                               rtol=1e-13)


def test_moment_cube_default_centers_zero():
    rng = np.random.default_rng(2)
    y3, a_v, a_h, p_n = random_inputs(rng)
    np.testing.assert_allclose(
        _kernels.moment_cube(y3, a_v, a_h, p_n),
        cube_oracle(y3, a_v, a_h, p_n, 0.0, 0.0, 0.0),
        rtol=1e-12, atol=1e-12,
    )


def test_plain_correlation_entry():
    rng = np.random.default_rng(3)
    y3, a_v, a_h, p_n = random_inputs(rng)
    cube = _kernels.moment_cube(y3, a_v, a_h, p_n, 1.0, 2.0, 0.5)
    atom = np.kron(np.kron(a_v, a_h), p_n)
    # W[0,0,0] ignores the centers entirely
    assert abs(cube[0, 0, 0] - np.vdot(y3.ravel(), atom)) < 1e-12
