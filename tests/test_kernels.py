"""Numeric kernels versus the slow references and bit-for-bit twins."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from fddrecon import _kernels


def random_inputs(rng, shape=(3, 4, 5)):
    M_v, M_h, N = shape
    y3 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a_v = np.exp(1j * rng.uniform(-np.pi, np.pi, M_v))
    a_h = np.exp(1j * rng.uniform(-np.pi, np.pi, M_h))
    p_n = np.exp(1j * rng.uniform(-np.pi, np.pi, N))
    return y3, a_v, a_h, p_n


def weighted(factors, centres):
    """The kernel's weights: `index_weighted` of each factor at its centre."""
    return tuple(map(_kernels.index_weighted, factors, centres))


def delay_row(y3, p_n):
    """The kernel's `row`: the unweighted delay sum y2 @ conj(p_n)."""
    return y3.reshape(-1, len(p_n)) @ p_n.conj()


def cube(y3, factors, centres):
    """`moment_cube` of y3 against the atom of `factors`, given its row."""
    return _kernels.moment_cube(y3, *weighted(factors, centres), delay_row(y3, factors[2]))


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
        oracle = reference.moment_cube(y3, a_v, a_h, p_n, c_v, c_h, c_n)
        got = cube(y3, (a_v, a_h, p_n), (c_v, c_h, c_n))
        np.testing.assert_allclose(got, oracle, rtol=1e-12, atol=1e-12)


def conj_copy_weights(x, c):
    """Rows x, x * i, x * i^2 for the centred index i: shape (3, len(x))."""
    i = np.arange(len(x)) - c
    return np.stack([x, x * i, x * i * i])


def moment_cube_conj_copy(y3, a_v, a_h, p_n, c_v, c_h, c_n):
    """The kernel's contraction on a conjugated copy: conj(y3) is copied and
    contracted against the weights as they are, where the kernel contracts
    y3 against the conjugated weights and conjugates the (3, M) result. The
    stages and their summation order are the kernel's, so the two forms give
    the same numbers; a form that sums in another order (one (M, N) @ (N, 3)
    product, einsum stages) rounds apart by more than 1e-13 relative on an
    entry that cancels, such as W[0,0,0] = 0.03 from 1344 terms of size 1."""
    M_v, M_h, N = y3.shape
    yc = y3.conj().reshape(M_v * M_h, N)
    v = np.stack([yc @ w for w in conj_copy_weights(p_n, c_n)])  # (3, M)
    t = (v.reshape(3 * M_v, M_h) @ conj_copy_weights(a_h, c_h).T).reshape(3, M_v, 3)
    t = t.transpose(1, 0, 2).reshape(M_v, 9)
    return (conj_copy_weights(a_v, c_v) @ t).reshape(3, 3, 3).transpose(0, 2, 1)


@settings(max_examples=60)
@given(st.tuples(st.integers(1, 8), st.integers(1, 16), st.integers(1, 64)),
       st.integers(0, 2**32 - 1))
@example(shape=(2, 16, 42), seed=221737)
def test_moment_cube_matches_conjugated_copy_form(shape, seed):
    rng = np.random.default_rng(seed)
    y3, a_v, a_h, p_n = random_inputs(rng, shape)
    centers = tuple((np.array(shape) - 1) / 2.0)
    np.testing.assert_allclose(cube(y3, (a_v, a_h, p_n), centers),
                               moment_cube_conj_copy(y3, a_v, a_h, p_n, *centers),
                               rtol=1e-13)


def test_moment_cube_default_centers_zero():
    rng = np.random.default_rng(2)
    y3, a_v, a_h, p_n = random_inputs(rng)
    np.testing.assert_allclose(
        cube(y3, (a_v, a_h, p_n), (0.0, 0.0, 0.0)),
        reference.moment_cube(y3, a_v, a_h, p_n, 0.0, 0.0, 0.0),
        rtol=1e-12, atol=1e-12,
    )


def test_moment_cube_reads_the_kept_row():
    # a row kept for another delay factor gives another cube than the row
    # of p_n: the kernel uses the row it is given rather than recomputing it
    rng = np.random.default_rng(6)
    y3, a_v, a_h, p_n = random_inputs(rng)
    other = np.exp(1j * rng.uniform(-np.pi, np.pi, len(p_n)))
    weights = weighted((a_v, a_h, p_n), (1.0, 1.5, 2.0))
    kept = _kernels.moment_cube(y3, *weights, delay_row(y3, other))
    assert not np.array_equal(kept, _kernels.moment_cube(y3, *weights, delay_row(y3, p_n)))


def test_plain_correlation_entry():
    rng = np.random.default_rng(3)
    y3, a_v, a_h, p_n = random_inputs(rng)
    w = cube(y3, (a_v, a_h, p_n), (1.0, 2.0, 0.5))
    atom = np.kron(np.kron(a_v, a_h), p_n)
    # W[0,0,0] ignores the centers entirely
    assert abs(w[0, 0, 0] - np.vdot(y3.ravel(), atom)) < 1e-12

