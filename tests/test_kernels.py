"""Numeric kernels versus direct numpy oracles."""

import os
import pathlib
import subprocess
import sys

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fddrecon import _kernels

ROOT = pathlib.Path(__file__).resolve().parents[1]


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


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(1, 8), st.integers(1, 16), st.integers(1, 64)),
       st.integers(0, 2**32 - 1))
@example(shape=(2, 16, 42), seed=221737)
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


def test_moment_cube_from_prebuilt_weights_is_bit_equal():
    # a Newton visit builds the index weights once for this cube and its
    # cross-term cube; passed in, they give the cube the kernel builds
    rng = np.random.default_rng(4)
    y3, a_v, a_h, p_n = random_inputs(rng)
    centers = (1.0, 1.5, 2.0)
    weights = tuple(map(_kernels.index_weighted, (a_v, a_h, p_n), centers))
    np.testing.assert_array_equal(_kernels.moment_cube(y3, a_v, a_h, p_n, *centers, weights),
                                  _kernels.moment_cube(y3, a_v, a_h, p_n, *centers))


def test_plain_correlation_entry():
    rng = np.random.default_rng(3)
    y3, a_v, a_h, p_n = random_inputs(rng)
    cube = _kernels.moment_cube(y3, a_v, a_h, p_n, 1.0, 2.0, 0.5)
    atom = np.kron(np.kron(a_v, a_h), p_n)
    # W[0,0,0] ignores the centers entirely
    assert abs(cube[0, 0, 0] - np.vdot(y3.ravel(), atom)) < 1e-12


def run_kernel_benchmark(*args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_kernels.py"), *args],
        capture_output=True, text=True, env=env, timeout=120, check=False)


# one row per kernel a pinned workload calls; dropping one loses its timing
BENCHMARK_ROWS = [
    "moment_cube", "steering_factors", "delay_vector", "angle_grid", "channel_L6",
    "gain_fit_L8", "pilot_ls_L5", "stopping_statistic", "stop_test", "omp_detect", "refine_L5",
    "zf_sinr_256x10x128", "gram_inverse_32x10x10", "mc_32x10x128_D3",
]


def test_kernel_benchmark_script_runs():
    # the script imports enomp and _kernels names directly; an API change
    # there must fail here rather than in a benchmark run
    proc = run_kernel_benchmark("--repeats", "1")
    assert proc.returncode == 0, proc.stderr
    table = proc.stdout.split("\n\n")[1].splitlines()
    assert table[0].split() == ["kernel", "best"]
    assert [line.split()[0] for line in table[1:]] == BENCHMARK_ROWS
    assert "end-to-end extraction" in proc.stdout


def test_kernel_benchmark_rejects_nonpositive_repeats():
    proc = run_kernel_benchmark("--repeats", "0")
    assert proc.returncode == 2
    assert "--repeats must be at least 1" in proc.stderr
