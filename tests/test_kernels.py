"""Backend kernels versus direct numpy oracles, plus backend selection."""

import os
import subprocess
import sys

import numpy as np
import pytest
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
    np.testing.assert_allclose(_kernels.kron3_numpy(a_v, a_h, p_n), expect, rtol=1e-14)
    np.testing.assert_allclose(_kernels.kron3(a_v, a_h, p_n), expect, rtol=1e-14)


def test_moment_cube_matches_loop_oracle():
    rng = np.random.default_rng(1)
    for trial in range(5):
        y3, a_v, a_h, p_n = random_inputs(rng)
        c_v, c_h, c_n = rng.uniform(0.0, 3.0, 3)
        oracle = cube_oracle(y3, a_v, a_h, p_n, c_v, c_h, c_n)
        got = _kernels.moment_cube_numpy(y3, a_v, a_h, p_n, c_v, c_h, c_n)
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
    np.testing.assert_allclose(_kernels.moment_cube_numpy(y3, a_v, a_h, p_n, *centers),
                               moment_cube_conj_copy(y3, a_v, a_h, p_n, *centers),
                               rtol=1e-13)


def test_moment_cube_default_centers_zero():
    rng = np.random.default_rng(2)
    y3, a_v, a_h, p_n = random_inputs(rng)
    np.testing.assert_allclose(
        _kernels.moment_cube_numpy(y3, a_v, a_h, p_n),
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


@pytest.mark.skipif(not _kernels._HAVE_NUMBA, reason="numba not active")
def test_numba_matches_numpy():
    rng = np.random.default_rng(4)
    for trial in range(3):
        y3, a_v, a_h, p_n = random_inputs(rng, shape=(4, 6, 8))
        c_v, c_h, c_n = rng.uniform(0.0, 4.0, 3)
        np.testing.assert_allclose(
            _kernels.moment_cube_numba(y3, a_v, a_h, p_n, c_v, c_h, c_n),
            _kernels.moment_cube_numpy(y3, a_v, a_h, p_n, c_v, c_h, c_n),
            rtol=1e-11, atol=1e-11,
        )
        np.testing.assert_allclose(
            _kernels.kron3_numba(a_v, a_h, p_n),
            _kernels.kron3_numpy(a_v, a_h, p_n),
            rtol=1e-14,
        )


def _backend_in_subprocess(flag):
    env = dict(os.environ)
    env["FDDRECON_NUMBA"] = flag
    out = subprocess.run(
        [sys.executable, "-c", "from fddrecon import _kernels; print(_kernels.BACKEND)"],
        env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


def test_env_flag_forces_numpy():
    assert _backend_in_subprocess("0") == "numpy"
    assert _backend_in_subprocess("off") == "numpy"


@pytest.mark.skipif(not _kernels._HAVE_NUMBA, reason="numba not active")
def test_env_flag_require_numba():
    assert _backend_in_subprocess("require") == "numba"


def test_extraction_identical_across_backends():
    """End-to-end check that the backend only affects speed, not results."""
    script = (
        "import numpy as np\n"
        "from fddrecon.sysmodel import SystemConfig, generate_scenario, "
        "sounding_observation\n"
        "from fddrecon.enomp import extract\n"
        "cfg = SystemConfig(M_v=4, M_h=4, N=32)\n"
        "sc = generate_scenario(1, 3, cfg, seed=5)\n"
        "y = sounding_observation(sc.users[0], cfg, 6)\n"
        "res = extract(y, cfg)\n"
        "for p in res.paths:\n"
        "    print(repr((complex(p.gain), p.theta, p.phi, p.tau)))\n"
    )
    outputs = {}
    for flag in ("0", "auto"):
        env = dict(os.environ)
        env["FDDRECON_NUMBA"] = flag
        r = subprocess.run([sys.executable, "-c", script],
                           env=env, capture_output=True, text=True, check=True)
        outputs[flag] = r.stdout
    # both backends accumulate in different orders; allow float-level slack
    lines0 = outputs["0"].strip().splitlines()
    lines1 = outputs["auto"].strip().splitlines()
    assert len(lines0) == len(lines1)
    for l0, l1 in zip(lines0, lines1):
        g0, t0, p0, d0 = eval(l0)
        g1, t1, p1, d1 = eval(l1)
        assert abs(g0 - g1) <= 1e-8 * max(1.0, abs(g0))
        assert abs(t0 - t1) <= 1e-8
        assert abs(p0 - p1) <= 1e-8
        assert abs(d0 - d1) <= 1e-12  # seconds; ~1e-7 of the delay scale
