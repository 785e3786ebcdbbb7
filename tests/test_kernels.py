"""Numeric kernels: reference values and JIT/pure-python backend parity.

The bit-identity comparison between the numba and pure-python backends
needs numba; where numba cannot be imported it is skipped, because both
sides would then run the same pure-python code.
"""

import importlib.util
import os
import subprocess
import sys

import numpy as np
import numpy.polynomial.chebyshev as npcheb
import numpy.polynomial.polynomial as nppoly
import pytest
from helpers import package_root
from scipy.special import comb

from ktsolve import kernels
from ktsolve._jit import backend_name

# Deterministic battery over every kernel; prints one digest line. Run in
# fresh interpreters under both backends to check bit-identical results;
# that comparison needs numba and is skipped where numba cannot be imported.
BATTERY = r"""
import hashlib
import numpy as np
from ktsolve import kernels
from ktsolve._jit import backend_name

rng = np.random.default_rng(2024)
h = hashlib.sha256()
for trial in range(20):
    n1 = int(rng.integers(1, 8))
    k = int(rng.integers(1, 4))
    c = np.ascontiguousarray(rng.standard_normal((n1, k)))
    t = float(rng.uniform(-1.2, 1.2))
    a = float(rng.uniform(-1.0, 1.0))
    b = float(rng.uniform(-1.0, 1.0))
    h.update(kernels.horner_cols(c, t).tobytes())
    h.update(kernels.decasteljau_cols(c, t).tobytes())
    h.update(kernels.clenshaw_cols(c, t).tobytes())
    h.update(kernels.power_affine_cols(c, a, b).tobytes())
    h.update(kernels.cheb_affine_rows(n1 - 1, a, b).tobytes())
    m = np.ascontiguousarray(rng.standard_normal((n1, n1)))
    h.update(kernels.mat_apply_cols(m, c).tobytes())
    h.update(kernels.mat_t_apply_cols(m, c).tobytes())
    h.update(
        kernels.bernstein_patch_matrix(
            n1 - 1, float(rng.uniform(0, 1)), float(rng.uniform(0, 1)),
            float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
        ).tobytes()
    )
    gens = np.ascontiguousarray(rng.standard_normal((int(rng.integers(1, 6)), 2)))
    inside = kernels.zonotope_origin_inside(
        float(rng.standard_normal()), float(rng.standard_normal()), gens, 1e-12
    )
    h.update(b"1" if inside else b"0")
    h.update(kernels.abs_sum_tail_cols(c).tobytes())
print(backend_name(), h.hexdigest())
"""


def run_battery(pure):
    env = {**os.environ, "PYTHONPATH": package_root()}
    if pure:
        env["KTS_PURE_NUMPY"] = "1"
    else:
        env.pop("KTS_PURE_NUMPY", None)
    proc = subprocess.run(
        [sys.executable, "-c", BATTERY], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


class TestKernelValues:
    def test_horner_matches_polyval(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c = rng.standard_normal((int(rng.integers(1, 9)), 2))
            t = float(rng.uniform(-2, 2))
            got = kernels.horner_cols(np.ascontiguousarray(c), t)
            want = nppoly.polyval(t, c)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_decasteljau_matches_bernstein_sum(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(0, 8))
            c = rng.standard_normal((n + 1, 2))
            t = float(rng.uniform(-0.2, 1.2))
            weights = np.array(
                [comb(n, i) * t**i * (1 - t) ** (n - i) for i in range(n + 1)]
            )
            got = kernels.decasteljau_cols(np.ascontiguousarray(c), t)
            assert np.allclose(got, weights @ c, rtol=1e-10, atol=1e-10)

    def test_clenshaw_matches_chebval(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            c = rng.standard_normal((int(rng.integers(1, 9)), 2))
            t = float(rng.uniform(-1, 1))
            got = kernels.clenshaw_cols(np.ascontiguousarray(c), t)
            assert np.allclose(got, npcheb.chebval(t, c), rtol=1e-12, atol=1e-12)

    def test_power_affine_is_exact_composition(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            c = rng.standard_normal((int(rng.integers(1, 8)), 1))
            a, b = rng.uniform(-1.5, 1.5, size=2)
            out = kernels.power_affine_cols(np.ascontiguousarray(c), a, b)
            for t in rng.uniform(-1, 1, size=5):
                want = nppoly.polyval(a * t + b, c[:, 0])
                got = nppoly.polyval(t, out[:, 0])
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_power_affine_identity(self):
        c = np.array([[1.0], [-2.0], [3.0]])
        out = kernels.power_affine_cols(c, 1.0, 0.0)
        assert np.array_equal(out, c)

    def test_cheb_affine_rows_by_substitution(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            a, b = rng.uniform(-0.5, 0.5, size=2)
            lam = kernels.cheb_affine_rows(n, a, b)
            ts = rng.uniform(-1, 1, size=7)
            for i in range(n + 1):
                direct = npcheb.chebval(a * ts + b, [0.0] * i + [1.0])
                via_rows = npcheb.chebval(ts, lam[i])
                assert np.allclose(via_rows, direct, rtol=1e-11, atol=1e-11)

    def test_mat_apply_matches_matmul(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 6))
        c = rng.standard_normal((6, 3))
        got = kernels.mat_apply_cols(
            np.ascontiguousarray(m), np.ascontiguousarray(c)
        )
        assert np.allclose(got, m @ c, rtol=1e-13, atol=1e-13)
        got_t = kernels.mat_t_apply_cols(
            np.ascontiguousarray(rng.standard_normal((6, 4))), np.ascontiguousarray(c)
        )
        assert got_t.shape == (4, 3)

    def test_bernstein_patch_identity(self):
        """The full-square patch (lo=0, hi=1) reproduces every control row."""
        for n in range(0, 6):
            m = kernels.bernstein_patch_matrix(n, 1.0, 0.0, 0.0, 1.0)
            assert np.allclose(m, np.eye(n + 1), atol=1e-14)

    def test_bernstein_patch_matches_composition(self):
        """Columns expand (p u + q(1-u))^i (e u + f(1-u))^(n-i) over u^k (1-u)^(n-k)."""
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            p, q, e, f = rng.uniform(-1, 1, size=4)
            m = kernels.bernstein_patch_matrix(n, p, q, e, f)
            for u in rng.uniform(0, 1, size=5):
                monos = np.array([u**k * (1 - u) ** (n - k) for k in range(n + 1)])
                for i in range(n + 1):
                    direct = (p * u + q * (1 - u)) ** i * (e * u + f * (1 - u)) ** (
                        n - i
                    )
                    assert abs(monos @ m[:, i] - direct) <= 1e-12

    def test_zonotope_membership_cases(self):
        unit = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert kernels.zonotope_origin_inside(0.5, -0.5, unit, 0.0)
        assert not kernels.zonotope_origin_inside(1.5, 0.0, unit, 0.0)
        assert kernels.zonotope_origin_inside(1.0, 1.0, unit, 0.0)  # corner
        segment = np.array([[1.0, 1.0]])
        assert kernels.zonotope_origin_inside(0.5, 0.5, segment, 1e-12)
        assert not kernels.zonotope_origin_inside(0.5, 0.4, segment, 1e-12)
        empty = np.zeros((0, 2))
        assert kernels.zonotope_origin_inside(0.0, 0.0, empty, 0.0)
        assert not kernels.zonotope_origin_inside(1e-9, 0.0, empty, 0.0)

    def test_abs_sum_tail(self):
        c = np.array([[1.0, -1.0], [2.0, 0.5], [-3.0, 0.25]])
        assert np.array_equal(kernels.abs_sum_tail_cols(c), [5.0, 0.75])

    def test_warmup_runs(self):
        kernels.warmup()


class TestBackendParity:
    def test_backend_name_reflects_env(self):
        code = "from ktsolve._jit import backend_name; print(backend_name())"
        env = {**os.environ, "PYTHONPATH": package_root()}
        env["KTS_PURE_NUMPY"] = "1"
        pure = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert pure.stdout.strip() == "pure-numpy"
        env.pop("KTS_PURE_NUMPY")
        default = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        # Unforced, the JIT is used exactly when numba is importable.
        has_numba = importlib.util.find_spec("numba") is not None
        assert default.stdout.strip() == ("numba" if has_numba else "pure-numpy")

    def test_backends_bit_identical(self):
        """Both backends produce the same bytes over a randomized battery."""
        pytest.importorskip("numba")
        name_jit, digest_jit = run_battery(pure=False)
        name_pure, digest_pure = run_battery(pure=True)
        assert name_jit == "numba"
        assert name_pure == "pure-numpy"
        assert digest_jit == digest_pure

    def test_in_process_backend(self):
        assert backend_name() in ("numba", "pure-numpy")
