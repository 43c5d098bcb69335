"""The pinned floating-point dispatch for tests that compare exact bits.

Which SIMD loops numpy picks and which OpenBLAS kernel runs depend on the
CPU, and they round differently (an AVX-512 loop or an FMA kernel against a
plain multiply-add), so digests of CLI outputs and bit-for-bit comparisons
with per-month reference loops only hold under one fixed dispatch. A test
marked ``pinned_dispatch`` therefore runs in a child interpreter with numpy
capped at its X86_V3 (AVX2) paths and OpenBLAS on its Haswell kernels. A host
without X86_V3 fails those tests with a message; they are never skipped.
"""

import os
import subprocess
import sys

import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

PINNED_DISPATCH = {"numpy_cpu_cap": "X86_V3", "OPENBLAS_CORETYPE": "Haswell"}
CHILD_TIMEOUT_S = 1800


def pinned_dispatch_env():
    """The environment for a child interpreter under the pinned dispatch, or
    None when this process already runs under it.

    Every numpy dispatch target above the cap that this CPU supports goes into
    ``NPY_DISABLE_CPU_FEATURES``, as ``numpy.show_runtime()`` lists them under
    "found". Raises RuntimeError on a CPU without the cap, and when numpy
    still uses a target this process asked it to disable, so that a child
    never starts another child.
    """
    cap = PINNED_DISPATCH["numpy_cpu_cap"]
    targets = list(__cpu_dispatch__)
    if not __cpu_features__.get(cap):
        found = [f for f in targets if __cpu_features__.get(f)]
        raise RuntimeError(
            f"the pinned dispatch needs a CPU with numpy's {cap} paths; "
            f"numpy found only {found} among its dispatch targets {targets}"
        )
    first_above = targets.index(cap) + 1 if cap in targets else 0
    above = [f for f in targets[first_above:] if __cpu_features__[f]]
    disabled = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split()
    if set(above) & set(disabled):
        raise RuntimeError(f"numpy still uses {above} under NPY_DISABLE_CPU_FEATURES={disabled}")
    coretype = PINNED_DISPATCH["OPENBLAS_CORETYPE"]
    if not above and os.environ.get("OPENBLAS_CORETYPE") == coretype:
        return None
    return {
        **os.environ,
        "NPY_DISABLE_CPU_FEATURES": " ".join(disabled + above),
        "OPENBLAS_CORETYPE": coretype,
    }


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "pinned_dispatch: compares exact bits, so runs in a child interpreter with numpy "
        "capped at X86_V3 and OpenBLAS on its Haswell kernels",
    )


@pytest.hookimpl(tryfirst=True)
def pytest_pyfunc_call(pyfuncitem):
    if pyfuncitem.get_closest_marker("pinned_dispatch") is None:
        return None
    try:
        env = pinned_dispatch_env()
    except RuntimeError as exc:
        pytest.fail(str(exc), pytrace=False)
    if env is None:
        return None  # already pinned: run the test here
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", pyfuncitem.nodeid]
    proc = subprocess.run(
        argv,
        cwd=pyfuncitem.config.rootpath,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        pytest.fail(
            f"failed under the pinned dispatch {PINNED_DISPATCH} (NPY_DISABLE_CPU_FEATURES="
            f"{env['NPY_DISABLE_CPU_FEATURES']!r}):\n{proc.stdout}{proc.stderr}",
            pytrace=False,
        )
    return True
