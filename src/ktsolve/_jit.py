"""Backend selection for the numeric kernels.

Kernels are written as plain loops over float64 arrays so the same
function bodies run either under numba's nopython JIT or as ordinary
Python. Set ``KTS_PURE_NUMPY=1`` to force the interpreted path (useful
for debugging and for benchmarking the JIT speedup); it is also taken
automatically when numba is not importable.
"""

import os

PURE_NUMPY = os.environ.get("KTS_PURE_NUMPY", "").strip() in {"1", "true", "yes"}

if not PURE_NUMPY:
    try:
        from numba import njit as _njit
    except ImportError:  # numba is optional: fall back to the interpreted kernels
        PURE_NUMPY = True

if PURE_NUMPY:
    def njit(*args, **kwargs):
        # Identity decorator: keep the undecorated function.
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap
else:
    def njit(*args, **kwargs):
        kwargs.setdefault("cache", True)
        if args and callable(args[0]):
            return _njit(cache=True)(args[0])
        return _njit(*args, **kwargs)


def backend_name():
    return "pure-numpy" if PURE_NUMPY else "numba"
