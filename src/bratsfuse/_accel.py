"""Numba on/off switch for the hot kernels.

The accelerated kernel flavour is used whenever numba imports successfully,
unless the environment variable ``BRATSFUSE_DISABLE_NUMBA`` is set to
``1``/``true``/``yes``/``on``, in which case the pure-numpy fallback path is
selected. The flag is read once at import time.
"""

import os

ENV_FLAG = "BRATSFUSE_DISABLE_NUMBA"


def _disabled_by_env() -> bool:
    return os.environ.get(ENV_FLAG, "").strip().lower() in {"1", "true", "yes", "on"}


NUMBA_ENABLED = False
if not _disabled_by_env():
    try:
        from numba import njit  # noqa: F401
        NUMBA_ENABLED = True
    except ImportError:  # numba is the optional ``accel`` extra
        NUMBA_ENABLED = False

if not NUMBA_ENABLED:
    def njit(*args, **kwargs):  # type: ignore[misc]
        """No-op stand-in so kernel sources import without numba."""
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap
