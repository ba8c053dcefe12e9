"""Select the kernel backend at import time.

Preference order: the compiled extension if it imported cleanly, else the
pure-Python fallback.  ``LOGLADDER_BACKEND=python`` or ``=compiled`` forces
one side (forcing the compiled side raises if the build is absent, rather
than silently benchmarking the wrong thing).  The pure-Python module is
imported only when it is the one selected.
"""

import os

_forced = os.environ.get("LOGLADDER_BACKEND", "").strip().lower()

if _forced == "python":
    from . import _kernels_py as kernels
elif _forced == "compiled":
    from . import _kernels as kernels  # ImportError here is intentional
elif _forced:
    raise ValueError(
        f"LOGLADDER_BACKEND must be 'python' or 'compiled', not {_forced!r}")
else:
    try:
        from . import _kernels as kernels
    except ImportError:
        from . import _kernels_py as kernels


def backend_name():
    """'compiled' when the extension is active, else 'python'."""
    if kernels.__name__ == __package__ + "._kernels_py":
        return "python"
    return "compiled"
