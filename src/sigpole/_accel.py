"""Kernel backend name.

The numpy kernel in ``quadrature`` is the only kernel.  This module exists
only for the machine record of ``perfbench/run.py``, which names the
backend; nothing in the package calls it.
"""


def backend_name() -> str:
    return "numpy"
