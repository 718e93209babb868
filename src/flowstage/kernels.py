"""Kernel backend selection for the single-vector MLP pass.

``forward``/``backward`` evaluate the net on one input vector, from
either the compiled Cython extension or the numpy fallback.  Their only
callers are ``numerics.mlp_forward``/``mlp_backward``, and of the
program only ``flow_policy.velocity`` (so ``ode_path``/``ode_sample``)
goes through those; nothing in the program calls ``mlp_backward``.
Rollouts, the GRPO gradient and pretraining run the batched numpy pass
in ``numerics`` whatever the backend, so the choice below does not move
them.  The choice is made once at import time:

* ``FLOWSTAGE_KERNELS=cy``  require the compiled backend, fail if absent
* ``FLOWSTAGE_KERNELS=py``  force the pure-Python backend
* unset or ``auto``         compiled if available, else pure Python

Both backends compute the same arithmetic; floating-point results may
differ at rounding level because of summation order, so an ODE sample
at a fixed seed is bit-reproducible per backend, not across backends.
"""

from __future__ import annotations

import os

_choice = os.environ.get("FLOWSTAGE_KERNELS", "auto").lower()

if _choice not in ("auto", "py", "cy"):
    raise ImportError(f"FLOWSTAGE_KERNELS must be 'auto', 'py' or 'cy', got {_choice!r}")

if _choice == "py":
    from . import _mlp_np as _impl
elif _choice == "cy":
    from . import _mlp_cy as _impl  # type: ignore[no-redef]
else:
    try:
        from . import _mlp_cy as _impl  # type: ignore[no-redef]
    except ImportError:
        from . import _mlp_np as _impl

BACKEND: str = _impl.BACKEND
forward = _impl.forward
backward = _impl.backward
