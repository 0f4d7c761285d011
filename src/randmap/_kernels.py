"""Kernel backend selection: compiled core if importable, NumPy otherwise.

Set RANDMAP_FORCE_FALLBACK=1 to insist on the NumPy kernels even when the
compiled core is built; the benchmark records the variable in its provenance.
"""

from __future__ import annotations

import os

if os.environ.get("RANDMAP_FORCE_FALLBACK"):
    from . import _fallback as _impl
else:
    try:
        from . import _core as _impl  # type: ignore[attr-defined]
    except ImportError:
        from . import _fallback as _impl

BACKEND: str = _impl.BACKEND
batch_stats = _impl.batch_stats
analyze_arrays = _impl.analyze_arrays
enumerate_tally = _impl.enumerate_tally
