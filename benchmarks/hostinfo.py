"""Host provenance header shared by every pinned-JSON bench writer.

Wall-clock numbers are only interpretable next to the host that produced
them: a 1-core container cannot show parallel speedup.  Every
``BENCH_*.json`` embeds this header so the pinned numbers stay honest.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
from typing import Any, Dict


def host_header() -> Dict[str, Any]:
    try:
        import numpy
    except ImportError:
        numpy_version = None
    else:
        numpy_version = numpy.__version__
    # Load average and CPU affinity make 1-core vs multi-core (and busy vs
    # idle) hosts self-describing: a "no speedup" number next to
    # cpus_available=1 or load_avg_1m=8.0 explains itself.  Both are
    # best-effort -- absent on platforms without the syscalls.
    try:
        load_1m, load_5m, load_15m = os.getloadavg()
        load_avg = {"1m": load_1m, "5m": load_5m, "15m": load_15m}
    except (AttributeError, OSError):
        load_avg = None
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = None
    return {
        "cpus": os.cpu_count(),
        "cpus_available": len(affinity) if affinity is not None else None,
        "cpu_affinity": affinity,
        "load_avg": load_avg,
        "start_method": (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else multiprocessing.get_start_method(allow_none=True)
        ),
        "numpy": numpy_version,
        "python": platform.python_version(),
    }
