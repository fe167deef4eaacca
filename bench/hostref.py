"""A fixed pure-Python workload that gauges how fast the host runs Python
right now.

Each CPU of the host this benchmark was written on changes speed on its
own, between two levels about 1.8 times apart, from one second to the
next. CPU time tracks wall time through those changes, so the change is in
the host, not in scheduling; run.py pins itself to one CPU so that this
loop and the timed work see the same one. `measure` does the same kind of
work as geodeform's inner loop: frozen dataclasses with a finiteness
check, float math, raised and caught exceptions, formatted dict keys and a
JSON dump. It depends on nothing in the package, so a change to geodeform
cannot change its time. Over two minutes of such drift, the ratio of a
`verify` pass to this loop spread 2.6% between windows, while the pass
alone spread 8.8%.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass

# Timings are scaled to a host that runs `measure` in this many seconds.
# A 2-core host took 45-95 ms.
NOMINAL_S = 0.08
LOOPS = 15000

# Set-up times are scaled to a host where a fresh interpreter that imports
# these standard modules takes this many seconds.  A 2-core host took
# 0.14-0.21 s.  Start-up and imports are more file and memory work than
# the loop below, and follow the host's speed less closely: over nine
# runs of twenty set-ups each, the median set-up scaled by this reference
# spread 2.4%, scaled by the loop 7.8%, and unscaled 28%.
IMPORTS = ("asyncio", "unittest", "decimal", "fractions", "statistics",
           "email.parser", "http.client", "xml.etree.ElementTree",
           "argparse", "json", "dataclasses", "logging", "tarfile")
IMPORTS_NOMINAL_S = 0.18


@dataclass(frozen=True)
class _P:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("non-finite point")


class _Rejected(Exception):
    pass


def _mid(p: _P, q: _P, k: float = 1.0) -> _P:
    if math.hypot(p.x - q.x, p.y - q.y) < 0.01:
        raise _Rejected
    return _P((p.x + q.x) * 0.5 * k, (p.y + q.y) * 0.5)


def factor(before: float, after: float, loops: int = LOOPS) -> float:
    """What to multiply a time by that was taken between two `measure`
    calls of `loops` rounds, to scale it to the nominal host."""
    return 2.0 * NOMINAL_S * loops / LOOPS / (before + after)


def measure(loops: int = LOOPS) -> float:
    """Seconds the fixed workload takes now."""
    start = time.perf_counter()
    table = {}
    for i in range(loops):
        a = _P(math.sin(i), math.cos(i))
        b = _P(math.cos(i * 0.5), math.sin(i * 0.3))
        try:
            m = _mid(a, b, k=1.0)
        except _Rejected:
            continue
        table[f"k{i & 63}"] = (m.x, m.y)
    json.dumps(table)
    return time.perf_counter() - start


def measure_imports(cwd) -> float:
    """Seconds a fresh interpreter takes to import IMPORTS now.  It runs
    isolated (-I) and writes no bytecode (-B), so nothing outside the
    standard library changes what it does."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-B", "-c",
                    "import " + ", ".join(IMPORTS)],
                   cwd=cwd, check=True, timeout=60)
    return time.perf_counter() - start
