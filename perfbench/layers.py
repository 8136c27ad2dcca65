"""Charge ``cProfile`` self time to the simulator's layers.

A function belongs to the layer of the ``repro`` package its file is in:
``sim``, ``osim`` (without the segment driver), ``segdriver``
(``repro/osim/segdriver.py``), ``am``, ``nic``, ``myrinet``, ``hw`` and
``lib``.  The rest of ``repro`` (``cluster``, ``apps``, ``bench``, ...) and
the benchmark's own files are ``other``.

C functions (heapq, generator ``send``, the builtins) and standard-library
Python code belong to no layer.  Their self time is charged to the layers
of their callers, in proportion to the time each caller spent in them, and
through a chain of such functions back to the first caller that has a
layer.
"""

from __future__ import annotations

import os
import pstats
from typing import Optional

import repro

LAYERS = ("sim", "osim", "segdriver", "am", "nic", "myrinet", "hw", "lib", "other")

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__))
_SEP = os.sep


def layer_of_file(filename: str) -> Optional[str]:
    """The layer that owns ``filename``, or None for C and foreign code."""
    if filename.startswith(_BENCH_DIR + _SEP):
        return "other"
    if not filename.startswith(_REPRO_DIR + _SEP):
        return None
    parts = filename[len(_REPRO_DIR) + 1:].split(_SEP)
    if parts[:2] == ["osim", "segdriver.py"]:
        return "segdriver"
    if len(parts) > 1 and parts[0] in LAYERS:
        return parts[0]
    return "other"


def self_time_by_layer(stats: pstats.Stats) -> dict[str, float]:
    """Seconds of self time per layer (every layer present, maybe 0.0)."""
    table = stats.stats  # func -> (cc, nc, tt, ct, callers)
    shares: dict = {}

    def share(func, visiting: frozenset) -> dict[str, float]:
        if func in shares:
            return shares[func]
        layer = layer_of_file(func[0])
        if layer is not None:
            return {layer: 1.0}
        callers = table[func][4] if func in table else {}
        # callers: caller func -> (nc, cc, tt, ct) for this edge
        weights = {c: e[2] for c, e in callers.items() if c not in visiting}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: e[0] for c, e in callers.items() if c not in visiting}
            total = sum(weights.values())
        out: dict[str, float] = {}
        if total <= 0:
            out = {"other": 1.0}
        else:
            inner = visiting | {func}
            for c, w in weights.items():
                for lay, part in share(c, inner).items():
                    out[lay] = out.get(lay, 0.0) + part * w / total
        if not visiting:
            shares[func] = out
        return out

    by_layer = dict.fromkeys(LAYERS, 0.0)
    for func, (_cc, _nc, tt, _ct, _callers) in table.items():
        for lay, part in share(func, frozenset()).items():
            by_layer[lay] += tt * part
    return by_layer


def call_count(stats: pstats.Stats, filename_suffix: str, funcname: str) -> int:
    """Calls of one function; a generator counts once per resume."""
    suffix = filename_suffix.replace("/", _SEP)
    return sum(
        nc for (fn, _line, name), (_cc, nc, _tt, _ct, _callers) in stats.stats.items()
        if name == funcname and fn.endswith(suffix)
    )
