"""The timing protocol: drift-corrected slices, best of K for the rest.

The bench host's speed wanders by tens of percent in phases of 5-30 s
(``time.process_time`` wanders with it, so it is CPU speed and not
preemption).  A wall-clock number taken inside one phase says more
about the phase than about the code.  Two estimators survive that:

* **Slices.**  A slice is one call, or a fixed small batch of calls,
  into a layer's public function on fixed input, 0.05-0.5 s long.  A
  fixed reference kernel (:func:`ref_kernel`, ~10 ms of dict, str and
  sort work that imports nothing from ``repro``) runs once before the
  first slice and once after every slice, and a slice's time is scaled
  by how slow the kernel ran around it::

      corrected = raw * REF_NOMINAL_S / mean(kernel_before, kernel_after)

  The slices of all of a workload's wall-clock metrics are interleaved
  round-robin over one timed phase (:func:`timed_phase`), so each
  metric samples the whole phase, and a metric is
  ``work_per_slice / median(corrected)``.
* **Best of K.**  A call too long to bracket (a chain build) runs K
  times raw and ``run.py`` reports the fastest: the minimum of a
  handful of runs sits on the host's fast phase far more steadily than
  their median does.

Every estimate carries its diagnostics - the raw median beside the
corrected one, the drift range seen, the slice count, and how far the
medians of the odd and the even slices disagree - which are printed
but are not metrics.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

# The kernel's fastest-decile time on the authoring host, frozen: the
# unit every corrected time is expressed in.  Changing it rescales
# every wall-clock metric, so it only changes together with a
# re-measured baseline.
REF_NOMINAL_S = 0.0088

_KERNEL_ITEMS = 20000


def ref_kernel() -> float:
    """Run the fixed reference workload once; return its seconds."""
    started = time.perf_counter()
    table: dict[str, int] = {}
    for index in range(_KERNEL_ITEMS):
        key = f"k{(index * 7919) % 1013:04d}"
        table[key] = table.get(key, 0) + index
    ordered = sorted(table.items(), key=lambda item: (item[1], item[0]))
    text = "|".join(f"{key}:{value}" for key, value in ordered[:400])
    parts = text.split("|")
    parts.sort(reverse=True)
    if len(parts) != 400:  # keeps the work observable
        raise AssertionError("reference kernel changed its output")
    return time.perf_counter() - started


@dataclass
class SliceSeries:
    """The slices of one metric: raw times, brackets, work done."""

    name: str
    work: float                      # units of work in one slice
    raw: list[float] = field(default_factory=list)
    kernel: list[float] = field(default_factory=list)   # mean bracket

    def add(self, raw: float, before: float, after: float) -> None:
        self.raw.append(raw)
        self.kernel.append((before + after) / 2.0)

    @property
    def corrected(self) -> list[float]:
        return [
            raw * REF_NOMINAL_S / kernel
            for raw, kernel in zip(self.raw, self.kernel)
        ]

    def rate(self) -> float:
        """Work per second of drift-corrected time."""
        return self.work / statistics.median(self.corrected)

    def diagnostics(self) -> dict:
        corrected = self.corrected
        drift = [kernel / REF_NOMINAL_S for kernel in self.kernel]
        odd = statistics.median(corrected[1::2] or corrected)
        even = statistics.median(corrected[0::2])
        return {
            "slices": len(corrected),
            "raw_median_s": statistics.median(self.raw),
            "corrected_median_s": statistics.median(corrected),
            "raw_rate": self.work / statistics.median(self.raw),
            "drift_min": min(drift),
            "drift_max": max(drift),
            "odd_even_gap": abs(odd - even) / statistics.median(corrected),
        }


def timed_phase(
    slices: list[tuple[SliceSeries, Callable[[], object]]],
    *,
    seconds: float,
    min_rounds: int,
) -> None:
    """Interleave every series' slices round-robin for *seconds*.

    At least *min_rounds* rounds run, however slow the host; past that
    the phase ends at the first round boundary after *seconds*.  Each
    slice is bracketed by the kernel run that ended the previous slice
    and the one that follows it.  A call that returns a number has
    timed itself (processor seconds of the part that counts, say) and
    that is booked; otherwise the call's wall time is.
    """
    started = time.perf_counter()
    rounds = 0
    before = ref_kernel()
    while rounds < min_rounds or time.perf_counter() - started < seconds:
        for series, call in slices:
            t0 = time.perf_counter()
            booked = call()
            raw = time.perf_counter() - t0
            after = ref_kernel()
            series.add(raw if booked is None else booked, before, after)
            before = after
        rounds += 1


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of *values* (which need not be sorted)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]
