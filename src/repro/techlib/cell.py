"""Standard-cell timing models.

A cell is characterised the way a liberty (``.lib``) file would: per
input→output *timing arc*, a non-linear delay model (NLDM) lookup table
gives the arc delay and output slew as a function of input slew and output
load capacitance.  We implement the tables with bilinear interpolation and
clamped extrapolation, which is what signoff STA engines do.

Units used throughout the reproduction:

- time: nanoseconds (ns)
- capacitance: picofarads (pF)
- resistance: kiloohms (kOhm), so R*C is ns
- distance: micrometres (um)
- area: square micrometres (um^2)
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


class TimingTable:
    """A 2D NLDM lookup table ``value(input_slew, load_cap)``.

    Parameters
    ----------
    slew_axis:
        Monotonically increasing input-slew breakpoints (ns).
    load_axis:
        Monotonically increasing load-capacitance breakpoints (pF).
    values:
        Table of shape ``(len(slew_axis), len(load_axis))``.
    """

    def __init__(self, slew_axis: Sequence[float], load_axis: Sequence[float],
                 values: np.ndarray) -> None:
        # Private read-only copies: the scalar lookup path works on list
        # mirrors of these arrays, which must never go stale.
        self.slew_axis = np.array(slew_axis, dtype=float)
        self.load_axis = np.array(load_axis, dtype=float)
        self.values = np.array(values, dtype=float)
        if self.values.shape != (self.slew_axis.size, self.load_axis.size):
            raise ValueError(
                f"table shape {self.values.shape} does not match axes "
                f"({self.slew_axis.size}, {self.load_axis.size})"
            )
        if np.any(np.diff(self.slew_axis) <= 0) or np.any(np.diff(self.load_axis) <= 0):
            raise ValueError("table axes must be strictly increasing")
        for array in (self.slew_axis, self.load_axis, self.values):
            array.setflags(write=False)
        self._slews = self.slew_axis.tolist()
        self._loads = self.load_axis.tolist()
        self._rows = self.values.tolist()

    def lookup(self, slew, load):
        """Bilinear interpolation; inputs outside the grid are clamped.

        Accepts scalars or same-shaped arrays and broadcasts.  Two Python
        numbers (``np.float64`` is a ``float``) take a pure-Python path
        that returns a ``float`` bit-identical to the array path; STA
        calls it once per timing arc, where numpy's per-call overhead on
        0-d values would dominate.
        """
        if isinstance(slew, (float, int)) and isinstance(load, (float, int)):
            return self._lookup_scalar(float(slew), float(load))
        slew = np.clip(np.asarray(slew, dtype=float),
                       self.slew_axis[0], self.slew_axis[-1])
        load = np.clip(np.asarray(load, dtype=float),
                       self.load_axis[0], self.load_axis[-1])

        i = np.clip(np.searchsorted(self.slew_axis, slew) - 1, 0,
                    self.slew_axis.size - 2)
        j = np.clip(np.searchsorted(self.load_axis, load) - 1, 0,
                    self.load_axis.size - 2)
        s0, s1 = self.slew_axis[i], self.slew_axis[i + 1]
        l0, l1 = self.load_axis[j], self.load_axis[j + 1]
        ws = (slew - s0) / (s1 - s0)
        wl = (load - l0) / (l1 - l0)
        v00 = self.values[i, j]
        v01 = self.values[i, j + 1]
        v10 = self.values[i + 1, j]
        v11 = self.values[i + 1, j + 1]
        out = (v00 * (1 - ws) * (1 - wl) + v01 * (1 - ws) * wl
               + v10 * ws * (1 - wl) + v11 * ws * wl)
        return float(out) if np.isscalar(out) or out.ndim == 0 else out

    def _lookup_scalar(self, slew: float, load: float) -> float:
        """The array path's arithmetic, term for term, on Python floats."""
        slews, loads = self._slews, self._loads
        if slew < slews[0]:
            slew = slews[0]
        elif slew > slews[-1]:
            slew = slews[-1]
        if load < loads[0]:
            load = loads[0]
        elif load > loads[-1]:
            load = loads[-1]
        # bisect_left is searchsorted(side="left"); on a clamped value,
        # starting the search at 1 is the array path's index clip.
        i = bisect_left(slews, slew, 1) - 1
        j = bisect_left(loads, load, 1) - 1
        s0, s1 = slews[i], slews[i + 1]
        l0, l1 = loads[j], loads[j + 1]
        ws = (slew - s0) / (s1 - s0)
        wl = (load - l0) / (l1 - l0)
        row0, row1 = self._rows[i], self._rows[i + 1]
        v00 = row0[j]
        v01 = row0[j + 1]
        v10 = row1[j]
        v11 = row1[j + 1]
        return (v00 * (1 - ws) * (1 - wl) + v01 * (1 - ws) * wl
                + v10 * ws * (1 - wl) + v11 * ws * wl)

    @classmethod
    def from_linear_model(cls, slew_axis: Sequence[float],
                          load_axis: Sequence[float], intrinsic: float,
                          drive_res: float, slew_sensitivity: float,
                          curvature: float = 0.0) -> "TimingTable":
        """Build a table from the classic linear delay model.

        ``value = intrinsic + drive_res * load + slew_sensitivity * slew
        + curvature * slew * load`` evaluated at each grid point.  The
        curvature term adds the slew-load interaction real NLDM tables show.
        """
        s = np.asarray(slew_axis, dtype=float)[:, None]
        l = np.asarray(load_axis, dtype=float)[None, :]
        values = intrinsic + drive_res * l + slew_sensitivity * s \
            + curvature * s * l
        return cls(slew_axis, load_axis, values)


@dataclass
class TimingArc:
    """A combinational input→output arc of a standard cell."""

    input_pin: str
    output_pin: str
    delay: TimingTable
    output_slew: TimingTable


@dataclass
class StandardCell:
    """A standard cell with liberty-like data.

    Attributes
    ----------
    name:
        Library-unique cell name (e.g. ``sky_nand2_x2``).
    function:
        Generic logical function implemented (e.g. ``NAND2``, ``DFF``).
    drive_strength:
        Relative drive (1.0 = unit drive); larger drives lower delay but
        larger input capacitance and area.
    input_pins / output_pin:
        Pin names.  Sequential cells use ``D``/``CK`` inputs and ``Q``.
    pin_caps:
        Input-pin capacitance in pF, keyed by pin name.
    arcs:
        Combinational timing arcs.  For flops these are the CK→Q arcs.
    area:
        Cell footprint in um^2 (used by placement/density maps).
    leakage:
        Leakage power in arbitrary units (reported in library stats).
    is_sequential:
        True for flip-flops; they cut timing paths.
    setup_time / clk_to_q:
        Sequential constraints, 0 for combinational cells.
    """

    name: str
    function: str
    drive_strength: float
    input_pins: List[str]
    output_pin: str
    pin_caps: Dict[str, float]
    arcs: List[TimingArc]
    area: float
    leakage: float = 0.0
    is_sequential: bool = False
    setup_time: float = 0.0
    clk_to_q: float = 0.0

    def arc_for(self, input_pin: str) -> Optional[TimingArc]:
        """Return the timing arc from ``input_pin``, or None."""
        for arc in self.arcs:
            if arc.input_pin == input_pin:
                return arc
        return None

    def input_cap(self, pin: str) -> float:
        """Input capacitance of ``pin`` in pF."""
        return self.pin_caps[pin]

    @property
    def max_delay_estimate(self) -> float:
        """Worst arc delay at the table's largest slew and load (screening)."""
        if not self.arcs:
            return 0.0
        return max(float(arc.delay.values.max()) for arc in self.arcs)

    def __repr__(self) -> str:
        kind = "seq" if self.is_sequential else "comb"
        return (f"StandardCell({self.name}, fn={self.function}, "
                f"drive={self.drive_strength}, {kind})")
