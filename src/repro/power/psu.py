"""Power-supply efficiency model.

The wall-plug meter in the paper measures *AC* power; the components draw
*DC*.  A PSU's efficiency depends on its load fraction — poor at very light
load, peaking around 50 %, sagging slightly toward 100 % — which matters
here because an idle cluster sits in the inefficient left part of the curve.

:class:`PSUModel` interpolates a measured (load-fraction, efficiency) curve;
the default points follow a typical non-80-PLUS server supply of the era
modelled.  :data:`IDEAL_PSU` (efficiency 1 everywhere) is provided for
ablations isolating the PSU's contribution to wall power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..exceptions import PowerModelError
from ..validation import check_positive

__all__ = [
    "PSUModel", "DEFAULT_EFFICIENCY_CURVE", "IDEAL_PSU", "curve_points",
    "efficiency_at", "wall_watts",
]

#: (load fraction, efficiency) points for a typical late-2000s server PSU.
DEFAULT_EFFICIENCY_CURVE: Tuple[Tuple[float, float], ...] = (
    (0.0, 0.60),
    (0.10, 0.75),
    (0.20, 0.83),
    (0.50, 0.87),
    (0.80, 0.86),
    (1.00, 0.84),
)


def curve_points(curve: Tuple[Tuple[float, float], ...]) -> Tuple[np.ndarray, np.ndarray]:
    """``(loads, efficiencies)`` of an efficiency curve as float arrays."""
    return (
        np.array([p[0] for p in curve], dtype=float),
        np.array([p[1] for p in curve], dtype=float),
    )


def efficiency_at(dc_watts, rated_watts, loads, efficiencies):
    """Efficiency interpolated at load fraction ``min(dc / rated, 1)``."""
    return np.interp(np.minimum(dc_watts / rated_watts, 1.0), loads, efficiencies)


def wall_watts(dc_watts, rated_watts, loads, efficiencies):
    """AC watts drawn for a DC load (0 for 0: every efficiency is > 0)."""
    return dc_watts / efficiency_at(dc_watts, rated_watts, loads, efficiencies)


def _validated(dc_watts):
    dc = np.asarray(dc_watts, dtype=float)
    if np.any(dc < 0):
        raise PowerModelError(f"dc_watts must be >= 0, got {dc.min()}")
    return dc


def _native(watts):
    """A float for a scalar input, the array otherwise."""
    return float(watts) if np.ndim(watts) == 0 else watts


@dataclass(frozen=True)
class PSUModel:
    """Load-dependent AC->DC conversion.

    Parameters
    ----------
    rated_watts:
        DC output the supply is rated for.  Node load fraction is
        ``dc_watts / rated_watts`` (clamped to [0, 1] — drawing beyond the
        rating is treated as full load rather than an error because the
        models occasionally overshoot nominal ceilings by a watt or two).
    curve:
        Monotone-in-load (load_fraction, efficiency) pairs; efficiency is
        linearly interpolated between points.
    """

    rated_watts: float
    curve: Tuple[Tuple[float, float], ...] = DEFAULT_EFFICIENCY_CURVE

    def __post_init__(self) -> None:
        check_positive(self.rated_watts, "rated_watts", exc=PowerModelError)
        if len(self.curve) < 2:
            raise PowerModelError("efficiency curve needs at least 2 points")
        loads, effs = curve_points(self.curve)
        if np.any(np.diff(loads) < 0):
            raise PowerModelError("efficiency curve loads must be sorted ascending")
        if loads[0] != 0.0 or loads[-1] != 1.0:
            raise PowerModelError("efficiency curve must span load fractions 0..1")
        for eff in effs:
            if not 0 < eff <= 1:
                raise PowerModelError(f"efficiency {eff} outside (0, 1]")
        # Cache the interpolation grid once: efficiency() sits on the hot
        # power-integration path and must not rebuild arrays per call.
        object.__setattr__(self, "_points", (loads, effs))

    def efficiency(self, dc_watts):
        """Conversion efficiency at a DC draw (or elementwise over an array)."""
        return _native(efficiency_at(_validated(dc_watts), self.rated_watts, *self._points))

    def wall_watts(self, dc_watts):
        """AC power drawn from the outlet for a DC load (or per array element)."""
        return _native(wall_watts(_validated(dc_watts), self.rated_watts, *self._points))

    efficiency_many = efficiency
    wall_watts_many = wall_watts


#: Lossless supply for ablation studies.
IDEAL_PSU = PSUModel(rated_watts=1.0, curve=((0.0, 1.0), (1.0, 1.0)))
