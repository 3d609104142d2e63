"""Long-term performance metrics of a range-adaptation policy."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .numerics import gauss_legendre
from .params import SystemParams
from .scaling import bs_power_x
from .traffic import DensityDistribution


@dataclass(frozen=True)
class PolicyMetrics:
    """Averages over the density distribution for one policy."""

    avg_power_w: float
    avg_users: float
    on_probability: float
    peak_bs_power_w: float

    def as_dict(self) -> dict:
        return dict(vars(self))


def evaluate(radius_fn: Callable, dist: DensityDistribution, p: SystemParams,
             breakpoints: Sequence[float] = ()) -> PolicyMetrics:
    """Metrics of an arbitrary density -> radius map.

    ``radius_fn`` is called once, on an array of densities: the nodes of
    one Gauss-Legendre rule split at ``breakpoints`` (the map's
    discontinuities, such as on/off cut-offs), each breakpoint and the
    density just above it, and lambda_max.  A scalar return is a constant
    radius.  Power, users and on-probability are integrated on the rule;
    the peak is the largest consumption over all the points, which is the
    largest while on, since off consumes Ps <= Pc (Ps when never on).  A
    negative or non-finite radius raises ValueError.
    """
    m = dist.lambda_max
    pts = np.array([b for b in breakpoints if 0.0 < b < m], dtype=float)
    rule = gauss_legendre(dist, 0.0, m, pts)
    n = rule.nodes.size
    lams = np.concatenate([rule.nodes, pts, np.nextafter(pts, m), [m]])
    radii = np.broadcast_to(np.asarray(radius_fn(lams), dtype=float),
                            lams.shape)
    bad = ~(np.isfinite(radii) & (radii >= 0.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"radius_fn returned {radii[i]} at density "
                         f"{lams[i]}; radii must be finite and >= 0")
    x = radii * radii
    power = bs_power_x(x, lams, p)
    return PolicyMetrics(
        avg_power_w=rule.integrate(power[:n]),
        avg_users=rule.integrate(math.pi * rule.nodes * x[:n]),
        on_probability=min(max(rule.integrate(radii[:n] > 0.0), 0.0), 1.0),
        peak_bs_power_w=float(power.max()))
