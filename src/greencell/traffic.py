"""Traffic-density random variable: benchmark triangular density and custom tables."""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class DensityDistribution:
    """Distribution of the user density on the finite support [0, lambda_max].

    ``pdf``/``cdf``/``ppf`` are vectorized callables; ``breakpoints`` are the
    pdf's interior kinks, used as quadrature split points.  ``table_sha256``
    identifies the normalized table of a ``from_table`` density; it is None
    for ``triangular``, whose kind and ``lambda_max`` fix its three knots.
    Immutable; the sampler takes an explicit RNG owned by the caller.
    """

    lambda_max: float
    kind: str
    pdf: Callable
    cdf: Callable
    ppf: Callable
    breakpoints: Tuple[float, ...] = field(default=())
    table_sha256: Optional[str] = None

    def sample(self, rng: np.random.Generator, size=None):
        """Inverse-CDF sampling."""
        return self.ppf(rng.random(size))

    def describe(self) -> dict:
        out = {"kind": self.kind, "lambda_max": self.lambda_max}
        if self.table_sha256 is not None:
            out["table_sha256"] = self.table_sha256
        return out


def triangular(lambda_max: float) -> DensityDistribution:
    """Symmetric triangular density on [0, lambda_max], peak 2/lambda_max at
    the midpoint: the three-knot table of ``from_table``."""
    if not (np.isfinite(lambda_max) and lambda_max > 0.0):
        raise ValueError(
            f"lambda_max must be finite and positive, got {lambda_max}")
    m = lambda_max
    return replace(from_table([0.0, 0.5 * m, m], [0.0, 1.0, 0.0]),
                   kind="triangular", table_sha256=None)


def from_table(lams: Sequence[float], weights: Sequence[float]) -> DensityDistribution:
    """Custom density from (lambda, relative weight) pairs.

    Weights are interpolated piecewise-linearly and renormalized with
    trapezoidal integration; the support is [0, max(lams)].  So the cdf is
    quadratic inside each cell, and ``ppf`` solves that quadratic.
    """
    lams = np.asarray(lams, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if lams.ndim != 1 or lams.shape != weights.shape or lams.size < 2:
        raise ValueError("need matching 1-d arrays with at least two points")
    for name, values in (("lams", lams), ("weights", weights)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite, got {values.tolist()}")
    order = np.argsort(lams)
    lams, weights = lams[order], weights[order]
    if lams[0] < 0.0 or np.any(weights < 0.0):
        raise ValueError("support must be nonnegative and weights >= 0")
    if lams[0] > 0.0:
        lams = np.concatenate([[0.0], lams])
        weights = np.concatenate([[weights[0]], weights])
    m = float(lams[-1])
    total = np.trapezoid(weights, lams)
    if not total > 0.0:
        raise ValueError("weights integrate to zero")
    dens = weights / total
    width = np.diff(lams)
    slope = np.diff(dens) / np.where(width > 0.0, width, 1.0)
    cum = np.append(0.0, np.cumsum(0.5 * (dens[1:] + dens[:-1]) * width))

    def cell(edges, v):
        return np.clip(np.searchsorted(edges, v, side="right") - 1,
                       0, width.size - 1)

    def pdf(lam):
        lam = np.asarray(lam, dtype=float)
        out = np.interp(lam, lams, dens, left=0.0, right=0.0)
        return out if out.ndim else float(out)

    def cdf(lam):
        lam = np.asarray(lam, dtype=float)
        k = cell(lams, lam)
        t = np.clip(lam - lams[k], 0.0, width[k])
        out = np.where(lam >= m, 1.0, np.clip(
            cum[k] + t * (dens[k] + 0.5 * slope[k] * t), 0.0, 1.0))
        return out if out.ndim else float(out)

    # ppf's cumulative at the knots, with 1 at lambda_max: 1 - u, exact
    # near 1, is then the mass above the root in the last cell, however
    # the cumulative's last sum rounds
    ppf_cum = np.append(cum[:-1], 1.0)

    def ppf(u):
        # distance t from the knot nearer u in cumulative, as the root of
        # ppf_cum[k] + dens[k] t + slope t^2/2 = u or
        # ppf_cum[k+1] - dens[k+1] t + slope t^2/2 = u, in a form stable as
        # slope or dens -> 0; from the left knot alone the root cancels
        # where the pdf falls to 0 at the right knot
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        k = cell(ppf_cum, u)
        v, w = u - ppf_cum[k], ppf_cum[k + 1] - u
        right = w < v
        d = np.where(right, dens[k + 1], dens[k])
        r = np.where(right, w, v)
        root = d + np.sqrt(np.maximum(
            d * d + 2.0 * np.where(right, -slope[k], slope[k]) * r, 0.0))
        t = np.clip(np.divide(2.0 * r, root, out=np.zeros_like(r),
                              where=root > 0.0), 0.0, width[k])
        out = np.where(right, lams[k + 1] - t, lams[k] + t)
        return out if out.ndim else float(out)

    digest = hashlib.sha256(np.concatenate([lams, dens]).tobytes()).hexdigest()
    return DensityDistribution(lambda_max=m, kind="custom-table",
                               pdf=pdf, cdf=cdf, ppf=ppf,
                               breakpoints=tuple(float(x) for x in lams[1:-1]),
                               table_sha256=digest)


def from_csv(path) -> DensityDistribution:
    """Load a (lambda, relative weight) CSV; its first row may be a header."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh)
                if row and not row[0].strip().startswith("#")]
    lams, weights = [], []
    for k, row in enumerate(rows):
        lam = None
        try:
            lam = float(row[0])
            weights.append(float(row[1]))
        except (ValueError, IndexError):
            if k == 0 and lam is None:
                continue  # header
            raise ValueError(f"density CSV row {row!r} is not a lambda and "
                             "a weight") from None
        lams.append(lam)
    return from_table(lams, weights)
