"""Traffic-density random variable: benchmark triangular density and custom tables."""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class DensityDistribution:
    """Distribution of the user density on the finite support [0, lambda_max].

    ``pdf``/``cdf``/``ppf`` are vectorized callables; ``breakpoints`` are the
    pdf's interior kinks, used as quadrature split points.  ``table_sha256``
    identifies the normalized table of a ``from_table`` density.
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
    """Symmetric triangular density on [0, lambda_max], peak 2/lambda_max at the midpoint."""
    if not lambda_max > 0.0:
        raise ValueError(f"lambda_max must be positive, got {lambda_max}")
    m = lambda_max
    half = 0.5 * m

    def pdf(lam):
        lam = np.asarray(lam, dtype=float)
        up = 4.0 * lam / m ** 2
        down = 4.0 / m - 4.0 * lam / m ** 2
        out = np.where(lam <= half, up, down)
        out = np.where((lam < 0.0) | (lam > m), 0.0, out)
        return out if out.ndim else float(out)

    def cdf(lam):
        lam = np.asarray(lam, dtype=float)
        lo = 2.0 * lam ** 2 / m ** 2
        hi = 1.0 - 2.0 * (m - lam) ** 2 / m ** 2
        out = np.where(lam <= half, lo, hi)
        out = np.clip(np.where(lam < 0.0, 0.0, np.where(lam > m, 1.0, out)), 0.0, 1.0)
        return out if out.ndim else float(out)

    def ppf(u):
        u = np.asarray(u, dtype=float)
        lo = m * np.sqrt(np.maximum(u, 0.0) / 2.0)
        hi = m - m * np.sqrt(np.maximum(1.0 - u, 0.0) / 2.0)
        out = np.where(u <= 0.5, lo, hi)
        return out if out.ndim else float(out)

    return DensityDistribution(lambda_max=m, kind="triangular",
                               pdf=pdf, cdf=cdf, ppf=ppf, breakpoints=(half,))


def from_table(lams: Sequence[float], weights: Sequence[float]) -> DensityDistribution:
    """Custom density from (lambda, relative weight) pairs.

    Weights are interpolated piecewise-linearly and renormalized with
    trapezoidal integration; the support is [0, max(lams)].
    """
    lams = np.asarray(lams, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if lams.ndim != 1 or lams.shape != weights.shape or lams.size < 2:
        raise ValueError("need matching 1-d arrays with at least two points")
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
    cum = np.concatenate([[0.0], np.cumsum(
        0.5 * (dens[1:] + dens[:-1]) * np.diff(lams))])
    cum /= cum[-1]

    def pdf(lam):
        lam = np.asarray(lam, dtype=float)
        out = np.interp(lam, lams, dens, left=0.0, right=0.0)
        return out if out.ndim else float(out)

    def cdf(lam):
        lam = np.asarray(lam, dtype=float)
        out = np.interp(lam, lams, cum, left=0.0, right=1.0)
        return out if out.ndim else float(out)

    def ppf(u):
        u = np.asarray(u, dtype=float)
        out = np.interp(u, cum, lams)
        return out if out.ndim else float(out)

    digest = hashlib.sha256(np.concatenate([lams, dens]).tobytes()).hexdigest()
    return DensityDistribution(lambda_max=m, kind="custom-table",
                               pdf=pdf, cdf=cdf, ppf=ppf,
                               breakpoints=tuple(float(x) for x in lams[1:-1]),
                               table_sha256=digest)


def from_csv(path) -> DensityDistribution:
    """Load a two-column (lambda, relative weight) CSV; a header row is optional."""
    lams, weights = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#"):
                continue
            try:
                lam, w = float(row[0]), float(row[1])
            except ValueError:
                continue  # header
            lams.append(lam)
            weights.append(w)
    return from_table(lams, weights)
