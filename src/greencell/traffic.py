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

    ``pdf`` is a vectorized callable; ``breakpoints`` are its interior
    kinks, used as quadrature split points.  ``table_sha256`` identifies the
    normalized table of a ``from_table`` density; it is None for
    ``triangular``, whose kind and ``lambda_max`` fix its three knots.
    """

    lambda_max: float
    kind: str
    pdf: Callable
    breakpoints: Tuple[float, ...] = field(default=())
    table_sha256: Optional[str] = None

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
    trapezoidal integration; the support is [0, max(lams)].
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
    with np.errstate(all="ignore"):
        total = np.trapezoid(weights, lams)
        dens = weights / total
    if total == 0.0:
        raise ValueError("weights integrate to zero")
    if not (np.isfinite(total) and np.isfinite(dens).all()):
        raise ValueError(f"normalizing by {total} leaves the float range")

    def pdf(lam):
        lam = np.asarray(lam, dtype=float)
        out = np.interp(lam, lams, dens, left=0.0, right=0.0)
        return out if out.ndim else float(out)

    digest = hashlib.sha256(np.concatenate([lams, dens]).tobytes()).hexdigest()
    return DensityDistribution(lambda_max=m, kind="custom-table",
                               pdf=pdf,
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
