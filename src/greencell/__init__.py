"""Energy-optimal cell range and power adaptation under random user traffic."""

__version__ = "0.1.0"

from .metrics import PolicyMetrics, evaluate
from .optimal import (AdaptationPolicy, CriticalDensities, InfeasibleError,
                      critical_densities, hse_critical_densities, hse_x1,
                      hse_x2, policy_for_mu, solve, subproblem, x1_star,
                      x2_star)
from .params import (DerivedConstants, InvalidParameterError, SystemParams,
                     derive_constants, params_from_mapping)
from .scaling import (avg_transmit_power, avg_transmit_power_exact, bs_power,
                      stpc_power)
from .suboptimal import SchemePolicy, arw_ofc, arw_oofc, frw_ofc, frw_oofc
from .traffic import DensityDistribution, from_csv, from_table, triangular

__all__ = [
    "AdaptationPolicy",
    "CriticalDensities",
    "DensityDistribution",
    "DerivedConstants",
    "InfeasibleError",
    "InvalidParameterError",
    "PolicyMetrics",
    "SchemePolicy",
    "SystemParams",
    "arw_ofc",
    "arw_oofc",
    "avg_transmit_power",
    "avg_transmit_power_exact",
    "bs_power",
    "critical_densities",
    "derive_constants",
    "evaluate",
    "from_csv",
    "from_table",
    "frw_ofc",
    "frw_oofc",
    "hse_critical_densities",
    "hse_x1",
    "hse_x2",
    "params_from_mapping",
    "policy_for_mu",
    "solve",
    "stpc_power",
    "subproblem",
    "triangular",
    "x1_star",
    "x2_star",
]
