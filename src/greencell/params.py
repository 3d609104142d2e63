"""Physical parameters and derived constants of the cell adaptation model."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property


class InvalidParameterError(ValueError):
    """A system parameter violates one of the model's invariants."""


@dataclass(frozen=True)
class SystemParams:
    """Radio and power parameters of a single OFDMA macro cell.

    All quantities are linear SI units (watts, hertz, meters).  dB/dBm
    conversion happens at the CLI boundary, never inside the model, so the
    formula code stays a direct transcription of the analytic expressions.
    """

    bandwidth_w: float = 5e6           # total downlink bandwidth [Hz]
    user_rate: float = 150e3           # per-user target rate [bit/s]
    pathloss_exp: float = 3.0          # alpha, must exceed 2
    snr_gap: float = 1.0               # coding/modulation gap (linear)
    noise_psd: float = 10.0 ** -20.4   # N0 [W/Hz], default -174 dBm/Hz
    ref_distance: float = 10.0         # r0 [m]
    ref_pathloss: float = 1e-6         # gain at r0 (linear), default -60 dB
    outage_target: float = 1e-3        # allowed per-user outage probability
    coding_blocks: int = 1             # blocks a codeword is spread over
    static_power: float = 120.0        # non-transmission consumption [W]
    max_bs_power: float = 160.0        # short-term BS power cap [W]
    sleep_power: float = 0.0           # consumption while switched off [W]
    amp_scaling: float = 1.0           # amplifier/feeder loss factor, >= 1

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise InvalidParameterError(
                    f"{f.name} must be finite, got {value}")
        if not self.pathloss_exp > 2.0:
            raise InvalidParameterError(
                f"pathloss_exp must exceed 2, got {self.pathloss_exp}")
        if not 0.0 < self.outage_target < 1.0:
            raise InvalidParameterError(
                f"outage_target must lie in (0, 1), got {self.outage_target}")
        if self.coding_blocks < 1 or self.coding_blocks != int(self.coding_blocks):
            raise InvalidParameterError(
                f"coding_blocks must be a positive integer, got {self.coding_blocks}")
        if not self.bandwidth_w > 0.0:
            raise InvalidParameterError(
                f"bandwidth_w must be positive, got {self.bandwidth_w}")
        if not self.user_rate > 0.0:
            raise InvalidParameterError(
                f"user_rate must be positive, got {self.user_rate}")
        if not self.snr_gap >= 1.0:
            raise InvalidParameterError(
                f"snr_gap must be >= 1, got {self.snr_gap}")
        if not self.noise_psd > 0.0:
            raise InvalidParameterError(
                f"noise_psd must be positive, got {self.noise_psd}")
        if not self.ref_pathloss > 0.0:
            raise InvalidParameterError(
                f"ref_pathloss must be positive, got {self.ref_pathloss}")
        if not self.ref_distance > 0.0:
            raise InvalidParameterError(
                f"ref_distance must be positive, got {self.ref_distance}")
        if not self.amp_scaling >= 1.0:
            raise InvalidParameterError(
                f"amp_scaling must be >= 1, got {self.amp_scaling}")
        if not self.max_bs_power > self.static_power:
            raise InvalidParameterError(
                "max_bs_power must exceed static_power "
                f"({self.max_bs_power} <= {self.static_power})")
        if not self.static_power >= self.sleep_power >= 0.0:
            raise InvalidParameterError(
                "require static_power >= sleep_power >= 0, got "
                f"{self.static_power} / {self.sleep_power}")

    @cached_property
    def _constants(self) -> DerivedConstants:
        """The derived constants (``derive_constants``); pure."""
        c1 = -math.log1p(-self.outage_target ** (1.0 / self.coding_blocks))
        c2 = self.user_rate / self.bandwidth_w
        d1 = (2.0 * self.snr_gap * self.noise_psd * self.bandwidth_w
              / (self.ref_pathloss * c1 * (self.pathloss_exp + 2.0)
                 * self.ref_distance ** self.pathloss_exp))
        d3 = math.log(2.0) * c2
        return DerivedConstants(c1=c1, c2=c2, d1=d1, d2=c2, d3=d3)


# keys the config layer accepts on top of the plain field names
_DB_ALTERNATES = {
    "noise_psd_dbm": ("noise_psd", lambda v: 10.0 ** ((v - 30.0) / 10.0)),
    "ref_pathloss_db": ("ref_pathloss", lambda v: 10.0 ** (v / 10.0)),
}

_FIELD_NAMES = {f.name for f in fields(SystemParams)}


def config_float(key: str, raw) -> float:
    """A configuration value as a float, from a number or a string.

    A JSON config can also give a bool, which float() would read as 0 or 1,
    a null, a list or an object; each of these, and a string that is not a
    number, raises ``InvalidParameterError`` naming the key.
    """
    if isinstance(raw, (int, float, str)) and not isinstance(raw, bool):
        try:
            return float(raw)
        except (ValueError, OverflowError):
            pass
    raise InvalidParameterError(f"{key} must be a number, got {raw!r}")


def params_from_mapping(mapping: dict) -> SystemParams:
    """Build ``SystemParams`` from a flat key/value mapping.

    Accepts every field name plus the ``noise_psd_dbm`` / ``ref_pathloss_db``
    alternates, which are converted to linear units here.  Unknown keys,
    values that are not numbers (``config_float``) and dB values whose
    linear value overflows raise ``InvalidParameterError`` naming the key.
    """
    resolved: dict = {}
    for key, raw in mapping.items():
        if key in _DB_ALTERNATES:
            field, conv = _DB_ALTERNATES[key]
            if field in resolved:
                raise InvalidParameterError(
                    f"both {field} and {key} given in configuration")
            try:
                resolved[field] = conv(config_float(key, raw))
            except OverflowError:
                raise InvalidParameterError(
                    f"{key} is out of range, got {raw!r}") from None
        elif key in _FIELD_NAMES:
            if key in resolved:
                raise InvalidParameterError(
                    f"both {key} and its dB alternate given in configuration")
            # a fraction reaches SystemParams' check
            value = config_float(key, raw)
            integral = key == "coding_blocks" and value.is_integer()
            resolved[key] = int(value) if integral else value
        else:
            raise InvalidParameterError(f"unknown configuration key: {key}")
    return SystemParams(**resolved)


@dataclass(frozen=True)
class DerivedConstants:
    """Constants derived from :class:`SystemParams`.

    ``c1`` is the outage margin -ln(1 - outage_target**(1/L)); ``c2`` (== d2)
    is the per-user spectrum efficiency in bps/Hz; ``d1`` is the pathloss
    prefactor of the average-transmit-power law [W * m^-alpha]; ``d3`` is
    (ln 2) * d2.
    """

    c1: float
    c2: float
    d1: float
    d2: float
    d3: float


def derive_constants(p: SystemParams) -> DerivedConstants:
    """The constants of ``p``, computed on first use and kept by it."""
    return p._constants
