"""Physical scenario description and configuration handling.

Everything downstream (geometry, link budget, placement search) reads its
parameters from a validated, immutable Scenario. All internal computation is
in SI units (watts, meters, radians, hertz); dB and dBm appear only at the
configuration and reporting boundaries.

The config keys are written nowhere but in the dataclass: the key table is
read from the fields of Scenario, and a key is required exactly when its
field has no default. parse_number is the one place where user text (config,
override, sites file, sweep lists) becomes a number, and KEY_RANGES holds the
one closed range of every key, which Scenario checks on construction. The
ranges keep every quantity that the link budget and the placement search
form inside the normal floats, so no later layer guards against over- or
underflow.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import MISSING, dataclass, fields, replace

SPEED_OF_LIGHT_M_S = 299_792_458.0
MAX_SURFACE_ELEMENTS = 1_000_000

# the closed range [lo, hi] of every config key, in its SI unit
_LENGTH_M = (1e-9, 1e9)
_POWER_W = (0.0, 1e9)
KEY_RANGES = {
    "carrier_frequency_hz": (1e6, 1e13),
    "transmit_power_w": (1e-15, 1e9),
    "bandwidth_hz": (1.0, 1e13),
    "noise_figure_db": (-100.0, 100.0),
    "tx_diameter_m": (1e-3, 1e3),
    "rx_diameter_m": (1e-3, 1e3),
    "tx_efficiency": (1e-6, 1.0),
    "rx_efficiency": (1e-6, 1.0),
    "tx_height_m": _LENGTH_M,
    "rx_height_m": _LENGTH_M,
    "ris_height_m": _LENGTH_M,
    "txrx_horizontal_m": _LENGTH_M,
    "lateral_offset_m": _LENGTH_M,
    "ris_rows": (1, MAX_SURFACE_ELEMENTS),
    "ris_cols": (1, MAX_SURFACE_ELEMENTS),
    "element_dx_m": (1e-9, 1e3),
    "element_dy_m": (1e-9, 1e3),
    # the largest float below 1: a surface that converts everything reflects nothing
    "conversion_efficiency": (1e-9, 1.0 - 2.0 ** -53),
    "p_static_w": _POWER_W,
    "p_dynamic_w": _POWER_W,
    "reconfig_fraction": (0.0, 1.0),
    "n_rectifiers": (1, 1_000_000),
    "p_rectifier_w": _POWER_W,
    "p_chip_w": _POWER_W,
}


class ConfigError(ValueError):
    """Raised for unparsable, missing, unknown, or invalid configuration values."""


def range_error(label: str, value, lo, hi) -> ConfigError:
    """The one refusal of a value outside its closed range [lo, hi]."""
    return ConfigError(f"{label} = {format_value(value)} lies outside its range "
                       f"[{format_value(lo)}, {format_value(hi)}]")


def db(x):
    """Linear power ratio to dB."""
    return 10.0 * math.log10(x)


# these three keys are integers, every other key is a float
_INTEGER_KEYS = ("ris_rows", "ris_cols", "n_rectifiers")


@dataclass(frozen=True)
class Scenario:
    """Full link scenario: radio parameters, geometry, surface, consumption.

    Geometry convention: TX at horizontal coordinate 0, RX at txrx_horizontal_m,
    both on the street axis; the surface center sits lateral_offset_m off that
    axis at height ris_height_m. The horizontal TX-to-surface distance r1h is
    the placement variable and deliberately not a field here.

    Consumption: per-element chip power is p_static_w + reconfig_fraction *
    p_dynamic_w unless p_chip_w is set, in which case the override wins.
    Rectifier consumption is counted once per rectifier, not per element.
    The consumption fields are the only optional config keys.
    """

    carrier_frequency_hz: float      # f
    transmit_power_w: float          # P_t
    bandwidth_hz: float              # W
    noise_figure_db: float           # F_dB
    tx_diameter_m: float             # D_t
    rx_diameter_m: float             # D_r
    tx_efficiency: float             # e_t
    rx_efficiency: float             # e_r
    tx_height_m: float               # h_t
    rx_height_m: float               # h_r
    ris_height_m: float              # h_s
    txrx_horizontal_m: float         # r_h
    lateral_offset_m: float          # y_s
    ris_rows: int                    # M_x
    ris_cols: int                    # M_y
    element_dx_m: float              # d_x
    element_dy_m: float              # d_y
    conversion_efficiency: float     # RF-to-DC efficiency
    p_static_w: float = 0.0          # chip power while holding a configuration
    p_dynamic_w: float = 0.0         # chip power while reconfiguring
    reconfig_fraction: float = 0.0   # fraction of time spent reconfiguring
    n_rectifiers: int = 1            # rectifiers fed by the corporate network
    p_rectifier_w: float = 0.0       # consumption of one rectifier
    p_chip_w: float | None = None    # direct per-element override, wins if set

    def __post_init__(self):
        for key, (lo, hi) in KEY_RANGES.items():
            value = getattr(self, key)
            # None is an unset p_chip_w
            if value is not None and not lo <= value <= hi:
                raise range_error(key, value, lo, hi)
        for name in _INTEGER_KEYS:
            if int(getattr(self, name)) != getattr(self, name):
                raise ConfigError(f"{name} must be an integer")
        # every per-element array is sized by this
        if self.m_s > MAX_SURFACE_ELEMENTS:
            raise ConfigError(f"the surface has {self.m_s} elements, more than {MAX_SURFACE_ELEMENTS}")
        # d_l runs over ris_cols: the lowest elements sit this far below the center
        half_aperture_m = (self.ris_cols - 1) / 2.0 * self.element_dy_m
        if self.ris_height_m <= half_aperture_m:
            raise ConfigError(f"ris_height_m must exceed the surface's lower half-aperture "
                              f"{half_aperture_m!r} m, or the surface reaches below ground")
        lam = self.wavelength_m
        for name in ("tx_diameter_m", "rx_diameter_m"):
            if getattr(self, name) / lam < 10.0:
                warnings.warn(
                    f"{name} is below 10 wavelengths; the parabolic gain "
                    "formula assumes an electrically large dish",
                    stacklevel=2,
                )

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT_M_S / self.carrier_frequency_hz

    @property
    def m_s(self) -> int:
        """Number of reflective elements."""
        return self.ris_rows * self.ris_cols

    @property
    def tx_gain(self) -> float:
        """Peak gain of the parabolic TX dish, e * (pi * D / lambda)^2 (valid
        for D >> lambda, hence the warning below 10 wavelengths)."""
        return self.tx_efficiency * (math.pi * self.tx_diameter_m / self.wavelength_m) ** 2

    @property
    def rx_gain(self) -> float:
        return self.rx_efficiency * (math.pi * self.rx_diameter_m / self.wavelength_m) ** 2

    @property
    def noise_w(self) -> float:
        """Thermal noise power in watts, from the dBm form -174 + 10*log10(W)
        + F_dB (thermal floor at 290 K plus receiver noise figure)."""
        sigma2_dbm = -174.0 + 10.0 * math.log10(self.bandwidth_hz) + self.noise_figure_db
        return 10.0 ** ((sigma2_dbm - 30.0) / 10.0)

    @property
    def chip_power_w(self) -> float:
        """Effective per-element chip consumption."""
        if self.p_chip_w is not None:
            return self.p_chip_w
        return self.p_static_w + self.reconfig_fraction * self.p_dynamic_w

    @property
    def p_ris_w(self) -> float:
        """Total consumption the surface must harvest: one chip per element
        plus the rectifiers."""
        return self.m_s * self.chip_power_w + self.n_rectifiers * self.p_rectifier_w


KNOWN_KEYS = frozenset(f.name for f in fields(Scenario))


def key_value_lines(text: str):
    """Yield (lineno, key, value) for every `key = value` line of text.

    `#` starts a comment, blank lines are skipped, and any other line without
    `=` is a ConfigError naming its 1-based line number.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        yield lineno, key, value


def parse_config_text(text: str) -> dict[str, str]:
    """Parse the flat `key = value` format into a raw string mapping.

    Lines starting with `#` (and inline `#` tails) are comments; blank lines
    are ignored. Duplicate and unknown keys are errors.
    """
    mapping: dict[str, str] = {}
    for lineno, key, value in key_value_lines(text):
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown config key '{key}'")
        if key in mapping:
            raise ConfigError(f"line {lineno}: duplicate config key '{key}'")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for '{key}'")
        mapping[key] = value
    return mapping


def parse_number(label: str, text: str, integer: bool = False):
    """The one conversion of user text to a number: config and override
    values, sites-file values and sweep list elements.

    Returns a finite float, or an int when `integer`. Anything else is a
    ConfigError whose message starts with `label`.
    """
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{label} is not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{label} must be finite: {text!r}")
    if not integer:
        return value
    if not value.is_integer():
        raise ConfigError(f"{label} must be an integer: {text!r}")
    return int(value)


def build_scenario(mapping: dict[str, str]) -> Scenario:
    """Build a validated Scenario from a raw key/value mapping of known keys."""
    kwargs = {}
    for f in fields(Scenario):
        if f.name in mapping:
            kwargs[f.name] = parse_number(f"value for '{f.name}'", mapping[f.name],
                                          integer=f.name in _INTEGER_KEYS)
        elif f.default is MISSING:
            raise ConfigError(f"missing required config key '{f.name}'")
    return Scenario(**kwargs)


def load_scenario(path, overrides=()) -> Scenario:
    """Load and validate a scenario from a flat `key = value` config file,
    with `KEY=VALUE` override strings applied on top."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return build_scenario(apply_overrides(parse_config_text(text), overrides))


def apply_overrides(mapping: dict[str, str], overrides) -> dict[str, str]:
    """Merge `KEY=VALUE` override strings into a parsed config mapping."""
    merged = dict(mapping)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like KEY=VALUE, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown override key '{key}'")
        if not value:
            raise ConfigError(f"empty override value for '{key}'")
        merged[key] = value
    return merged


def format_value(value, none: str = "none") -> str:
    """Text for one emitted value: `none` for None, `true`/`false` for bools,
    `str` for ints and `repr(float)` for any other number, which round-trips
    it exactly."""
    if value is None:
        return none
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def default_scenario(**changes) -> Scenario:
    """Reference 28 GHz street-canyon deployment used by demos and tests.

    Half-wavelength element spacing, 50x50 surface, 0.3 m dishes at both ends,
    100 rectifiers with passive rectification, 1 uW chip override. Keyword
    arguments are forwarded to dataclasses.replace for quick variants.
    """
    f_hz = 28e9
    lam = SPEED_OF_LIGHT_M_S / f_hz
    scenario = Scenario(
        carrier_frequency_hz=f_hz,
        transmit_power_w=1.0,
        bandwidth_hz=2e9,
        noise_figure_db=10.0,
        tx_diameter_m=0.3,
        rx_diameter_m=0.3,
        tx_efficiency=0.7,
        rx_efficiency=0.7,
        tx_height_m=3.0,
        rx_height_m=3.0,
        ris_height_m=12.0,
        txrx_horizontal_m=100.0,
        lateral_offset_m=5.0,
        ris_rows=50,
        ris_cols=50,
        element_dx_m=lam / 2.0,
        element_dy_m=lam / 2.0,
        conversion_efficiency=0.6,
        n_rectifiers=100,
        p_chip_w=1e-6,
    )
    if changes:
        scenario = replace(scenario, **changes)
    return scenario


__all__ = [
    "SPEED_OF_LIGHT_M_S", "ConfigError", "Scenario", "db",
    "parse_config_text", "build_scenario", "load_scenario", "apply_overrides",
    "default_scenario",
    "KNOWN_KEYS", "KEY_RANGES", "range_error",
]
