"""Physical scenario description and configuration handling.

Everything downstream (geometry, link budget, placement search) reads its
parameters from a validated, immutable Scenario. All internal computation is
in SI units (watts, meters, radians, hertz); dB and dBm appear only at the
configuration and reporting boundaries.

The config keys are written nowhere but in the dataclasses: the key table is
read from the fields of Scenario (all required but power_model) and of
PowerModel (each optional, with its default). parse_number is the one place
where user text (config, override, sites file, sweep lists) becomes a number.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace

SPEED_OF_LIGHT_M_S = 299_792_458.0
MAX_SURFACE_ELEMENTS = 1_000_000


class ConfigError(ValueError):
    """Raised for unparsable, missing, unknown, or invalid configuration values."""


def db(x):
    """Linear power ratio to dB."""
    return 10.0 * math.log10(x)


def dbm_to_watts(p_dbm):
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def noise_power_w(bandwidth_hz: float, noise_figure_db: float) -> float:
    """Thermal noise power in watts over the given bandwidth.

    Computed from the dBm form -174 + 10*log10(W) + F_dB (thermal floor at
    290 K plus receiver noise figure), then converted to watts.
    """
    if bandwidth_hz <= 0:
        raise ConfigError("bandwidth_hz must be positive")
    sigma2_dbm = -174.0 + 10.0 * math.log10(bandwidth_hz) + noise_figure_db
    return dbm_to_watts(sigma2_dbm)


def parabolic_gain(diameter_m: float, efficiency: float, wavelength_m: float) -> float:
    """Peak gain of a parabolic reflector antenna, linear scale.

    G = e * (pi * D / lambda)^2. Asymptotically valid for D >> lambda; callers
    constructing a Scenario get a warning below 10 wavelengths.
    """
    if diameter_m <= 0 or efficiency <= 0 or wavelength_m <= 0:
        raise ConfigError("parabolic_gain arguments must be positive")
    return efficiency * (math.pi * diameter_m / wavelength_m) ** 2


@dataclass(frozen=True)
class PowerModel:
    """Consumption model of the surface electronics.

    Per-element chip power is p_static_w + reconfig_fraction * p_dynamic_w
    unless p_chip_w is set, in which case the override wins. Rectifier
    consumption is counted once per rectifier, not per element.
    """

    p_static_w: float = 0.0          # chip power while holding a configuration
    p_dynamic_w: float = 0.0         # chip power while reconfiguring
    reconfig_fraction: float = 0.0   # fraction of time spent reconfiguring
    n_rectifiers: int = 1            # rectifiers fed by the corporate network
    p_rectifier_w: float = 0.0       # consumption of one rectifier
    p_chip_w: float | None = None    # direct per-element override, wins if set

    def __post_init__(self):
        if self.p_static_w < 0:
            raise ConfigError("p_static_w must be nonnegative")
        if self.p_dynamic_w < 0:
            raise ConfigError("p_dynamic_w must be nonnegative")
        if not 0.0 <= self.reconfig_fraction <= 1.0:
            raise ConfigError("reconfig_fraction must lie in [0, 1]")
        if int(self.n_rectifiers) != self.n_rectifiers or self.n_rectifiers < 1:
            raise ConfigError("n_rectifiers must be a positive integer")
        if self.p_rectifier_w < 0:
            raise ConfigError("p_rectifier_w must be nonnegative")
        if self.p_chip_w is not None and self.p_chip_w < 0:
            raise ConfigError("p_chip_w must be nonnegative")

    @property
    def chip_power_w(self) -> float:
        """Effective per-element chip consumption."""
        if self.p_chip_w is not None:
            return self.p_chip_w
        return self.p_static_w + self.reconfig_fraction * self.p_dynamic_w


def ris_power_consumption(power_model: PowerModel, m_s: int) -> float:
    """Total surface consumption: one chip per element plus the rectifiers."""
    return m_s * power_model.chip_power_w + power_model.n_rectifiers * power_model.p_rectifier_w


@dataclass(frozen=True)
class Scenario:
    """Full link scenario: radio parameters, geometry, surface, power model.

    Geometry convention: TX at horizontal coordinate 0, RX at txrx_horizontal_m,
    both on the street axis; the surface center sits lateral_offset_m off that
    axis at height ris_height_m. The horizontal TX-to-surface distance r1h is
    the placement variable and deliberately not a field here.
    """

    carrier_frequency_hz: float      # f
    transmit_power_w: float          # P_t
    bandwidth_hz: float              # W
    noise_figure_db: float           # F_dB
    tx_diameter_m: float             # D_t
    rx_diameter_m: float             # D_r
    tx_efficiency: float             # e_t, in (0, 1]
    rx_efficiency: float             # e_r
    tx_height_m: float               # h_t
    rx_height_m: float               # h_r
    ris_height_m: float              # h_s
    txrx_horizontal_m: float         # r_h
    lateral_offset_m: float          # y_s, must be > 0
    ris_rows: int                    # M_x
    ris_cols: int                    # M_y
    element_dx_m: float              # d_x
    element_dy_m: float              # d_y
    conversion_efficiency: float     # RF-to-DC efficiency, in (0, 1)
    power_model: PowerModel

    def __post_init__(self):
        positive = [
            "carrier_frequency_hz", "transmit_power_w", "bandwidth_hz",
            "tx_diameter_m", "rx_diameter_m", "tx_height_m", "rx_height_m",
            "ris_height_m", "txrx_horizontal_m", "lateral_offset_m",
            "element_dx_m", "element_dy_m",
        ]
        for name in positive:
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("tx_efficiency", "rx_efficiency"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must lie in (0, 1]")
        if not 0.0 < self.conversion_efficiency < 1.0:
            raise ConfigError("conversion_efficiency must lie in (0, 1)")
        for name in ("ris_rows", "ris_cols"):
            v = getattr(self, name)
            if int(v) != v or v < 1:
                raise ConfigError(f"{name} must be a positive integer")
        # every per-element array is sized by this
        if self.m_s > MAX_SURFACE_ELEMENTS:
            raise ConfigError(f"the surface has {self.m_s} elements, more than {MAX_SURFACE_ELEMENTS}")
        if not 0.0 < self.noise_w < math.inf:
            raise ConfigError(f"the noise power {self.noise_w!r} W from bandwidth_hz and "
                              "noise_figure_db must be finite and positive")
        for rows, pitch in (("ris_rows", "element_dx_m"), ("ris_cols", "element_dy_m")):
            # element distances square the aperture
            aperture_m = (getattr(self, rows) - 1) * getattr(self, pitch)
            if not math.isfinite(aperture_m * aperture_m):
                raise ConfigError(f"the surface aperture ({rows} - 1) * {pitch} must have a "
                                  "finite square")
        # d_l runs over ris_cols: the lowest elements sit this far below the center
        half_aperture_m = (self.ris_cols - 1) / 2.0 * self.element_dy_m
        if self.ris_height_m <= half_aperture_m:
            raise ConfigError(f"ris_height_m must exceed the surface's lower half-aperture "
                              f"{half_aperture_m!r} m, or the surface reaches below ground")
        lam = self.wavelength_m
        # the harvest budget in Python floats: an input that over- or underflows
        # it is refused here, not met as a numpy RuntimeWarning in the solver
        tiny = 2.0 ** -1022  # the smallest normal float
        p_inc_const = self.transmit_power_w * self.tx_gain * (lam / (4.0 * math.pi)) ** 2
        if not tiny <= p_inc_const < math.inf:
            raise ConfigError(f"the incident-power constant P_t * G_t * (lambda/4pi)^2 = "
                              f"{p_inc_const!r} from transmit_power_w must be finite and at "
                              f"least {tiny!r}")
        if not math.isfinite(self.txrx_horizontal_m * self.txrx_horizontal_m):
            raise ConfigError("txrx_horizontal_m must have a finite square")
        # ceiling at r1h = 0, 4 eps M_s const y_s / r1^3; below the normal floats
        # P_ris / ceiling overflows in the placement objective
        r1_0 = math.sqrt(self.lateral_offset_m ** 2 + (self.ris_height_m - self.tx_height_m) ** 2)
        ceiling_0 = (4.0 * p_inc_const * self.conversion_efficiency * self.m_s
                     * self.lateral_offset_m / r1_0 / r1_0 / r1_0) if r1_0 else math.inf
        if not tiny <= ceiling_0 < math.inf:
            raise ConfigError(f"the harvest ceiling {ceiling_0!r} W at r1h = 0 from "
                              "conversion_efficiency, lateral_offset_m and the heights must be "
                              f"finite and at least {tiny!r}")
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
        return parabolic_gain(self.tx_diameter_m, self.tx_efficiency, self.wavelength_m)

    @property
    def rx_gain(self) -> float:
        return parabolic_gain(self.rx_diameter_m, self.rx_efficiency, self.wavelength_m)

    @property
    def noise_w(self) -> float:
        return noise_power_w(self.bandwidth_hz, self.noise_figure_db)

    @property
    def p_ris_w(self) -> float:
        """Total consumption the surface must harvest."""
        return ris_power_consumption(self.power_model, self.m_s)


# (key, owning dataclass) in field order; these three keys are integers, every
# other key is a float
_INTEGER_KEYS = frozenset(("ris_rows", "ris_cols", "n_rectifiers"))
_CONFIG_KEYS = tuple(
    (f.name, Scenario) for f in fields(Scenario) if f.name != "power_model"
) + tuple((f.name, PowerModel) for f in fields(PowerModel))

KNOWN_KEYS = frozenset(key for key, _ in _CONFIG_KEYS)


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
    """Build a validated Scenario from a raw key/value mapping."""
    for key in mapping:
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown config key '{key}'")
    kwargs = {Scenario: {}, PowerModel: {}}
    for key, owner in _CONFIG_KEYS:
        if key in mapping:
            kwargs[owner][key] = parse_number(f"value for '{key}'", mapping[key],
                                              integer=key in _INTEGER_KEYS)
        elif owner is Scenario:
            raise ConfigError(f"missing required config key '{key}'")
    return Scenario(power_model=PowerModel(**kwargs[PowerModel]), **kwargs[Scenario])


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
        power_model=PowerModel(n_rectifiers=100, p_rectifier_w=0.0, p_chip_w=1e-6),
    )
    if changes:
        scenario = replace(scenario, **changes)
    return scenario


__all__ = [
    "SPEED_OF_LIGHT_M_S", "ConfigError", "PowerModel", "Scenario",
    "db", "dbm_to_watts",
    "noise_power_w", "parabolic_gain", "ris_power_consumption",
    "parse_config_text", "build_scenario", "load_scenario", "apply_overrides",
    "default_scenario",
    "KNOWN_KEYS",
]
