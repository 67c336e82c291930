"""Physical scenario description and configuration handling.

Everything downstream (geometry, link budget, placement search) reads its
parameters from a validated, immutable Scenario. All internal computation is
in SI units (watts, meters, radians, hertz); dB and dBm appear only at the
configuration and reporting boundaries.

The config keys are written nowhere but in the dataclass: each field declares
its key's closed range, which Scenario checks on construction, the key table
is read from the fields in their order, and a key is required exactly when
its field has no default. read_input_file is the one reader of config and
sites files, key_value the one splitter of `key = value` text (file lines and
overrides alike), and parse_number the one place where user text becomes a
number.
The ranges keep every quantity that the link budget and the placement search
form inside the normal floats, so no later layer guards against over- or
underflow.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cached_property
from itertools import chain

SPEED_OF_LIGHT_M_S = 299_792_458.0
MAX_SURFACE_ELEMENTS = 1_000_000
# config and sites files are read up to this many characters, 1 MiB of ASCII
MAX_INPUT_CHARS = 1 << 20


class ConfigError(ValueError):
    """Raised for unparsable, missing, unknown, or invalid configuration values."""


def range_error(label: str, value, lo, hi) -> ConfigError:
    """The one refusal of a value outside its closed range [lo, hi]."""
    return ConfigError(f"{label} = {format_value(value)} lies outside its range "
                       f"[{format_value(lo)}, {format_value(hi)}]")


def db(x):
    """Linear power ratio to dB: -inf for 0; a negative ratio raises ValueError."""
    return 10.0 * math.log10(x) if x != 0.0 else -math.inf


# closed ranges [lo, hi] that several keys share, in their SI units
_LENGTH_M = (1e-9, 1e9)
_POWER_W = (0.0, 1e9)


def _key(lo, hi, default=MISSING):
    """A config key's field, declaring the closed range [lo, hi] of its value."""
    return field(default=default, metadata={"range": (lo, hi)})


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

    carrier_frequency_hz: float = _key(1e6, 1e13)            # f
    transmit_power_w: float = _key(1e-15, 1e9)               # P_t
    bandwidth_hz: float = _key(1.0, 1e13)                    # W
    noise_figure_db: float = _key(-100.0, 100.0)             # F_dB
    tx_diameter_m: float = _key(1e-3, 1e3)                   # D_t
    rx_diameter_m: float = _key(1e-3, 1e3)                   # D_r
    tx_efficiency: float = _key(1e-6, 1.0)                   # e_t
    rx_efficiency: float = _key(1e-6, 1.0)                   # e_r
    tx_height_m: float = _key(*_LENGTH_M)                    # h_t
    rx_height_m: float = _key(*_LENGTH_M)                    # h_r
    ris_height_m: float = _key(*_LENGTH_M)                   # h_s
    txrx_horizontal_m: float = _key(*_LENGTH_M)              # r_h
    lateral_offset_m: float = _key(*_LENGTH_M)               # y_s
    ris_rows: int = _key(1, MAX_SURFACE_ELEMENTS)            # M_x
    ris_cols: int = _key(1, MAX_SURFACE_ELEMENTS)            # M_y
    element_dx_m: float = _key(1e-9, 1e3)                    # d_x
    element_dy_m: float = _key(1e-9, 1e3)                    # d_y
    conversion_efficiency: float = _key(1e-9, 1.0 - 2.0 ** -53)  # RF-to-DC; 1 would reflect nothing
    p_static_w: float = _key(*_POWER_W, default=0.0)         # chip power holding a configuration
    p_dynamic_w: float = _key(*_POWER_W, default=0.0)        # chip power while reconfiguring
    reconfig_fraction: float = _key(0.0, 1.0, default=0.0)   # fraction of time reconfiguring
    n_rectifiers: int = _key(1, 1_000_000, default=1)        # rectifiers on the corporate network
    p_rectifier_w: float = _key(*_POWER_W, default=0.0)      # consumption of one rectifier
    p_chip_w: float | None = _key(*_POWER_W, default=None)   # per-element override, wins if set

    def __post_init__(self):
        for key, (lo, hi) in KEY_RANGES.items():
            value = getattr(self, key)
            # None is an unset p_chip_w
            if value is not None and not lo <= value <= hi:
                raise range_error(key, value, lo, hi)
        for name in INTEGER_KEYS:
            if int(getattr(self, name)) != getattr(self, name):
                raise ConfigError(f"{name} must be an integer")
        # every per-element array is sized by this
        if self.m_s > MAX_SURFACE_ELEMENTS:
            raise ConfigError(f"the surface has {self.m_s} elements, more than {MAX_SURFACE_ELEMENTS}")
        # d_l runs over ris_cols: the lowest elements sit this far below the center
        half_aperture_m = (self.ris_cols - 1) / 2.0 * self.element_dy_m
        if self.ris_height_m <= half_aperture_m:
            raise ConfigError(f"ris_height_m must exceed the surface's lower half-aperture "
                              f"{format_value(half_aperture_m)} m, or the surface reaches below ground")
        lam = self.wavelength_m
        for name in ("tx_diameter_m", "rx_diameter_m"):
            if getattr(self, name) / lam < 10.0:
                warnings.warn(
                    f"{name} is below 10 wavelengths; the parabolic gain "
                    "formula assumes an electrically large dish",
                    stacklevel=2,
                )

    # derived once per instance; dataclasses.replace builds one with an empty cache
    @cached_property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT_M_S / self.carrier_frequency_hz

    @cached_property
    def m_s(self) -> int:
        """Number of reflective elements."""
        return self.ris_rows * self.ris_cols

    @cached_property
    def tx_gain(self) -> float:
        """Peak gain of the parabolic TX dish, e * (pi * D / lambda)^2 (valid
        for D >> lambda, hence the warning below 10 wavelengths)."""
        return self.tx_efficiency * (math.pi * self.tx_diameter_m / self.wavelength_m) ** 2

    @cached_property
    def rx_gain(self) -> float:
        return self.rx_efficiency * (math.pi * self.rx_diameter_m / self.wavelength_m) ** 2

    @cached_property
    def noise_w(self) -> float:
        """Thermal noise power in watts, from the dBm form -174 + 10*log10(W)
        + F_dB (thermal floor at 290 K plus receiver noise figure)."""
        sigma2_dbm = -174.0 + 10.0 * math.log10(self.bandwidth_hz) + self.noise_figure_db
        return 10.0 ** ((sigma2_dbm - 30.0) / 10.0)

    @cached_property
    def chip_power_w(self) -> float:
        """Effective per-element chip consumption."""
        if self.p_chip_w is not None:
            return self.p_chip_w
        return self.p_static_w + self.reconfig_fraction * self.p_dynamic_w

    @cached_property
    def p_ris_w(self) -> float:
        """Total consumption the surface must harvest: one chip per element
        plus the rectifiers."""
        return self.m_s * self.chip_power_w + self.n_rectifiers * self.p_rectifier_w


# in field order, so the first key out of range is named; int fields are integer keys
KEY_RANGES = {f.name: f.metadata["range"] for f in fields(Scenario)}
INTEGER_KEYS = tuple(f.name for f in fields(Scenario) if f.type == "int")


def key_value(label: str, item: str) -> tuple[str, str]:
    """Split one `key = value` item into its stripped key and value.

    A missing `=` or an empty value is a ConfigError that starts with `label`.
    """
    if "=" not in item:
        raise ConfigError(f"{label}: expected 'key = value', got {item!r}")
    key, value = (part.strip() for part in item.split("=", 1))
    if not value:
        raise ConfigError(f"{label}: empty value for '{key}'")
    return key, value


def key_value_lines(text: str):
    """Yield (label, key, value) for every `key = value` line of text, the
    label `line N` with N counted from 1.

    `#` starts a comment and blank lines are skipped; any other line is split
    by key_value, and a key already on an earlier line is a ConfigError.
    """
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        label = f"line {lineno}"
        key, value = key_value(label, line)
        if key in seen:
            raise ConfigError(f"{label}: duplicate key '{key}'")
        seen.add(key)
        yield label, key, value


def parse_config_text(text: str, overrides=()) -> dict[str, str]:
    """Parse the flat `key = value` format into a raw string mapping, then
    apply the `KEY=VALUE` override items on top in order, the last one winning.

    Every key, in the text or an override, must be a config key.
    """
    mapping: dict[str, str] = {}
    items = (("--override", *key_value("--override", item)) for item in overrides)
    for label, key, value in chain(key_value_lines(text), items):
        if key not in KEY_RANGES:
            raise ConfigError(f"{label}: unknown config key '{key}'")
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
                                          integer=f.name in INTEGER_KEYS)
        elif f.default is MISSING:
            raise ConfigError(f"missing required config key '{f.name}'")
    return Scenario(**kwargs)


def load_scenario(path, overrides=()) -> Scenario:
    """Load and validate a scenario from a flat `key = value` config file,
    with `KEY=VALUE` override strings applied on top."""
    return build_scenario(parse_config_text(read_input_file(path, "config"), overrides))


def read_input_file(path, kind: str) -> str:
    """A config or sites file's text, less a leading UTF-8 byte-order mark; at
    most MAX_INPUT_CHARS + 1 characters are read."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read(MAX_INPUT_CHARS + 1)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {kind} file {path}: {exc}") from None
    if len(text) > MAX_INPUT_CHARS:
        raise ConfigError(f"{kind} file {path} is longer than {MAX_INPUT_CHARS} characters")
    return text


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
    "parse_config_text", "build_scenario", "load_scenario", "default_scenario",
    "KEY_RANGES", "INTEGER_KEYS", "range_error",
]
