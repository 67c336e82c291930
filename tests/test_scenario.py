"""Config parsing, unit conversions, antenna/noise models, consumption arithmetic."""

import math
import re
import sys
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risharvest.geometry import center_distances
from risharvest.link import harvest_ceiling, incident_power, snr_cophased
from risharvest.optimizer import evaluate_placement, placement_objective, solve_placement
from risharvest.scenario import (
    KEY_RANGES,
    KNOWN_KEYS,
    SPEED_OF_LIGHT_M_S,
    ConfigError,
    Scenario,
    apply_overrides,
    build_scenario,
    db,
    default_scenario,
    format_value,
    key_value_lines,
    load_scenario,
    parse_config_text,
    parse_number,
)


# ---------------------------------------------------------------- conversions


def test_db_roundtrip():
    assert db(1.0) == 0.0
    assert db(100.0) == pytest.approx(20.0, rel=1e-15)


# ---------------------------------------------------------------- noise model


def noise_power_w(bandwidth_hz, noise_figure_db):
    return default_scenario(bandwidth_hz=bandwidth_hz, noise_figure_db=noise_figure_db).noise_w


def test_noise_floor_1hz_0db():
    # log term vanishes, leaving the thermal floor
    w = noise_power_w(1.0, 0.0)
    assert w == pytest.approx(3.9810717055349695e-21, rel=1e-12)
    assert db(w) + 30.0 == pytest.approx(-174.0, abs=1e-9)


def test_noise_2ghz_10db():
    w = noise_power_w(2e9, 10.0)
    assert db(w) + 30.0 == pytest.approx(-70.98970004336019, abs=1e-9)
    assert w == pytest.approx(7.962143411069939e-11, rel=1e-12)


def test_noise_plus_3db_doubles():
    lo = noise_power_w(2e9, 10.0)
    hi = noise_power_w(2e9, 13.0)
    # +3 dB is a factor 10^0.3; "doubling" in the engineering sense
    assert hi / lo == pytest.approx(10 ** 0.3, rel=1e-12)
    assert hi / lo == pytest.approx(2.0, rel=5e-3)


@given(
    w=st.floats(min_value=1.0, max_value=1e11),
    f=st.floats(min_value=0.0, max_value=30.0),
)
def test_noise_linear_in_bandwidth(w, f):
    assert noise_power_w(2 * w, f) == pytest.approx(2 * noise_power_w(w, f), rel=1e-12)


@given(
    w=st.floats(min_value=1.0, max_value=1e11),
    f1=st.floats(min_value=0.0, max_value=30.0),
    f2=st.floats(min_value=0.0, max_value=30.0),
)
def test_noise_monotone_in_figure(w, f1, f2):
    lo, hi = sorted((f1, f2))
    assert noise_power_w(w, lo) <= noise_power_w(w, hi) * (1 + 1e-12)


# ------------------------------------------------------------- antenna gains


def parabolic_gain(diameter_m, efficiency, wavelength_m):
    # the TX dish of a scenario at the carrier of that wavelength
    return default_scenario(tx_diameter_m=diameter_m, tx_efficiency=efficiency,
                            carrier_frequency_hz=SPEED_OF_LIGHT_M_S / wavelength_m).tx_gain


@pytest.mark.filterwarnings("ignore:.*below 10 wavelengths:UserWarning")
def test_parabolic_unit_argument():
    lam = 0.0107068735
    assert parabolic_gain(lam / math.pi, 1.0, lam) == pytest.approx(1.0, rel=1e-12)


def test_parabolic_gain_28ghz():
    lam = SPEED_OF_LIGHT_M_S / 28e9
    g = parabolic_gain(0.3, 0.7, lam)
    assert g == pytest.approx(5423.940936437753, rel=1e-12)
    assert g == pytest.approx(5.42e3, rel=1e-3)
    assert db(g) == pytest.approx(37.3, abs=0.05)


def test_parabolic_gain_quadratic_in_diameter():
    lam = SPEED_OF_LIGHT_M_S / 28e9
    small = parabolic_gain(0.2, 0.7, lam)
    assert parabolic_gain(0.4, 0.7, lam) / small == pytest.approx(4.0, rel=1e-15)


def test_small_dish_scenario_warns():
    lam = SPEED_OF_LIGHT_M_S / 28e9
    with pytest.warns(UserWarning, match="tx_diameter_m"):
        default_scenario(tx_diameter_m=9.9 * lam)


# --------------------------------------------------------- power consumption
# on the default scenario's 2,500 elements


def test_consumption_zero():
    sc = default_scenario(p_chip_w=0.0, n_rectifiers=100, p_rectifier_w=0.0)
    assert sc.p_ris_w == 0.0


def test_consumption_table_point():
    sc = default_scenario(p_chip_w=1e-6, n_rectifiers=100, p_rectifier_w=0.0)
    assert sc.p_ris_w == pytest.approx(2.5e-3, rel=1e-15)


def test_consumption_static_dynamic_average():
    sc = default_scenario(
        p_static_w=0.2e-6,
        p_dynamic_w=8e-6,
        reconfig_fraction=0.1,
        n_rectifiers=100,
        p_rectifier_w=0.0,
        p_chip_w=None,
    )
    assert sc.chip_power_w == pytest.approx(1e-6, rel=1e-15)
    assert sc.p_ris_w == pytest.approx(2.5e-3, rel=1e-15)


def test_explicit_chip_power_overrides_average():
    sc = default_scenario(p_static_w=1.0, p_dynamic_w=1.0, reconfig_fraction=0.5, p_chip_w=2e-6)
    assert sc.chip_power_w == 2e-6


def test_rectifier_share():
    sc = default_scenario(p_chip_w=0.0, n_rectifiers=4, p_rectifier_w=0.5e-3)
    assert sc.p_ris_w == pytest.approx(2e-3, rel=1e-15)


# -------------------------------------------------------------- config files


def test_load_default_config(default_config_path):
    sc = load_scenario(default_config_path)
    assert sc.carrier_frequency_hz == 28e9
    assert sc.m_s == 2500
    assert sc.ris_rows == 50 and sc.ris_cols == 50
    assert sc.p_ris_w == pytest.approx(2.5e-3, rel=1e-15)


def test_default_scenario_matches_config(default_config_path):
    assert load_scenario(default_config_path) == default_scenario()


def test_lateral_offset_zero_rejected(default_config_path):
    text = default_config_path.read_text().replace(
        "lateral_offset_m = 5.0", "lateral_offset_m = 0.0"
    )
    with pytest.raises(ConfigError, match="lateral_offset_m"):
        build_scenario(parse_config_text(text))


def test_missing_required_key(default_config_path):
    lines = [
        ln
        for ln in default_config_path.read_text().splitlines()
        if not ln.startswith("transmit_power_w")
    ]
    with pytest.raises(ConfigError, match="transmit_power_w"):
        build_scenario(parse_config_text("\n".join(lines)))


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="mystery"):
        parse_config_text("mystery = 1.0\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("transmit_power_w = 1\ntransmit_power_w = 2\n")


def test_bad_number_names_key(default_config_path):
    text = default_config_path.read_text().replace(
        "transmit_power_w = 1.0", "transmit_power_w = banana"
    )
    with pytest.raises(ConfigError, match="transmit_power_w"):
        build_scenario(parse_config_text(text))


def test_malformed_line_reports_lineno():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("# ok\nthis line has no equals sign\n")


def test_key_value_lines_tokens():
    text = "# header\n\n a = 1 # note\nb=x = y\n"
    assert list(key_value_lines(text)) == [(3, "a", "1"), (4, "b", "x = y")]
    with pytest.raises(ConfigError, match="^line 2: expected 'key = value', got 'oops'$"):
        list(key_value_lines("a = 1\noops\n"))


def test_format_value_renders_each_type():
    values = (True, False, 50, 0.1, 1e-06, float("-inf"), None)
    assert [format_value(v) for v in values] == [
        "true", "false", "50", "0.1", "1e-06", "-inf", "none",
    ]
    assert format_value(None, none="") == ""


def test_parse_number_refusals_start_with_label():
    assert parse_number("x", " 2.5 ") == 2.5
    assert parse_number("x", "50.0", integer=True) == 50
    assert type(parse_number("x", "5e1", integer=True)) is int
    for text, reason in [("abc", "is not a number"), ("", "is not a number"),
                         ("nan", "must be finite"), ("-inf", "must be finite"),
                         ("1e400", "must be finite")]:
        with pytest.raises(ConfigError, match=f"^value for 'k' {reason}: "):
            parse_number("value for 'k'", text)
    with pytest.raises(ConfigError, match="^value for 'k' must be an integer: '2.5'$"):
        parse_number("value for 'k'", "2.5", integer=True)


def test_comments_and_inline_comments(default_config_path, scenario):
    text = "# header\n" + default_config_path.read_text() + "\n\n# trailing\n"
    text = text.replace("transmit_power_w = 1.0", "transmit_power_w = 1.0  # watts")
    assert build_scenario(parse_config_text(text)) == scenario


def _as_mapping(config_path):
    return parse_config_text(config_path.read_text())


def test_apply_overrides(default_config_path):
    merged = apply_overrides(_as_mapping(default_config_path), ["lateral_offset_m=7.5", "p_chip_w=2e-6"])
    built = build_scenario(merged)
    assert built.lateral_offset_m == 7.5
    assert built.chip_power_w == 2e-6


def test_override_unknown_key_rejected(default_config_path):
    with pytest.raises(ConfigError):
        apply_overrides(_as_mapping(default_config_path), ["nope=1"])


def test_override_missing_equals(default_config_path):
    with pytest.raises(ConfigError):
        apply_overrides(_as_mapping(default_config_path), ["lateral_offset_m"])


finite_pos = st.floats(min_value=1e-9, max_value=1e9, allow_nan=False)


@settings(max_examples=60)
@given(
    y_s=finite_pos,
    p_t=finite_pos,
    eps=st.floats(min_value=1e-6, max_value=1.0, exclude_max=True),
    rows=st.integers(min_value=1, max_value=200),
)
def test_roundtrip_property(default_config_path, y_s, p_t, eps, rows):
    # values written with repr, as every emitted number is, load back bit-exact
    sc = default_scenario(
        lateral_offset_m=y_s,
        transmit_power_w=p_t,
        conversion_efficiency=eps,
        ris_rows=rows,
    )
    overrides = [f"lateral_offset_m={format_value(y_s)}", f"transmit_power_w={format_value(p_t)}",
                 f"conversion_efficiency={format_value(eps)}", f"ris_rows={format_value(rows)}"]
    assert build_scenario(apply_overrides(_as_mapping(default_config_path), overrides)) == sc


# ----------------------------------------------------------------- scenario


def test_scenario_validation_messages():
    with pytest.raises(ConfigError, match="transmit_power_w"):
        default_scenario(transmit_power_w=-1.0)
    with pytest.raises(ConfigError, match="ris_rows"):
        default_scenario(ris_rows=0)
    with pytest.raises(ConfigError, match="^n_rectifiers must be an integer$"):
        default_scenario(n_rectifiers=1.5)
    with pytest.raises(ConfigError, match="conversion_efficiency"):
        default_scenario(conversion_efficiency=1.5)
    with pytest.raises(ConfigError, match="txrx_horizontal_m"):
        default_scenario(txrx_horizontal_m=0.0)


def test_surface_must_stay_above_ground():
    # three columns 1 m apart: the lowest elements sit 1 m below the center
    with pytest.raises(ConfigError, match="below ground"):
        default_scenario(ris_cols=3, element_dy_m=1.0, ris_height_m=1.0)
    assert default_scenario(ris_cols=3, element_dy_m=1.0, ris_height_m=1.001).ris_height_m == 1.001
    # a single column has no vertical extent
    assert default_scenario(ris_cols=1, element_dy_m=100.0, ris_height_m=0.01).m_s == 50


def test_scenario_derived_quantities(scenario):
    assert scenario.wavelength_m == pytest.approx(SPEED_OF_LIGHT_M_S / 28e9, rel=1e-15)
    assert scenario.m_s == 2500
    assert scenario.tx_gain == pytest.approx(5423.940936437753, rel=1e-12)
    assert scenario.rx_gain == scenario.tx_gain
    assert scenario.noise_w == pytest.approx(7.962143411069939e-11, rel=1e-12)
    assert scenario.p_ris_w == pytest.approx(2.5e-3, rel=1e-15)


def test_scenario_frozen(scenario):
    with pytest.raises(AttributeError):
        scenario.transmit_power_w = 2.0


# -------------------------------------------------------------- config ranges

def _with_value(key, value):
    # one element 1 nm tall: no range end of a size or a height puts the
    # surface below ground or over the element cap
    base = default_scenario(ris_rows=1, ris_cols=1, element_dy_m=1e-9)
    return replace(base, **{key: value})


@pytest.mark.filterwarnings("ignore:.*below 10 wavelengths:UserWarning")
def test_every_key_has_a_closed_range():
    assert set(KEY_RANGES) == KNOWN_KEYS
    for key, (lo, hi) in KEY_RANGES.items():
        for value in (lo, hi):
            assert getattr(_with_value(key, value), key) == value
        bounds = re.escape(f"[{format_value(lo)}, {format_value(hi)}]")
        for value in (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)):
            message = f"^{key} = {re.escape(format_value(value))} lies outside its range {bounds}$"
            with pytest.raises(ConfigError, match=message):
                _with_value(key, value)


def _range_values(lo, hi):
    """A key's low end, its high end, or a value between: log-uniform for a
    range above 0, hypothesis's spread of floats for one that reaches 0."""
    if lo > 0:
        between = st.floats(math.log(lo), math.log(hi)).map(lambda u: min(max(math.exp(u), lo), hi))
    else:
        between = st.floats(lo, hi)
    if isinstance(lo, int):
        between = between.map(round)
    return st.sampled_from((lo, hi)) | between


def _normal(x):
    return sys.float_info.min <= x < math.inf


_RANGE_BOX = st.fixed_dictionaries(
    {key: _range_values(lo, hi) for key, (lo, hi) in KEY_RANGES.items()}
    | {"p_chip_w": st.none() | _range_values(*KEY_RANGES["p_chip_w"])}
)


@settings(max_examples=300, deadline=None)
@given(_RANGE_BOX, st.floats(-1e9, 1e9))
def test_range_box_stays_in_the_normal_floats(values, site_r1h_m):
    # every quantity the range checks replaced a guard for stays a finite,
    # normal float, and a solve raises no RuntimeWarning (an error here)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # small dishes
            sc = Scenario(**values)
    except ConfigError as exc:
        # the two rules the ranges leave in place
        assert re.search("elements, more than|below ground", str(exc))
        return
    lam4pi2 = (sc.wavelength_m / (4.0 * math.pi)) ** 2
    r1_0, _ = center_distances(0.0, sc)
    assert _normal(sc.noise_w)
    assert _normal(sc.transmit_power_w * sc.tx_gain * lam4pi2)
    assert _normal(harvest_ceiling(r1_0, sc))
    assert math.isfinite(sc.txrx_horizontal_m ** 2)
    assert math.isfinite(((sc.ris_rows - 1) * sc.element_dx_m) ** 2)
    assert math.isfinite(((sc.ris_cols - 1) * sc.element_dy_m) ** 2)

    placements = [site_r1h_m]
    try:
        sol = solve_placement(sc)
    except ValueError as exc:
        assert "coarse placement scan" in str(exc)
    else:
        if sol.feasible:
            assert placement_objective(0.0, sol.p_ris_w, sc) > 0.0
            placements.append(sol.r1h_opt_m)
    for r1h in placements:
        if not evaluate_placement(sc, r1h).feasible:
            continue
        # the SNR's partial products, in the order link forms them
        r1, r2 = center_distances(r1h, sc)
        hop1 = incident_power(r1, sc)
        hop2_gain = lam4pi2 * sc.rx_gain * 4.0 * (sc.lateral_offset_m / r2)
        hop2 = hop2_gain / r2 ** 2
        partials = (lam4pi2 * sc.transmit_power_w, hop1, hop2_gain, hop2, hop1 * hop2,
                    hop1 * hop2 / sc.noise_w, snr_cophased(r1h, 1.0, sc))
        assert all(_normal(x) for x in partials), (r1h, partials)
