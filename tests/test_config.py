import pytest

from penning_gyro.config import ConfigError, RunConfig, load_config, parse_config_text


def test_defaults():
    cfg = RunConfig()
    assert cfg.b_field_t == 1.0
    assert cfg.trap_voltage_v == 100.0
    assert cfg.n_crystal == 1000
    assert cfg.n_spins == 10000


def test_parse_values_and_comments():
    values = parse_config_text("""
    # comment line
    trap_voltage_v = 10.0   # inline comment
    n_crystal = 200
    """)
    assert values == {"trap_voltage_v": 10.0, "n_crystal": 200}


def test_parse_unknown_field_reports_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("trap_voltage_v = 10\nbogus = 1\n")


def test_parse_bad_number():
    with pytest.raises(ConfigError, match="n_crystal"):
        parse_config_text("n_crystal = lots\n")
    with pytest.raises(ConfigError, match="trap_voltage_v.*expects a number"):
        parse_config_text("trap_voltage_v = lots\n")
    # a number that is not finite is rejected by the record, naming the field
    with pytest.raises(ValueError, match="trap_voltage_v must be finite"):
        load_config(None, ["trap_voltage_v=inf"])


def test_parse_missing_equals():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just some words\n")


def test_load_config_override_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("trap_voltage_v = 10\nseed = 3\n")
    cfg = load_config(str(path), ["trap_voltage_v=50"])
    assert cfg.trap_voltage_v == 50.0
    assert cfg.seed == 3
    # each override is one more config line: later lines win
    assert load_config(None, ["seed = 4", "seed=5"]).seed == 5


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/run.cfg")


def test_wall_from_ratio():
    cfg = RunConfig()
    modes = cfg.modes()
    assert cfg.wall(modes).omega_r == pytest.approx(modes.omega_z)
    assert RunConfig(wall_ratio=1.2).wall(modes).omega_r == 1.2 * modes.omega_z


def test_invalid_trap_becomes_config_error():
    # a ValueError naming the field, which the CLI reports with exit 2
    with pytest.raises(ValueError, match="b_field"):
        RunConfig(b_field_t=-1.0).trap()
