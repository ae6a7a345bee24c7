import pytest

from frontshift.config import ConfigError, parse_config

BASE = {
    "dimension": 2,
    "metric": [["1", "0"], ["0", "1"]],
    "force": ["0", "0"],
}


def _merged(**overrides):
    data = {k: v for k, v in BASE.items()}
    data.update(overrides)
    return data


def test_minimal_config_gets_defaults():
    cfg = parse_config(_merged())
    assert cfg.integrator.step == 1e-3
    assert cfg.integrator.t_end == 1.0
    assert cfg.integrator.output_every == 10
    assert cfg.sampler.v_min == 0.5
    assert cfg.sampler.count == 500
    assert cfg.rank.variations == 5
    assert cfg.rank.window == (0.2, 1.0)
    assert cfg.tolerance == 1e-8
    man, force = cfg.build()
    assert man.dimension == 2


def test_rank_window_default_scales_with_t_end():
    cfg = parse_config(_merged(integrator={"step": 0.001, "t_end": 0.5}))
    assert cfg.rank.window == (0.1, 0.5)


def test_config_echo_round_trips():
    data = _merged(
        blowup={"p0": [0, 0], "nu": "1 + 0.5*sin(u1)", "resolution": 16},
        shift={"surface": ["sin(u1)", "cos(u1)"],
               "box": [[0.0, 6.283185307179586]], "nu": 1.0,
               "resolution": 16},
    )
    cfg = parse_config(data)
    again = parse_config(cfg.echo())
    assert again == cfg


def test_metric_syntax_error_carries_field_path():
    data = _merged(metric=[["1", "x1*"], ["x1*", "1"]])
    with pytest.raises(ConfigError) as info:
        parse_config(data)
    message = str(info.value)
    assert message.startswith("metric[0][1]: syntax error at byte 3")


def test_metric_unknown_identifier_path():
    data = _merged(metric=[["1", "0"], ["0", "v1"]])
    with pytest.raises(ConfigError) as info:
        parse_config(data)
    assert str(info.value).startswith("metric[1][1]: unknown identifier 'v1'")


def test_asymmetric_metric_rejected():
    data = _merged(metric=[["1", "x1"], ["0", "1"]])
    with pytest.raises(ConfigError) as info:
        parse_config(data)
    assert str(info.value).startswith("metric:")


def test_force_arity_and_path():
    with pytest.raises(ConfigError) as info:
        parse_config(_merged(force=["0"]))
    assert str(info.value).startswith("force:")
    with pytest.raises(ConfigError) as info:
        parse_config(_merged(force=["0", "u1"]))
    assert str(info.value).startswith("force[1]:")


def test_dimension_bounds():
    for bad in (1, 5, "2"):
        with pytest.raises(ConfigError):
            parse_config(_merged(dimension=bad))


def test_integrator_validation():
    with pytest.raises(ConfigError) as info:
        parse_config(_merged(integrator={"step": 0.0}))
    assert "integrator.step" in str(info.value)
    with pytest.raises(ConfigError) as info:
        parse_config(_merged(integrator={"step": 0.001, "t_end": 0.0015}))
    assert "integrator.t_end" in str(info.value)


def test_sampler_validation():
    with pytest.raises(ConfigError):
        parse_config(_merged(sampler={"v_min": 0.0}))
    with pytest.raises(ConfigError):
        parse_config(_merged(sampler={"v_min": 2.0, "v_max": 1.0}))
    with pytest.raises(ConfigError):
        parse_config(_merged(sampler={"count": 0}))
    with pytest.raises(ConfigError):
        parse_config(_merged(sampler={"x_box": [[1, -1], [-1, 1]]}))


def test_negative_seed_rejected():
    with pytest.raises(ConfigError) as info:
        parse_config(_merged(sampler={"seed": -1}))
    assert str(info.value).startswith("sampler.seed:")
    assert parse_config(_merged(sampler={"seed": 0})).sampler.seed == 0


def test_rank_validation():
    with pytest.raises(ConfigError) as info:
        parse_config(_merged(rank={"variations": 3}))
    assert str(info.value).startswith("rank.variations:")
    with pytest.raises(ConfigError):
        parse_config(_merged(rank={"window": [0.5, 0.2]}))
    with pytest.raises(ConfigError):
        parse_config(_merged(rank={"window": [0.0, 2.0]}))


def test_blowup_section_validation():
    with pytest.raises(ConfigError) as info:
        parse_config(_merged(blowup={"p0": [0, 0], "resolution": 4}))
    assert "blowup.resolution" in str(info.value)
    with pytest.raises(ConfigError):
        parse_config(_merged(blowup={"p0": [0, 0, 0]}))
    with pytest.raises(ConfigError):
        parse_config(_merged(blowup={"p0": [0, 0], "nu": -2.0}))
    with pytest.raises(ConfigError) as info:
        parse_config(_merged(blowup={"p0": [0, 0], "nu": "1 + u7"}))
    assert "blowup.nu" in str(info.value)


def test_shift_section_validation():
    good = {"surface": ["sin(u1)", "cos(u1)"], "box": [[0.0, 6.28]]}
    parse_config(_merged(shift=good))
    with pytest.raises(ConfigError):
        parse_config(_merged(shift={"surface": ["u1", "0"]}))
    with pytest.raises(ConfigError) as info:
        parse_config(_merged(shift={"surface": ["x1", "0"],
                                    "box": [[0.0, 1.0]]}))
    assert "shift.surface[0]" in str(info.value)


def test_unknown_top_level_key():
    with pytest.raises(ConfigError) as info:
        parse_config(_merged(metrics=[["1"]]))
    assert "unknown field" in str(info.value)
