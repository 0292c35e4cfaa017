"""Property tests of the validated constructors: every valid draw constructs,
and any one field set to NaN, +-inf or a value out of its range raises."""

import math
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latomo.core import FanBeamGeometry, ParameterError
from latomo.driver import ALGORITHMS, ReconConfig
from latomo.tv import LineSearchParams

NON_FINITE = [math.nan, math.inf, -math.inf]
PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)


def finite(low, high, **kwargs):
    return st.floats(low, high, allow_nan=False, allow_infinity=False, **kwargs)


@st.composite
def geometries(draw, centred=False):
    """A valid scan; ``centred`` keeps its middle view within 35 degrees of
    90, as ssatv1 and ssatv2 need."""
    source_to_isocenter = draw(finite(1.0, 1e4))
    increment = draw(finite(1e-3, 30.0))
    if centred:
        # rounding may drop the last view, which moves the middle by <= 15
        span = increment * draw(st.integers(0, 200))
        start = draw(finite(70.0, 110.0)) - span / 2
    else:
        span = draw(finite(0.0, 720.0))
        start = draw(finite(-720.0, 720.0))
    return FanBeamGeometry(
        source_to_detector=source_to_isocenter * draw(finite(1.0, 10.0, exclude_min=True)),
        source_to_isocenter=source_to_isocenter,
        detector_channels=draw(st.integers(1, 4096)),
        channel_size=draw(finite(1e-3, 10.0)),
        angle_start=start,
        angle_end=start + span,
        angle_increment=increment,
    )


line_searches = st.builds(
    LineSearchParams,
    alpha=finite(0.0, 0.5, exclude_min=True, exclude_max=True),
    beta=finite(0.0, 1.0, exclude_min=True, exclude_max=True),
    t0=finite(0.0, 1.0, exclude_min=True),
    max_shrinks=st.integers(0, 100),
)


@st.composite
def recon_configs(draw):
    algorithm = draw(st.sampled_from(ALGORITHMS))
    levels = 1 if algorithm in ("sart", "wtv") else draw(st.integers(1, 5))
    budgets = None if algorithm == "sart" else draw(
        st.none() | st.lists(st.integers(1, 6), min_size=levels,
                             max_size=levels).map(tuple))
    if budgets is not None:
        tv_steps = sum(budgets)
    elif levels == 1:
        tv_steps = draw(st.integers(1, 50))
    else:
        tv_steps = 10  # the built-in budgets
    # ssatv2 keeps at least 2 rows at its coarsest scale
    height = draw(st.integers(2 ** (levels - 1) + 1, 2048))
    return ReconConfig(
        algorithm=algorithm,
        geometry=draw(geometries(centred=algorithm in ("ssatv1", "ssatv2"))),
        width=draw(st.integers(1, 2048)),
        height=height,
        pixel_size=draw(finite(1e-3, 10.0)),
        relaxation=draw(finite(0.0, 1.0, exclude_min=True)),
        eps_hu=draw(finite(1e-6, 1e3)),
        tv_steps=tv_steps,
        levels=levels,
        budgets=budgets,
        line_search=draw(line_searches),
        iterations=draw(st.integers(1, 1000)),
    )


def fields(obj):
    return {name: value for name, value in asdict(obj).items()
            if name not in ("geometry", "line_search")}


def rebuild(cls, obj, **change):
    kwargs = dict(fields(obj), **change)
    if cls is ReconConfig:
        kwargs.update(geometry=obj.geometry, line_search=obj.line_search)
    return cls(**kwargs)


# field -> values out of its range, beyond NaN and +-inf; counts also get a
# non-integral value
GEOMETRY_BAD = {
    "source_to_detector": [0.0, -1.0],  # and below source_to_isocenter
    "source_to_isocenter": [0.0, -1.0],
    "detector_channels": [0, -3, 2.5],
    "channel_size": [0.0, -1.0],
    "angle_start": [],  # above angle_end: drawn below
    "angle_end": [],
    "angle_increment": [0.0, -1.0],
}
LINE_SEARCH_BAD = {
    "alpha": [0.0, 0.5, -0.1],
    "beta": [0.0, 1.0, 1.5],
    "t0": [0.0, -1.0],
    "max_shrinks": [-1, 2.5, True],
}
RECON_BAD = {
    "algorithm": ["magic", ""],
    "width": [0, -1, 2.5],
    "height": [0, -1, 2.5],
    "pixel_size": [0.0, -1.0],
    "relaxation": [0.0, 1.5, -0.5],
    "eps_hu": [0.0, -1.0],
    "tv_steps": [0, -1, 2.5],
    "levels": [0, 6, 2.5],
    "iterations": [0, -1, 2.5],
}
# ParameterError names other than the field's own: make_scale_schedule checks levels
RECON_NAMES = {"levels": {"levels", "l_max"}}


@PROPERTY
@given(geometries())
def test_valid_geometry_constructs(geom):
    assert geom.num_views >= 1
    assert math.isfinite(geom.fov_radius) and geom.fov_radius > 0


@PROPERTY
@given(geometries(), st.sampled_from(sorted(GEOMETRY_BAD)), st.data())
def test_geometry_rejects_any_bad_field(geom, name, data):
    value = data.draw(st.sampled_from(NON_FINITE + GEOMETRY_BAD[name]))
    if name == "source_to_detector" and value == 0.0:
        value = geom.source_to_isocenter  # not beyond the isocenter
    if name == "angle_start" and value == -math.inf:
        value = geom.angle_end + 1.0
    if name == "angle_end" and value == math.inf:
        value = geom.angle_start - 1.0
    with pytest.raises(ValueError):
        rebuild(FanBeamGeometry, geom, **{name: value})


@PROPERTY
@given(line_searches)
def test_valid_line_search_constructs(params):
    assert params.max_shrinks >= 0


@PROPERTY
@given(line_searches, st.sampled_from(sorted(LINE_SEARCH_BAD)), st.data())
def test_line_search_rejects_any_bad_field_by_name(params, name, data):
    value = data.draw(st.sampled_from(NON_FINITE + LINE_SEARCH_BAD[name]))
    with pytest.raises(ParameterError) as info:
        rebuild(LineSearchParams, params, **{name: value})
    assert info.value.name == name


@PROPERTY
@given(recon_configs())
def test_valid_recon_config_constructs(cfg):
    assert cfg.schedule().entries[-1][0] == 1


@PROPERTY
@given(recon_configs(), st.sampled_from(sorted(RECON_BAD)), st.data())
def test_recon_config_rejects_any_bad_field_by_name(cfg, name, data):
    value = data.draw(st.sampled_from(NON_FINITE + RECON_BAD[name]))
    with pytest.raises(ParameterError) as info:
        rebuild(ReconConfig, cfg, **{name: value})
    assert info.value.name in RECON_NAMES.get(name, {name})
