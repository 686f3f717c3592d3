import json

import numpy as np
import pytest

from posgen.config import DEFAULT_TOLERANCES, MAX_GRID, RunConfig, subseed
from posgen.errors import SchemaError


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.tolerances == DEFAULT_TOLERANCES
        assert cfg.tol("predicate") == 1e-9
        assert cfg.t_grid == (0.1, 1.0, 10.0)
        assert cfg.format == "json"

    def test_partial_tolerances_merge(self):
        cfg = RunConfig(tolerances={"trace": 1e-8})
        assert cfg.tol("trace") == 1e-8
        assert cfg.tol("predicate") == DEFAULT_TOLERANCES["predicate"]

    def test_unknown_tolerance_rejected(self):
        with pytest.raises(SchemaError, match="unknown tolerance"):
            RunConfig(tolerances={"frobnitz": 1e-6})

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(SchemaError, match="positive"):
            RunConfig(tolerances={"trace": 0.0})

    def test_empty_grid_rejected(self):
        with pytest.raises(SchemaError, match="non-empty"):
            RunConfig(t_grid=())

    def test_negative_time_rejected(self):
        with pytest.raises(SchemaError, match="nonnegative"):
            RunConfig(t_grid=(-1.0,))

    def test_nonpositive_multiplier_rejected(self):
        with pytest.raises(SchemaError, match="positive"):
            RunConfig(lambda_multipliers=(0.0, 1.0))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", sorted(DEFAULT_TOLERANCES))
    def test_nonfinite_tolerance_rejected(self, name, value):
        with pytest.raises(SchemaError, match="finite"):
            RunConfig(tolerances={name: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["t_grid", "lambda_multipliers"])
    def test_nonfinite_grid_value_rejected(self, name, value):
        with pytest.raises(SchemaError, match="finite"):
            RunConfig(**{name: (1.0, value)})

    def test_nonfinite_values_in_json_rejected(self):
        # Python's json module reads bare NaN and Infinity
        payload = json.loads('{"t_grid": [NaN], "tolerances": {"trace": Infinity}}')
        with pytest.raises(SchemaError, match="finite"):
            RunConfig.from_json(payload)

    def test_bad_format_rejected(self):
        with pytest.raises(SchemaError, match="format"):
            RunConfig(format="yaml")

    def test_negative_count_rejected(self):
        with pytest.raises(SchemaError, match="samples"):
            RunConfig(samples=-1)

    @pytest.mark.parametrize("field,value", [
        ("seed", -1), ("seed", "3"), ("seed", float("nan")), ("seed", 3.0), ("seed", True),
        ("samples", 1.5), ("samples", True), ("samples", "2"),
    ])
    def test_ill_typed_count_or_seed_rejected(self, field, value):
        with pytest.raises(SchemaError, match=f"{field} must be an integer >= 0"):
            RunConfig(**{field: value})

    def test_sample_count_bound(self):
        # only the settings are checked here; no probe is drawn
        assert RunConfig(samples=10_000).samples == 10_000
        for value in (10_001, 10**20):
            with pytest.raises(SchemaError, match="samples must be at most 10000"):
                RunConfig(samples=value)

    @pytest.mark.parametrize("name", ["t_grid", "lambda_multipliers"])
    def test_grid_length_bound(self, name):
        assert len(getattr(RunConfig(**{name: [1.0] * MAX_GRID}), name)) == MAX_GRID
        with pytest.raises(SchemaError, match=f"{name} must have at most {MAX_GRID} values"):
            RunConfig(**{name: [1.0] * (MAX_GRID + 1)})

    @pytest.mark.parametrize("name", ["n_selfadjoint", "n_unitary", "n_states",
                                      "s_grid", "trace_t_grid"])
    def test_removed_field_rejected(self, name):
        with pytest.raises(SchemaError, match=rf"unknown field\(s\) \['{name}'\]"):
            RunConfig.from_json({name: [1.0] if name.endswith("grid") else 5})

    def test_six_fields(self):
        assert list(RunConfig().to_json()) == [
            "tolerances", "samples", "t_grid", "lambda_multipliers", "seed", "format"]

    @pytest.mark.parametrize("value", ["x", True, None, [1e-9]])
    def test_ill_typed_tolerance_rejected(self, value):
        with pytest.raises(SchemaError, match="tolerances must be numbers"):
            RunConfig(tolerances={"predicate": value})

    def test_tolerances_must_be_an_object(self):
        with pytest.raises(SchemaError, match="tolerances must be an object"):
            RunConfig.from_json({"tolerances": 5})

    @pytest.mark.parametrize("value", [5, "ab", ["a"], [True], [None], {"t": 1.0}])
    def test_ill_typed_grid_rejected(self, value):
        with pytest.raises(SchemaError, match="t_grid must be a list of numbers"):
            RunConfig.from_json({"t_grid": value})

    def test_integral_settings_stored_as_int(self):
        cfg = RunConfig(seed=np.int64(3), samples=np.int32(4))
        assert type(cfg.seed) is int and type(cfg.samples) is int
        assert json.dumps(cfg.to_json())

    def test_grids_coerced_to_floats(self):
        cfg = RunConfig(t_grid=[1, 2])
        assert cfg.t_grid == (1.0, 2.0)
        assert all(isinstance(v, float) for v in cfg.t_grid)

    def test_unknown_tol_name_in_accessor(self):
        with pytest.raises(KeyError):
            RunConfig().tol("nope")

    def test_replace(self):
        cfg = RunConfig().replace(seed=5)
        assert cfg.seed == 5
        assert RunConfig().seed == 0

    def test_json_round_trip(self):
        cfg = RunConfig(seed=3, tolerances={"trace": 1e-7},
                        t_grid=(0.5, 5.0))
        again = RunConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_from_json_unknown_field(self):
        with pytest.raises(SchemaError, match="unknown field"):
            RunConfig.from_json({"seed": 1, "extra": 2})


class TestSubseed:
    def test_deterministic(self):
        assert subseed(3, 17, 4) == subseed(3, 17, 4)

    def test_distinct_streams(self):
        seen = {subseed(0, 17, i) for i in range(100)}
        assert len(seen) == 100

    def test_returns_plain_int(self):
        assert type(subseed(1, 2)) is int
