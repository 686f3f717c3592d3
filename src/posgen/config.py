"""Run configuration shared by the report engine and the CLI."""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import SchemaError
from .matrixcore import DEFAULT_TOL, json_object

DEFAULT_TOLERANCES = {
    "predicate": DEFAULT_TOL,  # map-level verdicts (positivity, unitality, symmetry)
    "consistency": 1e-4,  # mixed-sign detection across equivalent conditions
    "trace": 1e-6,  # two-sided trace-preservation test
}

FORMATS = ("json", "text")

# The most probes of one class a run may ask for: 200 times the default.
MAX_SAMPLES = 10_000
# The most points a t_grid or a lambda_multipliers list may hold.  A
# transpose_mixing n = 8 report at 256 points peaks at about 0.25 GB (t_grid)
# or 0.5 GB (lambda_multipliers) at the default 50 samples.
MAX_GRID = 256


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    """Whether a real is finite as a float; an int too large for one is not."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def subseed(*parts) -> int:
    """Deterministic substream seed from a tuple of integers."""
    return int(np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1)[0])


@dataclass(frozen=True)
class RunConfig:
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    samples: int = 50  # self-adjoint probes, unitary probes and states each
    t_grid: tuple = (0.1, 1.0, 10.0)
    lambda_multipliers: tuple = (1.0, 10.0, 100.0)
    seed: int = 0
    format: str = "json"

    def __post_init__(self):
        if not isinstance(self.tolerances, dict):
            raise SchemaError("tolerances must be an object of named numbers")
        merged = dict(DEFAULT_TOLERANCES)
        merged.update(self.tolerances)
        unknown = merged.keys() - DEFAULT_TOLERANCES.keys()
        if unknown:
            raise SchemaError(f"unknown tolerance name(s): {sorted(unknown)}")
        if not all(map(_is_real, merged.values())):
            raise SchemaError("tolerances must be numbers")
        if not all(v > 0 and _is_finite(v) for v in merged.values()):
            raise SchemaError("all tolerances must be positive and finite")
        object.__setattr__(self, "tolerances", merged)
        for name in ("t_grid", "lambda_multipliers"):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)) or not all(map(_is_real, values)):
                raise SchemaError(f"{name} must be a list of numbers")
            if not all(map(_is_finite, values)):
                raise SchemaError(f"{name} values must be finite")
            grid = tuple(float(v) for v in values)
            if not grid:
                raise SchemaError(f"{name} must be non-empty")
            if len(grid) > MAX_GRID:
                raise SchemaError(f"{name} must have at most {MAX_GRID} values")
            object.__setattr__(self, name, grid)
        if min(self.t_grid) < 0:
            raise SchemaError("time grids must be nonnegative")
        if min(self.lambda_multipliers) <= 0:
            raise SchemaError("lambda multipliers must be positive")
        for name in ("samples", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 0:
                raise SchemaError(f"{name} must be an integer >= 0")
            object.__setattr__(self, name, int(value))
        if self.samples > MAX_SAMPLES:
            raise SchemaError(f"samples must be at most {MAX_SAMPLES}")
        if self.format not in FORMATS:
            raise SchemaError(f"format must be one of {FORMATS}")

    def tol(self, name: str) -> float:
        if name not in self.tolerances:
            raise KeyError(f"no tolerance named {name!r}")
        return self.tolerances[name]

    def replace(self, **kwargs) -> "RunConfig":
        return dataclasses.replace(self, **kwargs)

    def to_json(self) -> dict:
        return {
            "tolerances": {k: float(v) for k, v in sorted(self.tolerances.items())},
            "samples": self.samples,
            "t_grid": list(self.t_grid),
            "lambda_multipliers": list(self.lambda_multipliers),
            "seed": self.seed,
            "format": self.format,
        }

    def updated(self, payload) -> "RunConfig":
        """This config with the fields of a config payload; tolerances update by name."""
        fields = json_object(payload, "config", (), self.to_json())
        if isinstance(fields.get("tolerances"), dict):
            fields = {**fields, "tolerances": {**self.tolerances, **fields["tolerances"]}}
        return self.replace(**fields)

    @classmethod
    def from_json(cls, payload: dict) -> "RunConfig":
        return cls().updated(payload)
