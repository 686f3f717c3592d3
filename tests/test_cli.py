import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from posgen import cli, semigroup
from posgen.cli import main
from posgen.config import RunConfig
from posgen.instances import FAMILIES, dephasing, flip_nonpositive, random_lindblad
from posgen.matrixcore import mat_exp
from posgen.semigroup import GeneratorSpec, SemigroupHandle, build_superoperator
from posgen.superop import Superoperator

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def deph_file(tmp_path):
    path = tmp_path / "deph.json"
    path.write_text(json.dumps(dephasing(2).to_json()))
    return str(path)


@pytest.fixture
def flip_file(tmp_path):
    path = tmp_path / "flip.json"
    path.write_text(json.dumps(flip_nonpositive(2).to_json()))
    return str(path)


@pytest.fixture
def zero_file(tmp_path):
    spec = GeneratorSpec(
        kind="explicit", n=2, superop=Superoperator(2, np.zeros((4, 4), dtype=complex))
    )
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(spec.to_json()))
    return str(path)


@pytest.fixture
def plus_state_file(tmp_path):
    path = tmp_path / "plus.json"
    path.write_text(json.dumps({
        "n": 2,
        "re": [[0.5, 0.5], [0.5, 0.5]],
        "im": [[0.0, 0.0], [0.0, 0.0]],
    }))
    return str(path)


# recipes that fail validation, from both commands that build one
BAD_RECIPES = [
    (["instance", "dephasing", "-n", "1"], "needs n >= 2"),
    (["instance", "flip_nonpositive", "-n", "1"], "needs n >= 2"),
    (["fuzz", "dephasing", "1", "-n", "1"], "needs n >= 2"),
    (["instance", "lindblad", "-n", "2", "--ops", "-1"], "k >= 0"),
    (["instance", "lindblad", "-n", "2", "--scale", "-1"], "scale must be finite and > 0"),
    (["instance", "lindblad", "-n", "2", "--scale", "nan"], "scale must be finite and > 0"),
]


UNKNOWN_FAMILY = (
    "posgen: error: unknown family 'bogus'; choose from lindblad, hamiltonian, "
    "dephasing, transpose_conjugated, transpose_mixing, flip_nonpositive\n"
)


@pytest.mark.parametrize("argv", [["fuzz", "bogus", "2"], ["instance", "bogus"]], ids=" ".join)
def test_unknown_family_line(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", UNKNOWN_FAMILY)


@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 1.42 PiB for an array"),
     "posgen: error: Unable to allocate 1.42 PiB for an array\n"),
    (MemoryError(), "posgen: error: out of memory\n"),
], ids=["numpy", "bare"])
@pytest.mark.parametrize("argv", [["instance", "lindblad", "-n", "10000000"],
                                  ["fuzz", "lindblad", "1", "-n", "10000000"]], ids=" ".join)
def test_out_of_memory_is_an_input_error(argv, error, line, monkeypatch, capsys):
    # a huge -n asks numpy for more than any address space; the fake builder
    # raises as numpy does without allocating
    def too_large(recipe):
        raise error

    monkeypatch.setattr(cli, "build", too_large)
    assert main(argv) == 1
    assert capsys.readouterr() == ("", line)


class TestInstance:
    def test_emits_loadable_generator(self, capsys):
        assert main(["instance", "dephasing", "-n", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        spec = GeneratorSpec.from_json(payload)
        assert spec.n == 3
        assert spec.kind == "lindblad"

    def test_unknown_family(self, capsys):
        assert main(["instance", "bogus"]) == 1
        assert "unknown family" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", BAD_RECIPES, ids=[" ".join(a) for a, _ in BAD_RECIPES])
    def test_bad_recipe_exits_1(self, argv, message, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("posgen: error:")
        assert "Traceback" not in captured.err
        assert message in captured.err

    def test_seed_changes_lindblad(self, capsys):
        main(["instance", "lindblad", "--seed", "1"])
        first = capsys.readouterr().out
        main(["instance", "lindblad", "--seed", "2"])
        second = capsys.readouterr().out
        assert first != second
        main(["instance", "lindblad", "--seed", "1"])
        assert capsys.readouterr().out == first


class TestReport:
    def test_dephasing_consistent(self, deph_file, capsys):
        assert main(["report", deph_file, "--samples", "6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["consistent"] is True
        t1 = payload["sections"]["theorem1"]
        assert t1["consistency"] is True
        assert all(c["verdict"] == "satisfied" for c in t1["conditions"])
        assert payload["sections"]["theorem2"]["direction_consistency"] is True
        assert payload["sections"]["trace_preservation"]["consistent"] is True

    def test_flip_consistent_all_violated(self, flip_file, capsys):
        # everything fails together, so the equivalence itself holds
        assert main(["report", flip_file, "--samples", "6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["consistent"] is True
        t1 = payload["sections"]["theorem1"]
        assert all(c["verdict"] == "violated" for c in t1["conditions"])
        assert "hypothesis_violation" in payload["sections"]["theorem2"]

    def test_engineered_inconsistency_exits_2(self, flip_file, capsys):
        # the flip generator kills the unit exactly (an all-integer
        # superoperator), but its predual trajectories carry a few ulp of
        # float noise; a tolerance below that noise splits the two sides of
        # the trace-preservation test
        code = main(["report", flip_file, "--samples", "6",
                     "--tol", "trace=1e-16"])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        tp = payload["sections"]["trace_preservation"]
        assert tp["unit_margin"] <= 1e-16 < tp["trace_margin"]
        assert tp["consistent"] is False
        assert payload["consistent"] is False

    def test_non_symmetric_generator_reports_hypothesis_violation(self, tmp_path, capsys):
        # L = i id: T_t = e^{it} id does not commute with the adjoint
        spec = GeneratorSpec(kind="explicit", n=2,
                             superop=Superoperator(2, 1j * np.eye(4, dtype=complex)))
        path = tmp_path / "rotation.json"
        path.write_text(json.dumps(spec.to_json()))
        assert main(["report", str(path), "--samples", "6"]) == 0
        t1 = json.loads(capsys.readouterr().out)["sections"]["theorem1"]
        assert list(t1) == ["hypothesis_violation"]
        assert "not symmetric" in t1["hypothesis_violation"]

    def test_missing_file(self, capsys):
        assert main(["report", "/nonexistent/gen.json"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_spec_names_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "kind": "explicit"}))
        assert main(["report", str(path)]) == 1
        assert "superop" in capsys.readouterr().err

    def test_bool_dimension_exits_1(self, tmp_path, capsys):
        # JSON true is a Python int; a 1 x 1 generator written with it must
        # fail validation, not the report
        path = tmp_path / "bool_n.json"
        path.write_text(json.dumps({"n": True, "kind": "explicit", "superop": {
            "n": True, "vec": "column-stacking",
            "rep": {"n": 1, "re": [[0.0]], "im": [[0.0]]},
        }}))
        assert main(["report", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("posgen: error:")
        assert "Traceback" not in captured.err
        assert "positive integer" in captured.err

    def test_invalid_json_syntax(self, tmp_path, capsys):
        path = tmp_path / "syntax.json"
        path.write_text("{not json")
        assert main(["report", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_overflowing_semigroup_exits_1(self, tmp_path, capsys):
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps(flip_nonpositive(2, scale=100.0).to_json()))
        assert main(["report", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("posgen: error: ")
        assert "t=10" in captured.err
        assert captured.err.count("\n") == 1

    def test_overflowing_resolvent_exponential_exits_1(self, flip_file, capsys):
        # lam = 0.6667 * 3 sits 1e-4 above the flip generator's abscissa 2, so
        # R_lam has entries near 1e4 and e^{s R_lam} overflows at the first s
        assert main(["report", flip_file, "--samples", "6", "--lambda-grid", "0.6667"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("posgen: error: ")
        assert "e^(s R_lam) at s=0.5, lam=2.0001 overflows double precision" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("grid, point", [
        # R_lam's top eigenvalue is 1 / (lam - 8) = 1000: e^{R/2} fits, and its
        # square overflows
        ("0.889", "s=1, lam=8.001"),
        ("0.8889,0.889", "s=0.5, lam=8.0001"),
        ("0.5", None),
    ])
    def test_resolvent_exponential_near_the_abscissa(self, tmp_path, capsys, grid, point):
        path = tmp_path / "flip3.json"
        path.write_text(json.dumps(flip_nonpositive(3, scale=4.0).to_json()))  # abscissa 8
        assert main(["report", str(path), "--samples", "6", "--lambda-grid", grid]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("posgen: error: resolvent point 4.5 does not clear the spectral "
                                "abscissa 8\n" if point is None else
                                f"posgen: error: e^(s R_lam) at {point} overflows double precision\n")

    @pytest.mark.parametrize("t", ["88.6", "88.75"])
    def test_semigroup_near_overflow_exits_1(self, tmp_path, capsys, t):
        # T_t of flip_nonpositive(3) at these t is finite, with entries within
        # a factor 5.3 (88.6) or 1.6 (88.75) of the largest double; the probe
        # scan (88.6) or the cone search (88.75) overflowed on its images,
        # and eigvalsh raised LinAlgError
        path = tmp_path / "flip3.json"
        path.write_text(json.dumps(flip_nonpositive(3, scale=4.0).to_json()))
        assert main(["report", str(path), "--t-grid", t]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"posgen: error: T_t at t={t} overflows double precision\n"

    @pytest.mark.parametrize("n, scale, flags, t", [
        (2, -1e300, ["--t-grid", "1e10"], "1e+10"),
        (3, -1.7e308, [], "10"),
    ], ids=["1e300", "1.7e308"])
    def test_nonfinite_tL_exits_1(self, tmp_path, capsys, n, scale, flags, t):
        # L = scale * id: t L is -inf at this t, and a traceback from the
        # exponential's finiteness check used to end the report
        spec = GeneratorSpec(kind="explicit", n=n,
                             superop=Superoperator(n, scale * np.eye(n * n)))
        path = tmp_path / "big.json"
        path.write_text(json.dumps(spec.to_json()))
        assert main(["report", str(path), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"posgen: error: T_t at t={t} overflows double precision\n"

    def test_huge_finite_semigroup_reports(self, tmp_path, capsys):
        # T_10 has entries near e^360: finite, but the positivity descent on
        # it overflowed to NaN and eigh raised LinAlgError
        rep = np.zeros((9, 9), dtype=complex)
        rep[0, 0] = 36.0
        rep[0, 5] = rep[0, 7] = rep[1, 0] = rep[3, 0] = 0.5
        spec = GeneratorSpec(kind="explicit", n=3, superop=Superoperator(3, rep))
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(spec.to_json()))
        assert main(["report", str(path), "--samples", "5"]) == 0
        t1 = json.loads(capsys.readouterr().out)["sections"]["theorem1"]
        assert t1["conditions"][0]["id"] == "semigroup_positive"
        assert t1["conditions"][0]["verdict"] == "violated"

    def test_text_format(self, deph_file, capsys):
        assert main(["report", deph_file, "--samples", "6",
                     "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "theorem1: consistent=True" in out
        assert "semigroup_positive" in out
        assert " contraction=certified_contraction " in out
        assert "consistent: True" in out


class TestEvolve:
    def test_dephasing_closed_form(self, deph_file, plus_state_file, capsys):
        assert main(["evolve", deph_file, plus_state_file, "-t", "1"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["t"] == 1.0
        assert rec["trace"] == pytest.approx(1.0, abs=1e-12)
        assert rec["rho"]["re"][0][1] == pytest.approx(0.5 * math.exp(-2), abs=1e-12)
        assert rec["purity"] == pytest.approx((1 + math.exp(-4)) / 2, abs=1e-12)

    def test_default_times_from_config(self, deph_file, plus_state_file, capsys):
        assert main(["evolve", deph_file, plus_state_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [json.loads(l)["t"] for l in lines] == [0.5, 1.0, 2.0]

    def test_zero_generator_constant(self, zero_file, plus_state_file, capsys):
        assert main(["evolve", zero_file, plus_state_file, "-t", "0.5", "-t", "2"]) == 0
        for line in capsys.readouterr().out.strip().splitlines():
            rec = json.loads(line)
            assert rec["rho"]["re"][0][1] == pytest.approx(0.5, abs=1e-15)
            assert rec["min_eig"] == pytest.approx(0.0, abs=1e-15)

    def test_non_density_state(self, deph_file, tmp_path, capsys):
        path = tmp_path / "bad_state.json"
        path.write_text(json.dumps({
            "n": 2, "re": [[0.9, 0.0], [0.0, 0.9]], "im": [[0.0] * 2] * 2,
        }))
        assert main(["evolve", deph_file, str(path)]) == 1
        err = capsys.readouterr().err
        assert "not a density matrix" in err
        assert "8.000e-01" in err  # margin diagnostic

    def test_negative_time(self, deph_file, plus_state_file, capsys):
        for t, message in (("-1", ">= 0"), ("nan", "finite"), ("inf", "finite")):
            assert main(["evolve", deph_file, plus_state_file, "-t", t]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("posgen: error:")
            assert "Traceback" not in captured.err
            assert message in captured.err

    def test_dimension_mismatch(self, plus_state_file, tmp_path, capsys):
        path = tmp_path / "deph3.json"
        path.write_text(json.dumps(dephasing(3).to_json()))
        assert main(["evolve", str(path), plus_state_file]) == 1
        assert "dimension mismatch" in capsys.readouterr().err


class TestFuzz:
    def test_lindblad_exit_0(self, capsys):
        assert main(["fuzz", "lindblad", "3", "-n", "2", "--samples", "6",
                     "--seed", "7"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["inconsistencies"] == 0
        assert len(payload["results"]) == 3
        assert [r["index"] for r in payload["results"]] == [0, 1, 2]
        assert set(payload["worst_margins"]) == set(payload["results"][0]["verdicts"])
        assert all(m >= -1e-8 for m in payload["worst_margins"].values())

    def test_flip_family_all_violated(self, capsys):
        assert main(["fuzz", "flip_nonpositive", "2", "--samples", "6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["consistent"] is True
        for r in payload["results"]:
            assert set(r["verdicts"].values()) == {"violated"}

    def test_byte_identical_across_runs(self, tmp_path):
        args = ["fuzz", "lindblad", "4", "-n", "2", "--samples", "5", "--seed", "3"]
        f1, f2 = (str(tmp_path / f"out{i}.json") for i in range(2))
        assert main(args + ["-o", f1]) == 0
        assert main(args + ["-o", f2]) == 0
        assert open(f1, "rb").read() == open(f2, "rb").read()

    def test_jobs_flag_rejected(self, capsys):
        assert main(["fuzz", "lindblad", "1", "--samples", "2", "--jobs", "2"]) == 1
        assert "--jobs" in capsys.readouterr().err

    def test_jobs_config_field_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": 2}))
        assert main(["fuzz", "lindblad", "1", "--samples", "2",
                     "--config", str(cfg)]) == 1
        assert "unknown field" in capsys.readouterr().err

    def test_bad_count(self, capsys):
        assert main(["fuzz", "lindblad", "0"]) == 1
        assert "count" in capsys.readouterr().err

    def test_unknown_family(self, capsys):
        assert main(["fuzz", "bogus", "1"]) == 1
        assert "unknown family" in capsys.readouterr().err


class TestReportSearches:
    def test_each_map_searched_once(self, tmp_path, cone_searches, capsys):
        # 3 T_t, 3 R_lam and 9 e^{s R_lam} at the default grids; Theorem 2
        # reads the T_t verdicts that Theorem 1 found
        path = tmp_path / "g.json"
        assert main(["instance", "transpose_mixing", "-n", "3", "-o", str(path)]) == 0
        assert main(["report", str(path)]) == 0
        assert cone_searches == [15]

    def test_every_T_t_from_one_exponential(self, monkeypatch):
        # T_t of t_grid and TRACE_T_GRID (0.1, 1, 10, 0.5, 2; 1 is shared)
        # are built by one stacked call, and each is mat_exp(t L) bit for bit;
        # the second call is the 3 x 3 e^{s R_lam}'s one root e^{R_lam / 2} per lam
        h = SemigroupHandle(random_lindblad(3, 2, seed=4))
        calls = []

        def counted(m):
            calls.append(np.shape(m))
            return mat_exp(m)

        monkeypatch.setattr(semigroup, "mat_exp", counted)
        cfg = RunConfig(samples=4)
        cli._report_sections(h, cfg)
        assert calls == [(5, 9, 9), (3, 9, 9)]
        assert sorted(h._maps["semigroup"]) == [0.1, 0.5, 1.0, 2.0, 10.0]
        for t, s in h._maps["semigroup"].items():
            assert np.array_equal(s.rep, mat_exp(t * h.generator.rep))


FINITE = "must be (positive and )?finite"
# the one-line error of a config file that names a field RunConfig does not have
UNKNOWN = r"^posgen: error: .*: config payload: unknown field\(s\) \['%s'\]\n$"

# flags that must exit 1 with a clean error, and the error they must name
BAD_FLAGS = [
    (["--tol", "predicate=nan"], FINITE),
    (["--tol", "consistency=nan"], FINITE),
    (["--tol", "trace=inf"], FINITE),
    (["--t-grid", "nan"], FINITE),
    (["--t-grid", "0.1,inf"], FINITE),
    (["--lambda-grid", "inf"], FINITE),
    (["--lambda-grid", "1e-12"], "does not clear the spectral abscissa"),
    (["--seed", "-1"], "seed must be an integer >= 0"),
    (["--samples", "100000000000000000000"], "samples must be at most 10000"),
    (["--t-grid", ",".join(["1"] * 257)], "t_grid must have at most 256 values"),
    (["--lambda-grid", ",".join(["1"] * 257)], "lambda_multipliers must have at most 256 values"),
]

# config files that must exit 1 with a clean error: id -> (text, error)
BAD_CONFIGS = {
    "consistency-nan": ('{"tolerances": {"consistency": NaN}}', FINITE),
    "t_grid-inf": ('{"t_grid": [0.1, Infinity]}', FINITE),
    "s_grid-nan": ('{"s_grid": [NaN]}', UNKNOWN % "s_grid"),
    "trace_t_grid-minus-inf": ('{"trace_t_grid": [-Infinity]}', UNKNOWN % "trace_t_grid"),
    "predicate-string": ('{"tolerances": {"predicate": "x"}}', "tolerances must be numbers"),
    "predicate-bool": ('{"tolerances": {"predicate": true}}', "tolerances must be numbers"),
    "t_grid-string-value": ('{"t_grid": ["a"]}', "t_grid must be a list of numbers"),
    "t_grid-number": ('{"t_grid": 5}', "t_grid must be a list of numbers"),
    "seed-nan": ('{"seed": NaN}', "seed must be an integer >= 0"),
    "seed-string": ('{"seed": "3"}', "seed must be an integer >= 0"),
    "n_states-float": ('{"n_states": 1.5}', UNKNOWN % "n_states"),
    "n_selfadjoint-bool": ('{"n_selfadjoint": true}', UNKNOWN % "n_selfadjoint"),
    "n_states-huge": ('{"n_states": 100000000000000000000}', UNKNOWN % "n_states"),
    "samples-float": ('{"samples": 1.5}', "samples must be an integer >= 0"),
    "samples-bool": ('{"samples": true}', "samples must be an integer >= 0"),
    "samples-huge": ('{"samples": 100000000000000000000}', "samples must be at most 10000"),
    "t_grid-long": ('{"t_grid": [%s]}' % ", ".join(["1"] * 257), "t_grid must have at most 256"),
    "t_grid-huge-int": ('{"t_grid": [1%s]}' % ("0" * 400), FINITE),
    "trace-huge-int": ('{"tolerances": {"trace": 1%s}}' % ("0" * 400), FINITE),
}


class TestConfigResolution:
    def test_flag_overrides_default(self, deph_file, capsys):
        main(["report", deph_file, "--samples", "6", "--seed", "5"])
        assert json.loads(capsys.readouterr().out)["seed"] == 5

    def test_config_file_overrides_flag(self, deph_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9, "samples": 6}))
        main(["report", deph_file, "--seed", "5", "--samples", "20",
              "--config", str(cfg)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 9

    def test_config_file_tolerances_merge_with_tol_flag(self, deph_file, tmp_path, capsys):
        # the file names one tolerance; the flag's other tolerance survives it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerances": {"trace": 1e-5}}))
        assert main(["report", deph_file, "--samples", "4", "--tol", "predicate=1e-8",
                     "--config", str(cfg)]) == 0
        tolerances = json.loads(capsys.readouterr().out)["sections"]["theorem1"]["tolerances"]
        assert tolerances == {"consistency": 1e-4, "predicate": 1e-8, "trace": 1e-5}

    def test_samples_flag_equals_config_file(self, tmp_path, capsys):
        # each setting given by flag and by config file gives the same report
        path = tmp_path / "g.json"
        assert main(["instance", "transpose_mixing", "-n", "3", "-o", str(path)]) == 0
        assert main(["report", str(path)]) == 0
        default = capsys.readouterr()
        cases = [
            (["--samples", "7"], {"samples": 7}),
            (["--seed", "3"], {"seed": 3}),
            (["--t-grid", "0.2,2"], {"t_grid": [0.2, 2]}),
            (["--lambda-grid", "2,20"], {"lambda_multipliers": [2, 20]}),
            (["--tol", "predicate=1e-8", "--tol", "trace=1e-5"],
             {"tolerances": {"predicate": 1e-8, "trace": 1e-5}}),
            (["--format", "text"], {"format": "text"}),
        ]
        cfg = tmp_path / "cfg.json"
        for flags, payload in cases:
            cfg.write_text(json.dumps(payload))
            assert main(["report", str(path), *flags]) == 0, flags
            by_flag = capsys.readouterr()
            assert main(["report", str(path), "--config", str(cfg)]) == 0, flags
            assert capsys.readouterr() == by_flag, flags
            assert by_flag != default, flags

    def test_config_file_unknown_field(self, deph_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_field": 1}))
        assert main(["report", deph_file, "--config", str(cfg)]) == 1
        assert "bogus_field" in capsys.readouterr().err

    def test_bad_tol_flag(self, deph_file, capsys):
        assert main(["report", deph_file, "--tol", "garbage"]) == 1
        assert "NAME=VALUE" in capsys.readouterr().err

    def test_unknown_tolerance_name(self, deph_file, capsys):
        assert main(["report", deph_file, "--tol", "nope=1e-6"]) == 1
        assert "unknown tolerance" in capsys.readouterr().err

    def test_bad_grid_flag(self, deph_file, capsys):
        assert main(["report", deph_file, "--t-grid", "a,b"]) == 1
        assert "comma-separated" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", BAD_FLAGS, ids=[" ".join(f) for f, _ in BAD_FLAGS])
    def test_nonfinite_flag_exits_1(self, deph_file, flags, message, capsys):
        assert main(["report", deph_file, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("posgen: error:")
        assert "Traceback" not in captured.err
        assert re.search(message, captured.err)

    @pytest.mark.parametrize("text,message", BAD_CONFIGS.values(), ids=list(BAD_CONFIGS))
    def test_nonfinite_config_file_exits_1(self, deph_file, tmp_path, text, message, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["report", deph_file, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("posgen: error:")
        assert "Traceback" not in captured.err
        assert re.search(message, captured.err)

    def test_usage_error_exits_1(self, capsys):
        assert main([]) == 1
        assert main(["frobnicate"]) == 1


class TestOutputFile:
    def test_output_flag_writes_file(self, deph_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["report", deph_file, "--samples", "6",
                     "-o", str(out)]) == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(out.read_text())
        assert payload["consistent"] is True

    def test_unwritable_output(self, deph_file, capsys):
        assert main(["report", deph_file, "--samples", "6",
                     "-o", "/nonexistent/dir/x.json"]) == 1
        assert "cannot write" in capsys.readouterr().err


def _posgen_shell(command, tmp_path):
    """Run a shell command line that calls ``python -m posgen`` as ``posgen``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    script = f'posgen() {{ "{sys.executable}" -m posgen "$@"; }}\nset -o pipefail\n{command}'
    return subprocess.run(["bash", "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_imports_no_scipy():
    # scipy.linalg alone costs about 0.3 s of every start; posgen runs on numpy
    code = "import sys, posgen.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_report_identical_at_one_and_two_blas_threads(tmp_path):
    # posgen leaves BLAS threading to the environment; its output must not
    # depend on the thread count
    assert main(["instance", "transpose_mixing", "-n", "8",
                 "-o", str(tmp_path / "g.json")]) == 0
    runs = [
        subprocess.run([sys.executable, "-m", "posgen", "report", "g.json"], cwd=tmp_path,
                       env=dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=threads),
                       capture_output=True, text=True, timeout=120)
        for threads in ("1", "2")
    ]
    assert runs[0].stdout
    assert (runs[0].returncode, runs[0].stdout) == (runs[1].returncode, runs[1].stdout)


@pytest.mark.parametrize("case, code", [
    ("flip_nonpositive", 0),
    ("missing_file", 1),
    ("inconsistent", 2),
])
def test_every_exit_identical_at_one_and_two_blas_threads(tmp_path, case, code):
    assert main(["instance", "flip_nonpositive", "-n", "8", "-o", str(tmp_path / "f.json")]) == 0
    argv = {
        "flip_nonpositive": ["report", "f.json"],
        "missing_file": ["report", "absent.json"],
        # a trace tolerance below float noise splits the two sides of the
        # trace-preservation test
        "inconsistent": ["report", "f.json", "--samples", "6", "--tol", "trace=1e-16"],
    }[case]
    runs = [
        subprocess.run([sys.executable, "-m", "posgen", *argv], cwd=tmp_path,
                       env=dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=threads),
                       capture_output=True, text=True, timeout=120)
        for threads in ("1", "2")
    ]
    assert runs[0].returncode == code
    assert [(r.returncode, r.stdout, r.stderr) for r in runs[1:]] == [
        (runs[0].returncode, runs[0].stdout, runs[0].stderr)
    ]


@pytest.mark.parametrize("family", FAMILIES)
def test_fuzz_builds_each_superoperator_once(family, monkeypatch, capsys):
    built = []

    def counted(spec):
        built.append(spec)
        return build_superoperator(spec)

    monkeypatch.setattr(semigroup, "build_superoperator", counted)
    assert main(["fuzz", family, "2", "-n", "2", "--samples", "6"]) == 0
    assert len(built) == 2


class TestUnwritableStdout:
    """A stdout that cannot take the report exits 1 with one line on stderr."""

    def test_closed_pipe(self, deph_file, tmp_path):
        proc = _posgen_shell(f"posgen report {deph_file} | head -c 0", tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("posgen: error: cannot write output: ")
        assert "Broken pipe" in proc.stderr
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
        assert proc.stderr.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_full_device(self, deph_file, tmp_path):
        proc = _posgen_shell(f"posgen report {deph_file} > /dev/full", tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("posgen: error: cannot write output: ")
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("also_interpreter_stdout", [False, True])
    def test_in_process_stream_leaves_fd_1_alone(self, deph_file, capsys, monkeypatch,
                                                 also_interpreter_stdout):
        # an in-process caller's stream, and a stdout without a file descriptor
        class FullStream(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

        dup2_calls = []
        monkeypatch.setattr(os, "dup2", lambda *fds: dup2_calls.append(fds))
        stream = FullStream()
        monkeypatch.setattr(sys, "stdout", stream)
        if also_interpreter_stdout:
            monkeypatch.setattr(sys, "__stdout__", stream)
        assert main(["report", deph_file, "--samples", "6"]) == 1
        err = capsys.readouterr().err
        assert err == "posgen: error: cannot write output: [Errno 28] No space left on device\n"
        assert dup2_calls == []


def _commutation(n):
    """Permutation K with K vec(x) = vec(x^T) under column stacking."""
    k = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            k[i + j * n, j + i * n] = 1.0
    return k


@st.composite
def explicit_generators(draw):
    """Bounded finite superoperators on M(n), n <= 3, as generator JSON."""
    n = draw(st.integers(1, 3))
    entries = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
    size = n ** 4
    re = np.array(draw(st.lists(entries, min_size=size, max_size=size)))
    im = np.array(draw(st.lists(entries, min_size=size, max_size=size)))
    rep = (re + 1j * im).reshape(n * n, n * n)
    shape = draw(st.sampled_from(["arbitrary", "hermiticity_preserving", "diagonal"]))
    if shape == "hermiticity_preserving":  # (L + #L#) / 2 with #L#(x) = L(x*)*
        k = _commutation(n)
        rep = (rep + k @ rep.conj() @ k) / 2
    elif shape == "diagonal":  # a Schur multiplier
        rep = np.diag(np.diag(rep))
    spec = GeneratorSpec(kind="explicit", n=n, superop=Superoperator(n, rep))
    return spec.to_json()


class TestReportNeverRaises:
    @given(explicit_generators())
    @settings(max_examples=25, deadline=None)
    def test_exit_code_contract(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "gen.json")
            with open(path, "w") as fh:
                json.dump(payload, fh)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(["report", path, "--samples", "5"])
        assert code in (0, 1, 2)
