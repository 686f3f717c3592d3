import json
import sys
import threading

import pytest

from posgen import _blas, cli
from posgen._blas import single_blas_thread
from posgen.cli import main
from posgen.config import RunConfig
from posgen.criteria import theorem1_report
from posgen.instances import InstanceRecipe, build, flip_nonpositive
from posgen.semigroup import SemigroupHandle, build_superoperator


def counts(pools):
    return [get() for get, _ in pools]


@pytest.fixture
def pools():
    """Every OpenBLAS in the process at two threads for one test, then as before."""
    found = _blas._find_pools()
    saved = counts(found)
    for _, set_ in found:
        set_(2)
    yield found
    for (_, set_), count in zip(found, saved):
        set_(count)


class FakePool:
    def __init__(self, count):
        self.count = count
        self.sets = []

    def get(self):
        return self.count

    def set(self, count):
        self.sets.append(count)
        self.count = count


@pytest.fixture
def fake_pool(monkeypatch):
    pool = FakePool(4)
    monkeypatch.setattr(_blas, "_pools", [(pool.get, pool.set)])
    return pool


class TestSingleBlasThread:
    def test_pins_every_pool_then_restores(self, pools):
        before = counts(pools)
        with single_blas_thread():
            assert counts(pools) == [1] * len(pools)
        assert counts(pools) == before

    def test_nested_entry_restores_once(self, fake_pool):
        with single_blas_thread():
            with single_blas_thread():
                assert fake_pool.count == 1
            assert fake_pool.count == 1
        assert fake_pool.count == 4
        assert fake_pool.sets == [1, 4]

    def test_concurrent_entries_restore_once_per_outermost_exit(self, fake_pool):
        inside = []

        def worker():
            for _ in range(200):
                with single_blas_thread():
                    inside.append(fake_pool.get())

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert inside == [1] * 1600
        assert fake_pool.count == 4
        assert len(fake_pool.sets) % 2 == 0
        assert fake_pool.sets[0::2] == [1] * (len(fake_pool.sets) // 2)
        assert fake_pool.sets[1::2] == [4] * (len(fake_pool.sets) // 2)

    def test_missing_proc_maps_is_a_no_op(self, pools, monkeypatch):
        def no_maps(*args, **kwargs):
            raise OSError("no /proc here")

        before = counts(pools)
        monkeypatch.setattr(_blas, "_pools", None)
        monkeypatch.setattr(_blas, "open", no_maps, raising=False)
        with single_blas_thread():
            assert _blas._pools == []
            assert counts(pools) == before
        assert counts(pools) == before

    def test_report_json_identical_on_one_thread(self, pools):
        spec = build(InstanceRecipe(family="transpose_mixing", n=8, seed=3))
        cfg = RunConfig()

        def report():
            # a fresh handle each time: handles memoize T_t and R_lambda
            h = SemigroupHandle(build_superoperator(spec))
            return json.dumps(theorem1_report(h, cfg).to_json(), sort_keys=True)

        default = report()
        with single_blas_thread():
            pinned = report()
        assert pinned == default


class TestMainPinsBlas:
    def test_handler_runs_on_one_thread(self, pools, monkeypatch, capsys):
        seen = []

        def spy(args, cfg, out):
            seen.append(counts(pools))
            return 0

        monkeypatch.setitem(cli._COMMANDS, "instance", spy)
        assert main(["instance", "dephasing"]) == 0
        assert seen == [[1] * len(pools)]

    @pytest.mark.parametrize("case, code", [
        ("instance", 0),
        ("missing_file", 1),
        ("inconsistent", 2),
    ])
    def test_counts_restored_whatever_the_exit_code(
        self, pools, tmp_path, capsys, case, code
    ):
        flip = tmp_path / "flip.json"
        flip.write_text(json.dumps(flip_nonpositive(2).to_json()))
        argv = {
            "instance": ["instance", "dephasing"],
            "missing_file": ["report", str(tmp_path / "absent.json")],
            # a trace tolerance below float noise splits the two sides of
            # the trace-preservation test
            "inconsistent": ["report", str(flip), "--samples", "6",
                             "--tol", "trace=1e-16"],
        }[case]
        before = counts(pools)
        assert main(argv) == code
        assert counts(pools) == before
