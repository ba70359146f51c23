"""The benchmark's own tests (small scale, a few seconds per workload).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import metrics, run, verify  # noqa: E402
from perfbench.tracer import Tracer, install_layers  # noqa: E402
from perfbench.workloads import WORKLOADS, QueryRecord, Window  # noqa: E402
from repro.relational.relation import Relation  # noqa: E402

SMALL = ["--seed", "3", "--seconds", "1", "--scale", "0.05"]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


def test_benchmark_json_matches_the_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == metrics.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_small_run_reports_every_metric(workload, trace):
    done = _bench("--workload", workload, "--trace", trace, *SMALL)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = metrics.PER_LAYER if trace == "1" else metrics.END_TO_END
    assert {name: value["unit"] for name, value
            in result["metrics"].items()} == expected
    for name, value in result["metrics"].items():
        assert isinstance(value["value"], float), name
    if trace == "0":
        assert all(value["value"] > 0
                   for value in result["metrics"].values())


def _bindings() -> dict:
    """Every binding a tracer may patch: repro module and class dicts."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if module is not None and name.startswith("repro"):
            snapshot[name] = dict(vars(module))
            for value in vars(module).values():
                if isinstance(value, type) and \
                        value.__module__.startswith("repro"):
                    snapshot[f"{value.__module__}.{value.__qualname__}"] \
                        = dict(vars(value))
    return snapshot


def test_uninstall_restores_every_patched_binding():
    import repro.cube  # noqa: F401 - loaded, as in a run
    import repro.warehouse  # noqa: F401
    import repro.service.server  # noqa: F401
    before = _bindings()
    tracer = Tracer()
    install_layers(tracer)
    from repro.relational import io
    from repro.distributed.transport import process
    assert io.decode_relation is not before["repro.relational.io"][
        "decode_relation"]
    assert process.decode_relation is io.decode_relation
    tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    for owner, names in before.items():
        assert after[owner].keys() == names.keys(), owner
        for name, value in names.items():
            assert after[owner][name] is value, f"{owner}.{name}"


def test_a_traced_call_records_self_time():
    tracer = Tracer()

    def inner():
        return 1

    def outer():
        return traced_inner() + 1

    traced_inner = tracer.wrap("b", "inner", inner)
    assert tracer.wrap("a", "outer", outer)() == 2
    inner_span, outer_span = tracer.spans
    assert (inner_span.root, outer_span.root) == ("outer", "outer")
    assert outer_span.self_seconds == pytest.approx(
        outer_span.seconds - inner_span.seconds)


def _window(*answers: tuple[int, str, int]) -> Window:
    return Window(queries=[
        QueryRecord(statement, 0.1, result, version, version, 0, 0.0,
                    False, None)
        for statement, result, version in answers])


def test_a_traced_result_that_differs_from_the_untraced_one_is_counted():
    plain = _window((0, "a", 0), (1, "b", 0))
    same = _window((0, "a", 0), (1, "b", 0), (1, "c", 3))
    assert verify.traced_differences(plain, same) == (0, [])
    reordered = _window((0, "a", 0), (0, "x", 0), (0, "x", 0))
    count, notes = verify.traced_differences(plain, reordered)
    assert count == 2 and len(notes) == 1


def _corrupt(relation: Relation) -> Relation:
    """The same relation with one aggregate value of one row changed."""
    name = relation.schema.names[-1]
    columns = dict(relation.columns())
    column = np.array(columns[name], copy=True)
    column[0] = column[0] + 1
    columns[name] = column
    return Relation(relation.schema, columns)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_a_corrupted_oracle_row_is_a_failure(workload, monkeypatch, capsys):
    oracle = verify.centralized
    monkeypatch.setattr(verify, "centralized",
                        lambda sql, detail: _corrupt(oracle(sql, detail)))
    code = run.main(["--workload", workload, "--trace", "0", *SMALL])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] > 0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "corr-high", "--trace", "0", *SMALL,
                  cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
