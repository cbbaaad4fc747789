"""The array census against the scalar route, its invariants and its bounds."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tamaripop import pop
from tamaripop.brackets import BracketVector, _iter_entry_tuples
from tamaripop.paths import BoundExceeded
from tamaripop.series import h_series

SRC = str(Path(__file__).resolve().parents[1] / "src")
_array_pop = pop._pop_rows


def _run_optimized(*args):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-O", *args], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.mark.parametrize("n", range(1, 11))
def test_array_census_matches_scalar_route(n):
    census = pop._Census(n, force=False)
    ctx = census.ctx
    assert census.entries == list(_iter_entry_tuples(ctx))
    for e, target, time_ in zip(census.entries, census.pop_idx.tolist(), census.times.tolist()):
        assert census.entries[target] == pop._pop_entries(e, ctx.heights, ctx.fixed_positions)
        assert time_ == pop.sortability_time(BracketVector(e, ctx))


def _identity_pop(rows, ctx, np):
    return rows.copy()


def _off_lattice_pop(rows, ctx, np):
    out = _array_pop(rows, ctx, np)
    out[-1, 1] += 1  # the fixed entry of height 0 becomes 1: no census row
    return out


@pytest.mark.parametrize(
    "fault,message",
    [(_identity_pop, "strictly decrease"), (_off_lattice_pop, "not a census row")],
)
def test_wrong_pop_image_raises_instead_of_counting(monkeypatch, fault, message):
    monkeypatch.setattr(pop, "_pop_rows", fault)
    pop._census.cache_clear()
    try:
        with pytest.raises(RuntimeError, match=message):
            pop.count_t_sortable(5, 2)
    finally:
        pop._census.cache_clear()


def test_census_fault_raises_under_python_optimize():
    test = f"{__file__}::test_wrong_pop_image_raises_instead_of_counting"
    proc = _run_optimized("-m", "pytest", "-q", "-p", "no:cacheprovider", test)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "2 passed" in proc.stdout


def test_sortable_agrees_with_series_under_python_optimize():
    proc = _run_optimized("-m", "tamaripop.cli", "sortable", "--n", "6", "--t", "2")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["count"] == h_series(2, 6)[6] == int(doc["series_coefficient"])
    assert doc["agree"] is True


def test_census_refuses_keys_past_int64_before_enumerating(monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("census enumerated past the int64 key bound")

    monkeypatch.setattr(pop, "_census_rows", no_enumeration)
    with pytest.raises(BoundExceeded, match="int64"):
        pop._census(16, force=True)


@pytest.mark.parametrize("t", [0, -1])
def test_count_t_sortable_rejects_t_below_one(t):
    with pytest.raises(ValueError, match="t >= 1"):
        pop.count_t_sortable(4, t)
