"""The benchmark tracer wraps package functions by name; a rename or a
deletion of a hooked name must fail here rather than in the benchmark."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


# tracer.py imports only the standard library
_spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
_tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tracer)
HOOKS = _tracer.HOOKS


@pytest.mark.parametrize("module_name,path", [(h[0], h[1]) for h in HOOKS])
def test_hook_resolves(module_name, path):
    owner = importlib.import_module(f"arrsheaf.{module_name}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_rank_hook_reads_rows_argument():
    # _rank_counts reads the row list as the second positional argument
    from arrsheaf.linalg import sparse_rank

    params = list(inspect.signature(sparse_rank).parameters)
    assert params[:2] == ["field", "rows"]


def test_kernel_hook_parameters():
    # the tracer wraps sparse_kernel_basis by name; keep its call shape
    from arrsheaf.linalg import sparse_kernel_basis

    params = list(inspect.signature(sparse_kernel_basis).parameters)
    assert params == ["field", "rows", "cols"]


@pytest.mark.parametrize("characteristic", [0, 7])
def test_rank_and_kernel_reach_hooked_add_row(monkeypatch, characteristic):
    # the tracer times elimination through RowReducer.add_row, so rank and
    # kernel calls over both fields must insert their rows through it
    from arrsheaf import linalg

    field = linalg.GF(characteristic) if characteristic else linalg.QQ
    seen = []
    add_row = linalg.RowReducer.add_row

    def counted(self, row):
        seen.append(row)
        return add_row(self, row)

    monkeypatch.setattr(linalg.RowReducer, "add_row", counted)
    rows = [{0: 1, 1: 2}, {1: 3, 2: 1}, {0: 2, 1: 7, 2: 1}]
    assert linalg.sparse_rank(field, rows) == 2
    assert len(seen) == 3
    assert len(linalg.sparse_kernel_basis(field, rows, 3)) == 1
    assert len(seen) == 6


@pytest.mark.parametrize("cover", ["coords", "flats"])
def test_dims_at_builds_blocks_through_tuple_space(monkeypatch, boolean3, cover):
    # the tracer times V_T spanning sets through TruncatedEngine.tuple_space,
    # so dims_at must build them through it on the coordinate cover and on
    # the flat covers alike
    from arrsheaf import build_lattice, oracle

    seen = []
    tuple_space = oracle.TruncatedEngine.tuple_space

    def counted(self, key, k, d):
        seen.append(key)
        return tuple_space(self, key, k, d)

    monkeypatch.setattr(oracle.TruncatedEngine, "tuple_space", counted)
    lat = build_lattice(boolean3)
    eng = oracle._truncated_engine(boolean3, "D", cover, lat, lat.l0_minimal_indices())
    assert eng.dims_at(1, 1, 2) == {0: 3, 1: 0, 2: 0}
    assert seen
