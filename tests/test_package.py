import ast
import json
import pathlib
import statistics

import pytest

import sketchgs
from sketchgs import (bench, certification, gram_schmidt, io, krylov,
                      precision, sketch)

# the modules whose public names the package re-exports; bench's runners
# are reached as `sketchgs.bench`, through the CLI
_EXPORTED = (precision, sketch, gram_schmidt, certification, krylov, io)


def test_every_public_name_has_one_module_and_the_package_exports_it():
    # a name moved from one module to another leaves the first `__all__`
    # and keeps its place in the package's namespace
    home = {}
    for module in _EXPORTED + (bench,):
        for name in module.__all__:
            assert name not in home, (name, home.get(name), module.__name__)
            home[name] = module
    for name, module in home.items():
        if module is not bench:
            assert getattr(sketchgs, name) is getattr(module, name), name


def test_no_module_imports_a_private_name_from_another():
    # a private helper is used where it is defined; a module that needs
    # one from another module is reading a quantity it should not own
    found = []
    for path in pathlib.Path(sketchgs.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [(path.name, alias.name) for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []


@pytest.mark.parametrize("module", [precision, sketch, certification, io],
                         ids=lambda module: module.__name__)
def test_leaf_modules_import_no_module_of_the_package(module):
    # formats, sketches, certificates and data sit below the factorizers
    # and solvers, and depend on numpy and scipy alone
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    found = [node.module or "." for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and (node.level or node.module.split(".")[0] == "sketchgs")]
    found += [alias.name for node in ast.walk(tree)
              if isinstance(node, ast.Import) for alias in node.names
              if alias.name.split(".")[0] == "sketchgs"]
    assert found == []


def test_names_the_benchmark_reaches_are_the_library_objects():
    # the benchmark calls `sketch.make_sketch` and times
    # `krylov.SparseMatrix.matvec`: one public way to build a sketch, and
    # one sparse matrix class, owned by io
    assert sketch.make_sketch is sketch.SketchOperator
    assert "make_sketch" not in dir(sketchgs)
    assert all("make_sketch" not in module.__all__
               for module in _EXPORTED + (bench,))
    assert krylov.SparseMatrix is io.SparseMatrix


def test_certification_applies_an_operator_only_in_the_exact_omega_oracle():
    # certificates, omega_bar and the traces read sketches such as Phi Q;
    # only epsilon_of, the exact-omega oracle, applies the sketch it measures
    tree = ast.parse(pathlib.Path(certification.__file__).read_text())
    callers = {getattr(top, "name", None) for top in tree.body
               for node in ast.walk(top)
               if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr in ("apply", "apply_block")}
    assert callers == {"epsilon_of"}


_ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_bench_entry_has_one_shape():
    # a BENCH_<rev>.json at the root records the benchmark at one commit;
    # a perf change cites two of them, so every entry must cover the same
    # workloads and end-to-end metrics, under BENCHMARK.json's names
    spec = json.loads((_ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    entries = sorted(_ROOT.glob("BENCH_*.json"))
    assert entries
    for path in entries:
        entry = json.loads(path.read_text())
        assert path.stem == f"BENCH_{entry['commit'][:7]}", path.name
        assert len(entry["commit"]) == 40 and len(entry["source_sha256"]) == 64
        assert set(entry["workloads"]) == workloads, path.name
        for name, workload in entry["workloads"].items():
            metrics = workload["end_to_end"]
            assert set(metrics) == set(units), (path.name, name)
            for metric, m in metrics.items():
                where = (path.name, name, metric)
                assert m["unit"] == units[metric], where
                assert m["seeds"] and len(m["values"]) == len(m["seeds"]), where
                assert m["median"] == statistics.median(m["values"]), where
                assert m["q1"] <= m["median"] <= m["q3"], where
