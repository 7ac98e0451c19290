import ast
import pathlib

import sketchgs
from sketchgs import bench, certification, gram_schmidt, io, krylov, sketch

# the modules whose public names the package re-exports; bench's runners
# are reached as `sketchgs.bench`, through the CLI
_EXPORTED = (sketch, gram_schmidt, certification, krylov, io)


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
