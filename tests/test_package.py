import ast
import importlib
import os
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import bergec4
from conftest import SRC_DIR


def test_no_assert_statements():
    # python -O strips assert, so correctness checks must raise explicitly
    package = Path(bergec4.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_no_unused_imports():
    # every module, __init__.py included, must use what it imports
    package = Path(bergec4.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found.extend(
            f"{path.name}:{line} {name}"
            for name, line in _imported_names(tree).items()
            if name not in used
        )
    assert found == []


def _referenced_names(node: ast.AST) -> list[str]:
    names = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
        elif isinstance(sub, ast.alias):
            names.append(sub.name)
    return names


def test_no_dead_private_helpers():
    # a module-level _helper must be used somewhere outside its own body;
    # dunder functions (the package's __getattr__ and __dir__) are called
    # by the interpreter, not by the code
    package = Path(bergec4.__file__).parent
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))]
    uses = Counter(name for tree in trees for name in _referenced_names(tree))
    found = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and uses[node.name] == _referenced_names(node).count(node.name)
    ]
    assert found == []


BUILDER_PRIVATE = {"_adj", "_bits", "_pair_edges"}


def test_builder_internals_stay_in_berge():
    # every other module, and berge.py outside Bc4FreeBuilder, uses the
    # builder through try_add, closes, closing_pair, add and pop
    package = Path(bergec4.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        outside = [n for n in tree.body if not (isinstance(n, ast.ClassDef) and n.name == "Bc4FreeBuilder")]
        found.extend(
            f"{path.name}:{node.lineno} {node.attr}"
            for top in outside
            for node in ast.walk(top)
            if isinstance(node, ast.Attribute) and node.attr in BUILDER_PRIVATE
        )
    assert found == []


def test_only_try_add_validates():
    # closes, closing_pair, add and pop trust their caller; the one method
    # of Bc4FreeBuilder that checks a triple is try_add, and besides it only
    # the constructor, on its vertex count, raises ValueError
    tree = ast.parse((Path(bergec4.__file__).parent / "berge.py").read_text(encoding="utf-8"))
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Bc4FreeBuilder")
    found = [
        method.name
        for method in cls.body
        if isinstance(method, ast.FunctionDef)
        and any(
            isinstance(node, ast.Name) and node.id in ("canonical_edge", "ValueError")
            for node in ast.walk(method)
        )
    ]
    assert found == ["__init__", "try_add"]


FLOAT_CALLS = {"float", "round"}
FLOAT_MATH = {"sqrt", "log", "log2", "log10", "exp"}


def _float_arithmetic(node: ast.AST) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return f"float literal {node.value!r}"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in FLOAT_CALLS:
        return f"call to {node.func.id}"
    name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
    if name in FLOAT_MATH:
        return f"float math {name}"
    return None


def test_exact_arithmetic_only():
    # every number the package reports is exact: no float anywhere in it
    package = Path(bergec4.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.extend(
            f"{path.name}:{node.lineno} {what}" for node in ast.walk(tree) if (what := _float_arithmetic(node))
        )
    assert found == []


def test_one_route_to_each_cycle_answer():
    # every other module asks find_berge_cycle for cycles, which owns the
    # one walk, read directly only by census's listing of unrepresented
    # 4-cycles; the plain walk lives in the test oracles. Besides search,
    # which checks its seed with it, no other module asks the builder's
    # whole-graph verdict: census reads its verdict off its own 4-cycle
    # classes and construct takes its own from the C4 check by the clone
    # lemma; __init__ only re-exports is_bc4_free
    package = Path(bergec4.__file__).parent
    names = {
        path.stem: set(_referenced_names(ast.parse(path.read_text(encoding="utf-8"))))
        for path in sorted(package.glob("*.py"))
        if path.stem != "__init__"
    }
    assert [stem for stem, used in names.items() if "_canonical_cycles" in used] == []
    assert [stem for stem, used in names.items() if "_cycle_candidates" in used] == ["berge", "census"]
    assert [stem for stem, used in names.items() if "is_bc4_free" in used] == ["berge", "search"]


THREAD_MODULES = {"concurrent.futures", "threading"}


def test_no_thread_imports():
    # the package runs on one thread; the exact search never fans out
    package = Path(bergec4.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found.extend(f"{path.name}:{node.lineno} {m}" for m in modules if m in THREAD_MODULES)
    assert found == []


def test_module_names_bind_modules():
    # a package-level re-export must not shadow a submodule of the same name,
    # or `import bergec4.<name> as m` binds the re-exported object instead
    package = Path(bergec4.__file__).parent
    modules = {
        path.stem: importlib.import_module(f"bergec4.{path.stem}")
        for path in sorted(package.glob("*.py"))
        if path.stem not in ("__init__", "__main__")
    }
    found = [stem for stem, module in modules.items() if getattr(bergec4, stem) is not module]
    assert found == []


def test_distribution_metadata_matches_package():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parent.parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert project["name"] == "bergec4"
    assert project["version"] == bergec4.__version__


PUBLIC_NAMES = [
    "Bc4FreeBuilder",
    "BergeCycleWitness",
    "BipartiteGraph",
    "Block",
    "BlockType",
    "BoundReport",
    "CensusReport",
    "DegreeProfile",
    "EdgeBound",
    "FourCycleRecord",
    "Hypergraph",
    "HypergraphError",
    "HypothesisError",
    "InequalityCheck",
    "ParseError",
    "SearchResult",
    "binom2",
    "block_degrees",
    "branch_and_bound_ex",
    "brute_force_ex",
    "check_inequality",
    "count_three_paths",
    "decompose",
    "degree_profile",
    "edge_ratio",
    "ex_table",
    "expand_to_hypergraph",
    "find_berge_cycle",
    "format_ex_table",
    "is_bc4_free",
    "is_c4_free",
    "lower_bound_construction",
    "pair_to_edges",
    "projective_plane_incidence",
    "random_bc4free",
    "shadow",
    "upper_bound",
    "verify_chain",
]


def test_public_names_are_pinned():
    # adding or removing a package-level name is an API change: edit this list with it
    names = sorted(
        name
        for name in dir(bergec4)
        if not name.startswith("_") and not isinstance(getattr(bergec4, name), types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def test_all_lists_the_public_names():
    assert sorted(bergec4.__all__) == PUBLIC_NAMES


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from bergec4 import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if namespace[name] is not getattr(bergec4, name)] == []


def test_unknown_name_is_a_plain_attribute_error():
    assert not hasattr(bergec4, "no_such_name")
    with pytest.raises(AttributeError, match=r"^module 'bergec4' has no attribute 'no_such_name'$"):
        bergec4.no_such_name


def test_package_names_are_read_from_their_module(monkeypatch):
    # nothing is cached in the package: a rebinding in the defining module,
    # and its undoing, are both seen through bergec4
    from bergec4 import berge

    original = berge.is_bc4_free

    def replacement(h):
        return True

    with monkeypatch.context() as patch:
        patch.setattr(berge, "is_bc4_free", replacement)
        assert bergec4.is_bc4_free is replacement
    assert bergec4.is_bc4_free is original
    assert "is_bc4_free" not in vars(bergec4)


def _modules_after(code: str) -> set[str]:
    """The bergec4 submodules a fresh interpreter holds after running ``code``."""
    probe = (
        f"{code}\nimport sys\n"
        "print('modules', *sorted(m.removeprefix('bergec4.') for m in sys.modules if m.startswith('bergec4.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC_DIR),
        check=True,
    )
    last = proc.stdout.splitlines()[-1].split()
    assert last[0] == "modules", proc.stdout
    return set(last[1:])


def test_package_import_loads_no_module():
    assert _modules_after("import bergec4") == set()


def test_version_loads_only_the_cli():
    code = (
        "import bergec4.cli\n"
        "try:\n"
        "    bergec4.cli.main(['--version'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0\n"
    )
    assert _modules_after(code) == {"cli"}


# the bergec4 modules each command loads, the command's own imports and theirs
COMMAND_MODULES = {
    "shadow": {"cli", "hypergraph"},
    "check": {"cli", "hypergraph", "berge"},
    "blocks": {"cli", "hypergraph", "blocks"},
    "census": {"cli", "hypergraph", "berge", "blocks", "bounds", "census"},
    "verify": {"cli", "hypergraph", "berge", "blocks", "bounds"},
    "construct": {"cli", "hypergraph", "berge", "construct"},
    "random": {"cli", "hypergraph", "berge", "construct"},
    "search": {"cli", "hypergraph", "berge", "blocks", "bounds", "search"},
}


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_each_command_loads_only_its_modules(command, tmp_path):
    path = tmp_path / "q2.txt"
    path.write_text(bergec4.lower_bound_construction(2).to_text(), encoding="utf-8")
    argv = {
        "construct": ["construct", "--q", "2"],
        "random": ["random", "--n", "8", "--m", "4", "--seed", "1"],
        "search": ["search", "--n-max", "5"],
    }.get(command, [command, str(path)])
    code = f"import bergec4.cli\nif bergec4.cli.main({argv!r}) != 0:\n    raise SystemExit('command failed')"
    assert _modules_after(code) == COMMAND_MODULES[command]
