import ast
import importlib
import types
from collections import Counter
from pathlib import Path

import pytest

import bergec4


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
    # __init__.py imports to re-export; every other module must use what it imports
    package = Path(bergec4.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
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
    # a module-level _helper must be used somewhere outside its own body
    package = Path(bergec4.__file__).parent
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))]
    uses = Counter(name for tree in trees for name in _referenced_names(tree))
    found = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and uses[node.name] == _referenced_names(node).count(node.name)
    ]
    assert found == []


BUILDER_PRIVATE = {"_closes_c4", "_new_edge", "_append", "_adj", "_bits", "_pair_edges"}


def test_builder_internals_stay_in_berge():
    # other modules use Bc4FreeBuilder through try_add, pop and closing_pair
    package = Path(bergec4.__file__).parent
    found = [
        f"{path.name}:{node.lineno} {node.attr}"
        for path in sorted(package.glob("*.py"))
        if path.name != "berge.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in BUILDER_PRIVATE
    ]
    assert found == []


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
    # every number the package reports is exact; EdgeBound.__float__ is the one
    # deliberate conversion to floating point
    package = Path(bergec4.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {
            id(sub)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name == "EdgeBound"
            for method in cls.body
            if isinstance(method, ast.FunctionDef) and method.name == "__float__"
            for sub in ast.walk(method)
        }
        found.extend(
            f"{path.name}:{node.lineno} {what}"
            for node in ast.walk(tree)
            if id(node) not in allowed and (what := _float_arithmetic(node))
        )
    assert found == []


def test_one_route_to_each_cycle_answer():
    # every other module asks find_berge_cycle for cycles, which owns the
    # one walk, read directly only by census's listing of unrepresented
    # 4-cycles; the plain walk lives in the test oracles. Only census and
    # construct ask the builder's verdict directly; __init__ only re-exports
    # is_bc4_free
    package = Path(bergec4.__file__).parent
    names = {
        path.stem: set(_referenced_names(ast.parse(path.read_text(encoding="utf-8"))))
        for path in sorted(package.glob("*.py"))
        if path.stem != "__init__"
    }
    assert [stem for stem, used in names.items() if "_canonical_cycles" in used] == []
    assert [stem for stem, used in names.items() if "_cycle_candidates" in used] == ["berge", "census"]
    assert [stem for stem, used in names.items() if "is_bc4_free" in used] == ["berge", "census", "construct"]


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
