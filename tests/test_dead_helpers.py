"""No module-level function of the package is dead code.

Every function defined at module level in ``src/qudisc`` must be used
somewhere: called or referenced from another place in ``src/``, the
console-script entry ``cli.entry``, or bound by the benchmark (a
``perfbench/spans.py`` hook or a name that ``perfbench/workloads.py``
uses).  The last case is pinned by name, so a function the benchmark
stops binding must leave the package with it.  An export in
``qudisc.__all__`` is no use by itself: a public function that nothing
calls fails too."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qudisc"
PERFBENCH = ROOT / "perfbench"

# kept only for the benchmark: its hooks time them and its dense warm-up
# calls the one-config oracle wrappers
BENCHMARK_ONLY = {
    ("discrimination", "boundaries"),
    ("oracle", "mean_states"),
    ("oracle", "certify_povm"),
    ("oracle", "helstrom_probability"),
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _loads(node: ast.AST) -> Counter:
    """Every name read under ``node``, bare or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def _benchmark_bindings() -> set[tuple[str, str]]:
    """(module, function) of every ``Hook(layer, module, function)`` in
    ``perfbench/spans.py``, and every qudisc name ``perfbench/workloads.py``
    imports or reads (any module)."""
    bound = set()
    for node in ast.walk(_parse(PERFBENCH / "spans.py")):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Hook":
            module, function = (arg.value for arg in node.args[1:3])
            bound.add((module.removeprefix("qudisc."), function))
    workloads = _parse(PERFBENCH / "workloads.py")
    names = set(_loads(workloads))
    for node in ast.walk(workloads):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qudisc"):
            names.update(alias.name for alias in node.names)
    return bound | {("*", name) for name in names}


def _unused(src: Path) -> tuple[set[tuple[str, str]], list[str]]:
    """The module-level functions of ``src`` that only the benchmark binds,
    and those that nothing uses.  A function's references to itself do not
    count."""
    trees = {path.stem: _parse(path) for path in sorted(src.glob("*.py"))}
    everywhere = sum((_loads(tree) for tree in trees.values()), Counter())
    bound = _benchmark_bindings()
    benchmark_only, dead = set(), []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            name = node.name
            if everywhere[name] - _loads(node)[name] or (module, name) == ("cli", "entry"):
                continue
            if (module, name) in bound or ("*", name) in bound:
                benchmark_only.add((module, name))
            else:
                dead.append(f"{module}.{name}")
    return benchmark_only, dead


def test_every_module_function_is_used():
    benchmark_only, dead = _unused(SRC)
    assert not dead, f"module-level functions nothing uses: {dead}"
    assert benchmark_only == BENCHMARK_ONLY


def test_a_function_only_itself_calls_is_dead(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "oracle.py", "a") as extra:
        extra.write("\n\ndef _orphan(n):\n    return _orphan(n - 1) if n else 0\n")
    assert _unused(tmp_path) == (BENCHMARK_ONLY, ["oracle._orphan"])
