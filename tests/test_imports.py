"""Import smoke: every ``repro.*`` module must import on its own.

The whole suite once failed *collection* because a deleted subpackage
was still imported at module scope by its consumers — an error no unit
test caught, because no unit test imports everything. This walk does:
any module whose import raises (missing sibling, stale re-export,
syntax error) fails here with the module named, instead of surfacing as
dozens of opaque collection errors.
"""

import importlib
import pkgutil

import pytest

import repro


def _all_modules():
    mods = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        mods.append(info.name)
    return sorted(mods)


MODULES = _all_modules()


def test_the_walk_found_the_tree():
    # Guard against the walker silently seeing an empty package.
    assert len(MODULES) > 30
    assert "repro.core.semantic_cache" in MODULES
    assert "repro.dist.client" in MODULES
    assert "repro.train.data_parallel" in MODULES
    assert "repro.load.replay" in MODULES
    assert "repro.dist.transport" in MODULES
    assert "repro.concurrency.executor" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_cleanly(name):
    importlib.import_module(name)


def test_dist_package_reexports_its_public_api():
    dist = importlib.import_module("repro.dist")
    for symbol in dist.__all__:
        assert getattr(dist, symbol) is not None


def test_train_package_imports_without_dist():
    """The trainers must not require repro.dist at import time — sharded
    mode lazy-imports it so a single-worker install works without the
    shard tier (and a missing tier fails with an actionable error at
    *use* time, not import time)."""
    import repro.train.data_parallel as dp

    src = open(dp.__file__).read()
    head = src.split("def ", 1)[0]  # module scope only
    assert "from repro.dist" not in head
    assert "import repro.dist" not in head


#: Policy modules the shard tier must never import: cache policy lives in
#: repro.core and reaches repro.dist only through the payload-store
#: contract (repro.core.payload_store) and SemanticCache itself.
_POLICY_MODULES = {
    "repro.utils.heap",
    "repro.core.importance_cache",
    "repro.core.homophily_cache",
}
#: ... and the policy classes by name, however re-exported.
_POLICY_NAMES = {"IndexedMinHeap", "ImportanceCache", "HomophilyCache"}


def _imported_modules(path):
    import ast

    tree = ast.parse(open(path).read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def test_dist_tier_holds_no_cache_policy():
    """The semantic-cache policy exists once, in repro.core: no module of
    the shard tier imports the heap or the cache layers, and the client
    keeps no layer facades of its own."""
    import pathlib

    dist_dir = pathlib.Path(repro.__file__).parent / "dist"
    offenders = sorted(
        f"{path.name}: {mod}"
        for path in dist_dir.glob("*.py")
        for mod in _imported_modules(path)
        if mod in _POLICY_MODULES or mod.rsplit(".", 1)[-1] in _POLICY_NAMES
    )
    assert not offenders, offenders
    client = importlib.import_module("repro.dist.client")
    assert not hasattr(client, "ImportanceView")
    assert not hasattr(client, "HomophilyView")


def test_one_epoch_loop():
    """Serial and data-parallel training share one epoch loop: a single
    function under repro/train builds EpochMetrics, and the data-parallel
    trainer keeps no run loop of its own."""
    import ast
    import pathlib

    train_dir = pathlib.Path(repro.__file__).parent / "train"
    builders = []
    for path in sorted(train_dir.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "EpochMetrics"
                for node in ast.walk(fn)
            ):
                builders.append(f"{path.name}:{fn.name}")
    assert builders == ["trainer.py:_run_epoch"], builders

    dp_tree = ast.parse((train_dir / "data_parallel.py").read_text())
    defined = {
        node.name
        for node in ast.walk(dp_tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    assert "run" not in defined
