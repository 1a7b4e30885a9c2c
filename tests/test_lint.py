"""Static checks over the package source that no installed linter covers."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sandbox3d"


def _unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never reads, skipping
    `from __future__` and import lines marked `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_check_flags_only_unmarked_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "from json import dumps, loads\n"
        "from re import (\n"
        "    compile,  # noqa: F401  kept for callers that patch it\n"
        "    escape,\n"
        ")\n"
        "def f(x: Path) -> str:\n"
        "    return dumps(os.sep)\n"
    )
    assert _unused_imports(source) == [(4, "loads"), (7, "escape")]


def test_src_has_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {
        p.name: found
        for p in modules
        if (found := _unused_imports(p.read_text(encoding="utf-8")))
    }
    assert unused == {}


def _imported_modules(source: str) -> set[str]:
    """Top-level names of the modules a source imports from or imports."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


def test_only_image_io_hashes_pixels():
    # every pixel digest goes through image_io.image_digest, which hashes a
    # frozen image once; a second hashing site would hash it again
    assert _imported_modules("import hashlib as h\nfrom os import path\n") == {"hashlib", "os"}
    importers = sorted(
        p.name
        for p in SRC.glob("*.py")
        if "hashlib" in _imported_modules(p.read_text(encoding="utf-8"))
    )
    assert importers == ["image_io.py"]


def test_only_pipeline_schedules_on_threads():
    # run_eval's executor is the one scheduler: it bounds the scenes an eval
    # holds, which a second pool elsewhere would not respect; and it builds
    # its pool at one site, so no parallelism takes another schedule
    importers = sorted(
        p.name
        for p in SRC.glob("*.py")
        if "concurrent" in _imported_modules(p.read_text(encoding="utf-8"))
    )
    assert importers == ["pipeline.py"]
    pools = [
        (p.name, node.lineno)
        for p in SRC.glob("*.py")
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).split(".")[-1] == "ThreadPoolExecutor"
    ]
    assert len(pools) == 1, pools
