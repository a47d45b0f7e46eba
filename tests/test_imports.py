"""Static checks on the package's import statements."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import sps_bb84


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(
                alias.asname or alias.name.partition(".")[0]
                for alias in node.names
            )
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        # a quoted annotation such as -> "CorrelationHistogram"
        for note in (
            getattr(node, "annotation", None),
            getattr(node, "returns", None),
        ):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used.update(
                    name.id
                    for name in ast.walk(ast.parse(note.value, mode="eval"))
                    if isinstance(name, ast.Name)
                )
    return used


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_imported_name_is_used_or_exported():
    package = Path(sps_bb84.__file__).parent
    unused = []
    for module in sorted(package.glob("*.py")):
        tree = ast.parse(module.read_text())
        kept = _used_names(tree) | _exported_names(tree)
        unused += [
            f"{module.name}: {name}"
            for name in sorted(_imported_names(tree) - kept)
        ]
    assert unused == []


def test_cli_import_does_not_load_scipy():
    # scipy costs most of the command-line start-up; only functions that
    # need its special functions may import it, inside their bodies
    package_root = Path(sps_bb84.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package_root), env.get("PYTHONPATH")])
    )
    probe = (
        "import sys, sps_bb84.cli; "
        "print(sorted(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"
