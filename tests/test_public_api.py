"""The package's public surface."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import smclimits


def test_every_exported_name_resolves():
    namespace = {}
    exec("from smclimits import *", namespace)  # raises on a name the package lacks
    assert set(smclimits.__all__) <= set(namespace)


def test_the_imports_and_all_list_the_same_names_once():
    # __init__ names every export twice, in its imports and in __all__: the
    # two lists must not drift apart, and neither may repeat a name
    tree = ast.parse(Path(smclimits.__file__).read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    (listed,) = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", "") == "__all__"]
    assert len(set(imported)) == len(imported)
    assert len(set(listed)) == len(listed)
    assert set(imported) == set(listed)


def test_src_imports_only_the_standard_library_and_numpy():
    # numpy is the only declared runtime dependency; scipy is installed for
    # the tests, so a stray import of it would otherwise pass unnoticed
    allowed = set(sys.stdlib_module_names) | {"numpy", "smclimits"}
    package = Path(smclimits.__file__).parent
    stray = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            stray += [f"{path.name}: {name}" for name in names
                      if name.split(".")[0] not in allowed]
    assert stray == []


def test_only_the_cli_knows_the_config_format():
    # the config document is parsed, echoed and hashed in cli alone
    format_names = {"json", "hashlib", "to_dict", "config_hash"}
    package = Path(smclimits.__file__).parent
    stray = []
    for path in sorted(package.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif isinstance(node, ast.FunctionDef):
                names = [node.name]
            else:
                continue
            stray += [f"{path.name}: {name}" for name in names
                      if name.split(".")[0] in format_names]
    assert stray == []


def test_importing_the_cli_loads_no_process_pool():
    # only a run at --workers > 1 needs the pool; a fresh interpreter shows
    # whether importing the command line pulled it in anyway
    probe = ("import sys, smclimits.cli; "
             "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') "
             "if m in sys.modules))")
    package_root = str(Path(smclimits.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=package_root)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
