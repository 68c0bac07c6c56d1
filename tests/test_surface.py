import ast
import re
from pathlib import Path

# names with no caller in the package, each kept for one reader outside it
ALLOWED = {
    "line_config": "perfbench/workloads.py reads a config's line through it",
    "serialize_bep_file": "perfbench/workloads.py writes its records with it",
    "parse_bep_file": "perfbench/workloads.py reads its records back with it",
    "msq_current": "the planned noise-floor estimate reads a record's current level",
}


def test_every_function_class_and_method_has_a_caller_in_the_package():
    # every def and class at any depth (so every top-level one and every
    # method), dunders aside, must be named somewhere in the package
    package = Path(__file__).resolve().parents[1] / "src" / "kljnsync"
    nodes = [node for path in package.glob("*.py") for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))]
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined = {n.name for n in nodes if isinstance(n, kinds) and not re.fullmatch("__.*__", n.name)}
    used = {n.id if isinstance(n, ast.Name) else n.attr for n in nodes if isinstance(n, (ast.Name, ast.Attribute))}
    dead = sorted(defined - used)
    assert dead == sorted(ALLOWED), f"no caller in the package: {dead}"
