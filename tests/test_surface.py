import ast
import re
from pathlib import Path

# names with no caller in the package, each kept for one reader outside it
ALLOWED = {
    "line_config": "perfbench/workloads.py reads a config's line through it",
    "parse_bep_file": "perfbench/workloads.py reads its records back with it",
    "serialize_bep_file": "perfbench/workloads.py writes its records with it, and its wire count wraps it",
    "msq_current": "the planned noise-floor estimate reads a record's current level",
}

# fields no code in the package reads, each kept for one reader outside it
UNREAD_FIELDS = {
    "raw": "perfbench/workloads.py edits a copy of the document a config was read from",
    "input": "every report's config shows it; the schema-2 report's byte break deletes it",
    "tau_f": "the record digest hashes it; no physics reads the flying time yet",
}

# defaulted parameters no call in the package sets, each kept for one caller outside it
UNSET_DEFAULTS = {
    ("main", "argv"): "the CLI entry point: the console script passes nothing, the tests their own arguments",
    ("serialize_bep_file", "tag"): "perfbench/workloads.py writes tagged records, and the tests untagged ones too",
}


def _package_nodes() -> list[ast.AST]:
    package = Path(__file__).resolve().parents[1] / "src" / "kljnsync"
    return [node for path in package.glob("*.py") for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))]


def test_every_function_class_and_method_has_a_caller_in_the_package():
    # every def and class at any depth (so every top-level one and every
    # method), dunders aside, must be named somewhere in the package
    nodes = _package_nodes()
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined = {n.name for n in nodes if isinstance(n, kinds) and not re.fullmatch("__.*__", n.name)}
    used = {n.id if isinstance(n, ast.Name) else n.attr for n in nodes if isinstance(n, (ast.Name, ast.Attribute))}
    dead = sorted(defined - used)
    assert dead == sorted(ALLOWED), f"no caller in the package: {dead}"


def test_every_field_is_read_and_every_enum_member_named_in_the_package():
    # every annotated field of a class (InitVars aside) must be read as an
    # attribute somewhere, and every member of an Enum named as one
    nodes = _package_nodes()
    classes = [n for n in nodes if isinstance(n, ast.ClassDef)]
    fields = {
        stmt.target.id
        for cls in classes
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and "InitVar" not in ast.unparse(stmt.annotation)
    }
    members = {
        target.id
        for cls in classes
        if any(ast.unparse(base).endswith("Enum") for base in cls.bases)
        for stmt in cls.body
        if isinstance(stmt, ast.Assign)
        for target in stmt.targets
        if isinstance(target, ast.Name)
    }
    attributes = [n for n in nodes if isinstance(n, ast.Attribute)]
    read = {n.attr for n in attributes if isinstance(n.ctx, ast.Load)}
    named = {n.attr for n in attributes}
    unread = sorted((fields - read) | (members - named))
    assert unread == sorted(UNREAD_FIELDS), f"never read in the package: {unread}"


def test_every_defaulted_parameter_is_set_by_some_call_in_the_package():
    # a call sets a parameter by keyword, by position, or possibly through
    # *args or **kwargs; a method's first parameter is bound, not passed
    nodes = _package_nodes()
    calls: dict[str, list[ast.Call]] = {}
    for n in nodes:
        if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
            calls.setdefault(n.func.id if isinstance(n.func, ast.Name) else n.func.attr, []).append(n)
    methods = {
        stmt
        for cls in nodes
        if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        if isinstance(stmt, ast.FunctionDef) and "staticmethod" not in map(ast.unparse, stmt.decorator_list)
    }

    def sets(call: ast.Call, position, name: str) -> bool:
        if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg in (None, name) for k in call.keywords):
            return True
        return position is not None and len(call.args) > position

    unset = []
    for fn in nodes:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        bound = fn in methods
        defaulted = [(i - bound, p.arg) for i, p in enumerate(positional) if i >= first]
        defaulted += [(None, p.arg) for p, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
        unset += [
            (fn.name, name)
            for position, name in defaulted
            if not any(sets(call, position, name) for call in calls.get(fn.name, []))
        ]
    assert sorted(unset) == sorted(UNSET_DEFAULTS), f"defaulted, never set in the package: {sorted(unset)}"


def test_every_module_level_import_is_used_in_its_module():
    # a name a module imports at its top (or under a module-level if, such
    # as TYPE_CHECKING) must be named somewhere else in that module
    package = Path(__file__).resolve().parents[1] / "src" / "kljnsync"
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = [s for stmt in tree.body for s in (stmt.body if isinstance(stmt, ast.If) else [stmt])]
        imported = {
            (alias.asname or alias.name).partition(".")[0]
            for stmt in top
            if isinstance(stmt, (ast.Import, ast.ImportFrom)) and getattr(stmt, "module", None) != "__future__"
            for alias in stmt.names
        }
        named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - named)]
    assert unused == [], f"imported, never used: {unused}"


def test_protocols_read_clocks_only_through_a_clock():
    # protocols.py rounds no time and adds or takes off no offset by hand:
    # every reading goes through the parties' Clock values, and a clock's
    # raw offset is read only where run_bep hands it to simulate_bep
    path = Path(__file__).resolve().parents[1] / "src" / "kljnsync" / "protocols.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))

    def name(node: ast.AST):
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "quantize" or isinstance(node, ast.alias) and node.name == "quantize":
            found.append(f"line {node.lineno}: names quantize")
        if isinstance(node, ast.Attribute) and node.attr in ("quantization", "bob_offset"):
            found.append(f"line {node.lineno}: reads .{node.attr}")
        operands = (node.left, node.right) if isinstance(node, ast.BinOp) else ()
        operands += (node.target, node.value) if isinstance(node, ast.AugAssign) else ()
        if any(name(operand) in ("offset", "t0") for operand in operands):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    assert found == [], f"clock arithmetic in protocols.py: {found}"

    readers = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and node.attr == "offset"
    }
    assert readers == {"run_bep"}
