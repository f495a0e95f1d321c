"""Every defaulted parameter of the library is set by some caller, every
record member is read by some caller, every module constant is read, and
every function and method is referenced.

A default that no call overrides is a constant in disguise: it adds a
configuration nothing exercises.  A dataclass field or property that no
code reads is output nothing consumes, and an UPPER_CASE module constant
that no code reads is a setting nothing uses.  A function that nothing
outside its own body names is dead code.  The scans are purely syntactic.
Calls are matched to definitions by bare name (a method by its attribute
name, ``__init__`` by its class name), and member reads by attribute
name, so a name clash can only mark a parameter or member as used, never
report one wrongly.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "qcvar"
#: directories whose calls count as callers; perfbench drives the library too
CALLER_DIRS = ("src", "tests", "demos", "perfbench")


def _defaulted_parameters():
    """Yield (module, qualified name, call name, parameter, call position or None)."""
    for path in sorted(LIBRARY.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            owner = parents.get(node)
            is_method = isinstance(owner, ast.ClassDef) and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
            )
            call_name = owner.name if is_method and node.name == "__init__" else node.name
            qualname = f"{owner.name}.{node.name}" if is_method else node.name
            args = node.args
            positional = args.posonlyargs + args.args
            shift = 1 if is_method else 0  # self / cls is not written at the call
            first = len(positional) - len(args.defaults)
            for pos in range(first, len(positional)):
                yield path.stem, qualname, call_name, positional[pos].arg, pos - shift
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield path.stem, qualname, call_name, arg.arg, None


def _calls_by_name():
    """Map each called bare name to (positional count, keywords, open-ended) triples."""
    calls: dict = {}
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is None:
                    continue
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {kw.arg for kw in node.keywords}
                # *args or **kwargs may set any parameter
                open_ended = starred or None in keywords
                calls.setdefault(name, []).append((len(node.args), keywords, open_ended))
    return calls


def test_every_defaulted_parameter_has_a_caller():
    calls = _calls_by_name()
    unset = []
    for module, function, call_name, param, pos in _defaulted_parameters():
        sites = calls.get(call_name, [])
        if not any(
            open_ended or param in keywords or (pos is not None and n_pos > pos)
            for n_pos, keywords, open_ended in sites
        ):
            unset.append(f"{module}.{function}({param})")
    assert not unset, "defaulted parameters that no call sets: " + ", ".join(unset)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
        if name == "dataclass":
            return True
    return False


def _record_members():
    """Yield (module, class, member) for each dataclass field and each property."""
    for path in sorted(LIBRARY.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            fields = _is_dataclass(cls)
            for node in cls.body:
                if fields and isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    yield path.stem, cls.name, node.target.id
                elif isinstance(node, ast.FunctionDef) and any(
                    isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list
                ):
                    yield path.stem, cls.name, node.name


def _attribute_reads():
    reads = set()
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            reads.update(
                node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            )
    return reads


def test_every_record_member_has_a_reader():
    reads = _attribute_reads()
    unread = [
        f"{module}.{cls}.{member}" for module, cls, member in _record_members() if member not in reads
    ]
    assert not unread, "record members that no code reads: " + ", ".join(unread)


def _module_constants():
    """Yield (module, name) for each UPPER_CASE name a library module assigns at top level."""
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                if isinstance(target, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id):
                    yield path.stem, target.id


def _name_reads():
    reads = set()
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    reads.add(node.attr)
    return reads


def test_every_module_constant_has_a_reader():
    reads = _name_reads()
    unread = [f"{module}.{name}" for module, name in _module_constants() if name not in reads]
    assert not unread, "module constants that no code reads: " + ", ".join(unread)


def _functions():
    """Yield (module, qualified name, bare name, definition) for each module-level function and
    each method other than a dunder, which Python calls implicitly."""
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.FunctionDef):
                yield path, node.name, node.name, node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not re.fullmatch(r"__\w+__", item.name):
                        yield path, f"{node.name}.{item.name}", item.name, item


def _name_references():
    """Map each loaded name or attribute to the (file, line) pairs that reference it."""
    refs: dict = {}
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    refs.setdefault(node.id, []).append((path, node.lineno))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    refs.setdefault(node.attr, []).append((path, node.lineno))
    return refs


def test_every_function_has_a_caller():
    refs = _name_references()
    uncalled = [
        f"{path.stem}.{qualname}" for path, qualname, name, node in _functions()
        if all(ref_path == path and node.lineno <= line <= node.end_lineno
               for ref_path, line in refs.get(name, []))
    ]
    assert not uncalled, "functions that nothing outside their own body references: " + ", ".join(
        uncalled)
