"""Module hygiene, checked with ``ast``: in every module of the package each
``__all__`` name is bound at module level, and every module-level import is
used (a name in an annotation counts as used).  An import whose first line
says ``noqa: F401`` is a declared re-export.  No module imports an
underscore name from a sibling: what crosses modules is public.  No memo
outlives a call: no module has a ``global`` statement or a ``cache``,
``lru_cache`` or ``cached_property`` decorator.  The names the benchmark's
tracer wraps, read from ``perfbench/tracer.py`` with ``ast``, still resolve,
and every call into sigpole in ``perfbench/workloads.py`` still binds."""
from __future__ import annotations

import ast
import importlib
import inspect
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sigpole"


def module_level(body: list[ast.stmt]):
    """The module's statements, with those under a top-level if or try."""
    for node in body:
        yield node
        if isinstance(node, ast.If):
            yield from module_level(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            handlers = [s for h in node.handlers for s in h.body]
            yield from module_level(node.body + handlers + node.orelse + node.finalbody)


def imported_names(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Module-level imported names and their lines, without re-exports."""
    out = {}
    for node in module_level(tree.body):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


def bound_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in module_level(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(
                    n.id for n in ast.walk(target) if isinstance(n, ast.Name)
                )
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in filter(None, annotations):
            for sub in ast.walk(ann):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    names.update(
                        n.id
                        for n in ast.walk(ast.parse(sub.value, mode="eval"))
                        if isinstance(n, ast.Name)
                    )
    return names


def dunder_all(tree: ast.Module) -> list[str]:
    for node in module_level(tree.body):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_exports_resolve_and_imports_are_used(path):
    source = path.read_text()
    tree = ast.parse(source)
    exported = dunder_all(tree)
    missing = sorted(set(exported) - bound_names(tree))
    assert not missing, f"__all__ names not bound in {path.name}: {missing}"
    used = used_names(tree) | set(exported)
    unused = {
        name: line
        for name, line in imported_names(tree, source.splitlines()).items()
        if name not in used
    }
    assert not unused, f"unused imports in {path.name} (name: line): {unused}"


def sibling_private_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """Underscore names, dunders aside, imported anywhere in a module from a
    sibling module of the package (a relative import or one from
    ``sigpole``)."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "sigpole":
            continue
        out += [(node.lineno, a.name) for a in node.names
                if a.name.startswith("_") and not a.name.endswith("__")]
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_imported_from_siblings(path):
    private = sibling_private_imports(ast.parse(path.read_text()))
    assert not private, f"{path.name} imports private sibling names (line, name): {private}"


MEMO_DECORATORS = {"cache", "lru_cache", "cached_property"}


def memo_sites(tree: ast.Module) -> list[tuple[int, str]]:
    """``global`` statements and memoizing decorators, bare, called or
    reached as an attribute (``functools.lru_cache(maxsize=None)``)."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            out.append((node.lineno, "global " + ", ".join(node.names)))
        for dec in getattr(node, "decorator_list", []):
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = getattr(target, "id", None) or getattr(target, "attr", None)
            if name in MEMO_DECORATORS:
                out.append((dec.lineno, "@" + name))
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_memo_outlives_a_call(path):
    # a cache kept across calls would make a result depend on earlier calls
    sites = memo_sites(ast.parse(path.read_text()))
    assert not sites, f"{path.name} keeps state across calls (line, what): {sites}"


def tracer_literal(name: str):
    """The literal value of a module-level assignment in perfbench/tracer.py;
    nothing of perfbench is imported."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/tracer.py assigns no {name}")


def test_benchmark_call_surface_resolves():
    # the benchmark's own tests are slow and outside this suite, so a rename
    # of a name it calls or a field it reads must fail here
    for mod_name, names in tracer_literal("TRACED").items():
        module = importlib.import_module(f"sigpole.{mod_name}")
        missing = [n for n in names if not callable(getattr(module, n, None))]
        assert not missing, f"sigpole.{mod_name} lacks {missing}"
    for dotted, names in tracer_literal("TRACED_METHODS").items():
        mod_name, cls_name = dotted.rsplit(".", 1)
        cls = getattr(importlib.import_module(f"sigpole.{mod_name}"), cls_name)
        missing = [n for n in names if not callable(getattr(cls, n, None))]
        assert not missing, f"sigpole.{dotted} lacks {missing}"
    assert callable(importlib.import_module("sigpole._accel").backend_name)
    signature = importlib.import_module("sigpole.signature")
    pairings = importlib.import_module("sigpole.pairings")
    rows = signature.candidate_pole_report(pairings.Word([1, 1, 2, 2]))["per_partition"]
    assert rows and all({"partition", "pole_set"} <= row.keys() for row in rows)


def workload_calls() -> list[tuple[str, object, int, list[str]]]:
    """(line, target, positional count, keywords) of each call into sigpole
    in perfbench/workloads.py, read with ``ast``: a call of a name imported
    from sigpole or of a sigpole module's attribute, ``rec.call(label,
    module.fn, ...)`` less the recorder's own ``check`` and ``span``, and a
    method called on ``blowup.BlowupChart(...)``, whose instance counts as
    one positional.  The count is None when a starred argument hides it."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sigpole"):
            for alias in node.names:
                if node.module == "sigpole":
                    value = importlib.import_module(f"sigpole.{alias.name}")
                else:
                    value = getattr(importlib.import_module(node.module), alias.name)
                names[alias.asname or alias.name] = value

    def resolve(expr: ast.expr) -> tuple[object, int]:
        if isinstance(expr, ast.Name):
            return names.get(expr.id), 0
        if isinstance(expr, ast.Attribute):
            owner = expr.value
            if isinstance(owner, ast.Name) and isinstance(names.get(owner.id), types.ModuleType):
                return getattr(names[owner.id], expr.attr), 0
            cls = resolve(owner.func)[0] if isinstance(owner, ast.Call) else None
            if isinstance(cls, type):
                return getattr(cls, expr.attr), 1
        return None, 0

    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target, args, keywords = node.func, node.args, node.keywords
        if (isinstance(target, ast.Attribute) and target.attr == "call"
                and isinstance(target.value, ast.Name) and target.value.id == "rec"):
            target, args = args[1], args[2:]
            keywords = [k for k in keywords if k.arg not in ("check", "span")]
        fn, instance = resolve(target)
        if fn is None:
            continue
        count = None if any(isinstance(a, ast.Starred) for a in args) else instance + len(args)
        out.append((f"workloads.py:{node.lineno}", fn, count,
                    [k.arg for k in keywords if k.arg is not None]))
    return out


def test_benchmark_call_keywords_bind():
    # the benchmark's workloads pass keywords that no tier-1 test passes; a
    # parameter renamed or dropped must fail here, not in the benchmark
    bound = set()
    for where, fn, count, keywords in workload_calls():
        signature = inspect.signature(fn)
        try:
            signature.bind_partial(*[None] * (count or 0), **dict.fromkeys(keywords))
        except TypeError as exc:
            raise AssertionError(f"{where}: {fn.__qualname__}{signature} rejects "
                                 f"{count} positionals and {keywords}: {exc}") from None
        bound.update((fn.__qualname__, key) for key in keywords)
    assert {("l_pullback_mc", "chart"), ("l_direct_mc", "workers"),
            ("wick_grid_oracle", "m"), ("BlowupChart.F_inverse_exact_batch", "tol"),
            ("mean_iterated_integral", "evaluator"),
            ("mean_iterated_integral", "samples")} <= bound, sorted(bound)
