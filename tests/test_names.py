"""Every global name a dirmax module loads is defined, imported or a builtin;
the package exports names, not its submodules.

A stdlib stand-in for a linter's undefined-name check: a module that uses a
name it never imports (say ``Fraction``) fails only when that line runs.
"""

from __future__ import annotations

import ast
import builtins
import pkgutil
import symtable
import sys
from pathlib import Path
from types import ModuleType

import dirmax

MODULE_NAMES = set(dir(builtins)) | {
    "__name__", "__file__", "__doc__", "__spec__", "__loader__", "__package__", "__path__",
}


def undefined_globals(source: str, filename: str) -> list[tuple[str, int]]:
    """(name, scope line) for each global name loaded but never bound."""
    top = symtable.symtable(source, filename, "exec")
    bound = {
        s.get_name()
        for s in top.get_symbols()
        if s.is_assigned() or s.is_imported() or s.is_namespace()
    } | MODULE_NAMES
    missing = []

    def walk(table: symtable.SymbolTable) -> None:
        for sym in table.get_symbols():
            at_module = table is top or sym.is_global()
            if at_module and sym.is_referenced() and sym.get_name() not in bound:
                missing.append((sym.get_name(), table.get_lineno()))
        for child in table.get_children():
            walk(child)

    walk(top)
    return sorted(set(missing))


def test_checker_flags_an_unimported_name():
    src = "import math\n\ndef f(x):\n    y = math.pi\n    return Fraction(x) + y + len([])\n"
    assert undefined_globals(src, "<probe>") == [("Fraction", 3)]
    assert undefined_globals("from fractions import Fraction\n" + src, "<probe>") == []
    src = "class C:\n    z = 1\n    def g(self):\n        return z\n"
    assert undefined_globals(src, "<probe>") == [("z", 3)]


def test_dirmax_modules_define_every_global_they_load():
    paths = sorted(Path(dirmax.__file__).parent.glob("*.py"))
    assert len(paths) > 10
    found = {p.name: undefined_globals(p.read_text(), str(p)) for p in paths}
    assert {name: names for name, names in found.items() if names} == {}


def test_package_exports_no_modules():
    exported = {name: getattr(dirmax, name) for name in dirmax.__all__}
    assert [name for name, value in exported.items() if isinstance(value, ModuleType)] == []
    assert {"maximal_apply", "GridFunction", "cli_main", "run_verify"} <= set(exported)
    assert "maximal" not in exported and "ModuleType" not in exported


def test_package_attributes_are_its_loaded_submodules():
    """``import dirmax.badness as b`` binds the module: no public name of the
    package shadows a submodule of the same name."""
    names = [info.name for info in pkgutil.iter_modules(dirmax.__path__)]
    loaded = [name for name in names if "dirmax." + name in sys.modules]
    assert {"badness", "grids", "maximal", "stopping_time"} <= set(loaded)
    assert [name for name in loaded if getattr(dirmax, name) is not sys.modules["dirmax." + name]] == []


def unused_public_names(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) for each public top-level function or class of a module
    (not the oracle, ``__init__`` or ``__main__``) that no other module but
    ``__init__`` imports and its own module never loads outside its
    definition.  Only loads count: a dataclass field or an attribute that
    shares the name does not."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    imported = {
        (node.module, alias.name)
        for mod, tree in trees.items()
        if mod != "__init__"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    unused = []
    for mod, tree in trees.items():
        if mod in ("oracle", "__init__", "__main__"):
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            own = {id(n) for n in ast.walk(node)}
            loaded = any(
                isinstance(n, ast.Name) and n.id == node.name and isinstance(n.ctx, ast.Load) and id(n) not in own
                for n in ast.walk(tree)
            )
            if not loaded and (mod, node.name) not in imported:
                unused.append((mod, node.name))
    return unused


def test_unused_name_checker_flags_probes():
    sources = {
        "a": "def f(n):\n    return f(n - 1)\n\ndef g():\n    pass\n\nclass C:\n    f: int\n\nx = g\n",
        "b": "from .a import C\n\ndef _h(c):\n    return c.f\n",
        "__init__": "from .a import f\n",
        "oracle": "def referee():\n    pass\n",
    }
    assert unused_public_names(sources) == [("a", "f")]
    sources["b"] += "from .a import f\n"
    assert unused_public_names(sources) == []


def test_every_public_name_outside_the_oracle_is_used():
    """A public function or class that only tests call belongs in the tests
    or the oracle: the package's re-exports do not count as a use."""
    root = Path(dirmax.__file__).parent
    sources = {p.stem: p.read_text() for p in sorted(root.glob("*.py"))}
    assert unused_public_names(sources) == []


def non_stdlib_imports(source: str) -> list[str]:
    """Modules a source imports that are not in the standard library; a
    relative import names its dots, so any package-internal import counts."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        else:
            continue
        stdlib = sys.stdlib_module_names
        found += [n for n in names if n.startswith(".") or n.split(".")[0] not in stdlib]
    return found


def test_import_checker_flags_package_and_third_party_imports():
    assert non_stdlib_imports("from .geometry import slab_run\n") == [".geometry"]
    src = "import numpy as np\nfrom dirmax import grids\n"
    assert non_stdlib_imports(src) == ["numpy", "dirmax"]
    assert non_stdlib_imports("from __future__ import annotations\nimport math, os.path\n") == []


def test_oracle_imports_only_the_standard_library():
    """The oracle referees the fast code, so it shares none of it."""
    path = Path(dirmax.__file__).parent / "oracle.py"
    assert non_stdlib_imports(path.read_text()) == []


def call_state_hooks(source: str) -> list[str]:
    """Ways a source could carry answers from one call into the next: each
    decorated function (a cache is a decorator) and each functools import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.decorator_list:
            found.append(f"decorated {node.name}")
        elif isinstance(node, ast.Import):
            found += [f"import {a.name}" for a in node.names if a.name.split(".")[0] == "functools"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "functools":
            found.append("from functools")
    return found


def test_state_checker_flags_caches_and_functools():
    src = "import functools\n\n@functools.lru_cache\ndef slab(c):\n    return c\n"
    assert call_state_hooks(src) == ["import functools", "decorated slab"]
    src = "from functools import cache\n\nclass C:\n    @staticmethod\n    def f():\n        pass\n"
    assert call_state_hooks(src) == ["from functools", "decorated f"]
    assert call_state_hooks("import math\n\ndef f(x):\n    return math.floor(x)\n") == []


def test_oracle_keeps_no_state_between_calls():
    """No oracle function is decorated and nothing comes from functools, so no
    call can answer from a table another instance filled."""
    path = Path(dirmax.__file__).parent / "oracle.py"
    assert call_state_hooks(path.read_text()) == []


def attribute_scopes(source: str, attr: str) -> list[str]:
    """The dotted class/function scope of each use of ``.attr`` in a source."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Attribute) and child.attr == attr:
                found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def call_scopes(source: str, name: str) -> list[str]:
    """The dotted class/function scope of each call of ``name``, bare or as an attribute."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            func = getattr(child, "func", None)
            if isinstance(child, ast.Call) and name in (getattr(func, "id", None), getattr(func, "attr", None)):
                found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def name_lines(source: str, name: str) -> list[int]:
    """Lines where a source imports, binds or reads ``name``, bare or as an attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            hit = any(name in (alias.name, alias.asname) for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            hit = node.name == name
        else:
            hit = getattr(node, "id", None) == name or getattr(node, "attr", None) == name
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_scope_and_name_checkers_flag_probes():
    src = (
        "class ChoiceMap:\n    def check(self):\n        return self.fam.members\n\n"
        "def f(fam):\n    return [r.k for r in fam.members]\n"
    )
    assert attribute_scopes(src, "members") == ["ChoiceMap.check", "f"]
    assert attribute_scopes("x = fam.members\n", "members") == ["<module>"]
    src = "class F:\n    def members(self):\n        return [geometry.P(1), P(2)]\n\nx = [P(0), P]\n"
    assert call_scopes(src, "P") == ["F.members", "F.members", "<module>"]
    assert call_scopes("P.x(1)\nQ(P)\n", "P") == []
    name = "integrate_scaled"
    assert name_lines("from .grids import GridFunction, integrate_scaled\n", name) == [1]
    assert name_lines("from . import grids\nx = grids.integrate_scaled\n", name) == [2]
    assert name_lines("from .grids import integrate_scaled as g\n", name) == [1]
    assert name_lines("from .grids import GridFunction\n", name) == []


def test_member_objects_are_read_only_in_family():
    """The operators, badness, verify and the CLI read family key rows and
    name a member by its index; the oracle referees the painter, so no cell
    walk over Parallelogram objects is left, nor a per-member integral path."""
    from dirmax import family, geometry, maximal

    root = Path(dirmax.__file__).parent
    reads = {p.stem: attribute_scopes(p.read_text(), "members") for p in sorted(root.glob("*.py"))}
    assert {mod: scopes for mod, scopes in reads.items() if scopes and mod != "family"} == {}
    assert name_lines((root / "maximal.py").read_text(), "integrate_scaled") == []
    gone = [
        (maximal.ChoiceMap, ("check",)),
        (family.RectangleFamily, ("index",)),
        (geometry.Parallelogram, ("center_rows", "contains_cell", "cell_indices")),
    ]
    assert [(o.__name__, n) for o, names in gone for n in names if hasattr(o, n)] == []


def test_families_are_built_from_key_rows_only():
    """RectangleFamily has one constructor, over checked key rows, which every
    builder calls; src/ constructs a Parallelogram only where
    ``RectangleFamily.members`` builds its view, and no test constructs one."""
    from dirmax import family

    root = Path(dirmax.__file__).parent
    for modules, want in (
        (sorted(root.glob("*.py")), {"family.py": ["RectangleFamily.members"]}),
        (sorted(Path(__file__).parent.glob("*.py")), {}),
    ):
        calls = {p.name: call_scopes(p.read_text(), "Parallelogram") for p in modules}
        assert {name: scopes for name, scopes in calls.items() if scopes} == want
    gone = [(family.RectangleFamily, ("_adopt", "_init")), (family, ("_member",))]
    assert [(o.__name__, n) for o, names in gone for n in names if hasattr(o, n)] == []


def test_the_member_view_holds_a_checked_row_and_what_the_bench_reads():
    """geometry.check_key_rows is the one member rule set: the Parallelogram
    view has no checks of its own, is not exported, and holds one key row
    plus what perfbench's counters read (base, col_lo, col_hi, touched_rows)."""
    from dataclasses import fields

    from dirmax import DyadicRational, FamilyParams, GridSpec, RectangleFamily, geometry

    view = geometry.Parallelogram
    assert "Parallelogram" not in dirmax.__all__ and not hasattr(dirmax, "Parallelogram")
    assert not hasattr(view, "__post_init__")
    [member] = RectangleFamily(FamilyParams(GridSpec(4, 2), DyadicRational(1)), [(1, 1, 0, 2)]).members
    assert [f.name for f in fields(view)] == ["spec", "row"] and member.row == (1, 1, 0, 2)
    public = {name for name in dir(member) if not name.startswith("_")}
    assert public == {"spec", "row", "base", "col_lo", "col_hi", "touched_rows"}


def test_one_staircase_outside_the_oracle():
    """Member integrals come from the key-row kernel (maximal._scaled_averages)
    and overlaps and unions from BadnessEngine's slab runs: the per-member
    copies of both are gone, and no module or note names them."""
    from dirmax import geometry, grids

    gone = [
        (grids, ("integrate_scaled", "integrate", "average")),
        (geometry, ("overlap_measure", "union_measure")),
        (geometry.Parallelogram, ("slabs", "slab_lows", "column_segment", "pi2")),
    ]
    assert [(o.__name__, n) for o, names in gone for n in names if hasattr(o, n)] == []
    root = Path(dirmax.__file__).parent
    sources = sorted(root.glob("*.py")) + sorted((root.parents[1] / "notes").glob("*.py"))
    found = {
        (p.name, name): lines
        for p in sources
        for name in ("integrate_scaled", "overlap_measure", "column_segment", "slab_lows")
        if (lines := name_lines(p.read_text(), name))
    }
    assert found == {}


def test_vertical_maximal_builds_no_fractions():
    """m2_vertical returns integer (num, den) arrays: maximal.py names no
    Fraction, and no module names the per-cell Fraction grid it once built."""
    root = Path(dirmax.__file__).parent
    assert name_lines((root / "maximal.py").read_text(), "Fraction") == []
    found = {p.name: name_lines(p.read_text(), "RationalGrid") for p in sorted(root.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def method_annotations(source: str, cls: str) -> dict[str, list[str]]:
    """Per method of a class in a source, the source text of each argument annotation."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for fn in node.body:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
                    found[fn.name] = [ast.unparse(a.annotation) for a in args if a.annotation]
    return found


def test_annotation_checker_reads_each_method():
    src = (
        "class E:\n    def f(self, w: list[int], keep: Callable[[int], bool] | None = None):\n"
        "        pass\n\n    def g(self, *, I: int):\n        pass\n"
    )
    assert method_annotations(src, "E") == {"f": ["list[int]", "Callable[[int], bool] | None"], "g": ["int"]}
    assert method_annotations(src, "F") == {}


def test_badness_builds_no_frozensets_and_takes_no_member_callbacks():
    """Badness scans read one weight vector and its cell sets are int32
    arrays: no BadnessEngine method takes a callable, and no frozenset is left.
    The engine keeps B_R an integer: its source names no DyadicRational."""
    source = (Path(dirmax.__file__).parent / "badness.py").read_text()
    assert name_lines(source, "frozenset") == []
    methods = method_annotations(source, "BadnessEngine")
    assert {"badness_of", "fits", "touched_cells"} <= set(methods) and "box_mass" not in methods
    [engine] = [n for n in ast.parse(source).body if isinstance(n, ast.ClassDef) and n.name == "BadnessEngine"]
    assert name_lines(ast.unparse(engine), "DyadicRational") == []
    assert {name: a for name, a in methods.items() if any("Callable" in t for t in a)} == {}


def from_imports(source: str, module: str) -> set[str]:
    """The names a source imports from one module (``.maximal`` for a relative import)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and "." * node.level + (node.module or "") == module:
            found |= {alias.name for alias in node.names}
    return found


def test_import_name_checker_reads_each_from_import():
    src = "from .maximal import ChoiceMap, nu_all\nfrom .grids import cell_array\nimport numpy\n"
    assert from_imports(src, ".maximal") == {"ChoiceMap", "nu_all"}
    assert from_imports(src, ".grids") == {"cell_array"}
    assert from_imports(src, "numpy") == set()


def test_badness_applies_no_operator():
    """badness.py is tables over the member engine: it imports from maximal
    only the choice map and its counts, and calls no operator."""
    source = (Path(dirmax.__file__).parent / "badness.py").read_text()
    assert from_imports(source, ".maximal") == {"ChoiceMap", "nu_all"}
    names = ("apply_T_adjoint", "maximal_apply", "estimate_norm", "GridFunction")
    assert {name: lines for name in names if (lines := name_lines(source, name))} == {}


def test_stopping_time_holds_no_float_norm_estimates():
    """The L2 assembly waits for an exact, refereed form: stopping_time.py
    imports from maximal only the choice map, T, T* and M2,
    names no math and none of the float lower estimates, and the T*T ascent
    lives only in estimate_norm."""
    from dirmax import calibration, maximal

    source = (Path(dirmax.__file__).parent / "stopping_time.py").read_text()
    assert from_imports(source, ".maximal") == {"ChoiceMap", "apply_T", "apply_T_adjoint", "m2_vertical"}
    names = (
        "math", "generation_operator_ratio", "cross_norm_estimate", "orthogonality_table", "cotlar_stein_bound",
    )
    assert {name: lines for name in names if (lines := name_lines(source, name))} == {}
    assert not hasattr(maximal, "ascent_iterate")
    assert not hasattr(calibration, "DIAGONAL_RATIO_COEFF")


def test_interval_records_carry_no_unread_fields():
    from dataclasses import fields

    from dirmax.stopping_time import IntervalRecord

    assert [f.name for f in fields(IntervalRecord)] == ["interval", "assignment", "stops", "omegas", "classify"]


def test_shrink_records_carry_no_unread_fields():
    from dataclasses import fields

    from dirmax.badness import ShrinkDiagnostics, ShrinkTrace

    assert {"f_cells", "lam0"} & {f.name for f in fields(ShrinkDiagnostics)} == set()
    assert "lam0" not in {f.name for f in fields(ShrinkTrace)}


def test_log_n_experiment_lives_in_sweeps():
    from dirmax import sweeps

    root = Path(dirmax.__file__).parent
    defined = {
        p.name
        for p in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name in ("multi_collection_experiment", "GrowthReport")
    }
    assert defined == {"sweeps.py"}
    assert dirmax.multi_collection_experiment is sweeps.multi_collection_experiment


def test_stopping_time_computes_theta_as_integer_rows(monkeypatch):
    """Theta is integer rows: ``ThetaPair`` is gone, and ``run_generations`` on
    the cascade (delta 1/2, m_w = m - 2, random_grid seed 0) builds the same
    one DyadicRational at m 7 and at m 10, the ``spec.w`` of its width check,
    and none per interval, pair or level."""
    import random

    from dirmax import DyadicRational, stopping_time
    from dirmax.family import FamilyParams, enumerate_family
    from dirmax.geometry import GridSpec
    from dirmax.instances import cascade_field, random_grid
    from dirmax.maximal import linearize

    root = Path(dirmax.__file__).parent
    found = {p.name: name_lines(p.read_text(), "ThetaPair") for p in sorted(root.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
    counts = []
    for m in (7, 10):
        spec = GridSpec(m, m - 2, False)
        v, w, delta = cascade_field(spec), spec.w, DyadicRational(1, 1)
        rho = linearize(random_grid(spec, random.Random(0)), enumerate_family(FamilyParams(spec, delta), v))
        built = []
        init = DyadicRational.__init__
        monkeypatch.setattr(DyadicRational, "__init__", lambda self, *a: built.append(a) or init(self, *a))
        res = stopping_time.run_generations(v, w, delta, rho)
        monkeypatch.undo()
        assert len(res.generations) > 1
        counts.append(len(built))
    assert counts == [1, 1]


def test_slope_cells_are_dyadic_intervals():
    """A slope cell is a DyadicInterval, so SlopeCell is gone, and one helper,
    ``family._unique_rows``, sorts and dedupes every table of integer rows."""
    from dirmax import family, geometry, stopping_time

    assert not hasattr(dirmax, "SlopeCell") and not hasattr(geometry, "SlopeCell")
    assert not hasattr(family, "_lex_sorted") and not hasattr(stopping_time, "_theta")
    root = Path(dirmax.__file__).parent
    found = {p.name: name_lines(p.read_text(), "SlopeCell") for p in sorted(root.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_grids_and_fields_share_one_value_body():
    """GridFunction and OneVarField share one body: grids.py defines each
    shared method once, and the operators trust the constructor's check."""
    from dirmax import grids, maximal

    tree = ast.parse(Path(grids.__file__).read_text())
    defined = [
        item.name
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef)
    ]
    shared = ("__eq__", "__hash__", "from_values", "constant", "values", "reduced")
    assert {name: defined.count(name) for name in shared} == dict.fromkeys(shared, 1)
    assert not hasattr(grids, "_check_grid") and not hasattr(maximal, "_require_nonneg")
