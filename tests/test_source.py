"""Static checks of the package source.  Every name a module imports is used
in that module; ``__init__`` is exempt, since it imports to re-export.  Every
private top-level function, class and constant is referenced somewhere in
the package, so a folded helper cannot linger beside its replacement.  No
module other than ``__init__`` refers to ``mesh`` beyond defining it: radial
functions are sampled by ``PhaseGrid.radial``, and coordinates by ``axes``.
``starproduct`` never calls ``PhaseGrid.radial``: F and dF/dn stay tables over
the distinct radii, gathered one row block at a time.
``expressions`` neither imports ``math`` nor reads ``ndim``: its nodes have
one numpy evaluator for scalar and array n.  ``deformation`` raises
``NonPositiveValue`` and ``SingularAmplitude`` only inside ``_refuse``.
``symbols.moyal_exact`` neither calls ``.partial`` nor builds a validated
``PolySymbol(...)``: it takes each partial once and sums terms in place.
``ResidualReport(...)`` is built only inside ``genvalue._report``, and
``io.report_to_dict`` calls no ``.pop``: the report's fields are its schema.
A field is its samples and one exact source: ``Field.__slots__`` is
("grid", "values", "label", "source"), so neither a second source slot nor a
memo of partials can come back unnoticed.  ``.source`` is assigned only in
``phasespace``'s ``Field.__init__``, ``Field.conjugate``, ``field_from_poly``
and ``AnalyticStructure.field``, so only the builder that sampled a field
from its source attaches it.  ``starproduct`` calls neither
``partial_field`` nor ``gradient``: a product forms its operands' partials
one row block at a time, calling ``_partials`` with its blocks.  ``verify``
calls ``partial_field`` in check 8 alone and ``gradient`` nowhere, so its
Fock pass holds no mesh-sized partial.  The diagnostics' own products
(``SOURCE_PRODUCTS``: ``hamiltonian_star``, ``commutator_deviation``,
``fock_pass``, verify check 6 and ``cli._assoc``) sample no operand field:
they call none of ``build_hamiltonian``, ``ladder_fields``,
``field_from_poly`` or ``.field``, and take H, A, Abar and the probe as
exact sources.
The f-star bracket term, an (i hbar / 2) factor multiplied onto F and the
bracket, is formed in one function, the row-block kernel
``starproduct._star_block``.  A module imports another package
module's private names only as ``PRIVATE_IMPORTS`` lists, and reads
``x._name`` on an object other than ``self`` or ``cls`` only where it defines
``_name`` itself, so the row-block stream stays behind ``ProductSetup``.
A polynomial is sampled on a grid through ``phasespace._poly_samples``:
outside it, ``.eval_grid`` is called only where a whole mesh is wanted
(``field_from_poly``, ``genvalue._defect_norm``), and outside ``symbols`` no
function asks ``.is_constant`` or ``.constant_value``.  No
module imports ``threading`` or ``concurrent.futures``, or reads
``os.environ`` or ``os.getenv``: the library runs on one thread and takes no
settings from the environment.  The 4th-order stencil ``phasespace._fd4_axis``
is reached only through ``phasespace.fd4_partial``, which a caller names:
``partial_field`` serves exact partials or refuses.
``starproduct`` has no ``try`` statement, and no ``ProductSetup`` method
calls ``self.product``: each f-star result is formed in one row-block pass
and checked once, with no whole-mesh replay to name its refusal.
Every defaulted parameter of the public callables, and of ``ProductSetup``'s
methods, is listed in ``DEFAULTED_PARAMETERS``, so a new option is entered
there on purpose."""

import ast
import dataclasses
import inspect
import pathlib

import pytest

import fstarq
from fstarq.starproduct import ProductSetup

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "fstarq"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_unused_import_is_caught():
    source = "import math\nfrom typing import Iterable, Mapping\nx: Mapping = math.pi\n"
    assert unused_imports(source) == ["line 2: Iterable"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _private_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """'module line N: name' for each private top-level name that no module
    loads, either bare or as an attribute."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    return [f"{module} line {line}: {name}"
            for module, tree in trees.items()
            for name, line in _private_definitions(tree) if name not in loaded]


def test_unreferenced_private_is_caught():
    sources = {
        "a": "_USED = 1\n_UNUSED = 2\ndef _helper():\n    return _USED\n"
             "class _Spare:\n    pass\n",
        "b": "from a import _helper\nx = _helper()\n",
    }
    assert unreferenced_privates(sources) == ["a line 2: _UNUSED", "a line 5: _Spare"]


def test_every_private_name_is_referenced():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unreferenced_privates(sources) == []


def mesh_references(source: str) -> list[int]:
    """Lines that import, call or otherwise load ``mesh``; its definition is none."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if ((isinstance(node, ast.Name) and node.id == "mesh")
                or (isinstance(node, ast.Attribute) and node.attr == "mesh")
                or (isinstance(node, ast.ImportFrom)
                    and any(alias.name == "mesh" for alias in node.names))):
            lines.add(node.lineno)
    return sorted(lines)


def test_mesh_reference_is_caught():
    source = ("from .phasespace import axes, mesh\n"
              "def mesh(grid):\n    return grid\n"
              "Q, P = mesh(g)\n"
              "x = phasespace.mesh\n"
              "meshes = grid.axes()\n")
    assert mesh_references(source) == [1, 4, 5]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_samples_no_full_mesh(path):
    assert mesh_references(path.read_text(encoding="utf-8")) == []


def radial_references(source: str) -> list[int]:
    """Lines that call or otherwise load ``.radial``, the whole-mesh gather of
    a radial function; ``radial_table`` and ``gather`` are other names."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute) and node.attr == "radial"})


def test_radial_reference_is_caught():
    source = ("F = grid.radial(fn, 2.0)\n"
              "table = grid.radial_table(fn, 2.0)\n"
              "F = grid.gather(table, rows)\n"
              "sample = functools.partial(self.grid.radial,\n    scale=2.0)\n"
              "radial = 1\n")
    assert radial_references(source) == [1, 4]


def test_starproduct_samples_no_mesh_sized_amplitude():
    # F and dF/dn are tables over the distinct radii, gathered per row block
    assert radial_references((PACKAGE / "starproduct.py").read_text(encoding="utf-8")) == []


def scalar_branches(source: str) -> list[int]:
    """Lines that import ``math`` or read ``ndim``, the marks of a scalar branch."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if ((isinstance(node, ast.Import) and any(a.name == "math" for a in node.names))
                or (isinstance(node, ast.ImportFrom) and node.module == "math")
                or (isinstance(node, ast.Attribute) and node.attr == "ndim")
                or (isinstance(node, ast.Name) and node.id == "ndim")):
            lines.add(node.lineno)
    return sorted(lines)


def test_scalar_branch_is_caught():
    source = ("import math\n"
              "from math import exp\n"
              "import numpy as np\n"
              "y = np.exp(x) if np.ndim(x) else exp(x)\n"
              "z = x.ndim\n"
              "w = np.sqrt(x)\n")
    assert scalar_branches(source) == [1, 2, 4, 5]


def test_expressions_have_one_numpy_evaluator():
    assert scalar_branches((PACKAGE / "expressions.py").read_text(encoding="utf-8")) == []


REFUSAL_ERRORS = ("NonPositiveValue", "SingularAmplitude")


def refusals_outside_helper(source: str) -> list[int]:
    """Lines that raise one of ``REFUSAL_ERRORS`` outside the function ``_refuse``."""
    lines = []

    def visit(node, inside):
        if isinstance(node, ast.Raise) and not inside:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in REFUSAL_ERRORS:
                lines.append(node.lineno)
        inside = inside or (isinstance(node, ast.FunctionDef) and node.name == "_refuse")
        for child in ast.iter_child_nodes(node):
            visit(child, inside)
    visit(ast.parse(source), False)
    return sorted(lines)


def test_refusal_outside_helper_is_caught():
    source = ("def _refuse(error, what, bad):\n"
              "    if bad:\n        raise error(what)\n"
              "def f(n):\n"
              "    if n < 0:\n        raise NonPositiveValue('n')\n"
              "    raise SingularAmplitude\n"
              "def g():\n    raise ValueError('other')\n")
    assert refusals_outside_helper(source) == [6, 7]


def test_deformation_refuses_through_one_helper():
    source = (PACKAGE / "deformation.py").read_text(encoding="utf-8")
    assert refusals_outside_helper(source) == []


def per_step_calls(source: str, function: str) -> list[int]:
    """Lines in ``function`` that call ``.partial`` or the validating ``PolySymbol(...)``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == function:
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and (
                        (isinstance(call.func, ast.Attribute) and call.func.attr == "partial")
                        or (isinstance(call.func, ast.Name) and call.func.id == "PolySymbol")):
                    lines.add(call.lineno)
    return sorted(lines)


def test_per_step_call_is_caught():
    source = ("def moyal_exact(k, g, hbar):\n"
              "    out = PolySymbol()\n"
              "    left = k.partial(1, 0)\n"
              "    return PolySymbol._of(out.terms)\n"
              "def other(k):\n    return PolySymbol(k.partial(0, 1).terms)\n")
    assert per_step_calls(source, "moyal_exact") == [2, 3]


def test_moyal_exact_builds_no_per_step_symbols():
    source = (PACKAGE / "symbols.py").read_text(encoding="utf-8")
    assert per_step_calls(source, "moyal_exact") == []


def reports_built_outside_helper(source: str) -> list[int]:
    """Lines that call ``ResidualReport(...)`` outside the function ``_report``."""
    lines = []

    def visit(node, inside):
        if (isinstance(node, ast.Call) and not inside and isinstance(node.func, ast.Name)
                and node.func.id == "ResidualReport"):
            lines.append(node.lineno)
        inside = inside or (isinstance(node, ast.FunctionDef) and node.name == "_report")
        for child in ast.iter_child_nodes(node):
            visit(child, inside)
    visit(ast.parse(source), False)
    return sorted(lines)


def test_report_built_outside_helper_is_caught():
    source = ("def _report(name, residual):\n"
              "    return ResidualReport(name, residual)\n"
              "def genvalue_residual(n):\n"
              "    return ResidualReport('genvalue', n)\n"
              "report = ResidualReport('commutator', None)\n"
              "def other():\n    return Report('x')\n")
    assert reports_built_outside_helper(source) == [4, 5]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_residual_reports_are_built_by_one_helper(path):
    assert reports_built_outside_helper(path.read_text(encoding="utf-8")) == []


def pops_in(source: str, function: str) -> list[int]:
    """Lines in ``function`` that call ``.pop``."""
    return sorted({call.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.FunctionDef) and node.name == function
                   for call in ast.walk(node)
                   if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                   and call.func.attr == "pop"})


def test_pop_is_caught():
    source = ("def report_to_dict(report):\n"
              "    params = dict(report.params)\n"
              "    grid = params.pop('grid', None)\n"
              "    return {'spec': params.pop('spec', None), 'grid': grid}\n"
              "def other(d):\n    return d.pop('x')\n")
    assert pops_in(source, "report_to_dict") == [3, 4]


def test_report_to_dict_reads_fields_and_pops_nothing():
    assert pops_in((PACKAGE / "io.py").read_text(encoding="utf-8"), "report_to_dict") == []


SOURCE_ATTRIBUTES = ("source",)
SOURCE_SETTERS = ("Field.__init__", "Field.conjugate", "field_from_poly",
                  "AnalyticStructure.field")


def scoped_nodes(source: str):
    """(node, scope) for every node of source, scope being the qualified name
    of the class or function around it ("" at module level)."""
    def visit(node, scope):
        yield node, scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)
    return visit(ast.parse(source), "")


def _setattr_of(node, names) -> bool:
    """node is a ``setattr(x, name, ...)`` call for a literal name in names."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "setattr" and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant) and node.args[1].value in names)


def source_assignments(source: str, allowed=()) -> list[int]:
    """Lines that assign ``.source``, directly or by ``setattr``, outside the
    functions named (by qualified name) in ``allowed``."""
    def assigns(node):
        return ((isinstance(node, ast.Attribute) and node.attr in SOURCE_ATTRIBUTES
                 and isinstance(node.ctx, ast.Store))
                or _setattr_of(node, SOURCE_ATTRIBUTES))
    return sorted(node.lineno for node, scope in scoped_nodes(source)
                  if scope not in allowed and assigns(node))


def test_source_assignment_is_caught():
    source = ("class Field:\n"
              "    def __init__(self, poly):\n        self.source = None\n"
              "    def attach(self, poly):\n        self.source = poly\n"
              "def field_from_poly(poly, grid):\n"
              "    field = Field(grid)\n    field.source = poly\n    return field\n"
              "def build(structure, grid):\n"
              "    out = Field(grid)\n    out.source = structure\n"
              "    setattr(out, 'source', None)\n    return out.source\n")
    assert source_assignments(source, SOURCE_SETTERS) == [5, 12, 13]
    assert source_assignments(source) == [3, 5, 8, 12, 13]


def test_a_field_holds_its_samples_and_one_source():
    assert fstarq.Field.__slots__ == ("grid", "values", "label", "source")


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_exact_sources_are_attached_only_by_their_builders(path):
    allowed = SOURCE_SETTERS if path.stem == "phasespace" else ()
    assert source_assignments(path.read_text(encoding="utf-8"), allowed) == []


def whole_mesh_partial_calls(source: str) -> list[int]:
    """Lines that call ``partial_field`` or ``gradient``, by name or as an
    attribute, or ``_partials`` without a third (blocks) argument."""
    def name(func):
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and (name(node.func) in ("partial_field", "gradient")
                       or (name(node.func) == "_partials"
                           and len(node.args) + len(node.keywords) < 3)))


def test_whole_mesh_partial_call_is_caught():
    source = ("from .phasespace import _partials, gradient, partial_field\n"
              "def product(k, g, grid):\n"
              "    kq = partial_field(k, 1, 0)\n    gq, gp = phasespace.gradient(g)\n"
              "    for rows, parts in _partials(grid, [(k, 0, 1)], grid.row_blocks()):\n"
              "        pass\n"
              "    return (_partials(grid, [(g, 1, 1)]),\n"
              "            _partials(grid, [(g, 2, 0)], blocks=[rows]))\n")
    assert whole_mesh_partial_calls(source) == [3, 4, 7]


def test_products_form_partials_only_in_row_blocks():
    # a product never leaves a mesh-sized partial behind: it forms each
    # operand partial one row block at a time and memoizes none
    source = (PACKAGE / "starproduct.py").read_text(encoding="utf-8")
    assert whole_mesh_partial_calls(source) == []


def partial_calls(source: str) -> list[str]:
    """'function: name' for each call of ``partial_field`` or ``gradient``, by
    name or as an attribute, with the top-level function it sits in."""
    found = []
    for node in ast.parse(source).body:
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                func = call.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("partial_field", "gradient"):
                    found.append(f"{getattr(node, 'name', 'module')}: {name}")
    return found


def test_partial_call_is_caught():
    source = ("def fock_pass(w):\n    gradient(w)\n    return phasespace.gradient(w)\n"
              "def check(w):\n    return [partial_field(w, *key) for key in KEYS]\n"
              "W = partial_field(w, 1, 0)\n")
    assert partial_calls(source) == ["fock_pass: gradient", "fock_pass: gradient",
                                     "check: partial_field", "module: partial_field"]


def test_verify_memoizes_no_partials_but_check_8s():
    # the Fock pass streams its products' partials and holds no mesh-sized
    # one; check 8 compares one exact partial per axis with its stencil
    source = (PACKAGE / "verify.py").read_text(encoding="utf-8")
    assert partial_calls(source) == ["check_derivative_crosscheck: partial_field"]


# The functions whose own products take their operands as exact sources, by
# module; a sampled operand field would be a mesh-sized copy of its source
SOURCE_PRODUCTS = {"genvalue": ("hamiltonian_star", "commutator_deviation"),
                   "verify": ("fock_pass", "check_associativity_scaling"),
                   "cli": ("_assoc",)}
FIELD_SAMPLERS = ("build_hamiltonian", "ladder_fields", "field_from_poly", "field")


def operand_samplings(source: str, functions) -> list[str]:
    """'function: name' for each call of a ``FIELD_SAMPLERS`` name, by name or
    as an attribute, inside each top-level function of ``functions``, and
    'function: missing' for one that source does not define."""
    found, defined = [], set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name in functions:
            defined.add(node.name)
            calls = sorted((call for call in ast.walk(node) if isinstance(call, ast.Call)),
                           key=lambda call: (call.lineno, call.col_offset))
            for call in calls:
                func = call.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in FIELD_SAMPLERS:
                    found.append(f"{node.name}: {name}")
    return found + [f"{name}: missing" for name in functions if name not in defined]


def test_operand_sampling_is_caught():
    source = ("def fock_pass(spec, grid):\n"
              "    return build_hamiltonian(spec, grid).source, genvalue.ladder_fields(spec, grid)\n"
              "def _assoc(grid):\n"
              "    return [field_from_poly(poly, grid) for poly in PROBE]\n"
              "def commutator_deviation(structure, grid):\n"
              "    return structure.field(grid, 'A'), dataclasses.fields(structure)\n"
              "def other(spec, grid):\n    return build_hamiltonian(spec, grid)\n")
    assert operand_samplings(source, ("fock_pass", "_assoc", "commutator_deviation",
                                      "hamiltonian_star")) == [
        "fock_pass: build_hamiltonian", "fock_pass: ladder_fields", "_assoc: field_from_poly",
        "commutator_deviation: field", "hamiltonian_star: missing"]
    # the guard reads the real modules: putting back the sampled ladder fields
    # in commutator_deviation is caught
    genvalue = (PACKAGE / "genvalue.py").read_text(encoding="utf-8")
    mutant = genvalue.replace("A, Abar = _ladder(spec, grid)", "A, Abar = ladder_fields(spec, grid)")
    assert mutant != genvalue
    assert operand_samplings(mutant, SOURCE_PRODUCTS["genvalue"]) == [
        "commutator_deviation: ladder_fields"]


@pytest.mark.parametrize("module", SOURCE_PRODUCTS)
def test_diagnostic_products_sample_no_operand_field(module):
    # H, A, Abar and the associativity probe reach the products as exact
    # sources; only the samples a caller reads (W_n) are a field
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert operand_samplings(source, SOURCE_PRODUCTS[module]) == []


def bracket_term_functions(source: str) -> list[str]:
    """Qualified names of the functions that multiply an (i hbar / 2) factor,
    a product with an imaginary literal such as ``0.5j * hbar``, onto something
    else: the f-star bracket term.  Raising the factor to a power, as the Moyal
    series does, is not such a term."""
    def is_factor(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and any(isinstance(side, ast.Constant) and isinstance(side.value, complex)
                        for side in (node.left, node.right)))

    names = set()

    def visit(node, scope):
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and (is_factor(node.left) or is_factor(node.right))):
            names.add(scope)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        for child in ast.iter_child_nodes(node):
            visit(child, scope)
    visit(ast.parse(source), "")
    return sorted(names)


def test_bracket_term_is_caught():
    source = ("def _star_block(hbar, F, poisson, br):\n"
              "    return (0.5j * hbar) * F * poisson, (0.5j * hbar) * (F * br)\n"
              "def moyal(hbar, m):\n    return (0.5j * hbar) ** m / 2 + 1j * m\n"
              "class Setup:\n"
              "    def defect(self, F, x):\n        return x * (self.hbar * 0.5j * F)\n")
    assert bracket_term_functions(source) == ["Setup.defect", "_star_block"]


def test_bracket_term_is_formed_in_the_block_kernel_alone():
    found = {f"{path.stem}.{name}" for path in MODULES
             for name in bracket_term_functions(path.read_text(encoding="utf-8"))}
    assert found == {"starproduct._star_block"}


# Each private name one package module imports from another, by importer
PRIVATE_IMPORTS = {"symbols": {"expressions._Parser"},
                   "starproduct": {"phasespace._name", "phasespace._not_finite",
                                   "phasespace._partials", "phasespace._poly_samples"},
                   "genvalue": {"phasespace._require_finite"},
                   "io": {"phasespace._require_finite"},
                   "verify": {"genvalue._residual_report"}}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def foreign_privates(sources: dict[str, str], allowed=PRIVATE_IMPORTS) -> list[str]:
    """'module line N: name' for each private name a module imports from a
    package module outside ``allowed``, and each ``x._name`` it reads on an
    object other than ``self`` or ``cls`` where it defines no ``_name``."""
    found = []
    for module, text in sources.items():
        tree = ast.parse(text)
        defined = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module != "__future__"
                    and (node.level or (node.module or "").startswith("fstarq"))):
                source = (node.module or "").rpartition(".")[2]
                found += [f"{module} line {node.lineno}: {source}.{alias.name}"
                          for alias in node.names if _is_private(alias.name)
                          and f"{source}.{alias.name}" not in allowed.get(module, ())]
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and _is_private(node.attr) and node.attr not in defined
                  and not (isinstance(node.value, ast.Name)
                           and node.value.id in ("self", "cls"))):
                found.append(f"{module} line {node.lineno}: .{node.attr}")
    return sorted(found)


def test_foreign_private_is_caught():
    sources = {
        "a": "_LIMIT = 1\nclass Setup:\n    def _fetch(self):\n        return self._kept\n"
             "def use(s):\n    return s._fetch(), s._other\n",
        "b": "from .a import _LIMIT, Setup\nfrom .c import _kernel\n"
             "def run(s):\n    return s._fetch() + s._own\n"
             "class Own:\n    def __init__(self):\n        self._own = 1\n",
        "c": "def _kernel():\n    return 0\n",
    }
    assert foreign_privates(sources, {"b": {"c._kernel"}}) == [
        "a line 6: ._other", "b line 1: a._LIMIT", "b line 4: ._fetch"]


def test_modules_share_no_private_names_beyond_the_allowlist():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert foreign_privates(sources) == []


# Where a PolySymbol is sampled: _poly_samples is the one statement of how,
# beside the two places that want its whole-mesh eval_grid
POLY_SAMPLERS = {"eval_grid": {"phasespace._poly_samples", "phasespace.field_from_poly",
                               "genvalue._defect_norm"},
                 "is_constant": {"phasespace._poly_samples"},
                 "constant_value": {"phasespace._poly_samples"}}


def poly_sampling_calls(sources: dict[str, str], allowed=POLY_SAMPLERS) -> list[str]:
    """'module.function line N: .method' for each call of a method ``allowed``
    names, outside the functions (qualified by module) it lists for that
    method; ``symbols``, which defines them, may test for constants."""
    found = []
    for module, text in sources.items():
        def visit(node, scope):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in allowed
                    and f"{module}.{scope}" not in allowed[node.func.attr]
                    and not (module == "symbols" and node.func.attr != "eval_grid")):
                found.append(f"{module}.{scope} line {node.lineno}: .{node.func.attr}")
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                scope = f"{scope}.{node.name}" if scope else node.name
            for child in ast.iter_child_nodes(node):
                visit(child, scope)
        visit(ast.parse(text), "")
    return sorted(found)


def test_poly_sampling_outside_the_helper_is_caught():
    sources = {
        "phasespace": "def _poly_samples(poly, grid):\n"
                      "    return poly.constant_value() if poly.is_constant() else "
                      "poly.eval_grid(*grid.axes())\n"
                      "class AnalyticStructure:\n    def evaluate(self, c, q, p):\n"
                      "        return c.constant_value() if c.is_constant() else c.eval_grid(q, p)\n",
        "symbols": "def moyal_exact(left, right, q, p):\n"
                   "    return right.is_constant() and right.constant_value() * left.eval_grid(q, p)\n",
    }
    assert poly_sampling_calls(sources) == [
        "phasespace.AnalyticStructure.evaluate line 5: .constant_value",
        "phasespace.AnalyticStructure.evaluate line 5: .eval_grid",
        "phasespace.AnalyticStructure.evaluate line 5: .is_constant",
        "symbols.moyal_exact line 2: .eval_grid"]


def test_polynomials_are_sampled_through_one_helper():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert poly_sampling_calls(sources) == []


def stencil_uses(sources: dict[str, str]) -> list[str]:
    """'module.function line N' for each load of ``_fd4_axis``, by call or as a
    value, outside ``phasespace.fd4_partial``: the stencils serve no partial
    that the caller did not ask for by name."""
    found = []
    for module, text in sources.items():
        def visit(node, scope):
            if (((isinstance(node, ast.Name) and node.id == "_fd4_axis")
                 or (isinstance(node, ast.Attribute) and node.attr == "_fd4_axis"))
                    and isinstance(node.ctx, ast.Load)
                    and f"{module}.{scope}" != "phasespace.fd4_partial"):
                found.append(f"{module}.{scope} line {node.lineno}" if scope
                             else f"{module} line {node.lineno}")
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                scope = f"{scope}.{node.name}" if scope else node.name
            for child in ast.iter_child_nodes(node):
                visit(child, scope)
        visit(ast.parse(text), "")
    return sorted(found)


def test_stencil_use_outside_fd4_partial_is_caught():
    sources = {
        "phasespace": "def _fd4_axis(values, h, axis):\n    return values\n"
                      "def fd4_partial(field, i, j):\n    return _fd4_axis(field.values, 1.0, 0)\n"
                      "def partial_field(field, i, j):\n"
                      "    return _fd4_axis(field.values, field.grid.dq, 0)\n"
                      "STENCIL = _fd4_axis\n",
        "verify": "def check(w):\n    return phasespace._fd4_axis(w.values, 0.1, 1)\n",
    }
    assert stencil_uses(sources) == ["phasespace line 7", "phasespace.partial_field line 6",
                                     "verify.check line 2"]


def test_stencils_are_reached_only_through_fd4_partial():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert stencil_uses(sources) == []


THREAD_MODULES = ("threading", "concurrent.futures")
ENVIRONMENT_READS = ("environ", "getenv")


def threads_or_environment(source: str) -> list[int]:
    """Lines that import a thread module or read the environment through ``os``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            if node.module == "os" and any(a.name in ENVIRONMENT_READS for a in node.names):
                lines.add(node.lineno)
        else:
            names = []
        if any(name == m or name.startswith(m + ".") for name in names for m in THREAD_MODULES):
            lines.add(node.lineno)
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            lines.add(node.lineno)
    return sorted(lines)


def test_thread_or_environment_use_is_caught():
    source = ("import threading\n"
              "from concurrent.futures import ThreadPoolExecutor\n"
              "from concurrent import futures\n"
              "import concurrent.futures as cf\n"
              "import os\n"
              "cap = os.environ.get('FSTAR_THREADS')\n"
              "cap = os.getenv('FSTAR_THREADS')\n"
              "from os import environ\n"
              "n = os.cpu_count()\n"
              "import threadpoolctl\n")
    assert threads_or_environment(source) == [1, 2, 3, 4, 6, 7, 8]


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_module_runs_on_one_thread_and_reads_no_environment(path):
    assert threads_or_environment(path.read_text(encoding="utf-8")) == []


def second_routes(source: str) -> list[int]:
    """Lines with a ``try`` statement, or a call of ``self.product`` inside
    the class ``ProductSetup``: the marks of a result formed or refused twice."""
    tree = ast.parse(source)
    lines = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Try)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "ProductSetup":
            lines.update(call.lineno for call in ast.walk(node)
                         if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                         and call.func.attr == "product" and isinstance(call.func.value, ast.Name)
                         and call.func.value.id == "self")
    return sorted(lines)


def test_second_route_is_caught():
    source = ("class ProductSetup:\n"
              "    def product(self, k, g):\n        return k\n"
              "    def commutator(self, k, g):\n"
              "        try:\n            out = k\n        except ValueError:\n"
              "            out = self.product(k, g)\n"
              "        return out, setup.product(g, k)\n"
              "def defect(s, k):\n    return s.product(k, k), self.product(k, k)\n")
    assert second_routes(source) == [5, 8]


def test_starproduct_forms_and_refuses_each_result_once():
    assert second_routes((PACKAGE / "starproduct.py").read_text(encoding="utf-8")) == []


# Every parameter with a default of a callable in fstarq.__all__ or a
# ProductSetup method, by callable; callables without one are left out.
DEFAULTED_PARAMETERS = {
    "DeformationSpec": {"q": None, "expr_source": None},
    "Field": {"label": ""},
    "ParseError": {"expected": None},
    "PhaseGrid": {"hbar": 1.0, "offset": 0.5},
    "PolySymbol": {"terms": None},
    "build_hamiltonian": {"omega": 1.0},
    "eval_f": {"order": 0},
    "f_squared": {"order": 0},
    "fcs_wigner": {"tol": 1e-14},
    "genvalue_residual": {"omega": 1.0, "r_cut": 4.0},
    "random_polynomial": {"max_degree": 4},
    "read_field_csv": {"hbar": 1.0},
    "run_verification": {"quick": False},
    "spectrum": {"hbar": 1.0, "omega": 1.0},
    "wigner_weights": {"tol": 1e-14},
    "ProductSetup.__init__": {"hbar": None},
}


def defaulted_parameters(obj) -> dict:
    """{name: default} of obj's parameters that have a default; a dataclass
    field's default factory reads as "<factory>"."""
    try:
        params = inspect.signature(obj).parameters.values()
    except ValueError:  # a class with no Python-level __init__, e.g. an exception
        return {}
    factories = ({f.name for f in dataclasses.fields(obj)
                  if f.default_factory is not dataclasses.MISSING}
                 if dataclasses.is_dataclass(obj) else set())
    return {p.name: "<factory>" if p.name in factories else p.default
            for p in params if p.default is not p.empty}


def test_defaulted_parameter_is_caught():
    @dataclasses.dataclass
    class Spec:
        kind: str
        extra: list = dataclasses.field(default_factory=list)

    assert defaulted_parameters(lambda a, b=2, *, c=None: a) == {"b": 2, "c": None}
    assert defaulted_parameters(Spec) == {"extra": "<factory>"}
    assert defaulted_parameters(ValueError) == {}


def test_defaulted_parameters_match_the_table():
    found = {name: defaulted_parameters(getattr(fstarq, name)) for name in fstarq.__all__}
    found.update((f"ProductSetup.{name}", defaulted_parameters(fn))
                 for name, fn in inspect.getmembers(ProductSetup, inspect.isfunction))
    assert {name: d for name, d in found.items() if d} == DEFAULTED_PARAMETERS
