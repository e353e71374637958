"""Every name the package exports, and every member of an exported class,
has a caller inside the package; the inverse FFT has one home, BLAS
three, the arc classifier one, the refusal of a size one, and the chain
table one reader; alphas stay integer numerators; no function keeps a
memo; the runtime dependencies are the package's third-party imports."""

import ast
import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

import circlelab

PACKAGE = Path(circlelab.__file__).parent

# exported names that wait for an open ROADMAP item to give them a caller
AWAITING_CALLER = {
    "exact_ladder_radius": "the L = 2..8 sweep along exact R-ladders",
    "v2_partial_sums_norm": "counterexample reporting V^2(S_m f)",
}


def exported_names():
    return set(circlelab.__all__)


def package_nodes():
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            yield from ast.walk(ast.parse(path.read_text()))


def used_names():
    used = set()
    for node in package_nodes():
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def used_members():
    """Names read as attributes in the package.

    A field the package only fills in, by keyword or position, has no
    reader; a class body's own definitions do not count either.
    """
    return {node.attr for node in package_nodes()
            if isinstance(node, ast.Attribute)}


def class_members(cls):
    """Methods (dunder ones too), properties and fields defined in the
    class body, and the fields of a named tuple the class extends."""
    body = ast.parse(inspect.getsource(cls)).body[0].body
    names = list(getattr(cls, "_fields", ()))
    for node in body:
        if isinstance(node, ast.FunctionDef):
            names.append(node.name)
        elif isinstance(node, ast.AnnAssign):
            names.append(node.target.id)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return names


def inverse_fft_sites():
    """(module, innermost enclosing function) of every reference to an
    inverse FFT (ifft, irfft, ifftn, ...) in the package, in file order."""
    sites = []

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        for name in (getattr(node, "attr", None), getattr(node, "id", None),
                     getattr(node, "name", None)):
            if isinstance(name, str) and re.fullmatch(r"i[rh]?fft[2n]?",
                                                      name):
                sites.append((module, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return sites


def call_sites(name):
    """(module, innermost enclosing function) of every call of `name`, as
    a bare name or an attribute, in the package, in file order."""
    sites = []

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call) and name in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)):
            sites.append((module, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return sites


BLAS_NAMES = {"linalg", "dot", "vdot", "inner", "matmul", "tensordot",
              "einsum"}


def blas_sites():
    """Every "module.function" of the package that reaches BLAS or LAPACK:
    a reference to numpy's linalg, dot, vdot, inner, matmul, tensordot or
    einsum, or an @; the function is the outermost one around it."""
    sites = set()

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope or node.name
        names = [getattr(node, key, None)
                 for key in ("attr", "id", "name", "module")]
        if isinstance(node, ast.MatMult) or any(
                isinstance(name, str) and BLAS_NAMES & set(name.split("."))
                for name in names):
            sites.add(f"{module}.{scope}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return sites


def reference_sites(name):
    """Every "module.function" of the package, __init__ included, that
    defines, imports or reads `name`; the function is the outermost one
    around the reference, and "module.<module>" stands for module level."""
    sites = set()

    def visit(node, module, scope):
        # a definition's own name counts where it is defined
        if name in (getattr(node, "id", None), getattr(node, "attr", None),
                    getattr(node, "name", None)):
            sites.add(f"{module}.{scope or '<module>'}")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = scope or node.name
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return sites


def exported_classes():
    for name in sorted(exported_names()):
        obj = getattr(circlelab, name)
        if inspect.isclass(obj) and obj.__module__.startswith("circlelab."):
            yield obj


def test_every_export_is_its_modules_object():
    # the table names the module that defines each export; reading the
    # name from the package gives that module's object
    for name, module in circlelab._EXPORTS.items():
        obj = getattr(importlib.import_module(f"circlelab.{module}"), name)
        assert getattr(circlelab, name) is obj
        assert getattr(obj, "__module__", None) == f"circlelab.{module}"
    assert set(dir(circlelab)) >= exported_names()


def test_every_export_has_a_caller():
    uncalled = exported_names() - used_names()
    assert uncalled == set(AWAITING_CALLER)


# dunder members the package reaches without naming them as attributes
PROTOCOL_MEMBERS = {
    "__new__": "the named-tuple protocol: each constructor",
    "__slots__": "the named-tuple protocol: no instance dict",
    "__len__": "len(seq) of an IndexedSeq",
    "__str__": "str(frac) of a ReducedFraction",
}


def test_every_member_of_an_exported_class_has_a_caller():
    # dunder methods too: one the package never triggers is test-only
    used = used_members() | set(PROTOCOL_MEMBERS)
    uncalled = {f"{cls.__name__}.{m}" for cls in exported_classes()
                for m in class_members(cls) if m not in used}
    # none waits for an open ROADMAP item today
    assert uncalled == set()


def test_ifft_only_in_multiplier_variation():
    # every ||V^r(ifft(fhat * m_k))|| of the package goes through one
    # operator; a second ifft would fork it again
    assert inverse_fft_sites() == [("spectral", "multiplier_variation")]


def test_one_size_refusal():
    # every size limit is a row of the budget table in `errors`, and every
    # refusal of a size goes through its one check and one message format;
    # the two refusals that are not a count against a limit are named here
    assert call_sites("ResourceError") == [
        ("dyadic", "check_tail_regime"),  # a tail that no regime computes
        ("errors", "check_budget"),
        ("verify", "verify_est"),  # too few minor-arc samples after the cap
    ]
    assert call_sites("Budget") == [("errors", None)] * 6


def test_blas_only_where_its_threads_and_bits_are_wanted():
    # the norms of M-length arrays go through spectral._pairwise_norm,
    # whose sum order and thread count never depend on BLAS; each site
    # left says in a comment why it keeps BLAS
    assert blas_sites() == {"torus.eta_error", "verify._power_fit"}


def test_one_arc_classifier():
    # every Major/Minor label of the package comes from arith.arc_labels,
    # a batch of points at a time; the per-point Fraction scan, its
    # window search and its exact distance are the tests' oracles
    assert reference_sites("classify_arc") == set()
    assert reference_sites("arc_labels") == {
        "arith.<module>", "verify.<module>", "cli._run",
        "verify.verify_est", "verify.verify_main_decomposition"}
    assert reference_sites("fractions_near") == set()
    assert reference_sites("torus_distance") == set()


def test_one_e_kernel():
    # every e(x) of the package, from the ladder's samples and the search's
    # phases to smooth's ramp and the dyadic tails, comes from expsum's
    # table kernel, _e_neg or its conjugate _e_pos; np.exp, cmath.exp and
    # mpmath are the tests' oracles
    assert reference_sites("exp") == set()


def test_one_power_rule():
    # every |f_b - f_a|^r of the package is varnorm._power applied to the
    # step's differences in the one DP kernel; the tests' oracles call the
    # same rule, so a second site would fork the DP's bits from theirs
    assert reference_sites("_power") == {"varnorm.<module>",
                                         "varnorm._best_power_sums"}


def test_one_chain_reader():
    # the predecessor table's format is varnorm's: the kernel writes it,
    # `_chain_slots` walks it for `_optimal_chain` and the search's
    # gradient, and no other function subscripts it
    assert reference_sites("_chain_slots") == {
        "varnorm.<module>", "varnorm._optimal_chain", "torus.<module>",
        "torus._chain_gradient"}
    indexed = {path.stem for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Subscript)
               and getattr(node.value, "id", None) == "pred"}
    assert indexed == {"varnorm"}


def test_alphas_stay_integer_numerators():
    # an alpha goes from est's draws to the residue kernel as an integer
    # numerator over a denominator; Fraction appears only where an exact
    # rational enters from outside, in the CLI's parser and in arith's
    # reduced fractions, and never in verify or expsum
    assert reference_sites("Fraction") == {
        "cli.<module>", "cli._parse_rational", "arith.<module>",
        "arith.ReducedFraction", "arith.congruence_data"}
    # weyl_sum takes its rational's numerator and denominator once, and
    # est its part-3 floats'; no alpha becomes a list of Python floats
    assert reference_sites("as_integer_ratio") == {"expsum.weyl_sum",
                                                   "verify.verify_est"}
    assert not reference_sites("tolist") & {
        "verify.verify_est", "verify._max_stat", "verify._draws",
        "expsum.weyl_sum_prefixes"}


MEMO_NAMES = {"cache", "cached_property", "lru_cache"}


def memo_sites():
    """(module, name) of every functools memo decorator the package
    imports or reads: `from functools import lru_cache` and
    `functools.cache` alike."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                sites += [(path.stem, alias.name) for alias in node.names
                          if alias.name in MEMO_NAMES]
            elif (isinstance(node, ast.Attribute) and node.attr in MEMO_NAMES
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "functools"):
                sites.append((path.stem, node.attr))
    return sites


def test_no_memo():
    # the package keeps no cache between calls: each result is computed
    # from its inputs alone, with nothing to size, evict or warm up
    assert memo_sites() == []


def imported_top_level_modules():
    """Top-level names of every absolute import in the package, function
    bodies included."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_dependencies_are_the_third_party_imports():
    # a runtime dependency no module imports, or an import that is not a
    # declared dependency, fails here
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in declared}
    third_party = (imported_top_level_modules()
                   - set(sys.stdlib_module_names) - {"circlelab"})
    assert names == third_party
