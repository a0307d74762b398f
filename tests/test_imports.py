"""The package's import graph, read from the source by `ast`: the
transform core stays below the basis layers, and neither scipy nor the
test oracles reach the package.  Imports inside functions count."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import supertransform

PACKAGE = pathlib.Path(supertransform.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))

# the transform core and what it stands on, against the basis layers
CORE = ("fourier", "radon", "fracfourier", "operators", "superalg",
        "scalars")
BASIS_LAYERS = {"harmonics", "hermite", "cliffweyl", "fundsol"}


def imported_modules(name):
    """Dotted names of every module that the package module `name`
    imports anywhere in its source; relative imports are resolved
    against the package."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join(filter(None, ("supertransform", base)))
            # `from . import x` and `from pkg import x` may name modules
            out.add(base)
            out.update(f"{base}.{alias.name}" for alias in node.names)
    return out


def package_layers(name):
    """The package modules that module `name` imports."""
    return {dotted.split(".")[1] for dotted in imported_modules(name)
            if dotted.startswith("supertransform.")}


def test_the_scan_sees_top_level_and_function_level_imports():
    assert {"superalg", "operators", "harmonics"} <= package_layers("hermite")
    # hermite.phi_element imports cliffweyl inside the function
    assert "cliffweyl" in package_layers("hermite")
    assert "expr" in package_layers("cli")                # from . import
    assert "argparse" in imported_modules("cli")
    assert set(CORE) | BASIS_LAYERS <= set(MODULES)


@pytest.mark.parametrize("name", CORE)
def test_core_modules_do_not_import_the_basis_layers(name):
    assert not package_layers(name) & BASIS_LAYERS


@pytest.mark.parametrize("name", MODULES)
def test_no_package_module_imports_scipy_or_the_tests(name):
    roots = {dotted.split(".")[0] for dotted in imported_modules(name)}
    assert "scipy" not in roots
    assert "tests" not in roots


def imported_names(name):
    """Every name that the package module `name` imports from another
    module, as bound in its namespace."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_fourier_integrates_without_the_product_or_a_doubled_universe():
    # Berezin, the convolution and Parseval are passes over masks and
    # term pairs; the general machinery stays in superalg and the tests
    assert not imported_names("fourier") & {
        "sp_mul", "sp_rename", "doubled_universe", "sp_substitute_fermionic"}


@pytest.mark.parametrize("name", ["operators", "cliffweyl"])
def test_first_order_passes_bind_no_product_or_neutral_variable(name):
    # the derivatives and variable products are passes over the terms;
    # the general product and one-term variables stay out of them
    assert not imported_names(name) & {
        "sp_mul", "neutral_bosonic_var", "neutral_fermionic_var"}


def test_super_polynomials_carry_no_derivative_copies():
    from supertransform import superalg
    assert not {"bosonic_derivative", "fermionic_derivative",
                "parity_signed"} & set(dir(superalg.SuperPolynomial))
    assert not {"neutral_bosonic_var", "neutral_fermionic_var"} \
        & set(dir(superalg))


def test_harmonic_bases_run_no_row_reduction():
    # every basis is a closed formula (CK or pair products); the row
    # reduction serves the monogenics and the test oracles alone
    assert not imported_names("harmonics") & {"nullspace", "SparseRREF"}
    # a fresh interpreter, as this session imports _linalg via the oracles
    script = ("import contextlib, io, sys\n"
              "from supertransform.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    assert main(['--m', '0', '--n', '3', 'hermite', '--j', "
              "'1', '--k', '2']) == 0\n"
              "    assert main(['--m', '1', '--n', '2', 'decompose', "
              "'--k', '4']) == 0\n"
              "print('supertransform._linalg' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "False\n"


def test_fundamental_solution_steps_its_chain_in_closed_form():
    # each order is one closed Poisson step; the residual-loop solver is
    # a test oracle, and the package never reaches into the tests
    from supertransform import fundsol
    assert not hasattr(fundsol, "solve_radial_poisson")
    assert "solve_radial_poisson" not in (PACKAGE / "fundsol.py").read_text()
    assert "tests" not in {dotted.split(".")[0]
                           for dotted in imported_modules("fundsol")}
