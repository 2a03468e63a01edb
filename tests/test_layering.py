"""hankel is the contour layer and gamma_core the API above it: the import
points one way, at gamma_core's top, and neither module reads the other's
private names.  The package root exports that API and nothing else."""

import ast
import inspect
import typing

import pytest

import regamma
from regamma import errors, gamma_core, hankel, quadrature
from regamma.gamma_core import GammaValue


def _tree(module):
    return ast.parse(inspect.getsource(module))


def _imports_of(tree, other):
    """The import statements in tree that name the module `other`, and the
    names each binds from it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == other:
                found.append((node, [a.name for a in node.names]))
            elif any(a.name == other for a in node.names):
                found.append((node, []))
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[-1] == other for a in node.names):
                found.append((node, []))
    return found


def _private_reads(tree, other):
    """Each _-prefixed name of `other` that tree imports or reads as an
    attribute of it."""
    reads = [name for _, names in _imports_of(tree, other) for name in names
             if name.startswith("_")]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id == other):
            reads.append(f"{other}.{node.attr}")
    return reads


def test_hankel_imports_nothing_from_gamma_core():
    assert _imports_of(_tree(hankel), "gamma_core") == []


def test_gamma_core_imports_only_at_its_top():
    tree = _tree(gamma_core)
    first = min(node.lineno for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    late = [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and node.lineno > first]
    assert late == []
    assert _imports_of(tree, "hankel")


@pytest.mark.parametrize("module,other", [(hankel, "gamma_core"), (gamma_core, "hankel")])
def test_no_private_name_of_the_other_module(module, other):
    assert _private_reads(_tree(module), other) == []


def test_the_walk_sees_a_private_read():
    tree = ast.parse("from . import hankel\nfrom .hankel import _X, Y\nhankel._Z\n")
    assert _private_reads(tree, "hankel") == ["_X", "hankel._Z"]


# The moved entry points keep their parameters, and return what they did.
SIGNATURES = {
    "hankel_recip_gamma": ("(z: 'float', contour: 'HankelContour | None' = None, "
                           "cfg: 'QuadratureConfig | None' = None)", GammaValue),
    "inverse_laplace": ("(k: 'float', t: 'float', cfg: 'QuadratureConfig | None' = None)",
                        GammaValue),
    "inverse_laplace_monomial": ("(k: 'float', t: 'float', contour: 'None' = None, "
                                 "cfg: 'QuadratureConfig | None' = None)", float),
}


@pytest.mark.parametrize("name", SIGNATURES)
def test_moved_signature_is_unchanged(name):
    fn = getattr(gamma_core, name)
    params, returns = SIGNATURES[name]
    signature = inspect.signature(fn)
    assert str(signature.replace(return_annotation=inspect.Signature.empty)) == params
    assert typing.get_type_hints(fn)["return"] is returns
    assert not hasattr(hankel, name)


# The package root: the entry points, the records, the config types and the
# errors, by the module each is defined in.
ROOT = {
    gamma_core: ("GammaValue", "MethodTag", "gamma", "gamma_negative", "gamma_ratio",
                 "hankel_recip_gamma", "inverse_laplace", "inverse_laplace_monomial",
                 "recip_gamma", "recip_gamma_neg_reflection"),
    quadrature: ("ConditionFlag", "IntegralResult", "QuadratureConfig"),
    hankel: ("HankelContour",),
    errors: ("ContourDegenerate", "IntegerArgument", "NonFiniteArgument",
             "NonPositiveArgument", "PoleError", "RegammaError"),
}


def test_the_package_root_is_the_api():
    names = [name for names in ROOT.values() for name in names]
    assert len(names) == 20
    assert sorted(regamma.__all__) == sorted(names + ["__version__"])
    for module, names in ROOT.items():
        for name in names:
            assert getattr(regamma, name) is getattr(module, name), name
