"""The lazy `surjkit` namespace: the same public names, each loaded on first access."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PUBLIC_NAMES = [
    "Asymptotics", "BoxSpec", "CoverageCertificate", "DegenerateMemberError", "DomainError",
    "EvalResult", "FunctionExpr", "NoSolutionError", "RefinementError", "ResourceError",
    "ScalarSpan", "StructuralError", "VectorSpanMember", "Witness", "certify_surjective_on_box",
    "classify_asymptotics", "combine_members", "component_reduce", "compose_with_base",
    "curve_trace", "detect_degenerate", "evaluate_at", "evaluate_to_precision",
    "expr_from_dict", "expr_to_dict", "extend_to_line", "hilbert_decode", "hilbert_encode",
    "lift_dimension", "make_diagonal_family", "make_scalar_span", "phi_eval", "preimage",
    "project_lift", "scalar_solve", "support_rank",
]

# run in a fresh interpreter, so that no other test has imported a submodule
SCRIPT = """
import importlib, json, sys
import surjkit
facts = {"loaded": sorted(m for m in sys.modules if m.startswith("surjkit."))}
facts["spans_is_module"] = surjkit.spans is sys.modules["surjkit.spans"]
try:
    surjkit.no_such_name
except AttributeError as err:
    facts["missing"] = str(err)
facts["dir"] = dir(surjkit)
namespace = {}
exec("from surjkit import *", namespace)
del namespace["__builtins__"]
facts["bound"] = list(namespace)
facts["all"] = list(surjkit.__all__)
facts["not_from_table"] = [
    name
    for module, names in surjkit._EXPORTS.items()
    for name in names
    if namespace[name] is not getattr(importlib.import_module("surjkit." + module), name)
]
print(json.dumps(facts))
"""


@pytest.fixture(scope="module")
def facts():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_bare_import_loads_no_submodule(facts):
    assert facts["loaded"] == []


def test_star_import_binds_the_public_names_in_order(facts):
    assert facts["all"] == PUBLIC_NAMES
    assert facts["bound"] == PUBLIC_NAMES


def test_each_name_is_the_object_of_its_submodule(facts):
    assert facts["not_from_table"] == []


def test_submodules_resolve_as_attributes(facts):
    assert facts["spans_is_module"]


def test_unknown_name_raises_attribute_error(facts):
    assert "no_such_name" in facts["missing"]


def test_dir_lists_the_public_names(facts):
    assert "__all__" in facts["dir"]
    assert set(PUBLIC_NAMES) <= set(facts["dir"])
