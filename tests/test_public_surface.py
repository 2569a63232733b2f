"""The public surface, as the README states it: the names the acceptance
suite imports, the scenario types, ``write_outputs``, ``polar_project`` and
``cli.main``."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    "attitude_control": {"AttitudeGains", "angular_velocity_error", "attitude_error_psi",
                         "attitude_error_vector", "beta_matrix", "control_torque"},
    "cli": {"main"},
    "quadrotor": {"PositionGains"},
    "references": {"AnglePolynomial", "CircleCoeffs", "Euler321Coeffs", "euler_321_reference"},
    "rigid_body": {"InertiaTensor", "QuadrotorParams", "RigidBodyState", "rk4_attitude_step"},
    "rotor_aero": {"RotorGeometry", "hub_force_coefficient", "roll_moment_coefficient",
                   "thrust_coefficient", "torque_coefficient"},
    "runner": {"run"},
    "scenario": {"AeroConfig", "Scenario", "parse_scenario"},
    "so3": {"exp_so3", "hat", "log_so3", "polar_project", "tilde", "vee"},
    "timeseries": {"series_to_csv_bytes", "write_outputs"},
    "variational": {"IntegratorConfig", "simulate", "vi_step"},
}


def test_public_names_resolve():
    assert [f"{module}.{name}" for module, names in PUBLIC.items() for name in sorted(names)
            if not hasattr(importlib.import_module(f"geomech.{module}"), name)] == []


def test_every_public_definition_is_listed_or_used_in_src():
    # a use is a name or an attribute read anywhere in src/; an import is not
    src = ROOT / "src" / "geomech"
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    unused = [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_"
              and node.name not in PUBLIC.get(module, set()) | used]
    assert unused == []


def test_every_public_name_is_stated_in_the_readme():
    # each module and name of PUBLIC is a dotted part of a `code span` of
    # the README's "Public surface" section, so the two lists cannot drift
    section = (ROOT / "README.md").read_text().split("### Public surface", 1)[1]
    section = section.split("\n#", 1)[0]
    stated = {part for span in re.findall(r"`([^`]+)`", section) for part in span.split(".")}
    listed = set(PUBLIC) | {name for names in PUBLIC.values() for name in names}
    assert sorted(listed - stated) == []
