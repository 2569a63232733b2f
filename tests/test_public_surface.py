"""The public surface, as the README states it: the names the acceptance
suite imports, the scenario types, ``write_outputs`` and ``cli.main``."""

import ast
import importlib
from pathlib import Path

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
    "so3": {"exp_so3", "hat", "log_so3", "tilde", "vee"},
    "timeseries": {"series_to_csv_bytes", "write_outputs"},
    "variational": {"IntegratorConfig", "simulate", "vi_step"},
}


def test_public_names_resolve():
    assert [f"{module}.{name}" for module, names in PUBLIC.items() for name in sorted(names)
            if not hasattr(importlib.import_module(f"geomech.{module}"), name)] == []


def test_every_public_definition_is_listed_or_used_in_src():
    # a use is a name or an attribute read anywhere in src/; an import is not
    src = Path(__file__).resolve().parents[1] / "src" / "geomech"
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    unused = [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_"
              and node.name not in PUBLIC.get(module, set()) | used]
    assert unused == []
