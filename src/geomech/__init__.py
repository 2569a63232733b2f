"""Geometric rigid-body simulation and control.

A structure-preserving variational integrator on SO(3), backstepping
tracking controllers for attitude and full quadrotor position/attitude, a
blade-element/momentum-theory rotor model, and a batch scenario runner.
"""
