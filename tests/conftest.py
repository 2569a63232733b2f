"""Shared test helpers: independent rotation constructors and oracles.

Everything here is deliberately built without the library's own exp/log maps
so that tests compare against independent routes.
"""

from __future__ import annotations

from array import array

import numpy as np
import pytest

from geomech.quadrotor import tracking_step
from geomech.timeseries import TimeSeries


def rot_x(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def mexp_series(a: np.ndarray, terms: int = 30) -> np.ndarray:
    """Truncated matrix-exponential power series (oracle for exp_so3)."""
    out = np.eye(3)
    term = np.eye(3)
    for k in range(1, terms + 1):
        term = term @ a / k
        out = out + term
    return out


def polar_newton(m: np.ndarray, iters: int = 60) -> np.ndarray:
    """Polar rotation factor via the Newton iteration X <- (X + X^-T)/2."""
    x = np.array(m, dtype=float)
    for _ in range(iters):
        x = 0.5 * (x + np.linalg.inv(x).T)
    return x


def random_axis_angle(rng: np.random.Generator, max_angle: float = np.pi):
    """Uniform random axis and angle (not a uniform Haar sample; fine for tests)."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, max_angle)
    return axis, angle


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random rotation built by QR, independent of the library."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def quad_x(r, v, R, Omega) -> tuple:
    """The quadrotor plant state ``(r, v, R, Omega)`` as lists of Python
    floats, ``R`` row-major: the form the quad tick and step take."""
    return tuple(np.asarray(a, dtype=float).ravel().tolist() for a in (r, v, R, Omega))


def tick(x, ref, params, gains, att_gains, dt, memory) -> tuple:
    """``tracking_step`` at the plant state ``x`` from the public types: the
    reference sample ``ref`` as its float row ``(r_d, v_d, a_d)`` and the
    constants as the runner converts them once per run."""
    row = np.concatenate([ref.r_d, ref.v_d, ref.a_d]).tolist()
    return tracking_step(x, row, params.mass, params.g, gains.b_rows, gains.d_rows,
                         params.inertia.j_rows, att_gains.p_rows, att_gains.f_rows,
                         ref.b_1d.tolist(), dt, memory)


def record(names, table) -> TimeSeries:
    """The record of the column ``names`` holding the rows of a 2-D ``table``."""
    return TimeSeries(names, array("d", np.asarray(table, dtype=float).ravel().tolist()))


def parse_csv_bytes(data: bytes) -> TimeSeries:
    """The record written by ``series_to_csv_bytes``, read back."""
    lines = data.decode("ascii").strip().split("\n")
    names = tuple(lines[0].split(","))
    return TimeSeries(names, array("d", [float(v) for line in lines[1:] for v in line.split(",")]))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
