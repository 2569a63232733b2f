"""Fixed calibration load: measures how fast this machine runs right now.

    python perfbench/calibrate.py

It does what a geomech run is made of (interpreter start-up, the numpy
import, and a loop of 3-vector and 3x3 arithmetic with an occasional SVD)
but never changes, so its wall time moves only with the machine: shared
cores, host contention, clock changes.  The benchmark runs it as a child
between measured runs and divides their times by it.  It imports nothing
from geomech, so no change to the program can move it.
"""

import numpy as np


def main(steps: int = 6000) -> float:
    j = np.diag([3.0, 2.0, 1.0])
    j_inv = np.linalg.inv(j)
    r = np.eye(3)
    w = np.array([0.3, -0.2, 0.1])
    for k in range(steps):
        w = w + 1e-3 * (j_inv @ np.cross(j @ w, w))
        w_hat = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
        r = r + 1e-3 * (r @ w_hat)
        if k % 100 == 0:
            u, _, vt = np.linalg.svd(r)
            r = u @ vt
    return float(np.trace(r))


if __name__ == "__main__":
    main()
