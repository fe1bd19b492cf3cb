"""Independent oracles the tests compare the program against.

grid_eval is the dense synthesis of a coefficient field on every node of a
grid at once, the reference for the norm engine's slice-by-slice synthesis;
s_via_delta is the second closed form of the kernel S, through the twisted
difference of the (d-1)-dimensional kernel.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from simplexleb.core import CoefficientField, DilationVector, build_lattice
from simplexleb.kernels import GridSpec, _origin_twist, reduce_torus


@dataclass(frozen=True)
class GridField:
    """Kernel values sampled on a GridSpec, with provenance."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)
    tag: str = ""


def grid_eval(fld: CoefficientField, grid: GridSpec) -> GridField:
    """Exact synthesis on every grid node: one inverse FFT over all axes of
    the zero-padded, origin-twisted coefficients, scaled by prod M_j."""
    if grid.s != fld.s:
        raise ValueError("grid and field dimensions differ")
    for m, e in zip(grid.M, fld.extents):
        if m < e:
            raise ValueError(f"grid size {m} below box extent {e}")
    padded = np.zeros(grid.M, dtype=np.complex128)
    box = tuple(slice(0, e) for e in fld.extents)
    padded[box] = fld.weights * _origin_twist(sum(np.ogrid[box]))
    vals = scipy.fft.ifftn(padded, overwrite_x=True)
    vals *= grid.size
    return GridField(grid=grid, values=vals, tag=f"grid|{fld.tag}")


def s_via_delta(n: DilationVector, x) -> complex:
    """S(x) = delta_{h, 1/n'} D'(x') / (i x_d) with h = n_d x_d, x_d != 0:
    the difference acts on the (d-1)-lattice's weights as
    e^{i h L_d(k') / n_d} - 1."""
    x = reduce_torus(np.atleast_1d(x))
    lat = build_lattice(n, n.d - 1)
    h = n.entries[-1] * x[-1]
    phases = np.exp(1j * (lat.points @ x[:-1]))
    delta = phases @ (np.exp(1j * lat.lambda_parts.value
                             * (h / n.entries[-1])) - 1.0)
    return complex(delta / (1j * x[-1]))
