"""Hexagonal spatial index (H3-flavoured, dependency-free).

Cells are pointy-top hexagons laid out in axial coordinates ``(q, r)`` on an
equirectangular projection of WGS84.  A cell id packs ``(resolution, q, r)``
into a single ``int64``, so whole trajectories can be indexed, compared and
differenced as flat NumPy arrays.  Edge lengths follow the H3 aperture-7
progression (resolution 9 is roughly a 174 m edge), which keeps the paper's
resolution sweep (6..10) directly comparable.

Scalar helpers (:func:`latlng_to_cell`, :func:`cell_to_latlng`,
:func:`grid_distance`, :func:`ring`) serve endpoint snapping; the
``*_array`` variants are the bulk kernels used for dataset indexing and
for the graph's vectorised search heuristic.
"""

from repro.hexgrid.cells import (
    EDGE0_M,
    cell_axial_array,
    cell_edge_length_m,
    cell_resolution,
    cell_to_latlng,
    cell_to_latlng_array,
    grid_distance,
    grid_distance_array,
    latlng_to_cell,
    latlng_to_cell_array,
    ring,
)

__all__ = [
    "EDGE0_M",
    "cell_axial_array",
    "cell_edge_length_m",
    "cell_resolution",
    "cell_to_latlng",
    "cell_to_latlng_array",
    "grid_distance",
    "grid_distance_array",
    "latlng_to_cell",
    "latlng_to_cell_array",
    "ring",
]
