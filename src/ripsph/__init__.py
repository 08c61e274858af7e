"""Persistent homology of point clouds over GF(2).

Pipeline: ingest coordinates (PDB or CSV) -> pairwise distances ->
Vietoris-Rips filtration -> coboundary reduction (or boundary-matrix
reduction of a general filtration) -> persistence diagrams, barcodes,
Betti numbers, and diagram distances.
"""

__version__ = "0.1.0"

from .core import (Chain, Filtration, PersistenceDiagram, PersistencePair,
                   SimplicialComplex, Simplex, validate_complex)
from .distances import bottleneck_distance, wasserstein_distance
from .homology import (are_homologous, betti_numbers, boundary_of_chain,
                       boundary_of_simplex, build_boundary_matrix, is_cycle,
                       rank_z2)
from .ingestion import load_csv, parse_pdb, write_csv
from .metrics import pairwise_distances, validate_metric
from .persistence import (betti_at_scale, pairs_to_diagram,
                          persistence_diagram, read_diagram_csv,
                          reduce_filtration, significant_features,
                          write_diagram_csv)
from .render import (RenderOptions, render_barcode_svg, render_diagram_svg,
                     write_betti_table)
from .rips import (RipsParams, build_rips, cloud_persistence, complex_at_scale,
                   enclosing_radius, rips_persistence)

__all__ = [
    "Chain", "Filtration", "PersistenceDiagram", "PersistencePair",
    "RenderOptions", "RipsParams", "Simplex", "SimplicialComplex",
    "are_homologous", "betti_at_scale", "betti_numbers",
    "bottleneck_distance", "boundary_of_chain", "boundary_of_simplex",
    "build_boundary_matrix", "build_rips", "cloud_persistence",
    "complex_at_scale", "enclosing_radius", "is_cycle", "load_csv",
    "pairs_to_diagram", "pairwise_distances", "parse_pdb",
    "persistence_diagram", "rank_z2", "read_diagram_csv",
    "reduce_filtration", "render_barcode_svg", "render_diagram_svg",
    "rips_persistence", "significant_features", "validate_complex",
    "validate_metric", "wasserstein_distance", "write_betti_table",
    "write_csv", "write_diagram_csv",
]
