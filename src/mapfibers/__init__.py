"""Exact fiber analysis for rational maps between projective spaces.

Given forms f_0..f_n of one degree d on P^m, the package locates the
finitely many target points whose fiber has dimension m-1, certifies the
divisor-degree bound for those fibers against indeg((I^s)^sat), and builds
the graded module collecting the top local cohomology of the powers I^s,
with its support, degree, and presentation over the target coordinate
ring.  All arithmetic is exact (QQ or GF p).
"""

from .fields import QQ, PrimeField
from .rings import RingDescriptor, standard_ring
from .poly import Polynomial
from .ideals import Ideal, saturate_irrelevant
from .fibers import (ParameterizedMap, build_map, rees_ideal, image_ideal,
                     base_locus, fiber_ideal, unmixed_part,
                     find_one_dim_fibers, check_divisor_degree_bound,
                     check_fiber_factorization, brute_force_fiber_oracle,
                     NotGenericallyFiniteError)
from .cohomology import m_mu_dims, n_table, check_module_degree_formula
from .approx import koszul_cycles, presentation_matrix_N, check_surface_bounds
from .mapfile import parse_map_file, format_map_file, load_map_file, MapFileError
from .pipeline import PipelineOptions, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "QQ", "PrimeField", "RingDescriptor", "standard_ring", "Polynomial",
    "Ideal", "saturate_irrelevant",
    "ParameterizedMap", "build_map", "rees_ideal", "image_ideal",
    "base_locus", "fiber_ideal", "unmixed_part", "find_one_dim_fibers",
    "check_divisor_degree_bound", "check_fiber_factorization",
    "brute_force_fiber_oracle", "NotGenericallyFiniteError",
    "m_mu_dims", "n_table", "check_module_degree_formula",
    "koszul_cycles", "presentation_matrix_N",
    "check_surface_bounds",
    "parse_map_file", "format_map_file", "load_map_file", "MapFileError",
    "PipelineOptions", "run_pipeline",
    "__version__",
]
