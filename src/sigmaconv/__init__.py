"""Power series in t with function coefficients whose set of convergence
points is a prescribed subset of the plane, computed on rasters.

The package covers the constructive side (series for countable sets,
polynomially convex compacts, and countable unions of compacts via
ascending hull decompositions), the geometric side (rasterized polynomial
and domain-restricted hulls, neighborhoods, exhaustions), and a numeric
classifier that maps each grid cell to converge / diverge / undetermined
from truncated coefficient growth.
"""

from .construct import (BlockStructure, CoefficientSeries, CountableStructure,
                        InterleaveStructure, RootPolynomial, SeparatingFamily,
                        block_series, compact_set_series, countable_set_series,
                        gamma_table, interleave, leja_points,
                        sigma_convex_series)
from .decompose import (Decomposition, HoleEscape, ascending_decomposition,
                        hull_escape_exhibit, sierpinski_mask,
                        slice_holomorphically_convex, u_neighborhood_trap)
from .geometry import (COMPACT, DOMAIN, OPEN, Grid, RegionMask, distance_to,
                       empty_mask, full_domain, holomorphic_hull,
                       neighborhood, omega_exhaustion, polynomial_hull,
                       set_distance)
from .harness import (Budgets, SceneParseError, SceneSpec, VerificationReport,
                      construct_compact, construct_countable, construct_sigma,
                      load_scene, map_vs_mask_agreement, parse_scene, verify)
from .pgmio import write_map_pgm, write_mask_pgm
from .serialize import (export_decomposition, load_series, save_map,
                        save_series, series_from_json, series_to_json)
from .series import (DEFAULT_M, DEFAULT_N, ConvergenceMap, Verdict,
                     classify_point, classify_points, conv_map, default_b,
                     level_set, tail_window)
from .shapes import (Annulus, BoxShape, Disk, EmptyPrimitiveWarning,
                     FullPlane, Points, Polygon, ResolutionWarning, Segment,
                     SierpinskiShape, inverted_triangle_holes,
                     rasterize_scene, sierpinski_membership)

__version__ = "0.1.0"
