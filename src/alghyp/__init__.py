"""Exact intersection-theory thresholds for algebraic hyperbolicity.

Schubert calculus on Grassmannians, Chern classes of symmetric powers of
the dual tautological bundle, degree thresholds for hypersurfaces in
homogeneous varieties, and exact-rational genus-bound certificates.
"""

from .chern import FanoClassReport, fano_class, line_count, paired_rearrangement, top_chern_sym
from .genus import CaseBound, GenusBoundReport, hyperbolicity_certificate
from .grassmann import (
    ChowElement,
    Partition,
    RingContext,
    complement,
    integrate,
    make_class,
    multiply,
    transpose_dual,
)
from .sections import SectionDominationResult, check_projective_space
from .varieties import (
    Classification,
    VarietyDescriptor,
    classify,
    fano_lines_dimension,
    flag,
    grassmannian,
    hyperbolicity_threshold,
    known_counterexamples,
    lines_threshold,
    orthogonal,
    product,
    projective_space,
    symplectic,
)

__version__ = "0.1.0"
