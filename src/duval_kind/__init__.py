"""Kind classification of du Val surface singularities with numerical
certification of the A-series structure form."""

from .classify import ClassificationReport, Kind, classify, classify_graph
from .cycles import Cycle, fundamental_cycle, is_reduced
from .cutoff import Annulus, CutoffProfile, annulus, mu, mu_from_log_norm
from .dual_graph import (
    DualGraph,
    build_dynkin,
    is_negative_definite,
    load_graph,
)
from .models import CoveringMap, HypersurfaceGerm, covering_image, duval_equation
from .poly import Polynomial3, differentiate, evaluate, gradient_vanishes, parse_polynomial
from .quadrature import (
    QuadratureResult,
    dominating_integral,
    integral_Ik,
    structure_form_l2_norm,
    weighted_graph_norm_defect,
)

__version__ = "0.1.0"
