"""Exact counting of max-pooling linearity regions.

Linearity regions of a max-pooling layer biject with the vertices of a
Minkowski sum of coordinate simplices, one simplex per pooling window.  The
package provides a brute-force face oracle, transfer-matrix counts with
rational generating functions, closed forms for the covered stride regimes,
facet counts with an exact inequality description, and growth rates.
"""

from .errors import (
    BudgetExceededError,
    InvalidParamsError,
    InvalidSelectionError,
    NoPositiveRootError,
    NonIntegerCoefficientError,
    NotAFaceError,
    OutOfWindowError,
    PoolRegionsError,
    RegimeNotCoveredError,
    TieDetectedError,
    VerificationError,
)
from .faces import (
    ConeDescription,
    FaceSelection,
    SelectionGraph,
    build_selection_graph,
    face_dimension,
    full_selection,
    is_face,
    normal_cone,
    selection_from_word,
)
from .model import (
    PoolingLayer,
    WindowFamily,
    windows_1d,
    windows_3xn,
    windows_from_layer,
)
from .oracle import (
    DEFAULT_BUDGET,
    FVector,
    count_vertices,
    enumerate_faces,
    enumerate_vertices,
    region_pattern,
    sample_regions,
)
from .polyalg import (
    RationalGF,
    TransferMatrix,
    det_poly,
    gf_equal,
    gf_from_matrix,
    rational_gf,
    series_coeffs,
    smallest_positive_root,
    smallest_positive_root_bracket,
)

__version__ = "0.1.0"
