"""Digital-topology hole counting for 2D binary images.

The headline operation is holes_by_formula: the number of holes of a
4-connected component equals 1 + (c4 - c2) / 4, where c2 and c4 count its
outward and inward boundary corner points. The rest of the package
validates that identity end to end: a complement-component oracle, contour
tracing with per-curve accounting, and a 3D doubling construction whose
surface genus reproduces the hole count.
"""

from .corners import (
    CornerCensus,
    CornerClassification,
    PathologyReport,
    ValidityReport,
    boundary_points,
    classify_corners,
    find_pathological,
    image_census,
    validate_component,
)
from .curves import (
    AccountingResult,
    Contour,
    CurveCensus,
    CurveLemmaResult,
    check_curve_lemma,
    curve_census,
    second_proof_accounting,
    trace_contours,
)
from .errors import (
    BorderContactError,
    ContourOverlapError,
    CurveError,
    EmptyComponentError,
    FormulaInapplicableError,
    GenError,
    HolecountError,
    InvalidComponentError,
    InvalidSurfaceError,
    MultipleSurfaceComponentsError,
    OutOfBoundsError,
    ParseError,
    ThinComponentError,
    ThinSolidError,
    UnknownComponentError,
)
from .gen import (
    ShapeSpec,
    gen_random_blob,
    gen_rect_with_holes,
    paper_fixtures,
    random_rect_spec,
)
from .grid import (
    BinaryGrid,
    grid_from_rows,
    neighbors,
    pad_background,
    parse_image,
    to_ascii01,
    to_pbm_p1,
)
from .holes import (
    ComponentReport,
    analyze_component,
    analyze_image,
    holes_by_formula,
)
from .labeling import LabelMap, count_holes_oracle, label_components
from .solid3d import (
    SurfaceCensus,
    SurfaceComplex,
    VoxelSolid,
    check_simply_connected_identity,
    classify_surface_points,
    double_component,
    euler_genus_oracle,
    export_obj,
    extract_surface,
    genus_by_formula,
)

__version__ = "0.1.0"
