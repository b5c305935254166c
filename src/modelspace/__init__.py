"""modelspace: projective model spaces of constant curvature and their
degenerate limits, with numerics that verify the structures.

Submodules
----------
forms        symmetric bilinear forms, signatures, restrictions
projective   model spaces, lines, the absolute, cross-ratio distances
duality      dual cones, polar bodies, support functions, point/plane duality
transition   conjugacy limits: rescaling families, limit groups, the 1-d toy
connections  pseudo-sphere and co-space connections and volume forms
pogorelov    chart metrics, the operator L, infinitesimal Pogorelov maps
surfaces     embedding data, Gauss-Codazzi checks, dual surfaces, transitions
acceptance   the property-based acceptance suite
cli          command-line front end (also exposed as the `modelspace` script)
"""

from .forms import BilinearForm, bpq, co_euclidean_form, co_minkowski_form
from .projective import (
    ProjPoint,
    ProjLine,
    ModelSpace,
    model_space,
    line_through,
    classify_line,
    absolute_points,
    cross_ratio,
    projective_distance,
    pseudo_distance_lift,
)
from .duality import (
    PolyCone,
    EuclideanBody,
    MinkowskiBody,
    SupportFunctionE,
    SupportFunctionMin,
    support_from_body,
    body_from_support,
    dual_support,
    dual_point,
    dual_hyperplane,
    truncation_dual,
)
from .transition import (
    RescalingFamily,
    blow_up_point,
    blow_up_hyperplane,
    transition_family,
    PointPath,
    rescaled_point_limit,
    conjugate_isometry,
    limit_group_membership,
)
from .connections import levi_civita, co_connection, volume_form, VectorField
from .pogorelov import chart_pair, infinitesimal_pogorelov
from .surfaces import (
    SurfacePatch,
    embedding_data,
    embedding_data_co,
    gauss_codazzi_residual,
    dual_embedding_data,
    shape_from_support,
    surface_transition,
)

__version__ = "0.1.0"
