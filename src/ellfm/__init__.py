"""Exact toolkit for twisted rational elliptic surfaces.

Builds relatively minimal elliptic surfaces over P^1 from Kodaira fiber
configurations, applies logarithmic transformations through an explicit model
of the Weil-Chatelet twist group, computes invariants in exact rational
arithmetic, and enumerates and counts Fourier-Mukai partners with certified
lower bounds on the number of pairwise non-isomorphic ones.
"""

from .catalog import (
    DEFAULT_ENTRY,
    CatalogEntry,
    Provenance,
    catalog_get,
    catalog_list,
    catalog_names,
)
from .errors import (
    AdditiveFiberError,
    BaseMismatchError,
    DegenerateSurfaceError,
    DuplicatePointError,
    EllfmError,
    InvalidBaseError,
    InvalidConfigError,
    InvalidDocumentError,
    KodairaZeroError,
    MultiplicityError,
    NotCoprimeError,
    NotEllipticError,
    NotPrimeError,
    NotRigidError,
    PrimalityRangeError,
    ShapeError,
    UnknownEntryError,
    UnknownLambdaError,
    UnsupportedTwistError,
)
from .fibers import (
    FiberKind,
    KodairaFiber,
    euler_contribution,
    local_twist_group,
)
from .partners import (
    AUT_BOUNDS,
    CertificationVerdict,
    ClassificationMode,
    PartnerClassification,
    RigidityReport,
    certify_partner_count,
    classify_partners,
    enumerate_partners,
    is_prime,
    order_p_twist,
    partner_indices,
    rigidity_check,
)
from .projective import BasePoint, MobiusMap
from .qz import QZ, QZPair
from .surface import (
    EllipticSurface,
    KodairaDimension,
    MarkedConfig,
    canonical_degree,
    chi,
    euler_number,
    is_rational,
    kodaira_dimension,
    surface_doc,
    surface_from_doc,
)
from .twists import (
    TwistClass,
    TwistedSurface,
    default_twist_point,
    jacobian,
    multisection_index,
    relative_jacobian_power,
    twist,
    twist_class,
    validate_config,
)
from .value import Value

__version__ = "0.1.0"
