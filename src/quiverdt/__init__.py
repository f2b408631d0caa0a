"""Exact computation of combinatorial DT invariants of acyclic quivers and
verification of quantum dilogarithm factorization identities attached to
Dynkin subquiver partitions."""
from __future__ import annotations

from .algebra import (
    QuantumElement,
    VerificationReport,
    dilog,
    factorization_product,
    identity,
    monomial,
    qt_multiply,
    trivial_dt,
    verify_factorization,
)
from .dynkin import (
    DynkinType,
    KostantPartition,
    NotDynkin,
    RootSet,
    classify_dynkin,
    kostant_partitions,
    positive_roots,
)
from .errors import (
    BoundExceededError,
    ConstraintCycleError,
    CyclicQuiverError,
    EnumerationCapError,
    InconsistencyError,
    InvalidInputError,
    InvalidOrderError,
    KeyMismatchError,
    NotAdmissibleError,
    NotAPartitionError,
    NotConnectedError,
    NotDynkinError,
    NotTypeAError,
    QuiverDtError,
    QuiverParseError,
    TruncationMismatchError,
    UnknownVertexError,
)
from .ordering import (
    OrderVerdict,
    RootEntry,
    RootOrder,
    admissible_total_order,
    expected_root_multiset,
    reineke_inner_order,
    validate_order,
)
from .partitions import (
    AdmissibilityVerdict,
    KostantSeries,
    SubquiverPartition,
    check_admissible,
    enumerate_partitions,
    kostant_series,
    make_partition,
    order_blocks,
)
from .quiver import (
    Arrow,
    DimVector,
    Quiver,
    check_vertex_partition,
    euler_form,
    induced_subquiver,
    parse_quiver,
    shortest_directed_cycle,
    skew_form,
    topological_vertex_order,
)
from .series import VSeries, poincare_series
from .strata import (
    AdditivityVerdict,
    BettiTerm,
    BettiVerdict,
    CodimReport,
    MonomialNormalForm,
    betti_identity_check,
    codim_additivity_check,
    codim_of_stratum,
    inner_lists,
    monomial_normal_form,
    series_from_inner_lists,
    stratum_orbit_decomposition,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
