"""Acts over finite monoids: congruences, strong flatness, coessential
covers, rewriting-monoid tools, and directed colimits."""

from .acts import (
    Act,
    ActMap,
    Relation,
    RightCongruence,
    all_right_congruences,
    are_isomorphic,
    canonical_projection,
    congruence_from_partition,
    cyclic_iso_witness,
    disjoint_union,
    full_congruence,
    generating_set,
    homs,
    identity_map,
    is_right_congruence,
    one_element_act,
    projection_to_one,
    pullback_relation,
    quotient_act,
    quotient_map,
    regular_act,
    relation_from_subset,
    relation_to_congruence,
    subact_closure,
)
from .colimit import (
    ColimitResult,
    DirectedSystem,
    cocones,
    compute_colimit,
    make_system,
    validate_system,
    verify_universality,
)
from .covers import (
    CoverReport,
    is_coessential,
    is_cover_wrt,
    is_precover_wrt,
    search_sf_coessential_covers,
    unique_up_to_iso,
)
from .errors import (
    ActcoversError,
    BadIndexError,
    BudgetExceededError,
    EmptySeedError,
    EmptySemigroupError,
    IncoherentArrowsError,
    NoIdentityError,
    NotAssociativeError,
    NotDirectedError,
    NotEpimorphismError,
    NotSubsetError,
    OrderTooLargeError,
    TooFewSamplesError,
)
from .flatness import FlatnessReport, is_strongly_flat
from .kruml import (
    ColimitElement,
    FinXSystem,
    is_normal,
    kmul,
    knormalize,
    knormalize_random,
    left_cancel_test,
    normal_words,
    right_cancellation_counterexamples,
)
from .monoid import (
    Monoid,
    build_from_table,
    enumerate_monoids,
    is_cancellative,
    is_group,
    qiao_wei_presentation,
    qiao_wei_truncated,
    right_zero_adjoin_one,
)
from .scenarios import (
    Assertion,
    ScenarioReport,
    run_kruml,
    run_lemma,
    run_qiao_wei,
    run_rightzero,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
