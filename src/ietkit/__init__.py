"""Exact interval exchange transformations and Burrows-Wheeler clustering.

The library covers ordered-alphabet word combinatorics, the Burrows-Wheeler
transform and its Lyndon-multiset extension, exact arithmetic in Q(sqrt(d)),
interval exchange transformations with trajectory, cylinder and language
machinery, discrete interval exchanges, two-sided Rauzy induction with its
morphism calculus, and extension-graph classification of languages.
Everything is exact; no floating point enters any decision.
"""

from .arith import QuadNum
from .bwt import (
    ClusteringReport,
    bwt,
    clustering_report,
    ebwt,
    inverse_ebwt,
    multiset_clustering_report,
    multiset_parikh,
)
from .diet import Diet, as_iet, diet_action, diet_cylinder, diet_from_multiset, orbit_words
from .extgraph import (
    ClassifyReport,
    ExtensionGraph,
    LanguageSample,
    SampleTooLargeError,
    classify,
    extension_graph,
    is_compatible,
    is_forest,
    is_tree,
    order_from_permutation,
    sample_from_iet,
    sample_from_multiset,
    sample_from_periodic,
)
from .iet import (
    CapExceededError,
    Connection,
    IncompleteScanError,
    Interval,
    Iet,
    KeaneVerdict,
    Language,
)
from .morphisms import (
    Morphism,
    clustering_case_target,
    compose,
    identity,
    make_alpha,
    make_alpha_tilde,
    rename,
)
from .rauzy import (
    InductionCapError,
    InductionTrace,
    StepRecord,
    ZeroConnectionError,
    induce_to_cylinder,
    rauzy_left,
    rauzy_right,
    return_words_induction,
    step_morphism,
)
from .words import (
    OrderedAlphabet,
    Permutation,
    compare_lex,
    compare_omega,
    conjugates,
    is_lyndon,
    is_primitive,
    lyndon_representative,
    parikh,
    primitive_root,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "ClassifyReport",
    "ClusteringReport",
    "Connection",
    "Diet",
    "ExtensionGraph",
    "Iet",
    "IncompleteScanError",
    "InductionCapError",
    "InductionTrace",
    "Interval",
    "KeaneVerdict",
    "Language",
    "LanguageSample",
    "Morphism",
    "OrderedAlphabet",
    "Permutation",
    "QuadNum",
    "SampleTooLargeError",
    "StepRecord",
    "ZeroConnectionError",
    "as_iet",
    "bwt",
    "classify",
    "clustering_case_target",
    "clustering_report",
    "compare_lex",
    "compare_omega",
    "compose",
    "conjugates",
    "diet_action",
    "diet_cylinder",
    "diet_from_multiset",
    "ebwt",
    "extension_graph",
    "identity",
    "induce_to_cylinder",
    "inverse_ebwt",
    "is_compatible",
    "is_forest",
    "is_lyndon",
    "is_primitive",
    "is_tree",
    "lyndon_representative",
    "make_alpha",
    "make_alpha_tilde",
    "multiset_clustering_report",
    "multiset_parikh",
    "orbit_words",
    "order_from_permutation",
    "parikh",
    "primitive_root",
    "rauzy_left",
    "rauzy_right",
    "rename",
    "return_words_induction",
    "sample_from_iet",
    "sample_from_multiset",
    "sample_from_periodic",
    "step_morphism",
]
