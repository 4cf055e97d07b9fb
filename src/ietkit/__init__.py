"""Exact interval exchange transformations and Burrows-Wheeler clustering.

The library covers ordered-alphabet word combinatorics, the Burrows-Wheeler
transform and its Lyndon-multiset extension, exact arithmetic in Q(sqrt(d)),
interval exchange transformations with trajectory, cylinder and language
machinery, discrete interval exchanges, two-sided Rauzy induction with its
morphism calculus, and extension-graph classification of languages.
Everything is exact; no floating point enters any decision.
"""

from types import ModuleType as _ModuleType

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

# The public names imported above; the submodules those imports bind stay out.
__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
