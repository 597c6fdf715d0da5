"""The SSJoin primitive operator — the paper's core contribution.

Exports the operator facade, the predicate language of Definition 1, the
normalized set representation, the three physical implementations of
Section 4, the prefix machinery of Lemma 1, and the cost-based optimizer.
"""

from repro.core.basic import RESULT_SCHEMA, basic_ssjoin
from repro.core.dictionary import TokenDictionary
from repro.core.encoded import (
    EncodedPreparedRelation,
    EncodingCache,
    encode_pair,
    encoding_cached,
    global_encoding_cache,
)
from repro.core.encoded_index import EncodedInvertedIndex
from repro.core.encoded_prefix import encoded_prefix_ssjoin, merge_overlap
from repro.core.incremental import IncrementalSSJoin
from repro.core.index import InvertedIndex, index_probe_ssjoin
from repro.core.inline import encode_set, encoded_overlap, inline_ssjoin
from repro.core.metrics import (
    PHASE_FILTER,
    PHASE_PREFIX,
    PHASE_PREP,
    PHASE_SSJOIN,
    ExecutionMetrics,
)
from repro.core.optimizer import (
    CostEstimate,
    CostModel,
    choose_implementation,
)
from repro.core.ordering import (
    ElementOrdering,
    frequency_ordering,
    random_ordering,
    reverse_frequency_ordering,
    weight_ordering,
)
from repro.core.predicate import (
    AbsoluteBound,
    Bound,
    LeftNormBound,
    MaxNormBound,
    OverlapPredicate,
    RightNormBound,
    SumNormBound,
)
from repro.core.prefix_filter import prefix_filter_relation, prefix_filtered_ssjoin
from repro.core.prefixes import prefix_elements, prefix_of_sorted, prefix_set
from repro.core.prepared import (
    NORM_CARDINALITY,
    NORM_LENGTH,
    NORM_WEIGHT,
    PreparedRelation,
)
from repro.core.physical import execute_physical, execute_ssjoin_node
from repro.core.ssjoin import SSJoin, SSJoinResult, ssjoin
from repro.core.validation import VerificationReport, explain_pair, verify_result

__all__ = [
    "RESULT_SCHEMA",
    "basic_ssjoin",
    "TokenDictionary",
    "EncodedPreparedRelation",
    "EncodingCache",
    "encode_pair",
    "encoding_cached",
    "global_encoding_cache",
    "EncodedInvertedIndex",
    "encoded_prefix_ssjoin",
    "merge_overlap",
    "IncrementalSSJoin",
    "InvertedIndex",
    "index_probe_ssjoin",
    "encode_set",
    "encoded_overlap",
    "inline_ssjoin",
    "PHASE_FILTER",
    "PHASE_PREFIX",
    "PHASE_PREP",
    "PHASE_SSJOIN",
    "ExecutionMetrics",
    "CostEstimate",
    "CostModel",
    "choose_implementation",
    "ElementOrdering",
    "frequency_ordering",
    "random_ordering",
    "reverse_frequency_ordering",
    "weight_ordering",
    "AbsoluteBound",
    "Bound",
    "LeftNormBound",
    "MaxNormBound",
    "OverlapPredicate",
    "RightNormBound",
    "SumNormBound",
    "prefix_filter_relation",
    "prefix_filtered_ssjoin",
    "prefix_elements",
    "prefix_of_sorted",
    "prefix_set",
    "NORM_CARDINALITY",
    "NORM_LENGTH",
    "NORM_WEIGHT",
    "PreparedRelation",
    "SSJoin",
    "SSJoinResult",
    "ssjoin",
    "execute_physical",
    "execute_ssjoin_node",
    "VerificationReport",
    "explain_pair",
    "verify_result",
]
