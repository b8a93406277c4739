"""The synthetic database and query scripts of paper §5."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".generator": (
        "CHAIN_KEY", "COMMON_TYPE", "COMMON_VALUE", "RAND10_TYPE", "RAND100_TYPE", "RAND1000_TYPE",
        "SEARCH_KEY_SPACES", "TREE_KEY", "UNIQUE_TYPE", "MaterializedWorkload", "WorkloadSpec",
        "generate_into_cluster", "materialize", "pointer_key_for",
    ),
    ".corpus": ("Corpus", "CorpusSpec", "build_corpus"),
    ".graphs": ("AbstractGraph", "build_graph"),
    ".queries": (
        "bounded_query", "closure_query", "query_script", "traversal_only_query", "unique_query",
    ),
})
