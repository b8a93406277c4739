"""The HyperFile data model and query language (paper §2–§3).

Re-exports the public names applications use to build objects and queries.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".ast": (
        "Deref", "FilterNode", "Iterate", "Query", "Retrieve", "Select", "closure", "deref",
        "deref_keep", "iterate", "retrieve", "select",
    ),
    ".builder": ("QueryBuilder",),
    ".objects": ("HFObject", "make_set_object", "set_members"),
    ".oid": ("Oid", "OidAllocator"),
    ".parser": ("parse_filters", "parse_query"),
    ".patterns": (
        "ANY", "Bind", "Literal", "OneOf", "Pattern", "Range", "Regex", "Use", "as_pattern",
    ),
    ".program": ("Program", "compile_query"),
    ".tuples": (
        "HFTuple", "blob_tuple", "keyword_tuple", "number_tuple", "pointer_tuple", "string_tuple",
        "text_tuple", "tuple_of",
    ),
    ".types": ("DEFAULT_REGISTRY", "FieldKind", "TupleType", "TypeRegistry"),
    ".validate": ("ValidationReport", "validate_query"),
})
