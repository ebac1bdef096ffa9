"""Classic binary VSA substrate: bit ops, hypervectors, item memories.

Each name loads its submodule on first use."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".bitops": (
            "pack_bipolar",
            "unpack_bipolar",
            "popcount",
            "xnor_popcount",
            "hamming_distance_packed",
            "dot_from_matches",
        ),
        ".hypervector": (
            "bind",
            "bundle",
            "sign_bipolar",
            "random_bipolar",
            "permute",
            "flip_fraction",
            "is_bipolar",
        ),
        ".itemmemory": ("ItemMemory", "random_item_memory", "level_item_memory"),
        ".similarity": ("dot_similarity", "hamming_distance", "cosine_similarity", "classify"),
        ".classic": ("ClassicVSAClassifier", "encode_record"),
        ".capacity": ("CapacityReport", "expected_member_similarity", "measure_capacity"),
        ".resonator": ("ResonatorResult", "resonator_factorize"),
        ".sequence": ("encode_ngram", "encode_sequence", "ngram_statistics_vector"),
    },
)
