"""Hash functions, bit-vector helpers, and super-key generation.

Importing this package registers every hash function evaluated in the paper
(XASH and its ablations, bloom filters, hash table, MD5, Murmur3, CityHash,
SimHash) in the name-based registry used by the experiment harness.
"""

from . import ablation as _ablation  # noqa: F401  (registers variants)
from . import bloom as _bloom  # noqa: F401
from . import short_values as _short_values  # noqa: F401
from . import standard as _standard  # noqa: F401
from .ablation import FIGURE5_VARIANTS
from .base import (
    HashFunction,
    available_hash_functions,
    create_hash_function,
    register_hash_function,
)
from .bitvector import (
    fold,
    mask,
    popcount,
    rotate_left,
    subsumes,
)
from .bloom import (
    BloomFilterHashFunction,
    HashTableHashFunction,
    LessHashingBloomFilter,
    false_positive_probability,
    optimal_number_of_hashes,
)
from .murmur import MurmurHashFunction, murmur3_32, murmur3_string, murmur3_x64_128
from .short_values import ShortValueXashHashFunction, bigram_bucket
from .standard import (
    CityHashFunction,
    Md5HashFunction,
    SimHashFunction,
    city_hash_64,
)
from .superkey import SuperKeyGenerator
from .xash import XashHashFunction, normalize_character

__all__ = [
    "FIGURE5_VARIANTS",
    "BloomFilterHashFunction",
    "CityHashFunction",
    "HashFunction",
    "HashTableHashFunction",
    "LessHashingBloomFilter",
    "Md5HashFunction",
    "MurmurHashFunction",
    "ShortValueXashHashFunction",
    "SimHashFunction",
    "SuperKeyGenerator",
    "XashHashFunction",
    "available_hash_functions",
    "bigram_bucket",
    "city_hash_64",
    "create_hash_function",
    "false_positive_probability",
    "fold",
    "mask",
    "murmur3_32",
    "murmur3_string",
    "murmur3_x64_128",
    "normalize_character",
    "optimal_number_of_hashes",
    "popcount",
    "register_hash_function",
    "rotate_left",
    "subsumes",
]
