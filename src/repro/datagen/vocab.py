"""Vocabularies and value factories for the synthetic corpora.

The paper evaluates on web tables and open-data tables whose cells are short
natural-language strings (names, places, organisations), codes, dates and
numbers.  The generators in this package draw from the vocabularies below so
that synthetic corpora exhibit the same properties that matter for MATE:

* heavy value re-use across tables (the source of false-positive rows),
* skewed (power-law-like) posting-list lengths (Section 7.5.4 relies on it),
* realistic character distributions and value lengths (XASH's features).

All sampling goes through an explicit :class:`random.Random` instance so the
corpora are reproducible from a seed.
"""

from __future__ import annotations

import random
import string
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

FIRST_NAMES: tuple[str, ...] = (
    "muhammad", "ansel", "helmut", "gretchen", "adam", "maria", "jose", "wei",
    "anna", "peter", "fatima", "ivan", "olga", "carlos", "sofia", "david",
    "laura", "ahmed", "yuki", "chen", "emma", "lucas", "mia", "noah", "lena",
    "omar", "nina", "erik", "tanja", "pierre", "claire", "diego", "paula",
    "marko", "elena", "johan", "ingrid", "rahul", "priya", "samuel", "ruth",
    "george", "alice", "frank", "karin", "tom", "julia", "max", "eva", "liam",
)

LAST_NAMES: tuple[str, ...] = (
    "lee", "adams", "newton", "sandler", "ali", "smith", "mueller", "schmidt",
    "garcia", "martinez", "kim", "wang", "singh", "kumar", "ivanov", "petrov",
    "rossi", "silva", "santos", "haddad", "tanaka", "sato", "nguyen", "tran",
    "kowalski", "novak", "jensen", "hansen", "larsen", "berg", "lindberg",
    "dubois", "moreau", "fischer", "weber", "wagner", "becker", "hoffmann",
    "keller", "brown", "jones", "miller", "davis", "wilson", "taylor", "clark",
    "lewis", "walker", "young", "king",
)

COUNTRIES: tuple[str, ...] = (
    "us", "uk", "germany", "france", "spain", "italy", "poland", "sweden",
    "norway", "denmark", "netherlands", "belgium", "austria", "switzerland",
    "portugal", "greece", "turkey", "egypt", "india", "china", "japan",
    "brazil", "argentina", "mexico", "canada", "australia", "russia",
    "finland", "ireland", "czechia",
)

CITIES: tuple[str, ...] = (
    "berlin", "hannover", "dresden", "hamburg", "munich", "cologne", "paris",
    "london", "madrid", "rome", "vienna", "zurich", "amsterdam", "brussels",
    "warsaw", "prague", "stockholm", "oslo", "copenhagen", "helsinki",
    "lisbon", "athens", "istanbul", "cairo", "delhi", "beijing", "tokyo",
    "brooklyn", "cambridge", "bay ridge", "boston", "chicago", "seattle",
    "toronto", "sydney", "moscow", "dublin", "porto", "lyon", "milan",
)

OCCUPATIONS: tuple[str, ...] = (
    "photographer", "dancer", "boxer", "birder", "artist", "actor", "teacher",
    "engineer", "doctor", "nurse", "pilot", "chef", "writer", "painter",
    "singer", "farmer", "lawyer", "judge", "scientist", "librarian",
    "architect", "plumber", "electrician", "carpenter", "journalist",
)

WEATHER_CONDITIONS: tuple[str, ...] = (
    "sunny", "rainy", "cloudy", "foggy", "windy", "snowy", "stormy", "clear",
    "hazy", "drizzle",
)

EVENT_TYPES: tuple[str, ...] = (
    "marathon", "concert", "festival", "parade", "roadwork", "strike",
    "football match", "fireworks", "exhibition", "street market",
)

MOVIE_WORDS: tuple[str, ...] = (
    "shadow", "river", "night", "empire", "garden", "storm", "silent",
    "broken", "golden", "last", "first", "lost", "hidden", "crimson", "winter",
    "summer", "echo", "dream", "stone", "fire", "glass", "paper", "iron",
    "velvet", "electric",
)

AIRLINE_WORDS: tuple[str, ...] = (
    "northern", "pacific", "atlantic", "royal", "global", "swift", "polar",
    "sun", "star", "eagle", "falcon", "horizon", "summit", "delta", "alpine",
)

SCHOOL_PROGRAMS: tuple[str, ...] = (
    "magnet", "charter", "bilingual", "montessori", "stem", "arts",
    "vocational", "gifted", "special education", "international",
)

STREET_WORDS: tuple[str, ...] = (
    "main", "park", "oak", "lake", "hill", "church", "station", "market",
    "bridge", "garden", "mill", "spring", "forest", "river", "school",
)

GENERIC_WORDS: tuple[str, ...] = (
    "alpha", "beta", "gamma", "delta", "omega", "north", "south", "east",
    "west", "central", "upper", "lower", "new", "old", "grand", "little",
    "white", "black", "green", "blue", "red", "silver", "golden", "royal",
    "union", "liberty", "victory", "harmony", "summit", "valley",
)


def random_word(rng: random.Random, min_length: int = 3, max_length: int = 10) -> str:
    """Generate a pronounceable pseudo-word (alternating consonants/vowels)."""
    vowels = "aeiou"
    consonants = "".join(c for c in string.ascii_lowercase if c not in vowels)
    length = rng.randint(min_length, max_length)
    characters = []
    use_vowel = rng.random() < 0.5
    for _ in range(length):
        pool = vowels if use_vowel else consonants
        characters.append(rng.choice(pool))
        use_vowel = not use_vowel
    return "".join(characters)


def random_date(rng: random.Random, start_year: int = 2015, end_year: int = 2022) -> str:
    """Generate an ISO-like date string (uniform over plausible dates)."""
    year = rng.randint(start_year, end_year)
    month = rng.randint(1, 12)
    day = rng.randint(1, 28)
    return f"{year:04d}-{month:02d}-{day:02d}"


def random_timestamp(rng: random.Random) -> str:
    """Generate a date-plus-hour timestamp (as in the air-quality example)."""
    return f"{random_date(rng)} {rng.randint(0, 23):02d}:00"


def random_number(rng: random.Random, low: int = 0, high: int = 100_000) -> str:
    """Generate an integer-valued cell (identifiers, measurements, counts)."""
    return str(rng.randint(low, high))


def random_code(rng: random.Random, length: int = 6) -> str:
    """Generate an alphanumeric code such as a licence plate or product id."""
    alphabet = string.ascii_lowercase + string.digits
    return "".join(rng.choice(alphabet) for _ in range(length))


def full_name(rng: random.Random) -> str:
    """Generate a "first last" person name."""
    return f"{rng.choice(FIRST_NAMES)} {rng.choice(LAST_NAMES)}"


def movie_title(rng: random.Random) -> str:
    """Generate a two/three word movie-like title."""
    words = [rng.choice(MOVIE_WORDS) for _ in range(rng.randint(2, 3))]
    return " ".join(words)


def airline_name(rng: random.Random) -> str:
    """Generate an airline-like organisation name."""
    return f"{rng.choice(AIRLINE_WORDS)} {rng.choice(('air', 'airways', 'airlines', 'wings'))}"


def school_name(rng: random.Random) -> str:
    """Generate a school-like organisation name."""
    return f"{rng.choice(CITIES)} {rng.choice(STREET_WORDS)} school"


def _build_shared_tokens(count: int = 2000, seed: int = 42) -> tuple[str, ...]:
    """Build the shared token pool used by "token"-typed columns.

    The pool is deterministic (fixed seed) so that corpora and query tables
    generated in separate calls still share values — which is what creates
    posting-list hits across tables.
    """
    rng = random.Random(seed)
    tokens: set[str] = set()
    while len(tokens) < count:
        tokens.add(random_word(rng, 4, 12))
    return tuple(sorted(tokens))


#: A large shared pool of pseudo-words with no domain semantics.  Columns
#: drawing from this pool (with a Zipf skew) have per-value posting-list
#: lengths that follow the power-law distribution described in Section 7.5.4,
#: independent of the column's cardinality.
SHARED_TOKENS: tuple[str, ...] = _build_shared_tokens()


@lru_cache(maxsize=64)
def _zipf_cum_weights(count: int, skew: float) -> list[float]:
    """Cumulative rank weights ``1 / rank ** skew``, shared by every draw."""
    return list(accumulate(1.0 / (rank ** skew) for rank in range(1, count + 1)))


def zipf_choice(rng: random.Random, values: Sequence[str], skew: float = 1.2) -> str:
    """Draw a value with a power-law (Zipf-like) distribution over ranks.

    The first elements of ``values`` are drawn far more often than the tail,
    which produces the skewed posting-list length distribution the paper
    observes on real corpora (Section 7.5.4).
    """
    if not values:
        raise ValueError("cannot sample from an empty sequence")
    # ``choices`` accumulates plain weights the same way, so handing it the
    # cached cumulative weights leaves every seeded draw unchanged.
    return rng.choices(values, cum_weights=_zipf_cum_weights(len(values), skew))[0]
