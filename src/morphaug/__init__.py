"""Stem-corruption data augmentation, uncertainty-based subset selection, and
an empirical information-theory lab for morphological inflection."""

from .alignment import CharAlignment, Segmentation, align, extract_stem, levenshtein
from .corpus import (
    Alphabet,
    Dataset,
    InflectionTriple,
    extract_alphabet,
    parse_unimorph,
    serialize,
)
from .corruption import CorruptionConfig, SyntheticExample, corrupt, generate_pool
from .scoring import NGramScorer, load_external_scores, score_pool, train_ngram
from .selection import PoolIndex, SelectionStrategy, select
from .splitgen import LemmaSplit, lemma_split

__version__ = "0.1.0"
