"""Lemma-disjoint train/test splits for compositional evaluation."""

from __future__ import annotations

import logging
import unicodedata
from typing import NamedTuple

from .corpus import Dataset

log = logging.getLogger(__name__)


def _norm(lemma: str) -> str:
    # NFC so Unicode-variant spellings of the same lemma cannot leak
    return unicodedata.normalize("NFC", lemma)


class LemmaSplit(NamedTuple):
    test: Dataset
    train_lemmas: frozenset[str]


def lemma_split(full: Dataset, train: Dataset) -> LemmaSplit:
    """Keep only triples of `full` whose lemma never occurs in `train`."""
    train_lemmas = frozenset(_norm(t.lemma) for t in train)
    kept = tuple(t for t in full if _norm(t.lemma) not in train_lemmas)
    if not kept:
        log.warning("lemma split removed every triple of %r", full.name)
    return LemmaSplit(
        test=Dataset(triples=kept, name=f"{full.name}-lemma-test"),
        train_lemmas=train_lemmas,
    )
