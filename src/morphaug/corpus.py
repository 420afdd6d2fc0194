"""Inflection corpus data model: triples, datasets, alphabets and the
vowel-harmony rule, with their TSV readers.

File convention is UTF-8 TSV with columns lemma<TAB>form<TAB>MSD, where the
MSD is a ';'-joined list of feature tokens (a harmony file's are char<TAB>class).
Everything here is immutable and operates on Unicode code points (combining
marks count as separate characters).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

from .errors import LineError, MorphaugError
from .util import BAD_TEXT, TEXT_RULE, lines


class InflectionTriple(NamedTuple):
    """One gold example: lemma, inflected form, morphosyntactic description.
    A triple read from a file has passed check_triple."""

    id: str
    lemma: str
    form: str
    msd: tuple[str, ...]

    @property
    def msd_string(self) -> str:
        return ";".join(self.msd)


def check_triple(t: InflectionTriple) -> InflectionTriple:
    """t, if its lemma and form are non-empty and hold no U+FEFF, its MSD has
    at least one token, each non-empty with no ';' or whitespace, and all of
    them keep util's text rule."""
    if not t.lemma or not t.form:
        raise MorphaugError(f"triple {t.id!r}: lemma and form must be non-empty")
    if BAD_TEXT.search(t.lemma) or BAD_TEXT.search(t.form):
        raise MorphaugError(f"triple {t.id!r}: lemma and form must hold {TEXT_RULE}")
    if "\ufeff" in t.lemma or "\ufeff" in t.form:
        # a byte order mark that starts a file is not read back as data
        raise MorphaugError(f"triple {t.id!r}: lemma and form must not hold U+FEFF")
    if not t.msd:
        raise MorphaugError(f"triple {t.id!r}: msd must have at least one feature")
    for tok in t.msd:
        # str.split() splits exactly at the characters str.isspace() accepts
        if not tok or ";" in tok or tok.split() != [tok] or BAD_TEXT.search(tok):
            raise MorphaugError(f"triple {t.id!r}: bad msd token {tok!r}")
    return t


@dataclass(frozen=True)
class Dataset:
    """Ordered collection of triples with unique ids. Duplicate surface forms
    are retained on purpose: MSD proportions are frequency-based."""

    triples: tuple[InflectionTriple, ...]
    name: str = "dataset"
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {}
        for t in self.triples:
            if t.id in index:
                raise ValueError(f"duplicate id {t.id!r} in dataset {self.name!r}")
            index[t.id] = t
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self) -> Iterator[InflectionTriple]:
        return iter(self.triples)

    def __getitem__(self, i) -> InflectionTriple:
        return self.triples[i]

    def by_id(self, triple_id: str) -> InflectionTriple:
        return self._index[triple_id]

    def __contains__(self, triple_id: str) -> bool:
        return triple_id in self._index


@dataclass(frozen=True)
class Alphabet:
    """Sorted, duplicate-free character inventory; index maps each character
    to its position in chars."""

    chars: tuple[str, ...]
    index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.chars:
            raise ValueError("alphabet must be non-empty")
        index = {c: i for i, c in enumerate(self.chars)}
        if len(index) != len(self.chars):
            raise ValueError("alphabet contains duplicates")
        object.__setattr__(self, "index", index)

    def __len__(self) -> int:
        return len(self.chars)

    def __contains__(self, c: str) -> bool:
        return c in self.index


@dataclass(frozen=True)
class HarmonyRule:
    """Vowel harmony: affix vowels take the class of the last stem vowel.

    `vowel_classes` maps each vowel to a class label; consonants are
    unmapped. A vowel labelled "neutral" never sets the stem's class, is
    never harmonized and never counts as a violation. `pairs` maps each
    vowel to its counterpart in the other class; only harmonize reads it."""

    vowel_classes: dict
    pairs: dict | None = None

    def __post_init__(self):
        if not self.vowel_classes:
            raise MorphaugError("vowel class map is empty")

    def stem_class(self, stem: str) -> str | None:
        for c in reversed(stem):
            cls = self.vowel_classes.get(c)
            if cls is not None and cls != "neutral":
                return cls
        return None

    def _clashes(self, c: str, cls: str) -> bool:
        own = self.vowel_classes.get(c)
        return own is not None and own != "neutral" and own != cls

    def harmonize(self, affix: str, cls: str | None) -> str:
        if cls is None:
            return affix
        return "".join(self.pairs[c] if self._clashes(c, cls) else c for c in affix)

    def violates(self, stem: str, affix: str) -> bool:
        cls = self.stem_class(stem)
        return cls is not None and any(self._clashes(c, cls) for c in affix)


def parse_unimorph(text: str, name: str = "dataset") -> Dataset:
    """Parse UniMorph-style TSV, whose lines are util.lines, into a Dataset;
    ids are assigned from 1-based line order."""
    triples = []
    for line_no, line in lines(text):
        fields = line.split("\t")
        if len(fields) != 3:
            raise LineError(line_no, f"expected 3 tab-separated fields: got {len(fields)}")
        lemma, form, msd = fields
        try:
            triples.append(check_triple(
                InflectionTriple(str(line_no), lemma, form, tuple(msd.split(";")))))
        except MorphaugError as e:
            raise LineError(line_no, e) from None
    return Dataset(triples=tuple(triples), name=name)


def read_harmony_tsv(text: str) -> HarmonyRule:
    """The HarmonyRule of a char<TAB>class vowel TSV, whose lines are util.lines."""
    classes = {}
    for line_no, line in lines(text):
        fields = line.split("\t")
        if (len(fields) != 2 or len(fields[0]) != 1 or not fields[1]
                or any(map(BAD_TEXT.search, fields))):
            raise LineError(line_no, "expected char<TAB>class, one character and a non-empty "
                                     f"class, each with {TEXT_RULE}, got {line!r}")
        char, cls = fields
        if char in classes:
            raise LineError(line_no, f"{char!r} is listed twice")
        classes[char] = cls
    return HarmonyRule(vowel_classes=classes)


def serialize(triples: Iterable[InflectionTriple]) -> str:
    """Inverse of parse_unimorph up to id renumbering."""
    return "".join(f"{t.lemma}\t{t.form}\t{t.msd_string}\n" for t in triples)


def to_jsonl(d: Dataset) -> str:
    return "".join(
        json.dumps({"id": t.id, "lemma": t.lemma, "form": t.form, "msd": list(t.msd)},
                   ensure_ascii=False) + "\n"
        for t in d
    )


def extract_alphabet(d: Dataset) -> Alphabet:
    """Union of code points over all lemmas and forms, sorted by code point."""
    if len(d) == 0:
        raise MorphaugError(f"dataset {d.name!r} is empty")
    chars = set()
    for t in d:
        chars.update(t.lemma)
        chars.update(t.form)
    return Alphabet(chars=tuple(sorted(chars)))

