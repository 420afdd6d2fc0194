"""Inflection corpus data model: triples, datasets and alphabets.

File convention is UTF-8 TSV with columns lemma<TAB>form<TAB>MSD, where the
MSD is a ';'-joined list of feature tokens. Everything here is immutable and
operates on Unicode code points (combining marks count as separate characters).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import LineError, MorphaugError
from .util import lines


@dataclass(frozen=True, slots=True)
class InflectionTriple:
    """One gold example: lemma, inflected form, morphosyntactic description.

    The constructor validates; derived_triple builds one without the check."""

    id: str
    lemma: str
    form: str
    msd: tuple[str, ...]

    def __post_init__(self):
        if not self.lemma or not self.form:
            raise ValueError(f"triple {self.id!r}: lemma and form must be non-empty")
        if "\ufeff" in self.lemma or "\ufeff" in self.form:
            # a byte order mark that starts a file is not read back as data
            raise ValueError(f"triple {self.id!r}: lemma and form must not hold U+FEFF")
        if not self.msd:
            raise ValueError(f"triple {self.id!r}: msd must have at least one feature")
        for tok in self.msd:
            # str.split() splits exactly at the characters str.isspace() accepts
            if not tok or ";" in tok or tok.split() != [tok]:
                raise ValueError(f"triple {self.id!r}: bad msd token {tok!r}")

    @property
    def msd_string(self) -> str:
        return ";".join(self.msd)


_new = object.__new__
# the slots' own setters: like a frozen dataclass's __init__, they go past
# the frozen __setattr__
_set_id, _set_lemma, _set_form, _set_msd = (
    InflectionTriple.__dict__[f].__set__ for f in ("id", "lemma", "form", "msd"))


def derived_triple(id: str, lemma: str, form: str, msd: tuple[str, ...]) -> InflectionTriple:
    """An InflectionTriple built without __post_init__'s check, for a triple
    derived from a validated one: the same MSD tuple, and a lemma and form
    of the validated triple's (non-zero) lengths."""
    t = _new(InflectionTriple)
    _set_id(t, id)
    _set_lemma(t, lemma)
    _set_form(t, form)
    _set_msd(t, msd)
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

    def __iter__(self):
        return iter(self.chars)


def parse_unimorph(text: str, name: str = "dataset") -> Dataset:
    """Parse UniMorph-style TSV, whose lines are util.lines, into a Dataset;
    ids are assigned from 1-based line order."""
    triples = []
    for line_no, line in lines(text):
        fields = line.split("\t")
        if len(fields) != 3:
            raise LineError(line_no, f"expected 3 tab-separated fields: got {len(fields)}")
        for value, field_name in zip(fields, ("lemma", "form", "MSD")):
            if not value:
                raise LineError(line_no, f"empty {field_name}")
        lemma, form, msd = fields
        try:
            triples.append(InflectionTriple(str(line_no), lemma, form, tuple(msd.split(";"))))
        except ValueError as e:
            raise LineError(line_no, e) from None
    return Dataset(triples=tuple(triples), name=name)


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

