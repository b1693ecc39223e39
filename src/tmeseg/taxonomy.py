"""Closed class vocabulary, hierarchy levels, and cross-model class maps.

The vocabulary is loaded from a JSON document (``data/taxonomy.json`` by
default) so extension experiments can swap it via the CLI without code
changes. Class ids are dense, start at 0 for ``background``, and follow the
roster order of the JSON file; that single ordering is the global
tie-breaking rule used throughout the pipeline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Mapping, Optional


class UnknownClassError(KeyError):
    """Raised when a name cannot be resolved against the vocabulary."""

    def __init__(self, name: str, vocabulary: tuple[str, ...]):
        self.name = name
        self.vocabulary = vocabulary
        super().__init__(
            f"unknown class name {name!r}; vocabulary: {', '.join(vocabulary)}"
        )


BACKGROUND = 0


@dataclass(frozen=True)
class Taxonomy:
    """Immutable class roster plus the four-level classification hierarchy.

    ``levels`` holds class ids grouped by hierarchy level (index 0 is level 1,
    the coarsest). Classes missing from every level (background, stroma,
    fibroblast, mitotic cell, epithelial cell nucleus) are remainder or
    rule-assigned classes, not hierarchy members.
    """

    names: tuple[str, ...]
    abbrevs: tuple[str, ...]
    levels: tuple[tuple[int, ...], ...]
    aliases: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.names) != len(set(self.names)):
            raise ValueError("class names must be unique")
        if len(self.abbrevs) != len(self.names):
            raise ValueError("one abbreviation per class required")
        if self.names[BACKGROUND] != "background":
            raise ValueError("id 0 is reserved for background")
        seen: set[int] = set()
        for level in self.levels:
            for cid in level:
                if cid in seen:
                    raise ValueError(f"class id {cid} appears in two levels")
                seen.add(cid)
        lookup: dict[str, int] = {}
        for cid, (name, ab) in enumerate(zip(self.names, self.abbrevs)):
            lookup[name.lower()] = cid
            lookup[name.replace("_", " ").lower()] = cid
            lookup[ab.lower()] = cid
        for alias, target in self.aliases.items():
            lookup.setdefault(alias.lower(), lookup[target.lower()])
        object.__setattr__(self, "_lookup", lookup)
        object.__setattr__(
            self,
            "_level_of",
            {cid: i + 1 for i, lv in enumerate(self.levels) for cid in lv},
        )

    @property
    def n_classes(self) -> int:
        return len(self.names)

    @property
    def ids(self) -> range:
        return range(len(self.names))

    def resolve(self, name: str) -> int:
        """Map a class name, display name, or abbreviation to its id.

        Lookup is case-insensitive. Raises UnknownClassError (listing the
        vocabulary) for names outside the documented set.
        """
        cid = self._lookup.get(name.strip().lower())  # type: ignore[attr-defined]
        if cid is None:
            raise UnknownClassError(name, self.names)
        return cid

    def name_of(self, cid: int) -> str:
        return self.names[cid]

    def level_of(self, cid: int) -> Optional[int]:
        """Hierarchy level (1..4) containing the class, or None."""
        if not 0 <= cid < len(self.names):
            raise ValueError(f"invalid class id {cid}")
        return self._level_of.get(cid)  # type: ignore[attr-defined]

    def to_json(self) -> dict:
        return {
            "classes": [
                {"name": n, "abbrev": a} for n, a in zip(self.names, self.abbrevs)
            ],
            "hierarchy": [[self.names[c] for c in lv] for lv in self.levels],
            "aliases": dict(self.aliases),
        }


def taxonomy_from_json(doc: dict) -> Taxonomy:
    names = tuple(c["name"] for c in doc["classes"])
    abbrevs = tuple(c["abbrev"] for c in doc["classes"])
    index = {n: i for i, n in enumerate(names)}
    levels = tuple(tuple(index[n] for n in lv) for lv in doc["hierarchy"])
    return Taxonomy(names, abbrevs, levels, doc.get("aliases", {}))


def load_taxonomy(path: str | Path) -> Taxonomy:
    with open(path, "r", encoding="utf-8") as fh:
        return taxonomy_from_json(json.load(fh))


_DEFAULT: Optional[Taxonomy] = None


def default_taxonomy() -> Taxonomy:
    """The packaged vocabulary (loaded once, shared read-only)."""
    global _DEFAULT
    if _DEFAULT is None:
        text = resources.files("tmeseg.data").joinpath("taxonomy.json").read_text()
        _DEFAULT = taxonomy_from_json(json.loads(text))
    return _DEFAULT


@dataclass(frozen=True)
class ClassMap:
    """Total map from the source vocabulary onto an evaluation vocabulary.

    Every source class id maps to exactly one evaluation class index or to
    None (the explicit ``unmapped`` marker). Evaluation classes are ordered;
    that order is the tie-breaking rule during coverage competitions.
    """

    eval_classes: tuple[str, ...]
    mapping: Mapping[int, Optional[int]]
    taxonomy: Taxonomy

    def __post_init__(self):
        if len(self.eval_classes) != len(set(self.eval_classes)):
            raise ValueError("evaluation class names must be unique")
        missing = [c for c in self.taxonomy.ids if c not in self.mapping]
        if missing:
            raise ValueError(f"class map not total; missing source ids {missing}")

    def map_id(self, cid: int) -> Optional[int]:
        """Evaluation index for a source class id (None when unmapped)."""
        return self.mapping[cid]


def class_map_from_json(doc: dict, taxonomy: Optional[Taxonomy] = None) -> ClassMap:
    """Build a ClassMap from ``{"eval_classes": [...], "map": {src: eval}}``.

    Source classes absent from ``map`` (or mapped to null) are unmapped;
    totality over the vocabulary is therefore always satisfied.
    """
    tax = taxonomy or default_taxonomy()
    eval_classes = tuple(doc["eval_classes"])
    mapping: dict[int, Optional[int]] = {cid: None for cid in tax.ids}
    for src, dst in doc.get("map", {}).items():
        cid = tax.resolve(src)
        if dst is None:
            mapping[cid] = None
        else:
            if dst not in eval_classes:
                raise ValueError(f"map target {dst!r} not in eval_classes")
            mapping[cid] = eval_classes.index(dst)
    return ClassMap(eval_classes, mapping, tax)


def load_class_map(path: str | Path, taxonomy: Optional[Taxonomy] = None) -> ClassMap:
    with open(path, "r", encoding="utf-8") as fh:
        return class_map_from_json(json.load(fh), taxonomy)


def identity_class_map(taxonomy: Optional[Taxonomy] = None) -> ClassMap:
    """Map every class to itself (evaluation vocabulary == source roster)."""
    tax = taxonomy or default_taxonomy()
    return ClassMap(tax.names, {cid: cid for cid in tax.ids}, tax)
