"""The triple-store core: indexed id triples and rule saturation.

Operates on interned integer term ids (the Graph layer owns the id <-> term
mapping).  The wildcard id is -1.
"""

from __future__ import annotations

WILDCARD = -1


class TripleStore:
    """Set-semantics store of (s, p, o) int triples with lookup indexes."""

    __slots__ = ("_triples", "_set", "_by_s", "_by_p", "_by_o", "_by_sp", "_by_po")

    def __init__(self):
        self._triples: list[tuple[int, int, int]] = []
        self._set: set[tuple[int, int, int]] = set()
        self._by_s: dict[int, list[tuple[int, int, int]]] = {}
        self._by_p: dict[int, list[tuple[int, int, int]]] = {}
        self._by_o: dict[int, list[tuple[int, int, int]]] = {}
        self._by_sp: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        self._by_po: dict[tuple[int, int], list[tuple[int, int, int]]] = {}

    def add(self, s: int, p: int, o: int) -> bool:
        """Insert a triple; returns True when it was not present before."""
        t = (s, p, o)
        if t in self._set:
            return False
        self._set.add(t)
        self._triples.append(t)
        self._by_s.setdefault(s, []).append(t)
        self._by_p.setdefault(p, []).append(t)
        self._by_o.setdefault(o, []).append(t)
        self._by_sp.setdefault((s, p), []).append(t)
        self._by_po.setdefault((p, o), []).append(t)
        return True

    def contains(self, s: int, p: int, o: int) -> bool:
        return (s, p, o) in self._set

    def __len__(self) -> int:
        return len(self._triples)

    def triples(self) -> list[tuple[int, int, int]]:
        """All triples in insertion order."""
        return list(self._triples)

    def match(self, s: int, p: int, o: int) -> list[tuple[int, int, int]]:
        """Triples agreeing with every non-wildcard position (-1 = wildcard)."""
        if s != WILDCARD and p != WILDCARD:
            cands = self._by_sp.get((s, p), ())
            if o == WILDCARD:
                return list(cands)
            return [t for t in cands if t[2] == o]
        if p != WILDCARD and o != WILDCARD:
            cands = self._by_po.get((p, o), ())
            return list(cands)  # s is a wildcard here
        if s != WILDCARD:
            cands = self._by_s.get(s, ())
            if o == WILDCARD:
                return list(cands)
            return [t for t in cands if t[2] == o]
        if p != WILDCARD:
            return list(self._by_p.get(p, ()))
        if o != WILDCARD:
            return list(self._by_o.get(o, ()))
        return list(self._triples)

    def copy(self) -> "TripleStore":
        """An independent store with the same triples, in O(n).

        The triple list, the triple set and the five indexes are copied as
        they stand instead of re-adding every triple.  Every index gets fresh
        member lists, so adding to either store never shows in the other;
        the immutable triple tuples themselves are shared.
        """
        dup = TripleStore()
        dup._triples = list(self._triples)
        dup._set = set(self._set)
        dup._by_s = _copy_index(self._by_s)
        dup._by_p = _copy_index(self._by_p)
        dup._by_o = _copy_index(self._by_o)
        dup._by_sp = _copy_index(self._by_sp)
        dup._by_po = _copy_index(self._by_po)
        return dup


def _copy_index(index: dict) -> dict:
    return {key: list(members) for key, members in index.items()}


def saturate(
    store: TripleStore,
    chains: list[tuple[int, int, bool, int]],
    subclass_pairs: list[tuple[int, int]],
    rdf_type: int,
) -> int:
    """Apply chain and subclass rules until fixpoint; returns triples added.

    A chain (p1, p2, inverted, q) adds (a, q, c) for every a -p1-> b -p2-> c,
    or, when inverted, for every a -p1-> b and c -p2-> b.  A subclass pair
    (sub, sup) adds (x, rdf_type, sup) for every (x, rdf_type, sub).  Rules
    only connect existing nodes, so the loop terminates.
    """
    total = 0
    while True:
        added = 0
        for p1, p2, inverted, implied in chains:
            for a, _, b in store.match(WILDCARD, p1, WILDCARD):
                if inverted:
                    for c, _, _ in store.match(WILDCARD, p2, b):
                        if store.add(a, implied, c):
                            added += 1
                else:
                    for _, _, c in store.match(b, p2, WILDCARD):
                        if store.add(a, implied, c):
                            added += 1
        for sub, sup in subclass_pairs:
            for x, _, _ in store.match(WILDCARD, rdf_type, sub):
                if store.add(x, rdf_type, sup):
                    added += 1
        if not added:
            return total
        total += added
