"""Canonical form v2: blank-node labels by integer partition refinement.

canonicalize() produces a text form shared by exactly the graphs that are
isomorphic under blank-node renaming, so graph comparison is string equality.
Its lines join the store's keys, each term's N-Triples text, as they stand.
Both writers take their blank labels c0, c1, ... from _canonical_labels.

The labels come from refining an ordered partition of the blank nodes on
integer cells: IRIs and literals are ranked by their keys, and a cell
splits by its members' edge counts into another cell.  Where a cell still
holds several blanks, a search individualizes them one at a time and keeps
the least leaf, compared as integer triples; automorphisms found on
the way prune branches that can only repeat a leaf.  Where the edges
between blanks form a forest, the first leaf is the answer: on a
vertex-coloured forest the cells of colour refinement are the automorphism
orbits (Arvind, Köbler, Rattan & Verbitsky, "On the power of color
refinement", FCT 2015), also after each individualization, so every leaf is
an image of the first and has its certificate.  A forest is therefore
labelled by the search's first descent alone, with no certificates, trail
or orbits, at one unit per individualized blank besides refinement.
Refinement pays for what mapped graphs need: a split that moves one blank
is a swap, and a splitter that touches no cell of several blanks splits
nothing.  A work budget proportional to the triple count bounds the search
(LabellingBudgetError).
tests/oracles.py keeps an unpruned search that must draw the same
distinctions.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional

from .graph import Graph, GraphError


class LabellingBudgetError(GraphError):
    """Blank-node labelling ran past its work budget (_WORK_PER_TRIPLE)."""


# Work units blank-node labelling may spend per triple: one per adjacency
# entry scanned or blank moved by refinement, search node, automorphism point
# and leaf triple.  The mapper's output stays far below it; graphs built to
# defeat refinement (Cai, Fürer & Immerman 1992) make the search exponential.
# A graph of fewer than _WORK_MIN_TRIPLES triples gets the budget of that
# many: small strongly regular graphs need up to 1,000 units per triple.
_WORK_PER_TRIPLE = 1000
_WORK_MIN_TRIPLES = 1000


class _Partition:
    """An ordered partition of blank ids, refined by a splitter queue.

    Cells are ranges of `elems` (position -> blank; `pos` is its inverse):
    `cell[b]` is the first position of b's cell and `end[f]` the end of the
    cell starting at f.  `adj[w]` lists (label, v) per edge between blanks w
    and v: 2p when v -p-> w, 2p + 1 when w -p-> v, p the predicate's rank.
    Once `trail` is a list, splits are logged there for undo().
    """

    def __init__(self, keys: dict[int, list[int]], adj: list, triples: int):
        n = len(keys)
        self.elems, self.end = list(keys), [n] * n
        self.pos, self.cell = [0] * len(adj), [0] * len(adj)
        self.limit = _WORK_PER_TRIPLE * max(triples, _WORK_MIN_TRIPLES)
        self.adj, self.budget, self.trail = adj, self.limit, None
        starts = self._split(0, sorted(keys, key=keys.__getitem__), keys)
        # The keys hold each blank's label counts toward all blanks, so all
        # cells but one largest refine the rest.
        largest = max(starts, key=lambda f: self.end[f] - f)
        self.refine([f for f in starts if f != largest])

    def spend(self, units: int) -> None:
        self.budget -= units
        if self.budget < 0:
            raise LabellingBudgetError(
                f"blank-node labelling passed its budget of {self.limit} steps "
                f"({_WORK_PER_TRIPLE} per triple): the blank nodes are too symmetric"
            )

    def _split(self, c: int, touched: list[int], key: dict) -> list[int]:
        """Move the touched blanks of cell c, sorted by key, to its back and
        start a cell at each new key; returns the parts' starts.  `key` must
        hold no other blank of the cell.  One touched blank of a cell with
        several is swapped with the cell's last blank: every individualization
        and most refinement splits take that path."""
        elems, pos, cell, end = self.elems, self.pos, self.cell, self.end
        e = end[c]
        back = e - len(touched)
        if len(touched) == 1 and back > c:
            v = touched[0]
            h, u = pos[v], elems[back]
            if self.trail is not None:
                self.trail.append((c, e, touched, touched, [h], [u]))
            elems[h], pos[u] = u, h
            elems[back], pos[v] = v, back
            cell[v] = end[c] = back
            end[back] = e
            return [c, back]
        front = [v for v in touched if pos[v] < back]
        holes = [pos[v] for v in front]
        old = elems[back:e]
        if self.trail is not None:
            self.trail.append((c, e, touched, front, holes, old))
        for h, u in zip(holes, [u for u in old if u not in key]):
            elems[h], pos[u] = u, h
        elems[back:e] = touched
        starts = [c] if back > c else []
        for i, v in enumerate(touched, back):
            pos[v] = i
            if i == back or key[v] != key[elems[i - 1]]:
                starts.append(i)
            cell[v] = starts[-1]
        for f, next_start in zip(starts, starts[1:] + [e]):
            end[f] = next_start
        return starts

    def undo(self, mark: int) -> None:
        elems, pos, cell, end, trail = self.elems, self.pos, self.cell, self.end, self.trail
        while len(trail) > mark:
            c, e, touched, front, holes, old = trail.pop()
            elems[e - len(old) : e] = old
            for i, u in enumerate(old, e - len(old)):
                pos[u] = i
            for h, v in zip(holes, front):
                elems[h], pos[v] = v, h
            for v in touched:
                cell[v] = c
            end[c] = e

    def target(self, f: int) -> Optional[int]:
        """The first cell from position f on with several blanks, or None."""
        n, end = len(self.elems), self.end
        while f < n and end[f] - f == 1:
            f = end[f]
        return f if f < n else None

    def individualize(self, b: int) -> None:
        """Give blank b a cell of its own, after the rest of its cell, and
        refine by it: one search node."""
        self.spend(1)
        self._split(self.cell[b], [b], {b: 0})
        self.refine([self.cell[b]])

    def refine(self, queue: list[int]) -> None:
        """Split cells by their label counts toward each queued cell in turn.

        A split moves the touched blanks to the back of the cell, in count
        key order (untouched first), so it costs the blanks touched.  All
        parts but one largest are queued; all are if the cell is queued.
        Only blanks in cells of several blanks are marked, grouped by cell
        as they are; a splitter that touches no such cell splits nothing and
        costs only its scan.
        """
        elems, cell, end, adj = self.elems, self.cell, self.end, self.adj
        queued = set(queue)
        steps = 0
        for f in queue:
            queued.discard(f)
            # Touched blanks of cells with several blanks: their labels (their
            # count key), and the blanks by cell.
            marks: dict[int, list[int]] = {}
            by_cell: dict[int, list[int]] = {}
            for w in elems[f : end[f]]:
                steps += len(adj[w]) + 1
                for label, v in adj[w]:
                    if v in marks:
                        marks[v].append(label)
                    else:
                        c = cell[v]
                        if end[c] - c > 1:
                            marks[v] = [label]
                            by_cell.setdefault(c, []).append(v)
            if not by_cell:
                continue
            for c in sorted(by_cell):
                touched = by_cell[c]
                for v in touched:
                    marks[v].sort()
                touched.sort(key=marks.__getitem__)
                if len(touched) == end[c] - c and marks[touched[0]] == marks[touched[-1]]:
                    continue
                steps += len(touched)
                starts = self._split(c, touched, marks)
                if len(starts) == 2:
                    # Two parts: the second if the cell is queued, else the
                    # smaller, the second on a tie.
                    b = starts[1]
                    new = [c if c not in queued and b - c < end[b] - b else b]
                else:
                    sizes = {a: b - a for a, b in zip(starts, starts[1:] + [end[starts[-1]]])}
                    if c not in queued:
                        del sizes[max(starts, key=sizes.__getitem__)]
                    new = [a for a in sizes if a not in queued]
                queue += new
                queued.update(new)
        self.spend(steps)

    def automorphism(self, moved_to: dict, moved_from: dict, edges: set) -> dict[int, int]:
        """The moved points of a map from a sibling's refinement to this one,
        if it keeps the edges between blanks; else {}.

        `moved_to` maps the blanks the sibling's refinement moved to their
        last cells, `moved_from` those of this one to their first.  A blank
        in the same cell in both stays put; the others pair up cell by cell.
        The map keeps each blank in its first cell, so it also keeps every
        edge to an IRI or literal.
        """
        leaving: defaultdict[int, list[int]] = defaultdict(list)
        arriving: defaultdict[int, list[int]] = defaultdict(list)
        for v, c in {**moved_from, **moved_to}.items():
            if c != self.cell[v]:
                leaving[c].append(v)
                arriving[self.cell[v]].append(v)
        if any(len(vs) != len(arriving[c]) for c, vs in leaving.items()):
            return {}
        moved = {v: u for c, vs in leaving.items() for v, u in zip(vs, arriving[c])}
        self.spend(len(moved))
        for v in moved:
            for label, u in self.adj[v]:
                s, o = (u, v) if label % 2 == 0 else (v, u)
                if (moved.get(s, s), label >> 1, moved.get(o, o)) not in edges:
                    return {}
        return moved


class _Orbits(dict):
    """Union-find over blanks (blank -> parent; a root -> minus its orbit's
    size): the orbits of the automorphisms taken in, from `seen` on.  The
    nodes of the first path share one, as every automorphism found so far
    fixes the path to the deepest of them still open.  _is_forest uses it
    as a plain union-find."""

    def __init__(self, seen: int = 0):
        super().__init__()
        self.seen = seen

    def find(self, b: int) -> int:
        while self.get(b, -1) >= 0:
            b = self[b]
        return b

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of a and b; False if they were one already."""
        a, b = self.find(a), self.find(b)
        if a == b:
            return False
        if self.get(a, -1) > self.get(b, -1):
            a, b = b, a
        self[a] = self.get(a, -1) + self.get(b, -1)
        self[b] = a
        return True

    def take_in(self, automorphisms: list, depth: int, part: _Partition) -> None:
        """Merge orbits along each new automorphism that fixes the path to depth."""
        for found, moved in automorphisms[self.seen :]:
            if found >= depth:
                part.spend(len(moved))
                for a, b in moved.items():
                    self.union(a, b)
        self.seen = len(automorphisms)


class _Node:
    """A search-tree node: the cell it branches on, the trail length of its
    partition, its orbits, and `model`: the last cells of the blanks moved
    by its first child that is not a leaf, for later children to match."""

    __slots__ = ("start", "end", "mark", "orbits", "next", "tried", "model")

    def __init__(self, start: int, end: int, mark: int, orbits: _Orbits):
        self.start, self.end, self.mark, self.orbits = start, end, mark, orbits
        self.next, self.tried, self.model = start, [], None

    def next_child(self, part: _Partition, automorphisms: list, depth: int) -> Optional[int]:
        """The next child to search, in position order, or None once the rest
        lie in the orbits of searched ones."""
        orbits = self.orbits
        orbits.take_in(automorphisms, depth, part)
        roots = {orbits.find(b) for b in self.tried}
        part.spend(len(roots))
        if -sum(orbits.get(r, -1) for r in roots) == self.end - self.start:
            return None
        while self.next < self.end:
            b = part.elems[self.next]
            self.next += 1
            part.spend(1)
            if orbits.find(b) not in roots:
                self.tried.append(b)
                return b
        return None


def _is_forest(edges: set) -> bool:
    """Whether the edges between blanks form a forest: none joins two blanks
    a path already connects, as a cycle, a second edge between two blanks
    (another predicate or the other direction) would."""
    joined = _Orbits()
    return all(joined.union(s, o) for s, _, o in edges)


def _canonical_labels(graph: Graph) -> dict[int, int]:
    """The blank id -> N map (label cN) of canonical form v2.

    Store ids never decide a label.  The blanks start in cells of equal
    signatures, ordered by signature, and the partition is refined until
    equitable.  The search branches on the first cell with several blanks.
    Automorphisms prune it (McKay & Piperno, "Practical graph isomorphism
    II", 2014): a leaf equal to one seen before gives one, and so does a
    child whose refinement maps onto its first sibling's under a map that
    keeps the edges.  A child in the orbit of a searched sibling is skipped,
    and a leaf equal to the first returns to where its path left the first
    path.  When the blanks form a forest (_is_forest), only the first
    descent runs, the first blank of the first cell with several from the
    last one individualized each time, and its leaf is returned: the forest
    spends one unit per individualized blank and its refinement steps, and
    none on certificates or further leaves.
    """
    keys, triples = graph._keys, graph._triples
    blanks = {x for x, key in enumerate(keys) if key[0] == "_"}
    held = [t for t in triples if t[0] in blanks or t[2] in blanks]
    if not held:
        return {}
    near = {x for t in held for x in t} - blanks
    rank = {x: r for r, x in enumerate(sorted(near, key=keys.__getitem__))}
    width = len(rank) + 1
    # Signatures as integers: (p, other term) * 4 + kind for a self-loop
    # (0, other = width - 1), an edge to (1) or from (2) a ranked term, and
    # label * 4 + 3 for an edge between blanks.
    sigs: defaultdict[int, list[int]] = defaultdict(list)
    adj: list[list[tuple[int, int]]] = [[] for _ in keys]
    for s, p, o in held:
        p = rank[p]
        if s not in blanks:
            b, sig = o, (p * width + rank[s]) * 4 + 2
        elif o not in blanks:
            b, sig = s, (p * width + rank[o]) * 4 + 1
        elif s == o:
            b, sig = s, (p * width + width - 1) * 4
        else:
            adj[o].append((2 * p, s))
            adj[s].append((2 * p + 1, o))
            sigs[s].append(8 * p + 3)
            b, sig = o, 8 * p + 7
        sigs[b].append(sig)
    for sig in sigs.values():
        sig.sort()
    part = _Partition(sigs, adj, len(triples))
    if part.target(0) is None:
        return {b: i for i, b in enumerate(part.elems)}

    edges = {(s, rank[p], o) for s, p, o in held if s in blanks and o in blanks and s != o}
    if _is_forest(edges):
        # The search's first descent: its leaf is the answer.
        c = part.target(0)
        while c is not None:
            part.individualize(part.elems[c])
            c = part.target(c)
        return {b: i for i, b in enumerate(part.elems)}
    # Held triples, a blank b as ~b and other terms as ranks.
    coded = [(~s if s in blanks else rank[s], rank[p], ~o if o in blanks else rank[o]) for s, p, o in held]

    part.trail = trail = []
    automorphisms: list[tuple[int, dict[int, int]]] = []  # (depth of the path fixed, moved points)
    first_path = _Orbits()
    first = best = None  # (certificate, position -> blank, path) of a leaf
    nodes: list[_Node] = []
    path: list[int] = []
    start, moved_from = 0, {}
    while True:
        c = part.target(start)
        if c is None:
            pos = part.pos
            leaf = (
                sorted([(s if s >= 0 else width + pos[~s], p, o if o >= 0 else width + pos[~o]) for s, p, o in coded]),
                list(part.elems),
                list(path),
            )
            part.spend(len(coded) + len(part.elems))
            ref = first if first and leaf[0] == first[0] else best if best and leaf[0] == best[0] else None
            if ref is not None:
                k = 0
                while path[k] == ref[2][k]:
                    k += 1
                automorphisms.append((k, {a: b for a, b in zip(ref[1], leaf[1]) if a != b}))
                if ref is first:
                    # The automorphism maps the first path's child at depth k
                    # onto this one, so the rest of this subtree repeats the
                    # first child's leaves.
                    del nodes[k + 1 :]
            elif best is None or leaf[0] < best[0]:
                first, best = first or leaf, leaf
        else:
            moved = nodes and nodes[-1].model and part.automorphism(nodes[-1].model, moved_from, edges)
            if moved:
                automorphisms.append((len(nodes) - 1, moved))
            else:
                if nodes and nodes[-1].model is None:
                    nodes[-1].model = {v: part.cell[v] for v in moved_from}
                orbits = first_path if first is None else _Orbits(len(automorphisms))
                nodes.append(_Node(c, part.end[c], len(trail), orbits))
        while nodes:
            node = nodes[-1]
            part.undo(node.mark)
            child = node.next_child(part, automorphisms, len(nodes) - 1)
            if child is not None:
                break
            nodes.pop()
        else:
            return {b: i for i, b in enumerate(best[1])}
        del path[len(nodes) - 1 :]
        path.append(child)
        mark = len(trail)
        part.individualize(child)
        moved_from = {}
        for c, _, touched, *_ in trail[mark:]:
            for v in touched:
                moved_from.setdefault(v, c)
        start = node.start


def canonicalize(graph: Graph) -> str:
    """Canonical N-Triples text (canonical form v2): equal strings iff the
    graphs are isomorphic, blank nodes labelled c0, c1, ..."""
    text = list(graph._keys)
    for x, n in _canonical_labels(graph).items():
        text[x] = f"_:c{n}"
    lines = sorted(f"{text[s]} {text[p]} {text[o]} ." for s, p, o in graph._triples)
    return "\n".join(lines) + "\n" if lines else ""
