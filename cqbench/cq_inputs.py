"""Seeded input generators for the benchmark workloads.

Everything here is plain Python on top of the standard library: the
benchmark builds its own queries (as rule text) and relations (as row
lists), so a change to the program's own workload helpers can never
change what the benchmark measures.  The program receives only the
generated inputs, through :func:`repro.parse_query` and
:meth:`repro.Database.from_dict`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

Row = Tuple[int, ...]


@dataclass(frozen=True)
class Shape:
    """A query shape: atoms over placeholder variables plus a free set."""

    name: str
    atoms: Tuple[Tuple[str, Tuple[str, ...]], ...]
    free: Tuple[str, ...]

    @property
    def variables(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for _, terms in self.atoms:
            for term in terms:
                seen.setdefault(term)
        return tuple(seen)

    def arities(self) -> Dict[str, int]:
        return {symbol: len(terms) for symbol, terms in self.atoms}

    def render(self, rng: random.Random) -> str:
        """The rule text under a fresh random bijective variable renaming."""
        variables = self.variables
        targets = list(range(len(variables)))
        rng.shuffle(targets)
        tag = rng.randrange(1 << 30)
        names = {v: f"W{tag}_{t}" for v, t in zip(variables, targets)}
        head = ", ".join(names[v] for v in self.free)
        body = ", ".join(
            f"{symbol}({', '.join(names[t] for t in terms)})"
            for symbol, terms in self.atoms
        )
        return f"ans({head}) :- {body}"


def parse_shape(name: str, text: str) -> Shape:
    """A :class:`Shape` from ``"A,B | r(A,B) s(B,C)"`` shorthand."""
    head, body = text.split("|")
    free = tuple(v.strip() for v in head.split(",") if v.strip())
    atoms = []
    for token in body.split():
        symbol, args = token.rstrip(")").split("(")
        atoms.append((symbol, tuple(a.strip() for a in args.split(","))))
    return Shape(name, tuple(atoms), free)


# ----------------------------------------------------------------------
# plan-cold: random connected shapes over small relations
# ----------------------------------------------------------------------
def random_shape(rng: random.Random, n_variables: int = 8, n_atoms: int = 6,
                 max_arity: int = 3) -> Shape:
    """A random connected shape with distinct relation symbols.

    Atoms grow over a random spanning order, so the hypergraph is
    connected; repeated variables inside an atom, cycles and a random
    free subset (often leaving variables quantified) all occur.
    """
    pool = [f"V{i}" for i in range(n_variables)]
    connected = [pool[0]]
    remaining = pool[1:]
    atoms: List[Tuple[str, Tuple[str, ...]]] = []
    seen: Set[Tuple[str, ...]] = set()
    while len(atoms) < n_atoms:
        arity = rng.randrange(2, max_arity + 1)
        terms = [rng.choice(connected)]
        for _ in range(arity - 1):
            if remaining and rng.random() < 0.5:
                fresh = remaining.pop(rng.randrange(len(remaining)))
                connected.append(fresh)
                terms.append(fresh)
            else:
                terms.append(rng.choice(connected))
        if tuple(terms) in seen:
            continue
        seen.add(tuple(terms))
        atoms.append((f"r{len(atoms)}", tuple(terms)))
    used = sorted({t for _, terms in atoms for t in terms})
    free = tuple(sorted(rng.sample(used, rng.randrange(0, len(used) + 1))))
    return Shape("random", tuple(atoms), free)


def random_rows(rng: random.Random, arity: int, n_rows: int,
                domain: int) -> List[Row]:
    """*n_rows* distinct random rows over ``range(domain)``."""
    rows: Set[Row] = set()
    while len(rows) < n_rows:
        rows.add(tuple(rng.randrange(domain) for _ in range(arity)))
    return sorted(rows)


def relations_for(rng: random.Random, shape: Shape, n_rows: int,
                  domain: int) -> Dict[str, List[Row]]:
    return {symbol: random_rows(rng, arity, n_rows, domain)
            for symbol, arity in shape.arities().items()}


# ----------------------------------------------------------------------
# Graphs: random digraphs of (nearly) fixed degree
# ----------------------------------------------------------------------
def regular_edges(rng: random.Random, n_nodes: int, degree: int) -> List[Row]:
    """A random directed graph as the union of *degree* random
    permutations of the nodes (self-loops and repeats dropped): every
    node has in- and out-degree at most *degree*, nearly always exactly.

    Unlike ``G(n, p)``, whose degrees vary from seed to seed, every seed
    gives the counting work about the same size.
    """
    edges: Set[Row] = set()
    nodes = list(range(n_nodes))
    for _ in range(degree):
        rng.shuffle(nodes)
        edges.update((i, j) for i, j in enumerate(nodes) if i != j)
    return sorted(edges)


#: Graph shapes over one edge relation ``e``.
GRAPH_SHAPES = {
    "star": parse_shape("star", "C | e(C,X) e(C,Y) e(C,Z)"),
    "path2": parse_shape("path2", "A,B,C | e(A,B) e(B,C)"),
    "path2q": parse_shape("path2q", "A | e(A,B) e(B,C)"),
    "triangle": parse_shape("triangle", "A,B,C | e(A,B) e(B,C) e(C,A)"),
    "cycle4": parse_shape("cycle4", "A | e(A,B) e(B,C) e(C,D) e(D,A)"),
    "path3": parse_shape("path3", "A,D | e(A,B) e(B,C) e(C,D)"),
}

#: The heavy triangle of the deadline benchmark, over its own relation.
HEAVY_TRIANGLE = parse_shape("heavy", "A,B,C | h(A,B) h(B,C) h(C,A)")


# ----------------------------------------------------------------------
# Session streams: maintainable (Theorem 3.7) shapes plus updates
# ----------------------------------------------------------------------
#: Bounded-#htw shapes the maintained path serves through the
#: reduction: quantified acyclic shapes and quantifier-free cyclic ones.
SESSION_SHAPES = (
    parse_shape("qpath", "A,C | r0(A,B) r1(B,C)"),
    parse_shape("qstar", "A,B | r0(A,B) r1(B,C) r2(A,D)"),
    parse_shape("triangle", "A,B,C | r0(A,B) r1(B,C) r2(C,A)"),
    parse_shape("triangle_tail", "A,B,C,D | r0(A,B) r1(B,C) r2(C,A) r3(A,D)"),
    parse_shape("qtail", "A,B | r0(A,B) r1(B,C) r2(C,D)"),
    parse_shape("qfork", "B | r0(A,B) r1(B,C) r2(B,D)"),
)


class UpdateSource:
    """Valid single-tuple updates for one database, from a shadow copy.

    Keeps the benchmark's own copy of each relation's rows so every
    generated insert is of an absent row and every delete of a present
    one: no update in a stream fails validation.
    """

    def __init__(self, relations: Dict[str, Sequence[Row]], domain: int):
        self.domain = domain
        self.symbols = sorted(relations)
        self.rows = {s: list(rows) for s, rows in relations.items()}
        self.present = {s: set(rows) for s, rows in relations.items()}
        self.arity = {s: len(rows[0]) for s, rows in relations.items()}

    def next(self, rng: random.Random) -> Tuple[str, str, Row]:
        """``(op, relation, row)`` with op ``"insert"`` or ``"delete"``."""
        symbol = rng.choice(self.symbols)
        rows, present = self.rows[symbol], self.present[symbol]
        full = len(rows) >= self.domain ** self.arity[symbol]
        if rows and (full or rng.random() < 0.5):
            index = rng.randrange(len(rows))
            row = rows[index]
            rows[index] = rows[-1]
            rows.pop()
            present.discard(row)
            return "delete", symbol, row
        while True:
            row = tuple(rng.randrange(self.domain)
                        for _ in range(self.arity[symbol]))
            if row not in present:
                rows.append(row)
                present.add(row)
                return "insert", symbol, row
