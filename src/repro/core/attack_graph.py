"""The attack graph of a query (Section 4.1).

Attacks between variables: for an atom F and variables u ∈ vars(F),
w ∈ vars(q), we write ``F|u ⇝ w`` when there is a sequence
``u_0, ..., u_l`` of variables with u_0 = u, u_l = w, consecutive
variables co-occurring in a positive atom, and no variable of the
sequence belonging to F^{+,q}.

Attacks between atoms: F attacks G (``F ⇝ G``) when F attacks some
variable of key(G).  The attack graph has vertex set q⁺ ∪ q⁻ and an edge
for every attack between distinct atoms.

One graph per query.  :class:`AttackGraph` does the whole analysis in
one pass: one co-occurrence adjacency and one list of dependencies
K(q⁺) per query, key(F) and vars(F) read once per atom, F^{+,q} as the
closure of key(F) under the other positive atoms' dependencies, and one
breadth-first search per atom.  :func:`attack_graph` shares the graph
of a query among everything that asks about it: the classifier of
Theorem 4.3, Algorithm 1's pick of an unattacked atom, the lint rules,
and the single-atom helpers :func:`attacked_variables`,
:func:`attacked_from` and :func:`attack_witness`, which read its
adjacency and closures instead of rebuilding them.

Disequality constraints behave like negated fresh *all-key* atoms
(Lemma 6.6); all-key atoms have no outgoing attacks, so disequalities can
never contribute an edge, let alone a cycle, and are ignored here.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from .atoms import Atom
from .fds import FD, closure
from .query import Query
from .terms import Variable


def _cooccurrence(
    query: Query, positive_vars: Iterable[FrozenSet[Variable]]
) -> Dict[Variable, Set[Variable]]:
    adj: Dict[Variable, Set[Variable]] = {v: set() for v in query.vars}
    for vs in positive_vars:
        for x in vs:
            adj[x] |= vs
    return adj


def cooccurrence_graph(query: Query) -> Dict[Variable, frozenset]:
    """Adjacency map: x ~ y iff x and y co-occur in some positive atom.

    Every variable is adjacent to itself (witnesses of length zero are
    allowed by the definition).
    """
    adj = _cooccurrence(query, (p.vars for p in query.positives))
    return {v: frozenset(neighbours) for v, neighbours in adj.items()}


def _reach(
    adj: Mapping[Variable, Iterable[Variable]],
    start: Iterable[Variable],
    forbidden: FrozenSet[Variable],
) -> Dict[Variable, Optional[Variable]]:
    """Breadth-first search over co-occurrence from *start* (which must
    avoid *forbidden*), never entering *forbidden*: every variable
    reached, mapped to the variable it was first reached from (``None``
    for a start variable)."""
    parents: Dict[Variable, Optional[Variable]] = dict.fromkeys(start)
    frontier = deque(parents)
    while frontier:
        u = frontier.popleft()
        for w in adj.get(u, ()):
            if w not in parents and w not in forbidden:
                parents[w] = u
                frontier.append(w)
    return parents


def attacked_variables(query: Query, atom_obj: Atom) -> FrozenSet[Variable]:
    """All w with F ⇝ w: the attacked set of F in the query's graph.

    A witness must avoid F^{+,q} entirely (including its first element),
    so the search starts only from the atom's own variables outside the
    closure and never enters it.
    """
    return attack_graph(query).attacked_vars(atom_obj)


def attacked_from(
    query: Query, atom_obj: Atom, source: Variable
) -> FrozenSet[Variable]:
    """All w with F|source ⇝ w: reachability from one variable of F.

    The reduction gadgets of Lemmas 5.6/5.7 and Proposition 7.2 need the
    single-source attack relation, not just its union over vars(F).
    """
    if source not in atom_obj.vars:
        raise ValueError(f"{source} does not occur in {atom_obj!r}")
    graph = attack_graph(query)
    forbidden = graph._closure[atom_obj]
    if source in forbidden:
        return frozenset()
    return frozenset(_reach(graph._adj, (source,), forbidden))


def attack_witness(
    query: Query, atom_obj: Atom, target: Variable
) -> Optional[Tuple[Variable, ...]]:
    """A witness sequence for F ⇝ target, or None if F does not attack it.

    The returned sequence (u_0, ..., u_l) satisfies the three conditions
    of Section 4.1 and is produced by shortest-path BFS, so it is a
    minimum-length witness; the search visits variables in name order,
    so the witness does not depend on set iteration order.
    """
    graph = attack_graph(query)
    forbidden = graph._closure[atom_obj]
    ordered = {v: sorted(neighbours) for v, neighbours in graph._adj.items()}
    start = sorted(u for u in atom_obj.vars if u not in forbidden)
    parents = _reach(ordered, start, forbidden)
    if target not in parents:
        return None
    path = [target]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    return tuple(reversed(path))


def attacks_variable(query: Query, atom_obj: Atom, var: Variable) -> bool:
    """F ⇝ var?"""
    return var in attacked_variables(query, atom_obj)


def attacks_atom(query: Query, f: Atom, g: Atom) -> bool:
    """F ⇝ G: F attacks some variable of key(G) (and F ≠ G)."""
    if f == g:
        return False
    return bool(attacked_variables(query, f) & g.key_vars)


class AttackGraph:
    """The attack graph of a query, with cycle diagnostics.

    Vertices are the atoms of q⁺ ∪ q⁻; edges are atom attacks.  The
    variable-level attack sets are exposed via :meth:`attacked_vars` for
    reuse by the classifier and the reduction gadgets.
    """

    def __init__(self, query: Query):
        self.query = query
        atoms = query.atoms
        n_positive = len(query.positives)
        key_vars = [a.key_vars for a in atoms]
        all_vars = [a.vars for a in atoms]
        self._adj = _cooccurrence(query, all_vars[:n_positive])
        fds = [FD(key_vars[i], all_vars[i]) for i in range(n_positive)]
        closures: List[FrozenSet[Variable]] = []
        attacked: List[FrozenSet[Variable]] = []
        for i in range(len(atoms)):
            # F^{+,q}: key(F) closed under K(q⁺ \ {F}).
            others = fds[:i] + fds[i + 1:] if i < n_positive else fds
            forbidden = closure(key_vars[i], others)
            start = [u for u in all_vars[i] if u not in forbidden]
            closures.append(forbidden)
            attacked.append(frozenset(_reach(self._adj, start, forbidden)))
        self._closure: Dict[Atom, FrozenSet[Variable]] = dict(zip(atoms, closures))
        self._attacked: Dict[Atom, FrozenSet[Variable]] = dict(zip(atoms, attacked))
        self.edges: Tuple[Tuple[Atom, Atom], ...] = tuple(
            (f, g)
            for i, f in enumerate(atoms)
            for j, g in enumerate(atoms)
            if i != j and not attacked[i].isdisjoint(key_vars[j])
        )
        self._edge_set = frozenset(self.edges)
        succ: Dict[Atom, List[Atom]] = {a: [] for a in atoms}
        pred: Dict[Atom, List[Atom]] = {a: [] for a in atoms}
        for f, g in self.edges:
            succ[f].append(g)
            pred[g].append(f)
        self._succ = {a: tuple(bs) for a, bs in succ.items()}
        self._pred = {a: tuple(fs) for a, fs in pred.items()}

    @property
    def atoms(self) -> Tuple[Atom, ...]:
        """The vertex set (q⁺ first, then q⁻, in query order)."""
        return self.query.atoms

    def attacked_vars(self, atom_obj: Atom) -> FrozenSet[Variable]:
        """The set of variables attacked by *atom_obj*."""
        return self._attacked[atom_obj]

    def successors(self, atom_obj: Atom) -> Tuple[Atom, ...]:
        """Atoms attacked by *atom_obj*."""
        return self._succ[atom_obj]

    def predecessors(self, atom_obj: Atom) -> Tuple[Atom, ...]:
        """Atoms attacking *atom_obj*."""
        return self._pred[atom_obj]

    def has_edge(self, f: Atom, g: Atom) -> bool:
        """Is there an attack F ⇝ G?"""
        return (f, g) in self._edge_set

    @property
    def is_acyclic(self) -> bool:
        """True when the attack graph contains no directed cycle."""
        return self.find_cycle() is None

    def find_cycle(self) -> Optional[Tuple[Atom, ...]]:
        """A directed cycle (v_0, ..., v_k, v_0-implied), or None.

        The returned tuple lists the atoms on the cycle; the edge from
        the last atom back to the first closes it.
        """
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {a: WHITE for a in self.query.atoms}
        stack: List[Atom] = []

        def dfs(a: Atom) -> Optional[Tuple[Atom, ...]]:
            color[a] = GRAY
            stack.append(a)
            for b in self._succ[a]:
                if color[b] == GRAY:
                    i = stack.index(b)
                    return tuple(stack[i:])
                if color[b] == WHITE:
                    found = dfs(b)
                    if found is not None:
                        return found
            stack.pop()
            color[a] = BLACK
            return None

        for a in self.query.atoms:
            if color[a] == WHITE:
                found = dfs(a)
                if found is not None:
                    return found
        return None

    def find_two_cycle(self) -> Optional[Tuple[Atom, Atom]]:
        """A cycle of length two, or None.

        By Lemma 4.9, when negation is weakly guarded a cyclic attack
        graph always contains a cycle of length two; the classifier
        relies on this to pick the right hardness lemma.
        """
        for f, g in self.edges:
            if (g, f) in self._edge_set:
                return (f, g)
        return None

    def unattacked_atoms(self) -> Tuple[Atom, ...]:
        """Atoms with no incoming attack edge."""
        return tuple(a for a in self.query.atoms if not self._pred[a])

    def unattacked_variables(self) -> FrozenSet[Variable]:
        """Variables attacked by no atom (exactly the reifiable ones
        under weakly-guarded negation, Cor. 6.9 + Prop. 7.2)."""
        attacked = set()
        for vs in self._attacked.values():
            attacked |= vs
        return frozenset(self.query.vars - attacked)

    def topological_order(self) -> Tuple[Atom, ...]:
        """A topological order of the atoms (raises when cyclic).

        Unattacked atoms come first; Algorithm 1 can eliminate atoms in
        this order.
        """
        if not self.is_acyclic:
            raise ValueError("the attack graph is cyclic")
        indegree = {a: len(self._pred[a]) for a in self.query.atoms}
        ready = [a for a in self.query.atoms if indegree[a] == 0]
        order: List[Atom] = []
        while ready:
            a = ready.pop(0)
            order.append(a)
            for b in self._succ[a]:
                indegree[b] -= 1
                if indegree[b] == 0:
                    ready.append(b)
        return tuple(order)

    def to_dot(self) -> str:
        """Graphviz DOT rendering: negated atoms drawn as boxes."""
        lines = ["digraph attack_graph {"]
        for a in self.query.atoms:
            shape = "box" if self.query.is_negative(a) else "ellipse"
            label = repr(a).replace('"', r"\"")
            lines.append(f'  "{a.relation}" [shape={shape}, label="{label}"];')
        for f, g in self.edges:
            lines.append(f'  "{f.relation}" -> "{g.relation}";')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        es = ", ".join(f"{f!r}->{g!r}" for f, g in self.edges)
        return f"AttackGraph(edges=[{es}])"


@lru_cache(maxsize=64)
def attack_graph(query: Query) -> AttackGraph:
    """The attack graph of *query*, built once and shared.

    Classification, Algorithm 1's pick of an unattacked atom and the
    lint rules all ask about the same query within one operation, so
    the reuse is short-range and a small LRU holds it.  The graph is
    never mutated after construction.
    """
    return AttackGraph(query)
