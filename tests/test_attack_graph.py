"""Unit and property tests for the attack graph (Section 4.1)."""

import random

import pytest

from repro.core.attack_graph import (
    AttackGraph,
    attack_graph,
    attack_witness,
    attacked_from,
    attacked_variables,
    attacks_atom,
    attacks_variable,
    cooccurrence_graph,
)
from repro.core.classify import classify
from repro.core.terms import Constant, Variable
from repro.cqa.certain_answers import OpenQuery
from repro.workloads.generators import QueryParams, random_query
from repro.workloads.queries import (
    poll_q1,
    poll_q2,
    poll_qa,
    poll_qb,
    q0,
    q1,
    q2,
    q2_example41,
    q3,
    q_hall,
)

x, y, z = Variable("x"), Variable("y"), Variable("z")


def edge_names(graph: AttackGraph):
    return sorted((f.relation, g.relation) for f, g in graph.edges)


class TestPaperExamples:
    def test_example41_edges(self):
        """Example 4.1: exactly R->S, S->R, R->P, S->P."""
        g = AttackGraph(q2_example41())
        assert edge_names(g) == [("R", "P"), ("R", "S"), ("S", "P"), ("S", "R")]

    def test_example42_edges(self):
        """Example 4.2: exactly N->P."""
        g = AttackGraph(q3())
        assert edge_names(g) == [("N", "P")]

    def test_example42_witness(self):
        """Example 4.2: (y, x) is a witness for N|y ~> x."""
        q = q3()
        w = attack_witness(q, q.atom_for("N"), x)
        assert w == (y, x)

    def test_example42_p_does_not_attack_n(self):
        q = q3()
        assert not attacks_atom(q, q.atom_for("P"), q.atom_for("N"))

    def test_q0_two_cycle(self):
        g = AttackGraph(q0())
        assert edge_names(g) == [("R", "S"), ("S", "R")]

    def test_q1_two_cycle(self):
        g = AttackGraph(q1())
        assert edge_names(g) == [("R", "S"), ("S", "R")]

    def test_q2_cycle_between_negated_atoms(self):
        g = AttackGraph(q2())
        names = edge_names(g)
        assert ("S", "T") in names and ("T", "S") in names

    def test_poll_qa_single_attack(self):
        """Example 4.6: one attack, Lives -> Likes."""
        assert edge_names(AttackGraph(poll_qa())) == [("Lives", "Likes")]

    def test_poll_qb_two_attacks_into_likes(self):
        """Example 4.6: Born -> Likes and Lives -> Likes."""
        assert edge_names(AttackGraph(poll_qb())) == [
            ("Born", "Likes"), ("Lives", "Likes")]

    def test_poll_q1_cyclic(self):
        assert not AttackGraph(poll_q1()).is_acyclic

    def test_poll_q2_cyclic(self):
        assert not AttackGraph(poll_q2()).is_acyclic

    def test_q_hall_acyclic_all_sizes(self):
        for ell in range(0, 5):
            assert AttackGraph(q_hall(ell)).is_acyclic


class TestVariableAttacks:
    def test_attack_includes_own_variables(self):
        # N|y ~> y in q3 (length-zero witness).
        q = q3()
        assert attacks_variable(q, q.atom_for("N"), y)

    def test_no_attack_into_oplus(self):
        q = q3()
        assert not attacks_variable(q, q.atom_for("P"), x)

    def test_attacked_from_subset_of_attacked(self):
        q = q2_example41()
        for a in q.atoms:
            union = frozenset()
            for v in a.vars:
                union |= attacked_from(q, a, v)
            assert union == attacked_variables(q, a)

    def test_attacked_from_requires_membership(self):
        q = q3()
        with pytest.raises(ValueError):
            attacked_from(q, q.atom_for("N"), x)

    def test_witness_none_when_no_attack(self):
        q = q3()
        assert attack_witness(q, q.atom_for("P"), x) is None

    def test_witness_validity(self):
        """Any returned witness satisfies the three defining conditions."""
        from repro.core.fds import oplus

        for q in (q1(), q2(), q2_example41(), poll_qa()):
            adj = cooccurrence_graph(q)
            for a in q.atoms:
                forbidden = oplus(q, a)
                for target in attacked_variables(q, a):
                    w = attack_witness(q, a, target)
                    assert w is not None
                    assert w[0] in a.vars and w[-1] == target
                    assert all(v not in forbidden for v in w)
                    for i in range(len(w) - 1):
                        assert w[i + 1] in adj[w[i]]


class TestGraphStructure:
    def test_all_key_atoms_have_zero_outdegree(self):
        for q in (q2_example41(), q2(), poll_qa(), poll_qb()):
            g = AttackGraph(q)
            for a in q.atoms:
                if a.is_all_key:
                    assert g.successors(a) == ()

    def test_no_self_loops(self):
        for q in (q0(), q1(), q2(), q3(), q_hall(3)):
            for f, g in AttackGraph(q).edges:
                assert f != g

    def test_find_cycle_consistency(self):
        for q in (q0(), q1(), q2(), q3(), poll_qa(), poll_q2()):
            g = AttackGraph(q)
            cycle = g.find_cycle()
            assert (cycle is None) == g.is_acyclic
            if cycle is not None:
                edges = set(g.edges)
                for i, a in enumerate(cycle):
                    assert (a, cycle[(i + 1) % len(cycle)]) in edges

    def test_two_cycle_detection(self):
        assert AttackGraph(q1()).find_two_cycle() is not None
        assert AttackGraph(q3()).find_two_cycle() is None

    def test_unattacked_atoms(self):
        g = AttackGraph(q3())
        assert [a.relation for a in g.unattacked_atoms()] == ["N"]

    def test_unattacked_variables(self):
        # In q3, N attacks x and y; nothing else attacks.
        g = AttackGraph(q3())
        assert g.unattacked_variables() == frozenset()

    def test_predecessors_successors(self):
        q = q3()
        g = AttackGraph(q)
        n, p = q.atom_for("N"), q.atom_for("P")
        assert g.successors(n) == (p,)
        assert g.predecessors(p) == (n,)
        assert g.has_edge(n, p)
        assert not g.has_edge(p, n)


class TestLemma49Property:
    """Lemma 4.9: for weakly-guarded q, F~>G~>H implies F~>H or G~>F.
    Consequence: cyclic implies a 2-cycle exists."""

    def test_transitivity_like_property_on_random_queries(self):
        rng = random.Random(11)
        for _ in range(40):
            q = random_query(QueryParams(n_positive=2, n_negative=2,
                                         n_variables=4), rng)
            g = AttackGraph(q)
            edges = set(g.edges)
            for f, gg in edges:
                for gg2, h in edges:
                    if gg2 == gg and f != h:
                        assert (f, h) in edges or (gg, f) in edges, (
                            f"Lemma 4.9 violated on {q}"
                        )

    def test_cyclic_implies_two_cycle_on_random_queries(self):
        rng = random.Random(13)
        found_cyclic = 0
        for _ in range(120):
            q = random_query(QueryParams(n_positive=2, n_negative=2,
                                         n_variables=3), rng)
            g = AttackGraph(q)
            if not g.is_acyclic:
                found_cyclic += 1
                assert g.find_two_cycle() is not None
        assert found_cyclic > 0, "generator never produced a cyclic query"


class TestConstantsInAtoms:
    def test_constant_only_key_never_attacked(self):
        q = q3()
        g = AttackGraph(q)
        assert g.predecessors(q.atom_for("N")) == ()

    def test_lemma_610_attack_preservation(self):
        """Substituting a constant can only remove attacks."""
        rng = random.Random(17)
        for _ in range(30):
            q = random_query(QueryParams(n_positive=2, n_negative=1,
                                         n_variables=3), rng)
            if not q.vars:
                continue
            v = sorted(q.vars)[0]
            sub = q.substitute({v: Constant("c99")})
            edges_before = {
                (f.relation, g_.relation) for f, g_ in AttackGraph(q).edges
            }
            edges_after = {
                (f.relation, g_.relation) for f, g_ in AttackGraph(sub).edges
            }
            assert edges_after <= edges_before

    def test_lemma_610_weak_guardedness_preserved(self):
        rng = random.Random(19)
        for _ in range(30):
            q = random_query(QueryParams(n_positive=2, n_negative=2,
                                         n_variables=4), rng)
            if not q.vars:
                continue
            v = sorted(q.vars)[0]
            assert q.substitute({v: Constant("c99")}).has_weakly_guarded_negation


# ----------------------------------------------------------------------
# Oracle: the one-pass shared graph against Section 4.1, recomputed per
# atom straight from the definitions.
# ----------------------------------------------------------------------


def ref_closure(q, f):
    """F^{+,q}: key(F) closed under K(q+ \\ {F}) by the naive fixpoint."""
    fds = [(p.key_vars, p.vars) for p in q.positives if p != f]
    closed = set(f.key_vars)
    changed = True
    while changed:
        changed = False
        for lhs, rhs in fds:
            if lhs <= closed and not rhs <= closed:
                closed |= rhs
                changed = True
    return frozenset(closed)


def ref_attacked_from(q, f, u):
    """All w with F|u ~> w: walk co-occurrence in q+ outside F^{+,q}."""
    forbidden = ref_closure(q, f)
    if u in forbidden:
        return frozenset()
    reached, todo = {u}, [u]
    while todo:
        v = todo.pop()
        for p in q.positives:
            if v in p.vars:
                for w in p.vars - forbidden - reached:
                    reached.add(w)
                    todo.append(w)
    return frozenset(reached)


def ref_attacked(q, f):
    out = frozenset()
    for u in f.vars:
        out |= ref_attacked_from(q, f, u)
    return out


def ref_edges(q):
    attacked = {f: ref_attacked(q, f) for f in q.atoms}
    return {(f, g) for f in q.atoms for g in q.atoms
            if f != g and attacked[f] & g.key_vars}


def ref_acyclic(atoms, edges):
    """Kahn's algorithm: acyclic iff every atom can be removed."""
    indegree = {a: sum(1 for _, g in edges if g == a) for a in atoms}
    ready = [a for a in atoms if indegree[a] == 0]
    removed = 0
    while ready:
        a = ready.pop()
        removed += 1
        for f, g in edges:
            if f == a:
                indegree[g] -= 1
                if indegree[g] == 0:
                    ready.append(g)
    return removed == len(atoms)


def ref_weakly_guarded(q):
    """Every pair of variables of a negated atom (or disequality)
    co-occurs in some positive atom."""
    for vs in [n.vars for n in q.negatives] + [d.vars for d in q.diseqs]:
        for u in vs:
            for w in vs:
                if not any(u in p.vars and w in p.vars for p in q.positives):
                    return False
    return True


def oracle_queries():
    """Named queries, their groundings, and random draws that force
    constants and repeated variables."""
    named = [q0(), q1(), q2(), q2_example41(), q3(), poll_qa(), poll_qb(),
             poll_q1(), poll_q2(), q_hall(2), q_hall(3)]
    queries = list(named)
    for q in named:
        for v in sorted(q.vars)[:2]:
            queries.append(OpenQuery(q, (v,)).boolean_form)
    grid = [
        QueryParams(constant_probability=0.3),
        QueryParams(n_variables=2, max_arity=3),
        QueryParams(n_variables=2, max_arity=3, constant_probability=0.3),
        QueryParams(n_positive=2, n_negative=2, n_variables=3,
                    constant_probability=0.3, require_weakly_guarded=False),
    ]
    rng = random.Random(20180611)
    for params in grid:
        queries += [random_query(params, rng) for _ in range(40)]
    return queries


class TestOracle:
    QUERIES = oracle_queries()

    def test_grid_hits_constants_and_repeated_variables(self):
        terms = [a.terms for q in self.QUERIES for a in q.atoms]
        assert any(any(isinstance(t, Constant) for t in ts) for ts in terms)
        assert any(len(set(ts)) < len(ts) for ts in terms)
        assert not all(q.has_weakly_guarded_negation for q in self.QUERIES)

    def test_edges_match_definition(self):
        for q in self.QUERIES:
            graph = attack_graph(q)
            assert len(set(graph.edges)) == len(graph.edges), q
            assert set(graph.edges) == ref_edges(q), q
            assert set(AttackGraph(q).edges) == set(graph.edges), q

    def test_attacked_sets_match_definition(self):
        for q in self.QUERIES:
            graph = attack_graph(q)
            for a in q.atoms:
                assert graph.attacked_vars(a) == ref_attacked(q, a), (q, a)
                assert attacked_variables(q, a) == ref_attacked(q, a), (q, a)
                for u in a.vars:
                    assert (attacked_from(q, a, u)
                            == ref_attacked_from(q, a, u)), (q, a, u)

    def test_witnesses_are_valid(self):
        for q in self.QUERIES:
            adj = cooccurrence_graph(q)
            for a in q.atoms:
                forbidden = ref_closure(q, a)
                attacked = ref_attacked(q, a)
                for target in q.vars:
                    w = attack_witness(q, a, target)
                    if target not in attacked:
                        assert w is None, (q, a, target)
                        continue
                    assert w[0] in a.vars and w[-1] == target
                    assert not set(w) & forbidden
                    for u, v in zip(w, w[1:]):
                        assert v in adj[u]
                        assert any(u in p.vars and v in p.vars
                                   for p in q.positives)

    def test_classify_matches_reference_verdict(self):
        for q in self.QUERIES:
            acyclic = ref_acyclic(q.atoms, ref_edges(q))
            expected = acyclic and ref_weakly_guarded(q)
            assert classify(q).in_fo == expected, q
            assert classify(q).acyclic == acyclic, q

    def test_shared_graph_is_reused(self):
        q = poll_qa()
        assert attack_graph(q) is attack_graph(poll_qa())
        assert attack_graph.cache_info().maxsize <= 512
