"""The dependency graph: one pass over ``(component, rule)`` pairs.

Every graph question the analyses ask is answered here: the static
analyzer's predicate dependency graph (:func:`repro.analysis.static.
build_pdg`), Section 4's view classification, classical stratification
(:func:`repro.classical.stratified.stratification`), local
stratification of ground views, and the SCC order of the abstract
fixpoint.  The caller picks the node key, a function of a literal:

* the predicate signature ``(name, arity)`` (the default);
* the ground atom itself, for local stratification;
* the signed signature ``(name, arity, positive)``, for the abstract
  analysis.

An edge runs from a body literal's key to its rule's head key and is
positive or negative with the body literal.  A key headed positively in
one component and negatively in another (or the same) is a
*contradiction*.  Between comparable components the order resolves it
by overruling (Figure 1); between equal or incomparable ones the two
rules can defeat each other (Figure 2), a nonmonotonic loop that breaks
stratification.

Derived values are computed once, when first read.  Tarjan's algorithm
visits keys and successors in the order the rules first mention them,
so the SCC list does not depend on the hash seed.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable, Generic, Hashable, Iterable, Iterator, Mapping, Optional, TypeVar

from ..lang.literals import Literal
from ..lang.poset import PartialOrder
from ..lang.rules import Rule

__all__ = [
    "EdgeKind",
    "OrderRelation",
    "relation_between",
    "PDGNode",
    "PDGEdge",
    "PredicateDependencyGraph",
    "strongly_connected_components",
]

K = TypeVar("K", bound=Hashable)
Signature = tuple[str, int]


class EdgeKind(enum.Enum):
    """Polarity of a PDG edge."""

    POSITIVE = "positive"  # positive body literal -> head
    BLOCKING = "blocking"  # negative body literal -> head
    CONTRADICTION = "contradiction"  # positive head vs negative head

    def __str__(self) -> str:
        return self.value


class OrderRelation(enum.Enum):
    """How the source component of an edge relates to the target
    component in the program order (lower = more specific)."""

    BELOW = "below"
    ABOVE = "above"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"

    def __str__(self) -> str:
        return self.value


#: The relations under which a contradiction is left to defeat.
UNRESOLVED = (OrderRelation.EQUAL, OrderRelation.INCOMPARABLE)


def relation_between(order: Optional[PartialOrder], a: str, b: str) -> OrderRelation:
    """The order relation of component ``a`` relative to component ``b``."""
    if a == b:
        return OrderRelation.EQUAL
    if order.less(a, b):
        return OrderRelation.BELOW
    if order.less(b, a):
        return OrderRelation.ABOVE
    return OrderRelation.INCOMPARABLE


@dataclass(frozen=True)
class PDGNode:
    """A predicate signature with its defining and using components."""

    signature: Signature
    positive_components: frozenset[str]  # components heading it positively
    negative_components: frozenset[str]  # components heading it negatively
    using_components: frozenset[str]  # components with a body occurrence

    @property
    def defining_components(self) -> frozenset[str]:
        return self.positive_components | self.negative_components

    @property
    def contradicted(self) -> bool:
        """True when the predicate is headed with both signs somewhere."""
        return bool(self.positive_components and self.negative_components)

    @property
    def name(self) -> str:
        return f"{self.signature[0]}/{self.signature[1]}"


@dataclass(frozen=True)
class PDGEdge:
    """A dependency or contradiction between two keys.

    For body edges the source is the body key (one edge per defining
    component of it), the target is the head key, and ``relation``
    relates the defining component to the rule's component.  For
    contradiction edges source and target are the same key;
    ``source_component`` heads it positively, ``target_component``
    negatively, and ``relation`` relates the two.
    """

    kind: EdgeKind
    source: Signature
    target: Signature
    source_component: str
    target_component: str
    relation: OrderRelation


def signature_of(literal: Literal) -> Signature:
    """``literal.signature`` in one call: the default key, read per
    literal."""
    atom = literal.atom
    return (atom.predicate, len(atom.args))


class PredicateDependencyGraph(Generic[K]):
    """The dependency graph of ``(component, rule)`` pairs.

    Args:
        tagged: the rules, each with the name of its component.
        order: the component order; needed only when the rules span
            more than one component.
        key: the node key of a literal (module docstring).
    """

    def __init__(
        self,
        tagged: Iterable[tuple[str, Rule]],
        order: Optional[PartialOrder] = None,
        key: Callable[[Literal], K] = signature_of,  # type: ignore[assignment]
    ) -> None:
        self.order = order
        self.key = key
        self.rules = tuple(tagged)
        positive_heads: defaultdict[K, set[str]] = defaultdict(set)
        negative_heads: defaultdict[K, set[str]] = defaultdict(set)
        users: defaultdict[K, set[str]] = defaultdict(set)
        positive: dict[tuple[K, K], None] = {}  # insertion-ordered sets
        negative: dict[tuple[K, K], None] = {}
        for comp, r in self.rules:
            head = key(r.head)
            (positive_heads if r.head.positive else negative_heads)[head].add(comp)
            users[head]  # every head is a node
            for l in r.body:
                if isinstance(l, Literal):
                    body = key(l)
                    users[body].add(comp)
                    (positive if l.positive else negative)[body, head] = None
        #: Components heading each key, by the head's sign.
        self.positive_heads = dict(positive_heads)
        self.negative_heads = dict(negative_heads)
        #: Components using each key in a body; its keys are every node,
        #: in the order the rules first mention them.
        self.users = dict(users)
        self.positive_edges = tuple(positive)
        self.negative_edges = tuple(negative)

    @cached_property
    def nodes(self) -> Mapping[K, PDGNode]:
        """One :class:`PDGNode` per key."""
        none: frozenset[str] = frozenset()
        return {
            k: PDGNode(
                k,  # type: ignore[arg-type]
                frozenset(self.positive_heads.get(k, none)),
                frozenset(self.negative_heads.get(k, none)),
                frozenset(users),
            )
            for k, users in self.users.items()
        }

    def dependency_edges(self) -> frozenset[PDGEdge]:
        """One edge per body literal and defining component of its key;
        a key headed nowhere keeps one edge relative to the rule's own
        component.  Derived on each call."""
        edges = set()
        heads = (self.positive_heads, self.negative_heads)
        for comp, r in self.rules:
            head = self.key(r.head)
            for l in r.body_literals():
                body = self.key(l)
                kind = EdgeKind.POSITIVE if l.positive else EdgeKind.BLOCKING
                definers = {c for by_sign in heads for c in by_sign.get(body, ())}
                for definer in definers or (comp,):
                    relation = relation_between(self.order, definer, comp)
                    edges.add(PDGEdge(kind, body, head, definer, comp, relation))
        return frozenset(edges)

    def contradiction_edges(self) -> frozenset[PDGEdge]:
        """One edge per (positive, negative) heading component pair."""
        return frozenset(
            PDGEdge(EdgeKind.CONTRADICTION, k, k, cp, cn, relation_between(self.order, cp, cn))
            for k, negative in self.negative_heads.items()
            for cp in self.positive_heads.get(k, ())
            for cn in negative
        )

    @cached_property
    def unresolved(self) -> frozenset[tuple[K, str, str]]:
        """The contradictions the order leaves to defeat, as ``(key,
        positive component, negative component)``."""
        return frozenset(
            (e.source, e.source_component, e.target_component)
            for e in self.contradiction_edges()
            if e.relation in UNRESOLVED
        )

    @cached_property
    def sccs(self) -> tuple[frozenset[K], ...]:
        """Strongly connected components over the positive and negative
        edges, in reverse topological order: a head's SCC comes before
        the SCCs of its body keys."""
        successors: dict[K, list[K]] = {k: [] for k in self.users}
        for body, head in chain(self.positive_edges, self.negative_edges):
            successors[body].append(head)
        return tuple(strongly_connected_components(successors))

    @cached_property
    def scc_index(self) -> Mapping[K, int]:
        return {k: i for i, scc in enumerate(self.sccs) for k in scc}

    @cached_property
    def recursive(self) -> frozenset[K]:
        """Keys on a dependency cycle, self-recursion included."""
        index = self.scc_index
        loops = {
            body
            for body, head in chain(self.positive_edges, self.negative_edges)
            if index[body] == index[head]
        }
        return frozenset(loops).union(*(scc for scc in self.sccs if len(scc) > 1))

    def condensation(self) -> frozenset[tuple[int, int]]:
        """Edges between SCC indices."""
        index = self.scc_index
        return frozenset(
            (index[body], index[head])
            for body, head in chain(self.positive_edges, self.negative_edges)
            if index[body] != index[head]
        )

    @cached_property
    def stratified(self) -> bool:
        """No dependency cycle through a negative edge, and no
        contradiction left to defeat."""
        index = self.scc_index
        return not self.unresolved and all(
            index[body] != index[head] for body, head in self.negative_edges
        )

    @cached_property
    def strata(self) -> Optional[Mapping[K, int]]:
        """A stratum per key, or None when not :attr:`stratified`.

        Positive edges stay within or climb to the head's stratum;
        negative edges climb strictly.  The layering is the longest path
        over the condensation: an edge runs from a higher SCC index to a
        lower one, so relaxing edges by falling source index settles
        every SCC before it is read.
        """
        if not self.stratified:
            return None
        index = self.scc_index
        steps = [(index[b], index[h], 0) for b, h in self.positive_edges]
        steps += [(index[b], index[h], 1) for b, h in self.negative_edges]
        level = [0] * len(self.sccs)
        for source, target, step in sorted(steps, reverse=True):
            level[target] = max(level[target], level[source] + step)
        return {k: level[index[k]] for k in self.users}


def strongly_connected_components(successors: Mapping[K, list[K]]) -> list[frozenset[K]]:
    """Tarjan's algorithm, iterative to avoid recursion limits.  Returns
    SCCs in reverse topological order (sinks first), visiting roots and
    children in the mapping's and the lists' order."""
    indices: dict[K, int] = {}
    lowlinks: dict[K, int] = {}
    stack: list[K] = []
    on_stack: set[K] = set()
    work: list[tuple[K, Iterator[K], int]] = []  # node, children, stack position
    result: list[frozenset[K]] = []

    def push(node: K) -> None:
        indices[node] = lowlinks[node] = len(indices)
        work.append((node, iter(successors[node]), len(stack)))
        stack.append(node)
        on_stack.add(node)

    for root in successors:
        if root not in indices:
            push(root)
        while work:
            node, children, position = work[-1]
            for child in children:
                if child not in indices:
                    push(child)
                    break
                if child in on_stack:
                    lowlinks[node] = min(lowlinks[node], indices[child])
            else:
                work.pop()
                if lowlinks[node] == indices[node]:
                    component = frozenset(stack[position:])
                    del stack[position:]
                    on_stack -= component
                    result.append(component)
                if work:
                    parent = work[-1][0]
                    lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
    return result
