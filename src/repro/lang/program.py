"""Programs: components and ordered programs (Definition 1).

* :class:`Component` — a named *negative program*: a finite set of rules,
  possibly with negated heads.  It doubles as the representation of the
  paper's classical programs (a seminegative program is a component whose
  rules all have positive heads).
* :class:`OrderedProgram` — a finite partially ordered set of components.
  ``C_i < C_j`` means ``C_i`` is *more specific* than ``C_j``; every
  component sees its own rules as local rules and the rules of the
  components above it as global (inherited) rules.  ``C*`` (the rules a
  component sees) is :meth:`OrderedProgram.visible_rules`.

Both are immutable values.  A told or retracted ground fact yields a
*successor* program (Section 5's versioning reading):
:meth:`OrderedProgram.update_facts` is the one place that says what a
batch of fact writes does to ``<C,<>`` — which copies it adds or
removes and which of those change a component's ground facts — and the
:class:`FactUpdate` it returns says, per view, which of them change
``ground(C*)`` and when only re-grounding can tell.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .builtins import expr_leaf_terms
from .errors import SemanticsError
from .literals import Literal
from .poset import PartialOrder
from .rules import Rule
from .terms import Compound, Constant, Term, walk_terms

__all__ = ["ASSERT", "RETRACT", "Component", "FactUpdate", "OrderedProgram"]

#: Fact-write kinds understood by :meth:`OrderedProgram.update_facts`
#: (and, downstream, by the delta engine).
ASSERT = "assert"
RETRACT = "retract"


def _symbols_in(terms: Iterable[Term]) -> Iterator[object]:
    """Every occurrence of a symbol the Herbrand universe is built from:
    a :class:`Constant`, or ``(functor, arity)`` for a compound term."""
    for term in terms:
        for sub in walk_terms(term):
            if isinstance(sub, Constant):
                yield sub
            elif isinstance(sub, Compound):
                yield sub.functor, sub.arity


def _predicate_key(literal: Literal) -> tuple[str, int, str]:
    """A literal's predicate as a :class:`_FactLedger` symbol (the
    Herbrand base is built from the predicates); never equal to a
    function symbol's ``(functor, arity)``."""
    return (*literal.signature, "predicate")


def _bump(counter: dict, key: object, step: int) -> int:
    """Shift one count, dropping the entry at zero; returns the count."""
    count = counter.get(key, 0) + step
    if count:
        counter[key] = count
    else:
        del counter[key]
    return count


class _FactLedger(NamedTuple):
    """What :meth:`OrderedProgram.update_facts` needs to know about one
    component without walking its rules: derived once per component
    value, carried forward (patched) into each successor.

    Attributes:
        copies: told copies of each ground fact.
        symbols: occurrences of each constant and function symbol
            (:func:`_symbols_in`) and of each predicate
            (:func:`_predicate_key`) over all rules.
        open_heads: heads that may ground to a told fact's instance from
            another source — the ground head of a guard-only rule, or
            ``(positive, signature)`` of a non-ground bodyless rule.
            Fact writes never change it.
    """

    copies: dict[Literal, int]
    symbols: dict[object, int]
    open_heads: frozenset

    @classmethod
    def of(cls, comp: "Component") -> "_FactLedger":
        copies: dict[Literal, int] = {}
        open_heads = set()
        for r in comp.rules:
            if r.body_literals():
                continue
            head = r.head
            if not head.is_ground:
                open_heads.add((head.positive, head.atom.signature))
            elif r.body:  # guards only
                open_heads.add(head)
            else:
                _bump(copies, head, 1)
        symbols: dict[object, int] = {}
        for symbol in _symbols_in(comp._all_terms()):
            _bump(symbols, symbol, 1)
        for r in comp.rules:
            for item in (r.head, *r.body_literals()):
                _bump(symbols, _predicate_key(item), 1)
        return cls(copies, symbols, frozenset(open_heads))


class Component:
    """A named negative program — a finite sequence of rules.

    Rules keep their textual order (useful for printing) but compare as a
    multiset: two components with the same rules are equal.  Components
    are immutable; :meth:`extend` returns a new component.
    """

    __slots__ = ("name", "rules", "_ledger")

    def __init__(
        self,
        name: str,
        rules: Iterable[Rule] = (),
        _ledger: Optional[_FactLedger] = None,
    ) -> None:
        rules = tuple(rules)
        # ``_ledger`` marks a successor that update_facts assembled from
        # a validated component: nothing is re-checked or re-walked.
        if _ledger is None:
            if not name:
                raise ValueError("component name must be non-empty")
            for r in rules:
                if not isinstance(r, Rule):
                    raise TypeError(f"component rules must be Rule, got {r!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "_ledger", _ledger)

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Component is immutable")

    def _fact_ledger(self) -> _FactLedger:
        ledger = self._ledger
        if ledger is None:
            ledger = _FactLedger.of(self)
            object.__setattr__(self, "_ledger", ledger)
        return ledger

    # ------------------------------------------------------------------
    # Classification (paper Section 2)
    # ------------------------------------------------------------------
    @property
    def is_positive(self) -> bool:
        """True when every rule is a Horn clause."""
        return all(r.is_positive for r in self.rules)

    @property
    def is_seminegative(self) -> bool:
        """True when every rule has a positive head."""
        return all(r.is_seminegative for r in self.rules)

    @property
    def is_ground(self) -> bool:
        return all(r.is_ground for r in self.rules)

    # ------------------------------------------------------------------
    # Symbol inventories
    # ------------------------------------------------------------------
    def predicate_signatures(self) -> frozenset[tuple[str, int]]:
        """All ``(predicate, arity)`` pairs occurring in the component."""
        sigs = set()
        for r in self.rules:
            sigs.add(r.head.signature)
            for item in r.body_literals():
                sigs.add(item.signature)
        return frozenset(sigs)

    def symbols(self) -> Iterator[object]:
        """Every occurrence of a constant or ``(functor, arity)`` in the
        component's rules, guards included (:func:`_symbols_in`)."""
        return _symbols_in(self._all_terms())

    def constants(self) -> frozenset[Constant]:
        """All constants occurring in the component's rules."""
        return frozenset(s for s in self.symbols() if isinstance(s, Constant))

    def function_symbols(self) -> frozenset[tuple[str, int]]:
        """All ``(functor, arity)`` pairs occurring in the component."""
        return frozenset(s for s in self.symbols() if isinstance(s, tuple))

    def _all_terms(self) -> Iterator[Term]:
        for r in self.rules:
            yield from r.head.args
            for item in r.body_literals():
                yield from item.args
            # Guard constants (``X > 11``) occur in the program, so they
            # belong to the Herbrand universe.
            for guard in r.guards():
                yield from expr_leaf_terms(guard.left)
                yield from expr_leaf_terms(guard.right)

    def head_literals(self) -> frozenset[Literal]:
        """The set of (possibly non-ground) head literals."""
        return frozenset(r.head for r in self.rules)

    # ------------------------------------------------------------------
    # Manipulation
    # ------------------------------------------------------------------
    def extend(self, extra: Iterable[Rule], name: Union[str, None] = None) -> "Component":
        """A new component with ``extra`` rules appended."""
        return Component(name or self.name, self.rules + tuple(extra))

    def renamed(self, name: str) -> "Component":
        return Component(name, self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __contains__(self, r: object) -> bool:
        return r in self.rules

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Component)
            and other.name == self.name
            and frozenset(other.rules) == frozenset(self.rules)
        )

    def __hash__(self) -> int:
        return hash(("component", self.name, frozenset(self.rules)))

    def __str__(self) -> str:
        body = "\n".join(f"  {r}" for r in self.rules)
        return f"component {self.name} {{\n{body}\n}}"

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"Component({self.name!r}, {len(self.rules)} rules)"


class FactUpdate(NamedTuple):
    """What a batch of ground-fact writes does to an ordered program,
    said once for every view; each view that sees a written component
    reads its own verdict off it (:meth:`seen_from`).

    Attributes:
        program: the successor ``<C',<>``.  Untouched components and the
            order are the predecessor's objects — a fact write never
            changes ``<``.
        ops: the batch, as given.
        changes: the writes that change the *deduplicated* ground fact
            set of their component (the grounder collapses identical
            instances per component, so only a fact's first copy in and
            last copy out count), in batch order, as ``(kind, component,
            fact, open_head)``.  ``open_head`` marks a last copy out of
            a component that holds another possible source of the same
            ground instance (a non-ground fact or guard-only rule with
            that head).
        dropped: ``(component, symbol)`` for every constant, function
            symbol or predicate whose last occurrence left the component.
    """

    program: "OrderedProgram"
    ops: Sequence[tuple[str, str, Literal]]
    changes: list[tuple[str, str, Literal, bool]]
    dropped: list[tuple[str, object]]

    @staticmethod
    def seen_from(
        updates: Sequence["FactUpdate"], scope: frozenset[str]
    ) -> tuple[list[tuple[str, str, Literal]], bool]:
        """What a run of consecutive updates does to ``ground(C*)`` of
        the view whose ``C*`` components are ``scope``: the engine ops
        (the changes in components it sees) and whether the view must
        be re-grounded from the last successor because copy counting
        cannot tell — a seen change is an ``open_head`` one, or a
        symbol's last occurrence left ``C*`` (its Herbrand universe or
        base shrinks, so atoms over the symbol are no longer grounded,
        even if components the view cannot see still mention it).
        """
        engine_ops: list[tuple[str, str, Literal]] = []
        reground = False
        dropped: set[object] = set()
        for update in updates:
            for kind, name, lit, open_head in update.changes:
                if name in scope:
                    engine_ops.append((kind, name, lit))
                    reground = reground or open_head
            dropped.update(s for name, s in update.dropped if name in scope)
        if dropped and not reground:
            program = updates[-1].program
            held = [program.component(n)._fact_ledger().symbols for n in scope]
            reground = not all(any(s in symbols for symbols in held) for s in dropped)
        return engine_ops, reground


class OrderedProgram:
    """An ordered program ``P = <C, <>`` (Definition 1).

    Args:
        components: the components, either as :class:`Component` objects
            or as a mapping ``name -> iterable of rules``.
        order: pairs ``(low, high)`` asserting ``low < high`` — *low
            inherits from high*.  The transitive closure is taken; cycles
            raise :class:`~repro.lang.errors.OrderError`.  A
            :class:`PartialOrder` over exactly the component names is
            adopted by reference instead (how a successor program
            shares its predecessor's ``<``; it must not be mutated
            afterwards).
    """

    __slots__ = ("_components", "_order")

    def __init__(
        self,
        components: Union[Iterable[Component], Mapping[str, Iterable[Rule]]],
        order: Union[Iterable[tuple[str, str]], PartialOrder] = (),
    ) -> None:
        comps: dict[str, Component] = {}
        if isinstance(components, Mapping):
            for name, rules in components.items():
                comps[name] = Component(name, rules)
        else:
            for comp in components:
                if not isinstance(comp, Component):
                    raise TypeError(f"expected Component, got {comp!r}")
                if comp.name in comps:
                    raise SemanticsError(f"duplicate component name {comp.name!r}")
                comps[comp.name] = comp
        if not isinstance(order, PartialOrder):
            order = PartialOrder(comps.keys(), order)
        stray = order.elements ^ comps.keys()
        if stray:
            raise SemanticsError(
                f"order refers to unknown component {min(stray)!r}"
            )
        object.__setattr__(self, "_components", comps)
        object.__setattr__(self, "_order", order)

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("OrderedProgram is immutable")

    # ------------------------------------------------------------------
    # Alternative constructors
    # ------------------------------------------------------------------
    @classmethod
    def single(cls, rules: Iterable[Rule], name: str = "main") -> "OrderedProgram":
        """An ordered program with one component and an empty order —
        the paper's flattened programs such as ``P̂1`` in Example 2."""
        return cls([Component(name, rules)])

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def order(self) -> PartialOrder:
        """The ``<`` relation (a strict partial order over names)."""
        return self._order

    @property
    def component_names(self) -> frozenset[str]:
        return frozenset(self._components)

    def component(self, name: str) -> Component:
        try:
            return self._components[name]
        except KeyError:
            raise SemanticsError(f"no component named {name!r}") from None

    def components(self) -> tuple[Component, ...]:
        """All components, most general first (deterministic order)."""
        return tuple(self._components[n] for n in self._order.topological())

    def __contains__(self, name: object) -> bool:
        return name in self._components

    def __len__(self) -> int:
        return len(self._components)

    # ------------------------------------------------------------------
    # Visibility (Definition 1b)
    # ------------------------------------------------------------------
    def visible_components(self, name: str) -> tuple[Component, ...]:
        """The components whose rules ``name`` sees: itself plus every
        component above it, most general first."""
        self.component(name)
        order = self._order
        return tuple(
            self._components[n] for n in order.topological() if order.less_equal(name, n)
        )

    def visible_rules(self, name: str) -> tuple[tuple[str, Rule], ...]:
        """``C*`` tagged with provenance: ``(component name, rule)`` pairs
        for every rule the component sees."""
        return tuple(
            (comp.name, r)
            for comp in self.visible_components(name)
            for r in comp.rules
        )

    # ------------------------------------------------------------------
    # Classification and inventories (aggregated over all components)
    # ------------------------------------------------------------------
    @property
    def is_seminegative(self) -> bool:
        return all(c.is_seminegative for c in self._components.values())

    @property
    def is_positive(self) -> bool:
        return all(c.is_positive for c in self._components.values())

    @property
    def is_ground(self) -> bool:
        return all(c.is_ground for c in self._components.values())

    def predicate_signatures(self) -> frozenset[tuple[str, int]]:
        sigs: frozenset[tuple[str, int]] = frozenset()
        for comp in self._components.values():
            sigs |= comp.predicate_signatures()
        return sigs

    def symbols(self) -> Iterator[object]:
        """:meth:`Component.symbols` over every component."""
        for comp in self._components.values():
            yield from comp.symbols()

    def constants(self) -> frozenset[Constant]:
        return frozenset(s for s in self.symbols() if isinstance(s, Constant))

    def function_symbols(self) -> frozenset[tuple[str, int]]:
        return frozenset(s for s in self.symbols() if isinstance(s, tuple))

    def rule_count(self) -> int:
        return sum(len(c) for c in self._components.values())

    # ------------------------------------------------------------------
    # Manipulation
    # ------------------------------------------------------------------
    def with_component(
        self,
        comp: Component,
        below: Iterable[str] = (),
        above: Iterable[str] = (),
    ) -> "OrderedProgram":
        """A new program with ``comp`` added (or replaced), ordered below
        the components in ``below`` and above those in ``above``.  The
        order is extended incrementally, and shared outright when no
        element or pair is new."""
        comps = {**self._components, comp.name: comp}
        pairs = [(comp.name, high) for high in below]
        pairs += [(low, comp.name) for low in above]
        order = self._order
        if pairs or comp.name not in order:
            order = order.copy()
            order.add_element(comp.name)
            for low, high in pairs:
                order.add_pair(low, high)
        return OrderedProgram(comps.values(), order)

    def update_facts(
        self, ops: Sequence[tuple[str, str, Literal]]
    ) -> FactUpdate:
        """Tell/retract a batch of ground facts, in order.

        Each op is ``(ASSERT | RETRACT, component, ground literal)``; a
        retraction removes the component's oldest copy of the fact.

        Raises:
            SemanticsError: unknown kind or component, non-ground fact,
                or retracting a fact that was never told (the program is
                a value: a failed batch changes nothing).
        """
        touched: dict[str, tuple[list[Rule], _FactLedger]] = {}
        changes: list[tuple[str, str, Literal, bool]] = []
        dropped: list[tuple[str, object]] = []
        for kind, name, lit in ops:
            if kind not in (ASSERT, RETRACT):
                raise SemanticsError(f"unknown delta op kind {kind!r}")
            if not lit.is_ground:
                raise SemanticsError(
                    f"only ground facts can be told/retracted: {lit}"
                )
            if name not in touched:
                comp = self.component(name)
                held = comp._fact_ledger()
                touched[name] = list(comp.rules), _FactLedger(
                    dict(held.copies), dict(held.symbols), held.open_heads
                )
            rules, ledger = touched[name]
            if kind == ASSERT:
                rules.append(Rule(lit))
                step = 1
            elif lit in ledger.copies:
                rules.remove(Rule(lit))
                step = -1
            else:
                raise SemanticsError(
                    f"cannot retract {lit} from component {name!r}: "
                    "fact was never told"
                )
            copies = _bump(ledger.copies, lit, step)
            for symbol in (*_symbols_in(lit.args), _predicate_key(lit)):
                if not _bump(ledger.symbols, symbol, step):
                    dropped.append((name, symbol))
            if copies == (kind == ASSERT):
                # The first copy in (now 1) or the last copy out (now 0).
                open_head = kind == RETRACT and (
                    lit in ledger.open_heads
                    or (lit.positive, lit.atom.signature) in ledger.open_heads
                )
                changes.append((kind, name, lit, open_head))
        comps = dict(self._components)
        for name, (rules, ledger) in touched.items():
            comps[name] = Component(name, rules, ledger)
        successor = OrderedProgram(comps.values(), self._order)
        return FactUpdate(successor, ops, changes, dropped)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, OrderedProgram)
            and other._components == self._components
            and other._order == self._order
        )

    def __str__(self) -> str:
        parts = [str(self._components[n]) for n in self._order.topological()]
        pairs = sorted(self._order.covering_pairs())
        for low, high in pairs:
            parts.append(f"order {low} < {high}.")
        return "\n".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return (
            f"OrderedProgram({sorted(self._components)}, "
            f"{sorted(self._order.covering_pairs())})"
        )
