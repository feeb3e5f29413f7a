"""Grounding: from rules with variables to ground rule instances.

``ground(C*)`` (Section 2) is the set of all ground instances of all
rules a component sees.  Each instance remembers the component its rule
came from — the paper's ``C(r)`` function ("if a rule occurs in more than
one component then we assume that it has distinct ground instances so
that C is actually a function from ground instances to components").

**When relevance-based pruning is sound.**  In ordered programs a rule
can *defeat* or *overrule* another while being merely *non-blocked* — it
need not be applicable (Definition 2).  A ground instance whose body
atoms are underivable can therefore still change the meaning of a
program, so by default the grounder emits the full instantiation over
the Herbrand universe; the always-safe reductions applied are
(a) evaluating comparison guards as soon as their variables are bound,
dropping instances with false guards, and (b) deduplicating identical
instances within a component.

With :attr:`GroundingOptions.domain_pruning` enabled, the grounder
additionally consults the abstract interpretation
(:mod:`repro.analysis.abstract`) and drops instances whose body is
provably unsatisfiable — but **only** for *prune-safe* rules: rules
whose head's complement is headed by no rule in the view, so no
instance can ever act as the overruler or defeater of another rule
(statuses consult only complementary heads).  For those rules the
instance is inert unless applicable, and an instance with an
underivable body literal is never applicable in the least model, so
dropping it preserves ``V_{P,C}``'s least fixpoint.  Pruning is **not**
sound for Definition-3 model *enumeration* (a never-applicable rule
still constrains which total interpretations are models), which is why
:class:`repro.core.semantics.OrderedSemantics` keeps an unpruned
grounding for the enumeration-side consumers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..analysis.abstract import RuleRestriction

from ..lang.builtins import Comparison
from ..lang.errors import GroundingError
from ..lang.literals import Atom, Literal
from ..lang.program import Component, OrderedProgram
from ..lang.rules import Rule
from ..lang.terms import Term, Variable
from ..obs import Level, get_instrumentation
from .herbrand import HerbrandUniverse, herbrand_base, universe_of
from .substitution import Substitution

__all__ = [
    "AtomTable",
    "GroundRule",
    "GroundProgram",
    "GroundingOptions",
    "Grounder",
]


class AtomTable:
    """Interns ground atoms to dense integer ids.

    The dense evaluation path (``repro.core.compiled``) speaks in
    integers: every ground atom seen at grounding time receives a small
    id, and a literal is addressed as ``atom_id * 2`` (positive) or
    ``atom_id * 2 + 1`` (negative), so complementation is ``id ^ 1``.

    Ids are **stable**: the table is append-only, so an atom keeps its
    id across fact deltas for the lifetime of the table (maintenance
    reuses the grounding-time table rather than re-interning, and
    interns a told atom no ground rule mentions at the end).
    """

    __slots__ = ("_ids", "_atoms", "_literals")

    def __init__(self, atoms: Iterable[Atom] = ()) -> None:
        self._ids: dict[Atom, int] = {}
        self._atoms: list[Atom] = []
        self._literals: list[Literal] = []
        for atom in atoms:
            self.intern(atom)

    def intern(self, atom: Atom) -> int:
        """The atom's id, allocating the next dense id on first sight."""
        i = self._ids.get(atom)
        if i is None:
            i = len(self._atoms)
            self._ids[atom] = i
            self._atoms.append(atom)
            self._literals.append(Literal(atom, True))
            self._literals.append(Literal(atom, False))
        return i

    def id_of(self, atom: Atom) -> Optional[int]:
        """The atom's id, or None when it was never interned."""
        return self._ids.get(atom)

    def atom(self, atom_id: int) -> Atom:
        return self._atoms[atom_id]

    def literal_id(self, literal: Literal) -> int:
        """Intern the literal's atom and return the literal's dense id."""
        return self.intern(literal.atom) * 2 + (0 if literal.positive else 1)

    def literal(self, literal_id: int) -> Literal:
        """Decode a literal id back to the (cached) literal object."""
        return self._literals[literal_id]

    def flagged_literals(self, flags: Sequence[int]) -> Iterator[Literal]:
        """Decode per-literal-id membership flags to the set literals."""
        return compress(self._literals, flags)

    def __len__(self) -> int:
        return len(self._atoms)

    def __contains__(self, atom: object) -> bool:
        return atom in self._ids

    def atoms(self) -> tuple[Atom, ...]:
        """All interned atoms, in id order."""
        return tuple(self._atoms)

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"AtomTable({len(self._atoms)} atoms)"


class GroundRule:
    """A ground rule instance tagged with its source component.

    Attributes:
        head: ``H(r)`` — a ground literal.
        body: ``B(r)`` — the ground body literals, as a frozenset (the
            order is irrelevant to every definition in the paper; guards
            have been evaluated away).
        component: the paper's ``C(r)``: the name of the component whose
            rule this instance came from.
        origin: the non-ground rule this instance was produced from.
    """

    __slots__ = ("head", "body", "component", "origin", "_hash")

    def __init__(
        self,
        head: Literal,
        body: frozenset[Literal],
        component: str,
        origin: Optional[Rule] = None,
    ) -> None:
        if not head.is_ground:
            raise ValueError(f"ground rule head must be ground: {head}")
        body = frozenset(body)
        for item in body:
            if not item.is_ground:
                raise ValueError(f"ground rule body must be ground: {item}")
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "component", component)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "_hash", hash(("gr", head, body, component)))

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("GroundRule is immutable")

    @property
    def is_fact(self) -> bool:
        return not self.body

    @property
    def is_seminegative(self) -> bool:
        return self.head.positive

    def atoms(self) -> frozenset[Atom]:
        """All atoms mentioned by the rule (head and body)."""
        return frozenset({self.head.atom, *(l.atom for l in self.body)})

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GroundRule)
            and other._hash == self._hash
            and other.head == self.head
            and other.body == self.body
            and other.component == self.component
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "GroundRule") -> bool:
        if not isinstance(other, GroundRule):
            return NotImplemented
        return str(self) < str(other)

    def __str__(self) -> str:
        if not self.body:
            return f"[{self.component}] {self.head}."
        body = ", ".join(str(l) for l in sorted(self.body))
        return f"[{self.component}] {self.head} :- {body}."

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"GroundRule({self})"


@dataclass(frozen=True)
class GroundProgram:
    """The result of grounding: rules plus the Herbrand base they live in.

    ``base`` is the set of ground *atoms* (the paper's ``B_P``);
    interpretations are consistent subsets of ``base ∪ ¬base``.

    ``atom_table`` interns every atom mentioned by a rule (⊆ base) to a
    dense integer id; the compiled evaluation path addresses atoms and
    literals through it.  It may be None for hand-built programs — the
    dense index then interns on demand.
    """

    rules: tuple[GroundRule, ...]
    base: frozenset[Atom]
    universe: HerbrandUniverse
    atom_table: Optional[AtomTable] = None
    #: Source rules skipped entirely by domain pruning (statically dead
    #: under the abstract interpretation); 0 when pruning was off.
    pruned_rules: int = 0

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[GroundRule]:
        return iter(self.rules)

    def atoms_in_rules(self) -> frozenset[Atom]:
        """Atoms actually mentioned by some rule (⊆ base)."""
        found: set[Atom] = set()
        for r in self.rules:
            found |= r.atoms()
        return frozenset(found)

    def restricted_base(self) -> frozenset[Atom]:
        """The base restricted to atoms mentioned by rules — a sound
        optimisation for enumeration: atoms never mentioned can only be
        undefined in any assumption-free model."""
        return self.atoms_in_rules()


@dataclass(frozen=True)
class GroundingOptions:
    """Knobs for the grounder.

    Attributes:
        max_depth: Herbrand-universe depth bound (needed iff the program
            has function symbols).
        instance_cap: abort with :class:`GroundingError` after this many
            instances — an explicit failure beats an apparent hang.
        full_base: when True (default) the ground program's ``base`` is
            the full Herbrand base; when False it is restricted to atoms
            mentioned by ground rules (sufficient for least/AF/stable
            model computation, smaller for enumeration).
        domain_pruning: when True, run the abstract interpretation over
            the rule set first and, for prune-safe rules (see the module
            docstring), restrict variable enumeration to the inferred
            argument domains and skip statically dead rules outright.
            Sound for least-model computation only — keep it off for
            model enumeration.
    """

    max_depth: Optional[int] = None
    instance_cap: int = 5_000_000
    full_base: bool = True
    domain_pruning: bool = False


class Grounder:
    """Grounds components and ordered programs.

    The grounder enumerates, per rule, all assignments of the rule's
    variables to Herbrand-universe terms, evaluating comparison guards as
    soon as their variables are bound (so ``X > Y + 2`` prunes the
    enumeration early instead of filtering at the end).
    """

    def __init__(self, options: GroundingOptions = GroundingOptions()) -> None:
        self.options = options
        # Per-ground-call tallies; plain unconditional int bumps are an
        # order of magnitude cheaper than the work done per binding, and
        # flushing to the registry happens once per grounding call.
        self._subs_tried = 0
        self._guard_pruned = 0
        self._deduped = 0
        self._pruned_rules = 0

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def ground_component_star(
        self, program: OrderedProgram, component: str
    ) -> GroundProgram:
        """Ground ``C*`` — the rules the component sees (Definition 1b).

        The Herbrand universe and base are those of the negative program
        ``C*`` itself, exactly as the paper defines interpretations "for
        P in C" as interpretations of ``C*``.
        """
        obs = get_instrumentation()
        with obs.span("ground", component=component):
            visible = program.visible_rules(component)
            star = Component("_star", tuple(r for _, r in visible))
            universe = universe_of(star, max_depth=self.options.max_depth)
            table = AtomTable()
            restrictions = self._restrictions(star.rules, universe)
            rules = self._ground_tagged(visible, universe, table, restrictions)
            base = self._base_for(star, universe, rules)
        if obs.enabled:
            self._flush_stats(obs, len(visible), rules, base)
        return GroundProgram(rules, base, universe, table, self._pruned_rules)

    def ground_rules(
        self,
        rules: Iterable[Rule],
        component: str = "main",
        universe: Optional[HerbrandUniverse] = None,
    ) -> GroundProgram:
        """Ground a plain rule set (a classical program) as one component."""
        obs = get_instrumentation()
        with obs.span("ground", component=component):
            comp = Component(component, rules)
            if universe is None:
                universe = universe_of(comp, max_depth=self.options.max_depth)
            tagged = tuple((component, r) for r in comp.rules)
            table = AtomTable()
            restrictions = self._restrictions(comp.rules, universe)
            ground = self._ground_tagged(tagged, universe, table, restrictions)
            base = self._base_for(comp, universe, ground)
        if obs.enabled:
            self._flush_stats(obs, len(tagged), ground, base)
        return GroundProgram(ground, base, universe, table, self._pruned_rules)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _base_for(
        self,
        source: Component,
        universe: HerbrandUniverse,
        rules: tuple[GroundRule, ...],
    ) -> frozenset[Atom]:
        if self.options.full_base:
            return herbrand_base(source, universe=universe)
        found: set[Atom] = set()
        for r in rules:
            found |= r.atoms()
        return frozenset(found)

    def _restrictions(
        self, rules: Sequence[Rule], universe: HerbrandUniverse
    ) -> Optional[dict[Rule, "RuleRestriction"]]:
        """Per-rule pruning decisions from the abstract interpretation,
        or None when ``domain_pruning`` is off.  A rule mapping to None
        inside the dict is not prune-safe and grounds in full."""
        if not self.options.domain_pruning:
            return None
        # Imported lazily: repro.analysis.abstract consumes grounding
        # types (HerbrandUniverse), not the other way around.
        from ..analysis.abstract import analyze_rules

        analysis = analyze_rules(rules, universe=universe)
        return {r: analysis.restriction(r) for r in set(rules)}

    def _ground_tagged(
        self,
        tagged_rules: Sequence[tuple[str, Rule]],
        universe: HerbrandUniverse,
        table: Optional[AtomTable] = None,
        restrictions: Optional[dict[Rule, "RuleRestriction"]] = None,
    ) -> tuple[GroundRule, ...]:
        self._subs_tried = 0
        self._guard_pruned = 0
        self._deduped = 0
        self._pruned_rules = 0
        produced: list[GroundRule] = []
        seen: set[GroundRule] = set()
        count = 0
        for component, r in tagged_rules:
            restriction = restrictions.get(r) if restrictions else None
            if restriction is not None and restriction.dead:
                self._pruned_rules += 1
                continue
            domains = restriction.domains if restriction is not None else None
            for instance in self._instances(r, component, universe, domains):
                if instance in seen:
                    self._deduped += 1
                    continue
                seen.add(instance)
                produced.append(instance)
                if table is not None:
                    table.intern(instance.head.atom)
                    for lit in instance.body:
                        table.intern(lit.atom)
                count += 1
                if count > self.options.instance_cap:
                    raise GroundingError(
                        f"grounding exceeded instance cap {self.options.instance_cap}"
                    )
        return tuple(produced)

    def _flush_stats(
        self, obs, source_rules: int, ground: Sequence[GroundRule], base
    ) -> None:
        obs.count("ground.source_rules", source_rules)
        obs.count("ground.substitutions_tried", self._subs_tried)
        obs.count("ground.guard_pruned", self._guard_pruned)
        obs.count("ground.instances_kept", len(ground))
        obs.count("ground.instances_deduped", self._deduped)
        obs.count("grounding.pruned_rules", self._pruned_rules)
        obs.gauge("ground.base_atoms", len(base))
        obs.event(
            "ground.done",
            Level.INFO,
            source_rules=source_rules,
            instances=len(ground),
            base_atoms=len(base),
            substitutions=self._subs_tried,
        )

    @staticmethod
    def _guard_holds(guard: Comparison, bindings: dict[Variable, Term]) -> bool:
        """Evaluate a guard; guards that cannot be evaluated (symbolic
        operand, division by zero) are treated as false, so the instance
        is dropped rather than the grounder crashing on e.g.
        ``penguin > 11``."""
        try:
            return guard.holds(bindings)
        except GroundingError:
            return False

    def _instances(
        self,
        r: Rule,
        component: str,
        universe: HerbrandUniverse,
        domains: Optional[Mapping[Variable, tuple[Term, ...]]] = None,
    ) -> Iterator[GroundRule]:
        variables = sorted(r.variables(), key=str)
        if not variables:
            self._subs_tried += 1
            if all(self._guard_holds(guard, {}) for guard in r.guards()):
                yield self._make_ground(r, Substitution(), component)
            else:
                self._guard_pruned += 1
            return
        if not universe.terms:
            # No ground terms exist: a rule with variables has no ground
            # instances (the paper's HU is built from symbols in P).
            return
        # Evaluate each guard as soon as the last of its variables binds.
        guard_trigger: dict[int, list[Comparison]] = {}
        var_index = {v: i for i, v in enumerate(variables)}
        for guard in r.guards():
            last = max(var_index[v] for v in guard.variables()) if guard.variables() else -1
            guard_trigger.setdefault(last, []).append(guard)
        bindings: dict[Variable, Term] = {}
        yield from self._assign(
            r, component, universe, variables, 0, bindings, guard_trigger, domains or {}
        )

    def _assign(
        self,
        r: Rule,
        component: str,
        universe: HerbrandUniverse,
        variables: list[Variable],
        index: int,
        bindings: dict[Variable, Term],
        guard_trigger: dict[int, list[Comparison]],
        domains: Mapping[Variable, tuple[Term, ...]],
    ) -> Iterator[GroundRule]:
        if index == len(variables):
            for guard in guard_trigger.get(-1, ()):
                if not self._guard_holds(guard, bindings):
                    self._guard_pruned += 1
                    return
            yield self._make_ground(r, Substitution(bindings), component)
            return
        v = variables[index]
        for term in domains.get(v, universe.terms):
            self._subs_tried += 1
            bindings[v] = term
            ok = True
            for guard in guard_trigger.get(index, ()):
                if not self._guard_holds(guard, bindings):
                    ok = False
                    self._guard_pruned += 1
                    break
            if ok:
                yield from self._assign(
                    r, component, universe, variables, index + 1,
                    bindings, guard_trigger, domains,
                )
        del bindings[v]

    @staticmethod
    def _make_ground(r: Rule, theta: Substitution, component: str) -> GroundRule:
        head = theta.apply_literal(r.head)
        body = frozenset(theta.apply_literal(l) for l in r.body_literals())
        return GroundRule(head, body, component, origin=r)
