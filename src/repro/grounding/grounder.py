"""Grounding: from rules with variables to ground rule instances.

``ground(C*)`` (Section 2) is the set of all ground instances of all
rules a component sees.  Each instance remembers the component its rule
came from — the paper's ``C(r)`` function ("if a rule occurs in more than
one component then we assume that it has distinct ground instances so
that C is actually a function from ground instances to components").

**Which instances the least model needs.**  In ordered programs a rule
can *defeat* or *overrule* another while being merely *non-blocked* — it
need not be applicable (Definition 2) — so an instance whose body is
underivable can still change the meaning of a program.  But statuses
consult only *complementary* heads.  Call a rule **prune-safe** when no
rule in the view heads the complement of its head's signed predicate:
no instance of it can overrule or defeat anything, nothing can overrule
or defeat it, and it matters to ``V_{P,C}`` only when it is applicable.
An applicable instance has its whole body inside the least model, hence
inside the **possible-literal set**: the least fixpoint of the view's
rules read as a positive program over signed literals (overruling and
defeating ignored, so it contains every stage of ``V``).  Dropping the
prune-safe instances with a body literal outside that set preserves the
least fixpoint of ``V_{P,C}``; every instance of every other rule is
kept.  This *relevance grounding* is what
:meth:`Grounder.ground_component_star` returns.

**One instantiation procedure, on the shared join machine.**  A rule's
variables are bound by joining a list of its body literals against the
possible-literal relations (hash indexes on the bound argument
positions); any variable still unbound then ranges over the Herbrand
universe; comparison guards fire as soon as their variables are bound
(variable-free guards once, before anything is enumerated), and
identical instances within a component are emitted once.  Prune-safe
rules that have variables join all their body literals; every other
rule joins none, which is the Herbrand product ``|HU|^vars``.  The
joins are compiled and run by :mod:`repro.grounding.joins`, the machine
the demand engine runs on, driven twice: the possible-literal relations
are its worklist run with no seed (new rows waking the rules that watch
their predicate, or the exact literal for ground body literals), only
for the dependency cone of the joined rules, so a view without a
prune-safe rule with variables pays nothing for them; instantiation is
the same steps with a sink that interns the slots straight into integer
instances (:class:`GroundRules`), decoded to rule objects on demand.

**Who must ask for the full instantiation.**  Relevance is *not* sound
for Definition-3 model checking and enumeration (a never-applicable
rule still constrains which total interpretations are models), for
assumption analysis, for diagnostics that report on every instance, or
once a told fact may make a dropped instance applicable or flip a
rule's prune-safety.  Those consumers state the requirement:
``ground_component_star(program, view, full=True)`` joins nothing
(:attr:`repro.core.semantics.OrderedSemantics.full_ground`).
:meth:`Grounder.ground_rules` grounds a *classical* program, whose
consumers read negative body literals as negation as failure, and is
always full.
"""

from __future__ import annotations

import os
from array import array
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from itertools import accumulate, chain, compress
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ..lang.errors import GroundingError
from ..lang.literals import Atom, Literal
from ..lang.program import Component, OrderedProgram
from ..lang.rules import Rule
from ..lang.terms import Compound, Term
from ..obs import Level, get_instrumentation, record_costs
from .herbrand import HerbrandUniverse, herbrand_base, universe_of
from .joins import Join, JoinMachine, Scan, compile_join, row_builder

__all__ = [
    "AtomTable",
    "GroundRule",
    "GroundRules",
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
    Keyed by ``(predicate, args)``, so the grounder interns straight
    from the terms it bound (:meth:`intern_key`); :meth:`atom` and
    :meth:`literal` build an id's object on first request.

    Ids are **stable**: the table is append-only, so an atom keeps its
    id across fact deltas for the lifetime of the table (maintenance
    reuses the grounding-time table rather than re-interning, and
    interns a told atom no ground rule mentions at the end), and every
    version of a maintained model — its membership flags — is read
    through the one per-predicate index (:meth:`predicate_ids`).
    """

    __slots__ = ("_ids", "_keys", "_atoms", "_literals", "_buckets", "_bucketed", "_unsorted")

    def __init__(self, atoms: Iterable[Atom] = ()) -> None:
        self._ids: dict[tuple[str, tuple[Term, ...]], int] = {}
        self._keys: list[tuple[str, tuple[Term, ...]]] = []
        self._atoms: dict[int, Atom] = {}
        self._literals: dict[int, Literal] = {}
        # (predicate, arity) -> positive literal ids, over the first
        # ``_bucketed`` atoms; caught up, and a grown bucket put back in
        # ``str`` order when read, by predicate_ids.
        self._buckets: dict[tuple[str, int], list[int]] = {}
        self._bucketed = 0
        self._unsorted: set[tuple[str, int]] = set()
        for atom in atoms:
            self.intern(atom)

    def intern_key(self, key: tuple[str, tuple[Term, ...]]) -> int:
        """The id of the atom ``(predicate, args)``, allocating the next
        dense id on first sight."""
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self._keys)
            self._keys.append(key)
        return i

    def intern(self, atom: Atom) -> int:
        return self.intern_key((atom.predicate, atom.args))

    def id_of(self, atom: Atom) -> Optional[int]:
        """The atom's id, or None when it was never interned."""
        return self._ids.get((atom.predicate, atom.args))

    def atom(self, atom_id: int) -> Atom:
        atom = self._atoms.get(atom_id)
        if atom is None:
            atom = self._atoms[atom_id] = Atom.ground(*self._keys[atom_id])
        return atom

    def literal_id(self, literal: Literal) -> int:
        """Intern the literal's atom and return the literal's dense id."""
        return self.intern(literal.atom) * 2 + (0 if literal.positive else 1)

    def literal(self, literal_id: int) -> Literal:
        """Decode a literal id to its (cached) literal object."""
        literal = self._literals.get(literal_id)
        if literal is None:
            atom = self.atom(literal_id >> 1)
            literal = self._literals[literal_id] = Literal(atom, not literal_id & 1)
        return literal

    def flagged_literals(self, flags: Sequence[int]) -> Iterator[Literal]:
        """Decode per-literal-id membership flags to the set literals."""
        return map(self.literal, compress(range(len(flags)), flags))

    def predicate_ids(self, predicate: str, arity: int) -> Sequence[int]:
        """The positive literal ids of one predicate's interned atoms,
        in ``str`` order (``id | 1`` is the negative literal, in the
        same order) — the only ids an open goal over it can match.

        Bucketed from the keys on the first call and extended, here, by
        the atoms interned since: interning itself stays one dict probe.
        """
        keys = self._keys
        if self._bucketed != len(keys):
            for i in range(self._bucketed, len(keys)):
                signature = (keys[i][0], len(keys[i][1]))
                self._buckets.setdefault(signature, []).append(2 * i)
                self._unsorted.add(signature)
            self._bucketed = len(keys)
        signature = (predicate, arity)
        bucket = self._buckets.get(signature, ())
        if signature in self._unsorted:
            self._unsorted.discard(signature)
            bucket.sort(key=lambda i: str(self.atom(i >> 1)))
        return bucket

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, atom: object) -> bool:
        return isinstance(atom, Atom) and (atom.predicate, atom.args) in self._ids

    def atoms(self) -> tuple[Atom, ...]:
        """All interned atoms, in id order."""
        return tuple(map(self.atom, range(len(self._keys))))

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"AtomTable({len(self._keys)} atoms)"


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


@dataclass(eq=False)
class GroundRules(SequenceABC):
    """Ground rule instances as integer arrays over an atom table, as
    the grounder emits them: rule ``i`` is ``origins[i]``'s instance in
    ``components[i]``, with head literal id ``heads[i]`` and body ids
    ``body_ids[body_start[i]:body_start[i + 1]]`` (each once, in textual
    order).  As a sequence, the :class:`GroundRule` objects, decoded on
    first access."""

    table: AtomTable
    components: list[str]
    origins: list[Optional[Rule]]
    heads: array
    body_start: array
    body_ids: array
    _objects: Optional[tuple[GroundRule, ...]] = None

    @classmethod
    def encode(cls, rules: Iterable[GroundRule], table: AtomTable) -> "GroundRules":
        """Rule objects (a hand-built program, a reduction, a test) as
        ids over ``table``, which interns the atoms it lacks."""
        rules = tuple(rules)
        heads = array("l", [table.literal_id(r.head) for r in rules])
        bodies = [[table.literal_id(l) for l in r.body] for r in rules]
        start = array("l", accumulate(map(len, bodies), initial=0))
        ids = array("l", chain.from_iterable(bodies))
        components, origins = [r.component for r in rules], [r.origin for r in rules]
        return cls(table, components, origins, heads, start, ids, rules)

    def objects(self) -> tuple[GroundRule, ...]:
        """The rules as :class:`GroundRule` objects, decoded once."""
        if self._objects is None:
            literal, start, ids = self.table.literal, self.body_start, self.body_ids
            self._objects = tuple(
                GroundRule(literal(h), frozenset(map(literal, ids[start[i] : start[i + 1]])), c, o)
                for i, (h, c, o) in enumerate(zip(self.heads, self.components, self.origins))
            )
        return self._objects

    def __len__(self) -> int:
        return len(self.heads)

    def __getitem__(self, i):
        return self.objects()[i]

    def __iter__(self) -> Iterator[GroundRule]:
        return iter(self.objects())


@dataclass(frozen=True)
class GroundProgram:
    """The result of grounding: rules — from the grounder a
    :class:`GroundRules`, decoded on first read — plus the Herbrand base.

    ``base`` is the set of ground *atoms* (the paper's ``B_P``);
    interpretations are consistent subsets of ``base ∪ ¬base``.

    ``atom_table`` interns every atom mentioned by a rule (⊆ base) to a
    dense integer id; the compiled evaluation path addresses atoms and
    literals through it.  It may be None for hand-built programs — the
    dense index then interns on demand.
    """

    rules: Sequence[GroundRule]
    base: frozenset[Atom]
    universe: HerbrandUniverse
    atom_table: Optional[AtomTable] = None
    #: Prune-safe source rules with variables that relevance left
    #: without a single instance; 0 for a full instantiation.
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


@dataclass(frozen=True)
class GroundingOptions:
    """Knobs for the grounder.

    Which instantiation is produced — relevance or full — is not a knob:
    the consumer asks for what its semantics needs (see the module
    docstring).

    Attributes:
        max_depth: Herbrand-universe depth bound (needed iff the program
            has function symbols).
        instance_cap: abort with :class:`GroundingError` after this many
            instances — an explicit failure beats an apparent hang.
        full_base: when True (default) the ground program's ``base`` is
            the full Herbrand base; when False it is restricted to atoms
            mentioned by ground rules (sufficient for least/AF/stable
            model computation, smaller for enumeration).
    """

    max_depth: Optional[int] = None
    instance_cap: int = 5_000_000
    full_base: bool = True


#: A signed predicate: ``(symbol, arity, positive)``.
Signed = tuple[str, int, bool]

#: Grounding is the longest stretch of a cold read that never lets go of
#: the interpreter lock, and a thread that asks for the lock meanwhile
#: waits a whole switch interval (5 ms) for it.  Offered once per
#: grounding call, the lock changes hands at once instead — in
#: particular a sampling thread of the host process (a profiler, a
#: heartbeat, ``benchmarks/e2e``'s speed probes) gets to run inside an
#: evaluation that now takes less than that interval.  A third of a
#: microsecond per yield when nobody waits.
_yield = getattr(os, "sched_yield", lambda: None)


def _offer_interpreter_lock() -> None:
    # Twice: the first yield wakes the waiter, but this thread is back
    # for the lock before the waiter is on the processor 1 time in 60
    # (measured); the second finds it runnable (1 in 6,000).
    _yield()
    _yield()


def _signed(literal: Literal) -> Signed:
    return (literal.atom.predicate, len(literal.atom.args), literal.positive)


class Grounder:
    """Grounds components and ordered programs.

    One procedure instantiates every rule (module docstring): join the
    chosen body literals against the possible-literal relations, range
    what is left over the Herbrand universe, evaluate each comparison
    guard as soon as its variables are bound (so ``X > Y + 2`` prunes
    the enumeration early instead of filtering at the end).
    """

    def __init__(self, options: GroundingOptions = GroundingOptions()) -> None:
        self.options = options
        # Per-ground-call tallies, recorded once per call.
        self._subs_tried = 0
        self._guard_pruned = 0
        self._deduped = 0
        self._pruned_rules = 0

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def ground_component_star(
        self, program: OrderedProgram, component: str, *, full: bool = False
    ) -> GroundProgram:
        """Ground ``C*`` — the rules the component sees (Definition 1b).

        The Herbrand universe and base are those of the negative program
        ``C*`` itself, exactly as the paper defines interpretations "for
        P in C" as interpretations of ``C*``.

        By default the result is the relevance grounding, which has the
        same least model as ``ground(C*)``; ``full=True`` is the whole
        of ``ground(C*)``, for consumers that look at more than the
        least model (module docstring).
        """
        visible = program.visible_rules(component)
        star = Component("_star", tuple(r for _, r in visible))
        ground = self._ground(component, star, visible, None, full)
        _offer_interpreter_lock()
        return ground

    def ground_rules(
        self,
        rules: Iterable[Rule],
        component: str = "main",
        universe: Optional[HerbrandUniverse] = None,
    ) -> GroundProgram:
        """Ground a plain rule set (a classical program) as one
        component, in full."""
        comp = Component(component, rules)
        tagged = tuple((component, r) for r in comp.rules)
        return self._ground(component, comp, tagged, universe, True)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _ground(
        self,
        component: str,
        source: Component,
        tagged: Sequence[tuple[str, Rule]],
        universe: Optional[HerbrandUniverse],
        full: bool,
    ) -> GroundProgram:
        """Ground ``tagged``, the rules of ``source``, under one
        ``ground`` span, and record what it cost."""
        obs = get_instrumentation()
        with obs.span("ground", component=component):
            if universe is None:
                universe = universe_of(source, max_depth=self.options.max_depth)
            rules = self._ground_tagged(tagged, universe, full)
            base = self._base_for(source, universe, rules.table)
        record_costs(
            ground_source_rules=len(tagged),
            ground_substitutions_tried=self._subs_tried,
            ground_guard_pruned=self._guard_pruned,
            ground_instances_kept=len(rules),
            ground_instances_deduped=self._deduped,
            ground_pruned_rules=self._pruned_rules,
        )
        if obs.enabled:
            obs.gauge("ground.base_atoms", len(base))
            obs.event(
                "ground.done",
                Level.INFO,
                source_rules=len(tagged),
                instances=len(rules),
                base_atoms=len(base),
                substitutions=self._subs_tried,
            )
        return GroundProgram(rules, base, universe, rules.table, self._pruned_rules)

    def _base_for(
        self, source: Component, universe: HerbrandUniverse, table: AtomTable
    ) -> frozenset[Atom]:
        if self.options.full_base:
            return herbrand_base(source, universe=universe, cap=self.options.instance_cap)
        return frozenset(table.atoms())  # exactly the atoms the rules mention

    def _ground_tagged(
        self,
        tagged_rules: Sequence[tuple[str, Rule]],
        universe: HerbrandUniverse,
        full: bool,
    ) -> GroundRules:
        self._deduped = 0
        self._pruned_rules = 0
        machine = JoinMachine(universe.terms)
        bounded = self._bounded(universe)
        joined: frozenset[Rule] = frozenset()
        if not full and universe.terms:
            joined = self._possible_literals(
                [r for _, r in tagged_rules], machine, bounded
            )
        out = GroundRules(AtomTable(), [], [], array("l"), array("l", [0]), array("l"))
        table, heads, body_ids = out.table, out.heads, out.body_ids
        seen: set[tuple[str, int, frozenset[int]]] = set()
        cap = self.options.instance_cap

        # The caller interns the head, then the body in textual order,
        # so atom ids do not depend on the hash seed.
        def emit(component: str, origin: Rule, head: int, body: list[int]) -> None:
            key = frozenset(body)
            instance = (component, head, key)
            if instance in seen:
                self._deduped += 1
                return
            seen.add(instance)
            out.components.append(component)
            out.origins.append(origin)
            heads.append(head)
            # Each body literal once, where it first occurs.
            body_ids.extend(body if len(key) == len(body) else dict.fromkeys(body))
            out.body_start.append(len(body_ids))
            if len(heads) > cap:
                raise GroundingError(f"grounding exceeded instance cap {cap}")

        ground_rules = 0
        for component, r in tagged_rules:
            if r.is_ground:
                ground_rules += 1
                guards = r.guards()
                if not guards or machine.holds(guards, (), ()):
                    head = table.literal_id(r.head)
                    body = [table.literal_id(l) for l in r.body_literals()]
                    emit(component, r, head, body)
                continue
            before = len(heads) + self._deduped
            self._instantiate(r, component, r in joined, machine, bounded, table, emit)
            if r in joined and len(heads) + self._deduped == before:
                self._pruned_rules += 1
        # One (empty) substitution per ground rule, one per candidate
        # row or universe term offered to a join step.
        self._subs_tried = ground_rules + machine.probes
        self._guard_pruned = machine.guard_pruned
        return out

    # ------------------------------------------------------------------
    # The two drives of the join machine
    # ------------------------------------------------------------------
    @staticmethod
    def _compile(
        r: Rule, joins: bool, machine: JoinMachine, trigger: Optional[int] = None
    ) -> Join:
        """The rule on the shared machine: its body literals joined
        against the possible-literal relations when ``joins`` (smallest
        relation first among the connected ones), every variable that
        leaves unbound ranging over the universe."""
        body = [Scan(_signed(l), l.args) for l in r.body_literals()] if joins else []
        sizes = [len(machine.rows.get(scan.relation, ())) for scan in body]
        return compile_join(
            _signed(r.head),
            r.head.args,
            body,
            r.guards(),
            lambda i, _: sizes[i],
            trigger,
            sorted(r.variables(), key=str),
        )

    @staticmethod
    def _bounded(universe: HerbrandUniverse) -> Callable[[Callable], Callable]:
        """Wrap a sink so that it only sees bindings that keep every
        variable inside the Herbrand universe: a row can carry a compound
        one level deeper than ``max_depth`` allows (heads nest) and
        matching may bind a variable to it.  A universe without compound
        terms has no such rows and sinks stay as they are."""
        if not any(isinstance(term, Compound) for term in universe.terms):
            return lambda sink: sink

        def bounded(sink: Callable) -> Callable:
            def checked(join: Join, env: list) -> None:
                if all(v in universe for v in env if isinstance(v, Compound)):
                    sink(join, env)

            return checked

        return bounded

    def _possible_literals(
        self, rules: Sequence[Rule], machine: JoinMachine, bounded: Callable
    ) -> frozenset[Rule]:
        """The rules relevance joins — prune-safe, with variables and
        body literals — after filling ``machine`` with the
        possible-literal relation of every signed predicate in their
        dependency cone.

        The relations are the least fixpoint of the cone's rules read as
        a positive program over signed literals, computed semi-naively:
        each new row wakes the rules with a body literal watching it and
        joins the rest of their bodies against everything possible so
        far.  Ground body literals watch the exact literal, not its
        predicate, so a ground chain costs one probe per rule rather
        than one per rule per link.
        """
        by_head: dict[Signed, list[Rule]] = {}
        for r in dict.fromkeys(rules):
            by_head.setdefault(_signed(r.head), []).append(r)
        joined = frozenset(
            r
            for (predicate, arity, positive), headed in by_head.items()
            if (predicate, arity, not positive) not in by_head
            for r in headed
            if not r.is_ground and r.body_literals()
        )
        cone: set[Signed] = set()
        stack = [_signed(l) for r in joined for l in r.body_literals()]
        while stack:
            key = stack.pop()
            if key not in cone:
                cone.add(key)
                stack.extend(
                    _signed(l) for r in by_head.get(key, ()) for l in r.body_literals()
                )

        derive = bounded(machine.derive)
        # Who a new row wakes: (rule, body index) pairs under the row's
        # signed predicate, or under the exact (signed predicate, row)
        # for a ground body literal.
        watchers: dict[object, list[tuple[Rule, int]]] = {}
        for key in cone:
            for r in by_head.get(key, ()):
                body = r.body_literals()
                for i, l in enumerate(body):
                    watch = (_signed(l), l.args) if l.is_ground else _signed(l)
                    watchers.setdefault(watch, []).append((r, i))
                if not r.body and r.head.is_ground:
                    machine.add(key, r.head.args)
                elif not body:
                    machine.fire(self._compile(r, True, machine), (), derive)
        joins: dict[tuple[Rule, int], Join] = {}
        worklist = machine.worklist
        while worklist:
            woken = worklist.popleft()
            for watch in (woken[0], woken):
                for r, i in watchers.get(watch, ()):
                    join = joins.get((r, i))
                    if join is None:
                        join = joins[r, i] = self._compile(r, True, machine, i)
                    machine.fire(join, woken[1], derive)
        return joined

    def _instantiate(
        self,
        r: Rule,
        component: str,
        joins: bool,
        machine: JoinMachine,
        bounded: Callable,
        table: AtomTable,
        emit: Callable[[str, Rule, int, list[int]], None],
    ) -> None:
        """Hand ``emit`` every instance of a rule with variables as ids,
        interning its head and then its body in textual order."""
        join = self._compile(r, joins, machine)
        intern = table.intern_key
        predicate, negative = r.head.predicate, r.head.negative
        # A ground body literal's arguments are a constant row; the
        # others are built from the slots.
        body_parts = [
            (l.predicate, l.args if l.is_ground else row_builder(l.args, join.slots), l.negative)
            for l in r.body_literals()
        ]

        @bounded
        def instance(join: Join, env: list) -> None:
            head = intern((predicate, join.head(env))) * 2 + negative
            body = [
                intern((p, args if type(args) is tuple else args(env))) * 2 + sign
                for p, args, sign in body_parts
            ]
            emit(component, r, head, body)

        machine.fire(join, (), instance)
