"""An object-oriented knowledge-base shell over ordered programs.

Section 1 of the paper pitches ordered logic as "a novel attempt to
combine the logic paradigm with the object-oriented one in knowledge
base systems": components are *objects*, the ``<`` relation is an *isa*
hierarchy carrying rule inheritance, local rules hide (overrule) global
rules, and a most specific module doubles as a new *version* of a more
general one (Section 5).

:class:`KnowledgeBase` is the mutable builder exposing those
abstractions:

>>> kb = KnowledgeBase()
>>> kb.define("bird", '''
...     fly(X) :- bird_of(X).
... ''')
>>> kb.define("penguin", '''
...     -fly(X) :- penguin_of(X).
...     bird_of(X) :- penguin_of(X).
... ''', isa=["bird"])
>>> kb.tell("penguin", "penguin_of(tweety).")
>>> kb.ask("penguin", "-fly(tweety)")
True

The knowledge base holds one immutable :class:`OrderedProgram` and
every mutation replaces it by its successor.  Mutations are absorbed
*incrementally* (docs/maintenance.md): telling or retracting ground
facts only dirties the cached views whose ``C*`` contains the mutated
object, and a dirty view repairs itself through the delta engine on
its next read instead of recomputing from scratch.  Structural
mutations (non-fact rules, new isa edges, closure assumptions) still
drop the affected views.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence, Union

from ..core.interpretation import Interpretation, TruthValue
from ..core.maintenance import ASSERT, RETRACT
from ..core.semantics import OrderedSemantics
from ..core.solver import SearchBudget
from ..explain.trace import Explainer
from ..grounding.grounder import GroundingOptions
from ..lang.errors import QueryError, SemanticsError
from ..lang.literals import Literal
from ..lang.parser import parse_rules
from ..obs import get_instrumentation
from ..obs.trace import current_trace
from ..lang.program import Component, FactUpdate, OrderedProgram
from ..lang.rules import Rule
from .query import (
    DEMAND_STRATEGY,
    MODES,
    READ_STRATEGIES,
    Answer,
    QueryMode,
    answers_in,
    evaluate_query,
    goal,
    holds_in,
    query_mode,
)

__all__ = ["KnowledgeBase", "OP_TABLE", "OPS", "ops_of", "field_value"]

#: Most fact updates queued for a cached view nobody reads; one more
#: write drops the view and its next read evaluates cold (no dearer than
#: replaying a queue that long, and the queue cannot grow for ever).
MAX_PENDING_UPDATES = 256


# ----------------------------------------------------------------------
# The command language: every op a knowledge base is asked or told
# ----------------------------------------------------------------------
#: Op kinds: reads are answered by :meth:`KnowledgeBase.answer`, writes
#: applied by :meth:`KnowledgeBase.apply_op`; the server owns the rest.
KINDS = READ, WRITE, ADMIN, STREAM = ("read", "write", "admin", "stream")


class Op(NamedTuple):
    """One op: its name, kind, fields (``?`` marks an optional one; a
    required field is a non-empty string) and one-line help."""

    name: str
    kind: str
    fields: tuple[str, ...]
    help: str


#: Every op, declared once: the query server's op sets and request
#: checks, the REPL's op words and ``olp query`` / ``olp why`` read it.
OP_TABLE = (
    Op("query", READ, ("view", "pattern", "mode?", "strategy?"), "answer a literal pattern"),
    Op("ask", READ, ("view", "pattern", "mode?", "strategy?"), "does a literal pattern hold"),
    Op("explain", READ, ("view", "pattern", "strategy?"),
       "derivation tree (or failure analysis) for a literal"),
    Op("tell", WRITE, ("view", "rules"), "add rules and facts to an object"),
    Op("retract", WRITE, ("view", "rules"), "withdraw told ground facts"),
    Op("define", WRITE, ("view", "rules?", "isa?"), "add an object below its isa parents"),
    Op("stats", ADMIN, (), "serving counters"),
    Op("health", ADMIN, (), "liveness and queue depth"),
    Op("metrics", ADMIN, (), "Prometheus text exposition of every instrument"),
    Op("slow", ADMIN, (), "the slow-query ring buffer"),
    Op("shutdown", ADMIN, (), "drain and stop"),
    Op("subscribe", STREAM, ("from_version?", "views?"), "stream published journal entries"),
)
OPS = {op.name: op for op in OP_TABLE}


def ops_of(kind: str) -> frozenset[str]:
    return frozenset(op.name for op in OP_TABLE if op.kind == kind)


def _number(v: Any) -> bool:
    """A non-negative JSON number — never a boolean."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and not v < 0


def _names(v: Any, nonempty: bool = False) -> bool:
    return isinstance(v, list) and all(isinstance(p, str) and (p or not nonempty) for p in v)


_MUST = "op {op!r} field {key!r} must be "
#: The type of every required field.
_REQUIRED = (
    None, lambda v: isinstance(v, str) and v != "", "op {op!r} requires a non-empty string {key!r}"
)

#: Each field's type: the value an absent optional field takes, the
#: test a present value must pass, and the refusal (formatted with
#: ``op``, ``key`` and ``value``) when it does not.
FIELD_TYPES: dict[str, tuple[Any, Callable[[Any], bool], str]] = {
    "view": _REQUIRED,
    "pattern": _REQUIRED,
    "rules": ("", lambda v: isinstance(v, str), _MUST + "a string"),
    "isa": ((), _names, _MUST + "a list of strings"),
    "mode": (MODES[0], lambda v: v in MODES, f"unknown mode {{value!r}}; expected one of {MODES}"),
    "strategy": (None, lambda v: v is None or v in READ_STRATEGIES,
                 "unknown read strategy {value!r}; expected one of " + ", ".join(READ_STRATEGIES)),
    "from_version": (
        0, lambda v: _number(v) and isinstance(v, int), _MUST + "a non-negative integer"
    ),
    "views": (None, lambda v: v is None or (v != [] and _names(v, nonempty=True)),
              _MUST + "a non-empty list of object names"),
    # Any request may carry a relative deadline, whatever its op.
    "deadline_ms": (
        None, lambda v: v is None or _number(v), "{key!r} must be a non-negative number"
    ),
}

_ABSENT = object()


def field_value(field: str, op: str, data: dict, error: type[Exception]) -> Any:
    """Field ``field`` (``?`` when optional) of a decoded request of op
    ``op``, checked against its type: a JSON list comes back a tuple, an
    absent optional field as its default; anything else raises ``error``."""
    key = field.rstrip("?")
    default, accepts, refusal = FIELD_TYPES[key] if key != field else _REQUIRED
    value = data.get(key, _ABSENT)
    if value is _ABSENT and key != field:
        return default
    if not accepts(value):
        raise error(refusal.format(op=op, key=key, value=value))
    return tuple(value) if isinstance(value, list) else value


class KnowledgeBase:
    """A mutable collection of objects (components) with isa inheritance.

    Terminology: ``child isa parent`` puts ``child < parent`` in the
    order, so the child *sees and may overrule* the parent's rules.
    """

    def __init__(
        self,
        grounding: Optional[GroundingOptions] = None,
        budget: Optional[SearchBudget] = None,
    ) -> None:
        self._program = OrderedProgram(())
        self._grounding = grounding if grounding is not None else GroundingOptions()
        self._budget = budget if budget is not None else SearchBudget()
        self._semantics_cache: dict[str, OrderedSemantics] = {}
        #: Fact updates queued per cached view (one per write, shared by
        #: every view that sees the written object), absorbed on the
        #: view's next read.
        self._pending: dict[str, list[FactUpdate]] = {}
        #: Disk-backed extensional stores per object, as fact sources
        #: (read-only here; writes keep flowing through tell/retract +
        #: the delta engine).
        self._edb: dict[str, "EdbFactSource"] = {}
        #: view -> compiled demand route of the held program value
        #: (docs/query.md); dropped with that value.
        self._demand_routes: dict[str, "CompiledDemand"] = {}

    @classmethod
    def from_program(
        cls,
        program: OrderedProgram,
        grounding: Optional[GroundingOptions] = None,
        budget: Optional[SearchBudget] = None,
    ) -> "KnowledgeBase":
        """A mutable knowledge base over an existing ordered program.

        The program's components become objects and its order relation
        the isa hierarchy, verbatim (no implicit ``_defaults`` linking),
        so ``kb.program()`` round-trips to an order-equivalent program.
        """
        kb = cls(grounding=grounding, budget=budget)
        kb._replace_program(program)
        return kb

    # ------------------------------------------------------------------
    # Configuration (read-only; the option objects are frozen)
    # ------------------------------------------------------------------
    @property
    def grounding(self) -> GroundingOptions:
        return self._grounding

    @property
    def budget(self) -> SearchBudget:
        return self._budget

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def define(
        self,
        name: str,
        rules: Union[str, Iterable[Rule]] = (),
        isa: Sequence[str] = (),
    ) -> None:
        """Create an object with optional rules and isa parents.

        Raises:
            SemanticsError: if the object already exists or a parent is
                unknown.
        """
        if name in self._program:
            raise SemanticsError(f"object {name!r} already defined")
        below = list(isa)
        if self.DEFAULTS_OBJECT in self._program and name != self.DEFAULTS_OBJECT:
            below.append(self.DEFAULTS_OBJECT)
        self._install(Component(name, self._parse(rules)), below)
        # A fresh object sits below (or beside) everything that exists,
        # so no cached view can see it: existing views stay warm.

    def tell(self, name: str, rules: Union[str, Iterable[Rule]]) -> None:
        """Add rules to an existing object.

        Ground facts flow to the cached views through the delta engine
        (only views whose ``C*`` contains ``name`` are touched); any
        non-fact rule makes the mutation structural, dropping the
        views that see ``name``.
        """
        self._require(name)
        parsed = self._parse(rules)
        if all(r.is_fact and r.is_ground for r in parsed):
            self._write_facts(ASSERT, name, parsed)
        else:
            self._install(self._program.component(name).extend(parsed))
            self._drop_views_seeing(name)

    def isa(self, child: str, parent: str) -> None:
        """Declare ``child < parent`` (child inherits from parent)."""
        self._require(child)
        self._install(self._program.component(child), [parent])
        # Every view that sees the child now also sees the parent's
        # rules: structural for exactly those views.
        self._drop_views_seeing(child)

    def attach_edb(self, name: str, store) -> None:
        """Attach a disk-backed :class:`~repro.db.edb.EdbStore` to an
        object as its extensional fact base.

        The store is read-only from the knowledge base's point of view:
        subsequent :meth:`tell`/:meth:`retract` calls keep flowing
        through the delta pipeline and are unioned with the store's
        rows at query time.  Demand queries (``strategy="demand"``)
        fetch only the tuples their magic predicates request; full
        materialization (:meth:`view`, :meth:`least_model`) scans the
        store into the program, which is expensive by design — see
        ``docs/query.md``.

        The object is created when it does not exist yet.
        """
        from ..query.sources import EdbFactSource

        if name not in self._program:
            self.define(name)
        self._edb[name] = EdbFactSource(store)
        self._demand_routes.clear()
        self._drop_views_seeing(name)

    def edb_sources(self, name: str) -> tuple:
        """The attached EDB stores visible from ``name``'s view, as
        :class:`~repro.query.sources.FactSource` objects (the same
        object per store on every call)."""
        self._require(name)
        if not self._edb:
            return ()
        return tuple(
            self._edb[obj] for obj in sorted(self.scope(name)) if obj in self._edb
        )

    def retract(self, name: str, rules: Union[str, Iterable[Rule]]) -> None:
        """Remove previously told ground facts from an object.

        Each fact removes one told copy; affected cached views repair
        incrementally on their next read (a retraction can un-overrule
        or un-defeat inherited rules, restoring more general defaults).

        Raises:
            SemanticsError: if a rule is not a ground fact, or the fact
                was never told (the whole batch is rejected atomically).
        """
        self._require(name)
        parsed = self._parse(rules)
        for r in parsed:
            if not (r.is_fact and r.is_ground):
                raise SemanticsError(
                    f"only ground facts can be retracted, not {r}"
                )
        self._write_facts(RETRACT, name, parsed)

    def derive(
        self,
        name: str,
        parent: str,
        rules: Union[str, Iterable[Rule]] = (),
    ) -> None:
        """Create a new *version* of ``parent``: a fresh most-specific
        object below it (Section 5's versioning reading)."""
        self.define(name, rules, isa=[parent])

    def apply_op(self, op: dict) -> None:
        """Apply one protocol-shaped write op (``{"op", "view", "rules",
        "isa"}``) to this knowledge base.

        This is the single replay path shared by WAL recovery, follower
        apply, and test oracles — whatever the server logged or streamed
        re-executes here through the same delta engine the leader used.

        Raises:
            SemanticsError: under exactly the conditions of the
                underlying :meth:`tell`/:meth:`retract`/:meth:`define`.
            ValueError: for an unknown op kind.
        """
        kind = op.get("op")
        view = op["view"]
        rules = op.get("rules") or ""
        if kind == "tell":
            self.tell(view, rules)
        elif kind == "retract":
            self.retract(view, rules)
        elif kind == "define":
            self.define(view, rules, isa=list(op.get("isa") or ()))
        else:
            raise ValueError(f"cannot replay unknown op {kind!r}")

    def answer(
        self, op: dict, pinned: Optional[dict[str, Interpretation]] = None
    ) -> dict[str, Any]:
        """One read op (``query``, ``ask`` or ``explain``) answered as the
        result dict the query server encodes: the one read dispatch of
        the leader and its followers (which pass a snapshot's ``pinned``
        models, see :meth:`read`), the REPL and ``olp query`` / ``olp why``.
        """
        kind, view, pattern = op["op"], op["view"], op["pattern"]
        if kind == "explain":
            ctx = current_trace()
            if ctx is not None:
                ctx.annotate(route="materialized")
            sem = self.view(view)
            if pinned is not None:
                pinned.setdefault(view, sem.least_model)
            value = sem.value(pattern)
            return {
                "literal": pattern,
                "value": value.name.lower(),
                "derived": value is TruthValue.TRUE,
                "explanation": Explainer(sem).explain(pattern),
            }
        mode = op.get("mode", MODES[0])
        found = self.read(
            view, pattern, mode, op.get("strategy"), first=kind == "ask", pinned=pinned
        )
        if kind == "ask":
            return {"holds": found}
        return {
            "answers": [
                {
                    "literal": str(a.literal),
                    "bindings": {str(v): str(t) for v, t in a.bindings.items()},
                }
                for a in found
            ],
            "count": len(found),
            "mode": mode,
        }

    # ------------------------------------------------------------------
    # Negation conventions (Section 2's discussion after Example 4)
    # ------------------------------------------------------------------
    #: Name of the implicit defaults object holding closure assumptions.
    DEFAULTS_OBJECT = "_defaults"

    def assume_closed(
        self, predicate: str, arity: int, negative: bool = True
    ) -> None:
        """Declare a closure assumption for one predicate.

        The paper: "any assumption for deriving negative literals must
        be explicitly declared".  Three conventions are available per
        predicate:

        * ``assume_closed(p, n)`` — classical CWA: ``¬p(X..)`` holds
          unless overruled (the paper's situation (i));
        * ``assume_closed(p, n, negative=False)`` — the dual: ``p(X..)``
          holds unless overruled (situation (ii));
        * no declaration — everything stays undefined unless explicitly
          derived (situation (iii), the default).

        The assumption lives in an implicit most-general object
        ``_defaults`` placed above every user object, so every object's
        local and inherited rules overrule it.
        """
        from ..lang.literals import Atom, Literal
        from ..lang.terms import Variable

        variables = tuple(Variable(f"X{i + 1}") for i in range(arity))
        head = Literal(Atom(predicate, variables), not negative)
        users = self.objects - {self.DEFAULTS_OBJECT}
        if self.DEFAULTS_OBJECT in self._program:
            defaults = self._program.component(self.DEFAULTS_OBJECT)
        else:
            defaults = Component(self.DEFAULTS_OBJECT)
        self._replace_program(
            self._program.with_component(
                defaults.extend([Rule(head, ())]), above=users
            )
        )
        self._invalidate()

    def _install(self, obj: Component, parents: Sequence[str] = ()) -> None:
        """Install ``obj`` (new, or replacing its namesake) below
        ``parents``; a cycle raises before anything changes."""
        for parent in parents:
            self._require(parent)
        self._replace_program(self._program.with_component(obj, below=parents))

    def _replace_program(self, program: OrderedProgram) -> None:
        """Move to a new program value; what was compiled from the old
        one goes with it."""
        self._program = program
        self._demand_routes.clear()

    def _parse(self, rules: Union[str, Iterable[Rule]]) -> list[Rule]:
        if isinstance(rules, str):
            return parse_rules(rules)
        return list(rules)

    def _require(self, name: str) -> None:
        if name not in self._program:
            raise SemanticsError(f"unknown object {name!r}")

    def _invalidate(self) -> None:
        self._semantics_cache.clear()
        self._pending.clear()

    def rewind(self, program: OrderedProgram) -> None:
        """Move back to an earlier program value of this knowledge base
        — a write its owner could not make durable must not reach
        readers.  O(1) plus dropping every cached view."""
        self._replace_program(program)
        self._invalidate()

    # ------------------------------------------------------------------
    # Fine-grained invalidation (docs/maintenance.md)
    # ------------------------------------------------------------------
    def seers(self, name: str) -> frozenset[str]:
        """Objects whose point of view sees ``name`` (``name ∈ C*``) —
        exactly the views a mutation of ``name`` can change."""
        self._require(name)
        return self._program.order.downset(name)

    def scope(self, name: str) -> frozenset[str]:
        """The objects ``name``'s point of view consults (``C*``, the
        upset) — fixed once ``name`` is defined, since isa edges are
        only added at define time of the child.  Replication filters
        use it to select the journal prefix a view-subset follower
        needs (``docs/replication.md``)."""
        self._require(name)
        return self._program.order.upset(name)

    def _seeing_views(self, name: str) -> list[str]:
        """Cached views whose ``C*`` contains ``name`` — exactly the
        views whose meaning a mutation of ``name`` can change."""
        down = self._program.order.downset(name)
        return [view for view in self._semantics_cache if view in down]

    def _drop_views_seeing(self, name: str) -> None:
        for view in self._seeing_views(name):
            del self._semantics_cache[view]
            self._pending.pop(view, None)

    def _write_facts(
        self, kind: str, name: str, facts: Iterable[Rule]
    ) -> None:
        """Move to the successor program and queue the fact deltas for
        every cached view that sees ``name``; views that cannot see the
        object stay cached *and* clean."""
        update = self._program.update_facts([(kind, name, r.head) for r in facts])
        self._replace_program(update.program)
        for view in self._seeing_views(name):
            queue = self._pending.setdefault(view, [])
            if len(queue) < MAX_PENDING_UPDATES:
                queue.append(update)
            else:
                # Nobody reads this view: stop queueing for it.
                del self._semantics_cache[view], self._pending[view]

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def objects(self) -> frozenset[str]:
        return self._program.component_names

    def parents(self, name: str) -> frozenset[str]:
        """Direct isa parents of an object (its covers in the order)."""
        self._require(name)
        order = self._program.order
        above = order.strictly_above(name)
        return frozenset(
            high for high in above if not any(order.less(mid, high) for mid in above)
        )

    def program(self) -> OrderedProgram:
        """The knowledge base as an ordered program: the held immutable
        value itself, O(1), sharing structure with every earlier version
        (the server pins it in each published snapshot).

        Attached EDB stores are *not* expanded here; use
        :meth:`_program_for_eval` where materialization needs the
        extensional rows.
        """
        return self._program

    def _program_for_eval(self) -> OrderedProgram:
        """The program with attached EDB rows expanded into facts — the
        input to full materialization.  O(store size); the demand path
        never builds this."""
        program = self._program
        for name, source in self._edb.items():
            program = program.with_component(
                program.component(name).extend(source.store.facts())
            )
        return program

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def view(self, name: str) -> OrderedSemantics:
        """The semantics of the KB from one object's point of view.

        A cached view with queued fact deltas repairs itself through
        the delta engine before it is returned.
        """
        self._require(name)
        cached = self._semantics_cache.get(name)
        if cached is None:
            cached = OrderedSemantics(
                self._program_for_eval(),
                name,
                grounding=self._grounding,
                budget=self._budget,
            )
            self._semantics_cache[name] = cached
            return cached
        pending = self._pending.pop(name, None)
        if pending:
            with get_instrumentation().span(
                "kb.view.repair", view=name, ops=sum(len(u.ops) for u in pending)
            ):
                if self.edb_sources(name):
                    # The view's program carries the stores' rows as
                    # facts; only it can count copies against them.
                    cached.apply_ops([op for u in pending for op in u.ops])
                else:
                    cached.apply_updates(pending)
        return cached

    def ask(
        self,
        name: str,
        literal: Union[Literal, str],
        mode: Union[QueryMode, str] = QueryMode.CAUTIOUS,
        strategy: Optional[str] = None,
    ) -> bool:
        """Is a literal (pattern) entailed from an object's point of
        view?  :meth:`read` stopping at the first match."""
        return self.read(name, literal, mode, strategy, first=True)

    def value(self, name: str, literal: Union[Literal, str]) -> TruthValue:
        """Truth value in the object's least model."""
        return self.view(name).value(literal)

    def query(
        self,
        name: str,
        pattern: Union[Literal, str],
        mode: Union[QueryMode, str] = QueryMode.CAUTIOUS,
        strategy: Optional[str] = None,
    ) -> list[Answer]:
        """All bindings of a literal pattern entailed at an object
        (:meth:`read`)."""
        return self.read(name, pattern, mode, strategy)

    def read(
        self,
        name: str,
        pattern: Union[Literal, str],
        mode: Union[QueryMode, str] = QueryMode.CAUTIOUS,
        strategy: Optional[str] = None,
        *,
        first: bool = False,
        pinned: Optional[dict[str, Interpretation]] = None,
    ) -> Union[list[Answer], bool]:
        """The one read path: :meth:`query`, :meth:`ask` and the
        server's ``query``/``ask`` (leader and follower) all answer here.

        1. ``mode`` and ``strategy`` (one of ``READ_STRATEGIES``, None
           meaning ``"auto"``) are validated.
        2. The read is offered to the demand route when ``strategy`` is
           ``"demand"``, or when it is unforced, cautious and ground and
           materialization would not be — or stay — free: the view has
           no warm model, or it sees an attached store.
        3. The route is this knowledge base's, compiled once per held
           program value (docs/query.md).
        4. Otherwise — or when the demand route declines — the
           materialized least model answers a cautious read and the
           stable models any other.

        Answers are identical on either route.  ``first`` returns
        whether there is an answer, stopping at the first match of a
        model.  ``pinned`` is a ``view -> least model`` map the caller
        publishes (a server snapshot's): a cautious read answers from
        it and pins the model it had to materialize.
        """
        mode = query_mode(mode)
        if strategy is not None:
            field_value("strategy?", "read", {"strategy": strategy}, QueryError)
        sources = self.edb_sources(name) if self._edb else ()
        if strategy == DEMAND_STRATEGY or (
            (sources or name not in self._semantics_cache)
            and mode is QueryMode.CAUTIOUS
            and goal(pattern).is_ground
        ):
            from ..query import demand_read

            self._require(name)  # the model path checks it in view()
            answers = demand_read(
                self._demand_routes, self._program, name, pattern, mode.value, sources
            )
            if answers is not None:
                return bool(answers) if first else answers
        if mode is not QueryMode.CAUTIOUS:
            answers = evaluate_query(self.view(name), pattern, mode)
            return bool(answers) if first else answers
        model = pinned.get(name) if pinned is not None else None
        if model is None:
            model = self.least_model(name)
            if pinned is not None:
                pinned[name] = model
        return holds_in(model, pattern) if first else answers_in(model, pattern)

    def least_model(self, name: str) -> Interpretation:
        return self.view(name).least_model

    def stable_models(self, name: str) -> list[Interpretation]:
        return self.view(name).stable_models()
