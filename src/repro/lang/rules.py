"""Rules (Section 2 of the paper).

A *rule* is ``Q0 <- Q1, ..., Qm`` where the ``Qi`` are literals; ``Q0``
is the head and ``Q1 .. Qm`` the body.  Following the paper:

* a **negative rule** (the general case, just "rule") allows negative
  literals anywhere, including the head;
* a **seminegative rule** has a positive head (negative literals may
  still occur in the body);
* a **positive rule** (Horn clause) has only positive literals;
* a **fact** is a rule with an empty body, and a rule is **ground**
  when it is variable free.

Bodies may additionally contain :class:`~repro.lang.builtins.Comparison`
guards (Figure 3 uses ``X > 11``); guards are resolved away during
grounding, so *ground* rules produced by the grounder carry literals
only.
"""

from __future__ import annotations

from typing import Iterable, Union

from .builtins import Comparison
from .literals import Literal
from .terms import Variable

__all__ = ["BodyItem", "Rule", "rule", "fact"]

#: Items allowed in rule bodies: literals and comparison guards.
BodyItem = Union[Literal, Comparison]


class Rule:
    """An immutable rule ``head <- body``.

    The paper's accessors are provided verbatim: :attr:`head` is ``H(r)``
    and :meth:`body_literals` is ``B(r)`` (the *set* of literals in the
    body; guards are not part of ``B(r)``).
    """

    __slots__ = ("head", "body", "_literals", "_hash")

    def __init__(self, head: Literal, body: Iterable[BodyItem] = ()) -> None:
        if not isinstance(head, Literal):
            raise TypeError(f"rule head must be a Literal, got {head!r}")
        body = tuple(body)
        guarded = False
        for item in body:
            if not isinstance(item, Literal):
                if not isinstance(item, Comparison):
                    raise TypeError(
                        f"rule body items must be Literal or Comparison, got {item!r}"
                    )
                guarded = True
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", body)
        # B(r), built once: the body itself when it holds no guard.
        literals = tuple(i for i in body if isinstance(i, Literal)) if guarded else body
        object.__setattr__(self, "_literals", literals)
        object.__setattr__(self, "_hash", hash(("rule", head, body)))

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Rule is immutable")

    # ------------------------------------------------------------------
    # Paper notation
    # ------------------------------------------------------------------
    def body_literals(self) -> tuple[Literal, ...]:
        """``B(r)``: the literals of the body, in order (guards excluded)."""
        return self._literals

    def body_literal_set(self) -> frozenset[Literal]:
        """``B(r)`` as a set, the form used by Definition 2."""
        return frozenset(self.body_literals())

    def guards(self) -> tuple[Comparison, ...]:
        """The comparison guards of the body, in order."""
        return tuple(item for item in self.body if isinstance(item, Comparison))

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    @property
    def is_fact(self) -> bool:
        """True when the body is empty (guards count as body)."""
        return not self.body

    @property
    def is_ground(self) -> bool:
        """True when the rule is variable free."""
        return not self.variables()

    @property
    def is_seminegative(self) -> bool:
        """True when the head is positive (body may contain ``¬``)."""
        return self.head.positive

    @property
    def is_positive(self) -> bool:
        """True for Horn clauses: positive head and all-positive body."""
        return self.head.positive and all(
            item.positive for item in self.body if isinstance(item, Literal)
        )

    @property
    def has_negative_head(self) -> bool:
        """True for the paper's 'negative rules' proper: ``¬A <- ...``."""
        return not self.head.positive

    def variables(self) -> frozenset[Variable]:
        result = self.head.variables()
        for item in self.body:
            result |= item.variables()
        return result

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Rule)
            and other._hash == self._hash
            and other.head == self.head
            and other.body == self.body
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Rule") -> bool:
        if not isinstance(other, Rule):
            return NotImplemented
        return str(self) < str(other)

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        body = ", ".join(str(item) for item in self.body)
        return f"{self.head} :- {body}."

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"Rule({self})"


def rule(head: Literal, *body: BodyItem) -> Rule:
    """Shorthand constructor: ``rule(pos('fly', 'X'), pos('bird', 'X'))``."""
    return Rule(head, body)


def fact(head: Literal) -> Rule:
    """Shorthand constructor for a fact."""
    return Rule(head, ())
