"""Models of ordered programs — Definitions 3 and 5, Proposition 2.

An interpretation ``M`` is a **model** for ``P`` in ``C`` when

(a) for each literal ``A ∈ M``, every rule ``r`` with ``H(r) = ¬A`` is
    either blocked or overruled by an **applied** rule, and
(b) for each undefined atom ``A``, every *applicable* rule with head
    ``A`` or ``¬A`` is either overruled or defeated.

Condition (a) guarantees that a value in the model is either never
contradicted or is reconfirmed by a most specific rule; condition (b)
says a derivable value may stay undefined only because its rule is
overruled or defeated.

A model is **total** when it leaves nothing undefined and **exhaustive**
when no proper superset is a model (Definition 5).  Every model extends
to an exhaustive one (Proposition 2) — :meth:`ModelChecker.extend_to_exhaustive`
constructs such an extension.
"""

from __future__ import annotations

from typing import Optional

from ..lang.literals import Literal
from .interpretation import Interpretation
from .statuses import StatusEvaluator

__all__ = ["ModelChecker"]


class ModelChecker:
    """Checks Definition 3 over a fixed evaluator (ground rules + order)."""

    def __init__(self, evaluator: StatusEvaluator, base) -> None:
        self._eval = evaluator
        self._base = frozenset(base)

    @property
    def evaluator(self) -> StatusEvaluator:
        return self._eval

    # ------------------------------------------------------------------
    # Definition 3
    # ------------------------------------------------------------------
    def violates_condition_a(self, interp: Interpretation) -> Optional[Literal]:
        """The first member literal whose complement is derivable and not
        excused, or None when condition (a) holds."""
        ev = self._eval
        snapshot = ev.snapshot(interp)
        for member in interp:
            for r in ev.rules_with_head(member.complement()):
                if snapshot.blocked(r):
                    continue
                if snapshot.overruled_by_applied(r):
                    continue
                return member
        return None

    def violates_condition_b(self, interp: Interpretation) -> Optional[Literal]:
        """The head of the first applicable-but-unexcused rule over an
        undefined atom, or None when condition (b) holds."""
        ev = self._eval
        undefined = interp.undefined_atoms()
        if not undefined:
            return None
        snapshot = ev.snapshot(interp)
        for r in ev.rules:
            if r.head.atom not in undefined:
                continue
            if not snapshot.applicable(r):
                continue
            if snapshot.overruled(r) or snapshot.defeated(r):
                continue
            return r.head
        return None

    def is_model(self, interp: Interpretation) -> bool:
        """Definition 3: conditions (a) and (b) both hold."""
        return (
            self.violates_condition_a(interp) is None
            and self.violates_condition_b(interp) is None
        )

    def why_not_model(self, interp: Interpretation) -> Optional[str]:
        """A human-readable reason, or None when the set is a model."""
        witness = self.violates_condition_a(interp)
        if witness is not None:
            return (
                f"condition (a) fails for {witness}: a rule deriving "
                f"{witness.complement()} is neither blocked nor overruled "
                "by an applied rule"
            )
        witness = self.violates_condition_b(interp)
        if witness is not None:
            return (
                f"condition (b) fails: an applicable rule with head {witness} "
                "over an undefined atom is neither overruled nor defeated"
            )
        return None

    # ------------------------------------------------------------------
    # Definition 5 / Proposition 2
    # ------------------------------------------------------------------
    def is_total_model(self, interp: Interpretation) -> bool:
        return interp.is_total and self.is_model(interp)

    def is_exhaustive(self, interp: Interpretation) -> bool:
        """No proper superset is a model (Definition 5b).

        Checked by searching for *any* strict extension that is a model;
        note that a single-literal extension may fail where a larger one
        succeeds, so the search recurses over all extensions (exponential
        in the number of undefined atoms — use on small bases).
        """
        if not self.is_model(interp):
            return False
        return self._find_proper_extension(interp) is None

    def _find_proper_extension(
        self, interp: Interpretation
    ) -> Optional[Interpretation]:
        undefined = sorted(interp.undefined_atoms(), key=str)
        return self._search_extension(interp, undefined, 0, strict=False)

    def _search_extension(
        self,
        interp: Interpretation,
        undefined: list,
        index: int,
        strict: bool,
    ) -> Optional[Interpretation]:
        if index == len(undefined):
            if strict and self.is_model(interp):
                return interp
            return None
        atom = undefined[index]
        for choice in (Literal(atom, True), Literal(atom, False)):
            extended = interp.with_literals((choice,))
            found = self._search_extension(extended, undefined, index + 1, True)
            if found is not None:
                return found
        return self._search_extension(interp, undefined, index + 1, strict)

    def extend_to_exhaustive(self, interp: Interpretation) -> Interpretation:
        """An exhaustive model extending the given model (Proposition 2).

        Repeatedly replaces the current model by any proper model
        extension until none exists.  Terminates because each step
        strictly grows the literal set.
        """
        if not self.is_model(interp):
            raise ValueError("extend_to_exhaustive requires a model")
        current = interp
        while True:
            extension = self._find_proper_extension(current)
            if extension is None:
                return current
            current = extension
