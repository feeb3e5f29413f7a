#!/usr/bin/env python3
"""The deductive-database side of Example 6: relations + recursive rules.

The paper's ancestor program defines ``parent`` "through a database
relation".  This example tells the extensional facts to a
knowledge-base object, answers the recursive IDB goal-directed
(``strategy="demand"``: a magic-sets rewrite, no grounding over the
Herbrand universe), cross-checks those answers against the materialized
least model, and then reads the rule with negation through ``OV`` — the
ordered version of Section 3, whose closed-world component makes
``-child(X)`` derivable.

Run:  python examples/deductive_db.py
"""

from repro import KnowledgeBase, Variable, parse_rules
from repro.kb import evaluate_query
from repro.reductions import ordered_version

FAMILY = [
    ("adam", "cain"),
    ("adam", "abel"),
    ("adam", "seth"),
    ("cain", "enoch"),
    ("seth", "enos"),
    ("enos", "kenan"),
]

#: The extensional ``parent`` relation as ground facts.
FACTS = parse_rules(" ".join(f"parent({a}, {b})." for a, b in FAMILY))

RULES = parse_rules(
    """
    anc(X, Y) :- parent(X, Y).
    anc(X, Y) :- parent(X, Z), anc(Z, Y).
    siblings(X, Y) :- parent(P, X), parent(P, Y), X != Y.
    child(X) :- parent(Y, X).
    """
)

# Negation in a seminegative program is the paper's closed world: a
# patriarch is a parent who is *derivably* nobody's child.
PATRIARCH = parse_rules("patriarch(X) :- parent(X, Y), -child(X).")

X = Variable("X")


def names(answers) -> list[str]:
    return sorted({str(a.bindings[X]) for a in answers})


def main() -> None:
    print("Deductive database (Example 6 of the paper)")
    print("=" * 60)
    print(f"EDB: parent relation with {len(FACTS)} tuples")

    kb = KnowledgeBase()
    kb.define("family", RULES)
    kb.tell("family", FACTS)

    ancestors = kb.query("family", "anc(adam, X)", strategy="demand")
    print("\nadam's descendants:", names(ancestors))
    assert kb.ask("family", "anc(adam, kenan)", strategy="demand")
    assert not kb.ask("family", "anc(kenan, adam)", strategy="demand")

    siblings = kb.query("family", "siblings(cain, X)", strategy="demand")
    print("cain's siblings:   ", names(siblings))

    # The ordered reading: OV adds the explicit closed world, so
    # non-membership is *derivably false*, not merely absent.
    sem = ordered_version(FACTS + RULES + PATRIARCH).semantics()
    patriarchs = evaluate_query(sem, "patriarch(X)")
    print("patriarchs:        ", names(patriarchs))
    assert sem.holds("patriarch(adam)")
    assert not sem.holds("patriarch(cain)")

    # Differential check: goal-directed answers equal the answers read
    # off the materialized least model, goal by goal.
    for goal in ("anc(adam, X)", "anc(X, kenan)", "siblings(cain, X)", "child(X)"):
        demand = kb.query("family", goal, strategy="demand")
        materialized = evaluate_query(kb.view("family"), goal)
        assert [str(a) for a in demand] == [str(a) for a in materialized], goal
    print("\ndemand answers == materialized answers ✓")

    assert sem.holds("-anc(kenan, adam)")
    print("OV(C): -anc(kenan, adam) is explicitly derived (CWA component)")
    print("\nOK")


if __name__ == "__main__":
    main()
