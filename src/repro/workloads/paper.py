"""Every program that appears in the paper, verbatim.

Figures 1–3 and the programs of Examples 2–9 are encoded exactly as
printed (Section 2's ``P1 .. P5``, Section 3's Examples 6–7, Section 4's
Examples 8–9).  The integration tests in ``tests/paper`` assert the
outcomes the paper states for each of them, at the printed size and at
scale.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..lang.parser import parse_program, parse_rules
from ..lang.program import OrderedProgram
from ..lang.rules import Rule

__all__ = [
    "figure1",
    "figure1_flat",
    "figure2",
    "figure3",
    "example3",
    "example4",
    "example4_extended",
    "example5",
    "example6_ancestor",
    "example7",
    "example8_birds",
    "example9_colored",
    "scaled_figure1",
    "scaled_figure2",
    "scaled_figure3",
]


def figure1() -> OrderedProgram:
    """Figure 1 — ordered program ``P1`` with overruling.

    ``C2`` holds the general bird knowledge; the more specific ``C1``
    knows the penguin is a ground animal and that ground animals do not
    fly.  In ``C1`` the penguin does not fly while the pigeon (inherited
    rule) does.
    """
    return parse_program(
        """
        component c2 {
            bird(penguin).
            bird(pigeon).
            fly(X) :- bird(X).
            -ground_animal(X) :- bird(X).
        }
        component c1 {
            ground_animal(penguin).
            -fly(X) :- ground_animal(X).
        }
        order c1 < c2.
        """
    )


def figure1_flat() -> OrderedProgram:
    """Example 2's ``P̂1``: all Figure-1 rules merged into one component.

    With the hierarchy flattened, contradicting rules *defeat* each other
    instead of being overruled: ``fly(penguin)`` and
    ``ground_animal(penguin)`` become undefined.
    """
    rules = parse_rules(
        """
        bird(penguin).
        bird(pigeon).
        fly(X) :- bird(X).
        -ground_animal(X) :- bird(X).
        ground_animal(penguin).
        -fly(X) :- ground_animal(X).
        """
    )
    return OrderedProgram.single(rules, name="c")


def figure2() -> OrderedProgram:
    """Figure 2 — ordered program ``P2`` with defeating.

    ``C3`` says mimmo is rich, ``C2`` says he is poor; from ``C1``'s
    point of view neither expert outranks the other, both claims are
    defeated, and ``free_ticket(mimmo)`` stays undefined.
    """
    return parse_program(
        """
        component c3 {
            rich(mimmo).
            -poor(X) :- rich(X).
        }
        component c2 {
            poor(mimmo).
            -rich(X) :- poor(X).
        }
        component c1 {
            free_ticket(X) :- poor(X).
        }
        order c1 < c2.
        order c1 < c3.
        """
    )


def figure3(myself_facts: Iterable[str] = ()) -> OrderedProgram:
    """Figure 3 — the loan program, with scenario facts for ``c1``.

    ``c2`` (Expert2) is independent; ``c3`` (Expert3) refines ``c4``
    (Expert4).  The ``myself`` component ``c1`` sits below everything and
    holds the scenario facts, e.g. ``["inflation(12)."]``.

    The three scenarios discussed in the introduction:

    * no facts — nothing can be inferred;
    * ``inflation(12).`` — Expert2 fires, ``take_loan`` holds;
    * ``inflation(12). loan_rate(16).`` — Expert2 and Expert4 defeat
      each other, nothing can be said about taking loans;
    * ``inflation(19). loan_rate(16).`` — Expert3 overrules Expert4 and
      ``take_loan`` holds.
    """
    facts = "\n".join(myself_facts)
    return parse_program(
        f"""
        component c2 {{
            take_loan :- inflation(X), X > 11.
        }}
        component c4 {{
            -take_loan :- loan_rate(X), X > 14.
        }}
        component c3 {{
            take_loan :- inflation(X), loan_rate(Y), X > Y + 2.
        }}
        component c1 {{
            {facts}
        }}
        order c1 < c2.
        order c1 < c3 < c4.
        """
    )


def example3() -> OrderedProgram:
    """Example 3's ``P3``: one component ``{a :- b.  -a :- b.}``.

    Its models are exactly ``{b}``, ``{-b}``, ``{a,-b}``, ``{-a,-b}``
    and ``{}`` — in particular the Herbrand base is *not* a model.
    """
    return OrderedProgram.single(parse_rules("a :- b.  -a :- b."), name="c")


def example4() -> OrderedProgram:
    """Example 4's ``P4``: the single rule ``a :- b.`` — the only
    assumption-free model is empty."""
    return OrderedProgram.single(parse_rules("a :- b."), name="c1")


def example4_extended() -> OrderedProgram:
    """Example 4's second program: ``P4`` plus a component ``c2`` above
    with the explicit defaults ``-a.`` and ``-b.`` — now ``{-a,-b}`` is
    the unique assumption-free model in ``c1``."""
    return parse_program(
        """
        component c2 {
            -a.
            -b.
        }
        component c1 {
            a :- b.
        }
        order c1 < c2.
        """
    )


def example5() -> OrderedProgram:
    """Example 5's ``P5``: two stable models ``{a,-b,c}`` and
    ``{-a,b,c}``; ``{c}`` is assumption-free but not stable."""
    return parse_program(
        """
        component c2 {
            a.
            b.
            c.
        }
        component c1 {
            -a :- b, c.
            -b :- a.
            -b :- -b.
        }
        order c1 < c2.
        """
    )


def example6_ancestor(parents: Sequence[tuple[str, str]] = (
    ("adam", "cain"),
    ("adam", "abel"),
    ("cain", "enoch"),
)) -> list[Rule]:
    """Example 6's ancestor program (a seminegative program ``C`` to be
    wrapped by ``OV``/``EV``); ``parent`` is the database relation."""
    lines = [f"parent({a}, {b})." for a, b in parents]
    lines.append("anc(X, Y) :- parent(X, Y).")
    lines.append("anc(X, Y) :- parent(X, Z), anc(Z, Y).")
    return parse_rules("\n".join(lines))


def example7() -> list[Rule]:
    """Example 7's program ``{p <- ¬p}``: ``{p}`` is a 3-valued model of
    ``C`` but not a model of ``OV(C)`` in ``C`` (the implicit fact ``¬p``
    is not overruled by a non-blocked rule); it *is* a model of
    ``EV(C)`` thanks to the reflexive rule ``p <- p``."""
    return parse_rules("p :- -p.")


def example8_birds(
    birds: Sequence[str] = ("penguin", "pigeon"),
    ground_animals: Sequence[str] = ("penguin",),
) -> list[Rule]:
    """Example 8's negative program: flying birds with ground-animal
    exceptions, as a plain negative program (no components — the 3-level
    reduction of Section 4 supplies them)."""
    lines = [f"bird({b})." for b in birds]
    lines += [f"ground_animal({g})." for g in ground_animals]
    lines.append("fly(X) :- bird(X).")
    lines.append("-fly(X) :- ground_animal(X).")
    return parse_rules("\n".join(lines))


def example9_colored(
    colors: Sequence[str] = ("red", "green", "blue"),
    ugly: Sequence[str] = ("green",),
) -> list[Rule]:
    """Example 9's choice program: "select exactly one of the available
    non-ugly colors".  Under the 3-level semantics it has one stable
    model per non-ugly color."""
    lines = [f"color({c})." for c in colors]
    lines += [f"ugly_color({u})." for u in ugly]
    lines += [f"color({u})." for u in ugly if u not in colors]
    lines.append("colored(X) :- color(X), -colored(Y), X != Y.")
    lines.append("-colored(X) :- ugly_color(X).")
    return parse_rules("\n".join(lines))


# ----------------------------------------------------------------------
# Scaled variants of the figures
# ----------------------------------------------------------------------

def scaled_figure1(n_birds: int, n_penguins: int) -> OrderedProgram:
    """Figure 1 at scale: ``n_birds`` birds of which ``n_penguins`` are
    ground animals.  The expected meaning in ``c1``: exactly the
    non-penguin birds fly."""
    if n_penguins > n_birds:
        raise ValueError("n_penguins cannot exceed n_birds")
    general = ["fly(X) :- bird(X).", "-ground_animal(X) :- bird(X)."]
    general += [f"bird(b{i})." for i in range(n_birds)]
    specific = ["-fly(X) :- ground_animal(X)."]
    specific += [f"ground_animal(b{i})." for i in range(n_penguins)]
    return OrderedProgram(
        {
            "c2": parse_rules("\n".join(general)),
            "c1": parse_rules("\n".join(specific)),
        },
        [("c1", "c2")],
    )


def scaled_figure2(n_people: int, n_contested: int) -> OrderedProgram:
    """Figure 2 at scale: ``n_people`` individuals; the first
    ``n_contested`` are claimed rich by one expert and poor by the other
    (defeated), the rest are uncontested (poor only, so they do get the
    free ticket).

    The experts state *ground facts* about the people they know (the
    shape of the original figure restricted to mimmo).  A non-ground
    rule ``-poor(X) :- rich(X)`` would instead defeat ``poor(p)`` for
    *every* person — a Definition-2 defeater need only be non-blocked,
    not applicable — leaving nobody with a ticket; see EXPERIMENTS.md.
    """
    if n_contested > n_people:
        raise ValueError("n_contested cannot exceed n_people")
    rich_rules = [f"rich(p{i})." for i in range(n_contested)]
    rich_rules += [f"-poor(p{i})." for i in range(n_contested)]
    poor_rules = [f"poor(p{i})." for i in range(n_people)]
    poor_rules += [f"-rich(p{i})." for i in range(n_contested)]
    return OrderedProgram(
        {
            "c3": parse_rules("\n".join(rich_rules)),
            "c2": parse_rules("\n".join(poor_rules)),
            "c1": parse_rules("free_ticket(X) :- poor(X)."),
        },
        [("c1", "c2"), ("c1", "c3")],
    )


def scaled_figure3(
    scenarios: Mapping[str, tuple[int, int]],
) -> dict[str, OrderedProgram]:
    """Figure 3 over many ``(inflation, loan_rate)`` scenarios; returns
    one loan program per named scenario."""
    return {
        name: figure3(
            (f"inflation({inflation}).", f"loan_rate({rate}).")
        )
        for name, (inflation, rate) in scenarios.items()
    }
