"""An interactive shell for ordered logic programs.

Launched by ``olp repl [FILE]``.  The session holds the current
(immutable) program and a *focus* component; every mutation moves to a
successor program, and all but ground-fact writes invalidate the cached
semantics.

Commands::

    load FILE                 load an .olp file (replaces the program)
    focus COMPONENT           set the component whose meaning is queried
    assert [COMPONENT] RULE   add a rule (defaults to the focus)
    retract [COMPONENT] FACT  remove a told ground fact
    order A < B               add an order pair
    model                     print the least model of the focus
    stable                    print the stable models
    value LITERAL             truth value in the least model
    query PATTERN [MODE]      bindings (cautious/skeptical/credulous)
    why LITERAL               derivation tree or failure analysis
    statuses                  Definition-2 statuses under the least model
    hierarchy                 ASCII Hasse diagram
    lint                      closure-gap findings
    show                      print the current program
    save FILE                 write the program back to disk
    help / quit

The class is UI-free (reads commands, returns output strings) so the
tests can drive it directly.
"""

from __future__ import annotations

from typing import Callable, Optional

from .analysis.hasse import render_hasse
from .analysis.lint import lint_program
from .core.semantics import OrderedSemantics
from .explain.trace import Explainer
from .kb.query import evaluate_query
from .lang.errors import ReproError
from .lang.parser import parse_program, parse_rule
from .lang.printer import render_program
from .lang.program import ASSERT, RETRACT, Component, OrderedProgram
from .lang.rules import Rule

__all__ = ["ReplSession"]


class ReplSession:
    """The REPL's state machine: one command string in, output out."""

    def __init__(self, program: Optional[OrderedProgram] = None) -> None:
        self._program = OrderedProgram.single((), "main")
        self._focus = "main"
        self._semantics: Optional[OrderedSemantics] = None
        if program is not None:
            self._adopt(program)
        self._commands: dict[str, Callable[[str], str]] = {
            "load": self._cmd_load,
            "focus": self._cmd_focus,
            "assert": self._cmd_assert,
            "retract": self._cmd_retract,
            "order": self._cmd_order,
            "model": self._cmd_model,
            "stable": self._cmd_stable,
            "value": self._cmd_value,
            "query": self._cmd_query,
            "why": self._cmd_why,
            "statuses": self._cmd_statuses,
            "hierarchy": self._cmd_hierarchy,
            "lint": self._cmd_lint,
            "show": self._cmd_show,
            "save": self._cmd_save,
            "help": self._cmd_help,
        }

    # ------------------------------------------------------------------
    # Program state
    # ------------------------------------------------------------------
    def _adopt(self, program: OrderedProgram) -> None:
        self._program = program
        self._focus = min(program.order.minimal_elements(), default="main")
        self._semantics = None

    def program(self) -> OrderedProgram:
        return self._program

    @property
    def focus(self) -> str:
        return self._focus

    def semantics(self) -> OrderedSemantics:
        if self._semantics is None:
            self._semantics = OrderedSemantics(self.program(), self._focus)
        return self._semantics

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def execute(self, line: str) -> str:
        """Run one command line; returns the printable result."""
        line = line.strip()
        if not line or line.startswith("%"):
            return ""
        if line in ("quit", "exit"):
            raise EOFError
        word, _, rest = line.partition(" ")
        handler = self._commands.get(word)
        try:
            if handler is not None:
                return handler(rest.strip())
            # Bare rule syntax: "fly(X) :- bird(X)." asserts into focus.
            if line.endswith("."):
                return self._cmd_assert(line)
            return f"unknown command {word!r}; try 'help'"
        except ReproError as error:
            return f"error: {error}"
        except ValueError as error:
            return f"error: {error}"

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------
    def _invalidate(self) -> None:
        self._semantics = None

    def _cmd_load(self, arg: str) -> str:
        with open(arg) as handle:
            self._adopt(parse_program(handle.read()))
        return (
            f"loaded {len(self._program)} component(s); focus = {self._focus}"
        )

    def _cmd_focus(self, arg: str) -> str:
        if arg not in self._program:
            self._program = self._program.with_component(Component(arg))
        self._focus = arg
        self._invalidate()
        return f"focus = {arg}"

    def _split_target(self, arg: str) -> tuple[str, str]:
        target = self._focus
        word, _, rest = arg.partition(" ")
        if word in self._program and rest.strip().endswith("."):
            target, arg = word, rest.strip()
        return target, arg

    def _cmd_assert(self, arg: str) -> str:
        target, arg = self._split_target(arg)
        r = parse_rule(arg)
        if r.is_fact and r.is_ground:
            self._write_fact(ASSERT, target, r)
        else:
            self._program = self._program.with_component(
                self._program.component(target).extend([r])
            )
            self._invalidate()
        return f"[{target}] {r}"

    def _write_fact(self, kind: str, target: str, r: Rule) -> None:
        """Ground facts repair the cached model through the delta engine
        instead of recomputing the view from scratch."""
        ops = [(kind, target, r.head)]
        if self._semantics is not None:
            self._semantics.apply_ops(ops)
            self._program = self._semantics.program
        else:
            self._program = self._program.update_facts(ops).program

    def _cmd_retract(self, arg: str) -> str:
        target, arg = self._split_target(arg)
        if not arg:
            return "usage: retract [COMPONENT] FACT."
        r = parse_rule(arg)
        if not (r.is_fact and r.is_ground):
            return f"error: only ground facts can be retracted, not {r}"
        self._write_fact(RETRACT, target, r)
        return f"[{target}] retracted {r}"

    def _cmd_order(self, arg: str) -> str:
        parts = [p.strip() for p in arg.split("<")]
        if len(parts) < 2 or not all(parts):
            return "usage: order A < B [< C ...]"
        program = self._program
        for name in parts:
            if name not in program:
                program = program.with_component(Component(name))
        for low, high in zip(parts, parts[1:], strict=False):
            program = program.with_component(program.component(low), below=[high])
        self._program = program  # only once the whole chain is acyclic
        self._invalidate()
        return " < ".join(parts)

    def _cmd_model(self, arg: str) -> str:
        sem = self.semantics()
        model = sem.least_model
        lines = [f"least model of {sem.component}: {model}"]
        undefined = sorted(map(str, model.undefined_atoms()))
        if undefined:
            lines.append(f"undefined: {', '.join(undefined)}")
        return "\n".join(lines)

    def _cmd_stable(self, arg: str) -> str:
        models = self.semantics().stable_models()
        lines = [f"{len(models)} stable model(s):"]
        lines += [f"  [{i}] {m}" for i, m in enumerate(models)]
        return "\n".join(lines)

    def _cmd_value(self, arg: str) -> str:
        return str(self.semantics().value(arg))

    def _cmd_query(self, arg: str) -> str:
        parts = arg.split()
        mode = "cautious"
        if parts and parts[-1] in ("cautious", "skeptical", "credulous"):
            mode = parts[-1]
            arg = " ".join(parts[:-1])
        answers = evaluate_query(self.semantics(), arg, mode)
        if not answers:
            return "no"
        return "\n".join(str(a.literal) for a in answers)

    def _cmd_why(self, arg: str) -> str:
        return Explainer(self.semantics()).explain(arg)

    def _cmd_statuses(self, arg: str) -> str:
        return "\n".join(str(r) for r in self.semantics().statuses())

    def _cmd_hierarchy(self, arg: str) -> str:
        return render_hasse(self.program())

    def _cmd_lint(self, arg: str) -> str:
        findings = lint_program(self.program())
        if not findings:
            return "no findings"
        return "\n\n".join(str(f) for f in findings)

    def _cmd_show(self, arg: str) -> str:
        return render_program(self.program())

    def _cmd_save(self, arg: str) -> str:
        if not arg:
            return "usage: save FILE"
        with open(arg, "w") as handle:
            handle.write(render_program(self.program()))
        return f"saved to {arg}"

    def _cmd_help(self, arg: str) -> str:
        return (
            "commands: load focus assert retract order model stable value "
            "query why statuses hierarchy lint show save help quit\n"
            "bare rules ending in '.' are asserted into the focus component"
        )


def run(path: Optional[str] = None) -> int:  # pragma: no cover - interactive
    """The interactive loop used by ``olp repl``."""
    session = ReplSession()
    if path:
        print(session.execute(f"load {path}"))
    print("ordered logic repl — 'help' for commands, 'quit' to leave")
    while True:
        try:
            line = input(f"olp:{session.focus}> ")
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        try:
            output = session.execute(line)
        except EOFError:
            return 0
        if output:
            print(output)
