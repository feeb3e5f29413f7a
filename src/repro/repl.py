"""An interactive shell for ordered logic programs.

Launched by ``olp repl [FILE]``.  The session is one
:class:`~repro.kb.KnowledgeBase` plus a *focus* object.  A word of
:data:`WORDS` either sends an op of the command language
(:data:`~repro.kb.knowledge_base.OP_TABLE`, the table the query server
checks requests against) — the line parsed into the op's dict, written
through ``KnowledgeBase.apply_op`` or answered by
``KnowledgeBase.answer``, as on the wire — or renders the session::

    load FILE                 load an .olp file (replaces the program)
    focus COMPONENT           set the focus (``define`` a new name)
    assert [COMPONENT] RULE   ``tell`` a rule (defaults to the focus)
    retract [COMPONENT] FACT  ``retract`` a told ground fact
    order A < B               add an order pair
    model                     print the least model of the focus
    stable                    print the stable models
    value LITERAL             truth value in the least model (``explain``)
    query PATTERN [MODE]      bindings (``query``; cautious/skeptical/credulous)
    why LITERAL               derivation tree or failure analysis (``explain``)
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

from typing import Optional

from .analysis.hasse import render_hasse
from .analysis.lint import lint_program
from .core.interpretation import TruthValue
from .core.semantics import OrderedSemantics
from .kb.knowledge_base import OPS, WRITE, KnowledgeBase
from .kb.query import MODES
from .lang.errors import ReproError
from .lang.parser import parse_program, parse_rule
from .lang.printer import render_program
from .lang.program import OrderedProgram

__all__ = ["ReplSession", "WORDS", "render_read"]

#: Every REPL word, in ``help`` order, with the op of the command
#: language it sends (None: a local renderer, the ``_word`` method).
WORDS: dict[str, Optional[str]] = {
    "load": None, "focus": "define", "assert": "tell", "retract": "retract",
    "order": None, "model": None, "stable": None, "value": "explain",
    "query": "query", "why": "explain", "statuses": None, "hierarchy": None,
    "lint": None, "show": None, "save": None, "help": None,
}


def render_read(op: dict, result: dict) -> str:
    """A read's result (:meth:`KnowledgeBase.answer`) as text: the
    explanation, or one answer literal per line (``no`` for none)."""
    if op["op"] == "explain":
        return result["explanation"]
    return "\n".join(a["literal"] for a in result["answers"]) or "no"


class ReplSession:
    """The REPL's state machine: one command string in, output out."""

    def __init__(self, program: Optional[OrderedProgram] = None) -> None:
        if program is None:
            program = OrderedProgram.single((), "main")
        self._adopt(program)

    # ------------------------------------------------------------------
    # Session state: one knowledge base and a focus object
    # ------------------------------------------------------------------
    def _adopt(self, program: OrderedProgram) -> None:
        self._kb = KnowledgeBase.from_program(program)
        self._focus = min(program.order.minimal_elements(), default="main")

    def program(self) -> OrderedProgram:
        return self._kb.program()

    @property
    def focus(self) -> str:
        return self._focus

    def semantics(self) -> OrderedSemantics:
        return self._kb.view(self._focus)

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
        rest = rest.strip()
        if word not in WORDS:
            if not line.endswith("."):
                return f"unknown command {word!r}; try 'help'"
            # Bare rule syntax: "fly(X) :- bird(X)." asserts into focus.
            word, rest = "assert", line
        try:
            if WORDS[word] is None:
                return getattr(self, f"_{word}")(rest)
            return self._send(word, rest)
        except (ReproError, ValueError, OSError) as error:
            return f"error: {error}"

    def _send(self, word: str, arg: str) -> str:
        """Send the op a word names, its dict read off the line, and
        render the reply.  ``define`` takes the argument as its ``view``;
        another op reads the focus — or, before a rule, a leading object
        name — and the rest of the line fills its text field, less a
        trailing mode word when the op declares ``mode``."""
        name = WORDS[word] or ""
        if name == "define":
            if arg not in self._kb.objects:
                self._kb.apply_op({"op": name, "view": arg})
            self._focus = arg
            return f"focus = {arg}"
        fields = OPS[name].fields
        op = {"op": name, "view": self._focus, fields[1]: arg}
        words = arg.split()
        if "mode?" in fields and words and words[-1] in MODES:
            op["mode"] = words.pop()
            op[fields[1]] = " ".join(words)
        if OPS[name].kind != WRITE:
            result = self._kb.answer(op)
            if word == "value":
                return str(TruthValue[result["value"].upper()])
            return render_read(op, result)
        target, _, rule = arg.partition(" ")
        if target in self._kb.objects and rule.strip().endswith("."):
            op["view"], op["rules"] = target, rule.strip()
        if not op["rules"] and name == "retract":
            return "usage: retract [COMPONENT] FACT."
        parsed = parse_rule(op["rules"])  # one rule a line, echoed as parsed
        self._kb.apply_op(op)
        return f"[{op['view']}] {'retracted ' if name == 'retract' else ''}{parsed}"

    # ------------------------------------------------------------------
    # Local renderers
    # ------------------------------------------------------------------
    def _load(self, arg: str) -> str:
        with open(arg) as handle:
            self._adopt(parse_program(handle.read()))
        return f"loaded {len(self.program())} component(s); focus = {self._focus}"

    def _order(self, arg: str) -> str:
        parts = [p.strip() for p in arg.split("<")]
        if len(parts) < 2 or not all(parts):
            return "usage: order A < B [< C ...]"
        before = self._kb.program()
        try:
            for name in parts:
                if name not in self._kb.objects:
                    self._kb.define(name)
            for low, high in zip(parts, parts[1:], strict=False):
                self._kb.isa(low, high)
        except ReproError:
            self._kb.rewind(before)  # the whole chain, or nothing
            raise
        return " < ".join(parts)

    def _model(self, arg: str) -> str:
        model = self._kb.least_model(self._focus)
        lines = [f"least model of {self._focus}: {model}"]
        undefined = sorted(map(str, model.undefined_atoms()))
        if undefined:
            lines.append(f"undefined: {', '.join(undefined)}")
        return "\n".join(lines)

    def _stable(self, arg: str) -> str:
        models = self._kb.stable_models(self._focus)
        lines = [f"{len(models)} stable model(s):"]
        lines += [f"  [{i}] {m}" for i, m in enumerate(models)]
        return "\n".join(lines)

    def _statuses(self, arg: str) -> str:
        return "\n".join(str(r) for r in self.semantics().statuses())

    def _hierarchy(self, arg: str) -> str:
        return render_hasse(self.program())

    def _lint(self, arg: str) -> str:
        findings = lint_program(self.program())
        if not findings:
            return "no findings"
        return "\n\n".join(str(f) for f in findings)

    def _show(self, arg: str) -> str:
        return render_program(self.program())

    def _save(self, arg: str) -> str:
        if not arg:
            return "usage: save FILE"
        with open(arg, "w") as handle:
            handle.write(render_program(self.program()))
        return f"saved to {arg}"

    def _help(self, arg: str) -> str:
        return (
            f"commands: {' '.join(WORDS)} quit\n"
            "bare rules ending in '.' are asserted into the focus component"
        )


def run(path: Optional[str] = None) -> int:
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
