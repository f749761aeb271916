"""Suppression comments: opting out of a rule with a recorded reason.

Two comment forms are recognised (parsed with :mod:`tokenize`, since
:mod:`ast` drops comments):

* ``# repro: ignore[R003]`` — suppress the listed rules on this line;
  placed on a ``def`` or ``class`` header it suppresses them for the
  whole symbol's line range.
* ``# repro: ignore-file[R002]`` — suppress the listed rules for the
  entire file.

Several rules may be listed (``ignore[R003,R005]``), and everything
after ``--`` is a free-form justification::

    total = sum(len(v) for v in self._live)  # repro: ignore[R003] -- a sum, order-free

Suppressions are deliberately explicit: there is no bare ``ignore``
that silences every rule, so each opt-out names the contract it is
waiving.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

_PATTERN = re.compile(
    r"#\s*repro:\s*(?P<scope>ignore-file|ignore)\[(?P<rules>[A-Z0-9,\s]+)\]"
)


@dataclass(frozen=True, order=True)
class SuppressionDecl:
    """One suppression comment, as written: where, what scope, which rules.

    The burn-down pass matches raw findings back against declarations:
    a ``(declaration, rule)`` pair that suppressed nothing is *dead* and
    reported as a warning so stale opt-outs get deleted instead of
    silently masking future regressions.
    """

    line: int
    scope: str  # "line" | "file"
    rules: FrozenSet[str]


def parse_suppressions(
    source: str,
) -> Tuple[Dict[int, Set[str]], Set[str], List[SuppressionDecl]]:
    """Extract ``(line -> rule ids, file-level rule ids, declarations)``.

    Unreadable sources (tokenisation errors) yield no suppressions —
    the analyzer reports the parse failure separately.
    """
    per_line: Dict[int, Set[str]] = {}
    per_file: Set[str] = set()
    decls: List[SuppressionDecl] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _PATTERN.search(token.string)
            if match is None:
                continue
            rules = {
                rule.strip()
                for rule in match.group("rules").split(",")
                if rule.strip()
            }
            if match.group("scope") == "ignore-file":
                per_file |= rules
                decls.append(
                    SuppressionDecl(token.start[0], "file", frozenset(rules))
                )
            else:
                per_line.setdefault(token.start[0], set()).update(rules)
                decls.append(
                    SuppressionDecl(token.start[0], "line", frozenset(rules))
                )
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return per_line, per_file, decls
