"""Decision results with certificates.

Every decision surface returns a Verdict: the boolean outcome, a
certificate explaining a negative outcome, and a label describing the
exactness of the engine that produced it.
"""

from __future__ import annotations

from .record import Frozen
from .terms import Term, render_term

# Certificate kinds
DOMINATING_ELEMENT = "dominating-element"
MISSING_PARTNER = "missing-partner"
FAILING_ELEMENT = "failing-element"

# Exactness labels
EXACT = "exact"
LINEAR_FRAGMENT = "linear-fragment"
MONOLINEAR_FRAGMENT = "monolinear-fragment"


def exact_for_vars(k: int) -> str:
    return f"exact-for-{k}-vars"


class Certificate(Frozen):
    __slots__ = ("kind", "term", "element", "direction")

    def __init__(
        self,
        kind: str,
        term: Term | None = None,
        element: str | None = None,
        direction: tuple[str, str] | None = None,
    ):
        super().__init__(kind, term, element, direction)

    def to_dict(self, texts: dict | None = None) -> dict:
        """``texts`` maps a term's ``id`` to its text within one report."""
        out: dict = {"kind": self.kind}
        if self.term is not None:
            if texts is None:
                texts = {}
            i = id(self.term)
            out["term"] = texts.get(i) or texts.setdefault(i, render_term(self.term))
        if self.element is not None:
            out["element"] = self.element
        if self.direction is not None:
            out["direction"] = list(self.direction)
        return out


class Verdict(Frozen):
    __slots__ = ("holds", "certificate", "fragment_label")

    def to_dict(self, texts: dict | None = None) -> dict:
        out: dict = {"holds": self.holds, "fragment": self.fragment_label}
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_dict(texts)
        return out
