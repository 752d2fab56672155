"""Correctness gate, run after the timed section.

Two independent checks per job:

* the digest of (argv, exit code, stdout) must equal the reference digest
  stored for the job's input variant in ``references/<workload>.json``;
* every negative verdict's certificate is re-checked with the range oracle
  ``gensim.terms.range_of_term``: for ``a <~ b`` failing with dominating
  element ``b'`` and evidence ``t``, ``a`` is in range_A(t), ``b'`` is in
  range_B(t) and ``b`` is not in range_B(t).
"""

from __future__ import annotations

import hashlib
import json
import os
import re

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references")

_TEXT_VERDICT = re.compile(
    r"^\S+ (?:<~|~~) \S+: (?P<holds>holds|fails) \[[^\]]*\]\n"
    r"(?:  certificate: (?P<kind>\S+)(?: element=(?P<element>\S+))?"
    r"(?: term=(?P<term>.*?))?(?: direction=(?P<dl>\S+)->(?P<dr>\S+))?\n)?$"
)
_TEXT_REFLEX_VIOLATION = re.compile(
    r"^  (?P<e>\S+) fails (?P<dl>\S+)->(?P<dr>\S+): dominated by (?P<element>\S+), "
    r"evidence (?P<term>.+)$"
)


def digest(argv, code: int, stdout: str) -> str:
    data = "\0".join(argv) + f"\0{code}\0" + stdout
    return hashlib.sha256(data.encode("utf-8")).hexdigest()[:32]


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_references(workload: str, variant: int) -> list[str] | None:
    path = reference_path(workload)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle).get(str(variant))


class CertificateChecker:
    """Re-checks evidence terms against freshly parsed input algebras."""

    def __init__(self):
        from gensim.algebra import AlgebraError, parse_algebra
        from gensim.terms import parse_term, range_of_term

        # What a malformed evidence term can raise on parsing or evaluation.
        self._bad_term = (AlgebraError, KeyError, TypeError)
        self._parse_algebra = parse_algebra
        self._parse_term = parse_term
        self._range_of_term = range_of_term
        self._algebras: dict[str, object] = {}
        self._ranges: dict[tuple[int, str], frozenset] = {}

    def algebra(self, path: str):
        if path not in self._algebras:
            with open(path, encoding="utf-8") as handle:
                self._algebras[path] = self._parse_algebra(handle.read())
        return self._algebras[path]

    def range(self, algebra, term_text: str) -> frozenset:
        key = (id(algebra), term_text)
        if key not in self._ranges:
            term = self._parse_term(term_text, algebra.signature)
            self._ranges[key] = self._range_of_term(term, algebra)
        return self._ranges[key]

    def dominated(self, left, right, a, b, element, term_text) -> bool:
        """Does the certificate show that ``a <~ b`` fails in (left, right)?"""
        try:
            right_range = self.range(right, term_text)
            return (
                a in self.range(left, term_text)
                and element in right_range
                and b not in right_range
            )
        except self._bad_term:
            return False

    def directed(self, left, right, a, b, cert: dict, direction) -> bool:
        """Check a certificate of ``a ~~ b`` failing in the named direction.

        The direction names the algebras; for a self pair it cannot tell the
        two directions apart, and either reading is accepted.
        """
        element, term = cert.get("element"), cert.get("term")
        forward = tuple(direction) == (left.name, right.name)
        backward = tuple(direction) == (right.name, left.name)
        return (forward and self.dominated(left, right, a, b, element, term)) or (
            backward and self.dominated(right, left, b, a, element, term)
        )


def _option(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def certificate_problems(checker: CertificateChecker, argv, stdout: str) -> list[str]:
    """Re-check every dominating-element certificate the job printed."""
    command = argv[0]
    if command not in ("check", "matrix", "reflexivity"):
        return []
    left = checker.algebra(_option(argv, "--left"))
    right_path = _option(argv, "--right")
    right = checker.algebra(right_path) if right_path else left
    is_json = _option(argv, "--format") == "json"
    problems: list[str] = []

    def expect(ok: bool, what: str):
        if not ok:
            problems.append(f"certificate recheck failed: {what}")

    if command == "check":
        a, b = _option(argv, "--a"), _option(argv, "--b")
        approx = _option(argv, "--relation") == "approx"
        if is_json:
            verdict = json.loads(stdout)
            cert = verdict.get("certificate")
        else:
            m = _TEXT_VERDICT.match(stdout)
            if m is None:
                return ["unparsable check output"]
            verdict = {"holds": m["holds"] == "holds"}
            cert = None
            if m["kind"]:
                cert = {"kind": m["kind"], "element": m["element"], "term": m["term"]}
                if m["dl"]:
                    cert["direction"] = [m["dl"], m["dr"]]
        if verdict["holds"] or cert is None or cert.get("kind") != "dominating-element":
            return problems
        if approx:
            expect(checker.directed(left, right, a, b, cert, cert.get("direction", ())),
                   f"{a} ~~ {b}")
        else:
            expect(checker.dominated(left, right, a, b, cert["element"], cert.get("term")),
                   f"{a} <~ {b}")
    elif command == "matrix":
        if not is_json:
            return []
        for cell in json.loads(stdout)["cells"]:
            a, b = cell["a"], cell["b"]
            leq, geq, approx = cell["leq"], cell["geq"], cell["approx"]
            expect(approx["holds"] == (leq["holds"] and geq["holds"]), f"cell {a},{b} approx")
            if not leq["holds"]:
                c = leq["certificate"]
                expect(checker.dominated(left, right, a, b, c["element"], c["term"]),
                       f"cell {a} <~ {b}")
            if not geq["holds"]:
                c = geq["certificate"]
                expect(checker.dominated(right, left, b, a, c["element"], c["term"]),
                       f"cell {b} <~ {a}")
            if not approx["holds"]:
                c = approx["certificate"]
                expect(checker.directed(left, right, a, b, c, c["direction"]),
                       f"cell {a} ~~ {b}")
    else:  # reflexivity
        if is_json:
            violations = [
                (v["element"], v["direction"], v["verdict"]["certificate"])
                for v in json.loads(stdout)["violations"]
            ]
        else:
            violations = []
            for line in stdout.splitlines()[1:]:
                m = _TEXT_REFLEX_VIOLATION.match(line)
                if m is None:
                    return [f"unparsable reflexivity line {line!r}"]
                violations.append((m["e"], [m["dl"], m["dr"]],
                                   {"element": m["element"], "term": m["term"]}))
        for element, direction, cert in violations:
            expect(checker.directed(left, right, element, element, cert, direction),
                   f"{element} reflexivity")
    return problems
