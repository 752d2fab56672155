"""Generalization-based similarity on finite algebras.

Two elements are similar when the set of term generalizations they share
is maximal among the available comparisons; this package decides that
relation exactly on several term fragments, certifies every negative
verdict with a separating term, and ships the machinery as a library and
the ``gensim`` command.
"""

from .algebra import (
    Algebra,
    AlgebraError,
    AlgebraPair,
    AlgebraParseError,
    Signature,
    SignatureMismatchError,
    make_algebra,
    parse_algebra,
    render_algebra,
    self_pair,
    validate_pair,
)
from .terms import (
    App,
    Const,
    Term,
    Var,
    parse_term,
    range_of_term,
    render_g_formula,
    render_term,
)
from .verdict import Certificate, Verdict
from .similarity import (
    QueryConfig,
    build_engine,
    check_reflexive,
    check_transitive,
    decide_algebra_approx,
    decide_algebra_leq,
    decide_approx,
    decide_leq,
    find_characteristic_set,
    similarity_matrix,
)
from .morphism import (
    ElementMap,
    check_g_functor,
    check_second_isomorphism,
    is_homomorphism,
    is_isomorphism,
    parse_map,
    verify_isomorphism_lemma,
)

__version__ = "1.0.0"


# ``corpus`` loads on first use of ``load_fixture`` (PEP 562), so that
# ``import gensim`` does not pay for it or for ``dataclasses``.
def __getattr__(name):
    if name == "load_fixture":
        from .corpus import load_fixture

        return load_fixture
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), "load_fixture"})

__all__ = [
    "Algebra",
    "AlgebraError",
    "AlgebraPair",
    "AlgebraParseError",
    "App",
    "Certificate",
    "Const",
    "ElementMap",
    "QueryConfig",
    "Signature",
    "SignatureMismatchError",
    "Term",
    "Var",
    "Verdict",
    "build_engine",
    "check_g_functor",
    "check_reflexive",
    "check_second_isomorphism",
    "check_transitive",
    "decide_algebra_approx",
    "decide_algebra_leq",
    "decide_approx",
    "decide_leq",
    "find_characteristic_set",
    "is_homomorphism",
    "is_isomorphism",
    "load_fixture",
    "make_algebra",
    "parse_algebra",
    "parse_map",
    "parse_term",
    "range_of_term",
    "render_algebra",
    "render_g_formula",
    "render_term",
    "self_pair",
    "similarity_matrix",
    "validate_pair",
    "verify_isomorphism_lemma",
]
