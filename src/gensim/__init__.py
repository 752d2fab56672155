"""Generalization-based similarity on finite algebras.

Two elements are similar when the set of term generalizations they share
is maximal among the available comparisons; this package decides that
relation exactly on several term fragments, certifies every negative
verdict with a separating term, and ships the machinery as a library and
the ``gensim`` command.
"""

import importlib

__version__ = "1.0.0"

# Each module and the public names it defines.  A name loads its module on
# first use (PEP 562), so ``import gensim`` loads no submodule.
_EXPORTS = {
    "algebra": "Algebra AlgebraError AlgebraPair AlgebraParseError Signature"
    " SignatureMismatchError make_algebra parse_algebra render_algebra"
    " self_pair validate_pair",
    "terms": "App Const Term Var parse_term range_of_term render_g_formula render_term",
    "verdict": "Certificate Verdict",
    "similarity": "QueryConfig build_engine check_reflexive check_transitive"
    " decide_algebra_approx decide_algebra_leq decide_approx decide_leq"
    " find_characteristic_set similarity_matrix",
    "morphism": "ElementMap check_g_functor check_second_isomorphism is_homomorphism"
    " is_isomorphism parse_map verify_isomorphism_lemma",
    "corpus": "load_fixture",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_OWNER)


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module("." + _OWNER[name], __name__)
    value = globals()[name] = getattr(module, name)  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
