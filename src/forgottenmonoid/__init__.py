"""Forgotten-monoid combinatorics: rewriting classes on permutations and
words, canonical elements, the insertion algorithm, commutation of
noncommutative elementary symmetric functions in the quotient, and ribbon
expansions of quasi-symmetric class sums, evaluated as plain maps from
exponent vectors to coefficients."""

from .forgotten import (
    CanonicalForm,
    ClassKey,
    all_class_keys,
    canonical_of,
    canonical_of_key,
    canonical_word,
    class_key,
    classes_count,
    coforgotten_equivalent,
    equivalent,
    form_from_inversions,
    form_inversions,
    insert,
    insert_form,
    is_canonical,
    lambda_members,
    lex_enumerate,
    next_lambda_down,
    parse_class_key,
    v_members,
)
from .perms import (
    Composition,
    ParseError,
    Perm,
    Word,
    avoids_pattern,
    complement,
    composition_from_subset,
    composition_maj,
    descent_composition,
    descent_set,
    format_permutation,
    inverse,
    inversion_number,
    is_lambda_shaped,
    is_v_shaped,
    major_index,
    parse_permutation,
    recoil_composition,
    reverse,
    schuetzenberger,
    standardize,
)
from .qsym import (
    class_qsym_sum,
    compositions_with_maj,
    foata,
    ns_map,
    ribbon_expansion,
)
from .words import (
    commute_check,
    general_moves,
    orientation_counterexamples,
    word_closure,
    word_normal_form,
)

__all__ = [name for name in dir() if not name.startswith("_")]
