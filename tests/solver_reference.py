"""Reference SAT enumerator, used only by the tests.

satisfying_models is the exhaustive enumerator that first_model's DPLL is
checked against: the first model it yields is the one first_model must
return. It tries all 2^n assignments, so it is meant for small formulas.
"""

from itertools import product

from xdicheck.formulas import evaluate


def satisfying_models(forms, variables):
    """Enumerate assignments satisfying every formula, lexicographically
    with False before True over the variable list."""

    for bits in product((False, True), repeat=len(variables)):
        model = dict(zip(variables, bits))
        resolve = lambda atom: model[atom.name]
        if all(evaluate(form, resolve) for form in forms):
            yield model
