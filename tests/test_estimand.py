import random

import pytest

from frontdoor import EmptyAdjustmentError, adjustment_formula, estimand_from_json
from frontdoor.estimand import Prob, Product, Sum, Sym, render_json, render_text, to_obj


CANONICAL = "Σ_z P(z|x) Σ_{x'} P(y|x',z) P(x')"


def test_canonical_text():
    assert render_text(adjustment_formula(["X"], ["Y"], ["Z"])) == CANONICAL


def test_multivariate_expansion():
    e = adjustment_formula(["X"], ["Y"], ["A", "B"])
    assert render_text(e) == "Σ_{a,b} P(a,b|x) Σ_{x'} P(y|x',a,b) P(x')"


def test_multivariate_treatment():
    e = adjustment_formula(["X1", "X2"], ["Y"], ["Z"])
    assert render_text(e) == (
        "Σ_z P(z|x1,x2) Σ_{x1',x2'} P(y|x1',x2',z) P(x1',x2')"
    )


def test_ast_shape():
    e = adjustment_formula(["X"], ["Y"], ["Z"])
    assert isinstance(e, Sum)
    assert e.bound == (Sym("Z"),)
    outer = e.body
    assert isinstance(outer, Product)
    first, inner = outer.factors
    assert first == Prob((Sym("Z"),), (Sym("X"),))
    assert isinstance(inner, Sum)
    assert inner.bound == (Sym("X", primed=True),)


def test_binding_order_preserved():
    text = render_text(adjustment_formula(["X"], ["Y"], ["B", "A"]))
    assert text.startswith("Σ_{b,a}")


def test_empty_product_renders_as_one():
    assert render_text(Product(())) == "1"


def test_rejects_degenerate_inputs():
    with pytest.raises(EmptyAdjustmentError):
        adjustment_formula(["X"], ["Y"], [])
    with pytest.raises(ValueError):
        adjustment_formula(["X"], ["Y"], ["X"])
    with pytest.raises(ValueError):
        adjustment_formula(["X"], ["Y"], ["x"])  # case collision
    with pytest.raises(ValueError):
        adjustment_formula([], ["Y"], ["Z"])


def test_json_round_trip():
    e = adjustment_formula(["X"], ["Y"], ["A", "B"])
    assert estimand_from_json(render_json(e)) == e
    obj = to_obj(e)
    assert obj["sum"]["bound"][0] == {"name": "A", "primed": False}


def test_malformed_json_raises_value_error():
    # a missing field or one of the wrong type is a ValueError naming the
    # object that holds it, like a wrong kind or a non-object
    for text, bad in (('{"prob": {}}', "{'prob': {}}"),
                      ('{"product": {"factors": 5}}', "{'product': {'factors': 5}}"),
                      ('{"sum": {"bound": [1], "body": {"product": {"factors": []}}}}',
                       "{'sum': {'bound': [1], "),
                      ('{"product": {"factors": [{"prob": {"target": 3}}]}}',
                       "{'prob': {'target': 3}}"),
                      ('{"mean": {}}', "'mean'"), ("[1]", "[1]")):
        with pytest.raises(ValueError) as err:
            estimand_from_json(text)
        assert bad in str(err.value)


def test_rendering_injective_over_sets():
    # distinct adjustment sets produce distinct strings
    rng = random.Random(11)
    pool = ["A", "B", "C", "D", "E"]
    seen = {}
    for _ in range(200):
        z = sorted(rng.sample(pool, rng.randint(1, len(pool))))
        text = render_text(adjustment_formula(["X"], ["Y"], z))
        key = tuple(z)
        if text in seen:
            assert seen[text] == key
        seen[text] = key
    assert len(seen) == len({v for v in seen.values()})
