"""Symbolic front-door adjustment formulas.

For treatment X, outcome Y and adjustment set Z the identification
formula is

    P(y | do(x)) = Σ_z P(z|x) Σ_{x'} P(y|x',z) P(x')

built here as a small AST of sums, products and conditional probability
terms.  Value symbols are the lowercased node names; the primed copies of
the treatment variables carry a trailing apostrophe.  The AST renders to
text or to a JSON mirror that parses back to an identical tree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Union

from .errors import EmptyAdjustmentError


@dataclass(frozen=True)
class Sym:
    """A value symbol: a node name plus a primed marker."""

    name: str
    primed: bool = False

    @property
    def symbol(self) -> str:
        return self.name.lower() + ("'" if self.primed else "")


@dataclass(frozen=True)
class Prob:
    """P(target | given)."""

    target: tuple[Sym, ...]
    given: tuple[Sym, ...] = ()


@dataclass(frozen=True)
class Product:
    factors: tuple["Estimand", ...]


@dataclass(frozen=True)
class Sum:
    bound: tuple[Sym, ...]
    body: "Estimand"


Estimand = Union[Sum, Product, Prob]


def _syms(names: Iterable[str], primed: bool = False) -> tuple[Sym, ...]:
    return tuple(Sym(str(n), primed) for n in names)


def adjustment_formula(x: Iterable[str], y: Iterable[str], z: Iterable[str]) -> Sum:
    """The front-door adjustment estimand for ``P(y | do(x))`` with
    adjustment set ``z``.  Set order is preserved as given."""
    x = tuple(x)
    y = tuple(y)
    z = tuple(z)
    if not z:
        raise EmptyAdjustmentError("the adjustment formula needs a nonempty set")
    if not x or not y:
        raise ValueError("x and y must be nonempty")
    all_names = [*x, *y, *z]
    if len(set(all_names)) != len(all_names):
        raise ValueError("x, y and z must be pairwise disjoint")
    lowered = [n.lower() for n in all_names]
    if len(set(lowered)) != len(lowered):
        raise ValueError("node names colliding after lowercasing cannot be rendered")
    xs = _syms(x)
    xp = _syms(x, primed=True)
    ys = _syms(y)
    zs = _syms(z)
    inner = Sum(xp, Product((Prob(ys, xp + zs), Prob(xp))))
    return Sum(zs, Product((Prob(zs, xs), inner)))


def _subscript(syms: tuple[Sym, ...]) -> str:
    text = ",".join(s.symbol for s in syms)
    return text if len(text) == 1 else "{" + text + "}"


def render_text(e: Estimand) -> str:
    """Deterministic text form; an empty product renders as ``1``."""
    if isinstance(e, Prob):
        head = ",".join(s.symbol for s in e.target)
        if e.given:
            return f"P({head}|{','.join(s.symbol for s in e.given)})"
        return f"P({head})"
    if isinstance(e, Product):
        if not e.factors:
            return "1"
        return " ".join(render_text(f) for f in e.factors)
    if isinstance(e, Sum):
        return f"Σ_{_subscript(e.bound)} {render_text(e.body)}"
    raise TypeError(f"not an estimand node: {e!r}")


def _sym_obj(s: Sym) -> dict:
    return {"name": s.name, "primed": s.primed}


def _sym_from(obj) -> Sym:
    return Sym(str(obj["name"]), bool(obj["primed"]))


def to_obj(e: Estimand) -> dict:
    """Nested-dict mirror of the AST (the JSON schema)."""
    if isinstance(e, Prob):
        return {
            "prob": {
                "target": [_sym_obj(s) for s in e.target],
                "given": [_sym_obj(s) for s in e.given],
            }
        }
    if isinstance(e, Product):
        return {"product": {"factors": [to_obj(f) for f in e.factors]}}
    if isinstance(e, Sum):
        return {"sum": {"bound": [_sym_obj(s) for s in e.bound], "body": to_obj(e.body)}}
    raise TypeError(f"not an estimand node: {e!r}")


def from_obj(obj) -> Estimand:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"malformed estimand object: {obj!r}")
    (kind, body), = obj.items()
    try:
        if kind == "prob":
            return Prob(
                tuple(_sym_from(s) for s in body["target"]),
                tuple(_sym_from(s) for s in body["given"]),
            )
        if kind == "product":
            return Product(tuple(from_obj(f) for f in body["factors"]))
        if kind == "sum":
            return Sum(tuple(_sym_from(s) for s in body["bound"]), from_obj(body["body"]))
    except (KeyError, TypeError):  # a missing field, or one of the wrong type
        raise ValueError(f"malformed estimand object: {obj!r}") from None
    raise ValueError(f"unknown estimand node kind {kind!r}")


def render_json(e: Estimand) -> str:
    return json.dumps(to_obj(e), separators=(",", ":"))


def estimand_from_json(text: str) -> Estimand:
    return from_obj(json.loads(text))
