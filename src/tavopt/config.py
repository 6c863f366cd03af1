"""The problem config: JSON text to ProblemSpec and back.

Schema: dimension (positive int); decision_set with either "grid" (one
value list per coordinate) or "points" (list of vectors); optional box
{lower, upper} (defaults to the tight hull box); objective (one piece per
coordinate, {"kind": kind, <the piece's dataclass fields>}); optional
constraints (list of {coeffs, offset, sense}) with sense "<=" or ">="
relative to coeffs . x <sense> offset, normalized internally to g(x) <= 0.

Every value is read through three readers: an object with known and
required keys, a list with an optional length, and a number (a JSON int or
float, not a bool).  A missing number reads as 0.0 and a missing list as
empty.  Malformed input of any kind, a key repeated in one object included,
raises ParseError naming the field.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields

import numpy as np

from .problem import (PIECE_KINDS, AffineConstraint, ExplicitPoints, ExtendedBox, GridProduct,
                      ProblemSpec, SeparableConvexObjective, tight_box)

__all__ = ["ParseError", "parse_problem_config", "serialize_problem_config"]


class ParseError(ValueError):
    """Problem config rejected; carries the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class _JsonObject(dict):
    """A JSON object as read, with the first key its text repeats (None if
    none); json.loads would otherwise keep the last value silently."""

    repeated = None


def _json_object(pairs) -> _JsonObject:
    obj, seen = _JsonObject(pairs), set()
    for key, _ in pairs:
        if key in seen:
            obj.repeated = key
            break
        seen.add(key)
    return obj


def _object(raw, where: str, known=None, required=()) -> dict:
    """raw as an object with no repeated key, keys among known (any, if
    None) and every required key; its keys are named where.key ("" is the
    root)."""
    if not isinstance(raw, dict):
        raise ParseError(where or "<root>", "must be a JSON object")
    prefix = f"{where}." if where else ""
    if getattr(raw, "repeated", None) is not None:
        raise ParseError(prefix + raw.repeated, "duplicate key")
    extra = sorted(set(raw) - set(raw if known is None else known))
    if extra:
        raise ParseError(prefix + extra[0], "unknown key")
    for key in required:
        if key not in raw:
            raise ParseError(prefix + key, "missing required key")
    return raw


def _list(raw, where: str, length=None) -> list:
    if not isinstance(raw, list):
        raise ParseError(where, "must be a list")
    if length is not None and len(raw) != length:
        raise ParseError(where, f"needs {length} entries, got {len(raw)}")
    return raw


def _number(raw, where: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ParseError(where, "must be a number")
    try:
        return float(raw)
    except OverflowError:
        raise ParseError(where, "integer too large for a double") from None


def _numbers(raw, where: str, length=None) -> list:
    return [_number(v, f"{where}[{k}]") for k, v in enumerate(_list(raw, where, length))]


def _build(cls, where: str, **kwargs):
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ParseError(where, str(exc)) from exc


def _piece(raw, where: str):
    kind = _object(raw, where, required=("kind",))["kind"]
    cls = PIECE_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ParseError(f"{where}.kind", f"unknown piece kind; known: {', '.join(PIECE_KINDS)}")
    _object(raw, where, ("kind", *(f.name for f in fields(cls))))
    # a piece field is annotated float (a number) or tuple (a list of numbers)
    return _build(cls, where, **{
        f.name: _number(raw.get(f.name, 0.0), f"{where}.{f.name}") if f.type in ("float", float)
        else tuple(_numbers(raw.get(f.name, []), f"{where}.{f.name}"))
        for f in fields(cls)})


def parse_problem_config(text: str) -> ProblemSpec:
    """Build a ProblemSpec from JSON text (schema in the module docstring)."""
    try:
        raw = json.loads(text, object_pairs_hook=_json_object)
    except (ValueError, RecursionError) as exc:
        raise ParseError("<json>", str(exc)) from exc
    raw = _object(raw, "", ("dimension", "decision_set", "box", "objective", "constraints"),
                  ("dimension", "decision_set", "objective"))
    dim = raw["dimension"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError("dimension", "must be a positive integer")

    ds = _object(raw["decision_set"], "decision_set", ("grid", "points"))
    if len(ds) != 1:
        raise ParseError("decision_set", "needs exactly one of 'grid' or 'points'")
    if "grid" in ds:
        decision = _build(GridProduct, "decision_set", values=tuple(
            tuple(_numbers(vs, f"decision_set.grid[{i}]"))
            for i, vs in enumerate(_list(ds["grid"], "decision_set", dim))))
    else:
        points = [_numbers(p, f"decision_set.points[{k}]", dim)
                  for k, p in enumerate(_list(ds["points"], "decision_set.points"))]
        decision = _build(ExplicitPoints, "decision_set", points=np.array(points, dtype=float))

    if "box" in raw:
        box = _object(raw["box"], "box", ("lower", "upper"), ("lower", "upper"))
        box = _build(ExtendedBox, "box", lower=_numbers(box["lower"], "box.lower", dim),
                     upper=_numbers(box["upper"], "box.upper", dim))
    else:
        box = tight_box(decision)

    pieces = tuple(_piece(p, f"objective[{i}]")
                   for i, p in enumerate(_list(raw["objective"], "objective", dim)))

    constraints = []
    for j, c in enumerate(_list(raw.get("constraints", []), "constraints")):
        where = f"constraints[{j}]"
        c = _object(c, where, ("coeffs", "offset", "sense"), ("coeffs",))
        if c.get("sense", "<=") not in ("<=", ">="):
            raise ParseError(f"{where}.sense", "must be '<=' or '>='")
        coeffs = np.array(_numbers(c["coeffs"], f"{where}.coeffs"))
        if len(coeffs) != dim:
            raise ParseError(where, f"has {len(coeffs)} coeffs, expected {dim}")
        offset = _number(c.get("offset", 0.0), f"{where}.offset")
        sign = -1.0 if c.get("sense") == ">=" else 1.0
        constraints.append(_build(AffineConstraint, where, coeffs=sign * coeffs,
                                  offset=-sign * offset))

    # every field is checked on its own above; what is left is whether the
    # box contains the decision set
    return _build(ProblemSpec, "box", decision_set=decision, box=box,
                  objective=SeparableConvexObjective(pieces=pieces),
                  constraints=tuple(constraints))


def serialize_problem_config(spec: ProblemSpec) -> str:
    """Canonical JSON for a spec; parsing it reproduces the spec exactly."""
    ds = spec.decision_set
    doc = {
        "dimension": spec.dimension,
        "decision_set": ({"grid": ds.values} if isinstance(ds, GridProduct)
                         else {"points": ds.points.tolist()}),
        "box": {"lower": spec.box.lower.tolist(), "upper": spec.box.upper.tolist()},
        "objective": [{"kind": p.kind, **asdict(p)} for p in spec.objective.pieces],
        "constraints": [{"coeffs": g.coeffs.tolist(), "offset": -g.offset, "sense": "<="}
                        for g in spec.constraints],
    }
    return json.dumps(doc, indent=2)
