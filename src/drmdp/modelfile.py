"""Versioned YAML model documents and their compilation to DrMdpModel.

A document describes states with factor maps and named or inline ambiguity
blocks, plus either a stage partition with terminal values (finite horizon)
or a discount (infinite horizon).  Parsing is strict: unknown keys are
errors carrying the offending document path, so typos never silently change
a model.  Documents round-trip: serialize_document(parse_model_text(text))
parses back to an equivalent model.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import index

import numpy as np
import yaml

from .ambiguity import (
    AmbiguityError,
    FactorMap,
    build_phi_divergence_tv,
    build_support_only,
    build_uncertain_mean,
    build_wasserstein,
)
from .engine import DrMdpModel, EngineError
from .geometry import GeometryError, box, simplex, singleton
from .lp import LpError

FORMAT_VERSION = 1
# libyaml's safe loader when PyYAML was built with it: the same documents as
# the pure-Python one, parsed about ten times faster
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ModelFileError(Exception):
    """Parse or validation failure; the message carries the document path."""


def _require_mapping(node, path):
    if not isinstance(node, dict):
        raise ModelFileError(f"{path}: expected a mapping, got {type(node).__name__}")
    return node


def _check_keys(node, path, required, optional=()):
    _require_mapping(node, path)
    allowed = set(required) | set(optional)
    unknown = set(node) - allowed
    if unknown:
        raise ModelFileError(f"{path}: unknown keys {sorted(unknown)}; allowed {sorted(allowed)}")
    missing = set(required) - set(node)
    if missing:
        raise ModelFileError(f"{path}: missing required keys {sorted(missing)}")


@contextmanager
def _located(where):
    """Raise a malformed value's error from inside the block as a
    ModelFileError that starts with `where`, the document path."""
    try:
        yield
    except (AmbiguityError, GeometryError, LpError, OverflowError, TypeError, ValueError) as err:
        raise ModelFileError(f"{where}: {err}") from err


def _vector(node, path):
    with _located(f"{path}: expected a numeric list"):
        v = np.asarray(node, dtype=float)
    if v.ndim != 1:
        raise ModelFileError(f"{path}: expected a flat numeric list")
    return v


def _matrix(node, path):
    with _located(f"{path}: expected a numeric matrix"):
        m = np.asarray(node, dtype=float)
    if m.ndim != 2:
        raise ModelFileError(f"{path}: expected a list of equal-length rows")
    return m


def _parse_support(node, path, shared):
    """The support a spec describes.  `shared` maps the (kind, values) of
    every spec parsed before in the same build to its set, and an equal
    spec gets that set again, so its vertex form and LP model are built
    once."""
    _check_keys(node, path, ("kind",), ("dim", "lo", "hi", "point"))
    kind = node["kind"]
    if kind == "simplex":
        _check_keys(node, path, ("kind", "dim"))
        with _located(f"{path}.dim"):
            values, make = (int(node["dim"]),), simplex
    elif kind == "box":
        _check_keys(node, path, ("kind", "lo", "hi"))
        values, make = (_vector(node["lo"], f"{path}.lo"), _vector(node["hi"], f"{path}.hi")), box
    elif kind == "singleton":
        _check_keys(node, path, ("kind", "point"))
        values, make = (_vector(node["point"], f"{path}.point"),), singleton
    else:
        raise ModelFileError(f"{path}.kind: unknown support kind {kind!r}")
    key = (kind, *(v.tobytes() if isinstance(v, np.ndarray) else v for v in values))
    if key not in shared:
        shared[key] = make(*values)
    return shared[key]


def _parse_ambiguity(node, path, supports):
    _check_keys(
        node,
        path,
        ("builder",),
        ("support", "samples", "radius", "metric", "norm",
         "mean_lo", "mean_hi", "center", "eps_floor"),
    )
    builder = node["builder"]
    with _located(path):
        if builder == "support_only":
            _check_keys(node, path, ("builder", "support"))
            return build_support_only(_parse_support(node["support"], f"{path}.support", supports))
        if builder == "wasserstein":
            _check_keys(node, path, ("builder", "support", "samples", "radius"), ("metric",))
            samples = [_vector(s, f"{path}.samples[{i}]") for i, s in enumerate(node["samples"])]
            return build_wasserstein(
                samples,
                float(node["radius"]),
                _parse_support(node["support"], f"{path}.support", supports),
                node.get("metric", 1),
            )
        if builder == "tv":
            _check_keys(node, path, ("builder", "samples", "radius"), ("eps_floor",))
            samples = [_vector(s, f"{path}.samples[{i}]") for i, s in enumerate(node["samples"])]
            kwargs = {}
            if "eps_floor" in node:
                kwargs["eps_floor"] = float(node["eps_floor"])
            return build_phi_divergence_tv(samples, float(node["radius"]), **kwargs)
        if builder == "uncertain_mean":
            _check_keys(
                node, path,
                ("builder", "support", "mean_lo", "mean_hi"),
                ("center", "radius", "norm"),
            )
            support = _parse_support(node["support"], f"{path}.support", supports)
            center = node.get("center")
            radius = float(node.get("radius", np.inf))
            if center is None and np.isfinite(radius):
                raise ModelFileError(f"{path}: radius given without a center")
            return build_uncertain_mean(
                support,
                _vector(node["mean_lo"], f"{path}.mean_lo"),
                _vector(node["mean_hi"], f"{path}.mean_hi"),
                _vector(center, f"{path}.center") if center is not None else np.zeros(support.dim),
                radius,
                node.get("norm", 1),
            )
    raise ModelFileError(f"{path}.builder: unknown builder {builder!r}")


def _parse_factor_map(node, path):
    _check_keys(node, path, ("p_mat", "p_offset", "r_mat", "r_offset"))
    p_mat = _matrix(node["p_mat"], f"{path}.p_mat")
    p_offset = _vector(node["p_offset"], f"{path}.p_offset")
    r_mat = _matrix(node["r_mat"], f"{path}.r_mat")
    r_offset = _vector(node["r_offset"], f"{path}.r_offset")
    n_actions = len(r_offset)
    if not n_actions or p_mat.shape[0] % n_actions != 0:
        raise ModelFileError(f"{path}: p_mat rows not divisible by a nonzero action count")
    with _located(path):
        return FactorMap(n_actions, p_mat.shape[0] // n_actions, p_mat, p_offset, r_mat, r_offset)


@dataclass(frozen=True)
class ModelDocument:
    """Validated document contents, buildable into a DrMdpModel.

    A document from `parse_model_text` was built while parsing; `build`
    returns that model instead of building it again.
    """

    raw: dict
    _model: DrMdpModel = field(default=None, init=False, repr=False, compare=False)

    def build(self) -> DrMdpModel:
        if self._model is not None:
            return self._model
        return self._build()

    def _build(self) -> DrMdpModel:
        doc = self.raw
        supports = {}  # (kind, values) -> the set every equal support spec gets
        named = {
            name: _parse_ambiguity(node, f"ambiguities.{name}", supports)
            for name, node in doc.get("ambiguities", {}).items()
        }
        fms, ambs, labels = [], [], []
        for i, st in enumerate(doc["states"]):
            path = f"states[{i}]"
            labels.append(st.get("name", f"s{i}"))
            if st.get("terminal", False):
                fms.append(None)
                ambs.append(None)
                continue
            fms.append(_parse_factor_map(st["factor_map"], f"{path}.factor_map"))
            amb = st["ambiguity"]
            if isinstance(amb, str):
                if amb not in named:
                    raise ModelFileError(f"{path}.ambiguity: no ambiguity block named {amb!r}")
                ambs.append(named[amb])
            else:
                ambs.append(_parse_ambiguity(amb, f"{path}.ambiguity", supports))
        kwargs = {}
        if "stages" in doc:
            with _located("document.stages"):
                kwargs["stages"] = tuple(tuple(index(n) for n in s) for s in doc["stages"])
            if "terminal_values" in doc:
                kwargs["terminal_values"] = _vector(doc["terminal_values"], "terminal_values")
        else:
            with _located("document.discount"):
                kwargs["discount"] = float(doc["discount"])
        try:
            return DrMdpModel(
                len(doc["states"]),
                tuple(fms),
                tuple(ambs),
                state_labels=tuple(labels),
                **kwargs,
            )
        except EngineError as err:
            raise ModelFileError(f"model validation failed: {err}") from err


def parse_model_text(text: str) -> ModelDocument:
    """Parse a YAML model document; raises ModelFileError with a located
    diagnostic (line/column for syntax, key path for structure)."""
    try:
        doc = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as err:
        mark = getattr(err, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ModelFileError(f"syntax error{where}: {err}") from err
    _check_keys(
        doc,
        "document",
        ("format_version", "states"),
        ("stages", "discount", "terminal_values", "ambiguities"),
    )
    if doc["format_version"] != FORMAT_VERSION:
        raise ModelFileError(
            f"document.format_version: expected {FORMAT_VERSION}, got {doc['format_version']!r}"
        )
    if ("stages" in doc) == ("discount" in doc):
        raise ModelFileError("document: exactly one of 'stages' and 'discount' required")
    if "terminal_values" in doc and "stages" not in doc:
        raise ModelFileError("document: terminal_values requires stages")
    if not isinstance(doc["states"], list) or not doc["states"]:
        raise ModelFileError("document.states: expected a nonempty list")
    if "ambiguities" in doc:
        _require_mapping(doc["ambiguities"], "ambiguities")
    for i, st in enumerate(doc["states"]):
        path = f"states[{i}]"
        _check_keys(st, path, (), ("name", "terminal", "factor_map", "ambiguity"))
        if st.get("terminal", False):
            if "factor_map" in st or "ambiguity" in st:
                raise ModelFileError(f"{path}: terminal states carry no factor_map/ambiguity")
        elif "factor_map" not in st or "ambiguity" not in st:
            raise ModelFileError(f"{path}: non-terminal states need factor_map and ambiguity")
    document = ModelDocument(doc)
    # fail fast: every parsed document builds and validates
    object.__setattr__(document, "_model", document._build())
    return document


def parse_model_file(path) -> ModelDocument:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        raise ModelFileError(f"cannot read {path}: {err}") from err
    return parse_model_text(text)


def serialize_document(document: ModelDocument) -> str:
    """YAML text that parses back to an equivalent document (floats keep
    full precision via their shortest round-trippable representation)."""
    return yaml.safe_dump(document.raw, sort_keys=False)
