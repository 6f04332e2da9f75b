"""Declarative JSON model files.

A model file carries one chain and the analysis settings:

    {
      "schema": 1,
      "chain": {
        "kind": "birth_death",
        "states": 3,
        "define": {"lam": {"sinusoid": {"offset": 1.0, "amplitude": 1.0,
                                        "frequency": 1.0}}},
        "birth": ["lam", "lam", "lam"],
        "death": [1.0, 1.0, 1.0]
      },
      "analysis": {"horizon": 3.0, "grid": 1001, "steps": 10000,
                   "weights": "ones", "tolerance": 1e-8}
    }

Rate positions accept a plain number (constant rate), the name of an entry
in the optional ``define`` block, or an inline object with exactly one of
the keys ``constant``, ``sinusoid`` or ``table``. A structured kind takes
the rate lists that ``chain.RATE_LISTS`` names for it, each of length S;
the general kind takes ``transitions``, a list of {"from": i, "to": j,
"rate": ...} objects.

``weights`` is one of "ones", "perron", "frozen-perron" or an explicit
list of S positive numbers, which the settings hold as a tuple. All
analysis fields are optional and default to the values shown above
(horizon 1.0 if absent). The keys ``trials``, ``pairs`` and ``seed`` of
the retired random verification are still accepted: each must be an
integer of at least 1, 1 and 0, and is then ignored.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

from .chain import KINDS, RATE_LISTS, ChainSpec, class_chain, general_chain
from .rates import RateFunction

SCHEMA_VERSION = 1
WEIGHT_MODES = ("ones", "perron", "frozen-perron")  # the named weights; a list is the other


class ModelFileError(ValueError):
    """The model file cannot be parsed into a valid chain and settings."""


@dataclass(frozen=True)
class AnalysisSettings:
    """Horizon, resolutions, weights and tolerance of an analysis.

    The fields are the keys of the model file's analysis block, in its
    order. weights is a name of WEIGHT_MODES or a tuple of weights, which
    are validated against the chain when they are used.
    """

    horizon: float = 1.0
    grid: int = 1001
    steps: int = 10_000
    weights: str | tuple = "ones"
    tolerance: float = 1e-8

    def __post_init__(self):
        # dataclasses.replace re-runs this, so CLI overrides are checked too
        if isinstance(self.weights, str) and self.weights not in WEIGHT_MODES:
            raise ModelFileError(f"unknown weights mode {self.weights!r}")
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ModelFileError(f"analysis horizon must be positive and finite, "
                                 f"got {self.horizon}")
        if self.grid < 2:
            raise ModelFileError(f"analysis grid needs at least 2 points, got {self.grid}")
        _at_least("steps", self.steps, 1)
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0.0):
            raise ModelFileError(f"analysis tolerance must be finite and >= 0, "
                                 f"got {self.tolerance}")


def _at_least(name, value, least):
    if value < least:
        raise ModelFileError(f"analysis {name} must be at least {least}, got {value}")


@dataclass(frozen=True)
class ModelFile:
    """A parsed model: the chain plus analysis settings."""

    chain: ChainSpec
    analysis: AnalysisSettings = field(default_factory=AnalysisSettings)


def _integer(value, name):
    """A JSON integer, or a float with an integral value, as int; ModelFileError otherwise."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ModelFileError(f"'{name}' must be an integer, got {json.dumps(value)}")


def _number(value, name):
    """A JSON number as float; strings, booleans and out-of-range integers are refused."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ModelFileError(f"'{name}' must be a number, got {json.dumps(value)}")


def _parse_rate(node, defs, where):
    if isinstance(node, str):
        if node not in defs:
            raise ModelFileError(f"{where}: rate name {node!r} is not defined")
        return defs[node]
    if isinstance(node, bool):
        raise ModelFileError(f"{where}: expected a rate, got a boolean")
    if isinstance(node, (int, float)):
        try:
            return RateFunction.constant(node)
        except (ValueError, OverflowError) as exc:
            raise ModelFileError(f"{where}: {exc}") from None
    if isinstance(node, dict) and len(node) == 1:
        (variant, params), = node.items()
        try:
            if variant == "constant":
                return RateFunction.constant(params)
            if variant == "sinusoid":
                extra = set(params) - {"offset", "amplitude", "frequency", "phase"}
                if extra:
                    raise ModelFileError(f"{where}: unknown sinusoid fields {sorted(extra)}")
                return RateFunction.sinusoid(
                    params["offset"], params["amplitude"], params["frequency"],
                    params.get("phase", 0.0))
            if variant == "table":
                return RateFunction.table(params["times"], params["values"])
        except ModelFileError:
            raise
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise ModelFileError(f"{where}: invalid {variant} rate: {exc}") from None
    raise ModelFileError(f"{where}: expected a number, a defined name or an "
                         f"object with one of 'constant'/'sinusoid'/'table'")


def _parse_chain(node) -> ChainSpec:
    if not isinstance(node, dict):
        raise ModelFileError("'chain' must be an object")
    kind = node.get("kind")
    if kind not in KINDS:
        raise ModelFileError(f"chain kind must be one of {KINDS}, got {kind!r}")
    S = _integer(node.get("states"), "chain.states")

    define = node.get("define") or {}
    if not isinstance(define, dict):
        raise ModelFileError("'chain.define' must be an object of named rates")
    defs = {name: _parse_rate(sub, {}, f"define.{name}") for name, sub in define.items()}

    try:
        if kind == "general":
            entries = node.get("transitions") or []
            if not isinstance(entries, list):
                raise ModelFileError("'chain.transitions' must be a list of "
                                     "{\"from\": i, \"to\": j, \"rate\": ...} objects")
            transitions = {}
            for idx, entry in enumerate(entries):
                try:
                    i = _integer(entry["from"], f"transitions[{idx}].from")
                    j = _integer(entry["to"], f"transitions[{idx}].to")
                    rate = _parse_rate(entry["rate"], defs, f"transitions[{idx}]")
                except (KeyError, TypeError) as exc:
                    raise ModelFileError(f"transitions[{idx}]: missing field {exc}") from None
                if (i, j) in transitions:
                    raise ModelFileError(f"transitions[{idx}]: duplicate pair ({i}, {j})")
                transitions[(i, j)] = rate
            return general_chain(S, transitions)
        lists = []
        for key in RATE_LISTS[kind]:
            raw = node.get(key)
            if not isinstance(raw, list):
                raise ModelFileError(f"chain kind {kind!r} needs the list 'chain.{key}'")
            lists.append([_parse_rate(v, defs, f"{key}[{i}]") for i, v in enumerate(raw)])
        return class_chain(kind, S, *lists)
    except ModelFileError:
        raise
    except ValueError as exc:
        raise ModelFileError(str(exc)) from None


# numeric analysis fields and their parsers; absent ones take the AnalysisSettings defaults
_ANALYSIS_NUMBERS = {"horizon": _number, "grid": _integer, "steps": _integer,
                     "tolerance": _number}
# keys of the retired random verification and their least values: checked, then ignored
_RETIRED = {"trials": 1, "pairs": 1, "seed": 0}


def _parse_analysis(node) -> AnalysisSettings:
    if node is None:
        return AnalysisSettings()
    if not isinstance(node, dict):
        raise ModelFileError("'analysis' must be an object")
    extra = set(node) - set(_ANALYSIS_NUMBERS) - set(_RETIRED) - {"weights"}
    if extra:
        raise ModelFileError(f"unknown analysis fields {sorted(extra)}")
    w = node.get("weights", AnalysisSettings.weights)
    if isinstance(w, list):
        w = tuple(_number(v, f"analysis.weights[{i}]") for i, v in enumerate(w))
    elif not isinstance(w, str):
        raise ModelFileError("'analysis.weights' must be a mode name or a list")
    numbers = {key: kind(node[key], f"analysis.{key}")
               for key, kind in _ANALYSIS_NUMBERS.items() if key in node}
    for key, least in _RETIRED.items():
        if key in node:
            _at_least(key, _integer(node[key], f"analysis.{key}"), least)
    return AnalysisSettings(weights=w, **numbers)


def parse_model(text: str) -> ModelFile:
    """Parse model-file text; raises :class:`ModelFileError` on any defect."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ModelFileError("top level must be an object")
    if "schema" not in doc or _integer(doc["schema"], "schema") != SCHEMA_VERSION:
        raise ModelFileError(f"unsupported schema version {doc.get('schema')!r}; "
                             f"this build reads version {SCHEMA_VERSION}")
    if "chain" not in doc:
        raise ModelFileError("missing 'chain' block")
    return ModelFile(chain=_parse_chain(doc["chain"]),
                     analysis=_parse_analysis(doc.get("analysis")))


def read_text(path, what) -> str:
    """The text of a UTF-8 file; :class:`ModelFileError` if it cannot be read or decoded.

    what names the file for the message.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelFileError(f"cannot read {what}: {exc}") from None


def load_model(path) -> ModelFile:
    """Read and parse a model file from disk."""
    return parse_model(read_text(path, path))


def _rate_to_json(fn: RateFunction):
    if fn.kind == "constant":
        return fn.params[0]
    if fn.kind == "sinusoid":
        offset, amplitude, frequency, phase = fn.params
        return {"sinusoid": {"offset": offset, "amplitude": amplitude,
                             "frequency": frequency, "phase": phase}}
    times, values = fn.params
    return {"table": {"times": list(times), "values": list(values)}}


def serialize_model(model: ModelFile) -> str:
    """Render a model back to JSON text; parsing it reproduces the same chain."""
    spec = model.chain
    chain = {"kind": spec.kind, "states": spec.S}
    if spec.kind == "general":
        chain["transitions"] = [
            {"from": i, "to": j, "rate": _rate_to_json(fn)}
            for i, j, fn in spec.transitions]
    else:
        for key in RATE_LISTS[spec.kind]:
            chain[key] = [_rate_to_json(fn) for fn in getattr(spec, key)]
    return json.dumps({"schema": SCHEMA_VERSION, "chain": chain,
                       "analysis": asdict(model.analysis)}, indent=2) + "\n"
