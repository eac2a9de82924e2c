"""Persistence for analysis artefacts.

The paper's workflow is human-in-the-loop: MUPs are identified, a domain
expert reviews them (marking immaterial ones), and the acquisition plan is
handed to whoever collects data.  That hand-off needs files.  This module
serializes :class:`~repro.core.mups.MupResult` and
:class:`~repro.core.enhancement.EnhancementResult` to JSON and back, with
patterns in the paper's compact string form where possible.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, List, Union

from repro._util import SearchStats
from repro.core.enhancement.greedy import EnhancementResult
from repro.core.mups.base import MupResult
from repro.core.pattern import Pattern
from repro.exceptions import ReproError

_FORMAT_VERSION = 1


def _pattern_to_json(pattern: Pattern) -> List[int]:
    return list(pattern.values)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_list(values: Any, what: str) -> List[int]:
    if not isinstance(values, list) or not all(_is_int(v) for v in values):
        raise ReproError(f"{what} must be a list of integers, got {values!r}")
    return values


def _pattern_from_json(values: Any) -> Pattern:
    return Pattern(_int_list(values, "a pattern"))


def _list_field(payload: dict, name: str) -> list:
    value = payload.get(name)
    if not isinstance(value, list):
        raise ReproError(f"field {name!r} must be a list, got {value!r}")
    return value


def _int_field(payload: dict, name: str, default: Any = None) -> int:
    value = payload.get(name, default)
    if not _is_int(value):
        raise ReproError(f"field {name!r} must be an integer, got {value!r}")
    return value


def _float_field(payload: dict, name: str) -> float:
    value = payload.get(name, 0.0)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ReproError(f"field {name!r} must be a number, got {value!r}")
    return float(value)


def save_mup_result(result: MupResult, path: Union[str, Path]) -> None:
    """Write a MUP identification result as JSON."""
    payload = {
        "format": "repro.mup_result",
        "version": _FORMAT_VERSION,
        "threshold": result.threshold,
        "max_level": result.max_level,
        "mups": [_pattern_to_json(p) for p in result.mups],
        "stats": result.stats.as_dict(),
    }
    Path(path).write_text(json.dumps(payload, indent=2))


def load_mup_result(path: Union[str, Path]) -> MupResult:
    """Read a MUP identification result written by :func:`save_mup_result`."""
    payload = _read(path, "repro.mup_result")
    stats_dict = payload.get("stats", {})
    if not isinstance(stats_dict, dict):
        raise ReproError(f"field 'stats' must be an object, got {stats_dict!r}")
    stats = SearchStats(
        nodes_generated=_int_field(stats_dict, "nodes_generated", 0),
        coverage_evaluations=_int_field(stats_dict, "coverage_evaluations", 0),
        dominance_checks=_int_field(stats_dict, "dominance_checks", 0),
        pruned=_int_field(stats_dict, "pruned", 0),
        seconds=_float_field(stats_dict, "seconds"),
    )
    max_level = payload.get("max_level")
    return MupResult(
        mups=tuple(_pattern_from_json(v) for v in _list_field(payload, "mups")),
        threshold=_int_field(payload, "threshold"),
        stats=stats,
        max_level=None if max_level is None else _int_field(payload, "max_level"),
    )


def save_enhancement_result(
    result: EnhancementResult, path: Union[str, Path]
) -> None:
    """Write an acquisition plan as JSON."""
    payload = {
        "format": "repro.enhancement_result",
        "version": _FORMAT_VERSION,
        "combinations": [list(c) for c in result.combinations],
        "generalized": [_pattern_to_json(p) for p in result.generalized],
        "targets": result.targets,
        "unhittable": [_pattern_to_json(p) for p in result.unhittable],
        "iterations": result.iterations,
        "nodes_visited": result.nodes_visited,
        "seconds": result.seconds,
    }
    Path(path).write_text(json.dumps(payload, indent=2))


def load_enhancement_result(path: Union[str, Path]) -> EnhancementResult:
    """Read an acquisition plan written by :func:`save_enhancement_result`."""
    payload = _read(path, "repro.enhancement_result")
    return EnhancementResult(
        combinations=tuple(
            tuple(_int_list(c, "a combination"))
            for c in _list_field(payload, "combinations")
        ),
        generalized=tuple(
            _pattern_from_json(v) for v in _list_field(payload, "generalized")
        ),
        targets=_int_field(payload, "targets"),
        unhittable=tuple(
            _pattern_from_json(v) for v in _list_field(payload, "unhittable")
        ),
        iterations=_int_field(payload, "iterations", 0),
        nodes_visited=_int_field(payload, "nodes_visited", 0),
        seconds=_float_field(payload, "seconds"),
    )


def _read(path: Union[str, Path], expected_format: str) -> dict:
    try:
        payload = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise ReproError(f"{path} is not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise ReproError(f"{path} must hold a JSON object")
    if payload.get("format") != expected_format:
        raise ReproError(
            f"{path} holds {payload.get('format')!r}, expected {expected_format!r}"
        )
    if _int_field(payload, "version", 0) > _FORMAT_VERSION:
        raise ReproError(
            f"{path} was written by a newer version of repro "
            f"(format v{payload['version']})"
        )
    return payload
