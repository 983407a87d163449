"""Text formats: graph files, candidate lists, matrices, JSON reports.

Graph file format: optional '#' comments and blank lines anywhere, one
header line "n <node_count>", then one "u v weight" line per edge with
0-based endpoints. Candidate files are edge lines without the header.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import asdict, is_dataclass
from typing import Any

import numpy as np

from .errors import ParseError
from .graphs import WeightedGraph


def _significant_lines(text: str) -> list[tuple[int, str]]:
    lines = []
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((number, stripped))
    return lines


def _parse_edge_line(number: int, line: str, source: str) -> tuple[int, int, float]:
    parts = line.split()
    if len(parts) != 3:
        raise ParseError(
            f"{source}:{number}: expected 'u v weight', got {line!r}"
        )
    try:
        return int(parts[0]), int(parts[1]), float(parts[2])
    except ValueError as exc:
        raise ParseError(f"{source}:{number}: {exc}") from exc


def parse_graph_text(text: str, source: str = "<string>") -> WeightedGraph:
    lines = _significant_lines(text)
    if not lines:
        raise ParseError(f"{source}: empty graph file")
    header_number, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "n":
        raise ParseError(
            f"{source}:{header_number}: expected header 'n <node_count>', got {header!r}"
        )
    try:
        node_count = int(parts[1])
    except ValueError as exc:
        raise ParseError(f"{source}:{header_number}: {exc}") from exc
    edges = [_parse_edge_line(number, line, source) for number, line in lines[1:]]
    try:
        return WeightedGraph(node_count, tuple(edges))
    except (ValueError, IndexError) as exc:
        raise ParseError(f"{source}: {exc}") from exc


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_graph(path: str) -> WeightedGraph:
    return parse_graph_text(_read_text(path), source=path)


def parse_candidates_text(
    text: str, source: str = "<string>"
) -> tuple[tuple[int, int, float], ...]:
    return tuple(
        _parse_edge_line(number, line, source)
        for number, line in _significant_lines(text)
    )


def load_candidates(path: str) -> tuple[tuple[int, int, float], ...]:
    return parse_candidates_text(_read_text(path), source=path)


def load_matrix(path: str) -> np.ndarray:
    """Whitespace-delimited numeric matrix, '#' comments allowed."""
    text = _read_text(path)
    try:
        return np.loadtxt(io.StringIO(text), comments="#", ndmin=2)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def to_jsonable(value: Any) -> Any:
    """Recursively convert dataclasses, numpy scalars, and tuples for JSON.

    Floats pass through untouched: json serializes them via repr, the
    shortest representation that round-trips exactly (17 significant
    digits at most), and keeps infinities.
    """
    if is_dataclass(value) and not isinstance(value, type):
        return to_jsonable(asdict(value))
    if isinstance(value, dict):
        return {key: to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [to_jsonable(item) for item in value.tolist()]
    return value


def report_json(report: dict) -> str:
    return json.dumps(to_jsonable(report), indent=2, allow_nan=True) + "\n"


def csv_cell(value: float) -> str:
    """CSV numeric cell with 17 significant digits and '.' decimal separator."""
    return format(float(value), ".17g")
