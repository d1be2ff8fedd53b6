"""Versioned JSON output schemas."""

from __future__ import annotations

import json
from importlib import resources

SCHEMA_VERSION = "1"


def load_schema(name: str) -> dict:
    path = resources.files("seplane").joinpath(f"schemas/{name}.schema.json")
    return json.loads(path.read_text())

