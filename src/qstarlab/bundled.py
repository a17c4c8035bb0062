"""Bundled example instances, shipped as JSON and loaded through the parser.

Each bundle carries one instance and a few named form families chosen to
exhibit a specific behavior: dense but insufficient seeds whose balanced
closure separates, a family whose weak products are genuinely ambiguous,
a pattern algebra whose products escape the span, and a two-point
discrete-function model with a frozen extremal value.
"""

from __future__ import annotations

import functools
import json
import re
from importlib import resources

from .algebra import QuasiAlgebraInstance
from .errors import ParseError
from .forms import FormFamily


@functools.cache
def _bundle_dir():
    return resources.files("qstarlab").joinpath("bundled")


def bundle_names():
    return sorted(p.name[:-len(".json")] for p in _bundle_dir().iterdir()
                  if p.name.endswith(".json"))


def _bundle_file(name: str):
    """The shipped ``<name>.json``, or None when no bundle has that name.  The
    shipped names are lower-case letters, digits and underscores, so any other
    name is none, whatever file it would reach."""
    if not re.fullmatch(r"[a-z0-9_]+", name):
        return None
    path = _bundle_dir().joinpath(f"{name}.json")
    return path if path.is_file() else None


def parse_payload(payload, source: str):
    """``(instance, families, description)`` from a decoded source: an
    object with an ``instance`` and optional ``families`` and
    ``description``, or a bare instance."""
    if not isinstance(payload, dict):
        raise ParseError(source, "payload must be an object")
    if "instance" not in payload:
        return QuasiAlgebraInstance.from_json(payload, source), {}, ""
    families = payload.get("families", {})
    if not isinstance(families, dict):
        raise ParseError(source, "families must be an object of named families",
                         field="families")
    inst = QuasiAlgebraInstance.from_json(payload["instance"], source)
    return (inst, {name: FormFamily.from_json(f, source) for name, f in families.items()},
            str(payload.get("description", "")))


def load_bundle(name: str) -> dict:
    """Load a shipped bundle through the JSON parser.

    Returns a dict with the instance, a dict of families, and the
    description text.
    """
    source = f"bundled:{name}"
    path = _bundle_file(name)
    if path is None:
        raise ParseError(source, f"unknown bundle; available: {', '.join(bundle_names())}")
    payload = json.loads(path.read_text())
    inst, families, description = parse_payload(payload, source)
    return {"name": name, "description": description, "instance": inst, "families": families}
