"""Bundled benchmark instances and loading helpers.

Instance references are either a bundled name (`table1`, `table2`) or a path
to a UTF-8 instance file on disk.
"""

from __future__ import annotations

from pathlib import Path

from ..model import (
    InstanceError,
    ProjectNetwork,
    TctpInstance,
    derive_precedence_from_nodes,
    load_json,
    parse_aoa_instance,
    parse_tctp_instance,
)

BUNDLED_NAMES = ("table1", "table2")


def read_bundled(name: str) -> str:
    if name not in BUNDLED_NAMES:
        raise InstanceError(f"unknown bundled instance {name!r}; have {BUNDLED_NAMES}")
    return __spec__.loader.get_data(str(Path(__file__).with_name(f"{name}.json"))).decode("utf-8")


def instance_text(ref: str) -> str:
    """Resolve an instance reference: bundled name first, then filesystem path."""
    if ref in BUNDLED_NAMES:
        return read_bundled(ref)
    path = Path(ref)
    if not path.exists():
        raise InstanceError(f"instance {ref!r} is neither bundled nor an existing file")
    return path.read_text(encoding="utf-8")


def load_network(ref: str) -> ProjectNetwork:
    """Load an activity-on-arrow instance as a precedence network."""
    return derive_precedence_from_nodes(parse_aoa_instance(instance_text(ref)))


def load_tctp(ref: str, indirect_cost: int | None = None) -> TctpInstance:
    return parse_tctp_instance(instance_text(ref), indirect_cost_override=indirect_cost)


def list_bundled_instances() -> list[dict]:
    """Catalogue of shipped instances: name, kind, activity count, description."""
    catalogue = []
    for name in BUNDLED_NAMES:
        data = load_json(read_bundled(name))
        if data["format"] == "aoa-v1":
            count = len(data["arcs"])
        else:
            count = len(data["activities"])
        catalogue.append(
            {
                "name": name,
                "format": data["format"],
                "activities": count,
                "description": data.get("description", ""),
            }
        )
    return catalogue


def export_bundled(name: str, destination: str | Path) -> None:
    Path(destination).write_text(read_bundled(name), encoding="utf-8")
