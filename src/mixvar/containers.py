"""Binary containers: 16-byte magic, JSON header, little-endian float64 block.

Serialization is canonical (sorted keys, compact separators) so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np

FIELD_MAGIC = b"MIXVAR-FIELD\x00\x00\x00\x00"
TABLE_MAGIC = b"MIXVAR-QCTAB\x00\x00\x00\x00"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(config) -> str:
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


def write_container(path, magic: bytes, header: dict, payload: np.ndarray) -> None:
    if len(magic) != 16:
        raise ValueError("magic must be exactly 16 bytes")
    blob = canonical_json(header).encode("utf-8")
    data = np.ascontiguousarray(payload, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(data)


def read_container(path, magic: bytes) -> tuple[dict, np.ndarray]:
    with open(path, "rb") as fh:
        got = fh.read(16)
        if got != magic:
            raise ValueError(f"bad magic in {path}: {got!r}")
        raw = fh.read(8)
        if len(raw) != 8:
            raise ValueError(f"truncated header in {path}")
        (hlen,) = struct.unpack("<Q", raw)
        header = json.loads(fh.read(hlen).decode("utf-8"))
        payload = np.frombuffer(fh.read(), dtype="<f8").astype(float)
    return header, payload


def save_field(path, field, extra_header: dict | None = None) -> None:
    """Persist a GridField: JSON header + row-major float64 node values."""
    grid = field.grid
    header = {
        "kind": "grid-field",
        "a": list(grid.a.a),
        "domain": [[lo, hi] for lo, hi in grid.domain],
        "shape": list(grid.shape),
        "n": field.n_components,
        "collar": list(grid.a.a),
    }
    if extra_header:
        header.update(extra_header)
    write_container(path, FIELD_MAGIC, header, field.values)


def load_field(path):
    from .grid import Grid, GridField
    from .smoothness import SmoothnessVector

    header, payload = read_container(path, FIELD_MAGIC)
    grid = Grid(
        tuple((lo, hi) for lo, hi in header["domain"]),
        tuple(header["shape"]),
        SmoothnessVector(tuple(header["a"])),
    )
    values = payload.reshape(tuple(header["shape"]) + (header["n"],))
    return GridField(grid, values), header
