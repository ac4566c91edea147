"""Binary snapshot format for bulk fields.

Layout (little endian), stable across versions of this package:

    offset  size  content
    0       4     magic b"ESLB"
    4       4     uint32 format version (currently 1)
    8       12    uint32 n1, n2, nz
    20      4     uint32 ncomp (1 for scalars, 3 for vector fields)
    24      8     float64 simulation time
    32      32    sha256 digest of the coordinate map (grid dims + f samples)
    64      -     float64 data, C order, shape (ncomp, n1, n2, nz)

The map digest ties a snapshot to the interface it was taken over;
readers can compare against CoordinateMap.content_hash().
"""

from __future__ import annotations

from dataclasses import dataclass
import struct

import numpy as np

from .errors import GridMismatch, PreconditionViolated
from .geometry import CoordinateMap

MAGIC = b"ESLB"
VERSION = 1
_HEADER = struct.Struct("<4sIIIIId32s")


@dataclass
class Snapshot:
    values: np.ndarray          # (ncomp, n1, n2, nz)
    time: float
    map_hash: bytes
    grid_shape: tuple

    def matches_map(self, cmap: CoordinateMap) -> bool:
        return self.map_hash == cmap.content_hash()


def write_snapshot(path, values: np.ndarray, cmap: CoordinateMap, time: float):
    """Write one scalar or vector bulk field to a snapshot file."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 3:
        values = values[None]
    if values.ndim != 4 or values.shape[1:] != cmap.grid.shape:
        raise GridMismatch(f"snapshot shape {values.shape} vs grid {cmap.grid.shape}")
    n1, n2, nz = cmap.grid.shape
    header = _HEADER.pack(
        MAGIC, VERSION, n1, n2, nz, values.shape[0], float(time), cmap.content_hash()
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(values).tobytes())


def read_snapshot(path) -> Snapshot:
    """Read a snapshot written by write_snapshot.

    Raises PreconditionViolated when the file is not a snapshot of this
    format version (wrong magic or version), and GridMismatch when it is
    shorter than the header or its payload size disagrees with the header
    (a truncated or over-long file).
    """
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if raw[:len(MAGIC)] != MAGIC:
            raise PreconditionViolated("not a slab snapshot file")
        if len(raw) < _HEADER.size:
            raise GridMismatch(f"snapshot file is {len(raw)} bytes, "
                               f"the header alone needs {_HEADER.size}")
        _, version, n1, n2, nz, ncomp, time, digest = _HEADER.unpack(raw)
        if version != VERSION:
            raise PreconditionViolated(
                f"unsupported snapshot version {version}")
        payload = fh.read()
    want = 8 * ncomp * n1 * n2 * nz
    if len(payload) != want:
        raise GridMismatch(f"snapshot payload is {len(payload)} bytes, "
                           f"header ({ncomp}, {n1}, {n2}, {nz}) needs {want}")
    data = np.frombuffer(payload, dtype=float).reshape(ncomp, n1, n2, nz)
    return Snapshot(data.copy(), time, digest, (n1, n2, nz))
