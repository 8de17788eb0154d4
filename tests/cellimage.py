"""The cells of a track or group as a uint8 bit array, and back.

The device stores a track as one int per interport segment (bit j of
segment k is cell k * interport + j) and a group as one int per column
(bit r is row r). Tests that index single cells, or run the per-bit
loops of ``skrmbetree.kernels`` as oracles, work on this image instead:
cell i of a track, and ``[row, column]`` of a group.
"""

import numpy as np

from skrmbetree.device import Racetrack


def _unpack(value: int, n: int) -> np.ndarray:
    raw = value.to_bytes((n + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, np.uint8), count=n,
                         bitorder="little")


def _pack(bits) -> int:
    bits = np.asarray(bits)
    if not np.isin(bits, (0, 1)).all():
        raise ValueError("a cell holds 0 or 1")
    return int.from_bytes(np.packbits(bits.astype(np.uint8),
                                      bitorder="little").tobytes(), "little")


def cell_image(handle) -> np.ndarray:
    """A uint8 copy of the cells: shape (cells,) for a track, (rows,
    columns) for a group."""
    if isinstance(handle, Racetrack):
        return np.concatenate([_unpack(seg, handle.interport)
                               for seg in handle.cells])
    return np.stack([_unpack(col, handle.n_tracks) for col in handle.cells],
                    axis=1)


def load_image(handle, image) -> None:
    """Store a 0/1 image of cell_image's shape into the handle's cells."""
    image = np.asarray(image)
    if image.shape != cell_image(handle).shape:
        raise ValueError(f"image shape {image.shape} does not fit the cells")
    if isinstance(handle, Racetrack):
        ip = handle.interport
        handle.cells = [_pack(image[k:k + ip])
                        for k in range(0, len(image), ip)]
    else:
        handle.cells = [_pack(image[:, c]) for c in range(image.shape[1])]
