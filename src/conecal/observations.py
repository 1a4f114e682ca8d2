"""Observed checkerboard corners and their JSON serialization.

An observation set couples the board dimensions with, per image, an
initial pose estimate and the detected corner pixels keyed by 1-based
grid indices ``(i, j)``. The set alone holds the board: a pose is only a
rigid transform, and the set checks every image's grid indices against
its board, unique and in range. Corner pixel positions may fall outside
the sensor bounds (detection noise). Image indices must form a dense
``0..n-1`` sequence so they can double as pose indices.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataError
from .raytrace import BoardPose, SceneParams, _rotvec_matrix


def _check_board(square_size: float, corners_per_side: int) -> None:
    """Raise :class:`ConfigurationError` unless the board has a positive,
    finite square size and at least 2 corners per side."""
    if not (np.isfinite(square_size) and square_size > 0.0):
        raise ConfigurationError(
            f"board.square_size_m must be positive and finite, got {square_size!r}"
        )
    if corners_per_side < 2:
        raise ConfigurationError(
            f"board.corners_per_side must be at least 2, got {corners_per_side!r}"
        )


def _board_corners(square_size: float, corners_per_side: int) -> tuple[np.ndarray, np.ndarray]:
    """Every corner of the board, after :func:`_check_board`: the 1-based
    ``(i, j)`` indices, row-major, shape (n^2, 2), and their board-local
    coordinates."""
    _check_board(square_size, corners_per_side)
    n = corners_per_side
    i, j = np.meshgrid(np.arange(1, n + 1), np.arange(1, n + 1), indexing="ij")
    ij = np.column_stack([i.ravel(), j.ravel()])
    return ij, _corner_board_coords(ij, square_size, n)


def _corner_board_coords(ij, square_size: float, corners_per_side: int) -> np.ndarray:
    """Board-local coordinates of 1-based corner indices: corner ``(i, j)`` of
    an ``n``-per-side grid sits at ``((i - (n+1)/2) * square_size,
    (j - (n+1)/2) * square_size)``, so the board's center is its origin."""
    mid = (corners_per_side + 1) / 2.0
    return (np.asarray(ij, dtype=np.float64) - mid) * square_size


@dataclass(frozen=True)
class ImageObservations:
    """Corners detected in one image plus the board's initial pose."""

    image_index: int
    initial_pose: BoardPose
    grid_ij: np.ndarray  # (M, 2) int, 1-based corner indices
    pixels: np.ndarray  # (M, 2) float, detected pixel positions

    def __post_init__(self):
        ij = np.asarray(self.grid_ij)
        px = np.array(self.pixels, dtype=np.float64)
        if ij.size == 0:
            raise DataError(f"image {self.image_index} has no corners")
        if ij.ndim != 2 or ij.shape[1] != 2 or px.shape != (ij.shape[0], 2):
            raise DataError("grid_ij must be (M, 2) and pixels must match it")
        if ij.dtype.kind not in "iu" and not (
            ij.dtype.kind == "f" and np.all(np.isfinite(ij)) and np.all(ij == np.trunc(ij))
        ):
            raise DataError(f"image {self.image_index} has non-integer corner indices")
        ij = ij.astype(np.int64)
        if not np.all(np.isfinite(px)):
            raise DataError(f"image {self.image_index} has non-finite pixel positions")
        ij.flags.writeable = False
        px.flags.writeable = False
        object.__setattr__(self, "image_index", int(self.image_index))
        object.__setattr__(self, "grid_ij", ij)
        object.__setattr__(self, "pixels", px)

    @property
    def n_corners(self) -> int:
        return self.grid_ij.shape[0]


StackedCorners = namedtuple("StackedCorners", "image_index grid_ij pixels targets offsets")


@dataclass(frozen=True, eq=False)
class ObservationSet:
    """All images of one capture session, sharing one board, in index order.
    The set checks the board once and every image's grid indices against
    it. Compared and hashed by identity, so the fit can key its batch on a set."""

    square_size: float
    corners_per_side: int
    images: tuple[ImageObservations, ...]

    def __post_init__(self):
        images = tuple(sorted(self.images, key=lambda im: im.image_index))
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "corners_per_side", int(self.corners_per_side))
        if not images:
            raise DataError("observation set has no images")
        if [im.image_index for im in images] != list(range(len(images))):
            raise DataError("image indices must be unique and dense from 0")
        n = self.corners_per_side
        _check_board(self.square_size, n)
        for im in images:
            ij = im.grid_ij
            if np.any(ij < 1) or np.any(ij > n):
                raise DataError(f"corner indices must lie in [1, {n}]")
            if np.unique(ij, axis=0).shape[0] != ij.shape[0]:
                raise DataError(f"image {im.image_index} has duplicate corner indices")

    @property
    def n_images(self) -> int:
        return len(self.images)

    @property
    def n_corners(self) -> int:
        return sum(im.n_corners for im in self.images)

    def image(self, index: int) -> ImageObservations:
        if not 0 <= index < len(self.images):
            raise DataError(f"no image with index {index}")
        return self.images[index]

    def initial_poses(self) -> tuple[BoardPose, ...]:
        """Poses ordered by image index, usable as SceneParams.poses."""
        return tuple(im.initial_pose for im in self.images)

    def scene(self, intrinsics, cone, surface) -> SceneParams:
        """The scene with every board at its image's initial pose."""
        return SceneParams(intrinsics, cone, surface, self.initial_poses())

    def stacked(self) -> StackedCorners:
        """Every image's corners in image order, one row per corner: its image
        index, 1-based ``grid_ij``, pixel and board-local target (from the
        set's board), plus ``offsets``, so image ``k`` holds rows
        ``offsets[k]:offsets[k + 1]``. Built anew on each call, so no arrays
        stay on the set."""
        counts = [im.n_corners for im in self.images]
        grid_ij = np.concatenate([im.grid_ij for im in self.images])
        return StackedCorners(
            image_index=np.repeat(np.arange(self.n_images), counts),
            grid_ij=grid_ij,
            pixels=np.concatenate([im.pixels for im in self.images]),
            targets=_corner_board_coords(grid_ij, self.square_size, self.corners_per_side),
            offsets=np.concatenate([[0], np.cumsum(counts)]),
        )


def _pose_to_json(pose: BoardPose) -> dict:
    return {
        "rotation_rowmajor": [float(v) for v in pose.rotation.ravel()],
        "translation_m": [float(v) for v in pose.translation],
    }


def _pose_from_json(obj: dict) -> BoardPose:
    if "rotation_rowmajor" in obj:
        rot = _json_numbers(obj["rotation_rowmajor"], "rotation_rowmajor").reshape(3, 3)
    elif "rotation_axis_angle_rad" in obj:
        rotvec = _json_numbers(obj["rotation_axis_angle_rad"], "rotation_axis_angle_rad")
        rot = _rotvec_matrix(rotvec)
    else:
        raise DataError("pose needs rotation_rowmajor or rotation_axis_angle_rad")
    return BoardPose(rotation=rot, translation=_json_numbers(obj["translation_m"], "translation_m"))


def _number_kind(kind: type, number: type) -> bool:
    """Whether ``kind`` is ``int``, ``number`` or a subclass (a JSON number), not ``bool``."""
    return issubclass(kind, (int, number)) and not issubclass(kind, bool)


def _json_number(value, name: str, kind: type):
    """``value`` as ``kind`` (``float`` or ``int``) if it is a finite JSON
    number, an integer for ``int``; a bool, a string or a fraction, which
    ``kind`` would accept, NaN or an infinity, which ``json`` parses, and an
    integer that no float64 (for ``float``: it reads as an infinity) or
    int64 (for ``int``) holds raise :class:`ConfigurationError`."""
    if not _number_kind(type(value), kind):
        raise ConfigurationError(
            f"{name} must be {'an integer' if kind is int else 'a number'}, got {value!r}"
        )
    if kind is int and not -(2**63) <= value < 2**63:
        raise ConfigurationError(f"{name} must fit a 64-bit integer")
    try:
        value = kind(value)
    except OverflowError:
        value = np.inf if value > 0 else -np.inf
    if kind is float and not np.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
    return value


def _json_numbers(values: list, name: str, kind: type = float) -> np.ndarray:
    """A flat list of the numbers :func:`_json_number` reads as ``kind``, as
    float64 or int64; any other value, which ``np.array`` might coerce, and a
    number that :func:`_json_number` rejects raise :class:`ConfigurationError`."""
    bad = sorted(k.__name__ for k in set(map(type, values)) if not _number_kind(k, kind))
    if bad:
        wanted = "integers, got non-integer" if kind is int else "numbers, got"
        raise ConfigurationError(f"{name} must hold {wanted} {', '.join(bad)}")
    try:
        array = np.array(values, dtype=np.int64 if kind is int else np.float64)
        finite = np.all(np.isfinite(array))
    except OverflowError:
        finite = False
    if not finite:
        wanted = "64-bit integers" if kind is int else "finite numbers"
        raise ConfigurationError(f"{name} must hold {wanted}")
    return array


def observations_to_json_dict(obs: ObservationSet) -> dict:
    corners = obs.stacked()
    records = [
        {"i": i, "j": j, "px": px, "py": py}
        for (i, j), (px, py) in zip(corners.grid_ij.tolist(), corners.pixels.tolist())
    ]
    offsets = corners.offsets.tolist()
    images = [
        {
            "index": im.image_index,
            "initial_pose": _pose_to_json(im.initial_pose),
            "corners": records[start:stop],
        }
        for im, start, stop in zip(obs.images, offsets, offsets[1:])
    ]
    return {
        "board": {
            "square_size_m": obs.square_size,
            "corners_per_side": obs.corners_per_side,
        },
        "images": images,
    }


def observations_from_json_dict(data: dict) -> ObservationSet:
    try:
        board = data["board"]
        square = _json_number(board["square_size_m"], "board.square_size_m", float)
        corners_per_side = _json_number(board["corners_per_side"], "board.corners_per_side", int)
        images = []
        for im in data["images"]:
            pose = _pose_from_json(im["initial_pose"])
            corners = im["corners"]
            ij = [v for c in corners for v in (c["i"], c["j"])]
            ij = _json_numbers(ij, "corner indices", int).reshape(-1, 2)
            px = [v for c in corners for v in (c["px"], c["py"])]
            px = _json_numbers(px, "corner pixels").reshape(-1, 2)
            index = _json_number(im["index"], "image index", int)
            images.append(ImageObservations(index, pose, ij, px))
        return ObservationSet(square, corners_per_side, tuple(images))
    except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
        # a pose or board that BoardPose or the set rejects is bad data in this file
        raise DataError(f"malformed observations: {exc}") from exc


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _scalar_texts(values) -> list[str] | None:
    """JSON text of each value, or None if any value is not a JSON scalar.

    Floats (subclasses such as ``np.float64`` included) are spelled by
    ``float.__repr__`` and ints by ``int.__repr__``, as ``json`` spells
    them; ``bool`` and ``None`` are matched before ``int``.
    """
    kinds = set(map(type, values))
    if kinds == {float}:
        texts = list(map(float.__repr__, values))
        if "nan" in texts or "inf" in texts or "-inf" in texts:
            texts = [_NON_FINITE.get(t, t) for t in texts]
        return texts
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if not all(issubclass(kind, (str, int, float, type(None))) for kind in kinds):
        return None
    texts = []
    for v in values:
        if isinstance(v, str):
            texts.append(encode_basestring_ascii(v))
        elif v is None:
            texts.append("null")
        elif v is True:
            texts.append("true")
        elif v is False:
            texts.append("false")
        elif isinstance(v, int):
            texts.append(int.__repr__(v))
        else:
            text = float.__repr__(v)
            texts.append(_NON_FINITE.get(text, text))
    return texts


def _record_texts(values: list, indent: str) -> list[str] | None:
    """Texts of a list of flat dicts sharing one set of ``str`` keys, or None.

    Each record is rendered from one ``str.format`` template, built once
    for the list from the sorted keys, with the values encoded by column.
    """
    first = values[0]
    if not isinstance(first, dict) or not first:
        return None
    keys = first.keys()
    if not all(isinstance(v, dict) and v.keys() == keys for v in values):
        return None
    if not all(isinstance(k, str) for k in keys):
        return None
    names = sorted(keys)
    columns = []
    for name in names:
        column = _scalar_texts([v[name] for v in values])
        if column is None:
            return None
        columns.append(column)
    inner = indent + "  "
    fields = ",\n" + inner
    template = (
        "{{\n"
        + inner
        + fields.join(
            encode_basestring_ascii(name).replace("{", "{{").replace("}", "}}") + ": {}"
            for name in names
        )
        + "\n"
        + indent
        + "}}"
    )
    return list(map(template.format, *columns))


def _json_chunks(obj, indent: str):
    """``json.dumps(obj, indent=2, sort_keys=True)`` for an object at ``indent``,
    yielded in pieces: a list of scalars or of flat records whole, any other
    list or dict one element or entry at a time."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            yield "[]"
            return
        inner = indent + "  "
        texts = _scalar_texts(obj)
        if texts is None:
            texts = _record_texts(obj, inner)
        if texts is not None:
            yield "[\n" + inner + (",\n" + inner).join(texts) + "\n" + indent + "]"
            return
        separator = "[\n" + inner
        for v in obj:
            yield separator
            yield from _json_chunks(v, inner)
            separator = ",\n" + inner
        yield "\n" + indent + "]"
        return
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        inner = indent + "  "
        separator = "{\n" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            yield separator + encode_basestring_ascii(key) + ": "
            yield from _json_chunks(obj[key], inner)
            separator = ",\n" + inner
        yield "\n" + indent + "}"
        return
    texts = _scalar_texts([obj])
    if texts is None:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    yield texts[0]


def write_json(path, obj) -> None:
    """Write ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"`` to ``path``.

    The text is the same, byte for byte; ``json`` falls back to its
    pure-Python encoder whenever ``indent`` is set, and this writer
    renders lists of scalars and lists of flat records a column at a
    time instead. The text is written as it is made, one list element or
    dict entry at a time (a list of scalars or of flat records is one
    piece), so its memory does not grow with the document. It goes to a
    sibling ``<name>.tmp`` file that replaces ``path`` once complete
    (:func:`_replacing`). Like ``json``, it raises ``TypeError`` for values
    it cannot encode (``np.int64``, sets, ...); unlike ``json``, also for
    non-``str`` dict keys.
    """
    with _replacing(path) as fh:
        fh.writelines(_json_chunks(obj, ""))
        fh.write("\n")


@contextmanager
def _replacing(path):
    """A text file for ``path``'s new contents: a sibling ``<name>.tmp`` that
    replaces ``path`` when the block completes, and is removed on an error."""
    partial = Path(f"{path}.tmp")
    try:
        with partial.open("w", newline="") as fh:
            yield fh
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    os.replace(partial, path)


def read_json(path, error: type, what: str):
    """The JSON document in ``path``, read as UTF-8; a missing or unreadable file,
    bad UTF-8, bad JSON, an integer past Python's digit limit and nesting
    past the recursion limit raise ``error``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise error(f"{what} not found: {path}") from exc
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc


def save_observations(obs: ObservationSet, path) -> None:
    write_json(path, observations_to_json_dict(obs))


def load_observations(path) -> ObservationSet:
    return observations_from_json_dict(read_json(path, DataError, "observations file"))
