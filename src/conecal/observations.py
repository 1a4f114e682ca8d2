"""Observed checkerboard corners and their JSON serialization.

An observation set couples the board dimensions with, per image, an
initial pose estimate and the detected corner pixels keyed by 1-based
grid indices ``(i, j)``. Corner pixel positions may fall outside the
sensor bounds (detection noise); grid indices must be unique and in
range. Image indices must form a dense ``0..n-1`` sequence so they can
double as pose indices.
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
from .raytrace import BoardPose, SceneParams, _corner_board_coords, _rotvec_matrix


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
        n = self.initial_pose.corners_per_side
        if np.any(ij < 1) or np.any(ij > n):
            raise DataError(f"corner indices must lie in [1, {n}]")
        if np.unique(ij[:, 0] * (n + 1) + ij[:, 1]).size != ij.shape[0]:
            raise DataError(f"image {self.image_index} has duplicate corner indices")
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

    def board_local(self) -> np.ndarray:
        """Board-frame planar coordinates of the observed corners, (M, 2)."""
        return self.initial_pose.corner_board_coords(self.grid_ij)


StackedCorners = namedtuple("StackedCorners", "image_index grid_ij pixels targets offsets")


@dataclass(frozen=True, eq=False)
class ObservationSet:
    """All images of one capture session, sharing one board, in index order.
    Compared and hashed by identity, so the fit can key its batch on a set."""

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
        for im in images:
            if (
                im.initial_pose.square_size != self.square_size
                or im.initial_pose.corners_per_side != self.corners_per_side
            ):
                raise DataError("image pose board dimensions disagree with the set")

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


def _pose_from_json(obj: dict, square_size: float, corners_per_side: int) -> BoardPose:
    if "rotation_rowmajor" in obj:
        rot = _json_numbers(obj["rotation_rowmajor"], "rotation_rowmajor").reshape(3, 3)
    elif "rotation_axis_angle_rad" in obj:
        rotvec = _json_numbers(obj["rotation_axis_angle_rad"], "rotation_axis_angle_rad")
        rot = _rotvec_matrix(rotvec)
    else:
        raise DataError("pose needs rotation_rowmajor or rotation_axis_angle_rad")
    return BoardPose(
        rotation=rot,
        translation=_json_numbers(obj["translation_m"], "translation_m"),
        square_size=square_size,
        corners_per_side=corners_per_side,
    )


def _number_kind(kind: type, number: type) -> bool:
    """Whether ``kind`` is ``int``, ``number`` or a subclass (a JSON number), not ``bool``."""
    return issubclass(kind, (int, number)) and not issubclass(kind, bool)


def _json_number(value, name: str, kind: type):
    """``value`` as ``kind`` (``float`` or ``int``) if it is a JSON number, an
    integer for ``int``; a bool, a string or a fraction, which ``kind`` would
    accept, raises :class:`ConfigurationError`."""
    if not _number_kind(type(value), kind):
        raise ConfigurationError(
            f"{name} must be {'an integer' if kind is int else 'a number'}, got {value!r}"
        )
    return kind(value)


def _json_numbers(values: list, name: str) -> np.ndarray:
    """A flat list of the numbers :func:`_json_number` reads as ``float``, as float64;
    any other value, which ``np.array`` might coerce, raises :class:`ConfigurationError`."""
    bad = sorted(kind.__name__ for kind in set(map(type, values)) if not _number_kind(kind, float))
    if bad:
        raise ConfigurationError(f"{name} must hold numbers, got {', '.join(bad)}")
    return np.array(values, dtype=np.float64)


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
            pose = _pose_from_json(im["initial_pose"], square, corners_per_side)
            corners = im["corners"]
            ij = np.array([[c["i"], c["j"]] for c in corners])
            px = _json_numbers([v for c in corners for v in (c["px"], c["py"])], "corner pixels")
            px = px.reshape(-1, 2)
            index = _json_number(im["index"], "image index", int)
            images.append(ImageObservations(index, pose, ij, px))
    except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
        # a pose or board that BoardPose rejects is bad data in this file
        raise DataError(f"malformed observations: {exc}") from exc
    return ObservationSet(square_size=square, corners_per_side=corners_per_side, images=tuple(images))


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


def save_observations(obs: ObservationSet, path) -> None:
    write_json(path, observations_to_json_dict(obs))


def load_observations(path) -> ObservationSet:
    path = Path(path)
    if not path.exists():
        raise DataError(f"observations file not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"observations file is not valid JSON: {exc}") from exc
    return observations_from_json_dict(data)
