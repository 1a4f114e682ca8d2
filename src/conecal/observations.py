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
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataError, _check_count
from .raytrace import BoardPose, SceneParams, _rotvec_matrix


def _check_board(square_size: float, corners_per_side: int) -> None:
    """Raise :class:`ConfigurationError` unless the board has a positive,
    finite square size and an integer count of at least 2 corners per side."""
    if not (np.isfinite(square_size) and square_size > 0.0):
        raise ConfigurationError(
            f"board.square_size_m must be positive and finite, got {square_size!r}"
        )
    _check_count("board.corners_per_side", corners_per_side, 2)


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
        _check_board(self.square_size, self.corners_per_side)
        object.__setattr__(self, "corners_per_side", int(self.corners_per_side))
        if not images:
            raise DataError("observation set has no images")
        if [im.image_index for im in images] != list(range(len(images))):
            raise DataError("image indices must be unique and dense from 0")
        n = self.corners_per_side
        for im in images:
            ij = im.grid_ij
            if np.any(ij < 1) or np.any(ij > n):
                raise DataError(f"corner indices must lie in [1, {n}]")
            # equal rows meet once sorted whole; a key of i and j could wrap int64
            rows = ij[np.lexsort(ij.T)]
            if np.any(np.all(rows[1:] == rows[:-1], axis=1)):
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
    """The observations file's document, for :func:`write_json`: the board,
    and per image its index, initial pose and corners. Each image's
    ``corners`` is :class:`Records` with columns ``i``, ``j``, ``px`` and
    ``py``, formatted from :meth:`ObservationSet.stacked` once for the set
    (pixels are finite, so ``float.__repr__`` is their JSON text); its
    parsed form is ``json.loads`` of the file :func:`save_observations` writes."""
    corners = obs.stacked()
    i, j = (list(map(int.__repr__, c)) for c in corners.grid_ij.T.tolist())
    px, py = (list(map(float.__repr__, c)) for c in corners.pixels.T.tolist())
    columns = {"i": i, "j": j, "px": px, "py": py}
    offsets = corners.offsets.tolist()
    images = [
        {
            "index": im.image_index,
            "initial_pose": _pose_to_json(im.initial_pose),
            "corners": Records({k: texts[start:stop] for k, texts in columns.items()}),
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


def _float_json_texts(reprs: list[str], null_rows=()) -> list[str]:
    """JSON texts of a float column given as its ``float.__repr__`` texts:
    NaN and the infinities spelled as ``json`` spells them, and ``null`` at
    ``null_rows`` (the same list when no text changes)."""
    if "nan" in reprs or "inf" in reprs or "-inf" in reprs:
        reprs = [_NON_FINITE.get(t, t) for t in reprs]
    elif null_rows:
        reprs = reprs.copy()
    for k in null_rows:
        reprs[k] = "null"
    return reprs


def _scalar_text(value) -> str:
    """``json.dumps(value)`` for a JSON scalar (a ``str``, ``int``, ``float``,
    ``bool`` or ``None``, subclasses such as ``np.float64`` included);
    any other value raises ``TypeError``, as ``json`` does."""
    if not isinstance(value, (str, int, float, type(None))):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return json.dumps(value)


@dataclass(frozen=True)
class Records:
    """A list of flat records given by column, for :func:`write_json`.

    ``columns`` maps each ``str`` key to the JSON texts of its values, one
    per record in record order (``"null"``, ``'"ok"'``, ``"0.5"``, as
    :func:`_scalar_text` and :func:`_float_json_texts` spell them).
    :func:`write_json` writes it as the list of dicts it stands for,
    without building them.
    """

    columns: dict

    def __post_init__(self):
        if not self.columns:
            raise ValueError("Records needs at least one column")


def _records_texts(records: Records, indent: str) -> list[str]:
    """Texts of the records at ``indent``.

    Each record is rendered from one ``str.format`` template, built once
    for the list from the sorted keys, with the texts filled in by column.
    """
    if not all(isinstance(k, str) for k in records.columns):
        raise TypeError("keys must be str")
    names = sorted(records.columns)
    columns = [records.columns[name] for name in names]
    if len(set(map(len, columns))) > 1:
        raise ValueError("record columns differ in length")
    if not all(set(map(type, column)) <= {str} for column in columns):
        raise TypeError("Records columns must hold JSON texts")
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


def _list_text(texts: list[str], indent: str) -> str:
    """The JSON list of element texts ``texts`` at ``indent``."""
    if not texts:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(texts) + "\n" + indent + "]"


def _json_chunks(obj, indent: str):
    """``json.dumps(obj, indent=2, sort_keys=True)`` for an object at ``indent``,
    yielded in pieces: :class:`Records` whole, a list, an iterator (as the
    list it yields) or a dict one element or entry at a time."""
    inner = indent + "  "
    if isinstance(obj, Records):
        yield _list_text(_records_texts(obj, inner), indent)
        return
    if isinstance(obj, (list, tuple, Iterator)):
        separator = "[\n" + inner
        for v in obj:
            yield separator
            yield from _json_chunks(v, inner)
            separator = ",\n" + inner
        yield "[]" if separator.startswith("[") else "\n" + indent + "]"
        return
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        separator = "{\n" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            yield separator + encode_basestring_ascii(key) + ": "
            yield from _json_chunks(obj[key], inner)
            separator = ",\n" + inner
        yield "\n" + indent + "}"
        return
    yield _scalar_text(obj)


def write_json(path, obj) -> None:
    """Write ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"`` to ``path``.

    The text is the same, byte for byte: every scalar is spelled by
    ``json.dumps``. Two more kinds of list are written as the list they
    stand for: :class:`Records`, a list of flat records given by column as
    their JSON texts, and an iterator, as the list of what it yields. The
    text is written as it is made, one list element or dict entry at a time
    (:class:`Records` is one piece), so its memory does not grow with the
    document, and an iterator's elements need not exist at once. It goes
    to a sibling ``<name>.tmp`` file that replaces ``path`` once complete
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
    replaces ``path`` when the block completes, and is removed on an error,
    a failed replace included. An ``OSError`` (a full disk, a directory at
    ``path``) is raised as a :class:`ConfigurationError` naming ``path``."""
    partial = Path(f"{path}.tmp")
    try:
        with partial.open("w", newline="") as fh:
            yield fh
        os.replace(partial, path)
    except BaseException as exc:
        with suppress(OSError):
            partial.unlink()
        if isinstance(exc, OSError):
            raise ConfigurationError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


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
