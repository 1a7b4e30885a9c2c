"""Exception taxonomy shared across the package, and its one JSON decode.

Every error raised on a contract boundary derives from Sandbox3dError so
callers can catch the family without enumerating modules. Every JSON
document the package reads is decoded by `loads_json` or `raw_decode_json`,
so a document nested too deeply for the decoder fails as the ValueError of
any other malformed document, which each reader names, never as a bare
RecursionError.
"""

from __future__ import annotations

import json

_DECODER = json.JSONDecoder()


def loads_json(text: str):
    """`json.loads(text)`; nesting beyond the decoder's depth is a ValueError."""
    try:
        return json.loads(text)
    except RecursionError as err:
        raise ValueError("JSON nested too deeply to decode") from err


def raw_decode_json(text: str, start: int) -> tuple[object, int]:
    """`JSONDecoder().raw_decode(text, start)`: the value that begins at
    `start` and the index after it; nesting beyond the decoder's depth is a
    ValueError."""
    try:
        return _DECODER.raw_decode(text, start)
    except RecursionError as err:
        raise ValueError("JSON nested too deeply to decode") from err


class Sandbox3dError(Exception):
    """Base class for all package-specific errors."""


class BehindCameraError(Sandbox3dError):
    """A point with non-positive camera-frame depth was projected."""


class EmptyMaskError(Sandbox3dError):
    """An operation that needs at least one set pixel got an empty mask."""


class EmptyProxyError(Sandbox3dError):
    """Every candidate pixel had invalid depth, so no proxy points exist."""


class ObjectNotFoundError(Sandbox3dError):
    """The segmenter could not find the hinted object in a view."""


class EmptySandboxError(Sandbox3dError):
    """Consensus voting and clustering left no box to build a scene from."""


class MissingViewError(Sandbox3dError):
    """A precomputed bundle lacks a requested (trajectory, step) frame."""

    def __init__(self, trajectory: int, step: int):
        super().__init__(f"bundle has no frame for trajectory={trajectory} step={step}")
        self.trajectory = trajectory
        self.step = step


class BundleFormatError(Sandbox3dError):
    """A scene bundle violates the manifest schema; message names the field."""


class ProviderError(Sandbox3dError):
    """A model provider failed terminally (bad response, exhausted retries)."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class HintParseError(Sandbox3dError):
    """No parseable object-hint array in the model output."""


class AnswerParseError(Sandbox3dError):
    """No answer letter could be recovered from the model output."""


class GenerationError(Sandbox3dError):
    """Rejection sampling exhausted its budget while placing objects."""


class ConfigError(Sandbox3dError):
    """The run configuration is malformed or inconsistent."""
