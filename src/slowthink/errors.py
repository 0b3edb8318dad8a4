"""Semantic exception hierarchy shared by all modules, and the input checks that raise it."""

import math
from typing import NamedTuple


class SlowthinkError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(SlowthinkError, ValueError):
    """An input value (argument, config value, file record or fit point) is bad."""


class PreconditionError(SlowthinkError, ValueError):
    """A formula was called outside the regime where it is defined."""


class ResourceLimitError(SlowthinkError, RuntimeError):
    """A request would exceed an explicit size or node budget."""


def checked_number(value, name: str, kind=float):
    """``kind(value)``, or a ValidationError naming ``name`` when the value
    (say, from a JSON config) is not a number or is a bool; for ``kind=int``
    also when it is a float with a fractional part, which ``int`` would cut,
    and for ``kind=float`` when it is not finite."""
    if isinstance(value, bool) or kind is int and (
        isinstance(value, float) and math.isfinite(value) and not value.is_integer()
    ):
        whole = "whole " if kind is int else ""
        raise ValidationError(f"{name} must be a {whole}number, got {value!r}")
    try:
        number = kind(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a number, got {value!r}") from None
    except OverflowError:
        raise ValidationError(f"{name} is out of range, got {value!r}") from None
    # an int is never checked: math.isfinite raises OverflowError past the float range
    if kind is float and not math.isfinite(number):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return number


def at_least(value, least, name: str):
    """``value``, or a ValidationError naming ``name`` when it is below
    ``least`` or is nan."""
    if not value >= least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")
    return value


def text_lines(path):
    """The lines of a UTF-8 file with their endings as written, read lazily;
    a ValidationError naming the file when one does not decode."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: {exc}") from None


def checked_section(value, name: str) -> dict:
    """``value`` when it is a dict, else a ValidationError naming the config
    section ``name``."""
    if not isinstance(value, dict):
        raise ValidationError(f"config section {name!r} must be an object, got {value!r}")
    return value


def reject_stray_keys(section: dict, owner: str, keys) -> None:
    """A ValidationError naming ``owner`` and every key of a config section
    outside ``keys``, the keys that ``owner`` reads."""
    stray = sorted(set(section) - set(keys))
    if stray:
        raise ValidationError(
            f"{owner} takes no parameter {', '.join(stray)}; "
            f"its parameters are {', '.join(keys)}"
        )


class Kinds(NamedTuple):
    """The kinds of one config section: ``params`` maps each kind to the
    fields it takes, and ``owner`` words a kind in errors."""

    section: str
    params: dict
    owner: str  # formatted with the kind

    def taken(self, obj) -> tuple[str, ...]:
        """The fields ``obj.kind`` takes; a ValidationError for another kind or
        for a set field (one not None) that the kind does not take."""
        names = self.params.get(obj.kind) if isinstance(obj.kind, str) else None
        if names is None:
            raise ValidationError(
                f"{self.section} kind must be one of {tuple(self.params)}, got {obj.kind!r}"
            )
        fields = {name: v for name, v in vars(obj).items() if v is not None}
        reject_stray_keys(fields, self.owner.format(obj.kind), ("kind", *names))
        return names

    def build(self, cls, cfg, defaults):
        """``cls`` from a config section: its kind and the fields that kind
        takes, each read from the section or else from ``defaults``; a key the
        kind does not take is rejected."""
        given = {**defaults, **checked_section(cfg, self.section)}
        kind = given.get("kind")
        names = self.params.get(kind) if isinstance(kind, str) else None
        if names is not None:
            reject_stray_keys(cfg, self.owner.format(kind), ("kind", *names))
        return cls(kind, **{name: given.get(name) for name in names or ()})
