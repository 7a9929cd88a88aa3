"""Shared ergonomics for the name-based component registries.

Routers (:mod:`repro.serving.routing`), admission schedulers
(:mod:`repro.schedulers.registry`), and autoscaling policies
(:mod:`repro.serving.autoscale`) are all constructed by registry name from
experiment configs, benchmark parametrizations, and the command line.  The
failure modes are therefore always the same — a misspelled name, or a keyword
argument meant for a different component — and deserve the same helpful
errors everywhere:

* an unknown name lists the registered names (sorted, so the message is
  deterministic and grep-able) and suggests the closest match for likely
  typos, and
* an unknown keyword argument is rejected *before* the constructor runs,
  listing the keywords the chosen factory actually accepts (with a
  did-you-mean suggestion), instead of surfacing as a bare ``TypeError``
  from deep inside ``__init__``.
"""

from __future__ import annotations

import difflib
import inspect
from typing import Callable, Iterable, Mapping, TypeVar

T = TypeVar("T")


def _suggestion(unknown: str, known: Iterable[str]) -> str:
    """``"; did you mean 'x'?"`` for the closest known name, or ``""``."""
    matches = difflib.get_close_matches(unknown, list(known), n=1, cutoff=0.6)
    return f"; did you mean {matches[0]!r}?" if matches else ""


def accepted_kwargs(factory: Callable[..., object]) -> list[str] | None:
    """Keyword names a factory accepts, or ``None`` if it takes ``**kwargs``.

    Factories whose signature cannot be introspected (builtins, C
    extensions) are treated like ``**kwargs`` factories: validation is
    skipped and the constructor's own error surfaces.
    """
    try:
        parameters = inspect.signature(factory).parameters
    except (TypeError, ValueError):  # pragma: no cover - non-introspectable
        return None
    names: list[str] = []
    for name, parameter in parameters.items():
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            return None
        if parameter.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            names.append(name)
    return names


def instantiate(
    kind: str,
    registry: Mapping[str, Callable[..., T]],
    name: str,
    kwargs: Mapping[str, object],
) -> T:
    """Build a registered component, with helpful unknown-name/kwarg errors.

    Args:
        kind: human-readable component kind for error messages
            (e.g. ``"router"``).
        registry: name-to-factory mapping.
        name: registry key to instantiate.
        kwargs: keyword arguments forwarded to the factory.

    Raises:
        KeyError: if ``name`` is not registered.
        TypeError: if ``kwargs`` contains names the factory does not accept.
    """
    try:
        factory = registry[name]
    except KeyError:
        known = ", ".join(sorted(registry))
        raise KeyError(
            f"unknown {kind} {name!r}; known: {known}{_suggestion(name, registry)}"
        ) from None
    # Introspection is skipped without kwargs: there is nothing to check,
    # and a signature costs more than building most components.
    accepted = accepted_kwargs(factory) if kwargs else None
    if accepted is not None:
        unknown = sorted(set(kwargs) - set(accepted))
        if unknown:
            raise TypeError(
                f"{kind} {name!r} got unexpected keyword arguments "
                f"{unknown}; accepted: {sorted(accepted)}"
                f"{_suggestion(unknown[0], accepted)}"
            )
    return factory(**kwargs)
