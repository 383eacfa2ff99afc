"""argparse helpers shared by ``repro.cli`` and the module entry points."""

from __future__ import annotations

import argparse
import warnings


def positive_int(text: str) -> int:
    """argparse type for counts that must be >= 1 (e.g. --workers)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}")
    return value


class _DeprecatedBuildWorkers(argparse.Action):
    """``--workers`` where it used to mean dataset-build processes."""

    def __call__(self, parser, namespace, values, option_string=None):
        warnings.warn(f"{option_string} is deprecated for dataset-build "
                      "processes; use --build-workers", FutureWarning,
                      stacklevel=2)
        setattr(namespace, self.dest, values)


def add_build_workers_argument(parser: argparse.ArgumentParser,
                               legacy_alias: bool = False) -> None:
    """Attach ``--build-workers N``, the processes for cold dataset builds.

    ``legacy_alias`` also accepts the old ``--workers N`` spelling of the
    same option, with a deprecation warning.
    """
    parser.add_argument("--build-workers", type=positive_int, default=1,
                        metavar="N",
                        help="processes for cold dataset builds")
    if legacy_alias:
        parser.add_argument("--workers", type=positive_int,
                            dest="build_workers", metavar="N",
                            action=_DeprecatedBuildWorkers,
                            help="deprecated alias of --build-workers")
