"""Exception taxonomy shared by all pspt modules.

The command-line tools map these onto exit codes with `report_error`:
configuration problems exit 1, data problems exit 2, numeric failures
exit 3. A command-line usage error is a configuration problem.
"""

import argparse
import sys

EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3


class PsptError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(PsptError):
    """Invalid configuration value or unknown config key."""


class ContractError(PsptError):
    """An operation was called outside its contract (caller bug)."""


class ShapeError(PsptError):
    """Tensor dimensions do not match the operation's requirements."""


class NumericError(PsptError):
    """Non-finite values where finite ones are required."""


class VocabularyError(PsptError):
    """Token id outside the vocabulary range."""


class SequenceLengthError(PsptError):
    """Assembled input longer than the model's maximum sequence length."""


class CheckpointError(PsptError):
    """Malformed checkpoint file (bad magic, version, or truncation)."""


class DataError(PsptError):
    """Dataset unusable: empty, too small, or structurally invalid."""


class ParseError(DataError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class InputError(PsptError):
    """Invalid runtime input (runs, candidate lists, metric vectors)."""


class ArgumentParser(argparse.ArgumentParser):
    """An argparse parser whose usage errors raise ConfigError after the
    usage line, instead of exiting the process with code 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


# error kinds in the order they are tested, with their exit codes
_ERROR_KINDS = (
    (ConfigError, "config error", EXIT_CONFIG),
    ((DataError, InputError, VocabularyError, CheckpointError, OSError), "data error", EXIT_DATA),
    (NumericError, "numeric error", EXIT_NUMERIC),
    (PsptError, "error", EXIT_DATA),
)


def report_error(exc: PsptError | OSError) -> int:
    """Print `exc` to stderr under its kind and return that kind's exit code."""
    kind, code = next((k, c) for types, k, c in _ERROR_KINDS if isinstance(exc, types))
    print(f"{kind}: {exc}", file=sys.stderr)
    return code
