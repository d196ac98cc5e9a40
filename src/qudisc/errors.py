"""Exception types shared across the package."""


class QudiscError(Exception):
    """Base class for all package-specific errors."""


class PreconditionError(QudiscError):
    """An operation was called outside its stated domain (e.g. an
    equal-copies formula with unequal program registers)."""


class OracleError(QudiscError):
    """A dense-matrix certification step failed its own sanity checks
    (non-Hermitian input, eigensolver residual too large, dimension cap)."""


def refused_as_none(total, refused: list[str]):
    """``total()``, or None after appending the message of the
    ``PreconditionError`` it raised to ``refused``."""
    try:
        return total()
    except PreconditionError as exc:
        refused.append(str(exc))
        return None
