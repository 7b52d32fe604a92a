"""Shared exception types."""


class HypothesisError(Exception):
    """A named hypothesis of a theorem or proposition does not hold.

    The offending hypothesis is identified by `name`; `detail` carries
    the concrete violation (witness values, parameter spellings).
    """

    def __init__(self, name: str, detail: str = ""):
        self.name = name
        self.detail = detail
        msg = f"hypothesis '{name}' violated"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class InfeasibleModelError(ValueError):
    """The exact block model exceeds one of its feasibility guards."""
