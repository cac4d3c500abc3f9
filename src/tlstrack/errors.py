"""Exception types shared across the package."""


class TlstrackError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(TlstrackError, ValueError):
    """An argument or domain object violates its contract."""


class MitigationUnstableError(TlstrackError):
    """Confusion matrix too ill-conditioned to invert safely.

    Carries the offending condition number in ``condition_number``.
    """

    def __init__(self, condition_number: float):
        self.condition_number = condition_number
        super().__init__(
            f"confusion matrix condition number {condition_number:.3e} "
            "exceeds the mitigation stability limit"
        )


class FitDivergedError(TlstrackError):
    """Residual became non-finite during optimization.

    ``last_parameters`` holds the last parameter vector with a finite
    residual.
    """

    def __init__(self, message: str, last_parameters):
        self.last_parameters = last_parameters
        super().__init__(message)


class UndefinedCorrelationError(TlstrackError, ValueError):
    """Correlation requested for a series with zero variance."""


class ScenarioSchemaError(TlstrackError, ValueError):
    """A JSON input violates its schema: a scenario, device, confusion,
    TLS or config document, or a file that is not one JSON object.

    ``field_path`` points at the offending entry, e.g. ``tls[0].linewidth_mhz``
    or ``tracker.band_margin_mhz``, or at the file that does not read.
    """

    def __init__(self, field_path: str, message: str):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}")
