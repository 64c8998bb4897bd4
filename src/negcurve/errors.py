"""Exception types shared across the package."""


class NegCurveError(Exception):
    """Base class for all package-specific errors: the command line prints
    one ``{label}: {message}`` line and exits with ``exit_code``."""

    label = "error"
    exit_code = 2


class SignatureError(NegCurveError, ValueError):
    """A symmetric form does not have signature (1, rank-1).

    Carries the exact inertia triple so callers can report what was
    actually found.
    """

    def __init__(self, inertia):
        self.inertia = tuple(inertia)
        n_pos, n_neg, n_zero = self.inertia
        super().__init__(
            f"expected signature (1, rank-1), got "
            f"{n_pos} positive / {n_neg} negative / {n_zero} zero eigenvalues"
        )


class DegenerateCapPairError(NegCurveError, ValueError):
    """Pair check on caps whose boundary feet coincide (angular distance 0).

    Coincident feet force the caps to be equal or nested, so the pair
    predicates are not meaningful; this is an input error, not a failed
    condition.
    """


class InvalidFamilyError(NegCurveError, ValueError):
    """A family that fails validation (``exit_code`` 1).

    Nothing in the package raises it: a command that refuses an invalid
    family prints the validation report and exits with this ``exit_code``.
    """

    exit_code = 1


class InputError(NegCurveError, ValueError):
    """Malformed input or an out-of-range parameter (the base ``label`` and ``exit_code``)."""


class NumericalError(NegCurveError, RuntimeError):
    """Internal numerical failure (``label`` "numerical failure", ``exit_code`` 3)."""

    label = "numerical failure"
    exit_code = 3
