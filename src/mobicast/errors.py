"""Exception types shared across the package."""


class MobicastError(Exception):
    """Base class for all package-specific failures."""


class ContractError(MobicastError):
    """An argument violated a documented precondition."""


class ShapeError(ContractError):
    """Array arguments have incompatible or unexpected shapes."""


class DataError(MobicastError):
    """Input data is malformed or internally inconsistent."""


class InsufficientDataError(DataError):
    """A split or task cannot be formed from the available history."""


class BundleError(DataError):
    """A dataset bundle directory is missing pieces or fails schema checks."""


class WriteError(MobicastError):
    """A file or directory of the run's output cannot be written."""


class NumericsError(MobicastError):
    """A computation produced non-finite values."""


class TrainingDivergedError(NumericsError):
    """Training aborted because the loss became non-finite."""


class CheckpointError(MobicastError):
    """A checkpoint file is missing, corrupt, or incompatible."""


class SkippedCell(MobicastError):
    """A cell's checkpoint records why the cell was skipped, not parameters."""
