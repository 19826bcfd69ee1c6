"""Exception types shared across the package.

``exit_status`` and ``label`` give the command line's exit code and stderr
prefix for each type; a subclass inherits them unless it sets its own.
"""


class IssueSiftError(Exception):
    """Base class for every error raised by this package."""

    exit_status = 2
    label = "error"


class GitHubError(IssueSiftError):
    """Base class for GitHub client failures."""


class InvalidToken(GitHubError):
    """The API rejected the supplied credential (HTTP 401)."""


class QueryRejected(GitHubError):
    """The search endpoint refused the query (HTTP 422)."""


class RateLimited(GitHubError):
    """Request budget exhausted and waiting was declined or gave up."""


class NetworkFailure(GitHubError):
    """Transport-level failure or unexpected status after the retry budget."""


class IssueGone(GitHubError):
    """The issue or its comments are no longer available (HTTP 404/410)."""


class FixtureNotFound(GitHubError):
    """Replay fixture directory missing, unreadable, or lacking a recording."""

    exit_status = 3


class ModelError(IssueSiftError):
    """Base class for classifier and model-file failures."""

    exit_status = 3


class UnsupportedVersion(ModelError):
    """Model file declares a format version this build cannot read."""


class SchemaViolation(ModelError):
    """Model or corpus document violates its schema; names the bad field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class EmptyCorpus(ModelError):
    """Training was asked to run on a corpus with no examples."""


class EmptyCategory(ModelError):
    """A taxonomy category has no training examples, so its prior is undefined."""


class UnknownCategory(ModelError):
    """A category name does not exist in the active taxonomy."""

    exit_status = 1
    label = "usage error"


class IoFailure(IssueSiftError):
    """Reading or writing a local file, or stdout, failed."""

    exit_status = 3


class UsageError(IssueSiftError):
    """Command line arguments were invalid or inconsistent."""

    exit_status = 1
    label = "usage error"


class Aborted(IssueSiftError):
    """The interactive session was cancelled by the user."""

    exit_status = 1
    label = "aborted"
