"""Exception types shared across the package."""


class FinReportQAError(Exception):
    """Base class for all package errors.

    The class decides how the command line reports an error: ``exit_code``
    is its exit status and ``label`` the word its message starts with.
    """

    exit_code = 3
    label = "data"


class ProviderError(FinReportQAError):
    """A model, embedding or EDGAR endpoint failed or sent an unusable reply."""

    exit_code = 4
    label = "provider"


# --- corpus ---------------------------------------------------------------

class EmptyDocumentError(FinReportQAError):
    """Report text contains no non-whitespace content."""


class ReportEncodingError(FinReportQAError):
    """A report file cannot be read or is not valid UTF-8."""


class DuplicatePageNumberError(FinReportQAError):
    """The same page number was captured from two delimiter lines."""


class PageNumberError(FinReportQAError):
    """A delimiter line's page number is 0 or has more digits than int() reads."""


class SchemaError(FinReportQAError):
    """A dataset line is missing a field or has an ill-typed value."""

    def __init__(self, message: str, line_number: int | None = None, field: str | None = None):
        self.line_number = line_number
        self.field = field
        prefix = f"line {line_number}: " if line_number is not None else ""
        super().__init__(f"{prefix}{message}")


class DanglingReferenceError(FinReportQAError):
    """An instance references a report_id not present in the corpus."""


# --- retrieval ------------------------------------------------------------

class EmptyCorpusError(FinReportQAError):
    """Index build requested over zero retrieval units."""


class EmptyQueryError(FinReportQAError):
    """Query tokenized to nothing."""


class EmptyGoldError(FinReportQAError):
    """Recall requested against an empty gold page set."""


class DimensionMismatchError(ProviderError):
    """Embedding vectors do not share the expected dimension."""


# --- llm ------------------------------------------------------------------

class ContextOverflowError(ProviderError):
    """Rendered messages exceed the provider's input token budget."""


class TransportError(ProviderError):
    """HTTP transport failed after exhausting the retry policy."""


class DecodeError(ProviderError):
    """Provider response could not be decoded into assistant text."""


class UnmatchedPromptError(ProviderError):
    """Scripted backend received a prompt no matcher covers."""


# --- pipelines ------------------------------------------------------------

class AnswerExtractionError(FinReportQAError):
    """No double-brace group in the reply parses as a number."""


# --- metrics --------------------------------------------------------------

class NonNumericError(FinReportQAError):
    """Tolerance comparison requested on a non-numeric value."""


class EmptyScoresError(FinReportQAError):
    """Aggregation requested over zero instance scores."""


# --- program interpreter --------------------------------------------------

class ProgramError(FinReportQAError):
    """Base class for arithmetic-program failures."""


class SyntaxUnsupportedError(ProgramError):
    """Program uses a construct outside the restricted grammar."""


class UndefinedIdentifierError(ProgramError):
    """Program reads a name before assigning it."""


class DivisionByZeroError(ProgramError):
    """Program divides by zero."""


class NestingTooDeepError(SyntaxUnsupportedError):
    """Program nests deeper than the parser or evaluator can recurse."""


class NumericRangeError(ProgramError):
    """Program value leaves the finite Decimal range (overflow, infinity, or
    a rounding to more digits than the context allows)."""


# --- ingest ---------------------------------------------------------------

class NotFoundError(FinReportQAError):
    """Ticker, CIK, or document could not be resolved."""


class RateLimitedError(ProviderError):
    """Remote endpoint kept rate-limiting after honoring Retry-After."""


class ChecksumMismatchError(ProviderError):
    """Downloaded byte count or hash does not match the expected value."""


# --- cli ------------------------------------------------------------------

class ConfigError(FinReportQAError):
    """Run configuration is invalid."""

    exit_code = 2
    label = "config"
