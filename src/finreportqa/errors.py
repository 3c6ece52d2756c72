"""Exception types shared across the package."""


class FinReportQAError(Exception):
    """Base class for all package errors."""


# --- corpus ---------------------------------------------------------------

class EmptyDocumentError(FinReportQAError):
    """Report text contains no non-whitespace content."""


class ReportEncodingError(FinReportQAError):
    """A report file cannot be read or is not valid UTF-8."""


class DuplicatePageNumberError(FinReportQAError):
    """The same page number was captured from two delimiter lines."""


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


class ProviderError(FinReportQAError):
    """Embedding provider transport or decode failure."""


class DimensionMismatchError(ProviderError):
    """Embedding vectors do not share the expected dimension."""


# --- llm ------------------------------------------------------------------

class ContextOverflowError(FinReportQAError):
    """Rendered messages exceed the provider's input token budget."""


class TransportError(FinReportQAError):
    """HTTP transport failed after exhausting the retry policy."""


class DecodeError(FinReportQAError):
    """Provider response could not be decoded into assistant text."""


class UnmatchedPromptError(FinReportQAError):
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


class RateLimitedError(FinReportQAError):
    """Remote endpoint kept rate-limiting after honoring Retry-After."""


class ChecksumMismatchError(FinReportQAError):
    """Downloaded byte count or hash does not match the expected value."""


# --- cli ------------------------------------------------------------------

class ConfigError(FinReportQAError):
    """Run configuration is invalid."""
