"""Exception types shared across the pipeline, and the one warning helper.

Most of these mark a single connection as partial/excluded and are caught by
the pipeline; only the capture-level ones normally reach the CLI.
"""


def warn(logger_name: str, msg: str, *args) -> None:
    """Log `msg % args` as a warning from the logger `logger_name`.

    `logging` is imported here, when the first warning fires, so that a run
    over well-formed input never loads it.  The record names the caller's
    file, line and function, as a direct `logger.warning` call would.
    """
    import logging

    logging.getLogger(logger_name).warning(msg, *args, stacklevel=2)


class TlsLayersError(Exception):
    """Base class for all toolkit errors."""


# -- capture ingest ----------------------------------------------------------

class UnreadableFile(TlsLayersError):
    pass


class UnknownMagic(TlsLayersError):
    pass


class UnknownLinkType(TlsLayersError):
    pass


class MalformedHeader(TlsLayersError):
    pass


# -- TLS wire formats --------------------------------------------------------

class BadRecordHeader(TlsLayersError):
    pass


class OversizeRecord(TlsLayersError):
    pass


class MalformedHello(TlsLayersError):
    pass


class UnsupportedCipherSuite(TlsLayersError):
    pass


class UnknownGroup(TlsLayersError):
    pass


# -- key schedule / decryption -----------------------------------------------

class LengthMismatch(TlsLayersError):
    pass


class AuthFailure(TlsLayersError):
    pass


class EmptyInnerPlaintext(TlsLayersError):
    pass


# -- reassembly / timeline ---------------------------------------------------

class GapAtOffset(TlsLayersError):
    pass


class NoUsableStreams(TlsLayersError):
    """No connection contributed a sample to any layer of a run."""


# -- statistics / metrics ----------------------------------------------------

class EmptySamples(TlsLayersError):
    pass


class ZeroBaseline(TlsLayersError):
    pass


class ZeroBaselineSD(TlsLayersError):
    pass


class ZeroDenominator(TlsLayersError):
    pass


# -- synthetic generator -----------------------------------------------------

class InvalidSpec(TlsLayersError):
    pass


class WriteFailure(TlsLayersError):
    pass
