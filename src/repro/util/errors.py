"""Exception hierarchy for the repro package.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch package failures with a single ``except`` clause while
still being able to discriminate by subsystem.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """A configuration command or parameter was invalid.

    Raised by the control channel (bad command syntax, unknown plugin,
    duplicate instance names) and by plugin ``config()`` implementations.
    """


class TransportError(ReproError):
    """A transport operation failed (connect, send, fetch, listen)."""


class ConnectionLost(TransportError):
    """The peer endpoint went away mid-operation."""


class ProtocolError(ReproError):
    """A wire frame or payload is malformed: truncated, over-long, or
    not UTF-8.

    The QUERY codecs check every length field against the bytes
    actually left before unpacking or allocating, so hostile input ends
    here instead of as a ``struct.error``, ``UnicodeDecodeError`` or a
    huge allocation.  Frame decoding raises it for a corrupt frame
    length.
    """


class LookupError_(ReproError):
    """A metric-set lookup failed (set not found on the peer).

    Named with a trailing underscore to avoid shadowing the builtin.
    The aggregator treats this as retryable: the update thread keeps
    performing the lookup on the next update loop (paper Fig. 2, flow
    {a}/{b}).
    """


class StoreError(ReproError):
    """A storage plugin failed to open, write, or flush."""


class SimulationError(ReproError):
    """The discrete-event simulation kernel detected an inconsistency."""


class OutOfMemory(ReproError):
    """The arena memory manager could not satisfy an allocation.

    Mirrors ldmsd behaviour: metric-set creation fails when the memory
    configured at daemon start (``-m`` option) is exhausted.
    """
