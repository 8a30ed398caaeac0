"""Exception types and the fault-name vocabulary shared across the runtime.

Two error channels exist and they are deliberately distinct:

* Python exceptions (subclasses of :class:`OrchestraError`) signal problems
  in the *artifact itself*: malformed definitions, broken transports,
  unusable configuration.  They are raised to the caller of an API.
* Faults (:class:`Fault`, carrying a plain string name) are part of the
  *programming model*: they travel through behaviours, can be caught by
  scope handlers, and cross the wire inside fault frames.
"""

from __future__ import annotations


class OrchestraError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(OrchestraError):
    """A document (service, container, behaviour, payload) is rejected at
    load.  Every catcher of a bad document catches this one class."""


class ParseError(ValidationError):
    """A document's shape is wrong: an object that is not one, a missing or
    unknown key, a value of the wrong type, or an expression that does not
    parse.  A kind of ``ValidationError``; the rest of that family are
    well-formed documents that break a structural invariant."""


class EncodeError(OrchestraError):
    """A frame or value cannot be encoded for the wire."""


class DecodeError(OrchestraError):
    """Bytes received from a peer do not form a valid frame."""


class StartupError(OrchestraError):
    """A listener or engine could not be brought up."""


class StorageError(OrchestraError):
    """The durable key-value store failed at the I/O level."""


class NameClash(OrchestraError):
    """A service or resource name is already taken."""


class UnknownService(OrchestraError):
    """The named service does not exist in this container."""


class InterfaceClash(OrchestraError):
    """Two interfaces declare the same operation differently."""


class BudgetExceeded(OrchestraError):
    """An exhaustive exploration outgrew its step budget."""


class Fault(OrchestraError):
    """A named fault travelling through a behaviour or across the wire."""

    def __init__(self, name: str, detail: str = ""):
        self.name = name
        self.detail = detail
        super().__init__(f"{name}: {detail}" if detail else name)


# Fault names raised by the runtime itself.  Behaviours may also throw
# arbitrary names of their own.
UNDEFINED_VARIABLE = "UndefinedVariable"
DIVISION_BY_ZERO = "DivisionByZero"
TYPE_FAULT = "TypeFault"
IO_FAULT = "IOFault"
PROTOCOL_FAULT = "ProtocolFault"
HANDLER_FAULT = "HandlerFault"
CORRELATION_ERROR = "CorrelationError"
UNKNOWN_OPERATION = "UnknownOperation"
UNKNOWN_RESOURCE = "UnknownResource"
NAME_CLASH_FAULT = "NameClash"
UNKNOWN_SERVICE_FAULT = "UnknownService"
TERMINATED_FAULT = "Terminated"
SESSION_ENDED = "SessionEnded"
