"""Discrete-event simulation kernel used by the whole reproduction."""

from .core import (
    AllOf,
    AnyOf,
    Event,
    Interrupted,
    NS_PER_MS,
    NS_PER_S,
    NS_PER_US,
    NULL_TRACE,
    Park,
    Process,
    SimError,
    Simulator,
    Timeout,
    ms,
    seconds,
    us,
)
from .reference import ReferenceProcess, ReferenceSimulator
from .resources import Gate, GateTimeout, Resource, Store
from .rng import RngStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Gate",
    "GateTimeout",
    "Interrupted",
    "NS_PER_MS",
    "NS_PER_S",
    "NS_PER_US",
    "NULL_TRACE",
    "Park",
    "Process",
    "ReferenceProcess",
    "ReferenceSimulator",
    "Resource",
    "RngStreams",
    "SimError",
    "Simulator",
    "Store",
    "Timeout",
    "ms",
    "seconds",
    "us",
]
