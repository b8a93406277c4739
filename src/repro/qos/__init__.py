"""Admission control, backpressure and multi-tenant QoS (docs/QOS.md)."""

from .config import PRIORITIES, QoSConfig
from .limiter import ClientLimiter
from .policy import RoundRobin, SiteQoS, WeightedFair

__all__ = ["PRIORITIES", "QoSConfig", "ClientLimiter", "RoundRobin", "SiteQoS", "WeightedFair"]
