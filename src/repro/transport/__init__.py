"""Delta transport: network model, file shipper, persistent queue."""

from .network import NetworkModel, TransferRecord
from .queue import PersistentQueue
from .shipper import FileShipper, enqueue_op_deltas

__all__ = [
    "NetworkModel",
    "TransferRecord",
    "PersistentQueue",
    "FileShipper",
    "enqueue_op_deltas",
]
