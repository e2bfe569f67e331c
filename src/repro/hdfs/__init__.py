"""A small HDFS: NameNode metadata, block placement and replication.

Only the aspects the paper exercises are modelled: block-granular
placement with rack awareness, pipelined replicated writes (whose cost
grows with the replication *level* — node, rack or cluster — exactly
the knob ALG tunes in Fig. 13), locality-ordered replica lists that map
split reads fail over across, and replica loss when a node dies.
"""

from repro.hdfs.hdfs import (
    Block,
    Hdfs,
    HdfsConfig,
    HdfsError,
    HdfsFile,
    ReplicationLevel,
)

__all__ = [
    "Block",
    "Hdfs",
    "HdfsConfig",
    "HdfsError",
    "HdfsFile",
    "ReplicationLevel",
]
