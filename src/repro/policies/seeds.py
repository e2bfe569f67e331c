"""The five seed systems, migrated onto the registry byte-for-byte.

Each factory builds exactly the object the pre-registry hand-wired
construction built — same classes, same config values — so every pinned golden digest is unchanged by the migration
(asserted by the parity tests in ``tests/test_policies_zoo.py`` and by
the golden corpus itself).

Registration order is the historical chaos-rotation order (yarn, alg,
sfm, alm, iss): ``repro.faults.chaos.CHAOS_POLICIES`` and campaign
seeds depend on it.
"""

from __future__ import annotations

from repro.alm import ALGConfig, ALMConfig, ALMPolicy
from repro.hdfs.hdfs import ReplicationLevel
from repro.mapreduce.recovery import YarnRecoveryPolicy
from repro.policies import register_policy

__all__ = ["make_alg", "make_alm", "make_iss", "make_sfm", "make_yarn"]


def make_yarn():
    return YarnRecoveryPolicy()


def make_alg(alg_frequency: float = 10.0,
             alg_level: ReplicationLevel = ReplicationLevel.RACK):
    alg = ALGConfig(frequency=alg_frequency, level=alg_level)
    return ALMPolicy(ALMConfig(enable_alg=True, enable_sfm=False, alg=alg))


def make_sfm(fcm_cap: int = 10):
    return ALMPolicy(ALMConfig(enable_alg=False, enable_sfm=True,
                               fcm_cap=fcm_cap))


def make_alm(alg_frequency: float = 10.0,
             alg_level: ReplicationLevel = ReplicationLevel.RACK,
             fcm_cap: int = 10):
    alg = ALGConfig(frequency=alg_frequency, level=alg_level)
    return ALMPolicy(ALMConfig(alg=alg, fcm_cap=fcm_cap))


def make_iss():
    from repro.baselines.iss import ISSPolicy

    return ISSPolicy()


register_policy("yarn", make_yarn,
                "stock YARN re-execution (the paper's amplification baseline)",
                seed=True)
register_policy("alg", make_alg,
                "analytics logging: reduce attempts resume from local/HDFS logs",
                seed=True)
register_policy("sfm", make_sfm,
                "speculative fast migration: proactive MOF regeneration + "
                "FCM recovery attempts", seed=True)
register_policy("alm", make_alm,
                "the full ALM framework (ALG + SFM)", seed=True)
register_policy("iss", make_iss,
                "intermediate-data replication (Ko et al. SoCC'10)",
                seed=True)
