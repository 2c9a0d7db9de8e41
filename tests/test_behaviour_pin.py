"""Behaviour pin for the chunk interpreter and commit propagation.

Speed work on the simulator's hot path (``ChunkProcessor._execute_into``,
the speculative cache, signatures, the commit directory) must leave the
simulated execution exactly as it was: a speedup that moves a simulated
cycle count or a chunk boundary is a behaviour change.  These tests run
a fixed set of small programs -- fft, raytrace and radix under all three
recording modes, plus sweb2005 with interrupts, I/O and DMA -- and
compare what the simulator did with values captured before the hot path
was optimised:

* record and (perturbed) replay ``stats.cycles``,
* committed chunks and the overflow, collision and I/O truncation
  counts,
* the directory traffic counters (coherence invalidations included),
* a sha256 over the recording's commit fingerprints.

If one of these changes on purpose (a modelling change, not a speedup),
regenerate the table with ``observe`` and say why in the change log.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import DeLoreanSystem, ExecutionMode, ReplayPerturbation
from repro.machine.timing import MachineConfig
from repro.workloads import commercial_program, splash2_program

_MODES = {
    "order_and_size": ExecutionMode.ORDER_AND_SIZE,
    "order_only": ExecutionMode.ORDER_ONLY,
    "picolog": ExecutionMode.PICOLOG,
}

#: (app, mode, scale, program seed, MachineConfig overrides).  The last
#: two cases shrink the L1 (many cache-overflow truncations) and the
#: squash retry limit (collision truncations on top of I/O ones).
CASES = [
    (app, mode, 0.5, 11, ())
    for app in ("fft", "raytrace", "radix")
    for mode in ("order_and_size", "order_only", "picolog")
] + [
    ("sweb2005", "picolog", 0.3, 7, ()),
    ("sjbb2k", "order_only", 0.3, 7, (("squash_retry_limit", 1),)),
    ("raytrace", "order_and_size", 0.3, 11,
     (("l1_sets", 16), ("l1_ways", 2))),
]

_PERTURB_SEED = 42


def _case_id(case) -> str:
    app, mode, _, _, overrides = case
    tags = "".join(f"-{key}={value}" for key, value in overrides)
    return f"{app}-{mode}{tags}"


def observe(app: str, mode: str, scale: float, seed: int,
            overrides: tuple = ()) -> dict:
    """Record and replay one program; return the pinned quantities."""
    if app in ("sjbb2k", "sweb2005"):
        program = commercial_program(app, scale=scale, seed=seed)
    else:
        program = splash2_program(app, scale=scale, seed=seed)
    system = DeLoreanSystem(mode=_MODES[mode],
                            machine_config=MachineConfig(**dict(overrides)))
    recording = system.record(program)
    result = system.replay(
        recording, perturbation=ReplayPerturbation(seed=_PERTURB_SEED))
    assert result.determinism.matches, result.determinism.summary()
    stats = recording.stats
    digest = hashlib.sha256(
        repr(recording.fingerprints).encode()).hexdigest()
    return {
        "record_cycles": stats.cycles,
        "replay_cycles": result.stats.cycles,
        "committed_chunks": stats.total_committed_chunks,
        "replay_committed_chunks": result.stats.total_committed_chunks,
        "overflow_truncations": stats.overflow_truncations,
        "collision_truncations": stats.collision_truncations,
        "io_truncations": stats.io_truncations,
        "traffic": dict(stats.traffic),
        "replay_traffic": dict(result.stats.traffic),
        "fingerprint_sha256": digest,
    }


PINNED: dict[tuple, dict] = {
    ('fft', 'order_and_size', 0.5, 11, ()): dict(
        record_cycles=21883.600000000002, replay_cycles=23697.100000000002,
        committed_chunks=52, replay_committed_chunks=52,
        overflow_truncations=0, collision_truncations=0, io_truncations=0,
        traffic={'signature_bytes': 39936, 'control_bytes': 832,
        'invalidation_bytes': 0, 'data_bytes': 305984, 'squash_refetch_bytes':
        0, 'total_bytes': 346752}, replay_traffic={'signature_bytes': 39936,
        'control_bytes': 832, 'invalidation_bytes': 0, 'data_bytes': 305984,
        'squash_refetch_bytes': 0, 'total_bytes': 346752},
        fingerprint_sha256=(
        'a36a081663a62f48022c3c8865314cc8a01e7cc43604d71b2bf0d55071975d1b')),
    ('fft', 'order_only', 0.5, 11, ()): dict(
        record_cycles=21677.100000000002, replay_cycles=23551.100000000002,
        committed_chunks=49, replay_committed_chunks=49,
        overflow_truncations=1, collision_truncations=0, io_truncations=0,
        traffic={'signature_bytes': 37632, 'control_bytes': 784,
        'invalidation_bytes': 0, 'data_bytes': 305856, 'squash_refetch_bytes':
        0, 'total_bytes': 344272}, replay_traffic={'signature_bytes': 37632,
        'control_bytes': 784, 'invalidation_bytes': 0, 'data_bytes': 305856,
        'squash_refetch_bytes': 0, 'total_bytes': 344272},
        fingerprint_sha256=(
        'fc45ff2f915a21115f0d9de0defc92d9d276217f5d77dac4c6e1ea7f41e82bf0')),
    ('fft', 'picolog', 0.5, 11, ()): dict(
        record_cycles=23045.0, replay_cycles=28739.5, committed_chunks=96,
        replay_committed_chunks=97, overflow_truncations=1,
        collision_truncations=0, io_truncations=0, traffic={'signature_bytes':
        73728, 'control_bytes': 1536, 'invalidation_bytes': 0, 'data_bytes':
        310912, 'squash_refetch_bytes': 0, 'total_bytes': 386176},
        replay_traffic={'signature_bytes': 74496, 'control_bytes': 1552,
        'invalidation_bytes': 0, 'data_bytes': 310912, 'squash_refetch_bytes':
        0, 'total_bytes': 386960},
        fingerprint_sha256=(
        '8c5882b0bd4dfbc1fe5d15c1038e1a06db8d5307902858a8ffe46683c48fb21b')),
    ('raytrace', 'order_and_size', 0.5, 11, ()): dict(
        record_cycles=29126.8, replay_cycles=34668.600000000006,
        committed_chunks=62, replay_committed_chunks=62,
        overflow_truncations=0, collision_truncations=0, io_truncations=0,
        traffic={'signature_bytes': 48128, 'control_bytes': 1000,
        'invalidation_bytes': 320, 'data_bytes': 386048,
        'squash_refetch_bytes': 102208, 'total_bytes': 537704},
        replay_traffic={'signature_bytes': 48128, 'control_bytes': 1000,
        'invalidation_bytes': 312, 'data_bytes': 386944,
        'squash_refetch_bytes': 107008, 'total_bytes': 543392},
        fingerprint_sha256=(
        'c45b9c09f7f473e0b57f603e6c211497982e23b29b4ae980026391a946e41609')),
    ('raytrace', 'order_only', 0.5, 11, ()): dict(
        record_cycles=29396.8, replay_cycles=33969.7, committed_chunks=56,
        replay_committed_chunks=57, overflow_truncations=0,
        collision_truncations=0, io_truncations=0, traffic={'signature_bytes':
        44032, 'control_bytes': 912, 'invalidation_bytes': 328, 'data_bytes':
        386624, 'squash_refetch_bytes': 125440, 'total_bytes': 557336},
        replay_traffic={'signature_bytes': 44800, 'control_bytes': 928,
        'invalidation_bytes': 328, 'data_bytes': 386880,
        'squash_refetch_bytes': 127488, 'total_bytes': 560424},
        fingerprint_sha256=(
        '3808b9162b508b9b7fd8fc71bf7707b211c619ba31c2a81444d46f886c9f63c8')),
    ('raytrace', 'picolog', 0.5, 11, ()): dict(
        record_cycles=35941.100000000006, replay_cycles=44395.93333333327,
        committed_chunks=109, replay_committed_chunks=110,
        overflow_truncations=1, collision_truncations=0, io_truncations=0,
        traffic={'signature_bytes': 85248, 'control_bytes': 1768,
        'invalidation_bytes': 272, 'data_bytes': 392000,
        'squash_refetch_bytes': 50048, 'total_bytes': 529336},
        replay_traffic={'signature_bytes': 86528, 'control_bytes': 1792,
        'invalidation_bytes': 272, 'data_bytes': 392000,
        'squash_refetch_bytes': 50048, 'total_bytes': 530640},
        fingerprint_sha256=(
        '012c0182fff22235be265572096cdea97923ff61e30b9dbe2b507fe018612176')),
    ('radix', 'order_and_size', 0.5, 11, ()): dict(
        record_cycles=13756.0, replay_cycles=15741.4, committed_chunks=34,
        replay_committed_chunks=34, overflow_truncations=1,
        collision_truncations=0, io_truncations=0, traffic={'signature_bytes':
        26112, 'control_bytes': 544, 'invalidation_bytes': 40, 'data_bytes':
        335104, 'squash_refetch_bytes': 26368, 'total_bytes': 388168},
        replay_traffic={'signature_bytes': 26112, 'control_bytes': 544,
        'invalidation_bytes': 40, 'data_bytes': 335104, 'squash_refetch_bytes':
        31168, 'total_bytes': 392968},
        fingerprint_sha256=(
        '2c47f409f6de4c86abcdf59ebe72422bdd9ad5f59483d20e402658b1789d12c6')),
    ('radix', 'order_only', 0.5, 11, ()): dict(
        record_cycles=13756.0, replay_cycles=15437.4, committed_chunks=33,
        replay_committed_chunks=33, overflow_truncations=1,
        collision_truncations=0, io_truncations=0, traffic={'signature_bytes':
        25344, 'control_bytes': 528, 'invalidation_bytes': 40, 'data_bytes':
        334976, 'squash_refetch_bytes': 31168, 'total_bytes': 392056},
        replay_traffic={'signature_bytes': 25344, 'control_bytes': 528,
        'invalidation_bytes': 40, 'data_bytes': 334976, 'squash_refetch_bytes':
        31168, 'total_bytes': 392056},
        fingerprint_sha256=(
        '50b2176c22b6093a78ea58073cd779dcab7643c72edfd0c7f1a92bbf73367970')),
    ('radix', 'picolog', 0.5, 11, ()): dict(
        record_cycles=15688.9, replay_cycles=19479.9, committed_chunks=64,
        replay_committed_chunks=64, overflow_truncations=1,
        collision_truncations=0, io_truncations=0, traffic={'signature_bytes':
        49664, 'control_bytes': 1032, 'invalidation_bytes': 24, 'data_bytes':
        342720, 'squash_refetch_bytes': 11392, 'total_bytes': 404832},
        replay_traffic={'signature_bytes': 49664, 'control_bytes': 1032,
        'invalidation_bytes': 24, 'data_bytes': 342720, 'squash_refetch_bytes':
        11392, 'total_bytes': 404832},
        fingerprint_sha256=(
        'db576192e45ff62d0aede6c54a7a5791f888e5418f243e23e1130394379a28a4')),
    ('sweb2005', 'picolog', 0.3, 7, ()): dict(
        record_cycles=24766.600000000002, replay_cycles=28319.93333333334,
        committed_chunks=61, replay_committed_chunks=61,
        overflow_truncations=1, collision_truncations=0, io_truncations=22,
        traffic={'signature_bytes': 55552, 'control_bytes': 1152,
        'invalidation_bytes': 72, 'data_bytes': 188352, 'squash_refetch_bytes':
        31872, 'total_bytes': 277000}, replay_traffic={'signature_bytes':
        49408, 'control_bytes': 976, 'invalidation_bytes': 72, 'data_bytes':
        188352, 'squash_refetch_bytes': 11264, 'total_bytes': 250072},
        fingerprint_sha256=(
        '8f2a359d8cf154bf3e61ae357e4a8361d17b5ce385f77dbc9133059e0719c923')),
    ('sjbb2k', 'order_only', 0.3, 7, (('squash_retry_limit', 1),)): dict(
        record_cycles=15321.3, replay_cycles=19928.6, committed_chunks=39,
        replay_committed_chunks=39, overflow_truncations=0,
        collision_truncations=4, io_truncations=14, traffic={'signature_bytes':
        34560, 'control_bytes': 720, 'invalidation_bytes': 88, 'data_bytes':
        188224, 'squash_refetch_bytes': 22592, 'total_bytes': 246184},
        replay_traffic={'signature_bytes': 32000, 'control_bytes': 632,
        'invalidation_bytes': 88, 'data_bytes': 188224, 'squash_refetch_bytes':
        12928, 'total_bytes': 233872},
        fingerprint_sha256=(
        '09fc4e84fc69681c4d35cbe4367f53378afaff068ec5e5b0d78b285ab4388fd4')),
    ('raytrace', 'order_and_size', 0.3, 11,
     (('l1_sets', 16), ('l1_ways', 2))): dict(
        record_cycles=24428.59999999999, replay_cycles=49298.1,
        committed_chunks=180, replay_committed_chunks=181,
        overflow_truncations=162, collision_truncations=0, io_truncations=0,
        traffic={'signature_bytes': 138240, 'control_bytes': 2880,
        'invalidation_bytes': 0, 'data_bytes': 285056, 'squash_refetch_bytes':
        0, 'total_bytes': 426176}, replay_traffic={'signature_bytes': 139008,
        'control_bytes': 2896, 'invalidation_bytes': 0, 'data_bytes': 285056,
        'squash_refetch_bytes': 0, 'total_bytes': 426960},
        fingerprint_sha256=(
        'ddf39dcb83a4eb3439c983c3fd64575dcb1dfe7ca3c3df2145678781e7c733b9')),
}


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_simulated_behaviour_is_pinned(case):
    assert observe(*case) == PINNED[case]


def test_pin_covers_every_truncation_kind():
    """The table exercises every path the hot loop and commit
    propagation must keep: cache-overflow, collision and I/O
    truncations, and coherence invalidations."""
    assert set(PINNED) == set(CASES)
    for key in ("overflow_truncations", "collision_truncations",
                "io_truncations"):
        assert any(values[key] > 0 for values in PINNED.values()), key
    assert any(values["traffic"]["invalidation_bytes"] > 0
               for values in PINNED.values())
