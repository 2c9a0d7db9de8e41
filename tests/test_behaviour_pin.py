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
* a sha256 over the recording's commit fingerprints,
* a sha256 over the pickled program and one over the saved DLRN
  blob: program construction work must leave every op's pickled state
  (the instance dict, in field order) and so every stored byte as it
  was.  The byte digests were captured on CPython 3.11 and 3.12 and
  are compared only there (``_DLRN_SHA256_BY_PYTHON``).

If one of these changes on purpose (a modelling change, not a speedup),
regenerate the table with ``observe`` and say why in the change log.
"""

from __future__ import annotations

import hashlib
import pickle
import sys

import pytest

from repro import (
    DeLoreanSystem,
    ExecutionMode,
    ReplayPerturbation,
    save_recording,
)
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

#: The byte digests, per Python minor version they were captured on
#: (3.11.7 and 3.12.1): the cases whose ``dlrn_sha256`` differs from
#: the table below.  3.12's ``sum()`` of floats is compensated, so
#: picolog's ``wait_token_cycles`` mean, a float in the stats the DLRN
#: trailer pickles, can land one ulp away; every simulated value and
#: every program pickle is the same on both.  On any other version
#: only the simulated values are compared.
_DLRN_SHA256_BY_PYTHON = {
    (3, 11): {},
    (3, 12): {
        ('fft', 'picolog', 0.5, 11, ()):
        '51ef5597225a56ba55da2f31ebd5825f7e51db2a805fc47d45e6783d7ee3e3a3',
        ('raytrace', 'picolog', 0.5, 11, ()):
        'ca358015ebf795bb610497b75f910f57030ecc2ddfe4f0498ece5d90cf4061e8',
        ('radix', 'picolog', 0.5, 11, ()):
        '87dffd5b7e3821baea91a652799f122e1ce1d9f0442412d32525f2dd242b151f',
        ('sweb2005', 'picolog', 0.3, 7, ()):
        '53b76896fa4c629a2e0aa14c22de78a9d21c631564212c5bad521722731eb03c',
    },
}


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
    program_digest = hashlib.sha256(
        pickle.dumps(program, protocol=4)).hexdigest()
    system = DeLoreanSystem(mode=_MODES[mode],
                            machine_config=MachineConfig(**dict(overrides)))
    recording = system.record(program)
    dlrn_digest = hashlib.sha256(save_recording(recording)).hexdigest()
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
        "program_pickle_sha256": program_digest,
        "dlrn_sha256": dlrn_digest,
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
        'a36a081663a62f48022c3c8865314cc8a01e7cc43604d71b2bf0d55071975d1b'),
        program_pickle_sha256=(
        'f2328ca6779a51e3de9ae76e6f9e134267d2c4c8cfacdcbb9ec0e80ef5971f7a'),
        dlrn_sha256=(
        '7787932a4e56a0f975a45eeea547b6d1228dd2628aa077a2bd83a6bee1b2d996')),
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
        'fc45ff2f915a21115f0d9de0defc92d9d276217f5d77dac4c6e1ea7f41e82bf0'),
        program_pickle_sha256=(
        'f2328ca6779a51e3de9ae76e6f9e134267d2c4c8cfacdcbb9ec0e80ef5971f7a'),
        dlrn_sha256=(
        'aa61b0603c3502be58b00629fa1bb502ee727fd22ed5e7b10e2c82baf74306be')),
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
        '8c5882b0bd4dfbc1fe5d15c1038e1a06db8d5307902858a8ffe46683c48fb21b'),
        program_pickle_sha256=(
        'f2328ca6779a51e3de9ae76e6f9e134267d2c4c8cfacdcbb9ec0e80ef5971f7a'),
        dlrn_sha256=(
        'e112add9c69bf65bbdeb9035dc1a54e28219dc7007676b9079c09bfb145d814a')),
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
        'c45b9c09f7f473e0b57f603e6c211497982e23b29b4ae980026391a946e41609'),
        program_pickle_sha256=(
        'cdd0cee0826e58f7b0d359405932e4dcf11895e66f60f226d49a66b0839ac729'),
        dlrn_sha256=(
        'fc649377282cbb6a2acfe3b106c0dd196356d5a92ab3a87728947c1f1b9e4ede')),
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
        '3808b9162b508b9b7fd8fc71bf7707b211c619ba31c2a81444d46f886c9f63c8'),
        program_pickle_sha256=(
        'cdd0cee0826e58f7b0d359405932e4dcf11895e66f60f226d49a66b0839ac729'),
        dlrn_sha256=(
        'b734a0262f192d440501676a1528e5225b116b854fb575c7791408930bd43fe0')),
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
        '012c0182fff22235be265572096cdea97923ff61e30b9dbe2b507fe018612176'),
        program_pickle_sha256=(
        'cdd0cee0826e58f7b0d359405932e4dcf11895e66f60f226d49a66b0839ac729'),
        dlrn_sha256=(
        '67411fac8c03452c3c6823187bdc11a885fe1883cd1d69bdea05386e877487d9')),
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
        '2c47f409f6de4c86abcdf59ebe72422bdd9ad5f59483d20e402658b1789d12c6'),
        program_pickle_sha256=(
        '50a086bb033549f76ee50a63e9aaae5d70d9cbdee3a64444c226a3e014e0bcd6'),
        dlrn_sha256=(
        '02f55506fb72d079b9cd120149fa698a73ad3a6e82fe85c6656ccf09f0660f4f')),
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
        '50b2176c22b6093a78ea58073cd779dcab7643c72edfd0c7f1a92bbf73367970'),
        program_pickle_sha256=(
        '50a086bb033549f76ee50a63e9aaae5d70d9cbdee3a64444c226a3e014e0bcd6'),
        dlrn_sha256=(
        'e43fbd7386c6098306b4e2a554658099752dbf1fc80c8c600aa9fdb309ab40e0')),
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
        'db576192e45ff62d0aede6c54a7a5791f888e5418f243e23e1130394379a28a4'),
        program_pickle_sha256=(
        '50a086bb033549f76ee50a63e9aaae5d70d9cbdee3a64444c226a3e014e0bcd6'),
        dlrn_sha256=(
        '3a95cd9ee73036abf86553fb13cf4f2fe920e326a5b7220cf69a8190e60da861')),
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
        '8f2a359d8cf154bf3e61ae357e4a8361d17b5ce385f77dbc9133059e0719c923'),
        program_pickle_sha256=(
        '544fef2613e84575c7d3c08b2fdad6dcb0b75b42b3bbf8018a7506d79e460e9f'),
        dlrn_sha256=(
        '6fc905b4949f45b6937e9e7975af89bdd40a1503c509aa9d95f76d8aeb4ca5d7')),
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
        '09fc4e84fc69681c4d35cbe4367f53378afaff068ec5e5b0d78b285ab4388fd4'),
        program_pickle_sha256=(
        '6af3949037fe31264c6a1bd39229c4b7a660ea42712ca61556539f75bafaa02d'),
        dlrn_sha256=(
        'f298b19108a71be344a6e45076314b8d5ebae3d4bd3a6e3cb7ce83ba9bde002d')),
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
        'ddf39dcb83a4eb3439c983c3fd64575dcb1dfe7ca3c3df2145678781e7c733b9'),
        program_pickle_sha256=(
        '56f5936cf735b81cf1d0ebfe935684136c61d85680cb5cedb3786705e62a0637'),
        dlrn_sha256=(
        '00e6c8749ce0e7114261109fab6e64775fea22039a85c9cd7b37600f25ed2a63')),
}


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_simulated_behaviour_is_pinned(case):
    observed, pinned = observe(*case), dict(PINNED[case])
    dlrn_digests = _DLRN_SHA256_BY_PYTHON.get(sys.version_info[:2])
    if dlrn_digests is None:
        for key in ("program_pickle_sha256", "dlrn_sha256"):
            del observed[key], pinned[key]
    elif case in dlrn_digests:
        pinned["dlrn_sha256"] = dlrn_digests[case]
    assert observed == pinned


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
