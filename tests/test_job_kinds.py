"""Guards for the job-kind table and the app resolver.

The canonical JSON of a spec is its result-cache key, so the literals
below pin, byte for byte, what one fixed parameter set of every job
kind hashes to.  A change that moves any of them silently orphans
every cached artifact of that kind.
"""

from __future__ import annotations

import hashlib
import pickle

import pytest

from repro.errors import ConfigurationError
from repro.runner.jobs import JOB_KINDS, JOB_TABLE
from repro.serve.kinds import build_job_spec, validate_params
from repro.workloads import (
    APP_NAMES,
    commercial_program,
    program_for,
    splash2_program,
    zoo_specimen,
)

#: kind -> the submitted parameters every pin below was taken from.
PARAMS = {
    "record": {"app": "radix", "mode": "picolog", "chunk_size": 1500,
               "num_threads": 4, "simultaneous": 3, "scale": 0.2,
               "seed": 5},
    "replay": {"app": "sjbb2k", "mode": "order_and_size",
               "chunk_size": 0, "num_threads": 8, "use_strata": True,
               "perturb_seed": 9, "scale": 0.3, "seed": 2},
    "consistency": {"app": "fft", "model": "rc", "num_threads": 2,
                    "collect_trace": True, "scale": 0.15, "seed": 4},
    "explore": {"app": "zoo:lost-update", "mode": "order_only",
                "chunk_size": 0, "num_threads": 2, "schedule_seed": 3,
                "scale": 1.0, "seed": 11},
    "chaos": {"app": "fft", "mode": "order_only", "scale": 0.1,
              "seed": 1, "plan_seed": 7, "fault_count": 4,
              "checkpoint_every": 32},
    "salvage": {"recording_hash": "ab" * 32, "max_events": 100},
    "bench": {"app": "sweb2005", "scale": 0.3, "seed": 11, "jobs": 2},
}

#: kind -> (canonical_json, content_hash) of ``PARAMS[kind]``.
PINS = {
    "record": (
        '{"app":"radix","chunk_size":1500,"collect_trace":false,'
        '"kind":"record","machine":{"arbitration_roundtrip":30,'
        '"commit_propagation_cycles":220,"l1_sets":128,"l1_ways":4,'
        '"l2_lines":65536,"line_words":8,"max_concurrent_commits":4,'
        '"num_processors":4,"replay_arbitration_roundtrip":50,'
        '"seed":0,"signature":{"num_hashes":1,"size_bits":2097152},'
        '"simultaneous_chunks":3,"squash_retry_limit":8,'
        '"standard_chunk_size":2000,"timing":{"base_cpi":"0.5",'
        '"chunk_load_exposure":"0.3","l1_hit_cycles":2,'
        '"l2_hit_cycles":13,"memory_cycles":300,'
        '"pc_load_exposure":"0.345","pc_store_exposure":"0.02",'
        '"rc_load_exposure":"0.3","rc_store_exposure":"0.0",'
        '"sc_load_exposure":"0.37","sc_store_exposure":"0.06",'
        '"squash_flush_cycles":20},"token_hop_cycles":130},'
        '"mode":"picolog","model":"","perturb_seed":null,'
        '"scale":"0.2","schedule_change_points":[],'
        '"schedule_prefix":[],"schedule_seed":null,"schema":1,'
        '"seed":5,"use_strata":false}',
        "9832d3b9f59068681cdc265ebb5ecdae7f8b1eb310a85b80611a0a1ca7f27374"),
    "replay": (
        '{"app":"sjbb2k","chunk_size":0,"collect_trace":false,'
        '"kind":"replay","machine":{"arbitration_roundtrip":30,'
        '"commit_propagation_cycles":220,"l1_sets":128,"l1_ways":4,'
        '"l2_lines":65536,"line_words":8,"max_concurrent_commits":4,'
        '"num_processors":8,"replay_arbitration_roundtrip":50,'
        '"seed":0,"signature":{"num_hashes":1,"size_bits":2097152},'
        '"simultaneous_chunks":2,"squash_retry_limit":8,'
        '"standard_chunk_size":2000,"timing":{"base_cpi":"0.5",'
        '"chunk_load_exposure":"0.3","l1_hit_cycles":2,'
        '"l2_hit_cycles":13,"memory_cycles":300,'
        '"pc_load_exposure":"0.345","pc_store_exposure":"0.02",'
        '"rc_load_exposure":"0.3","rc_store_exposure":"0.0",'
        '"sc_load_exposure":"0.37","sc_store_exposure":"0.06",'
        '"squash_flush_cycles":20},"token_hop_cycles":130},'
        '"mode":"order_and_size","model":"","perturb_seed":9,'
        '"scale":"0.3","schedule_change_points":[],'
        '"schedule_prefix":[],"schedule_seed":null,"schema":1,'
        '"seed":2,"use_strata":true}',
        "c28489ce034f4d105d1e349816e9ea32f9e37c29e0aa218f7ac4700ce126bf37"),
    "consistency": (
        '{"app":"fft","chunk_size":0,"collect_trace":true,'
        '"kind":"consistency","machine":{"arbitration_roundtrip":30,'
        '"commit_propagation_cycles":220,"l1_sets":128,"l1_ways":4,'
        '"l2_lines":65536,"line_words":8,"max_concurrent_commits":4,'
        '"num_processors":2,"replay_arbitration_roundtrip":50,'
        '"seed":0,"signature":{"num_hashes":1,"size_bits":2097152},'
        '"simultaneous_chunks":2,"squash_retry_limit":8,'
        '"standard_chunk_size":2000,"timing":{"base_cpi":"0.5",'
        '"chunk_load_exposure":"0.3","l1_hit_cycles":2,'
        '"l2_hit_cycles":13,"memory_cycles":300,'
        '"pc_load_exposure":"0.345","pc_store_exposure":"0.02",'
        '"rc_load_exposure":"0.3","rc_store_exposure":"0.0",'
        '"sc_load_exposure":"0.37","sc_store_exposure":"0.06",'
        '"squash_flush_cycles":20},"token_hop_cycles":130},"mode":"",'
        '"model":"rc","perturb_seed":null,"scale":"0.15",'
        '"schedule_change_points":[],"schedule_prefix":[],'
        '"schedule_seed":null,"schema":1,"seed":4,"use_strata":false}',
        "c6f37811e6880929aac2fd052e3a419f8c6878ec7b528795869a273af442da32"),
    "explore": (
        '{"app":"zoo:lost-update","chunk_size":0,'
        '"collect_trace":false,"kind":"explore",'
        '"machine":{"arbitration_roundtrip":30,'
        '"commit_propagation_cycles":220,"l1_sets":128,"l1_ways":4,'
        '"l2_lines":65536,"line_words":8,"max_concurrent_commits":4,'
        '"num_processors":2,"replay_arbitration_roundtrip":50,'
        '"seed":0,"signature":{"num_hashes":1,"size_bits":2097152},'
        '"simultaneous_chunks":2,"squash_retry_limit":8,'
        '"standard_chunk_size":2000,"timing":{"base_cpi":"0.5",'
        '"chunk_load_exposure":"0.3","l1_hit_cycles":2,'
        '"l2_hit_cycles":13,"memory_cycles":300,'
        '"pc_load_exposure":"0.345","pc_store_exposure":"0.02",'
        '"rc_load_exposure":"0.3","rc_store_exposure":"0.0",'
        '"sc_load_exposure":"0.37","sc_store_exposure":"0.06",'
        '"squash_flush_cycles":20},"token_hop_cycles":130},'
        '"mode":"order_only","model":"","perturb_seed":null,'
        '"scale":"1.0","schedule_change_points":[],'
        '"schedule_prefix":[],"schedule_seed":3,"schema":1,"seed":11,'
        '"use_strata":false}',
        "248717921d1a6f02837bd30f20a0ff31709967cbcf7d6785c845c548247ab422"),
    "chaos": (
        '{"app":"fft","checkpoint_every":32,"fault_count":4,'
        '"kind":"chaos","mode":"order_only","plan_seed":7,'
        '"scale":"0.1","schema":1,"seed":1}',
        "70d2196e4acfee77383757a93f05b06469a8215ccd4bb32cef442e15e42d434a"),
    "salvage": (
        '{"kind":"salvage","max_events":100,'
        '"recording_hash":"abababababababababababababababab'
        'abababababababababababababababab",'
        '"schema":1}',
        "9aaddb8e58b3406e3da83a3e472acb72f226a5a70339d682f4198bfa17a5c3a0"),
    "bench": (
        '{"app":"sweb2005","jobs":2,"kind":"bench","scale":"0.3",'
        '"schema":1,"seed":11}',
        "d656c02d5e78dda02f8c29ddcebc8f90934b17ca2305cc8b74bf0c2c0b57c495"),
}


class TestCanonicalFormsArePinned:
    @pytest.mark.parametrize("kind", sorted(PINS))
    def test_canonical_json_and_hash_are_byte_identical(self, kind):
        spec = build_job_spec(kind, PARAMS[kind])
        canonical_json, content_hash = PINS[kind]
        assert spec.canonical_json() == canonical_json
        assert spec.content_hash() == content_hash

    def test_every_kind_is_pinned(self):
        assert set(PINS) == set(JOB_KINDS) == set(JOB_TABLE)


class TestDefaultsHashOnce:
    @pytest.mark.parametrize("kind", ["chaos", "bench"])
    def test_defaults_spelled_out_hash_like_defaults_left_out(
            self, kind):
        explicit = {name: param.default for name, param
                    in JOB_TABLE[kind].params.items()}
        assert build_job_spec(kind, {}).content_hash() == \
            build_job_spec(kind, explicit).content_hash()

    def test_resolved_params_carry_every_default(self):
        resolved = validate_params("chaos", {"fault_count": 4})
        assert resolved == {"app": "fft", "scale": 0.25, "seed": 1,
                            "mode": "order_only", "plan_seed": 7,
                            "fault_count": 4, "checkpoint_every": 32}

    def test_required_parameter_is_enforced(self):
        with pytest.raises(ConfigurationError, match="recording_hash"):
            build_job_spec("salvage", {})


class TestNonFiniteFloatsAreRejected:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf"), "nan", "inf",
                                       "Infinity"])
    def test_scale(self, value):
        with pytest.raises(ConfigurationError, match="finite float"):
            build_job_spec("record", {"scale": value})

    def test_huge_int_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="int"):
            build_job_spec("record", {"seed": float("inf")})


def _digest(program) -> str:
    return hashlib.sha256(pickle.dumps(program, protocol=4)).hexdigest()


class TestProgramFor:
    def test_splash2_matches_splash2_program(self):
        assert _digest(program_for("fft", scale=0.1, seed=3,
                                   num_threads=4)) == \
            _digest(splash2_program("fft", scale=0.1, seed=3,
                                    num_threads=4))

    def test_commercial_matches_commercial_program(self):
        assert _digest(program_for("sjbb2k", scale=0.1, seed=3,
                                   num_threads=4)) == \
            _digest(commercial_program("sjbb2k", scale=0.1, seed=3,
                                       num_threads=4))

    def test_zoo_matches_the_specimen_build(self):
        assert _digest(program_for("zoo:lost-update", scale=1.0,
                                   seed=11)) == \
            _digest(zoo_specimen("lost-update").build())

    def test_every_name_builds(self):
        for app in APP_NAMES:
            assert program_for(app, scale=0.05, seed=1,
                               num_threads=2).threads
