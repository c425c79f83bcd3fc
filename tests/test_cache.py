"""The probe/plan memo stores: counters, fingerprints, disablement,
and the disk-backed snapshots behind ``--cache-dir``."""

import dataclasses
import functools
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.apps import get_application
from repro.bench.harness import SweepCell, run_sweep
from repro.cache import (
    SNAPSHOT_VERSION,
    MemoCache,
    _digest,
    cache_stats,
    clear_all,
    configure,
    counters,
    device_fingerprint,
    get_cache,
    kernel_fingerprint,
    load_snapshot,
    platform_fingerprint,
    save_snapshot,
    stats_delta,
)
from repro.partition.profiling import build_profile_table
from repro.platform import shen_icpp15_platform

from tests.conftest import chain_program


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_all()
    configure(enabled=True)
    yield
    clear_all()
    configure(enabled=True)


class TestMemoCache:
    def test_miss_then_hit(self):
        cache = MemoCache("t")
        calls = []
        assert cache.get_or_compute("k", lambda: calls.append(1) or 42) == 42
        assert cache.get_or_compute("k", lambda: calls.append(1) or 99) == 42
        assert len(calls) == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
        assert stats.hit_rate == 0.5

    def test_distinct_keys_do_not_collide(self):
        cache = MemoCache("t")
        assert cache.get_or_compute(("a", 1), lambda: "x") == "x"
        assert cache.get_or_compute(("a", 2), lambda: "y") == "y"
        assert len(cache) == 2

    def test_clear_resets_counters(self):
        cache = MemoCache("t")
        cache.get_or_compute("k", lambda: 1)
        cache.get_or_compute("k", lambda: 1)
        cache.clear()
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (0, 0, 0)
        assert stats.hit_rate == 0.0

    def test_max_entries_stops_admitting(self):
        cache = MemoCache("t", max_entries=2)
        for i in range(4):
            cache.get_or_compute(i, lambda i=i: i)
        assert len(cache) == 2
        # un-admitted keys recompute every time
        calls = []
        cache.get_or_compute(3, lambda: calls.append(1) or 3)
        cache.get_or_compute(3, lambda: calls.append(1) or 3)
        assert len(calls) == 2

    def test_disabled_cache_always_computes(self):
        cache = MemoCache("t")
        cache.enabled = False
        calls = []
        cache.get_or_compute("k", lambda: calls.append(1) or 1)
        cache.get_or_compute("k", lambda: calls.append(1) or 1)
        assert len(calls) == 2
        assert len(cache) == 0


class TestRegistry:
    def test_get_cache_is_idempotent(self):
        assert get_cache("reg-test") is get_cache("reg-test")

    def test_cache_stats_snapshots_every_store(self):
        get_cache("reg-a").get_or_compute(1, lambda: 1)
        stats = cache_stats()
        assert "reg-a" in stats
        assert stats["reg-a"].misses == 1

    def test_configure_disables_all_stores(self):
        cache = get_cache("reg-b")
        configure(enabled=False)
        try:
            calls = []
            cache.get_or_compute("k", lambda: calls.append(1) or 1)
            cache.get_or_compute("k", lambda: calls.append(1) or 1)
            assert len(calls) == 2
            # newly created stores inherit the setting
            assert get_cache("reg-c").enabled is False
        finally:
            configure(enabled=True)


class TestFingerprints:
    def test_device_fingerprint_tracks_spec(self, paper_platform):
        host = paper_platform.host
        fp = device_fingerprint(host)
        assert fp == device_fingerprint(host)
        slower = dataclasses.replace(
            host.spec, mem_bandwidth_gbs=host.spec.mem_bandwidth_gbs / 2
        )
        patched = type(host)(host.device_id, slower, host.cost_model)
        assert device_fingerprint(patched) != fp

    def test_platform_fingerprint_tracks_links(self, paper_platform):
        from repro.bench.crossover import with_link_bandwidth

        fp = platform_fingerprint(paper_platform)
        assert fp == platform_fingerprint(paper_platform)
        faster = with_link_bandwidth(paper_platform, 96.0)
        assert platform_fingerprint(faster) != fp

    def test_kernel_fingerprint_ignores_impl(self):
        program = chain_program(1, n=64)
        kernel = program.kernels[0]
        fp = kernel_fingerprint(kernel)
        patched = dataclasses.replace(kernel, impl=lambda *a, **k: None)
        assert kernel_fingerprint(patched) == fp
        recosted = dataclasses.replace(
            kernel,
            cost=dataclasses.replace(
                kernel.cost, flops_per_elem=kernel.cost.flops_per_elem + 1
            ),
        )
        assert kernel_fingerprint(recosted) != fp


def _cuts(data, cuts):
    """``data`` split at the (sorted, deduplicated) cut points."""
    points = sorted({c % (len(data) + 1) for c in cuts})
    bounds = [0, *points, len(data)]
    return tuple(data[a:b] for a, b in zip(bounds, bounds[1:]))


class TestFramedDigest:
    """Keys are framed: different part sequences never share a stream."""

    @settings(max_examples=300, deadline=None)
    @example(data=b"a\x00\x00b", cuts_a=[2], cuts_b=[1], as_text=False)
    @given(
        data=st.binary(max_size=24),
        cuts_a=st.lists(st.integers(min_value=0), max_size=4),
        cuts_b=st.lists(st.integers(min_value=0), max_size=4),
        as_text=st.booleans(),
    )
    def test_equal_concatenations_digest_differently(
        self, data, cuts_a, cuts_b, as_text
    ):
        parts_a, parts_b = _cuts(data, cuts_a), _cuts(data, cuts_b)
        if as_text:
            parts_a = tuple(p.hex() for p in parts_a)
            parts_b = tuple(p.hex() for p in parts_b)
        assert (_digest(*parts_a) == _digest(*parts_b)) == (parts_a == parts_b)

    @settings(max_examples=200, deadline=None)
    @given(
        parts=st.lists(
            st.one_of(st.binary(max_size=8), st.text(max_size=8),
                      st.integers(), st.none()),
            min_size=1, max_size=5,
        ),
        lo=st.integers(min_value=0),
        width=st.integers(min_value=0),
    )
    def test_nested_and_flat_tuples_digest_differently(self, parts, lo, width):
        lo %= len(parts)
        hi = lo + width % (len(parts) - lo + 1)
        nested = (*parts[:lo], tuple(parts[lo:hi]), *parts[hi:])
        assert _digest(*nested) != _digest(*parts)
        assert _digest(tuple(parts)) != _digest(*parts)

    def test_type_and_shape_are_framed(self):
        row = np.arange(6, dtype=np.int64)
        assert _digest(b"ab") != _digest("ab")
        assert _digest(b"1\x002") != _digest(1, 2)
        assert _digest(row) != _digest(row.tobytes())
        assert _digest(row) != _digest(row.reshape(2, 3))
        assert _digest(row) != _digest(row.astype(np.uint64))
        # equal arrays digest equally, whatever their memory layout
        assert _digest(row) == _digest(row.copy())
        assert _digest(row[::2]) == _digest(np.array([0, 2, 4]))

    def test_object_arrays_are_refused(self):
        with pytest.raises(TypeError):
            _digest(np.array([object()]))


def _spmv_kernel(n=64):
    return get_application("SpMV").program(n).kernels[0]


def _with_own_prefixes(kernel):
    """A copy of ``kernel`` whose every prefix array is its own copy."""
    accesses = tuple(
        acc if acc.prefix is None
        else dataclasses.replace(acc, prefix=acc.prefix.copy())
        for acc in kernel.accesses
    )
    return dataclasses.replace(
        kernel, accesses=accesses, work_prefix=kernel.work_prefix.copy()
    )


class TestPrefixFingerprints:
    """SpMV's row-pointer and work prefixes are part of its kernel key."""

    def test_every_prefix_element_is_keyed(self):
        kernel = _spmv_kernel()
        base = kernel_fingerprint(kernel)
        for slot in range(3):  # row pointer (twice), then work prefix
            for i in range(kernel.work_prefix.size):
                # fingerprints are memoized per kernel object, so every
                # flip goes into a freshly built kernel
                flipped = _with_own_prefixes(kernel)
                arrays = [acc.prefix for acc in flipped.accesses
                          if acc.prefix is not None] + [flipped.work_prefix]
                arrays[slot][i] += 1
                assert kernel_fingerprint(flipped) != base, (slot, i)
        assert kernel_fingerprint(_with_own_prefixes(kernel)) == base

    def test_memo_stays_out_of_the_kernel(self):
        kernel = _spmv_kernel()
        fields = set(vars(kernel))
        pickled = pickle.dumps(kernel)
        kernel_fingerprint(kernel)
        assert set(vars(kernel)) == fields
        assert pickle.dumps(kernel) == pickled

    def test_memo_entries_die_with_their_kernels(self):
        from repro.cache import _KERNEL_FPS

        before = len(_KERNEL_FPS)
        for _ in range(50):
            kernel_fingerprint(_with_own_prefixes(_spmv_kernel()))
        assert len(_KERNEL_FPS) == before

    def test_prefix_dtype_is_keyed(self):
        kernel = _spmv_kernel()
        base = kernel_fingerprint(kernel)
        row_ptr = kernel.accesses[0].prefix
        narrowed = dataclasses.replace(
            kernel,
            accesses=tuple(
                acc if acc.prefix is None
                else dataclasses.replace(acc, prefix=row_ptr.astype(np.int32))
                for acc in kernel.accesses
            ),
        )
        assert kernel_fingerprint(narrowed) != base
        single = dataclasses.replace(
            kernel, work_prefix=kernel.work_prefix.astype(np.float32)
        )
        assert kernel_fingerprint(single) != base
        assert kernel_fingerprint(_with_own_prefixes(kernel)) == base

    def test_fingerprints_ignore_hash_seed(self, paper_platform):
        """A fresh interpreter with another hash seed computes equal keys."""
        script = (
            "from repro.apps import get_application\n"
            "from repro.cache import kernel_fingerprint, platform_fingerprint\n"
            "from repro.platform import shen_icpp15_platform\n"
            "for name, n in (('SpMV', 64), ('Cholesky', 4)):\n"
            "    for k in get_application(name).program(n).kernels:\n"
            "        print(kernel_fingerprint(k))\n"
            "print(platform_fingerprint(shen_icpp15_platform()))\n"
        )
        expected = [
            kernel_fingerprint(k)
            for name, n in (("SpMV", 64), ("Cholesky", 4))
            for k in get_application(name).program(n).kernels
        ] + [platform_fingerprint(paper_platform)]
        src = str(Path(__file__).resolve().parents[1] / "src")
        for seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            out = subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True,
            ).stdout.split()
            assert out == expected


#: digests as computed before numpy left the import path; a moved digest
#: would re-key every existing ``--cache-dir`` snapshot
SPMV_KERNEL_FP = "113485d2d30daf73"
STREAM_KERNEL_FPS = [
    "5675281616567949", "f8ac6de5798bcaac", "ec55a15e6622aec4",
    "5f3f8071dcaff737",
]
PAPER_PLATFORM_FP = "076c583bfeec8e7a"

_PINNED_FPS = (
    "from repro.apps import get_application\n"
    "from repro.cache import kernel_fingerprint, platform_fingerprint\n"
    "from repro.platform import shen_icpp15_platform\n"
    "stream = get_application('STREAM-Loop').program(1024, iterations=1)\n"
    "print(*[kernel_fingerprint(k) for k in stream.kernels])\n"
    "print(platform_fingerprint(shen_icpp15_platform()))\n"
    "print('numpy' in sys.modules)\n"
)


class TestFingerprintPins:
    def test_spmv_kernel(self):
        assert kernel_fingerprint(_spmv_kernel()) == SPMV_KERNEL_FP

    def test_stream_kernels(self):
        program = get_application("STREAM-Loop").program(1024, iterations=1)
        assert [kernel_fingerprint(k) for k in program.kernels] \
            == STREAM_KERNEL_FPS

    def test_paper_platform(self, paper_platform):
        assert platform_fingerprint(paper_platform) == PAPER_PLATFORM_FP

    def test_pins_hold_with_numpy_unloaded(self):
        """The fingerprint path keys the same without ever loading numpy."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", "import sys\n" + _PINNED_FPS], env=env,
            check=True, capture_output=True, text=True,
        ).stdout.splitlines()
        assert out == [" ".join(STREAM_KERNEL_FPS), PAPER_PLATFORM_FP, "False"]


@functools.lru_cache(maxsize=None)
def _real_snapshot() -> bytes:
    """Snapshot bytes after one small sweep cell warmed the stores."""
    clear_all()
    run_sweep([SweepCell(app="STREAM-Loop", strategy="DP-Perf",
                         platform=shen_icpp15_platform(), n=1024,
                         iterations=1)])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snap.pkl"
        save_snapshot(path)
        return path.read_bytes()


class TestDiskSnapshots:
    def test_round_trip_restores_entries(self, tmp_path):
        get_cache("snap-a").get_or_compute("k1", lambda: 11)
        get_cache("snap-b").get_or_compute("k2", lambda: 22)
        path = tmp_path / "snap.pkl"
        assert save_snapshot(path) == 2
        clear_all()
        assert len(get_cache("snap-a")) == 0
        assert load_snapshot(path) == 2
        # restored entries serve as hits without recomputing
        calls = []
        assert get_cache("snap-a").get_or_compute(
            "k1", lambda: calls.append(1) or -1
        ) == 11
        assert get_cache("snap-b").get_or_compute("k2", lambda: -1) == 22
        assert not calls

    def test_load_does_not_touch_counters(self, tmp_path):
        get_cache("snap-c").get_or_compute("k", lambda: 1)
        path = tmp_path / "snap.pkl"
        save_snapshot(path)
        clear_all()
        load_snapshot(path)
        stats = get_cache("snap-c").stats()
        assert (stats.hits, stats.misses, stats.size) == (0, 0, 1)

    def test_missing_file_loads_nothing(self, tmp_path):
        assert load_snapshot(tmp_path / "absent.pkl") == 0

    def test_corrupt_file_loads_nothing(self, tmp_path):
        path = tmp_path / "snap.pkl"
        path.write_bytes(b"not a pickle at all")
        assert load_snapshot(path) == 0
        # a truncated but once-valid snapshot is also rejected cleanly
        get_cache("snap-d").get_or_compute("k", lambda: 1)
        save_snapshot(path)
        path.write_bytes(path.read_bytes()[:10])
        clear_all()
        assert load_snapshot(path) == 0
        # a pickle header naming a protocol that does not exist
        path.write_bytes(b"\x80\x35")
        assert load_snapshot(path) == 0
        # one flipped byte inside a stored string: invalid UTF-8
        get_cache("snap-d").get_or_compute("k", lambda: "snapshot-value")
        save_snapshot(path)
        data = path.read_bytes()
        at = data.index(b"snapshot-value")
        path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
        clear_all()
        assert load_snapshot(path) == 0

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        flips=st.lists(st.tuples(st.integers(min_value=0),
                                 st.integers(0, 255)), max_size=4),
        keep=st.one_of(st.none(), st.integers(min_value=0)),
    )
    def test_damaged_snapshot_never_raises(self, flips, keep):
        data = bytearray(_real_snapshot())
        for index, byte in flips:
            data[index % len(data)] = byte
        if keep is not None:
            data = data[:keep % len(data)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "snap.pkl"
            path.write_bytes(bytes(data))
            clear_all()
            assert isinstance(load_snapshot(path), int)

    def test_version_mismatch_is_ignored(self, tmp_path):
        path = tmp_path / "snap.pkl"
        payload = {
            "format": "repro-cache-snapshot",
            "version": SNAPSHOT_VERSION + 1,
            "stores": {"snap-e": {"k": 1}},
        }
        path.write_bytes(pickle.dumps(payload))
        assert load_snapshot(path) == 0
        assert len(get_cache("snap-e")) == 0

    def test_v1_snapshot_loads_nothing(self, tmp_path):
        """Version 1 keys used the unframed encoding: never half-trusted."""
        payload = pickle.loads(_real_snapshot())
        assert payload["version"] == SNAPSHOT_VERSION == 2
        payload["version"] = 1
        path = tmp_path / "snap.pkl"
        path.write_bytes(pickle.dumps(payload))
        clear_all()
        assert load_snapshot(path) == 0
        assert not any(len(get_cache(name)) for name in payload["stores"])

    def test_v2_round_trip_warms(self, tmp_path):
        path = tmp_path / "snap.pkl"
        path.write_bytes(_real_snapshot())
        clear_all()
        assert load_snapshot(path) > 0
        before = counters()
        run_sweep([SweepCell(app="STREAM-Loop", strategy="DP-Perf",
                             platform=shen_icpp15_platform(), n=1024,
                             iterations=1)])
        delta = stats_delta(before)
        assert delta and all(
            d["misses"] == 0 and d["hits"] > 0 for d in delta.values()
        )

    def test_foreign_pickle_is_ignored(self, tmp_path):
        path = tmp_path / "snap.pkl"
        path.write_bytes(pickle.dumps({"some": "other payload"}))
        assert load_snapshot(path) == 0
        path.write_bytes(pickle.dumps([1, 2, 3]))
        assert load_snapshot(path) == 0

    def test_save_creates_parent_dirs(self, tmp_path):
        get_cache("snap-f").get_or_compute("k", lambda: 1)
        path = tmp_path / "deep" / "nested" / "snap.pkl"
        assert save_snapshot(path) == 1
        clear_all()
        assert load_snapshot(path) == 1

    def test_counters_delta_pairing(self):
        before = counters()
        get_cache("snap-g").get_or_compute("k", lambda: 1)
        get_cache("snap-g").get_or_compute("k", lambda: 1)
        delta = stats_delta(before)
        assert delta["snap-g"] == {"hits": 1, "misses": 1, "hit_rate": 0.5}


class TestProfileTableCaching:
    def test_cached_seed_yields_independent_tables(self, paper_platform):
        program = chain_program(2, n=4096)
        first = build_profile_table(program, paper_platform)
        second = build_profile_table(program, paper_platform)
        assert first is not second
        assert first.rate_s_per_index == second.rate_s_per_index
        # the scheduler EWMA-mutates its copy; the memoized seed must not see it
        key = next(iter(first.rate_s_per_index))
        first.rate_s_per_index[key] *= 10.0
        third = build_profile_table(program, paper_platform)
        assert third.rate_s_per_index == second.rate_s_per_index

    def test_repeat_builds_hit_the_cache(self, paper_platform):
        program = chain_program(2, n=4096)
        build_profile_table(program, paper_platform)
        before = cache_stats()["profile-table"].hits
        build_profile_table(program, paper_platform)
        assert cache_stats()["profile-table"].hits == before + 1
