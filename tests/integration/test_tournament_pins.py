"""Exact pins for a small tournament on the paper platform.

The fast-vs-oracle engine differential and the drain-refused comparison
run the same executor and schedulers on both sides, so a change that
moves every engine at once slips through them.  This suite pins the
observable result of :func:`~repro.core.tournament.run_tournament` at
scale 0.03 — every match's makespan bits and every per-``(class, sync)``
ranking — with the ``"tournament"`` memo store emptied, so every match
is simulated.

The values were recorded from the engine and must not move unless a
change is meant to alter scheduling results.
"""

from __future__ import annotations

import pytest

from repro.cache import get_cache
from repro.core.tournament import run_tournament
from repro.platform.presets import shen_icpp15_platform

#: (scenario label, strategy) -> float.hex(makespan_s)
MATCHES = {
    ("MatrixMul@256", "DP-Aff"): "0x1.21e9edfe2e272p-9",
    ("MatrixMul@256", "DP-Dep"): "0x1.21e9edfe2e272p-9",
    ("MatrixMul@256", "DP-Guided"): "0x1.3c45afe2ff1ffp-6",
    ("MatrixMul@256", "DP-Perf"): "0x1.2793002eca67bp-7",
    ("MatrixMul@256", "HYB-Static"): "0x1.2905a1b65a4eep-7",
    ("MatrixMul@256", "SP-Single"): "0x1.2f7dc7ffaf1adp-12",
    ("BlackScholes@2415936", "DP-Aff"): "0x1.99d0a67620ee8p-7",
    ("BlackScholes@2415936", "DP-Dep"): "0x1.99d0a67620ee8p-7",
    ("BlackScholes@2415936", "DP-Guided"): "0x1.efa788e624e86p-7",
    ("BlackScholes@2415936", "DP-Perf"): "0x1.40412dac3140cp-7",
    ("BlackScholes@2415936", "HYB-Static"): "0x1.75109b3f622dfp-7",
    ("BlackScholes@2415936", "SP-Single"): "0x1.448aecafc6a4fp-8",
    ("Nbody+sync@31488", "DP-Aff"): "0x1.55d5f56a7ac80p-3",
    ("Nbody+sync@31488", "DP-Dep"): "0x1.55d5f56a7ac80p-3",
    ("Nbody+sync@31488", "DP-Guided"): "0x1.bed527d283763p-4",
    ("Nbody+sync@31488", "DP-Perf"): "0x1.2f776043fd5f2p-4",
    ("Nbody+sync@31488", "HYB-Static"): "0x1.1a6fb29fb20fdp-4",
    ("Nbody+sync@31488", "SP-Single"): "0x1.42ea0383670f2p-5",
    ("HotSpot+sync@256", "DP-Aff"): "0x1.27754f7e9a246p-5",
    ("HotSpot+sync@256", "DP-Dep"): "0x1.27754f7e9a246p-5",
    ("HotSpot+sync@256", "DP-Guided"): "0x1.991d35b90e281p-5",
    ("HotSpot+sync@256", "DP-Perf"): "0x1.3383270826accp-5",
    ("HotSpot+sync@256", "HYB-Static"): "0x1.34c1dcdfa7a42p-5",
    ("HotSpot+sync@256", "SP-Single"): "0x1.111823c7e4532p-5",
    ("STREAM-Seq@1887456", "DP-Aff"): "0x1.d1259de586804p-8",
    ("STREAM-Seq@1887456", "DP-Dep"): "0x1.d1259de586804p-8",
    ("STREAM-Seq@1887456", "DP-Guided"): "0x1.84e7e9b481b3fp-5",
    ("STREAM-Seq@1887456", "DP-Perf"): "0x1.7d561d309eb4ap-6",
    ("STREAM-Seq@1887456", "HYB-Static"): "0x1.5a98f67299be7p-6",
    ("STREAM-Seq@1887456", "SP-Unified"): "0x1.c483cbc94d7dap-9",
    ("STREAM-Seq@1887456", "SP-Varied"): "0x1.285a1269a0bb9p-5",
    ("STREAM-Seq+sync@1887456", "DP-Aff"): "0x1.4698f7476103ap-5",
    ("STREAM-Seq+sync@1887456", "DP-Dep"): "0x1.4698f7476103ap-5",
    ("STREAM-Seq+sync@1887456", "DP-Guided"): "0x1.00f9d39e9b93ap-4",
    ("STREAM-Seq+sync@1887456", "DP-Perf"): "0x1.5e3ce3a621696p-5",
    ("STREAM-Seq+sync@1887456", "HYB-Static"): "0x1.6520c8b203eb4p-5",
    ("STREAM-Seq+sync@1887456", "SP-Unified"): "0x1.302eb510a7b12p-5",
    ("STREAM-Seq+sync@1887456", "SP-Varied"): "0x1.285a1269a0bb9p-5",
    ("STREAM-Loop@1887456", "DP-Aff"): "0x1.1daf3e76985fbp-4",
    ("STREAM-Loop@1887456", "DP-Dep"): "0x1.1a3fa030f56b1p-4",
    ("STREAM-Loop@1887456", "DP-Guided"): "0x1.fb32efac9fb8bp-4",
    ("STREAM-Loop@1887456", "DP-Perf"): "0x1.72262b08cfbe8p-4",
    ("STREAM-Loop@1887456", "HYB-Static"): "0x1.d7bc7b10dca56p-3",
    ("STREAM-Loop@1887456", "SP-Unified"): "0x1.57d69c02878a1p-7",
    ("STREAM-Loop@1887456", "SP-Varied"): "0x1.d74efa6b00e4ap-2",
    ("STREAM-Loop+sync@1887456", "DP-Aff"): "0x1.fd9f76a27090bp-2",
    ("STREAM-Loop+sync@1887456", "DP-Dep"): "0x1.fd9f76a27090bp-2",
    ("STREAM-Loop+sync@1887456", "DP-Guided"): "0x1.1c0043536a89cp-1",
    ("STREAM-Loop+sync@1887456", "DP-Perf"): "0x1.003aec12b534bp-1",
    ("STREAM-Loop+sync@1887456", "HYB-Static"): "0x1.facb016cd746bp-2",
    ("STREAM-Loop+sync@1887456", "SP-Unified"): "0x1.01d8b2ff2003ep-1",
    ("STREAM-Loop+sync@1887456", "SP-Varied"): "0x1.d74efa6b00e4ap-2",
    ("Cholesky@8", "DP-Aff"): "0x1.84890415e6d90p+2",
    ("Cholesky@8", "DP-Dep"): "0x1.f20fe42849506p-2",
    ("Cholesky@8", "DP-Guided"): "0x1.35aa30bbb7679p-1",
    ("Cholesky@8", "DP-Perf"): "0x1.069bbe11ea0ebp-1",
}
RANKINGS = {
    ("MK-DAG", False): ("DP-Dep", "DP-Perf", "DP-Guided", "DP-Aff"),
    ("MK-Loop", False): ("SP-Unified", "DP-Dep", "DP-Aff", "DP-Perf", "DP-Guided", "HYB-Static", "SP-Varied"),
    ("MK-Loop", True): ("SP-Varied", "HYB-Static", "DP-Dep", "DP-Aff", "DP-Perf", "SP-Unified", "DP-Guided"),
    ("MK-Seq", False): ("SP-Unified", "DP-Dep", "DP-Aff", "HYB-Static", "DP-Perf", "SP-Varied", "DP-Guided"),
    ("MK-Seq", True): ("SP-Varied", "SP-Unified", "DP-Dep", "DP-Aff", "DP-Perf", "HYB-Static", "DP-Guided"),
    ("SK-Loop", False): ("SP-Single", "HYB-Static", "DP-Perf", "DP-Guided", "DP-Dep", "DP-Aff"),
    ("SK-One", False): ("SP-Single", "DP-Dep", "DP-Aff", "DP-Perf", "HYB-Static", "DP-Guided"),
}


@pytest.fixture
def tournament():
    """A tournament at scale 0.03, every match simulated; the memo
    store's entries are restored afterwards."""
    store = get_cache("tournament")
    saved = store.entries()
    store.clear()
    try:
        yield run_tournament(shen_icpp15_platform(), scale=0.03)
    finally:
        store.clear()
        store.preload(saved)


def test_every_match_makespan_is_pinned(tournament):
    got = {
        (m.scenario.label, m.strategy): float.hex(m.makespan_s)
        for m in tournament.matches
    }
    assert not any(m.cached for m in tournament.matches)
    assert got == MATCHES


def test_every_ranking_is_pinned(tournament):
    got = {key: r.ranking for key, r in tournament.rankings.items()}
    assert got == RANKINGS
