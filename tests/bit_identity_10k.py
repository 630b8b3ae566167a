"""The 10,000-sink legs of the bit-identity manifest (see ``test_bit_identity.py``).

A 4-event :class:`~repro.serve.DesignSession` on a 10,000-sink
``internet_scale`` instance: its initial design (a first ``sharded:spaa03``
design) and one result per event (sink churn, a flash crowd, a regional and
an ISP outage), each held to
``tests/goldens/bit-identity-10k.json``.  The tier-1 suite does not collect
this module (it takes tens of seconds); run it by path::

    python -m pytest -q tests/bit_identity_10k.py
    python -m pytest -q tests/bit_identity_10k.py --regen-goldens
"""

from __future__ import annotations

from repro.core.algorithm import DesignParameters
from repro.serve import DesignSession
from test_bit_identity import (
    GOLDEN_DIR,
    SCRIPT,
    check_manifest,
    hashes,
    internet_scale,
    session_results,
)


def corpus():
    session = DesignSession(
        internet_scale(10_000, 0),
        parameters=DesignParameters(seed=0),
        options={"jobs": 1},
        session_id="manifest",
    )
    for name, result in session_results(session, SCRIPT[:4], seed=7):
        yield f"session10000-{name}", result


def test_the_10k_corpus_matches_the_manifest(regen_goldens):
    observed = {name: hashes(result) for name, result in corpus()}
    check_manifest(GOLDEN_DIR / "bit-identity-10k.json", observed, regen_goldens)
