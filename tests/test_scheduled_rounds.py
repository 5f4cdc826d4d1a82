"""Batch/sequential equivalence for scheduled training rounds and the
vectorized broadcast.

The two predecessors live on as oracles under ``tests/reference`` — the
sequential stagger loop and the message-per-recipient broadcast
(``run_training(scalar=True)`` installs both).  These property tests run
every round-driving protocol through both drivers on
every overlay under no-churn, churn, and loss, and assert *byte-identical*
``StatsCollector`` output (canonical-JSON fingerprint bytes) plus an
identical final virtual clock.  The baselines' bulk-scheduled upload blocks
are checked against per-message sequential sends the same way.
"""

import pytest

from tests.determinism_fixtures import (
    OVERLAYS,
    VARIANTS,
    build_classifier,
    build_scenario,
    run_training,
)

#: protocols whose training rounds stagger peer activations
ROUND_PROTOCOLS = ("pace", "private", "cempar", "nbagg")


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("overlay", OVERLAYS)
@pytest.mark.parametrize("protocol", ROUND_PROTOCOLS)
def test_scheduled_round_matches_scalar_round(protocol, overlay, variant):
    batch_scenario, batch_classifier = run_training(protocol, overlay, variant)
    scalar_scenario, scalar_classifier = run_training(
        protocol, overlay, variant, scalar=True
    )
    assert (
        batch_scenario.stats.fingerprint_bytes()
        == scalar_scenario.stats.fingerprint_bytes()
    )
    assert batch_scenario.simulator.now == scalar_scenario.simulator.now
    # Spot-check protocol state beyond the stats stream.
    if protocol in ("pace", "private"):
        for address in batch_scenario.peer_addresses:
            assert batch_classifier.models_indexed_at(
                address
            ) == scalar_classifier.models_indexed_at(address)
    if protocol == "cempar":
        assert set(batch_classifier.regional_models) == set(
            scalar_classifier.regional_models
        )
    if protocol == "nbagg":
        assert set(batch_classifier._models) == set(scalar_classifier._models)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("protocol", ("centralized", "popularity"))
def test_baseline_batched_round_matches_sequential_sends(protocol, variant):
    """The baselines' one-block upload rounds must equal per-message sends."""
    batched_scenario, _ = run_training(protocol, "chord", variant)

    sequential_scenario = build_scenario("chord", variant)
    classifier = build_classifier(protocol, sequential_scenario)
    transport = classifier.transport
    transport.send_batch = lambda messages: [
        transport.send_message(m) for m in messages
    ]
    classifier.train()

    assert (
        batched_scenario.stats.fingerprint_bytes()
        == sequential_scenario.stats.fingerprint_bytes()
    )
    assert batched_scenario.simulator.now == sequential_scenario.simulator.now


@pytest.mark.parametrize("scalar", (False, True))
@pytest.mark.parametrize("protocol", ("pace", "cempar"))
def test_identity_codec_matches_precodec_stack(protocol, scalar):
    """An explicit identity codec table is byte-identical to the default
    (pre-codec) stack on both the scheduled/vectorized and scalar drivers."""
    explicit_scenario, _ = run_training(
        protocol, "chord", "none", scalar=scalar, codec="identity"
    )
    default_scenario, _ = run_training(protocol, "chord", "none", scalar=scalar)
    assert (
        explicit_scenario.stats.fingerprint_bytes()
        == default_scenario.stats.fingerprint_bytes()
    )
    assert explicit_scenario.simulator.now == default_scenario.simulator.now


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("codec", ("gzip-model", "tuned"))
@pytest.mark.parametrize("protocol", ("pace", "cempar"))
def test_scheduled_round_matches_scalar_round_under_codec(
    protocol, codec, variant
):
    """Wire-byte accounting joins the byte-identity contract: both round
    drivers must agree on the compressed dimension too."""
    batch_scenario, _ = run_training(
        protocol, "chord", variant, codec=codec
    )
    scalar_scenario, _ = run_training(
        protocol, "chord", variant, scalar=True, codec=codec
    )
    assert batch_scenario.stats.has_compressed_traffic
    assert (
        batch_scenario.stats.fingerprint_bytes()
        == scalar_scenario.stats.fingerprint_bytes()
    )
    assert batch_scenario.simulator.now == scalar_scenario.simulator.now
    # Codecs change accounting, never timing: the raw dimension matches the
    # identity run bit-for-bit.
    identity_scenario, _ = run_training(protocol, "chord", variant)
    assert dict(batch_scenario.stats.bytes_by_type) == dict(
        identity_scenario.stats.bytes_by_type
    )
    assert batch_scenario.simulator.now == identity_scenario.simulator.now
    assert (
        batch_scenario.stats.total_wire_bytes
        < identity_scenario.stats.total_bytes
    )


def test_round_activations_are_bulk_scheduled():
    """The scheduled-batch driver registers every activation up front: when
    the first peer activates, the rest of the round is already queued —
    rather than each slot being discovered through its own
    ``run(until=...)`` call as the reference driver does."""
    scenario = build_scenario("chord", "none")
    classifier = build_classifier("pace", scenario)
    simulator = scenario.simulator
    participants = sorted(scenario.peer_addresses)
    pending_at_activation = []

    def action(address):
        pending_at_activation.append((address, simulator.pending_events))

    classifier._run_staggered_round(participants, 1.0, classifier._rng, action)
    assert [address for address, _ in pending_at_activation] == participants
    # At the first activation the other len-1 activations are still queued.
    assert pending_at_activation[0][1] == len(participants) - 1
    assert pending_at_activation[-1][1] == 0
    assert simulator.now > 0
