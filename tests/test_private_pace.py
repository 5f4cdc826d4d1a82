"""Tests for the privacy-preserving PACE variant."""

import pytest

from repro.errors import ConfigurationError
from repro.p2pclass.pace import PaceClassifier, PaceConfig
from repro.p2pclass.private import PrivatePaceClassifier, PrivatePaceConfig

from tests.test_classifiers import (
    PEER_DATA,
    TAGS,
    TEST_ITEMS,
    evaluate,
    fresh_scenario,
)


def _held_anywhere(classifier):
    """Every bundle some receiver holds, once."""
    held = {
        id(bundle): bundle
        for receiver in classifier.scenario.peer_addresses
        for bundle in classifier.held_bundles(receiver).values()
    }
    assert held
    return list(held.values())


@pytest.fixture(scope="module")
def trained_private():
    classifier = PrivatePaceClassifier(
        fresh_scenario(), PEER_DATA, TAGS, PrivatePaceConfig(epsilon=2.0)
    )
    classifier.train()
    return classifier


class TestPrivatePace:
    def test_trains_and_predicts(self, trained_private):
        scores = trained_private.predict_scores(0, TEST_ITEMS[0][0])
        assert set(scores) == set(TAGS)
        assert all(0.0 <= s <= 1.0 for s in scores.values())

    def test_moderate_epsilon_still_learns(self, trained_private):
        assert evaluate(trained_private, TEST_ITEMS) > 0.3

    def test_bundles_differ_from_plain_pace(self):
        plain = PaceClassifier(fresh_scenario(), PEER_DATA, TAGS, PaceConfig())
        plain.train()
        private = PrivatePaceClassifier(
            fresh_scenario(), PEER_DATA, TAGS, PrivatePaceConfig(epsilon=1.0)
        )
        private.train()
        plain_bundle = plain.held_bundles(0)[1]
        private_bundle = private.held_bundles(0)[1]
        shared_tag = next(iter(plain_bundle.models))
        assert (
            plain_bundle.models[shared_tag].weights
            != private_bundle.models[shared_tag].weights
        )

    def test_noise_scales_with_epsilon(self):
        """Smaller epsilon -> larger perturbation of the shared weights."""

        def weight_distortion(epsilon):
            plain = PaceClassifier(
                fresh_scenario(), PEER_DATA, TAGS, PaceConfig()
            )
            plain.train()
            private = PrivatePaceClassifier(
                fresh_scenario(), PEER_DATA, TAGS,
                PrivatePaceConfig(epsilon=epsilon),
            )
            private.train()
            total = 0.0
            count = 0
            for origin, plain_bundle in plain.held_bundles(0).items():
                private_bundle = private.held_bundles(0).get(origin)
                if private_bundle is None:
                    continue
                for tag, model in plain_bundle.models.items():
                    noisy = private_bundle.models.get(tag)
                    if noisy is None:
                        continue
                    total += model.weights.add(noisy.weights, -1.0).norm()
                    count += 1
            return total / max(1, count)

        assert weight_distortion(0.1) > weight_distortion(10.0)

    def test_accuracies_clamped(self, trained_private):
        for bundle in _held_anywhere(trained_private):
            for accuracy in bundle.accuracies.values():
                assert 0.0 <= accuracy <= 1.0

    def test_privacy_budget_validation(self):
        with pytest.raises(ConfigurationError):
            PrivatePaceClassifier(
                fresh_scenario(), PEER_DATA, TAGS, PrivatePaceConfig(epsilon=0)
            )
        with pytest.raises(ConfigurationError):
            PrivatePaceClassifier(
                fresh_scenario(), PEER_DATA, TAGS,
                PrivatePaceConfig(weight_sensitivity=0),
            )

    def test_deterministic_given_seed(self):
        a = PrivatePaceClassifier(
            fresh_scenario(), PEER_DATA, TAGS, PrivatePaceConfig(epsilon=1.0)
        )
        a.train()
        b = PrivatePaceClassifier(
            fresh_scenario(), PEER_DATA, TAGS, PrivatePaceConfig(epsilon=1.0)
        )
        b.train()
        sa = a.predict_scores(0, TEST_ITEMS[0][0])
        sb = b.predict_scores(0, TEST_ITEMS[0][0])
        assert sa == sb

    def test_no_document_vectors_leave_peer(self, trained_private):
        """The inherited privacy property: bundles carry no documents."""
        for bundle in _held_anywhere(trained_private):
            assert set(vars(bundle)) == {
                "origin", "models", "accuracies", "calibration", "centroids",
            }
