"""The sequential stagger loop: the oracle for
``P2PTagClassifier._run_staggered_round``."""


def install_sequential_rounds(classifier) -> None:
    """Drive ``classifier``'s training rounds one participant at a time:
    run the kernel up to the participant's activation gap, act, repeat —
    the round driver every protocol used before rounds were
    bulk-scheduled.  Unsharded kernels only (actions run outside the
    event heap)."""
    simulator = classifier.scenario.simulator

    def run_staggered_round(participants, scale, rng, action):
        # All gaps are drawn before the first action: actions may draw
        # from the same protocol stream (CEMPaR's negative subsampling).
        gaps = [rng.exponential(scale) for _ in participants]
        for address, gap in zip(participants, gaps):
            simulator.run(until=simulator.now + gap)
            action(address)

    classifier._run_staggered_round = run_staggered_round
