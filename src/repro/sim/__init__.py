"""P2PDMT — the P2P data-mining simulation toolkit (paper Fig. 2).

The original system extends OverSim; this package is a self-contained
discrete-event replacement providing the same observables:

- a deterministic event kernel with a virtual clock (:mod:`repro.sim.engine`),
- a physical-network model with latency, bandwidth and loss
  (:mod:`repro.sim.network`),
- churn processes driving joins and failures (:mod:`repro.sim.churn`),
- size-accounted messages (:mod:`repro.sim.messages`),
- wire-format codec size models (:mod:`repro.sim.codec`),
- traffic and counter statistics (:mod:`repro.sim.stats`),
- training-data distribution across peers (:mod:`repro.sim.distribution`),
- scenario configuration and running (:mod:`repro.sim.scenario`),
- the sharded event kernel with conservative virtual-time windows
  (:mod:`repro.sim.shard`) and the one window-barrier coordinator loop
  every shard executor runs (:mod:`repro.sim.barrier`),
- the columnar cross-shard exchange frames
  (:mod:`repro.sim.exchange`),
- the per-window write-ahead log: checkpoint and resume
  (:mod:`repro.sim.wal`),
- the shard fleet: K forked workers on socketpairs behind the ``mp`` and
  ``tcp`` executors (:mod:`repro.sim.tcpexec`), and
- network visualization helpers (:mod:`repro.sim.visualize`).
"""
