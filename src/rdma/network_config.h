// Cost-model parameters for the simulated RDMA fabric.
//
// The paper's testbed: 3 machines, each hosting one CN and one MN, connected
// by 2x100 Gbps ConnectX-6 NICs with ~2 us one-sided latency. Our model
// charges every verb (a) a base round-trip latency, (b) per-byte time from
// link bandwidth, and (c) per-message NIC processing time that is *shared*
// across all clients targeting the same NIC -- this last term is what makes
// message-hungry indexes (tree traversal, multi-entry hash reads) saturate
// first, reproducing the paper's Fig. 5 shape.
#pragma once

#include <cstdint>

namespace sphinx::rdma {

struct NetworkConfig {
  // One-sided verb round-trip latency (client -> MN -> client), ns.
  uint64_t base_rtt_ns = 2000;

  // Usable bandwidth per MN in bytes/ns. The paper's dual-port 2x100 Gbps
  // ConnectX-6 sits on one PCIe 3.0 x16 slot, which caps host throughput
  // at ~126 Gbps (~15 GB/s) regardless of the two ports' line rate.
  double bytes_per_ns = 15.0;

  // Per-message processing time at an MN-side NIC, ns (~66 M msg/s,
  // conservative for per-QP ConnectX-6 small-verb rates).
  uint64_t mn_msg_ns = 15;

  // Per-message processing time at a CN-side NIC, ns (request issue +
  // completion handling).
  uint64_t cn_msg_ns = 8;

  // CPU time to post one verb to the NIC (doorbell write, WQE build), ns.
  uint64_t post_verb_ns = 80;

  // Number of compute-node NICs (paper: 3 CNs) and memory-node NICs
  // (paper: 3 MNs).
  uint32_t num_cns = 3;
  uint32_t num_mns = 3;

  // Virtual nodes per MN on the consistent-hash ring that places index
  // nodes across MNs (memnode/consistent_hash.h). More vnodes smooth the
  // per-MN share at ring-construction cost; bench_scalability sweeps this
  // to report placement-balance sensitivity.
  uint32_t vnodes_per_mn = 128;

  // Time for a client to decide a verb is lost (transport retry exhausted /
  // QP error surfaced) when its target MN is unreachable; charged per
  // rejected verb under fault injection before the endpoint reissues it.
  uint64_t verb_timeout_ns = 8000;

  // When false, every verb in a doorbell batch is issued as its own
  // round trip (ablation A2). The default mirrors the paper: one batch ==
  // one round trip.
  bool doorbell_batching = true;

  // When true, verbs are charged to virtual clocks. Setup/bootstrap code
  // runs with metering off so load phases don't distort measurements.
  bool metered = true;
};

}  // namespace sphinx::rdma
