// Isolated unit-cost probes, run only in the traced run. Each times a fixed
// batch of one layer's hot operation outside any workload and reports the
// median of several repetitions. Multiplied by the workload's exact counts
// (events, packets, bytes) they estimate each layer's share of wall time.
#pragma once

namespace perfbench {

struct UnitCosts {
  double schedule_pop_ns = 0.0;    // one schedule_at + its pop, calendar core
  double link_packets_per_s = 0.0; // net::Link::transmit + delivery event
  double tcp_bytes_per_s = 0.0;    // response bytes over one clean TCP connection
  double quic_bytes_per_s = 0.0;   // same over QUIC
};

UnitCosts measure_unit_costs();

}  // namespace perfbench
