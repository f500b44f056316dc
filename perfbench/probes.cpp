#include "probes.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "net/link.h"
#include "net/path.h"
#include "sim/simulator.h"
#include "transport/connection.h"

namespace perfbench {

namespace {

using namespace h3cdn;

constexpr int kRepeats = 7;

template <typename Fn>
double median_seconds(Fn&& fn) {
  std::vector<double> s;
  for (int i = 0; i < kRepeats; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    s.push_back(std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
  }
  std::sort(s.begin(), s.end());
  return s[s.size() / 2];
}

double schedule_pop_ns() {
  // Pseudo-random timestamps over 10 s of simulated time: the calendar sees
  // the spread of a page visit's timers rather than a sorted stream.
  constexpr std::uint64_t kEvents = 200'000;
  std::uint64_t sink = 0;
  const double s = median_seconds([&] {
    sim::Simulator sim;
    std::uint64_t lcg = 0x9e3779b97f4a7c15ULL;
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      sim.schedule_at(usec(static_cast<std::int64_t>((lcg >> 16) % 10'000'000)),
                      [&sink, i] { sink += i; });
    }
    sim.run();
  });
  volatile std::uint64_t keep = sink;
  (void)keep;
  return s * 1e9 / static_cast<double>(kEvents);
}

double link_packets_per_s() {
  constexpr int kPackets = 100'000;
  int delivered = 0;
  const double s = median_seconds([&] {
    sim::Simulator sim;
    net::LinkConfig cfg;
    cfg.bandwidth_bps = 1e9;
    net::Link link(sim, cfg, util::Rng(1));
    for (int i = 0; i < kPackets; ++i) link.transmit(1400, [&] { ++delivered; });
    sim.run();
  });
  return static_cast<double>(kPackets) / s;
}

double transfer_bytes_per_s(tls::TransportKind kind) {
  // 16 concurrent 20 kB responses over one 20 ms / 200 Mb/s path: the
  // page-resource shape, handshake included.
  constexpr int kStreams = 16;
  constexpr std::size_t kBytes = 20'000;
  constexpr int kConnections = 20;
  int done = 0;
  const double s = median_seconds([&] {
    for (int c = 0; c < kConnections; ++c) {
      sim::Simulator sim;
      net::PathConfig pc;
      pc.rtt = msec(20);
      pc.bandwidth_bps = 200e6;
      net::NetPath path(sim, pc, util::Rng(7));
      auto conn = transport::Connection::create(sim, path, kind, tls::TlsVersion::Tls13,
                                                tls::HandshakeMode::Fresh, util::Rng(9), {});
      conn->connect([](TimePoint) {});
      for (int i = 0; i < kStreams; ++i) {
        transport::FetchCallbacks cbs;
        cbs.on_complete = [&](TimePoint) { ++done; };
        conn->fetch(500, kBytes, msec(3), std::move(cbs));
      }
      sim.run();
    }
  });
  return static_cast<double>(kConnections * kStreams * kBytes) / s;
}

}  // namespace

UnitCosts measure_unit_costs() {
  UnitCosts u;
  u.schedule_pop_ns = schedule_pop_ns();
  u.link_packets_per_s = link_packets_per_s();
  u.tcp_bytes_per_s = transfer_bytes_per_s(h3cdn::tls::TransportKind::Tcp);
  u.quic_bytes_per_s = transfer_bytes_per_s(h3cdn::tls::TransportKind::Quic);
  return u;
}

}  // namespace perfbench
