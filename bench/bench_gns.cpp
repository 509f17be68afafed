// Multi-master GNS bench (DESIGN.md §13): a 3-replica cluster behind
// the ReplicatedNameService on a modelled WAN (20 MB/s, 25 ms links).
//
// Three legs:
//   full      — replication=0 (every replica owns every shard): each
//               write coordinates locally then pushes 2 replicate RPCs.
//   sharded   — replication=1 over 64 shards: a write lands on its
//               rendezvous owner only, no replication fan-out.
//   repair    — full replication again, but every peer link severed by
//               partition@gns:* while the writes land; after the heal,
//               anti-entropy converges the divergent stores. Every
//               divergent write must be repaired onto exactly the 2
//               replicas that missed it, so repaired/write == 2 exactly.
//
// It is also a relation gate: it exits nonzero unless the repair leg
// repaired exactly 2 entries per divergent write. (The perf gate's
// tolerance only catches a rise in repairs/write, never a drop.)
//
// `BENCH_gns.json` records the two write+lookup model times and the
// repair invariants; repair model time is printed but not gated (its
// RPC count is large yet cheap, so CPU scaling noise dominates it).
//
//   ./bench_gns [--fast] [--spans=<file|->]
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/table_common.h"
#include "src/fault/plan.h"
#include "src/gns/antientropy.h"
#include "src/gns/replicated.h"
#include "src/net/inproc.h"
#include "src/obs/metrics.h"

using namespace griddles;

namespace {

constexpr int kReplicas = 3;

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

gns::MappingRule exact_rule(int i) {
  gns::MappingRule rule;
  rule.host_pattern = "jagan";
  rule.path_pattern = strings::cat("/data/f", i, ".dat");
  rule.mapping.mode = gns::IoMode::kLocal;
  return rule;
}

/// One cluster + client-service deployment on its own network slice.
struct Deployment {
  net::InProcNetwork network;
  std::unique_ptr<net::Transport> cluster_transport;
  std::unique_ptr<net::Transport> client_transport;
  std::unique_ptr<gns::GnsCluster> cluster;
  std::unique_ptr<gns::ReplicatedNameService> service;

  Deployment(Clock& clock, std::uint32_t shards,
             std::uint32_t replication)
      : network(clock) {
    net::LinkModel wan;
    wan.latency = std::chrono::milliseconds(25);
    wan.bandwidth_bytes_per_sec = 20e6;
    network.links().set_default(wan);
    cluster_transport = network.transport("hub");
    client_transport = network.transport("jagan");

    gns::GnsCluster::Options options;
    options.num_shards = shards;
    options.replication = replication;
    options.ae_interval = std::chrono::milliseconds(0);  // manual ticks
    cluster = std::make_unique<gns::GnsCluster>(*cluster_transport,
                                                options);
    for (int i = 0; i < kReplicas; ++i) {
      const std::string name = strings::cat("gns-", i);
      const Status added = cluster->add_replica(
          name, net::inproc_endpoint(strings::cat("g", i), "gns"));
      if (!added.is_ok()) {
        std::fprintf(stderr, "add_replica: %s\n",
                     added.to_string().c_str());
        std::exit(1);
      }
    }
    if (const Status started = cluster->start(); !started.is_ok()) {
      std::fprintf(stderr, "cluster start: %s\n",
                   started.to_string().c_str());
      std::exit(1);
    }

    // One map fetch at the first lookup, none mid-leg (the epoch never
    // moves): the RPC schedule is identical from run to run.
    service = std::make_unique<gns::ReplicatedNameService>(
        *client_transport);
    for (const gns::ReplicaAddress& replica : cluster->endpoints()) {
      service->add_replica(replica.name, replica.endpoint);
    }
  }

  ~Deployment() { cluster->stop(); }
};

/// N rule writes through the cluster, then one lookup per rule through
/// the replicated service. Returns model seconds.
double write_lookup_leg(ScaledClock& clock, std::uint32_t shards,
                        std::uint32_t replication, int n) {
  Deployment deploy(clock, shards, replication);
  const Duration start = clock.now();
  for (int i = 0; i < n; ++i) {
    const Status written = deploy.cluster->add_rule(exact_rule(i));
    if (!written.is_ok()) {
      std::fprintf(stderr, "add_rule: %s\n", written.to_string().c_str());
      std::exit(1);
    }
  }
  for (int i = 0; i < n; ++i) {
    auto found = deploy.service->lookup(
        "jagan", strings::cat("/data/f", i, ".dat"));
    if (!found.is_ok() || !found->has_value()) {
      std::fprintf(stderr, "lookup %d failed\n", i);
      std::exit(1);
    }
  }
  return to_seconds_d(clock.now() - start);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::TableConfig config =
      bench::TableConfig::from_args(argc, argv);
  bool fast = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) fast = true;
  }
  (void)config;

  const int n = fast ? 200 : 2000;
  // Model seconds dominated by RPC latency sleeps (wall-scaled), so the
  // scale is mild enough that CPU time stays a small additive bias.
  ScaledClock clock(fast ? 1.0 / 500.0 : 1.0 / 250.0);

  struct ModelClockScope {
    explicit ModelClockScope(const Clock* model_clock) {
      if (obs::SpanCollector::global().enabled()) {
        obs::SpanCollector::global().set_model_clock(model_clock);
      }
    }
    ~ModelClockScope() {
      obs::SpanCollector::global().set_model_clock(nullptr);
    }
  } model_clock_scope(&clock);

  bench::print_header("Multi-master GNS",
                      "3 replicas, 20 MB/s / 25 ms links");
  std::printf("(%d rule writes + %d lookups per leg)\n\n", n, n);

  const double full_s =
      write_lookup_leg(clock, /*shards=*/8, /*replication=*/0, n);
  const double sharded_s =
      write_lookup_leg(clock, /*shards=*/64, /*replication=*/1, n);

  // Repair leg: land every write while all peer links are severed, then
  // heal and let anti-entropy converge the replicas.
  double repair_s = 0;
  std::uint64_t repaired = 0;
  std::uint64_t rounds = 0;
  std::uint64_t severed = 0;
  {
    Deployment deploy(clock, /*shards=*/64, /*replication=*/0);
    auto plan = fault::Plan::parse("partition@gns:*");
    if (!plan.is_ok()) {
      std::fprintf(stderr, "plan: %s\n",
                   plan.status().to_string().c_str());
      return 1;
    }
    fault::arm(*plan, nullptr);
    for (int i = 0; i < n; ++i) {
      if (!deploy.cluster->add_rule(exact_rule(i)).is_ok()) {
        std::fprintf(stderr, "partitioned add_rule %d failed\n", i);
        fault::disarm();
        return 1;
      }
    }
    severed = counter_value("gns.replicate.failed");
    fault::disarm();

    const std::uint64_t repaired_before =
        counter_value("gns.antientropy.repaired");
    const std::uint64_t rounds_before =
        counter_value("gns.antientropy.rounds");
    const Duration start = clock.now();
    if (const Status st = deploy.cluster->converge(8); !st.is_ok()) {
      std::fprintf(stderr, "converge: %s\n", st.to_string().c_str());
      return 1;
    }
    repair_s = to_seconds_d(clock.now() - start);
    repaired = counter_value("gns.antientropy.repaired") - repaired_before;
    rounds = counter_value("gns.antientropy.rounds") - rounds_before;
  }
  const double repaired_per_write =
      static_cast<double>(repaired) / static_cast<double>(n);

  std::printf("%-28s %14s\n", "", "model time");
  std::printf("%-28s %12.2f s\n", "full replication (r=3)", full_s);
  std::printf("%-28s %12.2f s\n", "sharded ownership (r=1)", sharded_s);
  std::printf("%-28s %12.2f s\n", "anti-entropy repair", repair_s);
  std::printf(
      "\npartition severed %llu replicate pushes; repair applied %llu "
      "entries\nin %llu round(s) — %.2f repairs/write (2 exact: each "
      "write missed\nboth peers)\n",
      static_cast<unsigned long long>(severed),
      static_cast<unsigned long long>(repaired),
      static_cast<unsigned long long>(rounds), repaired_per_write);

  const bool exact_repair = repaired == 2 * static_cast<std::uint64_t>(n);
  std::printf("gate: repaired %llu == 2 x %d divergent writes %s\n",
              static_cast<unsigned long long>(repaired), n,
              exact_repair ? "ok" : "FAIL");

  bench::BenchJson json("gns");
  json.add_time("full_s", full_s);
  json.add_time("sharded_s", sharded_s);
  json.add_time("repaired_per_divergent_write", repaired_per_write);
  json.add_time("repair_rounds", static_cast<double>(rounds));
  const bool wrote_json = json.write();
  const bool wrote_spans = bench::write_spans(config);
  return wrote_json && wrote_spans && exact_repair ? 0 : 1;
}
