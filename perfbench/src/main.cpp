// hpv_perfbench: runs one named workload of the end-to-end benchmark and
// prints its metrics (README.md lists them). One process, one thread.
//
//   hpv_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --root <source tree> --out <trace dir>
//
// The workload is a committed spec from <root>/specs, patched (node count,
// seed, phase list) into a generated spec that the library's own loader and
// experiment runner execute. Setup is the build plus the spec's leading
// stabilization rounds; the measured phases are the rest. --trace 0 prints
// the end-to-end metrics; --trace 1 installs the span tracer and the upcall
// shims and prints the per-layer metrics instead. The last stdout line is
// the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "hyparview/common/json.hpp"
#include "hyparview/core/hyparview.hpp"
#include "hyparview/harness/experiment.hpp"
#include "hyparview/harness/sim_backend.hpp"
#include "hyparview/harness/spec_json.hpp"
#include "hyparview/harness/tcp_backend.hpp"
#include "hyparview/membership/wire.hpp"
#include "trace.hpp"

namespace hpv = hyparview;
namespace harness = hyparview::harness;
namespace json = hyparview::json;

namespace perfbench {
namespace {

// --- Workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  const char* spec;  ///< committed spec under <root>/specs
  bool tcp;
  std::size_t nodes;
  /// Measured work per second of --seconds: rounds of the fanout sweep
  /// (fig1) or steady pub/sub ticks. Fixed rather than clock-driven, so a
  /// seed always runs the same work and the simulated outputs repeat
  /// exactly.
  double units_per_second;
  /// At most this many units on one cluster (0: no limit). Beyond it the
  /// run builds further clusters, one after another, each with its own seed
  /// and this many units.
  std::size_t units_per_cluster;
};

constexpr Workload kWorkloads[] = {
    {"sim_fig1_cyclon", "fig1", false, 3000, 0.45, 0},
    {"sim_pubsub_plumtree", "pubsub_plumtree", false, 2000, 4.5, 68},
    {"tcp_pubsub_eager", "pubsub_eager", true, 32, 80.0, 0},
};

/// fig1: broadcasts per fanout in one round of the sweep.
constexpr std::size_t kBroadcastsPerFanout = 26;
/// Ticks of the committed churn phase (crash at its midpoint).
constexpr std::size_t kChurnTicks = 10;
/// Cluster k of a run uses seed --seed + k * kClusterSeedStride.
constexpr std::uint64_t kClusterSeedStride = 1'000'003;

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  long seconds = 10;
  bool trace = false;
  std::string root = ".";
  std::string out = ".bench_out";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "hpv_perfbench: %s\nusage: hpv_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--root <dir>] "
               "[--out <dir>]\nworkloads:",
               why.c_str());
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

long parse_long(const std::string& flag, const std::string& text, long lo,
                long hi) {
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || v < lo || v > hi) {
    usage("bad value for " + flag + ": '" + text + "'");
  }
  return v;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) o.workload = &w;
      }
      if (o.workload == nullptr) usage("unknown workload '" + value + "'");
    } else if (flag == "--seed") {
      o.seed = static_cast<std::uint64_t>(
          parse_long(flag, value, 0, 1L << 40));
    } else if (flag == "--seconds") {
      o.seconds = parse_long(flag, value, 1, 600);
    } else if (flag == "--trace") {
      o.trace = parse_long(flag, value, 0, 1) == 1;
    } else if (flag == "--root") {
      o.root = value;
    } else if (flag == "--out") {
      o.out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.workload == nullptr) usage("--workload is required");
  return o;
}

// --- Generated spec ----------------------------------------------------------

json::Value& member(json::Value& obj, const std::string& key) {
  for (json::Member& m : obj.as_object()) {
    if (m.first == key) return m.second;
  }
  obj.set(key, json::Value());
  return obj.as_object().back().second;
}

/// How a run's measured work is laid out: `clusters` clusters with `units`
/// units each.
struct Plan {
  std::size_t clusters = 1;
  std::size_t units = 1;
};

Plan plan_of(const Options& o) {
  const Workload& w = *o.workload;
  const auto total = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(static_cast<double>(o.seconds) *
                                              w.units_per_second)));
  if (w.units_per_cluster == 0 || total <= w.units_per_cluster) {
    return Plan{1, total};
  }
  return Plan{std::max<std::size_t>(
                  1, static_cast<std::size_t>(std::lround(
                         static_cast<double>(total) /
                         static_cast<double>(w.units_per_cluster)))),
              w.units_per_cluster};
}

/// The committed spec with one cluster's node count, seed and phase list.
json::Value generate_spec(const Options& o, std::uint64_t cluster_seed,
                          std::size_t units) {
  const Workload& w = *o.workload;
  json::Value doc =
      json::parse_file(o.root + "/specs/" + std::string(w.spec) + ".json");
  const auto seed = static_cast<std::int64_t>(cluster_seed);
  json::Value& net = member(doc, "network");
  member(net, "seed") = seed;
  json::Value& tcp = member(doc, "tcp");
  member(tcp, "seed") = seed;
  member(w.tcp ? tcp : net, "nodes") = static_cast<std::int64_t>(w.nodes);
  member(doc, "backend") = w.tcp ? "tcp" : "sim";

  const json::Value::Array committed = member(doc, "phases").as_array();
  json::Value phases = json::Value::array();
  if (std::string(w.spec) == "fig1") {
    // Stabilization, then `units` rounds of the spec's fanout sweep.
    phases.push_back(committed.front());
    for (std::size_t round = 0; round < units; ++round) {
      for (std::size_t p = 1; p < committed.size(); ++p) {
        json::Value phase = committed[p];
        if (member(phase, "kind").as_string() == "broadcast") {
          member(phase, "count") =
              static_cast<std::int64_t>(kBroadcastsPerFanout);
        }
        phases.push_back(std::move(phase));
      }
    }
  } else {
    // Stabilization, the steady stream sized by `units`, and (on the sim)
    // the committed churn phase. The TCP cluster runs the stream as a
    // closed loop with membership idle and no crash.
    for (const json::Value& committed_phase : committed) {
      json::Value phase = committed_phase;
      const std::string label = member(phase, "label").as_string();
      if (label == "steady") {
        member(phase, "ticks") = static_cast<std::int64_t>(units);
        if (w.tcp) member(phase, "cycles_per_tick") = std::int64_t{0};
      } else if (label == "churn") {
        if (w.tcp) continue;
        member(phase, "ticks") = static_cast<std::int64_t>(kChurnTicks);
      }
      phases.push_back(std::move(phase));
    }
  }
  member(doc, "phases") = std::move(phases);
  return doc;
}

// --- Counters ----------------------------------------------------------------

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  long voluntary_switches = 0;
  long max_rss_kb = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return Usage{secs(ru.ru_utime), secs(ru.ru_stime), ru.ru_nvcsw,
               ru.ru_maxrss};
}

/// Monotonic counters of every layer, snapshotted around the measured phases.
struct Counters {
  // Engines, summed over nodes.
  std::uint64_t payload_bytes = 0;
  std::uint64_t control_bytes = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t grafts = 0;
  std::uint64_t prunes = 0;
  // Simulator.
  std::uint64_t events = 0;
  std::uint64_t sim_messages = 0;
  std::uint64_t sim_sends_failed = 0;
  std::uint64_t sim_connections = 0;
  std::uint64_t sim_bytes = 0;
  std::uint64_t sim_payload_plane_bytes = 0;
  // TCP transports, summed.
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t tcp_bytes_sent = 0;
  std::uint64_t tcp_bytes_received = 0;
  Usage usage;
};

/// Payload-plane frame types, as wire::type_tag numbers them.
std::vector<std::uint8_t> payload_plane_tags() {
  namespace wire = hpv::wire;
  std::vector<std::uint8_t> tags;
  for (const wire::Message& m :
       {wire::Message{wire::Gossip{}}, wire::Message{wire::GossipAck{}},
        wire::Message{wire::TreeGossip{}}, wire::Message{wire::IHave{}},
        wire::Message{wire::Graft{}}, wire::Message{wire::Prune{}}}) {
    tags.push_back(wire::type_tag(m));
  }
  return tags;
}

Counters snapshot(harness::Backend& b, harness::SimBackend* sim,
                  harness::TcpBackend* tcp) {
  Counters c;
  for (std::size_t i = 0; i < b.node_count(); ++i) {
    hpv::gossip::BroadcastEngine& e = b.engine(i);
    c.payload_bytes += e.payload_bytes_sent();
    c.control_bytes += e.control_bytes_sent();
    c.forwarded += e.messages_forwarded();
    c.duplicates += e.duplicates_received();
    c.grafts += e.grafts_sent();
    c.prunes += e.prunes_sent();
  }
  if (sim != nullptr) {
    const hpv::sim::Simulator& s = sim->simulator();
    c.events = s.events_processed();
    c.sim_messages = s.messages_sent();
    c.sim_sends_failed = s.sends_failed();
    c.sim_connections = s.connections_opened();
    c.sim_bytes = s.bytes_sent();
    for (const std::uint8_t tag : payload_plane_tags()) {
      if (tag < s.bytes_by_type().size()) {
        c.sim_payload_plane_bytes += s.bytes_by_type()[tag];
      }
    }
  }
  if (tcp != nullptr) {
    for (std::size_t i = 0; i < tcp->node_count(); ++i) {
      const hpv::net::TransportStats& st = tcp->transport(i).stats();
      c.frames_sent += st.frames_sent;
      c.frames_received += st.frames_received;
      c.tcp_bytes_sent += st.bytes_sent;
      c.tcp_bytes_received += st.bytes_received;
    }
  }
  c.usage = usage_now();
  return c;
}

ViewSnapshot view_snapshot(harness::Backend& b, std::size_t capacity) {
  ViewSnapshot v;
  v.active_capacity = capacity;
  const std::size_t n = b.node_count();
  v.active.resize(n);
  v.passive.resize(n);
  v.alive.resize(n);
  const auto slots = [&](std::span<const hpv::NodeId> ids) {
    std::vector<std::size_t> out;
    for (const hpv::NodeId& id : ids) {
      const std::size_t s = b.peer_slot(id);
      out.push_back(s == harness::Backend::kNoPeer ? ViewSnapshot::kNoSlot
                                                   : s);
    }
    return out;
  };
  for (std::size_t i = 0; i < n; ++i) {
    v.alive[i] = b.alive(i);
    const hpv::membership::Protocol& p =
        static_cast<const harness::Backend&>(b).protocol(i);
    v.active[i] = slots(p.dissemination_view());
    v.passive[i] = slots(p.backup_view());
  }
  return v;
}

/// Nearest-rank percentile of an ascending-sorted sample.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Throughput from per-operation medians. Each measured operation (a fig1
/// broadcast, a pub/sub tick) is timed between consecutive marks; within a
/// class of equal operations (one fanout, or all ticks) the median duration
/// stands for all of them. A stall on a shared machine then slows a few
/// operations, not the result.
class MedianRate {
 public:
  explicit MedianRate(std::int64_t Mark::*clock) : clock_(clock) {}

  /// Adds one cluster's operations, timed from `start_ns` on the clock.
  void add(const std::vector<Mark>& marks, std::int64_t start_ns,
           const std::vector<std::size_t>& op_class) {
    std::int64_t prev = start_ns;
    for (std::size_t i = 0; i < marks.size(); ++i) {
      const std::size_t c = op_class[i];
      if (c >= durations_.size()) durations_.resize(c + 1);
      durations_[c].push_back(static_cast<double>(marks[i].*clock_ - prev) *
                              1e-9);
      prev = marks[i].*clock_;
    }
    if (!marks.empty()) messages_ += marks.back().messages;
  }

  [[nodiscard]] double rate() const {
    double seconds = 0.0;
    for (std::vector<double> d : durations_) {
      if (d.empty()) continue;
      std::sort(d.begin(), d.end());
      const std::size_t mid = d.size() / 2;
      const double median =
          d.size() % 2 == 1 ? d[mid] : 0.5 * (d[mid - 1] + d[mid]);
      seconds += median * static_cast<double>(d.size());
    }
    return ratio(static_cast<double>(messages_), seconds);
  }

 private:
  std::int64_t Mark::*clock_;
  std::vector<std::vector<double>> durations_;
  std::size_t messages_ = 0;
};

// --- Report ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  /// A check made on every cluster of a run is reported once: it passes
  /// when it passed on all of them, with the first failure's detail.
  void check(Verdict v) {
    for (Verdict& seen : verdicts_) {
      if (seen.name != v.name) continue;
      if (seen.pass && !v.pass) seen = std::move(v);
      return;
    }
    verdicts_.push_back(std::move(v));
  }

  [[nodiscard]] bool correct() const {
    return std::all_of(verdicts_.begin(), verdicts_.end(),
                       [](const Verdict& v) { return v.pass; });
  }
  void print_checks() const {
    for (const Verdict& v : verdicts_) {
      std::printf("check %-40s %s  %s\n", v.name.c_str(),
                  v.pass ? "PASS" : "FAIL", v.detail.c_str());
    }
  }

  [[nodiscard]] static json::Value to_json(const std::vector<Metric>& ms) {
    json::Value out = json::Value::object();
    for (const Metric& m : ms) {
      json::Value entry = json::Value::object();
      entry.set("value", m.value);
      entry.set("unit", m.unit);
      out.set(m.name, std::move(entry));
    }
    return out;
  }

 private:
  std::vector<Verdict> verdicts_;
};

// --- The run -----------------------------------------------------------------

/// Adds after - before of every counter to `total`.
void accumulate(Counters& total, const Counters& before,
                const Counters& after) {
  const auto add = [&](std::uint64_t Counters::*field) {
    total.*field += after.*field - before.*field;
  };
  for (std::uint64_t Counters::*field :
       {&Counters::payload_bytes, &Counters::control_bytes,
        &Counters::forwarded, &Counters::duplicates, &Counters::grafts,
        &Counters::prunes, &Counters::events, &Counters::sim_messages,
        &Counters::sim_sends_failed, &Counters::sim_connections,
        &Counters::sim_bytes, &Counters::sim_payload_plane_bytes,
        &Counters::frames_sent, &Counters::frames_received,
        &Counters::tcp_bytes_sent, &Counters::tcp_bytes_received}) {
    add(field);
  }
  total.usage.user_s += after.usage.user_s - before.usage.user_s;
  total.usage.sys_s += after.usage.sys_s - before.usage.sys_s;
  total.usage.voluntary_switches +=
      after.usage.voluntary_switches - before.usage.voluntary_switches;
}

/// End state of the clusters, summed, for the per-layer metrics.
struct EndState {
  std::uint64_t shuffles = 0;
  std::uint64_t promotions = 0;
  std::uint64_t failures_detected = 0;
  double active_sum = 0.0;
  double links_sum = 0.0;
  double links_max = 0.0;
  double alive = 0.0;
};

int run(const Options& o, std::int64_t process_start_ns) {
  const Workload& w = *o.workload;
  const Plan plan = plan_of(o);
  // The simulator runs on this one thread and never blocks, so its cost is
  // the thread's CPU time: unlike wall time, that leaves out the time the
  // thread waits for a CPU that other processes or guests hold. The TCP
  // cluster blocks in epoll and sleeps while it settles, which is part of
  // its cost, so it is timed by the wall clock.
  const bool on_cpu_clock = !w.tcp;

  std::unique_ptr<Tracer> tracer;
  if (o.trace) tracer = std::make_unique<Tracer>();
  Report report;
  for (Verdict& v : run_self_tests()) report.check(std::move(v));

  json::Value first_doc;
  bool hyparview = false;
  double setup_s = 0.0;
  double setup_cpu_s = 0.0;  // process CPU inside every cluster's setup
  double measured_s = 0.0;
  double measured_cpu_s = 0.0;
  MedianRate rate(on_cpu_clock ? &Mark::cpu_ns : &Mark::ns);
  Counters delta;
  EndState end;
  // Every measured message, in publish order, and the failure accounting.
  std::vector<hpv::analysis::MessageResult> messages;
  std::size_t failed = 0;
  // fig1: per-fanout reliability over every round of the sweep.
  std::vector<double> fanout_sum(9, 0.0);
  std::vector<std::size_t> fanout_count(9, 0);
  std::size_t incomplete_waves = 0;
  std::vector<std::string> crash_notes;

  for (std::size_t k = 0; k < plan.clusters; ++k) {
    const json::Value doc =
        generate_spec(o, o.seed + k * kClusterSeedStride, plan.units);
    if (k == 0) first_doc = doc;
    harness::RunSpec spec = harness::spec_from_json(doc);

    // Declared before the backend, so that they outlive it.
    std::vector<std::unique_ptr<UpcallShim>> shims;
    std::unique_ptr<harness::Backend> real;
    harness::SimBackend* sim = nullptr;
    harness::TcpBackend* tcp = nullptr;
    if (w.tcp) {
      auto b = std::make_unique<harness::TcpBackend>(spec.tcp);
      tcp = b.get();
      real = std::move(b);
    } else {
      auto b = std::make_unique<harness::SimBackend>(spec.net);
      sim = b.get();
      real = std::move(b);
    }
    hyparview = spec.net.kind == harness::ProtocolKind::kHyParView;

    // Split the phase program: leading membership rounds are setup.
    harness::Experiment setup_phases(spec.experiment.name() + ".setup");
    harness::Experiment measured_phases(spec.experiment.name() +
                                        ".measured");
    for (const auto& phase : spec.experiment.phases()) {
      const bool setup =
          measured_phases.phases().empty() &&
          phase.kind == harness::Experiment::PhaseKind::kCycles;
      (setup ? setup_phases : measured_phases)
          .mutable_phases()
          .push_back(phase);
    }

    TracedBackend b(*real, tracer.get());
    if (sim != nullptr) {
      b.set_drain_probe([sim] { return sim->simulator().queue_empty(); });
    }

    // --- Setup: build, (shims), stabilization rounds. ------------------------
    const Usage setup_usage_start = usage_now();
    b.build();
    if (tracer) {
      for (std::size_t i = 0; i < b.node_count(); ++i) {
        if (sim != nullptr) {
          shims.push_back(
              std::make_unique<UpcallShim>(sim->runtime(i), *tracer));
          sim->simulator().set_handler(sim->id_of(i), shims.back().get());
        } else {
          shims.push_back(
              std::make_unique<UpcallShim>(tcp->runtime(i), *tracer));
          tcp->transport(i).set_endpoint(shims.back().get());
        }
      }
    }
    harness::run_experiment(b, setup_phases);
    if (k == 0) {
      // One cold setup per run: the first cluster's, from the process's
      // start.
      setup_s = on_cpu_clock
                    ? static_cast<double>(process_cpu_ns()) * 1e-9
                    : static_cast<double>(mono_ns() - process_start_ns) *
                          1e-9;
    }
    const Usage setup_usage_end = usage_now();
    setup_cpu_s += (setup_usage_end.user_s + setup_usage_end.sys_s) -
                   (setup_usage_start.user_s + setup_usage_start.sys_s);

    if (hyparview) {
      report.check(check_views(
          view_snapshot(b, spec.net.hyparview.active_capacity)));
    }
    // Flood forwards are predicted from the overlay as it stands now.
    std::uint64_t degree_sum = 0;
    for (std::size_t i = 0; i < b.node_count(); ++i) {
      if (b.alive(i)) degree_sum += b.protocol(i).dissemination_view().size();
    }
    const std::size_t alive_before = b.alive_count();

    // --- Measured phases. ----------------------------------------------------
    const Counters before = snapshot(b, sim, tcp);
    b.set_measuring(true);
    const std::int64_t measure_start_ns = mono_ns();
    const std::int64_t measure_start_cpu_ns = thread_cpu_ns();
    const harness::ExperimentResult result =
        harness::run_experiment(b, measured_phases);
    measured_s +=
        static_cast<double>(mono_ns() - measure_start_ns) * 1e-9;
    measured_cpu_s +=
        static_cast<double>(thread_cpu_ns() - measure_start_cpu_ns) * 1e-9;
    b.set_measuring(false);
    if (tcp != nullptr) {
      // Let duplicates still on the wire land before comparing frame totals.
      for (int i = 0; i < 100; ++i) {
        const Counters now = snapshot(b, sim, tcp);
        if (now.frames_sent - before.frames_sent ==
                now.frames_received - before.frames_received &&
            now.tcp_bytes_sent - before.tcp_bytes_sent ==
                now.tcp_bytes_received - before.tcp_bytes_received) {
          break;
        }
        real->settle();
      }
    }
    const Counters after = snapshot(b, sim, tcp);
    accumulate(delta, before, after);

    std::vector<hpv::analysis::MessageResult> cluster_messages;
    std::vector<hpv::analysis::MessageResult> after_crash;
    // Class of each measured operation for the throughput medians: fig1
    // broadcasts by fanout, pub/sub ticks all alike.
    std::vector<std::size_t> op_class;
    if (w.spec == std::string("fig1")) {
      std::size_t fanout = 0;
      for (std::size_t p = 0; p < result.phases.size(); ++p) {
        const auto& phase = measured_phases.phases()[p];
        if (phase.kind == harness::Experiment::PhaseKind::kSetFanout) {
          fanout = phase.fanout;
        }
        for (const auto& r : result.phases[p].broadcasts) {
          cluster_messages.push_back(r);
          op_class.push_back(fanout);
          if (fanout < fanout_sum.size()) {
            fanout_sum[fanout] += r.reliability();
            ++fanout_count[fanout];
          }
        }
      }
      // A wave is complete when the simulator drained it: broadcast_from
      // returns on quiescence, so a non-empty queue means it did not finish.
      incomplete_waves += b.undrained_waves();
      failed += b.undrained_waves();
    } else {
      bool crashed = false;
      double crash_tick_reliability = -1.0;
      for (const Tick& tick : b.ticks()) {
        op_class.push_back(0);
        double sum = 0.0;
        for (const std::uint64_t id : tick.ids) {
          const hpv::analysis::MessageResult& r = b.recorder().result(id);
          cluster_messages.push_back(r);
          sum += r.reliability();
          if (crashed && !tick.after_crash) after_crash.push_back(r);
          // Detect-on-send loses first sends into the freshly crashed nodes
          // on the crash tick itself: reported and checked, not counted.
          if (!tick.after_crash && r.delivered < r.alive_nodes) ++failed;
        }
        if (tick.after_crash) {
          crashed = true;
          crash_tick_reliability =
              sum / static_cast<double>(
                        std::max<std::size_t>(1, tick.ids.size()));
        }
      }
      if (crashed) {
        crash_notes.push_back("cluster " + std::to_string(k) +
                              ": crash tick reliability " +
                              std::to_string(crash_tick_reliability) +
                              " (not counted as failures)");
        report.check(check_full_delivery("pubsub.delivery_after_crash_tick",
                                         after_crash));
        report.check(Verdict{
            "pubsub.crash_tick_reliability", crash_tick_reliability >= 0.5,
            "mean reliability of the crash tick " +
                std::to_string(crash_tick_reliability) + " (floor 0.5)"});
      }
    }
    rate.add(b.marks(), on_cpu_clock ? measure_start_cpu_ns : measure_start_ns,
             op_class);

    if (sim != nullptr) {
      const auto& cfg = spec.net.sim;
      const bool eager = spec.net.gossip.engine == hpv::gossip::Engine::kEager;
      report.check(check_latency_bounds(cluster_messages, cfg.latency_min,
                                        cfg.latency_max, eager));
      report.check(check_equal(
          "sim.engine_bytes_match_wire",
          (after.payload_bytes - before.payload_bytes) +
              (after.control_bytes - before.control_bytes),
          after.sim_payload_plane_bytes - before.sim_payload_plane_bytes));
    }
    if (tcp != nullptr) {
      report.check(check_flood_forwards(after.forwarded - before.forwarded,
                                        cluster_messages.size(), degree_sum,
                                        alive_before));
      report.check(check_equal("tcp.frames_sent_eq_received",
                               after.frames_sent - before.frames_sent,
                               after.frames_received - before.frames_received));
      report.check(check_equal(
          "tcp.bytes_sent_eq_received",
          after.tcp_bytes_sent - before.tcp_bytes_sent,
          after.tcp_bytes_received - before.tcp_bytes_received));
    }
    messages.insert(messages.end(), cluster_messages.begin(),
                    cluster_messages.end());

    if (tracer) {
      for (std::size_t i = 0; i < b.node_count(); ++i) {
        if (const auto* h = dynamic_cast<const hpv::core::HyParView*>(
                &b.protocol(i))) {
          end.shuffles += h->stats().shuffles_initiated;
          end.promotions += h->stats().promotions;
          end.failures_detected += h->stats().failures_detected;
          if (b.alive(i)) {
            end.active_sum += static_cast<double>(h->active_view().size());
          }
        }
        if (sim != nullptr && b.alive(i)) {
          const auto links =
              static_cast<double>(sim->simulator().link_count(b.id_of(i)));
          end.links_sum += links;
          end.links_max = std::max(end.links_max, links);
        }
      }
      end.alive += static_cast<double>(b.alive_count());
    }
  }

  if (w.spec == std::string("fig1")) {
    for (std::size_t f = 2; f < fanout_sum.size(); ++f) {
      if (fanout_count[f] > 0) {
        report.check(check_meanfield(
            f, fanout_sum[f] / static_cast<double>(fanout_count[f]), 0.02));
      }
    }
    report.check(Verdict{"fig1.waves_complete", incomplete_waves == 0,
                         std::to_string(incomplete_waves) +
                             " waves left events queued"});
  }
  const Usage end_usage = usage_now();

  // --- Metrics. --------------------------------------------------------------
  const auto msgs = static_cast<double>(messages.size());
  std::vector<double> latency_ms;
  latency_ms.reserve(messages.size());
  std::uint64_t deliveries = 0;
  std::uint64_t recorder_dups = 0;
  for (const auto& r : messages) {
    latency_ms.push_back(static_cast<double>(r.latency_to_last()) * 1e-3);
    deliveries += r.delivered;
    recorder_dups += r.duplicates;
  }
  std::sort(latency_ms.begin(), latency_ms.end());
  const double wire_bytes = static_cast<double>(
      w.tcp ? delta.tcp_bytes_sent : delta.sim_bytes);

  std::vector<Metric> e2e = {
      {"setup_s", setup_s, "s"},
      {"msgs_per_s", rate.rate(), "1/s"},
      {"latency_p50_ms", percentile(latency_ms, 0.50), "ms"},
      {"latency_p99_ms", percentile(latency_ms, 0.99), "ms"},
      {"wire_bytes_per_msg", ratio(wire_bytes, msgs), "B"},
      {"peak_rss_mb", static_cast<double>(end_usage.max_rss_kb) / 1024.0,
       "MB"},
  };

  std::printf("workload %s seed %llu: %zu cluster(s) of %zu nodes, %zu "
              "messages in %.3f s measured (%.3f s thread CPU), setup %.3f "
              "s\n",
              w.name, static_cast<unsigned long long>(o.seed), plan.clusters,
              w.nodes, messages.size(), measured_s, measured_cpu_s, setup_s);
  for (const std::string& note : crash_notes) std::printf("%s\n", note.c_str());
  report.print_checks();

  std::vector<Metric> layer;
  if (tracer) {
    const Tracer& t = *tracer;
    const double build_s = t.total_seconds(SpanKind::kBuild);
    const double stabilize_s = t.total_seconds(SpanKind::kStabilize);
    const SpanKind measured_calls[] = {SpanKind::kSettle, SpanKind::kCycles,
                                       SpanKind::kInject, SpanKind::kControl};
    const double backend_self = t.self_seconds(measured_calls);
    const SpanTotals& payload = t.totals(SpanKind::kPayloadUpcall);
    const SpanTotals& membership = t.totals(SpanKind::kMembershipUpcall);
    const SpanTotals& codec = t.totals(SpanKind::kCodec);
    const double membership_s =
        static_cast<double>(membership.self_ns) * 1e-9;
    const double payload_s = static_cast<double>(payload.self_ns) * 1e-9;

    const double sim_events = static_cast<double>(delta.events);
    const double frames = static_cast<double>(delta.frames_sent);
    const double useful = static_cast<double>(deliveries) - msgs;
    const double cpu_sys = delta.usage.sys_s;
    const bool on_sim = !w.tcp;
    const auto per_msg = [&](std::uint64_t v) {
      return ratio(static_cast<double>(v), msgs);
    };

    layer = {
        {"harness.build_s", build_s, "s"},
        {"harness.stabilize_s", stabilize_s, "s"},
        {"harness.idle_s", std::max(0.0, build_s + stabilize_s - setup_cpu_s),
         "s"},
        {"harness.settle_s", t.total_seconds(SpanKind::kSettle), "s"},
        {"harness.cycles_s", t.total_seconds(SpanKind::kCycles), "s"},
        {"sim.events", sim_events, "count"},
        {"sim.events_per_msg", ratio(sim_events, msgs), "count/msg"},
        {"sim.self_s", on_sim ? backend_self : 0.0, "s"},
        {"sim.ns_per_event",
         on_sim ? ratio(backend_self * 1e9, sim_events) : 0.0, "ns"},
        {"sim.messages_sent", static_cast<double>(delta.sim_messages),
         "count"},
        {"sim.sends_failed", static_cast<double>(delta.sim_sends_failed),
         "count"},
        {"sim.connections_opened",
         static_cast<double>(delta.sim_connections), "count"},
        {"sim.links_per_node_mean", on_sim ? ratio(end.links_sum, end.alive)
                                           : 0.0,
         "count"},
        {"sim.links_per_node_max", end.links_max, "count"},
        {"membership.codec_ns_per_frame",
         ratio(static_cast<double>(codec.total_ns),
               static_cast<double>(codec.count)),
         "ns"},
        {"membership.bytes_per_frame",
         on_sim ? ratio(static_cast<double>(delta.sim_bytes),
                        static_cast<double>(delta.sim_messages))
                : ratio(static_cast<double>(delta.tcp_bytes_sent), frames),
         "B"},
        {"core.upcall_s", hyparview ? membership_s : 0.0, "s"},
        {"core.upcalls",
         hyparview ? static_cast<double>(membership.count) : 0.0, "count"},
        {"core.shuffles", static_cast<double>(end.shuffles), "count"},
        {"core.promotions", static_cast<double>(end.promotions), "count"},
        {"core.failures_detected", static_cast<double>(end.failures_detected),
         "count"},
        {"core.active_view_mean",
         ratio(end.active_sum, hyparview ? end.alive : 0.0), "count"},
        {"baselines.upcall_s", hyparview ? 0.0 : membership_s, "s"},
        {"baselines.upcalls",
         hyparview ? 0.0 : static_cast<double>(membership.count), "count"},
        {"gossip.upcall_s", payload_s, "s"},
        {"gossip.ns_per_upcall",
         ratio(payload_s * 1e9, static_cast<double>(payload.count)), "ns"},
        {"gossip.forwards_per_msg", per_msg(delta.forwarded), "count/msg"},
        {"gossip.dups_per_msg", per_msg(delta.duplicates), "count/msg"},
        {"gossip.useful_ratio",
         ratio(useful, useful + static_cast<double>(recorder_dups)), "ratio"},
        {"gossip.grafts_per_msg", per_msg(delta.grafts), "count/msg"},
        {"gossip.prunes_per_msg", per_msg(delta.prunes), "count/msg"},
        {"gossip.payload_bytes_per_msg", per_msg(delta.payload_bytes),
         "B/msg"},
        {"gossip.control_bytes_per_msg", per_msg(delta.control_bytes),
         "B/msg"},
        {"analysis.deliveries", static_cast<double>(deliveries), "count"},
        {"analysis.duplicates", static_cast<double>(recorder_dups), "count"},
        {"net.frames_per_msg", ratio(frames, msgs), "count/msg"},
        {"net.sys_cpu_s", on_sim ? 0.0 : cpu_sys, "s"},
        {"net.user_cpu_s", on_sim ? 0.0 : delta.usage.user_s, "s"},
        {"net.sys_us_per_frame", on_sim ? 0.0 : ratio(cpu_sys * 1e6, frames),
         "us"},
        {"net.self_s", on_sim ? 0.0 : backend_self, "s"},
        {"net.voluntary_ctx_switches",
         on_sim ? 0.0 : static_cast<double>(delta.usage.voluntary_switches),
         "count"},
    };

    // Spans and a summary (both metric sets, for the tracing overhead).
    std::filesystem::create_directories(o.out);
    const std::string stem = o.out + "/" + w.name + "-seed" +
                             std::to_string(o.seed);
    t.write(stem + ".spans.jsonl", process_start_ns);
    json::Value summary = json::Value::object();
    summary.set("workload", w.name);
    summary.set("seed", static_cast<std::int64_t>(o.seed));
    summary.set("clusters", static_cast<std::int64_t>(plan.clusters));
    summary.set("spec", first_doc);
    summary.set("end_to_end", Report::to_json(e2e));
    summary.set("per_layer", Report::to_json(layer));
    std::ofstream(stem + ".summary.json") << summary.dump(2);
  }

  const std::vector<Metric>& shown = o.trace ? layer : e2e;
  for (const Metric& m : shown) {
    std::printf("metric %-32s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  json::Value out = json::Value::object();
  out.set("correct", report.correct());
  out.set("attempted", static_cast<std::int64_t>(messages.size()));
  out.set("failed", static_cast<std::int64_t>(failed));
  out.set("metrics", Report::to_json(shown));
  std::printf("%s\n", out.dump().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::int64_t start_ns = perfbench::mono_ns();
  const perfbench::Options options = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(options, start_ns);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hpv_perfbench: %s\n", e.what());
    return 1;
  }
}
