// Layer attribution from outside the program.
//
// The benchmark sees the library through two public seams only:
//
//  * its own calls into harness::Backend — TracedBackend forwards every
//    virtual to the real backend and opens a span around each call; and
//  * the transport → node upcalls — UpcallShim is installed with
//    sim::Simulator::set_handler / net::TcpTransport::set_endpoint in front
//    of each node's NodeRuntime and opens a span around each upcall, split
//    by the frame's plane (payload vs membership).
//
// Spans nest on one stack (the benchmark is single-threaded). A closed span
// adds its duration to its parent's child time, so a layer's self time is
// its span minus its child spans. Backend-call spans are all kept; upcall
// spans are aggregated per kind and kept one in kUpcallSampleEvery (a fig1
// run dispatches millions of upcalls). Records are written out at the end.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "hyparview/harness/backend.hpp"
#include "hyparview/membership/endpoint.hpp"

namespace perfbench {

/// Monotonic clock, nanoseconds.
[[nodiscard]] std::int64_t mono_ns();
/// CPU time of the calling thread, nanoseconds. With paravirtual steal-time
/// accounting it excludes time the hypervisor gave to other guests.
[[nodiscard]] std::int64_t thread_cpu_ns();
/// CPU time of the whole process since it started, nanoseconds.
[[nodiscard]] std::int64_t process_cpu_ns();

enum class SpanKind : std::uint8_t {
  // Backend calls, setup phase.
  kBuild,
  kStabilize,
  // Backend calls, measured phases.
  kSettle,   ///< settle / settle_broadcasts / broadcast_from
  kCycles,   ///< membership rounds inside the measured phases
  kInject,   ///< inject_broadcast
  kControl,  ///< set_fanout, crashes, joins, leaves
  // Upcalls at the shim.
  kPayloadUpcall,     ///< Gossip/GossipAck/TreeGossip/IHave/Graft/Prune
  kMembershipUpcall,  ///< every other frame, and link closes
  kCodec,             ///< sampled wire encode+decode at the shim
  kCount,
};

[[nodiscard]] const char* span_name(SpanKind kind);
[[nodiscard]] bool is_backend_call(SpanKind kind);

struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

struct SpanRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing kept record
  SpanKind kind = SpanKind::kBuild;
};

class Tracer {
 public:
  static constexpr std::uint64_t kUpcallSampleEvery = 1024;
  /// One received frame in this many is run through the wire codec.
  static constexpr std::uint64_t kCodecSampleEvery = 64;

  Tracer();

  void begin(SpanKind kind);
  void end();

  [[nodiscard]] const SpanTotals& totals(SpanKind kind) const {
    return totals_[static_cast<std::size_t>(kind)];
  }
  /// Self time summed over the backend-call kinds in `kinds`.
  [[nodiscard]] double self_seconds(std::span<const SpanKind> kinds) const;
  [[nodiscard]] double total_seconds(SpanKind kind) const;

  /// Counts a received frame; true when it is due for a codec sample.
  [[nodiscard]] bool codec_sample_due() {
    return frames_seen_++ % kCodecSampleEvery == 0;
  }
  /// Encoded bytes of the sampled frames (keeps the codec work observable).
  std::uint64_t codec_bytes = 0;

  /// Writes the kept records as JSON lines to `path`.
  void write(const std::string& path, std::int64_t origin_ns) const;

 private:
  struct Open {
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
    std::int32_t record = -1;
    SpanKind kind = SpanKind::kBuild;
  };
  std::vector<Open> stack_;
  std::array<SpanTotals, static_cast<std::size_t>(SpanKind::kCount)> totals_{};
  std::vector<SpanRecord> records_;
  std::uint64_t upcalls_ = 0;
  std::uint64_t frames_seen_ = 0;
};

/// RAII span; a null tracer makes it free.
class Span {
 public:
  Span(Tracer* tracer, SpanKind kind) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(kind);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// One tick of a pub/sub phase as the backend saw it: the ids handed to one
/// settle_broadcasts call, and whether a crash preceded them.
struct Tick {
  std::vector<std::uint64_t> ids;
  bool after_crash = false;
};

/// Progress: `messages` measured messages had completed at wall time `ns`
/// and thread CPU time `cpu_ns`.
struct Mark {
  std::int64_t ns = 0;
  std::int64_t cpu_ns = 0;
  std::size_t messages = 0;
};

/// Forwards every harness::Backend virtual to `inner`, timing each call.
/// The shared workload implementations (run_pubsub, broadcast_one, ...) are
/// deliberately not overridden: they run on this object, so each primitive
/// they call is timed, in exactly the order the real backend would run it.
class TracedBackend final : public hyparview::harness::Backend {
 public:
  TracedBackend(hyparview::harness::Backend& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  /// Setup phase (false) or measured phases (true): decides how
  /// run_cycles spans are attributed.
  void set_measuring(bool on) { measuring_ = on; }
  [[nodiscard]] const std::vector<Tick>& ticks() const { return ticks_; }
  /// Asked after every broadcast_from whether the backend drained the wave.
  void set_drain_probe(std::function<bool()> probe) {
    drain_probe_ = std::move(probe);
  }
  /// broadcast_from calls that returned with the wave not drained.
  [[nodiscard]] std::size_t undrained_waves() const { return undrained_; }
  /// One mark per completed broadcast_from / settle_broadcasts call.
  [[nodiscard]] const std::vector<Mark>& marks() const { return marks_; }

  [[nodiscard]] const char* backend_name() const override {
    return inner_.backend_name();
  }
  void build() override {
    Span s(tracer_, SpanKind::kBuild);
    inner_.build();
  }
  [[nodiscard]] bool built() const override { return inner_.built(); }
  std::size_t add_node() override {
    Span s(tracer_, SpanKind::kControl);
    return inner_.add_node();
  }
  void kill_node(std::size_t i) override {
    Span s(tracer_, SpanKind::kControl);
    inner_.kill_node(i);
  }
  void leave_node(std::size_t i, bool graceful) override {
    Span s(tracer_, SpanKind::kControl);
    inner_.leave_node(i, graceful);
  }
  void fail_random_fraction(double fraction) override {
    Span s(tracer_, SpanKind::kControl);
    inner_.fail_random_fraction(fraction);
    crash_pending_ = true;
  }
  using Backend::run_cycles;
  void run_cycles(std::size_t n,
                  const hyparview::harness::CycleOptions& options) override {
    Span s(tracer_, measuring_ ? SpanKind::kCycles : SpanKind::kStabilize);
    inner_.run_cycles(n, options);
  }
  void settle() override {
    Span s(tracer_, SpanKind::kSettle);
    inner_.settle();
  }
  hyparview::analysis::MessageResult broadcast_from(
      std::size_t source) override {
    hyparview::analysis::MessageResult r;
    {
      Span s(tracer_, SpanKind::kSettle);
      r = inner_.broadcast_from(source);
    }
    if (drain_probe_ && !drain_probe_()) ++undrained_;
    mark(1);
    return r;
  }
  std::uint64_t inject_broadcast(std::size_t source) override {
    Span s(tracer_, SpanKind::kInject);
    return inner_.inject_broadcast(source);
  }
  void settle_broadcasts(std::span<const std::uint64_t> ids) override {
    {
      Span s(tracer_, SpanKind::kSettle);
      inner_.settle_broadcasts(ids);
    }
    ticks_.push_back(Tick{{ids.begin(), ids.end()}, crash_pending_});
    crash_pending_ = false;
    mark(ids.size());
  }
  void set_fanout(std::size_t fanout) override {
    Span s(tracer_, SpanKind::kControl);
    inner_.set_fanout(fanout);
  }
  [[nodiscard]] std::size_t peer_slot(
      const hyparview::NodeId& peer) const override {
    return inner_.peer_slot(peer);
  }
  [[nodiscard]] std::size_t node_count() const override {
    return inner_.node_count();
  }
  [[nodiscard]] std::size_t alive_count() const override {
    return inner_.alive_count();
  }
  [[nodiscard]] bool alive(std::size_t i) const override {
    return inner_.alive(i);
  }
  [[nodiscard]] hyparview::NodeId id_of(std::size_t i) const override {
    return inner_.id_of(i);
  }
  [[nodiscard]] hyparview::membership::Protocol& protocol(
      std::size_t i) override {
    return inner_.protocol(i);
  }
  [[nodiscard]] const hyparview::membership::Protocol& protocol(
      std::size_t i) const override {
    return static_cast<const hyparview::harness::Backend&>(inner_).protocol(i);
  }
  [[nodiscard]] hyparview::gossip::BroadcastEngine& engine(
      std::size_t i) override {
    return inner_.engine(i);
  }
  [[nodiscard]] hyparview::analysis::BroadcastRecorder& recorder() override {
    return inner_.recorder();
  }
  [[nodiscard]] const hyparview::harness::Adversary* adversary()
      const override {
    return inner_.adversary();
  }
  [[nodiscard]] hyparview::Rng& rng() override { return inner_.rng(); }
  [[nodiscard]] std::uint64_t events_processed() const override {
    return inner_.events_processed();
  }

 private:
  void mark(std::size_t messages) {
    const std::size_t before = marks_.empty() ? 0 : marks_.back().messages;
    marks_.push_back(Mark{mono_ns(), thread_cpu_ns(), before + messages});
  }

  hyparview::harness::Backend& inner_;
  Tracer* tracer_;
  bool measuring_ = false;
  bool crash_pending_ = false;
  std::vector<Tick> ticks_;
  std::function<bool()> drain_probe_;
  std::size_t undrained_ = 0;
  std::vector<Mark> marks_;
};

/// Upcall interposer in front of one node's NodeRuntime.
class UpcallShim final : public hyparview::membership::Endpoint {
 public:
  UpcallShim(hyparview::membership::Endpoint& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  void deliver(const hyparview::NodeId& from,
               const hyparview::wire::Message& msg) override;
  void send_failed(const hyparview::NodeId& to,
                   const hyparview::wire::Message& msg) override;
  void link_closed(const hyparview::NodeId& peer) override;


 private:
  void sample_codec(const hyparview::wire::Message& msg);

  hyparview::membership::Endpoint& inner_;
  Tracer& tracer_;
};

/// True for the payload-plane frame types the broadcast engines own.
[[nodiscard]] bool is_payload_frame(const hyparview::wire::Message& msg);

}  // namespace perfbench
