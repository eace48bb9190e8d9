#include "trace.hpp"

#include <time.h>

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <variant>

#include "hyparview/membership/wire.hpp"

namespace perfbench {

std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) {
    throw std::runtime_error("clock_gettime failed");
  }
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
}  // namespace

std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kBuild: return "backend.build";
    case SpanKind::kStabilize: return "backend.stabilize";
    case SpanKind::kSettle: return "backend.settle";
    case SpanKind::kCycles: return "backend.cycles";
    case SpanKind::kInject: return "backend.inject";
    case SpanKind::kControl: return "backend.control";
    case SpanKind::kPayloadUpcall: return "upcall.payload";
    case SpanKind::kMembershipUpcall: return "upcall.membership";
    case SpanKind::kCodec: return "codec";
    case SpanKind::kCount: break;
  }
  return "?";
}

bool is_backend_call(SpanKind kind) {
  return kind < SpanKind::kPayloadUpcall;
}

Tracer::Tracer() {
  stack_.reserve(16);
  records_.reserve(1 << 16);
}

void Tracer::begin(SpanKind kind) {
  std::int32_t record = -1;
  const bool keep = is_backend_call(kind) ||
                    upcalls_++ % kUpcallSampleEvery == 0;
  const std::int64_t now = mono_ns();
  if (keep) {
    std::int32_t parent = -1;
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->record >= 0) {
        parent = it->record;
        break;
      }
    }
    record = static_cast<std::int32_t>(records_.size());
    records_.push_back(SpanRecord{now, now, parent, kind});
  }
  stack_.push_back(Open{now, 0, record, kind});
}

void Tracer::end() {
  const std::int64_t now = mono_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = now - open.start_ns;
  SpanTotals& t = totals_[static_cast<std::size_t>(open.kind)];
  ++t.count;
  t.total_ns += duration;
  t.self_ns += duration - open.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (open.record >= 0) {
    records_[static_cast<std::size_t>(open.record)].end_ns = now;
  }
}

double Tracer::self_seconds(std::span<const SpanKind> kinds) const {
  std::int64_t ns = 0;
  for (const SpanKind k : kinds) ns += totals(k).self_ns;
  return static_cast<double>(ns) * 1e-9;
}

double Tracer::total_seconds(SpanKind kind) const {
  return static_cast<double>(totals(kind).total_ns) * 1e-9;
}

void Tracer::write(const std::string& path, std::int64_t origin_ns) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& r = records_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 i, span_name(r.kind), r.parent,
                 static_cast<long long>(r.start_ns - origin_ns),
                 static_cast<long long>(r.end_ns - origin_ns));
  }
  std::fclose(f);
}

bool is_payload_frame(const hyparview::wire::Message& msg) {
  namespace wire = hyparview::wire;
  return std::holds_alternative<wire::Gossip>(msg) ||
         std::holds_alternative<wire::GossipAck>(msg) ||
         std::holds_alternative<wire::TreeGossip>(msg) ||
         std::holds_alternative<wire::IHave>(msg) ||
         std::holds_alternative<wire::Graft>(msg) ||
         std::holds_alternative<wire::Prune>(msg);
}

void UpcallShim::sample_codec(const hyparview::wire::Message& msg) {
  if (!tracer_.codec_sample_due()) return;
  Span s(&tracer_, SpanKind::kCodec);
  const std::vector<std::uint8_t> bytes = hyparview::wire::encode_bytes(msg);
  const hyparview::wire::Message back = hyparview::wire::decode_bytes(bytes);
  tracer_.codec_bytes += bytes.size() + back.index();
}

void UpcallShim::deliver(const hyparview::NodeId& from,
                         const hyparview::wire::Message& msg) {
  sample_codec(msg);
  Span s(&tracer_, is_payload_frame(msg) ? SpanKind::kPayloadUpcall
                                         : SpanKind::kMembershipUpcall);
  inner_.deliver(from, msg);
}

void UpcallShim::send_failed(const hyparview::NodeId& to,
                             const hyparview::wire::Message& msg) {
  Span s(&tracer_, is_payload_frame(msg) ? SpanKind::kPayloadUpcall
                                         : SpanKind::kMembershipUpcall);
  inner_.send_failed(to, msg);
}

void UpcallShim::link_closed(const hyparview::NodeId& peer) {
  Span s(&tracer_, SpanKind::kMembershipUpcall);
  inner_.link_closed(peer);
}

}  // namespace perfbench
