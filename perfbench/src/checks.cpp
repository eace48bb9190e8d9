#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace perfbench {

namespace {

__attribute__((format(printf, 1, 2))) std::string format(const char* fmt,
                                                         ...) {
  char buf[200];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

bool contains(const std::vector<std::size_t>& v, std::size_t x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

}  // namespace

double meanfield_reliability(double fanout) {
  if (fanout <= 1.0) return 0.0;
  double r = 1.0;
  for (int i = 0; i < 200; ++i) r = 1.0 - std::exp(-fanout * r);
  return r;
}

Verdict check_meanfield(std::size_t fanout, double measured,
                        double tolerance) {
  const double expect = meanfield_reliability(static_cast<double>(fanout));
  Verdict v{"fig1.meanfield_f" + std::to_string(fanout),
            std::fabs(measured - expect) <= tolerance, ""};
  v.detail = format("reliability %.4f, mean-field %.4f, tolerance %.3f",
                    measured, expect, tolerance);
  return v;
}

Verdict check_latency_bounds(
    std::span<const hyparview::analysis::MessageResult> results,
    hyparview::Duration latency_min, hyparview::Duration latency_max,
    bool check_upper) {
  std::size_t below = 0;
  std::size_t above = 0;
  for (const auto& r : results) {
    const hyparview::Duration latency = r.latency_to_last();
    if (latency < static_cast<hyparview::Duration>(r.max_hops) * latency_min) {
      ++below;
    }
    if (check_upper &&
        latency > static_cast<hyparview::Duration>(r.max_hops) * latency_max) {
      ++above;
    }
  }
  Verdict v{check_upper ? "latency_within_hop_bounds"
                        : "latency_above_hop_floor",
            below == 0 && above == 0 && !results.empty(), ""};
  v.detail = format("%.0f messages, %.0f below hops x latency_min, %.0f above "
                    "hops x latency_max",
                    static_cast<double>(results.size()),
                    static_cast<double>(below), static_cast<double>(above));
  return v;
}

Verdict check_equal(const std::string& name, std::uint64_t a,
                    std::uint64_t b) {
  return Verdict{name, a == b,
                 format("%.0f vs %.0f", static_cast<double>(a),
                        static_cast<double>(b))};
}

Verdict check_flood_forwards(std::uint64_t forwards, std::uint64_t messages,
                             std::uint64_t degree_sum, std::uint64_t nodes) {
  const std::uint64_t expect =
      nodes == 0 ? 0 : messages * (degree_sum - (nodes - 1));
  Verdict v{"tcp.flood_forwards", forwards == expect && nodes > 0, ""};
  v.detail = format("%.0f forwards, expected %.0f (degree sum %.0f)",
                    static_cast<double>(forwards),
                    static_cast<double>(expect),
                    static_cast<double>(degree_sum));
  return v;
}

Verdict check_views(const ViewSnapshot& views) {
  const std::size_t n = views.active.size();
  std::size_t oversize = 0;
  std::size_t self = 0;
  std::size_t unknown = 0;
  std::size_t asymmetric = 0;
  std::size_t overlap = 0;
  std::size_t alive = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!views.alive[i]) continue;
    ++alive;
    const auto& act = views.active[i];
    if (act.size() > views.active_capacity) ++oversize;
    for (const std::size_t j : act) {
      if (j == i) {
        ++self;
      } else if (j >= n) {
        ++unknown;
      } else if (views.alive[j] && !contains(views.active[j], i)) {
        ++asymmetric;
      }
      if (contains(views.passive[i], j)) ++overlap;
    }
  }
  // One component: BFS over active links between alive nodes.
  std::size_t reached = 0;
  std::vector<bool> seen(n, false);
  std::vector<std::size_t> frontier;
  for (std::size_t i = 0; i < n && frontier.empty(); ++i) {
    if (views.alive[i]) {
      seen[i] = true;
      frontier.push_back(i);
    }
  }
  while (!frontier.empty()) {
    const std::size_t u = frontier.back();
    frontier.pop_back();
    ++reached;
    for (const std::size_t j : views.active[u]) {
      if (j < n && views.alive[j] && !seen[j]) {
        seen[j] = true;
        frontier.push_back(j);
      }
    }
  }
  Verdict v{"hyparview.views",
            oversize == 0 && self == 0 && unknown == 0 && asymmetric == 0 &&
                overlap == 0 && reached == alive && alive > 0,
            ""};
  v.detail = format(
      "%zu alive, %zu reached, oversize %zu, self %zu, unknown %zu, "
      "asymmetric %zu, active/passive overlap %zu",
      alive, reached, oversize, self, unknown, asymmetric, overlap);
  return v;
}

Verdict check_full_delivery(
    const std::string& name,
    std::span<const hyparview::analysis::MessageResult> results) {
  std::size_t short_messages = 0;
  for (const auto& r : results) {
    if (r.delivered < r.alive_nodes) ++short_messages;
  }
  return Verdict{name, short_messages == 0,
                 format("%.0f messages, %.0f missed an alive node",
                        static_cast<double>(results.size()),
                        static_cast<double>(short_messages))};
}

namespace {

/// A self-test passes when `valid` passes and every corruption fails.
Verdict self_test(const std::string& name, const Verdict& valid,
                  const std::vector<Verdict>& corrupted) {
  std::size_t accepted = 0;
  for (const Verdict& c : corrupted) accepted += c.pass ? 1 : 0;
  Verdict v{"selftest." + name, valid.pass && accepted == 0, ""};
  v.detail = std::string("valid input ") +
             (valid.pass ? "accepted" : "REJECTED") + ", " +
             std::to_string(corrupted.size() - accepted) + "/" +
             std::to_string(corrupted.size()) + " corruptions rejected";
  return v;
}

hyparview::analysis::MessageResult message(std::uint16_t hops,
                                           hyparview::Duration latency,
                                           std::size_t delivered,
                                           std::size_t alive) {
  hyparview::analysis::MessageResult r;
  r.max_hops = hops;
  r.begin_time = 1000;
  r.last_delivery = 1000 + latency;
  r.delivered = delivered;
  r.alive_nodes = alive;
  return r;
}

/// Ring 0-1-2-3-0 with capacity 2: valid HyParView views.
ViewSnapshot ring() {
  ViewSnapshot s;
  s.active = {{1, 3}, {0, 2}, {1, 3}, {2, 0}};
  s.passive = {{2}, {3}, {0}, {1}};
  s.alive = {true, true, true, true};
  s.active_capacity = 2;
  return s;
}

}  // namespace

std::vector<Verdict> run_self_tests() {
  std::vector<Verdict> out;

  {
    const double r2 = meanfield_reliability(2.0);
    out.push_back(self_test("meanfield", check_meanfield(2, r2 + 0.01, 0.02),
                            {check_meanfield(2, r2 - 0.05, 0.02),
                             check_meanfield(2, r2 + 0.05, 0.02)}));
  }
  {
    using R = hyparview::analysis::MessageResult;
    const std::vector<R> good = {message(3, 2000, 10, 10),
                                 message(0, 0, 1, 1)};
    const std::vector<R> too_fast = {message(3, 1400, 10, 10)};
    const std::vector<R> too_slow = {message(3, 4600, 10, 10)};
    out.push_back(self_test(
        "latency_bounds", check_latency_bounds(good, 500, 1500, true),
        {check_latency_bounds(too_fast, 500, 1500, true),
         check_latency_bounds(too_fast, 500, 1500, false),
         check_latency_bounds(too_slow, 500, 1500, true)}));
    const std::vector<R> one_short = {message(3, 2000, 10, 10),
                                      message(3, 2000, 9, 10)};
    out.push_back(self_test("full_delivery",
                            check_full_delivery("delivery", good),
                            {check_full_delivery("delivery", one_short)}));
  }
  out.push_back(self_test("equal_totals", check_equal("totals", 4096, 4096),
                          {check_equal("totals", 4096, 4095),
                           check_equal("totals", 4095, 4096)}));
  // Ring of 4, degree 2 each: sum 8, so 8 - 3 = 5 forwards per message.
  out.push_back(self_test("flood_forwards",
                          check_flood_forwards(50, 10, 8, 4),
                          {check_flood_forwards(51, 10, 8, 4),
                           check_flood_forwards(49, 10, 8, 4)}));
  {
    std::vector<Verdict> bad;
    ViewSnapshot asym = ring();
    asym.active[0] = {1};  // 3 still lists 0
    bad.push_back(check_views(asym));
    ViewSnapshot self = ring();
    self.active[1] = {0, 1};
    bad.push_back(check_views(self));
    ViewSnapshot big = ring();
    big.active[0] = {1, 3, 2};
    big.active[2] = {1, 3, 0};
    big.passive[0].clear();
    big.passive[2].clear();
    bad.push_back(check_views(big));
    ViewSnapshot overlap = ring();
    overlap.passive[0] = {1};
    bad.push_back(check_views(overlap));
    ViewSnapshot split = ring();
    split.active = {{1}, {0}, {3}, {2}};
    bad.push_back(check_views(split));
    ViewSnapshot stranger = ring();
    stranger.active[0] = {1, ViewSnapshot::kNoSlot};
    stranger.active[3] = {2};
    bad.push_back(check_views(stranger));
    out.push_back(self_test("views", check_views(ring()), bad));
  }
  return out;
}

}  // namespace perfbench
