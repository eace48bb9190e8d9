// Output checks. Each compares a run's output against an independent
// computation or a property the method must have, and each is a pure
// function of plain data, so run_self_tests() can feed it corrupted input
// and confirm that it rejects it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hyparview/analysis/broadcast_recorder.hpp"
#include "hyparview/common/time.hpp"

namespace perfbench {

struct Verdict {
  std::string name;
  bool pass = false;
  std::string detail;
};

/// Mean-field infect-and-die reliability for gossip fanout f: the non-zero
/// fixed point of r = 1 - e^(-f r) (0 for f <= 1).
[[nodiscard]] double meanfield_reliability(double fanout);

/// |measured - meanfield_reliability(fanout)| <= tolerance.
[[nodiscard]] Verdict check_meanfield(std::size_t fanout, double measured,
                                      double tolerance);

/// Every message: latency_to_last >= max_hops * latency_min, and, when
/// `check_upper`, <= max_hops * latency_max (a message that crosses h hops
/// spends between latency_min and latency_max on each).
[[nodiscard]] Verdict check_latency_bounds(
    std::span<const hyparview::analysis::MessageResult> results,
    hyparview::Duration latency_min, hyparview::Duration latency_max,
    bool check_upper);

/// Two independently kept totals of the same quantity agree exactly.
[[nodiscard]] Verdict check_equal(const std::string& name, std::uint64_t a,
                                  std::uint64_t b);

/// Eager flood over a symmetric overlay: the source sends to all of its
/// neighbours and every other node to all but the one it heard from, so one
/// message costs sum(degree) - (n - 1) forwards.
[[nodiscard]] Verdict check_flood_forwards(std::uint64_t forwards,
                                           std::uint64_t messages,
                                           std::uint64_t degree_sum,
                                           std::uint64_t nodes);

/// HyParView views of every node, as node slots (kNoSlot for an entry that
/// names no node of the cluster).
struct ViewSnapshot {
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  std::vector<std::vector<std::size_t>> active;
  std::vector<std::vector<std::size_t>> passive;
  std::vector<bool> alive;
  std::size_t active_capacity = 0;
};

/// Active views of alive nodes are symmetric, hold at most capacity entries,
/// no self entry and no unknown peer, share no entry with the passive view,
/// and connect all alive nodes into one component.
[[nodiscard]] Verdict check_views(const ViewSnapshot& views);

/// Every message reached every node that was alive when it was published.
[[nodiscard]] Verdict check_full_delivery(
    const std::string& name,
    std::span<const hyparview::analysis::MessageResult> results);

/// Each check fed a valid input (must pass) and corrupted inputs (must all
/// fail); a verdict passes when the check behaved so.
[[nodiscard]] std::vector<Verdict> run_self_tests();

}  // namespace perfbench
