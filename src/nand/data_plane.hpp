// Deferred data-plane queue: one per-die FIFO of cell-array jobs
// (program / erase / set_wear closures) that a NandDevice appends to
// instead of mutating its NandArray inline.
//
// The determinism contract is ordering, not threading: jobs drain in
// exactly the order they were pushed, so the die's array passes
// through the same state sequence as the undeferred execution.
// Statistical-mode placement draws from substreams keyed by (block,
// page, erase generation), so the order across pages does not change
// a page's cells; what must stay in push order is each block's
// erase / wear / program sequence, which fixes the generation and the
// wear a page is programmed at. Which thread runs drain() is
// irrelevant to the bytes produced; the only rule is that push() and
// drain() never run concurrently on the same queue. The simulator
// upholds it structurally: pushes happen on the issue thread, and
// drains happen either inline on that thread (a read landing on a die
// with pending cell work) or inside a blocking fork-join flush where
// each die's queue is owned by exactly one worker
// (sim::DieShardExecutor).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace xlf::nand {

class DataPlaneQueue {
 public:
  using Job = std::function<void()>;

  // Deferred batch: drained every flush, capacity recycles.
  void push(Job job) { jobs_.push_back(std::move(job)); }  // xlf-lint: allow(hot-alloc)

  bool pending() const { return !jobs_.empty(); }
  std::size_t pending_jobs() const { return jobs_.size(); }

  // Execute every pending job in push order, then reset. clear()
  // keeps the vector's capacity, so a warmed-up queue never grows.
  // xlf: hot
  void drain() {
    for (Job& job : jobs_) job();
    jobs_.clear();
  }

 private:
  std::vector<Job> jobs_;
};

}  // namespace xlf::nand
