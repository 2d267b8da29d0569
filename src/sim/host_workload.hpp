// Host-level (LBA) workload generator for the open-loop SSD
// simulator. Unlike the physical-address workloads in workload.hpp,
// it addresses the FTL's logical page space, and its defining feature
// is *overwrite*: re-writing live LPAs is what invalidates physical
// pages, triggers garbage collection, and spreads wear — the
// machinery the per-block adaptive configuration pays off on.
//
// Every generated command arrives back to back (gap 0): the stream
// is the maximum-pressure open-loop case. Paced arrivals come from
// hand-built or replayed command vectors (host::Command::gap).
#pragma once

#include <string>
#include <vector>

#include "src/ftl/mapping.hpp"
#include "src/host/command.hpp"
#include "src/util/rng.hpp"

namespace xlf::sim {

// One tenant of the generator: skewed hot/cold overwrite traffic
// with trim. A `hot_fraction` slice of the LPA space receives
// `hot_write_fraction` of all writes (0.2/0.8 approximates the usual
// "80% of writes hit 20% of data"); reads, a `read_fraction` of
// requests, target LPAs the stream has already written, so every
// read hits mapped data; a `trim_fraction` share of the non-read
// requests deallocates a previously written LPA instead of
// overwriting one, which hands the FTL's GC cheap (invalid-page-rich)
// victims.
struct TenantSpec {
  double hot_fraction = 0.25;
  double hot_write_fraction = 0.85;
  double read_fraction = 0.3;
  double trim_fraction = 0.0;
};

// Multi-tenant host-command generator: tenant i submits on queue i
// and draws its stream from its own serially pre-forked Rng, so
// adding a tenant never reshuffles another tenant's draws. All
// arrivals are at time 0, so the merged stream is the tenants'
// streams appended in tenant order (the arbiter, not the stream
// order, decides which queue issues first).
//
// With exactly one tenant the generator draws from the caller's Rng
// directly (no fork), which keeps the single-queue sweep rows on the
// stream they have always used (tests/test_host_workload.cpp pins
// both shapes with golden digests).
class MultiTenantWorkload {
 public:
  explicit MultiTenantWorkload(std::vector<TenantSpec> tenants);

  std::size_t tenants() const { return tenants_.size(); }
  std::string name() const { return "multi-tenant"; }

  // Generate `count` commands total, split evenly across tenants
  // (earlier tenants absorb the remainder).
  std::vector<host::Command> generate(std::uint32_t logical_pages,
                                      std::size_t count, Rng& rng) const;

 private:
  std::vector<TenantSpec> tenants_;
};

}  // namespace xlf::sim
