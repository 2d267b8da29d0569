#include "src/sim/host_workload.hpp"

#include <algorithm>

#include "src/util/expect.hpp"

namespace xlf::sim {
namespace {

void check_tenant(const TenantSpec& tenant) {
  XLF_EXPECT(tenant.hot_fraction > 0.0 && tenant.hot_fraction <= 1.0);
  XLF_EXPECT(tenant.hot_write_fraction >= 0.0 &&
             tenant.hot_write_fraction <= 1.0);
  XLF_EXPECT(tenant.read_fraction >= 0.0 && tenant.read_fraction < 1.0);
  XLF_EXPECT(tenant.trim_fraction >= 0.0 && tenant.trim_fraction < 1.0);
}

// Appends one tenant's `count` commands to `out`: per command a
// read-or-not draw, then (trim-enabled tenants only) a trim-or-not
// draw, then the target. The trim draw is gated on trim_fraction > 0
// so a trim-free tenant's stream does not depend on the trim branch.
void append_tenant_commands(const TenantSpec& tenant,
                            std::uint32_t logical_pages, std::size_t count,
                            std::uint16_t queue, Rng& rng,
                            std::vector<host::Command>& out) {
  XLF_EXPECT(logical_pages >= 2);
  const auto hot_pages = static_cast<std::uint32_t>(std::max(
      1.0, static_cast<double>(logical_pages) * tenant.hot_fraction));
  std::vector<ftl::Lpa> written;
  for (std::size_t i = 0; i < count; ++i) {
    host::Command command;
    command.queue = queue;
    command.tenant = queue;
    if (!written.empty() && rng.chance(tenant.read_fraction)) {
      command.type = host::CmdType::kRead;
      command.lba = written[rng.below(written.size())];
    } else if (tenant.trim_fraction > 0.0 && !written.empty() &&
               rng.chance(tenant.trim_fraction)) {
      // Deallocate a live LPA; swap-pop keeps the written set compact
      // so trimmed pages stop attracting reads and re-trims.
      command.type = host::CmdType::kTrim;
      const std::size_t victim = rng.below(written.size());
      command.lba = written[victim];
      written[victim] = written.back();
      written.pop_back();
    } else {
      command.type = host::CmdType::kWrite;
      if (rng.chance(tenant.hot_write_fraction)) {
        // Hot set: the low end of the LPA space.
        command.lba = static_cast<ftl::Lpa>(rng.below(hot_pages));
      } else {
        command.lba = static_cast<ftl::Lpa>(
            hot_pages + rng.below(logical_pages - hot_pages));
      }
      written.push_back(command.lba);
    }
    out.push_back(command);
  }
}

}  // namespace

MultiTenantWorkload::MultiTenantWorkload(std::vector<TenantSpec> tenants)
    : tenants_(std::move(tenants)) {
  XLF_EXPECT(!tenants_.empty());
  for (const TenantSpec& tenant : tenants_) check_tenant(tenant);
}

std::vector<host::Command> MultiTenantWorkload::generate(
    std::uint32_t logical_pages, std::size_t count, Rng& rng) const {
  std::vector<host::Command> out;
  out.reserve(count);
  // Single tenant: draw from the caller's stream directly, no fork.
  if (tenants_.size() == 1) {
    append_tenant_commands(tenants_[0], logical_pages, count, 0, rng, out);
    return out;
  }

  // Per-tenant streams from serially pre-forked Rngs: adding a tenant
  // never reshuffles another tenant's draws.
  std::vector<Rng> streams;
  streams.reserve(tenants_.size());
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    streams.push_back(rng.fork());
  }
  const std::size_t per_tenant = count / tenants_.size();
  const std::size_t remainder = count % tenants_.size();
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    const std::size_t quota = per_tenant + (t < remainder ? 1 : 0);
    append_tenant_commands(tenants_[t], logical_pages, quota,
                           static_cast<std::uint16_t>(t), streams[t], out);
  }
  return out;
}

}  // namespace xlf::sim
