// Allocations whose size an input sets (a request count, a replica
// count): a count beyond memory must name the flag and spec key that
// set it, not pass the allocator's bare message ("vector::reserve",
// "std::bad_alloc") up to the user.
#pragma once

#include <cstddef>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace xlf::explore {

// Runs `allocate` and returns its result. `count` is the size `input`
// (e.g. "--ftl-requests / workload.requests") asked for; an allocator
// failure inside `allocate` (std::length_error, std::bad_alloc)
// becomes a std::runtime_error naming `input` and `count`.
template <typename Allocate>
auto fits_in_memory(std::string_view input, std::size_t count,
                    Allocate&& allocate) -> decltype(allocate()) {
  const auto too_large = [&] {
    std::ostringstream msg;
    msg << input << " = " << count << ": too large to fit in memory";
    return std::runtime_error(msg.str());
  };
  try {
    return allocate();
  } catch (const std::length_error&) {
    throw too_large();
  } catch (const std::bad_alloc&) {
    throw too_large();
  }
}

}  // namespace xlf::explore
