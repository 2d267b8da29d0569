// Device geometry for the simulated 2-bit/cell (4LC) NAND flash.
//
// The ECC block size matches the paper: 4 KB data pages with a spare
// area sized for the worst-case t = 65 parity (1040 bits) plus file
// system metadata. The bit-true array stores an analog threshold per
// cell (8 B) only for pages that hold data; erased pages cost a few
// bytes of bookkeeping. The default simulated array is still a small
// corner of a real die; all per-page behaviour is unaffected by the
// block count.
#pragma once

#include <cstddef>
#include <cstdint>

namespace xlf::nand {

struct Geometry {
  std::uint32_t data_bytes_per_page = 4096;  // 4 KB (paper Section 4)
  std::uint32_t spare_bytes_per_page = 224;  // holds ECC parity + metadata
  std::uint32_t pages_per_block = 16;
  std::uint32_t blocks = 2;

  std::uint32_t data_bits_per_page() const { return data_bytes_per_page * 8; }
  std::uint32_t spare_bits_per_page() const { return spare_bytes_per_page * 8; }
  std::uint32_t bits_per_page() const {
    return data_bits_per_page() + spare_bits_per_page();
  }
  // 2 bits per MLC cell.
  std::uint32_t cells_per_page() const { return bits_per_page() / 2; }
  std::uint32_t pages() const { return pages_per_block * blocks; }
};

struct PageAddress {
  std::uint32_t block = 0;
  std::uint32_t page = 0;  // within block

  friend bool operator==(const PageAddress&, const PageAddress&) = default;
};

}  // namespace xlf::nand
