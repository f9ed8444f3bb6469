#include "nn/backend.hpp"

#include <atomic>

namespace fsda::nn {

namespace {
std::atomic<std::uint64_t> g_pack_nanos{0};
}  // namespace

double gemm_pack_seconds() {
  return static_cast<double>(g_pack_nanos.load(std::memory_order_relaxed)) *
         1e-9;
}

namespace detail {
void add_pack_nanos(std::uint64_t nanos) {
  g_pack_nanos.fetch_add(nanos, std::memory_order_relaxed);
}
}  // namespace detail

}  // namespace fsda::nn
