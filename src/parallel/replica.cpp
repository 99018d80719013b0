#include "parallel/replica.hpp"

#include <cstdlib>

#include "sim/parse.hpp"

namespace dyncdn::parallel {

namespace {

/// SplitMix64 finalizer: the same mixing core RngFactory uses, applied to
/// the combined (base, index) word so replica universes never collide with
/// the named streams derived inside a replica.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t replica_seed(std::uint64_t base_seed,
                           std::uint64_t replica_index) {
  return mix(mix(base_seed) ^ (replica_index * 0xd1b54a32d192ed03ULL + 1));
}

std::size_t resolve_threads(const ExecutorConfig& config) {
  if (config.threads > 0) return config.threads;
  if (const char* env = std::getenv("DYNCDN_THREADS")) {
    if (const auto v = sim::parse_number<std::size_t>(env); v && *v > 0) {
      return *v;
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace dyncdn::parallel
