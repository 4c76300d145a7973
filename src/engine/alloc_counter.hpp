// Heap-allocation counting hook for the hot-path benchmarks.
//
// Linking the `psra_alloc_counter` library (and nothing else) replaces the
// global operator new/delete with forwarders to malloc/free, and the new
// side counts. AllocCount() then reports how many allocations the whole
// process has performed, across all threads. Binaries that do not link the library must
// not include this header (the symbol would be unresolved); bench_hotpath,
// test_alloc and perfbench link it.
//
// The counter is process-global and monotonically increasing; measure a
// region by differencing AllocCount() before and after. bench_hotpath
// isolates the per-iteration cost by differencing two runs of different
// lengths, which cancels setup/teardown allocations exactly.
#pragma once

#include <cstdint>

namespace psra::engine {

/// Number of global operator new invocations since process start.
std::uint64_t AllocCount();

}  // namespace psra::engine
