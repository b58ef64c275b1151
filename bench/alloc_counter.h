// Heap-allocation count for bench binaries that link alloc_counter.cpp,
// which replaces the global operator new with one that counts its calls.

#ifndef ISDL_BENCH_ALLOC_COUNTER_H
#define ISDL_BENCH_ALLOC_COUNTER_H

#include <cstddef>

namespace isdl::bench {

/// Calls of operator new made by this process so far.
std::size_t heapAllocations();

}  // namespace isdl::bench

#endif  // ISDL_BENCH_ALLOC_COUNTER_H
