// The replacement operators live in their own translation unit so that no
// caller inlines them: GCC then sees no new-expression paired with free().

#include "alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::size_t> gAllocations{0};
}  // namespace

void* operator new(std::size_t size) {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace isdl::bench {

std::size_t heapAllocations() {
  return gAllocations.load(std::memory_order_relaxed);
}

}  // namespace isdl::bench
