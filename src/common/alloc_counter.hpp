// Thread-local heap-allocation counter: replaces the global operator
// new/delete with counting forms so a binary can measure allocations per
// unit of work (the alloc regression test, gmpx_fuzz --stats).
//
// NOT an ordinary header: including it DEFINES the global allocation
// operators.  Include it from exactly ONE translation unit per binary —
// a second inclusion in the same program is a (loud) duplicate-definition
// link error by design.  Thread-local counting keeps the figure exact
// under worker threads without putting an atomic on the allocation path;
// read the calling thread's count via gmpx::thread_alloc_count().
#pragma once

#include <cstdint>
#include <cstdlib>
#include <new>

namespace gmpx {
namespace detail {
inline thread_local uint64_t t_alloc_count = 0;
}

/// Allocations performed by the calling thread since it started.
inline uint64_t thread_alloc_count() { return detail::t_alloc_count; }

}  // namespace gmpx

void* operator new(std::size_t n) {
  ++gmpx::detail::t_alloc_count;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  ++gmpx::detail::t_alloc_count;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
// The nothrow forms must be replaced too: std::stable_sort's temporary
// buffer comes from nothrow new and goes back through the operator delete
// above, which sanitizers flag as a mismatch against the library's new.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++gmpx::detail::t_alloc_count;
  return std::malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++gmpx::detail::t_alloc_count;
  return std::malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
