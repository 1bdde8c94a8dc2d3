#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace pb::alloc {
namespace {
std::atomic<std::uint64_t> g_news{0};
}  // namespace

std::uint64_t count() noexcept { return g_news.load(std::memory_order_relaxed); }

}  // namespace pb::alloc

void* operator new(std::size_t n) {
  pb::alloc::g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  pb::alloc::g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
