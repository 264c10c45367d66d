//===- analysis/Analysis.cpp - Per-module bundle --------------------------===//

#include "analysis/Analysis.h"

#include <new>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define JTC_HAVE_MMAP 1
#endif

using namespace jtc;
using namespace jtc::analysis;

namespace {

/// See pageResource().
class PageResource final : public std::pmr::memory_resource {
  void *do_allocate(size_t Bytes, size_t Align) override {
#ifdef JTC_HAVE_MMAP
    (void)Align; // mappings are page-aligned
    void *P = mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (P == MAP_FAILED)
      throw std::bad_alloc();
    return P;
#else
    return std::pmr::new_delete_resource()->allocate(Bytes, Align);
#endif
  }
  void do_deallocate(void *P, size_t Bytes, size_t Align) override {
#ifdef JTC_HAVE_MMAP
    (void)Align;
    munmap(P, Bytes);
#else
    std::pmr::new_delete_resource()->deallocate(P, Bytes, Align);
#endif
  }
  bool do_is_equal(const memory_resource &O) const noexcept override {
    return this == &O;
  }
};

PageResource Pages;

/// First arena chunk; later chunks grow geometrically. The facts a
/// session at the serving scale touches fit in it.
constexpr size_t InitialArenaBytes = 256 * 1024;

} // namespace

std::pmr::memory_resource *analysis::pageResource() { return &Pages; }

ModuleAnalysis::ModuleAnalysis(const Module &M, bool Eager)
    : Mod(&M),
      PerMethod(new std::atomic<const MethodAnalysis *>[M.Methods.size()]()),
      Arena(InitialArenaBytes, &Pages) {
  if (!Eager)
    return;
  for (uint32_t F = 0; F < numMethods(); ++F)
    method(F);
  summaries();
}

ModuleAnalysis::~ModuleAnalysis() {
  // The arena frees the memory; the objects still need destroying.
  for (uint32_t F = 0; F < numMethods(); ++F)
    if (const MethodAnalysis *MA = PerMethod[F].load(std::memory_order_relaxed))
      MA->~MethodAnalysis();
}

const MethodAnalysis *ModuleAnalysis::computeMethod(uint32_t Id) const {
  if (Mod->Methods[Id].Code.empty())
    return nullptr;
  std::lock_guard<std::mutex> G(Lock);
  // Another thread may have computed it while this one waited.
  if (const MethodAnalysis *MA = PerMethod[Id].load(std::memory_order_relaxed))
    return MA;
  std::pmr::polymorphic_allocator<> Alloc(&Arena);
  const MethodAnalysis *MA = Alloc.new_object<MethodAnalysis>(*Mod, Id, &Arena);
  ++Computed;
  PerMethod[Id].store(MA, std::memory_order_release);
  return MA;
}

uint32_t ModuleAnalysis::methodsComputed() const {
  std::lock_guard<std::mutex> G(Lock);
  return Computed;
}

const ModuleSummaries &ModuleAnalysis::summaries() const {
  std::call_once(SummariesOnce,
                 [this] { Effects = ModuleSummaries::compute(*Mod); });
  return Effects;
}
